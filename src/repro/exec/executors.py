"""Executors: run batches of independent experiments, serially or not.

The repeated-run procedure, the randomized factorial sweep, the
utilization sweep, and the capacity search are all embarrassingly
parallel — independent experiments with no shared state beyond their
spec.  Both executors here expose one verb:

    ``run(specs, progress=None) -> list of results`` (ordered)

with *identical semantics*: because :func:`repro.measure.measure_spec`
is a pure function of its spec on deterministic backends,
``SerialExecutor`` and ``ParallelExecutor`` produce bit-identical
results for the same specs (tested in ``tests/test_exec.py``).  Specs
whose measurement backend is *not* deterministic (e.g. ``"live"``)
bypass the result cache entirely — a wall-clock measurement is a
sample, not a value, and must never short-circuit a future run.

:class:`ParallelExecutor` adds a ``ProcessPoolExecutor`` behind
bounded submission (at most ``2 x max_workers`` futures outstanding,
so a 480-experiment factorial does not pickle 480 specs up front),
a per-task ``timeout``, and retry-on-crash: a worker that dies
(segfault, OOM-kill, ``os._exit``) breaks the pool, which is rebuilt
and the unfinished specs resubmitted up to ``retries`` times.
Deterministic task exceptions are *not* retried — re-running a pure
function on the same input is futile — they propagate immediately.

An optional :class:`~repro.exec.cache.ResultCache` short-circuits
execution for specs whose digest is already stored.

Module-level defaults (``set_execution_defaults`` / the ``execution``
context manager) let entry points like the CLI pick ``--jobs`` and
``--cache-dir`` once, while every driver that was not handed an
explicit executor inherits them via :func:`default_executor`.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from .api import (
    Capabilities,
    HealthPolicy,
    ProcessOptions,
    RetryPolicy,
    SerialOptions,
    backend_info,
    make_executor,
    register_backend,
)
from ..measure.api import backend_is_deterministic, measure_spec
from .cache import ResultCache
from .progress import ProgressHook, RunEvent

__all__ = [
    "ExecError",
    "ExecTimeout",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "execute_specs",
    "default_executor",
    "execution",
    "set_execution_defaults",
    "get_execution_defaults",
]


class ExecError(RuntimeError):
    """A task could not be completed by the executor."""


class ExecTimeout(ExecError):
    """A task exceeded the per-task timeout (after retries)."""


def _cacheable(spec: object) -> bool:
    """Whether results for ``spec`` may enter / be served from the cache.

    Only deterministic measurement backends honour the cache contract
    (equal digest ⇒ equal result); ``"sim"`` short-circuits without
    touching the registry.
    """
    name = getattr(spec, "backend", "sim") or "sim"
    return name == "sim" or backend_is_deterministic(name)


def _emit(
    progress: Optional[ProgressHook],
    index: int,
    total: int,
    spec: object,
    result: object,
    cached: bool,
    attempt: int = 1,
) -> None:
    if progress is None:
        return
    progress(
        RunEvent(
            index=index,
            total=total,
            digest=getattr(spec, "digest", lambda: "")(),
            tag=getattr(spec, "tag", ""),
            cached=cached,
            wall_s=float(getattr(result, "wall_s", 0.0)) if not cached else 0.0,
            events_processed=int(getattr(result, "events_processed", 0)),
            attempt=attempt,
        )
    )


class _ExecutorBase:
    """Shared cache plumbing and context-manager protocol."""

    def __init__(
        self,
        task: Callable[[object], object] = measure_spec,
        cache: Optional[ResultCache] = None,
    ):
        self.task = task
        self.cache = cache

    # -- cache ---------------------------------------------------------
    def _cache_get(self, spec: object) -> Optional[object]:
        if self.cache is None or not hasattr(spec, "digest"):
            return None
        if not _cacheable(spec):
            return None
        return self.cache.get(spec)

    def _cache_put(self, spec: object, result: object) -> None:
        if self.cache is not None and hasattr(spec, "digest") and _cacheable(spec):
            self.cache.put(spec, result)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:  # pragma: no cover - overridden where needed
        pass

    def __enter__(self) -> "_ExecutorBase":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- interface -----------------------------------------------------
    def run(
        self,
        specs: Sequence[object],
        progress: Optional[ProgressHook] = None,
    ) -> List[object]:
        raise NotImplementedError


class SerialExecutor(_ExecutorBase):
    """In-process, in-order execution (the reference semantics)."""

    def capabilities(self) -> Capabilities:
        return Capabilities(backend="serial")

    def run(
        self,
        specs: Sequence[object],
        progress: Optional[ProgressHook] = None,
    ) -> List[object]:
        specs = list(specs)
        results: List[object] = []
        for i, spec in enumerate(specs):
            result = self._cache_get(spec)
            cached = result is not None
            if not cached:
                result = self.task(spec)
                self._cache_put(spec, result)
            results.append(result)
            _emit(progress, i, len(specs), spec, result, cached)
        return results


class ParallelExecutor(_ExecutorBase):
    """Process-pool execution with bounded submission and crash retry.

    Parameters
    ----------
    max_workers:
        Worker processes (default: ``os.cpu_count()``).
    task:
        Module-level callable applied to each spec (picklable).
    cache:
        Optional result cache, consulted before submission.
    timeout:
        Per-task wall-clock budget in seconds.  A task that exceeds it
        is treated like a crash: the pool is abandoned (a stuck worker
        cannot be cancelled without breaking the pool anyway) and the
        spec retried on a fresh pool.
    retries:
        How many times a crashed/timed-out spec is re-attempted before
        :class:`ExecError` / :class:`ExecTimeout` is raised.

    At most ``2 x max_workers`` specs are submitted at a time.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        task: Callable[[object], object] = measure_spec,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
    ):
        super().__init__(task=task, cache=cache)
        self.max_workers = max_workers or os.cpu_count() or 1
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.timeout = timeout
        self.retries = retries
        self._pool: Optional[ProcessPoolExecutor] = None

    def capabilities(self) -> Capabilities:
        return Capabilities(
            backend="process",
            parallel=True,
            workers=self.max_workers,
            supports_timeout=True,
            supports_retry=True,
        )

    # -- pool lifecycle ------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _abandon_pool(self) -> None:
        """Drop the pool without waiting (used after crash/timeout)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- execution -----------------------------------------------------
    def run(
        self,
        specs: Sequence[object],
        progress: Optional[ProgressHook] = None,
    ) -> List[object]:
        specs = list(specs)
        total = len(specs)
        results: List[object] = [None] * total
        queue: deque = deque()
        attempts: Dict[int, int] = {}
        completed = 0

        for i, spec in enumerate(specs):
            hit = self._cache_get(spec)
            if hit is not None:
                results[i] = hit
                _emit(progress, completed, total, spec, hit, cached=True)
                completed += 1
            else:
                queue.append(i)
                attempts[i] = 0

        inflight: Dict[object, tuple] = {}  # future -> (index, deadline)

        def requeue_inflight() -> None:
            for _, (j, _dl) in inflight.items():
                queue.appendleft(j)
            inflight.clear()

        pool = self._ensure_pool() if queue else None
        while queue or inflight:
            while queue and len(inflight) < 2 * self.max_workers:
                i = queue.popleft()
                attempts[i] += 1
                deadline = (
                    time.monotonic() + self.timeout if self.timeout else None
                )
                inflight[pool.submit(self.task, specs[i])] = (i, deadline)

            wait_for = None
            if self.timeout is not None:
                soonest = min(dl for _, dl in inflight.values())
                wait_for = max(0.0, soonest - time.monotonic()) + 0.01
            done, _ = wait(
                list(inflight), timeout=wait_for, return_when=FIRST_COMPLETED
            )

            if not done:
                # Deadline expired with nothing finished: treat the
                # overdue tasks as crashed.  Stuck workers cannot be
                # cancelled, so the whole pool is abandoned and every
                # in-flight spec resubmitted on a fresh one.
                now = time.monotonic()
                overdue = [
                    i for _, (i, dl) in inflight.items() if dl is not None and now >= dl
                ]
                requeue_inflight()
                self._abandon_pool()
                for i in overdue:
                    if attempts[i] > self.retries:
                        self.close()
                        raise ExecTimeout(
                            f"spec #{i} exceeded timeout={self.timeout}s "
                            f"after {attempts[i]} attempt(s)"
                        )
                pool = self._ensure_pool()
                continue

            broken = False
            for fut in done:
                i, _dl = inflight.pop(fut)
                try:
                    result = fut.result()
                except BrokenProcessPool as err:
                    # A worker died; every sibling future is poisoned.
                    if attempts[i] > self.retries:
                        self.close()
                        raise ExecError(
                            f"spec #{i} crashed the worker pool "
                            f"{attempts[i]} time(s); giving up"
                        ) from err
                    queue.appendleft(i)
                    requeue_inflight()
                    self._abandon_pool()
                    pool = self._ensure_pool()
                    broken = True
                    break
                except BaseException:
                    # Deterministic task failure: retrying a pure
                    # function of the spec cannot help.  Fail fast.
                    self.close()
                    raise
                results[i] = result
                self._cache_put(specs[i], result)
                _emit(
                    progress,
                    completed,
                    total,
                    specs[i],
                    result,
                    cached=False,
                    attempt=attempts[i],
                )
                completed += 1
            if broken:
                continue
        return results


# ----------------------------------------------------------------------
# backend registration
# ----------------------------------------------------------------------
def _serial_factory(
    options: object,
    task: Callable[[object], object],
    cache: Optional[ResultCache],
) -> SerialExecutor:
    return SerialExecutor(task=task, cache=cache)


def _process_factory(
    options: ProcessOptions,
    task: Callable[[object], object],
    cache: Optional[ResultCache],
) -> ParallelExecutor:
    return ParallelExecutor(
        max_workers=options.workers,
        task=task,
        cache=cache,
        timeout=options.timeout,
        retries=options.retries,
    )


register_backend(
    "serial",
    _serial_factory,
    SerialOptions,
    summary="in-process, in-order execution (the reference semantics)",
)
register_backend(
    "process",
    _process_factory,
    ProcessOptions,
    summary="local process pool: bounded submission, timeout, crash retry",
)


# ----------------------------------------------------------------------
# defaults & conveniences
# ----------------------------------------------------------------------
_UNSET = object()
_DEFAULTS = {
    "jobs": 1,
    "cache_dir": None,
    "backend": None,
    "workers": None,
    "retries": None,
    "min_healthy_workers": None,
    "fault_plan": None,
}


def set_execution_defaults(
    jobs: Optional[int] = None,
    cache_dir: object = _UNSET,
    backend: object = _UNSET,
    workers: object = _UNSET,
    retries: object = _UNSET,
    min_healthy_workers: object = _UNSET,
    fault_plan: object = _UNSET,
) -> None:
    """Set process-wide execution defaults (used by the CLI flags).

    ``backend`` names a registered executor backend (``"serial"``,
    ``"process"``, ``"cluster"``, or a third-party registration); when
    unset, ``jobs`` picks serial (1) vs process (>1) as before.
    ``workers`` sizes the chosen backend.

    Resilience defaults (applied only to backends whose options accept
    them — see :func:`default_executor`):

    * ``retries`` — attempt budget per spec (process ``retries`` /
      cluster ``retry.max_attempts``);
    * ``min_healthy_workers`` — cluster graceful-degradation floor;
    * ``fault_plan`` — a ``repro.faults.FaultPlan`` (or injector) for
      chaos testing; never set in production.
    """
    if jobs is not None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        _DEFAULTS["jobs"] = int(jobs)
    if cache_dir is not _UNSET:
        _DEFAULTS["cache_dir"] = cache_dir
    if backend is not _UNSET:
        _DEFAULTS["backend"] = backend
    if workers is not _UNSET:
        if workers is not None and int(workers) < 1:
            raise ValueError("workers must be >= 1")
        _DEFAULTS["workers"] = None if workers is None else int(workers)
    if retries is not _UNSET:
        if retries is not None and int(retries) < 0:
            raise ValueError("retries must be >= 0")
        _DEFAULTS["retries"] = None if retries is None else int(retries)
    if min_healthy_workers is not _UNSET:
        if min_healthy_workers is not None and int(min_healthy_workers) < 0:
            raise ValueError("min_healthy_workers must be >= 0")
        _DEFAULTS["min_healthy_workers"] = (
            None if min_healthy_workers is None else int(min_healthy_workers)
        )
    if fault_plan is not _UNSET:
        _DEFAULTS["fault_plan"] = fault_plan


def get_execution_defaults() -> dict:
    return dict(_DEFAULTS)


@contextmanager
def execution(
    jobs: Optional[int] = None,
    cache_dir: object = _UNSET,
    backend: object = _UNSET,
    workers: object = _UNSET,
    retries: object = _UNSET,
    min_healthy_workers: object = _UNSET,
    fault_plan: object = _UNSET,
) -> Iterator[dict]:
    """Scoped execution defaults (restores the previous ones on exit)."""
    saved = get_execution_defaults()
    try:
        set_execution_defaults(
            jobs=jobs,
            cache_dir=cache_dir,
            backend=backend,
            workers=workers,
            retries=retries,
            min_healthy_workers=min_healthy_workers,
            fault_plan=fault_plan,
        )
        yield get_execution_defaults()
    finally:
        _DEFAULTS.clear()
        _DEFAULTS.update(saved)


def _resilience_kwargs(backend: str) -> Dict[str, object]:
    """Option kwargs for the configured resilience defaults, filtered
    to the fields the backend's options dataclass actually accepts
    (so ``--retries`` is meaningful for process *and* cluster while
    staying a silent no-op for serial)."""
    try:
        valid = {f.name for f in dataclasses.fields(backend_info(backend).options)}
    except Exception:  # unknown backend: let make_executor raise properly
        return {}
    kwargs: Dict[str, object] = {}
    retries = _DEFAULTS["retries"]
    if retries is not None:
        if "retries" in valid:
            kwargs["retries"] = int(retries)
        elif "retry" in valid:
            # Cluster semantics: N retries = N + 1 attempts, bounding
            # both lost-work requeues and transient task errors.
            kwargs["retry"] = RetryPolicy(max_attempts=int(retries) + 1)
    floor = _DEFAULTS["min_healthy_workers"]
    if floor is not None and "health" in valid:
        kwargs["health"] = HealthPolicy(min_healthy_workers=int(floor))
    fault_plan = _DEFAULTS["fault_plan"]
    if fault_plan is not None and "fault_plan" in valid:
        kwargs["fault_plan"] = fault_plan
    return kwargs


def default_executor(task: Callable[[object], object] = measure_spec) -> _ExecutorBase:
    """An executor honouring the process-wide defaults.

    Resolution order: an explicitly configured ``backend`` wins;
    otherwise ``jobs`` selects serial (1) or the process pool (>1),
    exactly as before the registry existed.  Resilience defaults
    (``retries`` / ``min_healthy_workers`` / ``fault_plan``) are
    translated into the chosen backend's option fields when it has
    them (:func:`_resilience_kwargs`).
    """
    backend = _DEFAULTS["backend"]
    workers = _DEFAULTS["workers"]
    jobs = _DEFAULTS["jobs"]
    cache_dir = _DEFAULTS["cache_dir"]
    if backend is None:
        backend = "serial" if jobs <= 1 else "process"
        if workers is None and jobs > 1:
            workers = jobs
    if backend == "serial":
        return make_executor("serial", task=task, cache_dir=cache_dir)
    option_kwargs = _resilience_kwargs(backend)
    if workers is not None:
        option_kwargs["workers"] = workers
    return make_executor(backend, task=task, cache_dir=cache_dir, **option_kwargs)


def execute_specs(
    specs: Sequence[object],
    executor: Optional[_ExecutorBase] = None,
    progress: Optional[ProgressHook] = None,
) -> List[object]:
    """Run ``specs`` through ``executor`` (or the process default).

    The single entry point every driver uses; owns the executor's
    lifecycle when it created one.
    """
    if executor is not None:
        return executor.run(specs, progress=progress)
    with default_executor() as ex:
        return ex.run(specs, progress=progress)
