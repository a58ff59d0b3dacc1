"""RunSpec: one independent experiment as a frozen, hashable value.

The paper's methodology is "many independent experiments, then
aggregate": repeated runs to defeat hysteresis (Fig. 4), >= 30
replications x 2^4 configurations for the factorial sweep (Table IV),
and one procedure per point in utilization sweeps.  Every one of those
experiments is fully described by the same small set of knobs — the
workload, the hardware factors, the offered load, the sample budget,
and the ``(seed, run_index)`` pair that makes it an *independent*
run.  :class:`RunSpec` captures exactly that description as an
immutable value with a stable content digest, so that

* executors (:mod:`repro.exec.executors`) can ship it to worker
  processes and run it anywhere — same spec, same result, bit for bit;
* the result cache (:mod:`repro.exec.cache`) can key completed runs by
  content, deduplicating identical configurations across benchmarks
  and CLI invocations; and
* schedulers can build the whole randomized factorial schedule up
  front and submit it at once instead of hand-rolling serial loops.

Execution itself lives behind the versioned
:class:`~repro.measure.api.MeasurementBackend` protocol:
:func:`repro.measure.measure_spec` reads ``spec.backend`` (absent or
``"sim"`` selects the historical virtual-time simulator) and routes to
the registered backend.  Every driver (procedure, attribution, sweeps,
capacity, experiment modules) ultimately funnels through that
dispatcher.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.treadmill import InstanceReport
from ..sim.machine import HardwareSpec
from ..workloads.base import Workload

__all__ = [
    "SPEC_SCHEMA",
    "RunSpec",
    "RunResult",
    "metric_samples",
    "spec_digest",
    "result_fingerprint",
]

#: Bump when the meaning of a spec field (or the execution semantics
#: behind it) changes; invalidates every cached result.
#: 2: canonicalization audit — type-tagged dict keys (no 1-vs-"1"
#:    collisions, total sort order), ndarray dtype in the digest,
#:    bytes/set/frozenset support.
#: 3: vectorized hot path — Treadmill instances draw inter-arrival
#:    gaps, connection picks, and request parameters from dedicated
#:    per-purpose RNG streams (batched in pre-sampled blocks).  The
#:    stream split changes the sampled values once; results remain
#:    deterministic and block-size-invariant thereafter.
#: 4: partitionable kernel — three execution-semantics changes that
#:    make results independent of how the event heap is sharded:
#:    (a) spine delays draw from per-source-host streams instead of
#:    one shared stream, (b) instances stop their own controller from
#:    inside the final counted sample instead of at the drive loop's
#:    next poll, (c) scenario antagonists stop at a deterministic
#:    virtual instant (last completion + network lookahead) instead of
#:    at a poll boundary.  Measurement samples are unchanged; trailing
#:    request counts, utilizations, and event totals shift once.
SPEC_SCHEMA = 4


# ----------------------------------------------------------------------
# canonical serialization (the digest substrate)
# ----------------------------------------------------------------------
def _canonical_blob(obj: object) -> str:
    """Compact JSON of the canonical form (a total order over values)."""
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


def _canonical(obj: object) -> object:
    """Convert ``obj`` into a JSON-serializable canonical form.

    The form is stable across processes, interpreter versions, and
    machines — the digest-keyed dedup of the distributed executor
    rides on this.  Audit notes:

    * no ``id()``/``hash()``-derived content anywhere;
    * floats are serialized with shortest-round-trip ``repr`` (exact
      and stable since CPython 3.1; ``nan``/``inf``/``-0.0`` all have
      fixed spellings), never as JSON numbers;
    * dict entries are ``[key, value]`` *pairs* sorted by the canonical
      JSON of the key — keys keep their type (``1`` and ``"1"`` cannot
      collide, and mixed-type keys sort totally, so insertion order
      can never leak into the digest);
    * ndarrays record their dtype (a float32 and float64 array with
      equal values are different experiments);
    * sets are sorted by canonical JSON (iteration order is
      hash-seed-dependent and must not leak in).
    """
    if obj is None or isinstance(obj, (str, bool, int)):
        return obj
    if isinstance(obj, float):
        return {"__float__": repr(obj)}
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    if isinstance(obj, np.generic):
        return _canonical(obj.item())
    if isinstance(obj, np.ndarray):
        return {
            "__ndarray__": [_canonical(x) for x in obj.tolist()],
            "dtype": str(obj.dtype),
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return {
            "__set__": sorted(
                (_canonical(x) for x in obj),
                key=lambda c: json.dumps(c, sort_keys=True, separators=(",", ":")),
            )
        }
    if isinstance(obj, dict):
        pairs = [[_canonical(k), _canonical(v)] for k, v in obj.items()]
        pairs.sort(
            key=lambda kv: json.dumps(kv[0], sort_keys=True, separators=(",", ":"))
        )
        return {"__dict__": pairs}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        body = {
            f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__qualname__, "fields": body}
    # Generic objects (workloads, distributions, operation mixes):
    # public instance state, sorted by attribute name.  Private
    # attributes are derived caches and excluded so equivalent
    # configurations digest equally.
    state = {
        k: _canonical(v)
        for k, v in sorted(vars(obj).items(), key=lambda kv: kv[0])
        if not k.startswith("_")
    }
    return {"__object__": type(obj).__qualname__, "state": state}


def spec_digest(obj: object) -> str:
    """Stable SHA-256 content digest of any canonicalizable object."""
    return hashlib.sha256(_canonical_blob(obj).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class RunSpec:
    """Complete description of one independent experiment.

    Exactly one of ``total_rate_rps`` / ``target_utilization`` must be
    set (mirroring :class:`~repro.core.procedure.ProcedureConfig`).
    ``(seed, run_index)`` select the independent random universe: the
    bench derives all per-run randomness from the pair, so equal specs
    produce bit-identical results in any process.
    """

    workload: Workload
    hardware: HardwareSpec = field(default_factory=HardwareSpec)
    total_rate_rps: Optional[float] = None
    target_utilization: Optional[float] = None
    num_instances: int = 4
    connections_per_instance: int = 16
    warmup_samples: int = 300
    measurement_samples_per_instance: int = 5_000
    quantiles: Tuple[float, ...] = (0.5, 0.95, 0.99)
    combine: str = "mean"
    keep_raw: bool = False
    seed: int = 0
    run_index: int = 0
    #: Free-form label surfaced by progress hooks (e.g. "util=0.70" or
    #: "cfg=(1,0,0,0) rep=3"); not part of the content digest.
    tag: str = ""
    #: Optional declarative scenario
    #: (:class:`repro.scenarios.schema.ScenarioSpec`).  When set, the
    #: spec describes one N-fleet x M-pool experiment and
    #: execution routes through the scenario runtime; the
    #: single-server load knobs above must stay unset (per-fleet loads
    #: live inside the scenario).  Excluded from the digest when None,
    #: so every pre-existing spec keeps its historical digest and cache
    #: entries survive.
    scenario: Optional[object] = None
    #: Measurement backend that executes this spec (a name from the
    #: :mod:`repro.measure` registry).  ``"sim"`` — the default — is
    #: the historical virtual-time simulator and is *excluded from the
    #: digest*, so every pre-existing spec keeps its digest and cache
    #: entries from earlier schema-3 runs still hit.  Non-default
    #: backends (e.g. ``"live"``) digest in: a wall-clock measurement
    #: and a simulation of the same knobs are different experiments.
    backend: str = "sim"
    #: Shard the simulation across this many in-process sub-kernels
    #: advancing in conservative time windows (:mod:`repro.sim.partition`);
    #: None and 1 run the plain serial kernel.  Every count is pinned
    #: bit-identical to the serial kernel, so this knob is a *how*,
    #: never a *what*: it is excluded from the content digest
    #: entirely, and cached results are shared across partition
    #: counts.  The scenario compiler auto-fills it from the rack
    #: topology when left None.
    partitions: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scenario is None:
            if (self.total_rate_rps is None) == (self.target_utilization is None):
                raise ValueError(
                    "set exactly one of total_rate_rps / target_utilization"
                )
        elif self.total_rate_rps is not None or self.target_utilization is not None:
            raise ValueError(
                "scenario specs carry per-fleet loads; leave "
                "total_rate_rps / target_utilization unset"
            )
        if self.num_instances < 1:
            raise ValueError("num_instances must be >= 1")
        if self.measurement_samples_per_instance < 1:
            raise ValueError("measurement_samples_per_instance must be >= 1")
        if not self.backend or not isinstance(self.backend, str):
            raise ValueError("backend must be a non-empty measurement backend name")
        if self.partitions is not None and self.partitions < 1:
            raise ValueError("partitions must be >= 1 (or None for serial)")
        object.__setattr__(self, "quantiles", tuple(self.quantiles))

    # -- identity ------------------------------------------------------
    def digest(self) -> str:
        """Stable content digest.

        Excludes the cosmetic ``tag`` and the execution-strategy
        ``partitions`` knob (any partition count is bit-identical to
        serial, so it cannot be part of *what* is measured).
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            body = {
                f.name: _canonical(getattr(self, f.name))
                for f in dataclasses.fields(self)
                if f.name not in ("tag", "partitions")
                and not (f.name == "scenario" and self.scenario is None)
                and not (f.name == "backend" and self.backend == "sim")
            }
            body["__schema__"] = SPEC_SCHEMA
            blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
            cached = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    def __getstate__(self) -> Dict[str, object]:
        """Drop the memoized digest when pickled.

        A spec travels to remote workers by pickle; the receiving
        interpreter must *recompute* the digest from content rather
        than trust a cached hex carried inside the payload — that
        recompute-and-compare is exactly how version skew between
        coordinator and worker is detected.
        """
        state = dict(self.__dict__)
        state.pop("_digest", None)
        return state

    def __hash__(self) -> int:
        return hash(self.digest())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunSpec):
            return NotImplemented
        return self.digest() == other.digest()

    def replace(self, **changes: object) -> "RunSpec":
        """A copy with ``changes`` applied (fresh digest)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> Dict[str, object]:
        if self.scenario is not None:
            load = f"scenario={getattr(self.scenario, 'name', '?')}"
        elif self.total_rate_rps is not None:
            load = f"{self.total_rate_rps:.0f} rps"
        else:
            load = f"util={self.target_utilization:.2f}"
        desc = {
            "workload": self.workload.name,
            "load": load,
            "instances": self.num_instances,
            "samples": self.measurement_samples_per_instance,
            "seed": self.seed,
            "run_index": self.run_index,
            "digest": self.digest()[:12],
        }
        if self.backend != "sim":
            desc["backend"] = self.backend
        if self.partitions is not None:
            desc["partitions"] = self.partitions
        return desc


# ----------------------------------------------------------------------
# the result
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """One independent experiment (one server boot).

    This is the value cached by :mod:`repro.exec.cache` and returned
    by every executor; :mod:`repro.core.procedure` re-exports it under
    the same name for backwards compatibility.
    """

    run_index: int
    reports: List[InstanceReport]
    #: Sound per-run estimates: per-instance quantiles combined.
    metrics: Dict[float, float]
    server_utilization: float
    client_utilizations: Dict[str, float]
    #: Content digest of the spec that produced this result.
    spec_digest: str = ""
    #: Wall-clock seconds this run took to simulate.
    wall_s: float = 0.0
    #: Simulator events processed during the run (telemetry).
    events_processed: int = 0
    #: True when the result was served from the on-disk cache.
    from_cache: bool = False
    #: Scenario runs only: sound per-(fleet, pool) estimates, keyed by
    #: the grouping pair.  Empty for single-fleet legacy runs.
    group_metrics: Dict[Tuple[str, str], Dict[float, float]] = field(
        default_factory=dict
    )
    #: Validity audit (:class:`repro.guards.GuardReport`) attached by
    #: the measurement dispatcher — pass/warn/fail verdicts from the
    #: Treadmill §II pitfall detectors.  None for results produced (or
    #: cached) before the guard layer existed.
    guards: Optional[object] = None

    def ground_truth(self) -> np.ndarray:
        """Pooled NIC-level samples across instances (tcpdump view)."""
        parts = [r.ground_truth_samples for r in self.reports]
        return np.concatenate(parts) if parts else np.empty(0)

    def raw_samples(self) -> np.ndarray:
        """Pooled raw user-level samples (only if keep_raw was set)."""
        parts = [np.asarray(r.raw_samples) for r in self.reports]
        return np.concatenate(parts) if parts else np.empty(0)


def result_fingerprint(result: RunResult) -> str:
    """Byte-level identity of a result, modulo execution incidentals.

    SHA-256 over the pickled result with the fields that legitimately
    differ between identical experiments normalized away: wall-clock
    time, cache provenance, and the dispatcher-attached guard report.
    Everything else — every histogram count, every raw sample, every
    trailing request total, ``events_processed`` — participates, so
    two fingerprints are equal iff the runs are bit-identical.  This
    is the comparator behind the serial-vs-partitioned identity gates
    (``tests/test_partition.py``) and the repository benchmark's
    round digests (``bench/``).

    Pickled with memoization disabled: the default memo encodes the
    object-*sharing* topology (which strings alias which), and that is
    an artifact of how a result was assembled, not of what it says —
    a merged multi-process result interns differently than a serial
    one.  The result graph is a tree, so no-memo pickling terminates.
    """
    import io
    import pickle

    normalized = dataclasses.replace(
        result, wall_s=0.0, from_cache=False, guards=None
    )
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=4)
    pickler.fast = True
    pickler.dump(normalized)
    return hashlib.sha256(buf.getvalue()).hexdigest()


# ----------------------------------------------------------------------
# execution primitive
# ----------------------------------------------------------------------
def metric_samples(report: InstanceReport) -> np.ndarray:
    """Per-instance latency view for metric extraction.

    Raw samples when kept (exact); otherwise the histogram is queried
    directly through a dense quantile grid, which preserves metric
    extraction accuracy to within a bin width.
    """
    raw = np.asarray(report.raw_samples, dtype=float)
    if raw.size:
        return raw
    qs = np.linspace(0.0005, 0.9995, 2000)
    return np.asarray(report.histogram.quantiles(qs))
