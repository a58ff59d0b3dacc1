"""The formal Executor API: the protocol and capabilities.

This module is the *contract* between experiment drivers (procedure,
attribution, sweeps, capacity) and execution backends.  Drivers talk
to one verb::

    executor.run(specs, progress=None) -> list of results (ordered)

and backends promise one invariant: because the task is a pure
function of its spec, **equal specs produce bit-identical results on
every backend** — serial or process pool.

Two pieces live here:

* :class:`Executor` — a :class:`typing.Protocol` (structural, so an
  executor need not inherit anything) with the ``run`` verb, a
  :meth:`~Executor.capabilities` self-description, and a
  context-manager lifecycle;
* :class:`Capabilities` — the backend name and worker count every
  executor reports.

The two backends are built by name with
:func:`repro.exec.executors.make_executor`::

    make_executor("process", workers=8)
    make_executor("serial", cache_dir="~/.cache/repro")

See ``src/repro/exec/API.md`` for the implementer-facing contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, runtime_checkable

from .progress import ProgressHook

__all__ = [
    "Capabilities",
    "Executor",
]


# ----------------------------------------------------------------------
# capabilities & protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Capabilities:
    """A backend's self-description (introspection without isinstance)."""

    #: Backend name ("serial" or "process").
    backend: str
    #: Worker slots, when the backend knows (None for serial).
    workers: Optional[int] = None


@runtime_checkable
class Executor(Protocol):
    """Structural interface every execution backend satisfies.

    Backends are context managers; ``close()`` must be idempotent and
    ``run()`` must be callable repeatedly on one executor (drivers
    probe convergence with incremental batches).
    """

    def run(
        self,
        specs: Sequence[object],
        progress: Optional[ProgressHook] = None,
    ) -> List[object]:
        """Execute ``specs``; return results in submission order."""
        ...

    def capabilities(self) -> Capabilities:
        """Static self-description of this backend instance."""
        ...

    def close(self) -> None:
        """Release pools and worker processes (idempotent)."""
        ...

    def __enter__(self) -> "Executor": ...

    def __exit__(self, *exc: object) -> None: ...
