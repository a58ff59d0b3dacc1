"""Host identity for benchmark provenance.

The repository benchmark (``bench/``) stores this next to every set of
runs (``bench/baseline.json``, ``bench/run.py --out``), and runs are
compared across commits, but the numbers are only comparable when
they come from comparable machines — a parallel speedup measured on a
1-CPU CI runner measures scheduling overhead, not parallelism.
:func:`host_info` records enough of the host's shape to make that
machine-detectable: the CPU count, the platform triple, and a stable
fingerprint digest so tooling can group trajectory points by host
without parsing free-form strings.

The fingerprint deliberately excludes anything volatile (hostname,
boot id, load) or privacy-sensitive: it is a hash of the hardware
shape and software platform only, so two identical CI runners produce
the same fingerprint.
"""

from __future__ import annotations

import hashlib
import os
import platform
from typing import Dict, Optional

__all__ = ["host_info", "host_fingerprint", "parallel_meaningful"]


def _shape() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python_implementation": platform.python_implementation(),
        "python_version": platform.python_version(),
        "processor": platform.processor(),
    }


def host_fingerprint() -> str:
    """Stable digest of the host's hardware/software shape."""
    shape = _shape()
    blob = "|".join(f"{k}={shape[k]}" for k in sorted(shape))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def parallel_meaningful(cpu_count: Optional[int] = None) -> bool:
    """Whether parallel speedup numbers from this host mean anything.

    On a single-CPU host a process pool or local cluster can only
    interleave, so wall-clock "speedups" there measure overhead.
    """
    n = cpu_count if cpu_count is not None else os.cpu_count()
    return (n or 1) > 1


def host_info() -> Dict[str, object]:
    """The provenance block benchmark payloads embed under ``"host"``."""
    info = _shape()
    info["fingerprint"] = host_fingerprint()
    info["parallel_meaningful"] = parallel_meaningful(info["cpu_count"])
    return info
