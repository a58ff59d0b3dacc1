"""Convergence detection for repeated-experiment aggregation.

Two convergence questions appear in the paper's methodology:

* **Within a run** (Fig. 4's x-axis): has the running quantile
  estimate stabilized as samples accumulate?  Answered by
  :class:`RunningQuantileTracker`, which records the estimate's
  trajectory and reports stability over a trailing window.

* **Across runs** (Section III-B): performance hysteresis means a
  single converged run is *not* enough; the procedure repeats whole
  experiments "until the mean of the collected measurements has
  already converged".  :class:`MeanConvergence` implements that
  stopping rule: the half-width of the confidence interval of the mean
  of per-run metrics, relative to the mean, must drop below a
  tolerance.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["RunningQuantileTracker", "MeanConvergence"]


class RunningQuantileTracker:
    """Tracks how a quantile estimate evolves as samples stream in.

    Records a trajectory point every ``checkpoint_every`` samples;
    :meth:`stable` reports whether the last ``window`` checkpoints all
    sit within ``rel_tol`` of their own mean — the "converges to a
    singular value" behaviour of Fig. 4.
    """

    def __init__(self, q: float, checkpoint_every: int = 1000):
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.q = q
        self.checkpoint_every = checkpoint_every
        self._samples: List[float] = []
        self.trajectory: List[float] = []
        self.sample_counts: List[int] = []

    def add(self, value: float) -> None:
        self._samples.append(value)
        if len(self._samples) % self.checkpoint_every == 0:
            est = float(np.quantile(np.asarray(self._samples), self.q))
            self.trajectory.append(est)
            self.sample_counts.append(len(self._samples))

    def extend(self, values: Sequence[float]) -> None:
        for v in values:
            self.add(v)

    def current(self) -> float:
        if not self._samples:
            raise ValueError("no samples yet")
        return float(np.quantile(np.asarray(self._samples), self.q))

    def stable(self, window: int = 5, rel_tol: float = 0.02) -> bool:
        """True when the last ``window`` checkpoints agree to rel_tol."""
        if len(self.trajectory) < window:
            return False
        tail = np.asarray(self.trajectory[-window:])
        center = tail.mean()
        if center == 0:
            return bool(np.all(tail == 0))
        return bool(np.max(np.abs(tail - center)) / abs(center) <= rel_tol)


class MeanConvergence:
    """Stopping rule for the repeat-until-converged procedure.

    Feed one metric per completed run (e.g. that run's p99).  The rule
    declares convergence when the two-sided ``confidence`` interval of
    the mean has relative half-width below ``rel_tol``, with at least
    ``min_runs`` runs observed.
    """

    def __init__(
        self,
        rel_tol: float = 0.05,
        confidence: float = 0.95,
        min_runs: int = 5,
        max_runs: Optional[int] = None,
    ):
        if not 0 < rel_tol:
            raise ValueError("rel_tol must be positive")
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if min_runs < 2:
            raise ValueError("min_runs must be >= 2 (variance needs two runs)")
        if max_runs is not None and max_runs < min_runs:
            raise ValueError("max_runs must be >= min_runs")
        self.rel_tol = rel_tol
        self.confidence = confidence
        self.min_runs = min_runs
        self.max_runs = max_runs
        self.values: List[float] = []

    def add(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"run metric must be finite, got {value!r}")
        self.values.append(value)

    @property
    def n(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        if not self.values:
            raise ValueError("no runs recorded")
        return float(np.mean(self.values))

    def half_width(self) -> float:
        """Half-width of the t-based CI of the mean of run metrics."""
        n = len(self.values)
        if n < 2:
            return math.inf
        sd = float(np.std(self.values, ddof=1))
        if sd == 0.0:
            return 0.0
        # scipy.stats.t.ppf(q, df) is this ufunc; calling it directly
        # keeps scipy.stats out of the process.
        from scipy.special import stdtrit

        t = stdtrit(n - 1, 0.5 + self.confidence / 2.0)
        return float(t * sd / math.sqrt(n))

    def is_converged(self) -> bool:
        """Pure convergence check: has the mean's CI tightened enough?

        This is the *single* definition of convergence — the procedure
        both stops on it (via :meth:`should_stop`) and reports it, so
        the two can never disagree.  A zero mean (where a relative
        tolerance is undefined) counts as converged exactly when the
        runs carry no dispersion at all.
        """
        if len(self.values) < 2:
            return False
        mean = self.mean()
        half = self.half_width()
        if mean == 0.0:
            return half == 0.0
        return half / abs(mean) <= self.rel_tol

    def should_stop(self) -> bool:
        """Stopping rule: enough runs and (converged or capped out)."""
        n = len(self.values)
        if n < self.min_runs:
            return False
        if self.max_runs is not None and n >= self.max_runs:
            return True
        return self.is_converged()
