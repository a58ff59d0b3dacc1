"""Adaptive latency histogram.

Section II-B of the paper identifies *static histogram binning* as a
load-tester pitfall: fixed bucket bounds break when the server is
highly utilized, because latency keeps climbing before steady state and
escapes the histogram's range.  Treadmill instead (Section III-A):

1. runs a **calibration** phase that buffers raw samples and derives
   the bin range from observed data,
2. then aggregates into fixed-width bins to bound memory, and
3. **re-bins** (doubling the covered range, merging adjacent bins)
   whenever enough samples land above the current upper bound.

:class:`AdaptiveHistogram` implements exactly that.  Samples above the
current range are kept *raw* until they trigger a re-bin, so no sample
is ever dropped or clamped — quantile queries remain accurate at the
tail, which is the whole point of the exercise.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["AdaptiveHistogram"]


class AdaptiveHistogram:
    """Bounded-memory latency aggregation with adaptive range.

    Parameters
    ----------
    num_bins:
        Number of equal-width bins after calibration.
    calibration_size:
        Raw samples buffered before the bin range is derived.
    overflow_rebin_fraction:
        Re-bin when raw overflow samples exceed this fraction of the
        total count (the paper: "re-binned when sufficient amount of
        values exceed the histogram limits").
    range_margin:
        Headroom multiplier applied to the calibrated maximum so the
        steady-state distribution fits without immediate re-binning.
    """

    def __init__(
        self,
        num_bins: int = 512,
        calibration_size: int = 1000,
        overflow_rebin_fraction: float = 0.01,
        range_margin: float = 2.0,
    ):
        if num_bins < 2:
            raise ValueError("num_bins must be >= 2")
        if calibration_size < 2:
            raise ValueError("calibration_size must be >= 2")
        if not 0.0 < overflow_rebin_fraction <= 1.0:
            raise ValueError("overflow_rebin_fraction must be in (0, 1]")
        if range_margin < 1.0:
            raise ValueError("range_margin must be >= 1.0")
        self.num_bins = num_bins
        self.calibration_size = calibration_size
        self.overflow_rebin_fraction = overflow_rebin_fraction
        self.range_margin = range_margin

        self._calibrating = True
        self._raw: List[float] = []
        self._counts: Optional[np.ndarray] = None
        self._lo = 0.0
        self._hi = 0.0
        self._width = 0.0
        self._overflow: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self.rebin_events = 0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    @property
    def calibrating(self) -> bool:
        """True while still buffering raw samples for range calibration."""
        return self._calibrating

    @property
    def count(self) -> int:
        return self._count

    @property
    def bounds(self) -> Tuple[float, float]:
        """Current (lower, upper) bin range; (0, 0) during calibration."""
        return (self._lo, self._hi)

    def add(self, value: float) -> None:
        """Record one latency sample (microseconds)."""
        if value != value or value < 0:
            raise ValueError(f"latency sample must be finite and >= 0, got {value!r}")
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self._calibrating:
            self._raw.append(value)
            if len(self._raw) >= self.calibration_size:
                self._finish_calibration()
            return
        if value >= self._hi:
            self._overflow.append(value)
            if len(self._overflow) > self.overflow_rebin_fraction * self._count:
                self._rebin(value)
            return
        idx = int((value - self._lo) / self._width)
        if idx < 0:
            idx = 0  # below calibrated lower bound: clamp into first bin
        self._counts[idx] += 1

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    def record_many(self, values) -> None:
        """Bulk-ingest a batch; exactly equivalent to sequential adds.

        The steady-state fast path vectorizes the in-range samples of
        each chunk (index computation and bin counting in numpy) while
        preserving :meth:`add`'s semantics bit-for-bit: the running
        ``_sum`` still accumulates one float at a time in order,
        calibration fills and finishes at exactly the same sample, and
        any overflow or invalid value is routed through the scalar
        :meth:`add` so re-binning and error behaviour are unchanged.
        """
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            arr = arr.ravel()
        n = int(arr.size)
        if n == 0:
            return
        if np.isnan(arr).any() or bool((arr < 0).any()):
            # Invalid sample somewhere in the batch: the scalar loop
            # ingests the valid prefix and raises at the same index
            # sequential adds would.
            for v in arr.tolist():
                self.add(v)
            return
        i = 0
        counts = None
        while i < n:
            if self._calibrating:
                take = min(n - i, self.calibration_size - len(self._raw))
                chunk = arr[i : i + take].tolist()
                s = self._sum
                mn = self._min
                mx = self._max
                raw_append = self._raw.append
                for v in chunk:
                    s += v
                    if v < mn:
                        mn = v
                    if v > mx:
                        mx = v
                    raw_append(v)
                self._count += take
                self._sum = s
                self._min = mn
                self._max = mx
                if len(self._raw) >= self.calibration_size:
                    self._finish_calibration()
                i += take
                continue
            chunk = arr[i:]
            over = np.nonzero(chunk >= self._hi)[0]
            stop = int(over[0]) if over.size else int(chunk.size)
            if stop > 0:
                sub = chunk[:stop]
                # _sum must accumulate sequentially (float addition is
                # not associative; np.sum would drift by ulps).
                s = self._sum
                for v in sub.tolist():
                    s += v
                self._sum = s
                self._count += stop
                mn = float(sub.min())
                mx = float(sub.max())
                if mn < self._min:
                    self._min = mn
                if mx > self._max:
                    self._max = mx
                idx = ((sub - self._lo) / self._width).astype(np.int64)
                # add() clamps below-range samples into the first bin.
                np.clip(idx, 0, None, out=idx)
                if counts is None:
                    counts = self._counts
                counts += np.bincount(idx, minlength=self.num_bins)
                i += stop
            if i < n:
                # First at-or-above-range sample: scalar add() keeps
                # the overflow/re-bin bookkeeping exact, then the loop
                # resumes against the (possibly widened) range.
                self.add(float(arr[i]))
                counts = None  # _rebin may have replaced the array
                i += 1

    def _finish_calibration(self) -> None:
        """Derive the bin range from buffered samples and bin them."""
        raw = self._raw
        lo = min(raw)
        hi = max(raw) * self.range_margin
        if hi <= lo:
            hi = lo + 1.0
        width = (hi - lo) / self.num_bins
        if width <= 0.0:
            # Degenerate calibration window (denormal samples): the
            # span is positive but underflows to zero width per bin.
            # Widen to a unit range rather than divide by zero.
            hi = lo + 1.0
            width = (hi - lo) / self.num_bins
        self._lo = lo
        self._hi = hi
        self._width = width
        self._counts = np.zeros(self.num_bins, dtype=np.int64)
        for v in raw:
            idx = min(int((v - lo) / self._width), self.num_bins - 1)
            self._counts[idx] += 1
        self._raw = []
        self._calibrating = False

    def _rebin(self, trigger_value: float) -> None:
        """Double the range (possibly repeatedly) and fold in overflow.

        Adjacent bins merge pairwise each doubling, so the bin count
        stays constant and memory stays bounded.
        """
        needed = max(trigger_value, max(self._overflow)) * 1.01
        while self._hi < needed:
            half = self._counts.reshape(self.num_bins // 2, 2).sum(axis=1)
            merged = np.zeros(self.num_bins, dtype=np.int64)
            merged[: self.num_bins // 2] = half
            self._counts = merged
            self._hi = self._lo + 2.0 * (self._hi - self._lo)
            self._width = (self._hi - self._lo) / self.num_bins
        overflow, self._overflow = self._overflow, []
        for v in overflow:
            idx = min(int((v - self._lo) / self._width), self.num_bins - 1)
            self._counts[idx] += 1
        self.rebin_events += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Exact mean of all ingested samples."""
        if self._count == 0:
            raise ValueError("histogram is empty")
        return self._sum / self._count

    def min(self) -> float:
        if self._count == 0:
            raise ValueError("histogram is empty")
        return self._min

    def max(self) -> float:
        if self._count == 0:
            raise ValueError("histogram is empty")
        return self._max

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile with within-bin interpolation.

        During calibration the raw buffer is used (exact); afterwards
        the estimate is accurate to one bin width plus any overflow
        samples, which are still raw and therefore exact.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self._count == 0:
            raise ValueError("cannot take a quantile of an empty histogram")
        if self._calibrating:
            return float(np.quantile(np.asarray(self._raw), q))
        target = q * self._count
        # Walk binned mass first, then the (sorted) raw overflow.
        cum = 0.0
        counts = self._counts
        for idx in range(self.num_bins):
            c = counts[idx]
            if c and cum + c >= target:
                frac = (target - cum) / c
                return self._lo + (idx + frac) * self._width
            cum += c
        overflow = sorted(self._overflow)
        if overflow:
            pos = min(int(target - cum), len(overflow) - 1)
            return overflow[max(0, pos)]
        return self._max

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        """Batch quantiles, bit-identical to per-q :meth:`quantile`.

        One cumsum + searchsorted replaces the per-q linear walk over
        the bins, and the raw overflow is sorted once instead of per q
        — metric extraction queries dense grids (thousands of points),
        where the scalar walk dominates report time.  While calibrating,
        one ``np.quantile`` call takes the whole grid.
        """
        qarr = np.asarray(qs, dtype=float)
        if qarr.size == 0:
            return []
        if not bool(np.all((qarr >= 0.0) & (qarr <= 1.0))):
            raise ValueError("q must be in [0, 1]")
        if self._count == 0:
            raise ValueError("cannot take a quantile of an empty histogram")
        if self._calibrating:
            return np.quantile(np.asarray(self._raw), qarr).tolist()
        counts = self._counts
        # int64 bin counts: the cumulative sums are exact integers
        # (representable in float64), so every comparison and the
        # interpolation arithmetic below match the scalar walk's float
        # accumulation bit for bit.
        cumsum = np.cumsum(counts)
        targets = qarr * self._count
        idxs = np.searchsorted(cumsum, targets, side="left")
        num_bins = self.num_bins
        lo = self._lo
        width = self._width
        in_bins = idxs < num_bins
        safe = np.where(in_bins, idxs, 0)
        c = counts[safe]
        direct = in_bins & (c > 0)
        # Same expressions as the scalar walk, elementwise: frac =
        # (target - cum_before) / c; value = lo + (idx + frac) * width.
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (targets - (cumsum[safe] - c)) / c
            vals = lo + (safe + frac) * width
        if bool(direct.all()):
            return vals.tolist()
        # Slow path for the rare leftovers: targets beyond the binned
        # mass (raw overflow / max) and exact ties on empty leading
        # bins (the scalar walk skips zero-count bins).
        out = vals.tolist()
        sorted_overflow: Optional[List[float]] = None
        total_binned = int(cumsum[-1]) if num_bins else 0
        counts_list = counts.tolist()
        cumsum_list = cumsum.tolist()
        for i in np.nonzero(~direct)[0].tolist():
            target = float(targets[i])
            idx = int(idxs[i])
            while idx < num_bins and not counts_list[idx]:
                idx += 1
            if idx < num_bins:
                cb = counts_list[idx]
                frac_i = (target - (cumsum_list[idx] - cb)) / cb
                out[i] = lo + (idx + frac_i) * width
                continue
            if sorted_overflow is None:
                sorted_overflow = sorted(self._overflow)
            if sorted_overflow:
                pos = min(int(target - total_binned), len(sorted_overflow) - 1)
                out[i] = sorted_overflow[max(0, pos)]
            else:
                out[i] = self._max
        return out

    def cdf_points(self) -> Tuple[np.ndarray, np.ndarray]:
        """(latency, cumulative probability) points for plotting CDFs.

        Forces calibration to finish if still buffering.
        """
        if self._count == 0:
            raise ValueError("histogram is empty")
        if self._calibrating:
            xs = np.sort(np.asarray(self._raw, dtype=float))
            ps = np.arange(1, len(xs) + 1) / len(xs)
            return xs, ps
        edges = self._lo + self._width * np.arange(1, self.num_bins + 1)
        cum = np.cumsum(self._counts).astype(float)
        if self._overflow:
            overflow = np.sort(np.asarray(self._overflow, dtype=float))
            edges = np.concatenate([edges, overflow])
            cum = np.concatenate(
                [cum, cum[-1] + np.arange(1, len(overflow) + 1)]
            )
        return edges, cum / self._count

    def state(self) -> dict:
        """JSON-serializable snapshot (persist runs across processes).

        Round-trips exactly through :meth:`from_state`: counts, bounds,
        overflow samples, calibration buffer, and exact moment
        accumulators are all preserved.
        """
        return {
            "num_bins": self.num_bins,
            "calibration_size": self.calibration_size,
            "overflow_rebin_fraction": self.overflow_rebin_fraction,
            "range_margin": self.range_margin,
            "calibrating": self._calibrating,
            "raw": list(self._raw),
            "counts": None if self._counts is None else self._counts.tolist(),
            "lo": self._lo,
            "hi": self._hi,
            "overflow": list(self._overflow),
            "count": self._count,
            "sum": self._sum,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "rebin_events": self.rebin_events,
        }

    @classmethod
    def from_state(cls, state: dict) -> "AdaptiveHistogram":
        """Rebuild a histogram from :meth:`state` output."""
        hist = cls(
            num_bins=state["num_bins"],
            calibration_size=state["calibration_size"],
            overflow_rebin_fraction=state["overflow_rebin_fraction"],
            range_margin=state["range_margin"],
        )
        hist._calibrating = state["calibrating"]
        hist._raw = list(state["raw"])
        if state["counts"] is not None:
            hist._counts = np.asarray(state["counts"], dtype=np.int64)
        hist._lo = state["lo"]
        hist._hi = state["hi"]
        hist._width = (
            (hist._hi - hist._lo) / hist.num_bins if not hist._calibrating else 0.0
        )
        hist._overflow = list(state["overflow"])
        hist._count = state["count"]
        hist._sum = state["sum"]
        hist._min = state["min"] if state["min"] is not None else math.inf
        hist._max = state["max"] if state["max"] is not None else -math.inf
        hist.rebin_events = state["rebin_events"]
        return hist

    def merge(self, other: "AdaptiveHistogram") -> "AdaptiveHistogram":
        """Pool two histograms into a new one (for ground-truth use).

        Implemented by re-ingesting the other's mass at bin midpoints;
        per-client *metric* aggregation (the statistically sound path)
        lives in :mod:`repro.core.aggregation` instead.
        """
        merged = AdaptiveHistogram(
            num_bins=self.num_bins,
            calibration_size=self.calibration_size,
            overflow_rebin_fraction=self.overflow_rebin_fraction,
            range_margin=self.range_margin,
        )
        for hist in (self, other):
            if hist._calibrating:
                merged.extend(hist._raw)
                continue
            mids = hist._lo + hist._width * (np.arange(hist.num_bins) + 0.5)
            for mid, c in zip(mids, hist._counts):
                for _ in range(int(c)):
                    merged.add(float(mid))
            merged.extend(hist._overflow)
        return merged
