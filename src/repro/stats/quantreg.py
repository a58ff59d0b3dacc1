"""Quantile regression (Koenker) via linear programming.

The paper's attribution engine (Section IV-A): estimate coefficients
``c_i(tau)`` of Equation 1 by minimizing the pinball loss, which
weights underestimates by ``tau`` and overestimates by ``1 - tau``
(Equation 4).  Unlike ANOVA this makes no normality assumption and
targets *any* quantile, which is what tail-latency attribution needs.

Two solvers are provided:

* ``method="lp"`` — the classical primal LP::

      min_{b, u, v}  tau * 1'u + (1 - tau) * 1'v
      s.t.           X b + u - v = y,   u, v >= 0

  solved with HiGHS through :func:`scipy.optimize.linprog` on sparse
  matrices.  Exact for any design matrix.

* ``method="saturated"`` — a fast exact path for saturated designs
  (the paper's full 2^4 model with all interactions): the conditional
  tau-quantile of each design cell is the cell's empirical
  tau-quantile, and the coefficients follow from one 16x16 solve.
  Orders of magnitude faster on large sample sets; used automatically
  when applicable under ``method="auto"``.  :func:`fit_saturated_batch`
  fits many responses over one design at once (the bootstrap's
  resamples); a single fit is its one-response case.

Degenerate dummy designs can trap LP solvers at non-unique vertices;
the paper perturbs the data with 0.01-sd symmetric noise before
fitting.  :func:`fit_quantile_regression` exposes the same knob
(``perturb_sd``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["QuantRegResult", "fit_quantile_regression", "pinball_loss", "predict"]


def pinball_loss(y: np.ndarray, pred: np.ndarray, tau: float) -> float:
    """Mean pinball (check) loss at quantile ``tau`` (Equation 4)."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")
    err = np.asarray(y, dtype=float) - np.asarray(pred, dtype=float)
    return float(np.mean(np.where(err >= 0, tau * err, (tau - 1.0) * err)))


@dataclass
class QuantRegResult:
    """Fit result for one quantile ``tau``."""

    tau: float
    coefficients: np.ndarray
    columns: List[str]
    loss: float
    method: str
    #: Filled in by repro.stats.inference when requested.
    stderr: Optional[np.ndarray] = None
    p_values: Optional[np.ndarray] = None

    def coef(self, name: str) -> float:
        """Coefficient by column name (e.g. ``"numa:turbo"``)."""
        try:
            return float(self.coefficients[self.columns.index(name)])
        except ValueError:
            raise KeyError(f"no model term {name!r}; have {self.columns}") from None

    def as_dict(self) -> Dict[str, float]:
        return dict(zip(self.columns, map(float, self.coefficients)))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return predict(X, self.coefficients)


def predict(X: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Model prediction ``X @ b`` with shape validation."""
    X = np.asarray(X, dtype=float)
    b = np.asarray(coefficients, dtype=float)
    if X.ndim != 2 or X.shape[1] != b.size:
        raise ValueError(f"X shape {X.shape} incompatible with {b.size} coefficients")
    return X @ b


def saturated_cells(X: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(cells, cell_of)`` when the design is saturated, else None.

    ``cells`` holds X's distinct rows (sorted, as :func:`numpy.unique`
    returns them) and ``cell_of`` the cell of each row of X.  Saturated
    means: the number of distinct rows equals the number of columns and
    those rows are linearly independent, so the model can represent
    any per-cell quantile vector exactly.
    """
    cells, cell_of = np.unique(X, axis=0, return_inverse=True)
    p = X.shape[1]
    if cells.shape[0] != p or np.linalg.matrix_rank(cells) < p:
        return None
    return cells, cell_of.ravel()


def fit_saturated_batch(
    cells: np.ndarray,
    cell_of: np.ndarray,
    Y: np.ndarray,
    tau: float,
    weights: np.ndarray,
) -> np.ndarray:
    """Exact saturated fits of ``B`` responses sharing one design.

    ``cells`` is the (p, p) matrix of distinct design rows,
    ``cell_of`` the cell of each of the n samples, ``Y`` a (B, n)
    response matrix and ``weights`` the n sample weights.  Each cell's
    tau-quantile is its inverse weighted CDF at ``tau``; the (B, p)
    coefficients solve ``cells @ b = cell quantiles`` for every row.
    """
    B, n = Y.shape
    p = cells.shape[0]
    sizes = np.bincount(cell_of, minlength=p)
    order = np.argsort(cell_of, kind="stable")
    cell = cell_of[order]
    slot = np.arange(n) - (np.cumsum(sizes) - sizes)[cell]
    # One row per cell, padded past each cell's size with NaN values of
    # weight 0: a stable sort puts the pads last and they leave every
    # running weight unchanged, so each row's cumulative sum is exactly
    # the cell's own.
    width = sizes.max()
    values = np.full((B, p, width), np.nan)
    values[:, cell, slot] = Y[:, order]
    w = np.zeros((1, p, width))
    w[0, cell, slot] = weights[order]
    rank = np.argsort(values, axis=-1, kind="stable")
    values = np.take_along_axis(values, rank, axis=-1)
    cum = np.cumsum(np.take_along_axis(w, rank, axis=-1), axis=-1)
    # First sorted sample whose running weight reaches tau of the total.
    idx = np.minimum((cum < tau * cum[..., -1:]).sum(axis=-1), sizes - 1)
    cell_q = np.take_along_axis(values, idx[..., None], axis=-1)
    return np.linalg.solve(np.broadcast_to(cells, (B, p, p)), cell_q)[..., 0]


def _fit_saturated(
    X: np.ndarray, y: np.ndarray, tau: float, weights: np.ndarray
) -> Optional[np.ndarray]:
    """Exact fit when the design is saturated; None when not applicable."""
    saturated = saturated_cells(X)
    if saturated is None:
        return None
    cells, cell_of = saturated
    return fit_saturated_batch(cells, cell_of, y[None, :], tau, weights)[0]


def _fit_lp(
    X: np.ndarray, y: np.ndarray, tau: float, weights: np.ndarray
) -> np.ndarray:
    """Primal LP with HiGHS on sparse matrices."""
    from scipy import sparse
    from scipy.optimize import linprog

    n, p = X.shape
    c = np.concatenate([np.zeros(p), tau * weights, (1.0 - tau) * weights])
    eye = sparse.identity(n, format="csc")
    A_eq = sparse.hstack([sparse.csc_matrix(X), eye, -eye], format="csc")
    bounds = [(None, None)] * p + [(0, None)] * (2 * n)
    res = linprog(c, A_eq=A_eq, b_eq=y, bounds=bounds, method="highs")
    if not res.success:  # pragma: no cover - HiGHS is robust on feasible LPs
        raise RuntimeError(f"quantile regression LP failed: {res.message}")
    return res.x[:p]


def fit_quantile_regression(
    X: np.ndarray,
    y: Sequence[float],
    tau: float,
    columns: Optional[Sequence[str]] = None,
    weights: Optional[Sequence[float]] = None,
    method: str = "auto",
    perturb_sd: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> QuantRegResult:
    """Fit one quantile-regression model.

    Parameters
    ----------
    X:
        Design matrix (n, p); build it with
        :func:`repro.stats.design.model_matrix`.
    y:
        Response samples (latencies, microseconds).
    tau:
        Target quantile in (0, 1).
    columns:
        Column names for reporting; defaults to ``x0..x{p-1}``.
    weights:
        Optional per-sample weights (e.g. from histogram compression).
    method:
        ``"auto"`` (saturated fast path when applicable, else LP),
        ``"saturated"`` (error if not applicable) or ``"lp"``.
    perturb_sd:
        Std-dev of symmetric noise added to ``y`` before fitting — the
        paper's anti-degeneracy trick for all-dummy designs.  Applied
        relative to nothing (absolute microseconds), matching the
        paper's "symmetric variance at 0.01 standard deviation".
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if y.ndim != 1 or y.size != X.shape[0]:
        raise ValueError(f"y length {y.size} != X rows {X.shape[0]}")
    if y.size == 0:
        raise ValueError("cannot fit on an empty sample")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")
    if columns is not None and len(columns) != X.shape[1]:
        raise ValueError("columns length must match X's column count")
    w = (
        np.ones(y.size)
        if weights is None
        else np.asarray(weights, dtype=float)
    )
    if w.shape != y.shape or (w < 0).any():
        raise ValueError("weights must be non-negative and match y's shape")

    if perturb_sd > 0.0:
        if rng is None:
            rng = np.random.default_rng(0)
        y = y + rng.normal(0.0, perturb_sd, size=y.size)

    beta = None
    used = method
    if method in ("auto", "saturated"):
        beta = _fit_saturated(X, y, tau, w)
        if beta is None:
            if method == "saturated":
                raise ValueError(
                    "design is not saturated (distinct rows != columns); "
                    "use method='lp'"
                )
            used = "lp"
        else:
            used = "saturated"
    if beta is None:
        if method not in ("auto", "lp"):
            raise ValueError(f"unknown method {method!r}")
        beta = _fit_lp(X, y, tau, w)
        used = "lp"

    cols = list(columns) if columns is not None else [f"x{i}" for i in range(X.shape[1])]
    loss = pinball_loss(y, X @ beta, tau)
    return QuantRegResult(tau=tau, coefficients=beta, columns=cols, loss=loss, method=used)
