"""Regression fitting layer: least squares, IRLS, splines, projections.

Everything downstream (statistics, samplers) builds designs and hands
them here. Fits never fall back to ridge or pseudo-inverse tricks; a
rank-deficient design, by the one scale-free rule of rank_deficient, is
an error the caller must see.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _accel
from .core import _as_matrix

FAMILIES = ("gaussian", "binomial", "poisson", "negbinom")
_FAMILY_CODES = {
    "gaussian": _accel.GAUSSIAN,
    "binomial": _accel.BINOMIAL,
    "poisson": _accel.POISSON,
    "negbinom": _accel.NEGBINOM,
}

# an R diagonal at most this share of its raw column's norm is rank deficient
_RANK_TOL = 1e-10
# rss below this fraction of the response sum of squares is a perfect fit
_PERFECT_TOL = 1e-24


class LeastSquares(NamedTuple):
    """Least-squares fit of one design against every response column.

    coef is (k, m), fitted and residuals (n, m). sigma2 (m,) is the
    residual variance rss / (n - k), exactly 0.0 for a column the design
    reproduces to float precision. ainv (k, k) is the unscaled
    covariance (R'R)^-1 that every column shares.
    """

    coef: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    sigma2: np.ndarray
    ainv: np.ndarray


@dataclass
class GlmFit:
    """IRLS fit; cov is the inverse observed Fisher information."""

    coef: np.ndarray
    se: np.ndarray
    converged: bool
    reason: str | None
    cov: np.ndarray
    family: str


def family_code(family, size):
    """Kernel code and negbinom size of a family, refusing what cannot be fit."""
    if family not in _FAMILY_CODES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family == "negbinom" and (size is None or size <= 0):
        raise ValueError("negbinom family requires a positive size")
    return _FAMILY_CODES[family], float(size if size is not None else 1.0)


def rank_deficient(r, raw):
    """Whether each block of the stack raw (..., n, k) is rank deficient.

    r is the QR factor of the block residualised on any fixed columns
    through their own QR. Deficient: some |R_ii| <= _RANK_TOL * ||raw_i||
    (so any zero column), or more columns than rows. As R(XD) = R D, this
    is the rule on the column-equilibrated R, free of column scale.
    """
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    tol = _RANK_TOL * np.linalg.norm(raw[..., : diag.shape[-1]], axis=-2)
    return np.any(diag <= tol, axis=-1) | (diag.shape[-1] < raw.shape[-1])


def ols_many(design, ymat):
    """Least squares of one design against every column of ``ymat``.

    One QR serves every column. Raises ValueError("singular design")
    when rank_deficient refuses the design, or when there are no
    residual degrees of freedom. No silent regularization.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(ymat, dtype=float)
    n, k = design.shape
    if y.shape[0] != n:
        raise ValueError(f"response length {y.shape[0]} does not match design rows {n}")
    if n <= k:
        raise ValueError("singular design: no residual degrees of freedom")
    q, r = np.linalg.qr(design)
    if rank_deficient(r, design):
        raise ValueError("singular design")
    qty = q.T @ y
    fitted = q @ qty
    residuals = y - fitted
    rinv = np.linalg.solve(r, np.eye(k))
    rss = np.einsum("ij,ij->j", residuals, residuals)
    yss = np.einsum("ij,ij->j", y, y)
    sigma2 = np.where(rss <= _PERFECT_TOL * yss, 0.0, rss / (n - k))
    return LeastSquares(rinv @ qty, fitted, residuals, sigma2, rinv @ rinv.T)


def irls(design, response, family, max_iter=50, tol=1e-8, size=None):
    """Fit a GLM by iteratively reweighted least squares.

    Families: binomial (logit), poisson (log), negbinom (log, fixed
    ``size``); a gaussian response is a least-squares fit (ols_many).
    Dispersion is never estimated. A non-converged fit is returned,
    not raised; ``reason`` is "max_iter" or "separation".
    """
    code, size = family_code(family, size)
    if code == _accel.GAUSSIAN:
        raise ValueError("irls fits binomial, poisson and negbinom; fit gaussian with ols_many")
    design = np.ascontiguousarray(design, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    if y.shape[0] != design.shape[0]:
        raise ValueError(f"response length {y.shape[0]} does not match design rows {design.shape[0]}")
    if family == "binomial" and not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("binomial family requires a 0/1 response")
    if family in ("poisson", "negbinom") and (np.any(y < 0) or np.any(y != np.floor(y))):
        raise ValueError(f"{family} family requires a non-negative integer response")
    coef, cov, status, _ = _accel.glm_fit_many(
        design, y[:, None], code, size, int(max_iter), float(tol)
    )
    if status[0] == 3:
        raise ValueError("singular design")
    se = np.sqrt(np.clip(np.diag(cov[0]), 0.0, None))
    reason = {0: None, 1: "max_iter", 2: "separation"}[int(status[0])]
    return GlmFit(coef[0], se, status[0] == 0, reason, cov[0], family)


@dataclass
class SplineBasis:
    """Natural cubic spline basis: df columns, linear beyond the boundary.

    Built from the truncated-power representation with the boundary
    second derivatives pinned to zero, so a design [1, basis] spans the
    natural cubic spline space on the df + 1 knots.
    """

    df: int
    interior_knots: np.ndarray
    boundary_knots: tuple

    def evaluate(self, values):
        v = np.asarray(values, dtype=float).ravel()
        knots = np.concatenate(
            [[self.boundary_knots[0]], self.interior_knots, [self.boundary_knots[1]]]
        )
        kk = knots.size
        last = knots[-1]
        cube_last = np.clip(v - last, 0.0, None) ** 3

        def ramp(j):
            return (np.clip(v - knots[j], 0.0, None) ** 3 - cube_last) / (last - knots[j])

        ref = ramp(kk - 2)
        cols = [v]
        for j in range(kk - 2):
            cols.append(ramp(j) - ref)
        return np.column_stack(cols)


def natural_cubic_basis(values, df=5):
    """Natural cubic spline basis with knots placed from ``values``.

    Interior knots sit at the equally spaced quantiles i/df for
    i = 1..df-1; boundary knots at the min and max. Raises when the
    values cannot support df distinct knot positions or the evaluated
    matrix is rank deficient.
    """
    if df < 3:
        raise ValueError("df must be at least 3")
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0 or not np.all(np.isfinite(v)):
        raise ValueError("values must be non-empty and finite")
    if np.unique(v).size < df:
        raise ValueError(f"fewer than df={df} distinct values")
    probs = np.arange(1, df) / df
    interior = np.quantile(v, probs)
    boundary = (float(v.min()), float(v.max()))
    knots = np.concatenate([[boundary[0]], interior, [boundary[1]]])
    if np.unique(knots).size != knots.size:
        raise ValueError(
            "ties collapse the knot sequence; need more distinct values for this df"
        )
    basis = SplineBasis(df, np.asarray(interior, dtype=float), boundary)
    if np.linalg.matrix_rank(basis.evaluate(v)) < df:
        raise ValueError("spline basis is rank deficient on these values")
    return basis


def confounder_design(z, spline_df=None, kinds=None):
    """Design [1, T(z)]: spline-expand continuous columns when asked.

    Binary columns (declared through ``kinds`` or detected as 0/1) stay
    raw; continuous columns are replaced by their natural cubic spline
    basis when ``spline_df`` is given.
    """
    z = _as_matrix(z)
    n, d = z.shape
    cols = [np.ones((n, 1))]
    for c in range(d):
        col = z[:, c]
        binary = (
            kinds[c] == "binary"
            if kinds is not None
            else bool(np.all((col == 0.0) | (col == 1.0)))
        )
        if spline_df is not None and not binary:
            cols.append(natural_cubic_basis(col, df=spline_df).evaluate(col))
        else:
            cols.append(col[:, None])
    return np.hstack(cols)


def projection_complement(basis):
    """Symmetric idempotent projector onto the orthocomplement of col(basis).

    Rank-deficient bases are handled through the SVD; the projector is
    exact for the column space actually present.
    """
    basis = _as_matrix(basis)
    n = basis.shape[0]
    if basis.shape[1] == 0:
        return np.eye(n)
    u, s, _ = np.linalg.svd(basis, full_matrices=False)
    keep = s > s[0] * max(basis.shape) * np.finfo(float).eps if s.size else np.zeros(0, bool)
    u = u[:, keep]
    p = np.eye(n) - u @ u.T
    return (p + p.T) / 2.0
