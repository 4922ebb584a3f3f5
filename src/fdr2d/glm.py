"""Regression layer: the rank rule, the one residualiser, splines.

Every adjustment for the confounders, in the statistics and the
samplers alike, residualises on a fixed design through Residualiser:
one QR, refused by the one scale-free rule of rank_deficient. Nothing
falls back to ridge or pseudo-inverse tricks.
"""

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import _accel
from .core import _as_matrix, _looks_binary

# every glm family by name, the one place a family is declared: its
# _accel kernel code and the outcome kind it models
_Family = namedtuple("_Family", "code y_kind")
FAMILIES = {
    "gaussian": _Family(_accel.GAUSSIAN, "continuous"),
    "binomial": _Family(_accel.BINOMIAL, "binary"),
    "poisson": _Family(_accel.POISSON, "count"),
    "negbinom": _Family(_accel.NEGBINOM, "count"),
}

# an R diagonal at most this share of its raw column's norm is rank deficient
_RANK_TOL = 1e-10
# rss below this fraction of the response sum of squares is a perfect fit
_PERFECT_TOL = 1e-24


def family_code(family, size):
    """Kernel code and negbinom size of a family, refusing what cannot be fit."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == "negbinom" and (size is None or size <= 0):
        raise ValueError("negbinom family requires a positive size")
    return FAMILIES[family].code, float(size if size is not None else 1.0)


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


class Residualiser:
    """Least-squares residualising on one fixed design (n, k), from its QR.

    fitted(v) = Q(Q'v) fits v (n, c), or each matrix of a stack (D, n, c),
    on the design's columns; residuals(v) = v - fitted(v) is the
    residual, written over the fitted values, so it makes one array of
    v's size. refusal is None, or the error a fit raises: n <= k, or
    rank_deficient refuses.
    """

    def __init__(self, design):
        n, k = design.shape
        self.q, r = np.linalg.qr(design)
        self.refusal = "singular design" if rank_deficient(r, design) else None
        if n <= k:
            self.refusal = "singular design: no residual degrees of freedom"

    def fitted(self, v):
        return self.q @ (self.q.T @ v)

    def residuals(self, v):
        fitted = self.fitted(v)
        return np.subtract(v, fitted, out=fitted)


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
    mat = basis.evaluate(v)
    if rank_deficient(np.linalg.qr(mat, mode="r"), mat):
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
        binary = kinds[c] == "binary" if kinds is not None else _looks_binary(col)
        if spline_df is not None and not binary:
            cols.append(natural_cubic_basis(col, df=spline_df).evaluate(col))
        else:
            cols.append(col[:, None])
    return np.hstack(cols)


def confounder_fits(z, kinds=None):
    """The Residualiser of the design [1, T(z)] (confounder_design) for
    each spline df, fitted on first use and then reused: a tensor's
    sampler fit and statistic read one fit of each design."""
    return functools.cache(lambda spline_df: Residualiser(confounder_design(z, spline_df, kinds)))
