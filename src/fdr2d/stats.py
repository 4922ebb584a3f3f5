"""Marginal and conditional dependence statistics.

Every statistic maps to a nonnegative float where larger means stronger
dependence, and a degenerate draw scores 0 as a counted failure rather
than NaN, so downstream thresholding never sees missing values.
StatisticSpec declares each statistic and the data it takes,
make_evaluator builds its evaluator from the _EVALUATORS table, and
wald_pvalues turns Wald statistics into the p-values behind bh; the
one-feature forms the tests check them against are in tests/reference.py. An
evaluator scores every feature against a stack (D, n, p) of exposures in
one call, sharing whatever does not change across draws (centered
response kernels and their bandwidths, residualised responses, the
confounders' glm.Residualiser, spline knots), made when it is built. The
observed exposure is row 0 of the first stack a tensor scores, ahead of
its first draws; only a failure in that row raises, and a singular
observed design is refused before any draw is made. Every GLM Wald
statistic, the evaluator's pairs and the p-values behind bh
(engine.bh_rejections) alike, comes from _glm_wald, the one place that
lays out [1, x, z], which also returns a fit status per (draw, feature)
pair. Its non-gaussian fits run as one IRLS batch; the gaussian GLM and
basis Wald statistics share one batched least-squares routine,
_linear_block_stack; the RV, categorical and HSIC statistics are matrix
products over all draws.
"""

import functools
import warnings
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _accel, glm
from .core import _as_matrix, zero_variance_mask


# iteration limit and convergence tolerance of every IRLS fit here
_MAX_ITER = 50
_TOL = 1e-8
# columns of the basis-wald exposure spline
_BASIS_DF = 5
# share of the residualised response below which _linear_block_stack
# sums a pair's rss from its residuals
_NEAR_PERFECT = 1e-3
# draws whose products Q'r (p, m) _linear_block_stack holds at once
_QTY_DRAWS = 8


def _sq_distances(points):
    """Squared pairwise distances (n, n) between the rows of points.

    Accumulated column by column from explicit differences; the expanded
    gram form loses precision near ties and can go negative.
    """
    pts = _as_matrix(points)
    d2 = np.zeros((pts.shape[0], pts.shape[0]))
    for c in range(pts.shape[1]):
        diff = pts[:, c, None] - pts[None, :, c]
        d2 += diff * diff
    return d2


def _median_distance(d2):
    # the median-heuristic bandwidth: the median pairwise distance
    return float(np.median(np.sqrt(d2[_upper_pairs(d2.shape[0])])))


@functools.lru_cache(maxsize=8)
def _upper_pairs(n):
    # np.triu_indices(n, 1), made once per n and read-only: every median
    # of a tensor's draws reads the same pairs
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def gaussian_kernel(points, bandwidth=None):
    """Gaussian kernel matrix, by default at the median-distance bandwidth."""
    d2 = _sq_distances(points)
    if d2.shape[0] < 2:
        raise ValueError("kernel needs at least two rows")
    if bandwidth is None:
        bandwidth = _median_distance(d2)
        if bandwidth <= 0.0:
            raise ValueError("degenerate bandwidth: median pairwise distance is zero")
    elif bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    return np.exp(d2 / (-2.0 * bandwidth * bandwidth))


def _center_kernel(k):
    rm = k.mean(axis=1, keepdims=True)
    cm = k.mean(axis=0, keepdims=True)
    return k - rm - cm + k.mean()


def _standardize_columns(a):
    a = _as_matrix(a)
    if a.shape[1] == 0:
        return a
    sd = a.std(axis=0, ddof=1)
    return a / np.where(sd > 0.0, sd, 1.0)


def _regularized(kc, epsilon):
    # e^2 (K + eI)^-1 K (K + eI)^-1 through the eigendecomposition;
    # centered kernels are PSD so negative eigenvalues are noise
    lam, vec = np.linalg.eigh(kc)
    lam = np.maximum(lam, 0.0)
    scale = (epsilon * epsilon) * lam / (lam + epsilon) ** 2
    return (vec * scale) @ vec.T


def wald_pvalues(w, family, n, p, kz):
    """Two-sided p-values of the Wald statistics w of a p-column exposure
    block fit beside kz confounders on n rows: t reference for a gaussian
    univariate block, normal for other families, chi-square for p > 1.
    A statistic of 0 gives p = 1 exactly."""
    # imported here, not with the module: only bh needs p-values, and
    # scipy.special is most of the package's import time
    from scipy import special

    if p > 1:
        return special.chdtrc(p, w)
    if family == "gaussian":
        return 2.0 * special.stdtr(n - 1 - p - kz, -w)
    return 2.0 * special.ndtr(-w)


# a response block (n, m) made ready for _linear_block_stack, once per
# evaluator: fixed, the glm.Residualiser of the columns C every draw
# shares; resid, the block residualised on C; rss, its sum of squares
# per column; and tol, each column's perfect-fit tolerance
_Response = namedtuple("_Response", "fixed resid rss tol")


def _response(fixed, ymat, tol=None):
    """The _Response of ymat on fixed's columns. tol, the perfect-fit
    tolerance _PERFECT_TOL * ||y||^2 of each column, depends on ymat
    alone, so responses of one block may share it; made when not given."""
    resid = fixed.residuals(ymat)
    if tol is None:
        tol = glm._PERFECT_TOL * np.einsum("ij,ij->j", ymat, ymat)
    return _Response(fixed, resid, np.einsum("ij,ij->j", resid, resid), tol)


def _linear_block_stack(response, block, out=None):
    """Least-squares share of an exposure block, per (draw, response column).

    The joint model is [C, block]: response is the _Response of the
    outcome block on the columns C every draw shares, its residuals r
    made once with it; block (D, n, p) holds the draws' exposure blocks.
    By Frisch-Waugh-Lovell each draw's block is residualised on C once,
    and one batched QR (Q, R) of those blocks serves every column.
    Returns qf = ||Q'r||^2 and the joint sigma2 = rss / (n - kc - p), 0
    for a perfect fit, each (D, m), and singular (D,): C refused,
    glm.rank_deficient of R against the raw block, or n <= kc + p. rss
    is ||r||^2 - qf, or ||r - QQ'r||^2 where the block leaves under
    _NEAR_PERFECT of r and the difference cancels. A column C alone fits
    has qf = sigma2 = 0. qf is written into out, a (D, m) array, when
    one is given. The products Q'r are made _QTY_DRAWS draws at a time,
    so the call holds qf and rss and no third (D, m) array.
    """
    fixed, r_y, ryss, tol = response
    n, k = fixed.q.shape[0], fixed.q.shape[1] + block.shape[2]
    q, r = np.linalg.qr(fixed.residuals(block))
    singular = glm.rank_deficient(r, block) | (fixed.refusal is not None) | (n <= k)
    qf = np.empty((block.shape[0], r_y.shape[1])) if out is None else out
    rss = np.empty_like(qf)
    spanned = ryss <= tol
    near = np.maximum(_NEAR_PERFECT * ryss, tol)
    for lo in range(0, block.shape[0], _QTY_DRAWS):
        qb = q[lo : lo + _QTY_DRAWS]
        qty = np.swapaxes(qb, 1, 2) @ r_y
        qfb = np.einsum("dpj,dpj->dj", qty, qty, out=qf[lo : lo + _QTY_DRAWS])
        qfb[:, spanned] = 0.0
        rssb = np.subtract(ryss, qfb, out=rss[lo : lo + _QTY_DRAWS])
        rssb[:, spanned] = 0.0
        d, j = np.nonzero((rssb <= near) & ~spanned)
        resid = r_y[:, j].T - np.einsum("knp,kp->kn", qb[d], qty[d, :, j])
        rssb[d, j] = np.einsum("kn,kn->k", resid, resid)
    # sigma2, written over rss
    perfect = rss <= tol
    rss /= n - k
    rss[perfect] = 0.0
    return qf, rss, singular


def _glm_wald(xs, z, ymat, family, size, observed, out=None, response=None):
    """Wald statistics of x in the model [1, x, z] for every (draw,
    response column) pair: xs is the exposure stack (D, n, p), and z
    (n, kz) is shared by every draw, with no columns for the marginal
    model. Returns (stat, status), each (D, m). status is 0 fitted, 1
    iteration limit, 2 separation, 3 singular design (see
    _accel.glm_fit_many), and a failed fit's statistic is 0. The gaussian
    family goes through _linear_block_stack with fixed columns [1, z]:
    sqrt(qf / sigma2) for p = 1, else qf / sigma2, and a perfect fit with
    qf > 0 takes the zero-covariance rule of _accel.wald_block; a
    singular draw gets status 3 on every feature; response is ymat's
    _Response on [1, z] when the caller made it, else it is made here.
    Other families fit every pair in one _accel.glm_fit_many call.
    observed=True raises on a singular fit in row 0, the observed
    exposure. stat is written into out, a (D, m) array, when one is given.
    """
    code, size = glm.family_code(family, size)
    n, p = xs.shape[1:]

    def joint(xd):  # [1, x, z] for each draw of the stack xd
        ones = np.ones(xd.shape[:2] + (1,))
        return np.concatenate([ones, xd, np.broadcast_to(z, xd.shape[:1] + z.shape)], axis=2)

    if code == _accel.GAUSSIAN:
        if response is None:
            response = _response(glm.Residualiser(np.column_stack([np.ones(n), z])), ymat)
        qf, sigma2, singular = _linear_block_stack(response, xs, out)
        k = 1 + p + z.shape[1]
        perfect = np.nonzero((sigma2 == 0.0) & (qf > 0.0) & ~singular[:, None])
        # qf / sigma2, its root for p = 1, capped, all written over qf,
        # which is 0 wherever it is not positive
        with np.errstate(divide="ignore", invalid="ignore"):
            stat = np.divide(qf, sigma2, out=qf, where=qf > 0.0)
            if p == 1:
                np.sqrt(stat, out=stat)
            np.minimum(stat, _accel.STAT_CAP, out=stat)
        for d, j in zip(*perfect):
            coef = np.linalg.lstsq(joint(xs[d : d + 1])[0], ymat[:, j], rcond=None)[0]
            stat[d, j] = _accel.wald_block(coef[None], np.zeros((1, k, k)), p)[0]
        stat[singular] = 0.0
        status = np.broadcast_to(np.where(singular, 3, 0)[:, None], stat.shape)
    else:
        coef, cov, status, _ = _accel.glm_fit_many(joint(xs), ymat, code, size, _MAX_ITER, _TOL)
        ok = status == 0
        stat = np.empty(status.shape) if out is None else out
        stat[...] = 0.0
        stat[ok] = _accel.wald_block(coef[ok], cov[ok], p)
    if observed and np.any(status[0] == 3):
        j = int(np.argmax(status[0] == 3))
        raise ValueError(f"feature {j}: singular design on observed data")
    return stat, status


def _rows(out, draws, m):
    # the (marginal, conditional) row blocks a pairs call writes into:
    # the two (draws, m) arrays of out, or two new ones
    return out if out is not None else np.empty((2, draws, m))


class _GlmEvaluator:
    def __init__(self, dataset, spec, confounders, **_):
        code, size = glm.family_code(spec.family, spec.size)
        gaussian = code == _accel.GAUSSIAN
        # refuse a singular observed design before any draw, by the rank
        # rule and, for an IRLS family, by the information test of its
        # first iteration on the joint design [1, x, z]; a verdict on the
        # joint design covers its part [1, x], the marginal model
        ones = np.ones((dataset.n, 1))
        if glm.Residualiser(np.hstack([ones, dataset.z, dataset.x])).refusal:
            raise ValueError("feature 0: singular design on observed data")
        if not gaussian:
            design = np.hstack([ones, dataset.x, dataset.z])
            bad = _accel.singular_start(design, dataset.y, code, size)
            if bad.any():
                raise ValueError(f"feature {int(np.argmax(bad))}: singular design on observed data")
        # per draw: the gaussian block's Q (n, p) and its products Q'r
        # (p, m), or the IRLS working arrays (m, n)
        wide = max(dataset.n, dataset.m) * dataset.x.shape[1]
        self.draw_cells = wide if gaussian else dataset.n * dataset.m
        self._y = dataset.y
        self._z = dataset.z
        self._spec = spec
        # the gaussian outcomes residualised on [1, z], the shared fit of
        # confounders(None), and on [1], once
        self._responses = (None, None)
        if gaussian:
            full = _response(confounders(None), dataset.y)
            reduced = _response(glm.Residualiser(ones), dataset.y, full.tol)
            self._responses = (full, reduced)

    def pairs(self, xs, observed=False, out=None):
        # the conditional model [1, x, z], then the marginal [1, x]
        tm, tc = _rows(out, xs.shape[0], self._y.shape[1])
        args = (self._y, self._spec.family, self._spec.size, observed)
        full, reduced = self._responses
        _, full_status = _glm_wald(xs, self._z, *args, out=tc, response=full)
        _, red_status = _glm_wald(xs, self._z[:, :0], *args, out=tm, response=reduced)
        # a feature whose pair any failure zeroed counts once
        return tm, tc, int(np.count_nonzero(np.maximum(full_status, red_status)))


def _confounders(confounders, spline_df):
    # the Residualiser of rv's and basis-wald's confounder design [1, T(z)]
    fixed = confounders(spline_df)
    if fixed.refusal:
        raise ValueError("singular confounder design on observed data")
    return fixed


class _RvEvaluator:
    def __init__(self, dataset, spec, confounders, **_):
        self._dz = _confounders(confounders, spec.spline_df)
        y = dataset.y
        self._yc = y - y.mean(axis=0)
        self._ycss = np.einsum("ij,ij->j", self._yc, self._yc)
        self._py = self._dz.residuals(y)
        self._pyss = np.einsum("ij,ij->j", self._py, self._py)
        # the centered and residualised draw (2, n, p), or its products u'y (p, m)
        self.draw_cells = max(2 * dataset.n, dataset.m) * dataset.x.shape[1]

    def pairs(self, xs, observed=False, out=None):
        tm, tc = _rows(out, xs.shape[0], self._yc.shape[1])
        xc = xs - xs.mean(axis=1, keepdims=True)
        px = self._dz.residuals(xs)
        # a centered or residualised draw the rank rule refuses is rounding noise
        e1, e2 = glm.rank_deficient(np.linalg.qr(np.stack([xc, px]), mode="r"), xs)
        _rv_many(xc, self._yc, self._ycss, e1, tm)
        _rv_many(px, self._py, self._pyss, e2, tc)
        if observed and e1[0]:
            raise ValueError("constant exposure on observed data")
        if observed and e2[0]:
            raise ValueError("exposure lies in the confounder span on observed data")
        # every feature of a draw with an empty block is one failure
        return tm, tc, int(np.count_nonzero(e1 | e2)) * self._yc.shape[1]


def _rv_many(u, ymat, ycss, empty, out):
    """RV coefficients of every draw's exposure block with every response.

    Univariate responses: tr(Svv^2) = (y'y)^2, so the RV ratio reduces
    to sum_a (u_a'y)^2 / (||U'U||_F y'y) per draw and feature. u is a
    stack (D, n, p), and u'y for every draw is one (D p, n) @ (n, m)
    GEMM. The numerators are summed from those products into out, a
    (D, m) array, the denominators are written over the first block of
    the products, and the ratios over the numerators, so a call holds
    the products and no (D, m) array of its own. A draw marked empty
    scores 0 on every feature. Returns out.
    """
    nd, n, p = u.shape
    ut = np.swapaxes(u, 1, 2)
    uu = ut @ u
    unorm = np.sqrt(np.einsum("dab,dab->d", uu, uu))
    a = (ut.reshape(nd * p, n) @ ymat).reshape(nd, p, -1)
    num = np.einsum("dpj,dpj->dj", a, a, out=out)
    den = np.multiply(np.where(empty, 0.0, unorm)[:, None], ycss, out=a[:, 0])
    return np.minimum(_ratio_or_zero(num, den), 1.0, out=num)


def _ratio_or_zero(num, den):
    # num / den where den > 0, else 0, written into num
    pos = den > 0.0
    np.divide(num, den, out=num, where=pos)
    num[~pos] = 0.0
    return num


class _HsicEvaluator:
    def __init__(self, dataset, spec, bandwidths=None, **_):
        self._eps = float(spec.epsilon)
        # the draw's two kernels (2, n^2), or its two statistic rows (2, m)
        self.draw_cells = 2 * max(dataset.n**2, dataset.m)
        self._zstd = _standardize_columns(dataset.z)
        self._ky, bad = self._kernels(dataset.y.T[:, :, None], False, bandwidths)
        if bad:
            warnings.warn(f"{bad} features have degenerate kernels; statistics set to 0")

    def _kernels(self, vs, observed, bandwidths=None):
        # (2, len(vs), n^2): each v's centered kernel, at its given
        # bandwidth or else its median distance, and the regularized
        # kernel of [v, z], raveled, zero where v is degenerate; and the
        # count of degenerate vs
        out = np.zeros((2, vs.shape[0], vs.shape[1] ** 2))
        bad = 0
        for i, v in enumerate(vs):
            try:
                width = None if bandwidths is None else bandwidths[i]
                out[0, i] = _center_kernel(gaussian_kernel(v, width)).ravel()
                vz = np.hstack([_standardize_columns(v), self._zstd])
                kvz = _regularized(_center_kernel(gaussian_kernel(vz)), self._eps)
                out[1, i] = kvz.ravel()
            except ValueError:
                if observed and i == 0:
                    raise
                out[:, i] = 0.0
                bad += 1
        return out, bad

    def pairs(self, xs, observed=False, out=None):
        # one (draws, n^2) @ (n^2, m) product per statistic, into its rows
        tm, tc = _rows(out, xs.shape[0], self._ky.shape[1])
        kx, bad = self._kernels(xs, observed)
        for k, row in enumerate((tm, tc)):
            np.matmul(kx[k], self._ky[k].T, out=row)
            row /= xs.shape[1]
            np.maximum(row, 0.0, out=row)
        # a degenerate draw scores 0 on every feature, each a failure
        return tm, tc, bad * self._ky.shape[1]


class _CategoricalEvaluator:
    def __init__(self, dataset, spec, **_):
        z = dataset.z
        n, d = z.shape
        if d and not np.all((z == 0.0) | (z == 1.0)):
            raise ValueError("categorical statistics need binary confounders")
        codes = (
            (z.astype(np.int64) @ (1 << np.arange(d, dtype=np.int64)))
            if d
            else np.zeros(n, dtype=np.int64)
        )
        y = dataset.y
        # strata that can vary (two rows or more), with their rows of y
        self._strata = []
        for u in np.unique(codes):
            idx = np.flatnonzero(codes == u)
            if idx.size >= 2:
                self._strata.append((idx, y[idx], y[idx].sum(axis=0)))
        self._y = y
        self._c1 = y.sum(axis=0)
        self._n = n
        # the draw (n,), or its rows of counts and statistics (m,)
        self.draw_cells = max(n, dataset.m)

    def pairs(self, xs, observed=False, out=None):
        # the sums are integer counts, exact in any summation order, and
        # the rest is elementwise, so each draw's row is bit-identical to
        # scoring that draw alone. Four (D, m) buffers hold every row,
        # each computed in place in the operation order of the scalar forms;
        # two are the rows: prod ends as tm, num as tc
        xv = xs[:, :, 0]
        prod, num = _rows(out, xv.shape[0], self._y.shape[1])
        num[...] = 0.0
        den, part = np.zeros(num.shape), np.empty(num.shape)
        for idx, ys, cs in self._strata:
            nk = idx.size
            xk = xv[:, idx]
            rs = xk.sum(axis=1)[:, None]
            # num += xk'ys - rs cs / nk
            np.divide(np.multiply(rs, cs, out=part), nk, out=part)
            num += np.subtract(np.matmul(xk, ys, out=prod), part, out=prod)
            # den += rs (nk - rs) cs (nk - cs) / (nk^2 (nk - 1))
            np.multiply(np.multiply(rs * (nk - rs), cs, out=part), nk - cs, out=part)
            den += np.divide(part, nk * nk * (nk - 1.0), out=part)
        tc = _ratio_or_zero(np.multiply(num, num, out=num), den)

        n = float(self._n)
        r1 = xv.sum(axis=1)[:, None]
        r0 = n - r1
        c1 = self._c1
        c0 = n - c1
        a = np.matmul(xv, self._y, out=prod)
        flat = (r1[:, 0] <= 0.0) | (r0[:, 0] <= 0.0)
        if observed and flat[0]:
            raise ValueError("constant exposure on observed data")
        # d0 = a (n - r1 - c1 + a) - (r1 - a) (c1 - a)
        d0 = np.subtract(n - r1, c1, out=den)
        d0 += a
        d0 *= a
        bc = np.subtract(r1, a, out=part)
        d0 -= np.multiply(bc, np.subtract(c1, a, out=a), out=bc)
        # tm = n d0 d0 / (r1 r0 c1 c0)
        margins = np.multiply(np.multiply(r1 * r0, c1, out=bc), c0, out=bc)
        tm = _ratio_or_zero(np.multiply(np.multiply(n, d0, out=a), d0, out=a), margins)
        # a flat draw scores 0 on every feature, each a failure
        return tm, tc, int(np.count_nonzero(flat)) * self._y.shape[1]


class _BasisWaldEvaluator:
    def __init__(self, dataset, spec, confounders, **_):
        if dataset.x.shape[1] != 1:
            raise ValueError("basis statistics need a univariate exposure")
        # the spline's knots come from the observed exposure, so every
        # draw is evaluated in that one basis
        self._basis = glm.natural_cubic_basis(dataset.x[:, 0], df=_BASIS_DF)
        dz = _confounders(confounders, spec.spline_df)
        self._y = dataset.y
        self._yss = np.einsum("ij,ij->j", dataset.y, dataset.y)
        # the outcomes residualised on [1, T(z)], once, and on no
        # columns, which leaves them as they are
        joint = _response(dz, dataset.y)
        y = np.ascontiguousarray(dataset.y)
        none = glm.Residualiser(np.zeros((dataset.n, 0)))
        self._responses = (joint, _Response(none, y, np.einsum("ij,ij->j", y, y), joint.tol))
        # per draw, as for the gaussian GLM: the block's Q (n, _BASIS_DF)
        # and its products Q'r (_BASIS_DF, m)
        self.draw_cells = max(dataset.n, dataset.m) * _BASIS_DF

    def pairs(self, xs, observed=False, out=None):
        tm, tc = _rows(out, xs.shape[0], self._y.shape[1])
        bx = np.stack([self._basis.evaluate(xd[:, 0]) for xd in xs])
        # both statistics share the residual variance of the joint model
        # [dz, bx]; the marginal one is the share of bx alone. Each share
        # is summed into its row and the statistic made there
        joint, alone = self._responses
        _, sigma2, bad = _linear_block_stack(joint, bx, tc)
        _, _, bad_m = _linear_block_stack(alone, bx, tm)
        bad |= bad_m
        if observed and bad[0]:
            raise ValueError("singular basis-wald design on observed data")
        _qf_stat_many(tm, sigma2, self._yss)
        _qf_stat_many(tc, sigma2, self._yss)
        tm[bad] = tc[bad] = 0.0
        # every feature of a singular draw is one failure
        return tm, tc, int(np.count_nonzero(bad)) * self._y.shape[1]


def _qf_stat_many(qf, sigma2, yss):
    # qf / sigma2 clipped to [0, STAT_CAP], written over qf; where sigma2
    # is not positive, 0 for a negligible qf and STAT_CAP for another
    cap = _accel.STAT_CAP
    flat = ~(sigma2 > 0.0)
    small = qf <= 1e-16 * np.maximum(yss, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(qf, sigma2, out=qf)
        np.minimum(np.maximum(qf, 0.0, out=qf), cap, out=qf)
    qf[flat] = np.where(small[flat], 0.0, cap)


# every statistic, by the kind that names it: the one place a statistic
# is declared; StatisticSpec.check_kinds states the data each one takes
_EVALUATORS = {
    "glm": _GlmEvaluator,
    "rv": _RvEvaluator,
    "hsic": _HsicEvaluator,
    "categorical": _CategoricalEvaluator,
    "basis-wald": _BasisWaldEvaluator,
}


@dataclass(frozen=True)
class StatisticSpec:
    """Which dependence statistic to compute (a key of _EVALUATORS), with
    its knobs: the glm family (a key of glm.FAMILIES) and negbinom size,
    the confounder-spline df of rv and basis-wald, and the hsic ridge
    epsilon. Construction refuses a kind not in _EVALUATORS, a glm kind
    without a family, what glm.family_code refuses (a family not in
    glm.FAMILIES, and a negbinom without a positive size), an epsilon
    and a given size that are not finite and positive."""

    kind: str
    family: Optional[str] = None
    size: Optional[float] = None
    spline_df: int = 5
    epsilon: float = 0.001

    def __post_init__(self):
        if self.kind not in _EVALUATORS:
            *head, last = _EVALUATORS
            raise ValueError(
                f"unknown statistic kind {self.kind!r}; expected {', '.join(head)} or {last}"
            )
        if self.kind == "glm" and self.family is None:
            raise ValueError("glm statistics need a family, e.g. glm:gaussian")
        if self.kind == "glm":
            glm.family_code(self.family, self.size)
        for name in ("epsilon", "size"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a finite positive number, got {value}")

    @property
    def token(self):
        return f"glm:{self.family}" if self.kind == "glm" else self.kind

    @classmethod
    def from_token(cls, token, **overrides):
        token = token.strip()
        if token.startswith("glm:"):
            return cls(kind="glm", family=token[4:], **overrides)
        return cls(kind=token, **overrides)

    def unscorable(self, y):
        """(mask, bandwidths): the mask of the outcome columns this
        statistic scores (0, 0) whatever the exposure, zero-variance
        columns and, for hsic, those with a degenerate kernel (a median
        pairwise distance of 0); and for hsic each column's median
        pairwise distance, its kernel's bandwidth (0 where masked), which
        make_evaluator takes, else None."""
        mask = zero_variance_mask(y)
        if self.kind != "hsic":
            return mask, None
        bandwidths = np.zeros(y.shape[1])
        for j in np.flatnonzero(~mask):
            bandwidths[j] = _median_distance(_sq_distances(y[:, j]))
        return mask | (bandwidths <= 0.0), bandwidths

    def check_kinds(self, x_kind, y_kind, z_kinds):
        """Refuse data kinds the statistic cannot take; rv takes any."""
        if self.kind == "hsic" and x_kind != "continuous":
            raise ValueError("hsic statistics need a continuous exposure")
        if self.kind == "basis-wald" and (x_kind != "continuous" or y_kind != "continuous"):
            raise ValueError("basis statistics need continuous exposure and outcomes")
        if self.kind == "categorical":
            if x_kind != "binary" or y_kind != "binary":
                raise ValueError("categorical statistics need binary exposure and outcomes")
            if any(k != "binary" for k in z_kinds):
                raise ValueError("categorical statistics need binary confounders")
        want = glm.FAMILIES[self.family].y_kind if self.kind == "glm" else y_kind
        if y_kind != want:
            raise ValueError(f"family {self.family} expects {want} outcomes, dataset has {y_kind}")


def make_evaluator(dataset, spec, confounders=None, bandwidths=None):
    """The evaluator of spec's statistic for one dataset, batched over draws.

    The returned object computes (marginal, conditional, failed) via
    .pairs(xs, observed=False, out=None). xs is a stack (D, n, p) of
    exposures; marginal and conditional are (D, m), and failed is the
    number of (draw, feature) pairs a failure set to 0, an int. Each
    draw's row equals what .pairs gives for that draw alone. .draw_cells
    is the number of cells in the largest array .pairs makes per draw
    (for the gaussian GLM and basis-wald, the block's Q and Q'r: no
    joint design is built), which sizes the stacks.

    out follows numpy's out= idiom: two writable (D, m) float64 arrays,
    such as the tensor plane rows planes[k][start:stop] that build_tensor
    hands over. .pairs then computes the marginal rows in out[0] and the
    conditional rows in out[1], writing every cell of them and nothing
    else, so no row block is made only to be copied, and returns those
    two arrays as marginal and conditional, with the bits of a call
    without out (which makes two new arrays). Scratch space, such as the
    IRLS working arrays or the categorical sums, stays the evaluator's.

    observed=True marks row 0 as the observed exposure (build_tensor
    stacks it ahead of its first draws): a failure in that row raises, so
    a broken fit on the real data aborts instead of producing a zero
    row, while failures in the other rows stay counted zeros. A stack of
    one, such as dataset.x[None], is the observed exposure alone. Each
    evaluator reads its own fields of spec (basis-wald expands the
    exposure in a fixed _BASIS_DF-column spline).

    Whatever no draw changes is made here, once: rv, basis-wald and the
    gaussian GLM read their confounder fit from confounders, the
    glm.confounder_fits of dataset.z a caller shares (one is made when
    not given), and hsic reads each outcome column's kernel bandwidth
    from bandwidths when given (StatisticSpec.unscorable's, for these
    columns).
    """
    if confounders is None:
        confounders = glm.confounder_fits(dataset.z, dataset.z_kinds)
    return _EVALUATORS[spec.kind](dataset, spec, confounders=confounders, bandwidths=bandwidths)
