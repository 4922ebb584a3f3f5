"""Reference forms the tests check the package against.

None of these runs in production. Each is the plain form of something
the package computes batched, or from one shared sort, and stays an
independent oracle: scalar dependence statistics of one feature,
least-squares fits of one design (ols_many, ols), the IRLS of one
response (irls) and fit_glm, which also fits gaussian responses, the
n x n SVD projector onto a design's orthocomplement, each sampler's
exposure draws one draw at a time, the threshold grid and path from np.sort, the Storey lambda from np.median with its pooled
count, the search of one grid, and the estimated FDP and dominance
counts counted point by point, and core.validate's binary check
column by column.
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from fdr2d import _accel, _rng, core, engine, glm, stats
from fdr2d.core import _as_matrix


# ---------------------------------------------------------------------------
# statistics of one feature


class StatPair(NamedTuple):
    t_m: float
    t_c: float


def _all_rows_equal(a):
    return bool(np.all(a == a[0]))


def hsic(x, y, bandwidth_x=None, bandwidth_y=None):
    """Dependence as (1/n) tr(Kx~ Ky~) with doubly centered kernels."""
    x = _as_matrix(x)
    y = _as_matrix(y)
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y row counts differ")
    if _all_rows_equal(x) or _all_rows_equal(y):
        warnings.warn("constant input: dependence statistic set to 0")
        return 0.0
    kx = stats._center_kernel(stats.gaussian_kernel(x, bandwidth_x))
    ky = stats._center_kernel(stats.gaussian_kernel(y, bandwidth_y))
    return max(0.0, float(np.sum(kx * ky)) / x.shape[0])


def chsic(x, y, z, epsilon=0.001):
    """Conditional dependence from regularized joint kernels.

    Both kernels act on standardized [arg, z] blocks; the spectral
    filter e^2 L/(L+e)^2 damps directions the confounders explain.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    x = _as_matrix(x)
    y = _as_matrix(y)
    z = _as_matrix(z)
    n = x.shape[0]
    if y.shape[0] != n or z.shape[0] != n:
        raise ValueError("x, y and z row counts differ")
    xz = np.hstack([stats._standardize_columns(x), stats._standardize_columns(z)])
    yz = np.hstack([stats._standardize_columns(y), stats._standardize_columns(z)])
    if _all_rows_equal(xz) or _all_rows_equal(yz):
        warnings.warn("constant input: dependence statistic set to 0")
        return 0.0
    kx = stats._regularized(stats._center_kernel(stats.gaussian_kernel(xz)), epsilon)
    ky = stats._regularized(stats._center_kernel(stats.gaussian_kernel(yz)), epsilon)
    return max(0.0, float(np.sum(kx * ky)) / n)


def rv_coefficient(u, v):
    """Matrix correlation tr(Suv Svu) / sqrt(tr(Suu^2) tr(Svv^2)) in [0, 1].

    For univariate inputs this is exactly the squared Pearson
    correlation. A constant input scores 0 with a warning.
    """
    u = _as_matrix(u)
    v = _as_matrix(v)
    if u.shape[0] != v.shape[0]:
        raise ValueError("u and v row counts differ")
    return _rv(u, v, u, v)


def conditional_rv(x, y, z, spline_df=5, z_kinds=None):
    """RV coefficient after projecting out a spline basis in z. An input
    in the span of the basis scores 0 with a warning."""
    x = _as_matrix(x)
    y = _as_matrix(y)
    design = glm.confounder_design(_as_matrix(z), spline_df=spline_df, kinds=z_kinds)
    proj = projection_complement(design)
    return _rv(proj @ x, proj @ y, x, y)


def _rv(u, v, u_raw, v_raw):
    # RV ratio of u and v, centered here, which are u_raw and v_raw or
    # their projections. A centered block whose ||.'.||_F is at most
    # _RANK_TOL^2 times its raw block's squared norm is rounding noise,
    # not a direction: for one column, the RV evaluator's rank rule
    uc = u - u.mean(axis=0)
    vc = v - v.mean(axis=0)
    suv = uc.T @ vc
    suu = uc.T @ uc
    svv = vc.T @ vc
    suu2 = float(np.sum(suu * suu))
    svv2 = float(np.sum(svv * svv))
    den = np.sqrt(suu2 * svv2)
    tol = glm._RANK_TOL**2
    if (
        den <= 0.0
        or np.sqrt(suu2) <= tol * float(np.sum(u_raw * u_raw))
        or np.sqrt(svv2) <= tol * float(np.sum(v_raw * v_raw))
    ):
        warnings.warn("zero variance input: dependence statistic set to 0")
        return 0.0
    return float(min(1.0, max(0.0, float(np.sum(suv * suv)) / den)))


def pearson_chi_square(x, y):
    """2x2 chi-square without continuity correction; binary inputs."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError("x and y lengths differ")
    n = x.size
    a = float(x @ y)
    r1 = float(x.sum())
    c1 = float(y.sum())
    b = r1 - a
    c = c1 - a
    d = n - r1 - c1 + a
    r0 = n - r1
    c0 = n - c1
    if min(r1, r0, c1, c0) <= 0.0:
        warnings.warn("degenerate 2x2 margin: statistic set to 0")
        return 0.0
    return float(n * (a * d - b * c) ** 2 / (r1 * r0 * c1 * c0))


def mantel_haenszel(x, y, strata):
    """Stratified 2x2 association: (sum a - E a)^2 / sum Var a.

    With a single stratum this equals (n-1)/n times the chi-square.
    Strata that cannot vary contribute nothing; when none can, the
    statistic is 0 with a warning.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    strata = np.asarray(strata).ravel()
    if x.size != y.size or x.size != strata.size:
        raise ValueError("x, y and strata lengths differ")
    num = 0.0
    den = 0.0
    for lab in np.unique(strata):
        idx = strata == lab
        nk = int(idx.sum())
        if nk < 2:
            continue
        xs = x[idx]
        ys = y[idx]
        r1 = float(xs.sum())
        c1 = float(ys.sum())
        a = float(xs @ ys)
        num += a - r1 * c1 / nk
        den += r1 * (nk - r1) * c1 * (nk - c1) / (nk * nk * (nk - 1.0))
    if den <= 0.0:
        warnings.warn("no informative strata: statistic set to 0")
        return 0.0
    return float(num * num / den)


def wald_block(coef, cov, p):
    """Scalar mirror of the kernel Wald rule for the block at 1..p."""
    maxc = float(np.max(np.abs(coef)))
    if p == 1:
        v = float(cov[1, 1])
        if v <= 0.0:
            return 0.0 if abs(coef[1]) <= 1e-8 * (1.0 + maxc) else _accel.STAT_CAP
        return float(min(_accel.STAT_CAP, abs(coef[1]) / np.sqrt(v)))
    b = coef[1 : 1 + p]
    sub = cov[1 : 1 + p, 1 : 1 + p]
    blockmax = float(np.max(np.abs(b)))
    try:
        q = float(b @ np.linalg.solve(sub, b))
    except np.linalg.LinAlgError:
        q = -1.0
    if not np.isfinite(q) or q < 0.0:
        return 0.0 if blockmax <= 1e-8 * (1.0 + maxc) else _accel.STAT_CAP
    return float(min(_accel.STAT_CAP, q))


def model_stat_pair(y, x, z, family, size=None, max_iter=stats._MAX_ITER, tol=stats._TOL):
    """(marginal, conditional) Wald statistics from two model fits.

    The conditional statistic tests the exposure block in the model
    with confounders; the marginal one drops the confounders. Fits
    that do not converge give 0 with a warning.
    """
    yv = np.asarray(y, dtype=float).ravel()
    x = _as_matrix(x)
    z = _as_matrix(z) if np.asarray(z).size else np.zeros((yv.size, 0))
    n, p = x.shape
    pair = []
    for design in (np.column_stack([np.ones(n), x]), np.column_stack([np.ones(n), x, z])):
        fit = fit_glm(design, yv, family, max_iter=max_iter, tol=tol, size=size)
        pair.append(wald_block(fit.coef, fit.cov, p) if fit.converged else None)
    if None in pair:
        warnings.warn("model fit did not converge: statistic set to 0")
    return StatPair(*(0.0 if t is None else t for t in pair))


def _qf_stat(qf, sigma2, yss):
    # perfect fits have sigma2 == 0 exactly; the statistic is 0 when the
    # quadratic form is negligible at the response scale, capped when not
    if sigma2 == 0.0:
        return 0.0 if qf <= 1e-16 * max(yss, 1.0) else _accel.STAT_CAP
    return float(min(_accel.STAT_CAP, max(0.0, qf / sigma2)))


def basis_wald_pair(y, x, z, j1=5, j2=5, z_kinds=None):
    """Wald statistics for a basis expansion of a univariate exposure.

    Marginal: the exposure basis alone. Conditional: the same basis
    after projecting out [1, basis(z)]. Both share the residual
    variance from the joint model.
    """
    yv = np.asarray(y, dtype=float).ravel()
    xm = _as_matrix(x)
    if xm.shape[1] != 1:
        raise ValueError("basis statistics need a univariate exposure")
    n = yv.size
    zm = _as_matrix(z) if np.asarray(z).size else np.zeros((n, 0))
    v = xm[:, 0]
    # a spline basis of j1 columns, or below 3 the powers v, ..., v^j1
    if j1 >= 3:
        bx = glm.natural_cubic_basis(v, df=j1).evaluate(v)
    else:
        bx = np.column_stack([v**k for k in range(1, j1 + 1)])
    dz = glm.confounder_design(zm, spline_df=j2, kinds=z_kinds)
    full = np.hstack([bx, dz])
    if n <= full.shape[1]:
        raise ValueError("not enough rows for the joint design")
    q, r = np.linalg.qr(full)
    diag = np.abs(np.diag(r))
    if diag.max() == 0.0 or diag.min() <= 1e-10 * diag.max():
        raise ValueError("singular joint design")
    resid = yv - q @ (q.T @ yv)
    rss = float(resid @ resid)
    yss = float(yv @ yv)
    sigma2 = 0.0 if rss <= 1e-24 * yss else rss / (n - full.shape[1])

    mm = bx.T @ yv
    qf_m = float(mm @ np.linalg.solve(bx.T @ bx, mm))
    proj = projection_complement(dz)
    mc = bx.T @ (proj @ yv)
    qf_c = float(mc @ np.linalg.solve(bx.T @ (proj @ bx), mc))
    return StatPair(t_m=_qf_stat(qf_m, sigma2, yss), t_c=_qf_stat(qf_c, sigma2, yss))


# ---------------------------------------------------------------------------
# least-squares, IRLS and projections, one design at a time


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
    if glm.rank_deficient(r, design):
        raise ValueError("singular design")
    qty = q.T @ y
    fitted = q @ qty
    residuals = y - fitted
    rinv = np.linalg.solve(r, np.eye(k))
    rss = np.einsum("ij,ij->j", residuals, residuals)
    yss = np.einsum("ij,ij->j", y, y)
    sigma2 = np.where(rss <= glm._PERFECT_TOL * yss, 0.0, rss / (n - k))
    return LeastSquares(rinv @ qty, fitted, residuals, sigma2, rinv @ rinv.T)


def irls(design, response, family, max_iter=50, tol=1e-8, size=None):
    """Fit a GLM by iteratively reweighted least squares.

    Families: binomial (logit), poisson (log), negbinom (log, fixed
    ``size``); a gaussian response is a least-squares fit (ols_many).
    Dispersion is never estimated. A non-converged fit is returned,
    not raised; ``reason`` is "max_iter" or "separation".
    """
    code, size = glm.family_code(family, size)
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
class LinearFit:
    """Least-squares fit with t-scale standard errors.

    sigma2 is the residual variance rss / (n - k); it is exactly 0.0
    when the design reproduces the response to float precision.
    """

    coef: np.ndarray
    se: np.ndarray
    sigma2: float
    residuals: np.ndarray
    fitted: np.ndarray
    cov: np.ndarray
    df_resid: int


def ols(design, response):
    """Ordinary least squares of one response: ols_many with one column."""
    y = np.asarray(response, dtype=float).ravel()
    fit = ols_many(design, y[:, None])
    sigma2 = float(fit.sigma2[0])
    cov = sigma2 * fit.ainv
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return LinearFit(
        fit.coef[:, 0], se, sigma2, fit.residuals[:, 0], fit.fitted[:, 0], cov, y.size - cov.shape[0]
    )


def fit_glm(design, response, family, max_iter=50, tol=1e-8, size=None):
    """irls for every family: a gaussian response is fitted by ols."""
    if family == "gaussian":
        fit = ols(design, response)
        return GlmFit(fit.coef, fit.se, True, None, fit.cov, family)
    return irls(design, response, family, max_iter=max_iter, tol=tol, size=size)


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


# ---------------------------------------------------------------------------
# exposure draws, one at a time


def draw_residual_permutation(model, rng):
    """Fitted mean plus residual rows permuted as units."""
    perm = rng.permutation(model.fitted_mean.shape[0])
    return model.fitted_mean + model.residuals[perm]


def draw_residual_bootstrap(model, rng):
    """Fitted mean plus residual rows resampled with replacement."""
    n = model.fitted_mean.shape[0]
    idx = rng.integers(0, n, size=n)
    return model.fitted_mean + model.residuals[idx]


def draw_parametric_bernoulli(model, rng):
    """Independent Bernoulli draws at the fitted success probabilities."""
    return (rng.random(model.success_prob.shape[0]) < model.success_prob).astype(float)


def draw_binned_permutation(model, rng):
    """Fitted mean plus residual rows permuted within each bin."""
    out = model.fitted_mean.copy()
    for b in np.unique(model.bins):
        idx = np.nonzero(model.bins == b)[0]
        out[idx] += model.residuals[idx[rng.permutation(idx.size)]]
    return out


def draw_for_strategy(strategy, model, rng):
    """Draw one exposure matrix (n, p) under the given strategy."""
    if strategy == "residual-perm":
        return draw_residual_permutation(model, rng)
    if strategy == "residual-boot":
        return draw_residual_bootstrap(model, rng)
    if strategy == "parametric-logistic":
        return draw_parametric_bernoulli(model, rng)[:, None]
    if strategy == "binned-perm":
        return draw_binned_permutation(model, rng)
    raise ValueError(f"unknown sampler strategy {strategy!r}")


def draw_stack(strategy, model, seed, draws):
    """samplers.draw_for_strategy one draw at a time: draw d on its own
    substream(seed, d), the draws stacked afterwards."""
    return np.stack([draw_for_strategy(strategy, model, _rng.substream(seed, d)) for d in draws])


# ---------------------------------------------------------------------------
# the threshold search, from numpy's own sorts and explicit counts


def sorted_axes(tensor):
    # the pooled values of each axis, ascending
    return [np.sort(tensor.pairs[:, :, k], axis=None) for k in (0, 1)]


def make_grid(tensor, spec="quantile:100"):
    """engine.make_grid from np.sort of each pooled axis."""
    size = engine._grid_size(spec)
    return engine.Grid2D(*(engine._grid_axis(s, size) for s in sorted_axes(tensor)))


def default_path(tensor, steps=100):
    """engine.default_path from np.sort of each pooled axis."""
    return engine.MonotonePath(*(engine._path_axis(s, steps) for s in sorted_axes(tensor)))


def storey_pi0(tensor, lam):
    """Null-proportion estimate, every count taken on the unsorted axis."""
    tc = tensor.pairs[:, :, 1]
    num = int(np.count_nonzero(tc[0] <= lam))
    den = np.count_nonzero(tc <= lam) / tc.shape[0]
    if num == 0 or den == 0.0:
        warnings.warn("no statistics at or below lambda; null proportion set to 1")
        return 1.0
    return float(min(1.0, num / den))


def auto_lambda(tensor):
    """Default Storey threshold: half the median pooled conditional value."""
    return 0.5 * float(np.median(tensor.pairs[:, :, 1]))


def resolve_pi0(tensor, config):
    """(pi0, lambda) for a config; (1.0, None) when no correction asked."""
    if config.pi0_lambda is None:
        return 1.0, None
    lam = auto_lambda(tensor) if config.pi0_lambda == "auto" else float(config.pi0_lambda)
    return storey_pi0(tensor, lam), lam


def fdp_tilde(tensor, t1, t2, pi0=None):
    """Estimated false discovery proportion at one threshold pair.

    Pooled dominance count over all draws and features (divided by
    B + 1), scaled by pi0 when given, over the observed rejection
    count floored at 1. Zero-variance features count in the numerator
    but never as rejections.
    """
    p = tensor.pairs
    b1 = p.shape[0]
    total = int(np.count_nonzero((p[:, :, 0] >= t1) & (p[:, :, 1] >= t2)))
    valid = ~tensor.zero_variance
    robs = int(np.count_nonzero((p[0, valid, 0] >= t1) & (p[0, valid, 1] >= t2)))
    mult = 1.0 if pi0 is None else float(pi0)
    return mult * (total / b1) / max(1, robs)


def dominance_counts(tensor, grid):
    """(pooled, observed) dominance counts at every grid point, one
    point at a time; zero-variance features never count as observed."""
    p = tensor.pairs
    valid = ~tensor.zero_variance
    shape = (grid.t1_values.size, grid.t2_values.size)
    pooled = np.zeros(shape, dtype=np.int64)
    observed = np.zeros(shape, dtype=np.int64)
    for a, t1 in enumerate(grid.t1_values):
        for c, t2 in enumerate(grid.t2_values):
            pooled[a, c] = np.count_nonzero((p[:, :, 0] >= t1) & (p[:, :, 1] >= t2))
            observed[a, c] = np.count_nonzero((p[0, valid, 0] >= t1) & (p[0, valid, 1] >= t2))
    return pooled, observed


def search(tensor, grid, q, pi0, mode):
    """Best feasible point of any one grid, with the search's own bins,
    counts and pick (engine._pick): the search of a grid engine.search
    does not make. Each pooled axis is binned against the given grid."""
    t = (grid.t1_values, grid.t2_values)
    axes = engine._both_axes(tensor, lambda k, s: ({"given": t[k]}, None))
    counts = engine._grid_counts(tensor, grid, [bins["given"] for _, bins, _ in axes])
    return engine._pick(tensor, grid.t1_values, grid.t2_values, *counts, q, pi0, mode)


def not_binary(label, mat, cols):
    """core.validate's not-binary Violations of the given columns, one
    column at a time: each column's finite values other than 0 and 1,
    by row."""
    out = []
    for c in cols:
        col = mat[:, c]
        offenders = np.nonzero(np.isfinite(col) & (col != 0.0) & (col != 1.0))[0]
        for r in offenders:
            out.append(core.Violation(label, "not-binary", int(r), int(c), detail=f"value {col[r]!r}"))
    return out
