"""Numerical kernels: feature-batched GLM fits and grid dominance counts.

Two loops dominate runtime: per-feature IRLS fits when building
statistic tensors, and the dominance count over a 2-D threshold grid
during cutoff search. The fits solve every response column of one
design at once: the normal equations are stacked over features and
each feature carries its own convergence and failure state, so a
column's result does not depend on the other columns in the batch.
"""

import numpy as np

# statistic value used in place of +inf so grids stay finite
STAT_CAP = 1e12

GAUSSIAN = 0
BINOMIAL = 1
POISSON = 2
NEGBINOM = 3

# the kernels are numpy only; the benchmark records this as its lane
HAVE_NUMBA = False

# largest dominance-count histogram, (g1 + 1) * (g2 + 1) int64 cells: 128 MiB
MAX_GRID_CELLS = 2**24


def exceed_bins(values, thresholds, order=None):
    """Per value, the number of thresholds at or below it.

    thresholds must be ascending. The values are sorted (order, their
    argsort, may be passed in to be reused), each threshold is located
    among them, and every run of values between two thresholds takes one
    bin: no search per value.
    """
    if order is None:
        order = np.argsort(values)
    edges = np.searchsorted(values[order], thresholds, side="left")
    sizes = np.diff(edges, prepend=0, append=values.shape[0])
    bins = np.empty(values.shape[0], dtype=np.intp)
    bins[order] = np.repeat(np.arange(thresholds.shape[0] + 1), sizes)
    return bins


def pair_exceed_counts(tm, tc, t1, t2, orders=(None, None)):
    """Count pairs dominating each grid point.

    out[a, b] = #{i : tm[i] >= t1[a] and tc[i] >= t2[b]}. Grids must be
    sorted ascending; orders may hold argsort(tm) and argsort(tc) (see
    exceed_bins). Runs in O(n log n + g1*g2) via binned suffix sums.
    A grid needing more than MAX_GRID_CELLS cells raises before any
    allocation.
    """
    g1 = t1.shape[0]
    g2 = t2.shape[0]
    if (g1 + 1) * (g2 + 1) > MAX_GRID_CELLS:
        raise ValueError(
            f"a {g1} x {g2} threshold grid exceeds the {MAX_GRID_CELLS}-cell count "
            "limit; use a quantile:<G> grid with a smaller G"
        )
    i = exceed_bins(tm, t1, orders[0])
    j = exceed_bins(tc, t2, orders[1])
    flat = i * (g2 + 1) + j
    hist = np.bincount(flat, minlength=(g1 + 1) * (g2 + 1))
    hist = hist.reshape(g1 + 1, g2 + 1)
    suff = hist[::-1, ::-1].cumsum(axis=0).cumsum(axis=1)[::-1, ::-1]
    return np.ascontiguousarray(suff[1:, 1:], dtype=np.int64)


def chain_exceed_counts(tm, tc, t1, t2, orders=(None, None)):
    """Count pairs dominating each step of a monotone chain.

    out[s] = #{i : tm[i] >= t1[s] and tc[i] >= t2[s]} for nondecreasing
    t1 and t2. With i and j binned as in pair_exceed_counts, pair i
    dominates step s iff s < min(i, j), so the counts are a suffix sum
    of one histogram: O(n log n + steps) time, O(n + steps) memory.
    """
    i = exceed_bins(tm, t1, orders[0])
    j = exceed_bins(tc, t2, orders[1])
    hist = np.bincount(np.minimum(i, j), minlength=t1.shape[0] + 1)
    return hist[::-1].cumsum()[::-1][1:]


def _cholesky(a):
    """Lower Cholesky factors of a stack of (k, k) matrices.

    Returns (lo, ok). A matrix fails when its largest diagonal is not
    positive or a pivot falls to 1e-12 of it; its factor is then
    garbage and only ``ok`` is meaningful. Unlike np.linalg.cholesky,
    one failing matrix does not stop the others.
    """
    k = a.shape[1]
    lo = np.zeros_like(a)
    maxd = np.max(np.diagonal(a, axis1=1, axis2=2), axis=1)
    ok = maxd > 0.0
    for i in range(k):
        s = a[:, i, i] - np.einsum("mt,mt->m", lo[:, i, :i], lo[:, i, :i])
        ok &= s > 1e-12 * maxd
        piv = np.sqrt(np.where(ok, s, 1.0))
        lo[:, i, i] = piv
        below = a[:, i + 1 :, i] - np.einsum("mjt,mt->mj", lo[:, i + 1 :, :i], lo[:, i, :i])
        lo[:, i + 1 :, i] = below / piv[:, None]
    return lo, ok


def _cholesky_solve(lo, b):
    """Solve lo @ lo.T @ x = b for stacked b of shape (m, k, r)."""
    k = lo.shape[1]
    x = b.copy()
    for i in range(k):
        x[:, i] -= np.einsum("mt,mtr->mr", lo[:, i, :i], x[:, :i])
        x[:, i] /= lo[:, i, i, None]
    for i in range(k - 1, -1, -1):
        x[:, i] -= np.einsum("mt,mtr->mr", lo[:, i + 1 :, i], x[:, i + 1 :])
        x[:, i] /= lo[:, i, i, None]
    return x


def _mean(eta, family):
    # inverse link with the clamps that keep the weights finite
    with np.errstate(over="ignore"):
        if family == BINOMIAL:
            return np.clip(1.0 / (1.0 + np.exp(-eta)), 1e-10, 1.0 - 1e-10)
        return np.clip(np.exp(eta), 1e-10, 1e250)


def _information(design, w):
    # design.T @ diag(w) @ design for every row of w: (m, k, k)
    return np.einsum("nr,mn,ns->mrs", design, w, design)


def glm_fit_many(design, ymat, family, nb_size, max_iter, tol):
    """Fit one binomial, poisson or negbinom GLM per response column by IRLS.

    ``design`` is (n, k) and ``ymat`` (n, m). Returns (coef (m, k),
    cov (m, k, k), status (m,), n_iter (m,)) with status 0 converged,
    1 iteration limit, 2 separation, 3 singular or degenerate design.
    cov is the inverse observed information at the returned
    coefficients and is zero unless status is 0 or 1. A feature stops
    iterating when max|delta| <= tol * (1 + max|coef|); its coefficients
    are then frozen while the rest of the batch goes on.
    """
    y = np.ascontiguousarray(ymat.T, dtype=float)
    m = y.shape[0]
    k = design.shape[1]
    if family == BINOMIAL:
        m0 = (y + 0.5) / 2.0
        eta = np.log(m0 / (1.0 - m0))
    else:
        eta = np.log(y + 0.5)
    coef = np.zeros((m, k))
    cov = np.zeros((m, k, k))
    status = np.ones(m, dtype=np.int64)
    n_iter = np.zeros(m, dtype=np.int64)
    active = np.arange(m)
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        e = eta[active]
        mu = _mean(e, family)
        if family == BINOMIAL:
            w = mu * (1.0 - mu)
            z = e + (y[active] - mu) / w
        else:
            w = mu if family == POISSON else nb_size * mu / (mu + nb_size)
            z = e + (y[active] - mu) / mu
        lo, ok = _cholesky(_information(design, w))
        new = _cholesky_solve(lo, ((w * z) @ design)[:, :, None])[:, :, 0]
        n_iter[active] = it
        status[active[~ok]] = 3
        keep = active[ok]
        new = new[ok]
        delta = np.max(np.abs(new - coef[keep]), axis=1)
        done = delta <= tol * (1.0 + np.max(np.abs(new), axis=1))
        coef[keep] = new
        eta[keep] = new @ design.T
        status[keep[done]] = 0
        active = keep[~done]

    fitted = np.flatnonzero(status != 3)
    mu = _mean(eta[fitted], family)
    if family == BINOMIAL:
        inner = (mu > 1e-8) & (mu < 1.0 - 1e-8)
        separated = ~np.any(inner, axis=1)
        status[fitted[separated]] = 2
        fitted = fitted[~separated]
        mu = mu[~separated]
        w = mu * (1.0 - mu)
    elif family == POISSON:
        w = mu
    else:
        d0 = mu + nb_size
        w = nb_size * mu * (y[fitted] + nb_size) / (d0 * d0)
    lo, ok = _cholesky(_information(design, w))
    status[fitted[~ok]] = 3
    eye = np.broadcast_to(np.eye(k), (int(ok.sum()), k, k))
    cov[fitted[ok]] = _cholesky_solve(lo[ok], eye)
    return coef, cov, status, n_iter


def wald_block(coef, cov, p):
    """Wald statistics for the coefficient block at positions 1..p.

    |t| when p == 1, chi-square scale otherwise. A zero covariance
    marks a perfect fit: the statistic is 0 when the tested block is
    negligible relative to the other coefficients, STAT_CAP when not.
    """
    maxc = np.max(np.abs(coef), axis=1)
    b = coef[:, 1 : 1 + p]
    negligible = np.max(np.abs(b), axis=1) <= 1e-8 * (1.0 + maxc)
    degen = np.where(negligible, 0.0, STAT_CAP)
    if p == 1:
        v = cov[:, 1, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.abs(b[:, 0]) / np.sqrt(v)
        return np.where(v <= 0.0, degen, np.minimum(t, STAT_CAP))
    lo, ok = _cholesky(cov[:, 1 : 1 + p, 1 : 1 + p])
    x = _cholesky_solve(lo, b[:, :, None])[:, :, 0]
    q = np.einsum("mp,mp->m", b, x)
    return np.where(ok, np.minimum(q, STAT_CAP), degen)


def wald_pair_many(d_full, d_red, ymat, p, family, nb_size, max_iter, tol):
    """Marginal and conditional Wald statistics for every response column.

    Failed fits yield statistic 0 and the worst fit status in warn
    (1 iteration limit, 2 separation, 3 singular), never NaN.
    """
    m = ymat.shape[1]
    warn = np.zeros(m, dtype=np.int64)
    out = []
    for design in (d_full, d_red):
        coef, cov, status, _ = glm_fit_many(design, ymat, family, nb_size, max_iter, tol)
        ok = status == 0
        stat = np.zeros(m)
        stat[ok] = wald_block(coef[ok], cov[ok], p)
        np.maximum(warn, status, out=warn)
        out.append(stat)
    tc, tm = out
    return tm, tc, warn
