"""Numerical kernels: draw- and feature-batched GLM fits and grid dominance counts.

Two loops dominate runtime: per-feature IRLS fits when building
statistic tensors, and the dominance count over a 2-D threshold grid
during cutoff search. The fits solve every (draw, response column)
pair of a stack of designs at once: the normal equations are stacked
over pairs and each pair carries its own convergence and failure
state. A fit's bits do not depend on the other draws in the batch;
within a draw they match a fit made alone only to rounding, as BLAS
rounds a row according to the row count of its GEMM.
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

# values per block of sort_order's passes over its keys
_KEY_BLOCK = 2**13


def _sort_keys(keys):
    # every in-place key sort of sort_order, under one name a test can count
    keys.sort()


def _bits_at(values, index):
    # the IEEE bits of values[index] + 0.0 (-0.0 made +0.0), for a uint64 index
    gathered = values[index.view(np.intp)]
    return np.add(gathered, 0.0, out=gathered).view(np.uint64)


def sort_order(values):
    """(order, repaired): an order that sorts the float64 array values, and
    the number of runs it had to repair.

    Each value becomes one uint64 key: its IEEE bits (of values + 0.0, so
    -0.0 is +0.0) with the low s = (N - 1).bit_length() bits replaced by
    its index. For a sign bit clear the bits order like the values, NaN
    last, so one in-place sort of the keys, masked down to their low
    bits, is the order as an intp view: no argsort, no index array
    beside the keys. Two values that share all but their low s bits come
    out in index order, so the keys are scanned block by block for such
    a pair out of value order; each run of keys sharing that prefix is
    re-keyed by its values' low bits and sorted again (repaired). The
    indices are made and the keys checked _KEY_BLOCK values at a time,
    so the keys are the only array of the axis's length. A value with
    its sign bit set (a negative or a negative NaN), or an axis past
    2^32 values, falls back to np.argsort, with repaired None.
    """
    n = values.shape[0]
    s = max(n - 1, 0).bit_length()
    if s > 32:
        return np.argsort(values), None
    low = np.uint64((1 << s) - 1)
    keys = np.empty(n, dtype=np.uint64)
    np.add(values, 0.0, out=keys.view(np.float64))
    keys &= ~low
    for lo in range(0, n, _KEY_BLOCK):
        block = keys[lo : lo + _KEY_BLOCK]
        block |= np.arange(lo, lo + block.shape[0], dtype=np.uint64)
    _sort_keys(keys)
    if n and keys[-1] >> np.uint64(63):
        del keys
        return np.argsort(values), None
    runs = _unsorted_runs(keys, values, low)
    keys &= low
    for start, stop in runs:
        _sort_run(keys[start:stop], values, s, low)
    return keys.view(np.intp), len(runs)


def _unsorted_runs(keys, values, low):
    # (start, stop) of each run of sorted keys that share their prefix
    # (all but the low bits) and hold two neighbours out of value order
    prefixes = set()
    for lo in range(0, keys.shape[0] - 1, _KEY_BLOCK):
        k = keys[lo : lo + _KEY_BLOCK + 1]
        at = np.flatnonzero(np.bitwise_xor(k[1:], k[:-1]) <= low)
        if at.size:
            at = at[_bits_at(values, k[at] & low) > _bits_at(values, k[at + 1] & low)]
            prefixes.update(np.unique(k[at] & ~low).tolist())
    prefix = np.array(sorted(prefixes), dtype=np.uint64)
    starts = np.searchsorted(keys, prefix, "left")
    stops = np.searchsorted(keys, prefix | low, "right")
    return list(zip(starts.tolist(), stops.tolist()))


def _sort_run(run, values, s, low):
    # sort a run of indices whose values share their prefix: re-keyed as
    # (low bits of the value << s) | index, which needs 2s <= 64 bits
    for lo in range(0, run.shape[0], _KEY_BLOCK):
        index = run[lo : lo + _KEY_BLOCK]
        bits = _bits_at(values, index)
        bits &= low
        bits <<= np.uint64(s)
        index |= bits
    _sort_keys(run)
    run &= low


def exceed_bins(order, ascending, thresholds):
    """Per value of one axis, the number of thresholds at or below it.

    order is an order that sorts the axis (sort_order's; any such order
    gives the same bins, as equal values share a bin) and ascending the
    axis gathered in that order; thresholds must be ascending. Each
    threshold is located among the sorted values, and every run of
    values between two thresholds takes one bin, scattered back through
    the order: no search per value. The bins are int16, widened to int32
    or int64 only when a set has 2^15 or 2^31 thresholds or more, so an
    axis of N values costs 2N bytes of bins.
    """
    g = thresholds.shape[0]
    dtype = np.int16 if g < 2**15 else np.int32 if g < 2**31 else np.int64
    edges = np.searchsorted(ascending, thresholds, side="left")
    sizes = np.diff(edges, prepend=0, append=order.shape[0])
    bins = np.empty(order.shape[0], dtype=dtype)
    bins[order] = np.repeat(np.arange(g + 1, dtype=dtype), sizes)
    return bins


def pair_exceed_counts(i, j, g1, g2):
    """Count pairs dominating each point of a g1 x g2 grid, from their bins.

    i and j are each pair's exceed_bins against the grid's t1 and t2
    values, so out[a, b] = #{k : i[k] > a and j[k] > b}, the number of
    pairs with tm >= t1[a] and tc >= t2[b]. The flat cell index is formed
    in one intp array and histogrammed, and the counts are its suffix
    sums: O(n + g1*g2). A grid needing more than MAX_GRID_CELLS cells
    raises before any allocation.
    """
    if (g1 + 1) * (g2 + 1) > MAX_GRID_CELLS:
        raise ValueError(
            f"a {g1} x {g2} threshold grid exceeds the {MAX_GRID_CELLS}-cell count "
            "limit; use a quantile:<G> grid with a smaller G"
        )
    flat = i.astype(np.intp)
    flat *= g2 + 1
    flat += j
    hist = np.bincount(flat, minlength=(g1 + 1) * (g2 + 1)).reshape(g1 + 1, g2 + 1)
    suff = hist[::-1, ::-1].cumsum(axis=0).cumsum(axis=1)[::-1, ::-1]
    return np.ascontiguousarray(suff[1:, 1:], dtype=np.int64)


def chain_exceed_counts(i, j, steps):
    """Count pairs dominating each step of a monotone chain, from their bins.

    i and j are each pair's exceed_bins against the chain's nondecreasing
    t1 and t2; pair k dominates step s iff s < min(i[k], j[k]), so
    out[s] = #{k : tm[k] >= t1[s] and tc[k] >= t2[s]} is a suffix sum of
    one histogram of that minimum: O(n + steps). The minimum is taken in
    place: i holds it afterwards.
    """
    hist = np.bincount(np.minimum(i, j, out=i), minlength=steps + 1)
    return hist[::-1].cumsum()[::-1][1:]


def _cholesky(a):
    """Lower Cholesky factors of a stack of (k, k) matrices.

    Returns (lo, ok). A matrix fails, and its factor is garbage, when a
    pivot is at most 1e-12 of its own diagonal. pivot / a_ii is the
    squared equilibrated R diagonal, so this fails |R_ii| <= 1e-6 ||col_i||:
    a tolerance 10^4 above glm.rank_deficient's, as forming the normal
    equations squares the condition number. Unlike np.linalg.cholesky,
    one failure does not stop the others. Column 0 subtracts nothing and
    column k - 1 has nothing below it, so neither runs an empty contraction.
    """
    k = a.shape[1]
    lo = np.zeros_like(a)
    ok = np.ones(a.shape[0], dtype=bool)
    for i in range(k):
        row = lo[:, i, :i]
        s = a[:, i, i] - np.einsum("mt,mt->m", row, row) if i else a[:, i, i]
        ok &= s > 1e-12 * a[:, i, i]
        piv = np.sqrt(np.where(ok, s, 1.0))
        lo[:, i, i] = piv
        if i + 1 < k:
            below = a[:, i + 1 :, i]
            if i:
                below = below - np.einsum("mjt,mt->mj", lo[:, i + 1 :, :i], row)
            lo[:, i + 1 :, i] = below / piv[:, None]
    return lo, ok


def _cholesky_solve(lo, b):
    """Solve lo @ lo.T @ x = b for stacked b of shape (m, k, r)."""
    k = lo.shape[1]
    x = b.copy()
    for i in range(k):
        if i:
            x[:, i] -= np.einsum("mt,mtr->mr", lo[:, i, :i], x[:, :i])
        x[:, i] /= lo[:, i, i, None]
    for i in range(k - 1, -1, -1):
        if i + 1 < k:
            x[:, i] -= np.einsum("mt,mtr->mr", lo[:, i + 1 :, i], x[:, i + 1 :])
        x[:, i] /= lo[:, i, i, None]
    return x


def _mean(eta, family, out):
    # inverse link with the clamps that keep the weights finite, into out
    with np.errstate(over="ignore"):
        if family == BINOMIAL:
            np.exp(np.negative(eta, out=out), out=out)
            out += 1.0
            return np.clip(np.divide(1.0, out, out=out), 1e-10, 1.0 - 1e-10, out=out)
        return np.clip(np.exp(eta, out=out), 1e-10, 1e250, out=out)


def _per_draw_product(rows, fits, mats, out):
    # rows[s] @ mats[d] into out for each draw d's run s of rows, row i
    # being fit fits[i] (ascending flat indices draw * m + column): one
    # GEMM per draw. out has a row per fit, so when rows fill it every
    # run is full and one batched matmul makes the same GEMMs; rows may
    # also come as a (draws, m, n) stack, such as a broadcast view of one
    # (m, n) block that every draw shares
    nd = mats.shape[0]
    if rows.ndim == 3 or rows.shape[0] == out.shape[0]:
        np.matmul(rows.reshape(nd, -1, rows.shape[-1]), mats, out=out.reshape(nd, -1, out.shape[1]))
        return out
    cuts = np.searchsorted(fits, np.arange(nd + 1) * (out.shape[0] // nd)).tolist()
    for d in range(nd):
        if cuts[d] < cuts[d + 1]:
            s = slice(cuts[d], cuts[d + 1])
            np.matmul(rows[s], mats[d], out=out[s])
    return out[: rows.shape[0]]


def _start(y, family):
    # the linear predictor every fit of the response rows y (m, n) starts from
    if family == BINOMIAL:
        m0 = (y + 0.5) / 2.0
        return np.log(m0 / (1.0 - m0))
    return np.log(y + 0.5)


def _weights(eta, family, nb_size, mu, w, tmp):
    # the IRLS mean, weights and the scale of y - mu in the working
    # response, at the linear predictor eta, in the buffers mu and w
    # (tmp is scratch); (mu, w, scale)
    mu = _mean(eta, family, mu)
    if family == POISSON:
        return mu, mu, mu
    if family == BINOMIAL:
        np.subtract(1.0, mu, out=w)
        w *= mu
        return mu, w, w
    np.add(mu, nb_size, out=w)
    np.divide(np.multiply(mu, nb_size, out=tmp), w, out=w)
    return mu, w, mu


def _max_abs(v):
    # max |v| over each row of the (fits, k) array v, as np.maximum over
    # its k columns: np.max along rows of k values is about 10x slower
    v = np.abs(v)
    top = v[:, 0].copy()
    for j in range(1, v.shape[1]):
        np.maximum(top, v[:, j], out=top)
    return top


def _row_products(xs):
    # x_r * x_s per row of each design of the stack xs (D, n, k): the
    # information matrices of every fit on one draw are then a single
    # GEMM of their weights against these
    nd, n, k = xs.shape
    return (xs[:, :, :, None] * xs[:, :, None, :]).reshape(nd, n, k * k)


def _information(w, fits, prods, info, k):
    # the (k, k) information matrices of fits from their weights (see
    # _per_draw_product), and their Cholesky factors: (lo, ok)
    return _cholesky(_per_draw_product(w, fits, prods, info).reshape(-1, k, k))


def singular_start(design, ymat, family, nb_size):
    """Per response column of ymat (n, m), whether glm_fit_many's first
    information test refuses the one design (n, k): the weights at the
    start, their GEMM and the Cholesky factorisation of iteration 1, made
    by the same helpers, so a design this passes is not refused there.
    """
    y = np.ascontiguousarray(ymat.T, dtype=float)
    _, w, _ = _weights(_start(y, family), family, nb_size, *np.empty((3,) + y.shape))
    prods = _row_products(design[None])
    info = np.empty((y.shape[0], prods.shape[2]))
    return ~_information(w[None], np.arange(y.shape[0]), prods, info, design.shape[1])[1]


def glm_fit_many(design, ymat, family, nb_size, max_iter, tol):
    """Fit one binomial, poisson or negbinom GLM per (draw, response column) by IRLS.

    ``design`` is one (n, k) design or a stack (D, n, k) of per-draw
    designs, and ``ymat`` (n, m) is shared by every draw. Returns
    (coef (..., m, k), cov (..., m, k, k), status (..., m), n_iter
    (..., m)), where ``...`` is (D,) for a stack and empty for one
    design; status 0 converged, 1 iteration limit or a mean at _mean's
    upper clamp (a diverging log-link fit), 2 separation, 3 singular
    or degenerate design. cov is the inverse observed
    information at the returned coefficients and is zero unless status
    is 0 or 1. A fit stops when max|step| <= tol * (1 + max|coef|),
    when its information is singular, or (binomial) when its linear
    predictor puts every row on the side of its response, which proves
    complete separation. A stopped fit's coefficients are frozen and
    later iterations work on the fits still active only. max_iter is at
    least 1.

    Each iteration is a Fisher scoring step (Green 1984): with the
    information I = X'WX at the current linear predictor eta = X coef,
    coef += I^-1 X'r, where the score residual r = (y - mu) w / scale is
    y - mu for binomial and poisson fits and (y - mu) size / (mu + size)
    for negbinom, so X'r is the score. That is IRLS's weighted least
    squares step on the working response z = eta + (y - mu) / scale, but
    r takes one pass over the (fits, n) arrays (three for negbinom)
    where w z takes four, and it divides by no weight of a saturated
    mean. Iteration 1 solves for the coefficients from w z itself, as
    its eta0(y) is not X coef.

    Every fit starts from the linear predictor eta0(y) of its response
    column, so iteration 1's mean, weights and working response are
    those of the (m, n) response block, computed once and handed to each
    draw's GEMMs as a broadcast view: the same (m, n) operands, so the
    same bits, as D copies of the block. The (fits, n) working arrays
    are made once per call; each later iteration works in place in their
    leading rows, one per fit still active. While every fit is active an
    iteration gathers nothing: it reads eta in place, takes y - mu and
    the separation sides by broadcasting over the draws and writes the
    new linear predictors straight into eta, and while every fit is also
    kept (no singular information) it neither gathers nor scatters the
    coefficients: the same arithmetic as the gathered rows.
    """
    xs = design if design.ndim == 3 else design[None]
    nd, n, k = xs.shape
    y = np.ascontiguousarray(ymat.T, dtype=float)
    m = y.shape[0]
    prods = _row_products(xs)
    eta0 = _start(y, family)
    if family == BINOMIAL:
        side = 2.0 * y - 1.0
    fits = nd * m
    coef = np.zeros((fits, k))
    cov = np.zeros((fits, k, k))
    status = np.ones(fits, dtype=np.int64)
    n_iter = np.zeros(fits, dtype=np.int64)
    eta = np.empty((fits, n))
    eta_buf, r_buf, mu_buf, w_buf = np.empty((4, fits, n))
    info, rhs = np.empty((fits, k * k)), np.empty((fits, k))
    active = np.arange(fits)
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        a = active.size
        full = a == fits
        if it == 1:
            eta_act = eta0
        elif full:
            eta_act = eta
        else:
            eta_act = np.take(eta, active, axis=0, out=eta_buf[:a])
        rows = eta_act.shape[0]
        mu, w, scale = _weights(eta_act, family, nb_size, mu_buf[:rows], w_buf[:rows], r_buf[:rows])
        r = r_buf[:rows]
        if full:
            np.subtract(y, mu.reshape(-1, m, n), out=r.reshape(-1, m, n))
        else:
            np.take(y, active % m, axis=0, out=r)
            r -= mu
        if it == 1:
            # eta0 is not X @ coef, so the first step solves for the
            # coefficients from w * z, z = eta0 + (y - mu) / scale
            r /= scale
            r += eta0
            r *= w
            w, r = (np.broadcast_to(v, (nd, m, n)) for v in (w, r))
        elif family == NEGBINOM:
            # the score residual (y - mu) * w / scale; a binomial or
            # poisson fit's weight is its scale
            r *= w
            r /= scale
        lo, ok = _information(w, active, prods, info, k)
        step = _cholesky_solve(lo, _per_draw_product(r, active, xs, rhs)[:, :, None])[:, :, 0]
        n_iter[active] = it
        if ok.all():
            keep = active
        else:
            status[active[~ok]] = 3
            keep, step = active[ok], step[ok]
        kept_all = keep.size == fits
        if kept_all:
            coef += step
            new = coef
        else:
            new = coef[keep]
            new += step
            coef[keep] = new
        done = _max_abs(step) <= tol * (1.0 + _max_abs(new))
        ek = _per_draw_product(new, keep, xs.transpose(0, 2, 1), eta if kept_all else eta_buf)
        if not kept_all:
            eta[keep] = ek
        status[keep[done]] = 0
        if family == BINOMIAL:
            if kept_all:
                sided = np.multiply(side, ek.reshape(nd, m, n), out=mu_buf.reshape(nd, m, n))
            else:
                sided = np.take(side, keep % m, axis=0, out=mu_buf[: keep.size])
                sided *= ek
            separated = np.all(sided.reshape(keep.size, n) > 0.0, axis=1)
            status[keep[separated]] = 2
            done |= separated
        active = keep[~done]

    fitted = np.flatnonzero(status <= 1)
    f = fitted.size
    eta_fit = eta if f == fits else np.take(eta, fitted, axis=0, out=eta_buf[:f])
    mu = _mean(eta_fit, family, mu_buf[:f])
    if family == BINOMIAL:
        separated = ~np.any((mu > 1e-8) & (mu < 1.0 - 1e-8), axis=1)
        if separated.any():
            status[fitted[separated]] = 2
            fitted = fitted[~separated]
            mu = np.compress(~separated, mu, axis=0, out=r_buf[: fitted.size])
        w = np.subtract(1.0, mu, out=w_buf[: fitted.size])
        w *= mu
    else:
        # a mean at _mean's upper clamp is a diverging fit; _mean clips a
        # binomial mean below 1, so only the log links can reach it
        status[fitted[np.max(mu, axis=1) >= 1e250]] = 1
        if family == POISSON:
            w = mu
        else:
            # nb_size * mu * (y + nb_size) / (mu + nb_size)^2; a mean near
            # its upper clamp makes it non-finite, so the information is
            # singular
            yn = np.add(np.take(y, fitted % m, axis=0, out=r_buf[:f]), nb_size, out=r_buf[:f])
            with np.errstate(over="ignore", invalid="ignore"):
                w = np.multiply(np.multiply(mu, nb_size, out=w_buf[:f]), yn, out=w_buf[:f])
                w /= np.square(np.add(mu, nb_size, out=yn), out=yn)
    lo, ok = _information(w, fitted, prods, info, k)
    status[fitted[~ok]] = 3
    eye = np.broadcast_to(np.eye(k), (int(ok.sum()), k, k))
    cov[fitted[ok]] = _cholesky_solve(lo[ok], eye)
    lead = xs.shape[:1] if design.ndim == 3 else ()
    return (
        coef.reshape(lead + (m, k)),
        cov.reshape(lead + (m, k, k)),
        status.reshape(lead + (m,)),
        n_iter.reshape(lead + (m,)),
    )


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

