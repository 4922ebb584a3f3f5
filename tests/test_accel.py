"""Kernel checks: dominance counts and the feature-batched GLM fits."""

import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from fdr2d import _accel, stats

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
PIN = os.path.join(FIXTURES, "glm_kernel_pin.json")
BITS_PIN = os.path.join(FIXTURES, "irls_bits_pin.json")
FAMILIES = {"binomial": _accel.BINOMIAL, "poisson": _accel.POISSON, "negbinom": _accel.NEGBINOM}
NAMES = {code: name for name, code in FAMILIES.items()}
FIELDS = ("coef", "cov", "status", "n_iter")


def _brute_counts(tm, tc, t1, t2):
    # direct definition, no binning tricks
    out = np.zeros((t1.size, t2.size), dtype=np.int64)
    for a, x in enumerate(t1):
        for b, y in enumerate(t2):
            out[a, b] = int(np.sum((tm >= x) & (tc >= y)))
    return out


def _bins(tm, tc, t1, t2, kind="quicksort"):
    # each axis's exceed_bins against its thresholds, from its argsort
    orders = (np.argsort(tm, kind=kind), np.argsort(tc, kind=kind))
    return [_accel.exceed_bins(o, v[o], t) for o, v, t in zip(orders, (tm, tc), (t1, t2))]


class TestPairExceedCounts:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = rng.integers(1, 400)
            tm = rng.normal(size=n)
            tc = np.abs(rng.normal(size=n))
            # grids with ties against the data values to hit the >= edge
            t1 = np.sort(np.concatenate([rng.normal(size=5), tm[: min(3, n)]]))
            t2 = np.sort(np.concatenate([np.abs(rng.normal(size=4)), tc[: min(2, n)]]))
            expected = _brute_counts(tm, tc, t1, t2)
            got = _accel.pair_exceed_counts(*_bins(tm, tc, t1, t2), t1.size, t2.size)
            np.testing.assert_array_equal(got, expected)

    def test_empty_pairs(self):
        tm = np.zeros(0)
        tc = np.zeros(0)
        t = np.array([0.0])
        out = _accel.pair_exceed_counts(*_bins(tm, tc, t, t), 1, 1)
        assert out.shape == (1, 1) and out[0, 0] == 0

    def test_given_orders_and_chain_match_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = rng.integers(1, 300)
            # integer values: many ties among the data and with the thresholds
            tm = rng.integers(-3, 4, size=n).astype(float)
            tc = rng.integers(0, 5, size=n).astype(float)
            t1 = np.sort(rng.integers(-4, 5, size=rng.integers(1, 8)).astype(float))
            t2 = np.sort(rng.integers(-1, 6, size=t1.size).astype(float))
            g = (t1.size, t2.size)
            want = _brute_counts(tm, tc, t1, t2)
            # a stable argsort orders the ties otherwise: the same bins
            stable = _bins(tm, tc, t1, t2, kind="stable")
            np.testing.assert_array_equal(_accel.pair_exceed_counts(*stable, *g), want)
            # a nondecreasing chain visits the diagonal of its own grid
            diag = np.diagonal(want)
            np.testing.assert_array_equal(
                _accel.chain_exceed_counts(*_bins(tm, tc, t1, t2), t1.size), diag
            )
            lead = np.minimum(*stable)
            np.testing.assert_array_equal(_accel.chain_exceed_counts(*stable, t1.size), diag)
            # the grid count leaves the bins as they were; the chain count
            # takes its minimum in place, into the marginal bins
            np.testing.assert_array_equal(stable[0], lead)
            bins = _bins(tm, tc, t1, t2)
            np.testing.assert_array_equal(_accel.pair_exceed_counts(*bins, *g), want)
            np.testing.assert_array_equal(_accel.chain_exceed_counts(*bins, t1.size), diag)

    def test_counts_past_int16_bins(self):
        # threshold sets of 2^15 values or more widen the bins, so the grid
        # and chain counts still equal the direct ones, here taken as
        # products of the dominance indicators (exact in float32 at 200 pairs)
        rng = np.random.default_rng(9)
        values = np.arange(40_001.0)
        tm = rng.choice(values, 200, replace=False)
        tc = rng.choice(np.arange(299.0), 200)
        # an observed 40 001 x 300 grid: every value of each axis, and 0
        t1, t2 = values, np.arange(300.0)
        i, j = _bins(tm, tc, t1, t2)
        assert i.dtype == np.int32 and j.dtype == np.int16
        above1 = (tm >= t1[:, None]).astype(np.float32)
        above2 = (tc >= t2[:, None]).astype(np.float32)
        np.testing.assert_array_equal(
            _accel.pair_exceed_counts(i, j, t1.size, t2.size), above1 @ above2.T
        )
        # a 40 000-step chain over 40 000 distinct values on each axis
        path = (np.arange(40_000.0), np.arange(40_000.0) + 0.5)
        tm, tc = (rng.choice(p, 200, replace=False) for p in path)
        i, j = _bins(tm, tc, *path)
        assert i.dtype == j.dtype == np.int32
        want = np.count_nonzero((tm >= path[0][:, None]) & (tc >= path[1][:, None]), axis=1)
        np.testing.assert_array_equal(_accel.chain_exceed_counts(i, j, path[0].size), want)


def _pin_cases():
    with open(PIN, "r", encoding="utf-8") as fh:
        return json.load(fh)["cases"]


@pytest.mark.parametrize("case", _pin_cases(), ids=lambda c: c["name"])
def test_wald_pair_many_matches_pin(monkeypatch, case):
    # the pin holds the per-feature scalar kernel's outputs (see
    # tests/fixtures/pin_glm_kernel.py) but for binomial-degenerate
    # warn[0]: that column is separated by the exposure, which the
    # kernel now detects inside the loop (2) instead of running into the
    # iteration limit (1). The pinned designs are [1, x, z] and [1, x];
    # the conditional and marginal statistics are stats._glm_wald of x
    # with and without z, and warn is the larger of their statuses.
    # Fitting each column alone must give the batch's answer, so
    # convergence masks cannot couple features
    d_full = np.array(case["d_full"], dtype=float)
    d_red = np.array(case["d_red"], dtype=float)
    ymat = np.array(case["ymat"], dtype=float)
    p = case["p"]
    np.testing.assert_array_equal(d_red, d_full[:, : 1 + p])
    x, z = d_full[None, :, 1 : 1 + p], d_full[:, 1 + p :]
    family = NAMES[case["family"]]
    assert case["tol"] == stats._TOL
    monkeypatch.setattr(stats, "_MAX_ITER", case["max_iter"])

    def pair(y):
        args = (y, family, case["nb_size"], False)
        tc, full_status = stats._glm_wald(x, z, *args)
        tm, red_status = stats._glm_wald(x, z[:, :0], *args)
        return tm[0], tc[0], np.maximum(full_status, red_status)[0]

    tm, tc, warn = pair(ymat)
    np.testing.assert_array_equal(warn, case["warn"])
    np.testing.assert_allclose(tm, case["tm"], rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(tc, case["tc"], rtol=1e-9, atol=0.0)
    for j in range(ymat.shape[1]):
        one = pair(ymat[:, j : j + 1])
        assert one[2][0] == warn[j]
        np.testing.assert_allclose([one[0][0], one[1][0]], [tm[j], tc[j]], rtol=1e-12, atol=0.0)


def _bits_cases():
    with open(BITS_PIN, "r", encoding="utf-8") as fh:
        return json.load(fh)["cases"]


@pytest.mark.parametrize("case", _bits_cases(), ids=lambda c: c["name"])
def test_glm_fit_many_matches_bit_pin(case):
    # every field bit for bit (see tests/fixtures/pin_irls_bits.py): how
    # the IRLS loop stores its working arrays must not move a single bit
    got = _accel.glm_fit_many(
        np.array(case["design"], dtype=float),
        np.array(case["ymat"], dtype=float),
        case["family"],
        case["nb_size"],
        case["max_iter"],
        case["tol"],
    )
    for name, value in zip(FIELDS, got):
        assert np.array_equal(value, np.array(case[name], dtype=value.dtype)), name


def test_bit_pin_covers_every_status_and_staggered_stops():
    cases = _bits_cases()
    statuses = set()
    for case in cases:
        statuses.update(np.ravel(case["status"]).tolist())
    assert statuses == {0, 1, 2, 3}
    # within one call, fits stop at different iterations
    assert any(len(set(np.ravel(case["n_iter"]).tolist())) > 2 for case in cases)


def _stack(family, seed, draws=4, n=40, m=6):
    # per-draw exposures, a shared confounder and one column that stops
    # early: separated by draw 0's exposure (binomial) or all zero
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    design = np.stack([np.column_stack([np.ones(n), rng.normal(size=n), z]) for _ in range(draws)])
    eta = 0.2 + 0.5 * z[:, None] + 0.3 * rng.normal(size=(n, m))
    if family == _accel.BINOMIAL:
        ymat = (rng.random((n, m)) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        ymat[:, 0] = design[0, :, 1] > 0
    else:
        ymat = rng.poisson(np.exp(eta)).astype(float)
        ymat[:, 0] = 0.0
    return design, ymat


def _score_and_weight(family, y, eta, nb_size):
    # the log-likelihood score residual r (so the score is X'r) and the
    # observed-information weight of one fit at its linear predictor,
    # written from the family's density with no kernel helper
    if family == _accel.BINOMIAL:
        mu = 1.0 / (1.0 + np.exp(-eta))
        return y - mu, mu * (1.0 - mu)
    mu = np.exp(eta)
    if family == _accel.POISSON:
        return y - mu, mu
    return (y - mu) * nb_size / (mu + nb_size), nb_size * mu * (y + nb_size) / (mu + nb_size) ** 2


# the largest Newton decrement U' cov U at a converged fit: a last step
# of 1e-8 leaves about n w 1e-16 = 4e-15 at n = 40 and unit weights.
# Measured at most 1.5e-15 (negbinom, whose IRLS converges linearly)
# and 3e-30 (binomial, poisson)
DECREMENT_BOUND = 1e-12


@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
def test_converged_fits_solve_the_score_equations(family):
    # independent of how the kernel forms its steps: at every status-0
    # fit's coefficients the score of the family's log-likelihood is 0
    # to the stop rule's precision, and cov is the inverse of the
    # observed information X'WX made there directly. Each stack has
    # staggered stops, a draw singular from iteration 1 and a column
    # separated by draw 0's exposure (binomial) or all zero
    stops = set()
    for seed in range(3):
        design, ymat = _stack(family, seed)
        singular = design[:1].copy()
        singular[0, :, 1] = singular[0, :, 2]
        design = np.concatenate([design[:2], singular, design[2:]])
        coef, cov, status, n_iter = _accel.glm_fit_many(design, ymat, family, 3.0, 50, 1e-8)
        assert np.all(status[2] == 3)
        assert status[0, 0] == (2 if family == _accel.BINOMIAL else 1)
        for d, j in zip(*np.nonzero(status == 0)):
            x = design[d]
            r, w = _score_and_weight(family, ymat[:, j], x @ coef[d, j], 3.0)
            u = x.T @ r
            assert u @ cov[d, j] @ u <= DECREMENT_BOUND, (seed, d, j)
            want = np.linalg.inv(x.T @ (w[:, None] * x))
            np.testing.assert_allclose(cov[d, j], want, rtol=1e-10, atol=0.0)
            stops.add(int(n_iter[d, j]))
    assert len(stops) > 1


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
def test_stacked_row_is_the_one_design_fit_bit_for_bit(family, seed):
    # one more draw whose exposure equals z is singular from iteration 1,
    # so not every fit of the shared first iteration is kept; stopping
    # after 1 and 2 iterations also pins the eta that iteration writes
    # and the closing information step read from it
    design, ymat = _stack(family, seed)
    singular = design[:1].copy()
    singular[0, :, 1] = singular[0, :, 2]
    design = np.concatenate([design[:2], singular, design[2:]])
    for max_iter in (1, 2, 50):
        stacked = _accel.glm_fit_many(design, ymat, family, 3.0, max_iter, 1e-8)
        assert np.all(stacked[2][2] == 3) and np.all(stacked[3][2] == 1)
        for d in range(design.shape[0]):
            alone = _accel.glm_fit_many(design[d], ymat, family, 3.0, max_iter, 1e-8)
            for name, got, want in zip(FIELDS, stacked, alone):
                assert np.array_equal(got[d], want), (max_iter, d, name)


@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
def test_first_iteration_is_shared_by_every_draw(monkeypatch, family):
    # every fit starts from eta0(y), so iteration 1 takes the mean of the
    # (m, n) response block once; later calls see at most a row per fit
    design, ymat = _stack(family, 4, draws=5)
    (nd, n, _), m = design.shape, ymat.shape[1]
    rows = []
    mean = _accel._mean

    def spy(eta, code, out):
        rows.append(eta.shape)
        return mean(eta, code, out)

    monkeypatch.setattr(_accel, "_mean", spy)
    _accel.glm_fit_many(design, ymat, family, 3.0, 50, 1e-8)
    assert rows[0] == (m, n) and len(rows) > 2
    assert max(r[0] for r in rows) <= nd * m



@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
def test_identical_draws_fit_to_identical_bits(family):
    design, ymat = _stack(family, 5)
    design[3] = design[1]
    for name, got in zip(FIELDS, _accel.glm_fit_many(design, ymat, family, 3.0, 50, 1e-8)):
        assert np.array_equal(got[3], got[1]), name


@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
def test_degenerate_columns_raise_no_runtime_warning(family):
    rng = np.random.default_rng(6)
    n = 40
    x = rng.normal(size=n)
    base = np.column_stack([np.ones(n), x, rng.normal(size=n)])
    # a large-scale exposure drives separated and all-zero fits to
    # |eta| in the thousands, where exp overflows
    design = np.stack([base, base * [1.0, 1e3, 1.0]])
    zero = np.zeros(n)
    if family == _accel.BINOMIAL:
        cols = [x > 0, zero, zero + 1.0, rng.random(n) < 0.5]
    else:
        # counts of 1e20 and 1e200 push the mean to its upper clamp
        spike = np.where(np.arange(n) < 2, 1.0, 0.0)
        cols = [zero, 1e20 * spike, 1e200 * spike, np.round(np.exp(10.0 * x)), rng.poisson(2.0, n)]
    ymat = np.column_stack(cols).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = _accel.glm_fit_many(design, ymat, family, 3.0, 50, 1e-8)[2]
    assert np.all(status[:, -1] == 0) and np.any(status > 0)


def test_fit_memory_is_a_few_working_arrays():
    # the peak of one stacked call stays within a fixed number of
    # (fits, n) float arrays however many iterations the fits take
    for family in FAMILIES.values():
        design, ymat = _stack(family, 7, draws=8, n=100, m=40)
        unit = design.shape[0] * ymat.shape[1] * design.shape[1] * 8
        tracemalloc.start()
        try:
            _accel.glm_fit_many(design, ymat, family, 3.0, 50, 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * unit, (family, peak / unit)


def test_cholesky_verdict_is_free_of_column_scale():
    # Gram matrices of well-conditioned designs and of designs with a
    # column 1e-9 of its norm (or exactly) in the span of the others;
    # D A D rescales the columns by 1e-6 to 1e6
    rng = np.random.default_rng(8)
    grams = []
    for gap in (1.0, 1e-2, 1e-9, 0.0) * 3:
        x = rng.normal(size=(30, 4))
        x[:, 3] = x[:, 0] - 2.0 * x[:, 1] + gap * rng.normal(size=30)
        grams.append(x.T @ x)
    a = np.stack(grams)
    d = 10.0 ** rng.uniform(-6.0, 6.0, size=(a.shape[0], 4))
    d[:, 0], d[:, 3] = 1e-6, 1e6
    ok = _accel._cholesky(a)[1]
    assert ok.tolist() == [True, True, False, False] * 3
    assert np.array_equal(_accel._cholesky(d[:, :, None] * a * d[:, None, :])[1], ok)


def test_diverging_log_link_fit_is_not_converged():
    # one column of two equal counts and 38 zeros: negbinom diverges
    # and its mean reaches the clamp, where the stop rule alone would
    # accept its huge coefficients; poisson converges on the same column
    rng = np.random.default_rng(6)
    n = 40
    design = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
    spike = np.where(np.arange(n) < 2, 1.0, 0.0)
    for c in (1e6, 1e10, 1e20):
        status = _accel.glm_fit_many(design, c * spike[:, None], _accel.NEGBINOM, 3.0, 50, 1e-8)[2]
        assert status[0] != 0, c
    for c, want in ((1e6, 8.355), (1e10, 17.565)):
        coef, _, status, _ = _accel.glm_fit_many(design, c * spike[:, None], _accel.POISSON, 3.0, 50, 1e-8)
        assert status[0] == 0 and np.all(np.isfinite(coef))
        np.testing.assert_allclose(coef[0], [want, 2.5496, 0.01066], rtol=1e-3)


def _on_side_and_saturated(design, ymat, coef):
    # per fit of the stack and per row, whether the linear predictor puts
    # the row on the side of its response, and whether its mean is within
    # 1e-8 of 0 or 1
    eta = np.einsum("dnk,dmk->dmn", design, coef)
    mu = 1.0 / (1.0 + np.exp(-np.clip(eta, -700.0, 700.0)))
    return (2.0 * ymat.T - 1.0) * eta > 0.0, ~((mu > 1e-8) & (mu < 1.0 - 1e-8))


@pytest.mark.parametrize("singular", [False, True])
@pytest.mark.parametrize("n", [5, 8, 30])
def test_separation_is_the_all_rows_rule(n, singular):
    # [1, x] designs whose first 8 rows sit at x = +-3 (draw 0) or +-40
    # (draw 1), where the means saturate, and a third draw that is
    # singular (so not every fit is kept) or not; columns separated in
    # every row, on their side in the first 8 rows only, and at random.
    # A fit's status is 2 exactly when its final coefficients put every
    # row on its side or saturate every mean: a test of leading rows
    # alone fails here
    head = min(n, 8)
    rng = np.random.default_rng(n)
    x = rng.uniform(-1.0, 1.0, size=n)
    x[:head] = np.where(np.arange(head) % 2, 1.0, -1.0)
    scaled = [np.where(np.arange(n) < head, c * x, x) for c in (3.0, 40.0)]
    third = np.full(n, 2.0) if singular else rng.normal(size=n)
    design = np.stack([np.column_stack([np.ones(n), v]) for v in scaled + [third]])
    separated = (x > 0).astype(float)
    head_only = separated.copy()
    head_only[head:] = (np.arange(n - head) + 1) % 4 < 2  # 1, 0, 0, 1, ... whatever x is
    ymat = np.column_stack([separated, head_only, rng.random(n) < 0.5]).astype(float)
    coef, _, status, _ = _accel.glm_fit_many(design, ymat, _accel.BINOMIAL, 3.0, 50, 1e-8)
    assert np.all(status[2] == 3) == singular
    side, saturated = _on_side_and_saturated(design[:2], ymat, coef[:2])
    np.testing.assert_array_equal(status[:2] == 2, side.all(axis=2) | saturated.all(axis=2))
    assert np.all(status[:2, 0] == 2)
    if n > head:
        # the head-only column is on its side in its first 8 rows and
        # not separated
        assert np.all(status[:2, 1] == 0)
        assert side[:, 1, :head].all() and not side[:, 1].all(axis=1).any()
        # draw 1 saturates that column's first 8 means only
        assert saturated[1, 1, :head].all() and not saturated[1, 1].all()
