"""Dependence statistics against independent oracles.

The HSIC oracle expands the V-statistic as an explicit double/triple
sum with its own kernel evaluation; the categorical oracles are the
closed-form 2x2 identities. All expected values here were derived
before the module was written.
"""

import warnings

import numpy as np
import pytest

import reference
from fdr2d import _accel, engine, glm, stats
from fdr2d.core import Dataset


def _refit_pvalues(y, x, z, family, size=None):
    # bh's p-values of every column of y, refit without a tensor
    dataset = Dataset(x=x, y=y, z=z, y_kind=glm.FAMILIES[family].y_kind)
    spec = stats.StatisticSpec("glm", family=family, size=size)
    return engine.bh_rejections(dataset, spec, 0.05)[0]


def _oracle_kernel(v):
    # explicit loops, own median bandwidth; no shared code with the package
    n = v.shape[0]
    dists = []
    for i in range(n):
        for j in range(i + 1, n):
            dists.append(abs(v[i] - v[j]))
    sigma = sorted(dists)[len(dists) // 2] if len(dists) % 2 else float(
        np.median(np.asarray(dists))
    )
    sigma = float(np.median(np.asarray(dists)))
    k = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            k[i, j] = np.exp(-((v[i] - v[j]) ** 2) / (2.0 * sigma**2))
    return k


def _oracle_hsic(x, y):
    n = x.shape[0]
    kx = _oracle_kernel(x)
    ky = _oracle_kernel(y)
    t1 = 0.0
    for i in range(n):
        for j in range(n):
            t1 += kx[i, j] * ky[i, j]
    t1 /= n**2
    t2 = kx.sum() / n**2 * ky.sum() / n**2
    t3 = 0.0
    for i in range(n):
        sx = 0.0
        sy = 0.0
        for j in range(n):
            sx += kx[i, j]
            sy += ky[i, j]
        t3 += sx * sy
    t3 /= n**3
    return n * (t1 + t2 - 2.0 * t3)


class TestHsic:
    def test_trace_matches_double_sum(self):
        rng = np.random.default_rng(17)
        n = 30
        for _ in range(20):
            x = rng.normal(size=n)
            y = 0.5 * x + rng.normal(size=n)
            got = reference.hsic(x, y)
            want = _oracle_hsic(x, y)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_median_heuristic(self):
        bandwidth = stats._median_distance(stats._sq_distances(np.array([0.0, 1.0, 2.0])))
        assert bandwidth == 1.0

    def test_identical_rows_degenerate(self):
        with pytest.raises(ValueError, match="bandwidth"):
            stats.gaussian_kernel(np.ones(5))

    def test_constant_y_is_zero(self):
        rng = np.random.default_rng(2)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            out = reference.hsic(rng.normal(size=20), np.full(20, 3.0))
        assert out == 0.0
        assert any("constant" in str(w.message) for w in rec)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            assert reference.hsic(rng.normal(size=15), rng.normal(size=15)) >= 0.0


def _joint_trace_unregularized(x, y, z):
    # the epsilon -> infinity limit of chsic: the plain joint-kernel trace
    sz = stats._standardize_columns(z)
    xz = np.hstack([stats._standardize_columns(x), sz])
    yz = np.hstack([stats._standardize_columns(y), sz])
    kx = stats._center_kernel(stats.gaussian_kernel(xz))
    ky = stats._center_kernel(stats.gaussian_kernel(yz))
    return max(0.0, float(np.sum(kx * ky)) / xz.shape[0])


class TestChsic:
    def test_large_epsilon_approaches_marginal_joint_trace(self):
        # as epsilon grows the regularizer tends to the centered kernel,
        # so the statistic approaches the plain joint-kernel trace form
        rng = np.random.default_rng(5)
        n = 25
        x = rng.normal(size=n)
        z = rng.normal(size=n)
        y = 0.3 * z + rng.normal(size=n)
        small = reference.chsic(x, y, z, epsilon=1e6)
        ref = _joint_trace_unregularized(x, y, z)
        assert abs(small - ref) <= 0.01 * max(1.0, abs(ref))

    def test_nonnegative_and_finite(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = 20
            v = reference.chsic(rng.normal(size=n), rng.normal(size=n), rng.normal(size=n))
            assert np.isfinite(v) and v >= 0.0

    def test_epsilon_must_be_positive(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="epsilon"):
            reference.chsic(rng.normal(size=10), rng.normal(size=10), rng.normal(size=10), epsilon=0.0)


class TestRv:
    def test_univariate_equals_squared_pearson(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(5, 60))
            u = rng.normal(size=n)
            v = rng.normal(size=n) + 0.4 * u
            want = np.corrcoef(u, v)[0, 1] ** 2
            got = reference.rv_coefficient(u, v)
            assert abs(got - want) <= 1e-12

    def test_zero_variance_warns_zero(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            out = reference.rv_coefficient(np.ones(10), np.arange(10.0))
        assert out == 0.0
        assert len(rec) == 1

    def test_rounding_noise_scores_zero_with_a_warning(self):
        # centering 0.1 or projecting 2 z + 1 out of a basis in z leaves
        # ~1e-16 noise, which the exact den <= 0 rule scored (0.003 here)
        rng = np.random.default_rng(14)
        n = 60
        z = rng.normal(size=n)
        y = z + rng.normal(size=n)
        for call in (
            lambda: reference.rv_coefficient(np.full(n, 0.1), y),
            lambda: reference.rv_coefficient(y, np.full(n, 0.1)),
            lambda: reference.conditional_rv(2.0 * z + 1.0, y, z, spline_df=5),
            lambda: reference.conditional_rv(y, 2.0 * z + 1.0, z, spline_df=5),
        ):
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                out = call()
            assert out == 0.0
            assert len(rec) == 1 and "zero variance" in str(rec[0].message)

    def test_multivariate_in_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            u = rng.normal(size=(20, 3))
            v = rng.normal(size=(20, 2))
            val = reference.rv_coefficient(u, v)
            assert 0.0 <= val <= 1.0

    def test_conditional_rv_removes_confounding(self):
        rng = np.random.default_rng(13)
        n = 300
        z = rng.normal(size=n)
        x = z**2 + 0.2 * rng.normal(size=n)
        y = z**2 + 0.2 * rng.normal(size=n)
        marg = reference.rv_coefficient(x, y)
        cond = reference.conditional_rv(x, y, z, spline_df=5)
        assert cond < 0.2 * marg


class TestCategorical:
    def test_chi_square_frozen_table(self):
        # 2x2 table [[10, 20], [20, 10]]: 60 * 300^2 / 30^4 = 6.6667
        x = np.repeat([1.0, 1.0, 0.0, 0.0], [10, 20, 20, 10])
        y = np.repeat([1.0, 0.0, 1.0, 0.0], [10, 20, 20, 10])
        got = reference.pearson_chi_square(x, y)
        assert abs(got - 6.6667) <= 1e-3
        np.testing.assert_allclose(got, 6.666666666666667, rtol=1e-13)

    def test_identity_equals_n(self):
        rng = np.random.default_rng(21)
        for n in (10, 33, 80):
            x = (rng.random(n) < 0.5).astype(float)
            if x.min() == x.max():
                x[0] = 1.0 - x[0]
            np.testing.assert_allclose(reference.pearson_chi_square(x, x), n, rtol=1e-12)

    def test_zero_margin_warns_zero(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            out = reference.pearson_chi_square(np.zeros(10), np.ones(10))
        assert out == 0.0
        assert len(rec) >= 1

    def test_mh_single_stratum_identity(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(8, 60))
            x = (rng.random(n) < 0.5).astype(float)
            y = (rng.random(n) < 0.5).astype(float)
            if x.min() == x.max() or y.min() == y.max():
                continue
            chi = reference.pearson_chi_square(x, y)
            mh = reference.mantel_haenszel(x, y, np.zeros(n, dtype=int))
            assert abs(mh - (n - 1) / n * chi) <= 1e-10 * max(1.0, chi)

    def test_mh_degenerate_strata_warn_zero(self):
        x = np.array([1.0, 1.0, 0.0, 0.0])
        y = np.array([1.0, 1.0, 1.0, 1.0])  # no y variation in any stratum
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            out = reference.mantel_haenszel(x, y, np.array([0, 0, 1, 1]))
        assert out == 0.0
        assert len(rec) >= 1


class TestModelStatPair:
    def test_gaussian_matches_t_statistics(self):
        rng = np.random.default_rng(31)
        n = 50
        x = rng.normal(size=n)
        z = rng.normal(size=n)
        y = 0.5 * x + 0.7 * z + rng.normal(size=n)
        pair = reference.model_stat_pair(y, x, z, "gaussian")
        full = reference.ols(np.column_stack([np.ones(n), x, z]), y)
        red = reference.ols(np.column_stack([np.ones(n), x]), y)
        np.testing.assert_allclose(pair.t_c, abs(full.coef[1]) / full.se[1], rtol=1e-12)
        np.testing.assert_allclose(pair.t_m, abs(red.coef[1]) / red.se[1], rtol=1e-12)

    def test_perfect_fit_capped(self):
        x = np.linspace(-1, 1, 20)
        z = np.linspace(0, 1, 20) ** 2
        pair = reference.model_stat_pair(x.copy(), x, z, "gaussian")
        assert pair.t_m == 1e12 and pair.t_c == 1e12

    def test_response_equal_to_confounder_gives_zero_conditional(self):
        rng = np.random.default_rng(32)
        n = 40
        x = rng.normal(size=n)
        z = rng.normal(size=n)
        pair = reference.model_stat_pair(z.copy(), x, z, "gaussian")
        assert pair.t_c == 0.0

    def test_nonconverged_zero_with_warning(self):
        n = 30
        x = np.linspace(-1, 1, n)
        z = np.zeros(n)
        z[::2] = 1.0
        y = (x > 0).astype(float)  # separated in x
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            pair = reference.model_stat_pair(y, x, z, "binomial")
        assert pair.t_m == 0.0 and pair.t_c == 0.0
        assert any("converge" in str(w.message) for w in rec)


class TestBasisWald:
    def test_j1_one_no_z_equals_squared_t(self):
        rng = np.random.default_rng(41)
        n = 60
        x = rng.normal(size=n)
        y = 0.4 * x + rng.normal(size=n)
        z = np.zeros((n, 0))
        pair = reference.basis_wald_pair(y, x, z, j1=1, j2=5)
        fit = reference.ols(np.column_stack([np.ones(n), x]), y)
        t2 = (fit.coef[1] / fit.se[1]) ** 2
        np.testing.assert_allclose(pair.t_c, t2, rtol=1e-10)

    def test_orthogonal_response_is_zero(self):
        n = 24
        x = np.linspace(-1, 1, n)
        bx = x  # j1 = 1
        rng = np.random.default_rng(42)
        y = rng.normal(size=n)
        y -= y.mean()
        y -= (y @ bx) / (bx @ bx) * bx
        pair = reference.basis_wald_pair(y, x, np.zeros((n, 0)), j1=1, j2=5)
        assert pair.t_m <= 1e-18
        assert pair.t_c <= 1e-18

    def test_conditional_null_mean_near_j1(self):
        # under y = g(z) + noise, the conditional statistic is roughly
        # chi-square with j1 degrees of freedom
        rng = np.random.default_rng(43)
        n, reps, j1 = 150, 300, 3
        vals = np.empty(reps)
        for r in range(reps):
            z = rng.normal(size=n)
            x = 0.8 * z + rng.normal(size=n)
            y = 0.5 * z + rng.normal(size=n)
            vals[r] = reference.basis_wald_pair(y, x, z, j1=j1, j2=3).t_c
        assert abs(vals.mean() - j1) <= 0.15 * j1


def _toy_dataset(rng, n=40, m=6, y_kind="continuous", x_kind="continuous"):
    from fdr2d.core import Dataset

    z = np.column_stack([rng.normal(size=n), (rng.random(n) < 0.5).astype(float)])
    if x_kind == "binary":
        x = (rng.random(n) < 1.0 / (1.0 + np.exp(-z[:, 0]))).astype(float)
    else:
        x = 0.6 * z[:, 0] + rng.normal(size=n)
    sig = 0.5 * x + 0.4 * z[:, 0]
    if y_kind == "binary":
        y = (rng.random((n, m)) < 1.0 / (1.0 + np.exp(-sig[:, None]))).astype(float)
    elif y_kind == "count":
        y = rng.poisson(np.exp(0.3 * sig))[:, None] * np.ones(m)
        y = rng.poisson(np.exp(0.3 * sig[:, None] + 0.1 * rng.normal(size=(n, m))))
        y = y.astype(float)
    else:
        y = sig[:, None] + rng.normal(size=(n, m))
    return Dataset(x=x, y=y, z=z, x_kind=x_kind, y_kind=y_kind)


class TestEvaluators:
    def test_glm_gaussian_matches_scalar_pairs(self):
        rng = np.random.default_rng(51)
        ds = _toy_dataset(rng)
        ev = stats.make_evaluator(ds, stats.StatisticSpec("glm", family="gaussian"))
        (tm,), (tc,), warn = ev.pairs(ds.x[None], observed=True)
        assert warn == 0
        for j in range(ds.m):
            ref = reference.model_stat_pair(ds.y[:, j], ds.x, ds.z, "gaussian")
            np.testing.assert_allclose(tm[j], ref.t_m, rtol=1e-10)
            np.testing.assert_allclose(tc[j], ref.t_c, rtol=1e-10)

    def test_glm_gaussian_perfect_fit_rows(self):
        rng = np.random.default_rng(52)
        ds = _toy_dataset(rng)
        y = ds.y.copy()
        y[:, 0] = ds.z[:, 0]  # reproduced exactly by the confounder
        y[:, 1] = ds.x[:, 0]  # reproduced exactly by the exposure
        from fdr2d.core import Dataset

        ds2 = Dataset(x=ds.x, y=y, z=ds.z)
        ev = stats.make_evaluator(ds2, stats.StatisticSpec("glm", family="gaussian"))
        (tm,), (tc,), _ = ev.pairs(ds2.x[None], observed=True)
        assert tc[0] == 0.0
        assert tc[1] == 1e12 and tm[1] == 1e12

    def test_glm_poisson_matches_scalar_pairs(self):
        rng = np.random.default_rng(53)
        ds = _toy_dataset(rng, y_kind="count")
        ev = stats.make_evaluator(ds, stats.StatisticSpec("glm", family="poisson"))
        (tm,), (tc,), warn = ev.pairs(ds.x[None], observed=True)
        for j in range(ds.m):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ref = reference.model_stat_pair(ds.y[:, j], ds.x, ds.z, "poisson")
            np.testing.assert_allclose(tm[j], ref.t_m, rtol=1e-12)
            np.testing.assert_allclose(tc[j], ref.t_c, rtol=1e-12)

    def test_rv_matches_scalar(self):
        rng = np.random.default_rng(54)
        ds = _toy_dataset(rng)
        ev = stats.make_evaluator(ds, stats.StatisticSpec("rv", spline_df=4))
        (tm,), (tc,), _ = ev.pairs(ds.x[None], observed=True)
        for j in range(ds.m):
            np.testing.assert_allclose(
                tm[j], reference.rv_coefficient(ds.x, ds.y[:, j]), rtol=1e-12, atol=1e-14
            )
            np.testing.assert_allclose(
                tc[j],
                reference.conditional_rv(ds.x, ds.y[:, j], ds.z, spline_df=4, z_kinds=ds.z_kinds),
                rtol=1e-9,
                atol=1e-12,
            )

    def test_hsic_matches_scalar(self):
        rng = np.random.default_rng(55)
        ds = _toy_dataset(rng, n=30, m=4)
        ev = stats.make_evaluator(ds, stats.StatisticSpec("hsic", epsilon=0.001))
        (tm,), (tc,), _ = ev.pairs(ds.x[None], observed=True)
        for j in range(ds.m):
            np.testing.assert_allclose(
                tm[j], reference.hsic(ds.x, ds.y[:, j]), rtol=1e-9, atol=1e-12
            )
            np.testing.assert_allclose(
                tc[j], reference.chsic(ds.x, ds.y[:, j], ds.z, epsilon=0.001),
                rtol=1e-9,
                atol=1e-12,
            )

    def test_hsic_stack_rows_equal_single_draws(self):
        # a stack of five scored in one product, with a constant draw in
        # the middle; build_tensor's chunks split stacks (test_batched_eval)
        rng = np.random.default_rng(57)
        ds = _toy_dataset(rng, n=30, m=4)
        ev = stats.make_evaluator(ds, stats.StatisticSpec("hsic", epsilon=0.001))
        stack = ds.x[None] + rng.normal(scale=0.5, size=(5,) + ds.x.shape)
        stack[2] = 0.25
        tm, tc, failed = ev.pairs(stack)
        assert failed == ds.m and np.all(tm[2] == 0.0) and np.all(tc[2] == 0.0)
        for d in range(5):
            (single_tm,), (single_tc,), _ = ev.pairs(stack[d : d + 1])
            np.testing.assert_allclose(tm[d], single_tm, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(tc[d], single_tc, rtol=1e-12, atol=0.0)

    def test_categorical_matches_scalar(self):
        from fdr2d.core import Dataset

        rng = np.random.default_rng(56)
        n, m = 80, 5
        z = (rng.random((n, 2)) < 0.5).astype(float)
        x = (rng.random(n) < 1.0 / (1.0 + np.exp(-1.5 * (z[:, 0] - 0.5)))).astype(float)
        y = (rng.random((n, m)) < 1.0 / (1.0 + np.exp(-(x + z[:, 1])[:, None] + 1.0))).astype(
            float
        )
        ds = Dataset(x=x, y=y, z=z, x_kind="binary", y_kind="binary")
        ev = stats.make_evaluator(ds, stats.StatisticSpec("categorical"))
        (tm,), (tc,), _ = ev.pairs(ds.x[None], observed=True)
        codes = ds.z[:, 0].astype(int) + 2 * ds.z[:, 1].astype(int)
        for j in range(ds.m):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                np.testing.assert_allclose(
                    tm[j], reference.pearson_chi_square(ds.x[:, 0], ds.y[:, j]),
                    rtol=1e-12, atol=1e-14,
                )
                np.testing.assert_allclose(
                    tc[j], reference.mantel_haenszel(ds.x[:, 0], ds.y[:, j], codes),
                    rtol=1e-12, atol=1e-14,
                )

    def test_categorical_flat_observed_exposure_raises(self):
        rng = np.random.default_rng(64)
        n, m = 60, 5
        z = (rng.random((n, 1)) < 0.5).astype(float)
        y = (rng.random((n, m)) < 0.5).astype(float)
        ds = Dataset(x=np.ones(n), y=y, z=z, x_kind="binary", y_kind="binary")
        spec = stats.StatisticSpec("categorical")
        ev = stats.make_evaluator(ds, spec)
        with pytest.raises(ValueError, match="^constant exposure on observed data$"):
            ev.pairs(ds.x[None], observed=True)
        # build_tensor fits the logistic sampler first, and the fit refuses
        plan = engine.ResamplePlan("parametric-logistic", 3, seed=0)
        with pytest.raises(ValueError, match="^complete separation"):
            engine.build_tensor(ds, plan, spec)

    @staticmethod
    def _degenerate_exposure(ds, case):
        # a constant, or a linear function of the confounders: centering
        # or projecting leaves only rounding noise
        if case == "constant":
            return np.full((ds.n, 1), 0.37)
        return (2.0 * ds.z[:, 0] - ds.z[:, 1] + 1.0)[:, None]

    @pytest.mark.parametrize("case", ["constant", "confounder-span"])
    def test_rv_degenerate_draw_scores_zero_and_fails(self, case):
        rng = np.random.default_rng(61)
        ds = _toy_dataset(rng)
        ev = stats.make_evaluator(ds, stats.StatisticSpec("rv", spline_df=4))
        stack = np.stack([ds.x, self._degenerate_exposure(ds, case), ds.x[::-1]])
        tm, tc, failed = ev.pairs(stack)
        clean_tm, clean_tc, clean_failed = ev.pairs(stack[[0, 2]])
        assert clean_failed == 0
        assert np.all(tc[1] == 0.0)
        if case == "constant":
            assert np.all(tm[1] == 0.0) and failed == ds.m
        else:
            assert np.all(tm[1] > 0.0) and failed == ds.m
        np.testing.assert_array_equal(tm[[0, 2]], clean_tm)
        np.testing.assert_array_equal(tc[[0, 2]], clean_tc)

    @pytest.mark.parametrize(
        "case, message",
        [("constant", "constant exposure"), ("confounder-span", "confounder span")],
    )
    def test_rv_degenerate_observed_exposure_raises(self, case, message):
        rng = np.random.default_rng(62)
        ds = _toy_dataset(rng)
        ev = stats.make_evaluator(ds, stats.StatisticSpec("rv", spline_df=4))
        with pytest.raises(ValueError, match=message):
            ev.pairs(self._degenerate_exposure(ds, case)[None], observed=True)

    def test_basis_wald_matches_scalar_at_observed(self):
        rng = np.random.default_rng(57)
        ds = _toy_dataset(rng, n=60, m=4)
        ev = stats.make_evaluator(ds, stats.StatisticSpec("basis-wald", spline_df=4))
        (tm,), (tc,), warn = ev.pairs(ds.x[None], observed=True)
        assert warn == 0
        for j in range(ds.m):
            ref = reference.basis_wald_pair(
                ds.y[:, j], ds.x, ds.z, j1=5, j2=4, z_kinds=ds.z_kinds
            )
            np.testing.assert_allclose(tm[j], ref.t_m, rtol=1e-9)
            np.testing.assert_allclose(tc[j], ref.t_c, rtol=1e-9)

    def test_basis_wald_knots_frozen_across_draws(self):
        rng = np.random.default_rng(58)
        ds = _toy_dataset(rng, n=60, m=4)
        ev = stats.make_evaluator(ds, stats.StatisticSpec("basis-wald", spline_df=4))
        draw = 0.6 * ds.z[:, 0] + rng.normal(size=ds.n)
        (tm,), (tc,), warn = ev.pairs(draw[None, :, None])
        assert tm.shape == (ds.m,) and np.all(tm >= 0) and np.all(np.isfinite(tm))
        assert tc.shape == (ds.m,) and np.all(tc >= 0) and np.all(np.isfinite(tc))

    def test_basis_wald_confounder_spline_needs_df_three(self):
        rng = np.random.default_rng(60)
        ds = _toy_dataset(rng, n=60, m=4)
        with pytest.raises(ValueError, match="df must be at least 3"):
            stats.make_evaluator(ds, stats.StatisticSpec("basis-wald", spline_df=2))

    def test_basis_wald_confounder_spline_reads_spline_df(self):
        # build_tensor hands StatisticSpec.spline_df to the confounder
        # spline; the exposure basis keeps its five columns
        rng = np.random.default_rng(64)
        ds = _toy_dataset(rng, n=60, m=4)
        plan = engine.ResamplePlan("residual-perm", b_count=3, seed=1)
        df3, df5 = (
            engine.build_tensor(ds, plan, engine.StatisticSpec(kind="basis-wald", spline_df=df))
            for df in (3, 5)
        )
        assert not np.array_equal(df3.pairs, df5.pairs)
        for j in range(ds.m):
            ref = reference.basis_wald_pair(ds.y[:, j], ds.x, ds.z, j1=5, j2=3, z_kinds=ds.z_kinds)
            np.testing.assert_allclose(df3.pairs[0, j], ref, rtol=1e-9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="statistic kind"):
            stats.StatisticSpec("mutual-info")

    def test_glm_needs_family(self):
        with pytest.raises(ValueError, match="family"):
            stats.StatisticSpec("glm")

    def test_model_pvalues_uniform_under_null(self):
        rng = np.random.default_rng(61)
        n, m = 80, 400
        z = rng.normal(size=n)
        x = 0.5 * z + rng.normal(size=n)
        y = 0.3 * z[:, None] + rng.normal(size=(n, m))  # x-null throughout
        pv = _refit_pvalues(y, x, z, "gaussian")
        assert pv.shape == (m,)
        assert np.all((pv >= 0) & (pv <= 1))
        assert abs(pv.mean() - 0.5) < 0.05

    def test_model_pvalues_glm_batch_matches_single_fits(self):
        # the batched fit must give each feature its own single-fit
        # p-value, p = 1 on a failed fit, and name a singular feature
        from scipy.stats import norm

        rng = np.random.default_rng(62)
        n, m = 60, 8
        z = rng.normal(size=n)
        x = (rng.random(n) < 0.5).astype(float)
        y = (rng.random((n, m)) < 1 / (1 + np.exp(-(0.8 * x[:, None] - 0.3 * z[:, None])))).astype(float)
        y[:, 3] = 1.0  # zero variance: set aside unfitted, p = 1, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _refit_pvalues(y, x, z, "binomial")[3] == 1.0
        y[:, 5] = x  # the exposure separates the response: a failed fit
        with pytest.warns(UserWarning, match="^1 model fits did not converge"):
            pv = _refit_pvalues(y, x, z, "binomial")
        assert pv[3] == 1.0 and pv[5] == 1.0
        design = np.column_stack([np.ones(n), x, z])
        for j in set(range(m)) - {3, 5}:
            fit = reference.irls(design, y[:, j], "binomial")
            expected = 2.0 * norm.sf(abs(fit.coef[1]) / fit.se[1])
            np.testing.assert_allclose(pv[j], expected, rtol=1e-9)
        with pytest.raises(ValueError, match="feature 0: singular design"):
            _refit_pvalues(y, x, x, "binomial")

    @pytest.mark.parametrize("p", [1, 2])
    def test_model_pvalues_gaussian_batch_matches_single_fits(self, p):
        # one batched QR for every feature must give each feature the
        # statistic and p-value of its own fit, perfect fits included
        from scipy import special

        rng = np.random.default_rng(63 + p)
        n, m = 50, 7
        z = rng.normal(size=n)
        x = rng.normal(size=(n, p)) + 0.4 * z[:, None]
        y = 0.5 * x[:, :1] + 0.3 * z[:, None] + rng.normal(size=(n, m))
        full = np.column_stack([np.ones(n), x, z])
        y[:, 2] = full @ np.linspace(1.0, 2.0, full.shape[1])  # perfect fit
        fits = [reference.ols(full, y[:, j]) for j in range(m)]
        single = np.array([reference.wald_block(f.coef, f.cov, p) for f in fits])
        (batch,), (status,) = stats._glm_wald(
            x[None], z[:, None], y, "gaussian", None, observed=True
        )
        assert np.all(status == 0)
        np.testing.assert_allclose(batch, single, rtol=1e-10)
        assert single[2] == batch[2] == _accel.STAT_CAP
        pv = _refit_pvalues(y, x, z, "gaussian")
        if p == 1:
            want = 2.0 * special.stdtr(n - full.shape[1], -single)
        else:
            want = special.chdtrc(p, single)
        np.testing.assert_allclose(pv, want, rtol=1e-10)
        with pytest.raises(ValueError, match="singular"):
            _refit_pvalues(y, np.column_stack([x, z]), z, "gaussian")


def _glm_dataset(family, p, seed, m=6, n=60):
    # exposure block of p columns, one confounder, outcomes of the family
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 1))
    x = 0.5 * z + rng.normal(size=(n, p))
    eta = 0.2 + 0.4 * x[:, :1] - 0.4 * z + 0.3 * rng.normal(size=(n, m))
    if family == "gaussian":
        y = eta + rng.normal(size=(n, m))
    elif family == "binomial":
        y = (rng.random((n, m)) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    elif family == "poisson":
        y = rng.poisson(np.exp(eta)).astype(float)
    else:
        mu = np.exp(eta)
        y = rng.negative_binomial(3.0, 3.0 / (3.0 + mu)).astype(float)
    return Dataset(x=x, y=y, z=z)


GLM_FAMILIES = ("gaussian", "binomial", "poisson", "negbinom")


class TestOneWaldPath:
    """The evaluator and the bh p-values get their Wald statistics from
    one function, so they agree bit for bit and fail alike."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("family", GLM_FAMILIES)
    def test_pvalue_statistic_is_the_observed_conditional_row(self, monkeypatch, family, p):
        from scipy import special

        ds = _glm_dataset(family, p, seed=70 + p)
        size = 3.0 if family == "negbinom" else None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = stats.StatisticSpec("glm", family=family, size=size)
            _, (tc,), _ = stats.make_evaluator(ds, spec).pairs(ds.x[None], observed=True)
            seen = []
            real = stats._glm_wald

            def spy(*args, **kwargs):
                out = real(*args, **kwargs)
                seen.append(out[0][0])  # row 0 of the stack of one
                return out

            monkeypatch.setattr(stats, "_glm_wald", spy)
            pv = _refit_pvalues(ds.y, ds.x, ds.z, family, size=size)
        (stat,) = seen
        np.testing.assert_array_equal(stat, tc)
        if p > 1:
            want = special.chdtrc(p, tc)
        elif family == "gaussian":
            want = 2.0 * special.stdtr(ds.n - 3, -tc)
        else:
            want = 2.0 * special.ndtr(-tc)
        np.testing.assert_array_equal(pv, want)

    @pytest.mark.parametrize("family", GLM_FAMILIES)
    def test_singular_observed_fit_raises_one_message(self, family):
        ds = _glm_dataset(family, 1, seed=75)
        ds = Dataset(x=ds.z.copy(), y=ds.y, z=ds.z)  # the exposure repeats the confounder
        size = 3.0 if family == "negbinom" else None
        with pytest.raises(ValueError) as from_evaluator:
            spec = stats.StatisticSpec("glm", family=family, size=size)
            stats.make_evaluator(ds, spec).pairs(ds.x[None], observed=True)
        with pytest.raises(ValueError) as from_pvalues:
            _refit_pvalues(ds.y, ds.x, ds.z, family, size=size)
        message = "feature 0: singular design on observed data"
        assert str(from_evaluator.value) == str(from_pvalues.value) == message
