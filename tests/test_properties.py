"""Generated-input property checks, at least 100 cases each.

Each property lives in a plain check_* function that raises on the
first violated case, so the acceptance suite can rerun the same
checks. Cases are drawn from seeded generators; no test here depends
on execution order.
"""

import numpy as np

import reference
from fdr2d import _rng, core, engine, samplers


def check_fbar_monotone(cases=120, seed=2024):
    """Dominance counts can only fall when thresholds rise."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        m = int(rng.integers(2, 10))
        b = int(rng.integers(1, 12))
        pairs = rng.gamma(1.5, size=(b + 1, m, 2))
        tensor = core.StatTensor(pairs, np.zeros(m, dtype=bool))
        j = int(rng.integers(m))
        t1, t2 = rng.gamma(1.5, size=2)
        d1, d2 = rng.uniform(0, 2, size=2)
        lo = engine.fbar(tensor, j, t1, t2)
        hi = engine.fbar(tensor, j, t1 + d1, t2 + d2)
        assert hi <= lo, f"fbar rose from {lo} to {hi}"
        assert 0.0 <= hi and lo <= 1.0


def check_statistics_nonnegative_bounded(cases=100, seed=2025):
    """Every statistic is finite, nonnegative, and respects its cap."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        n = int(rng.integers(18, 32))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n) + 0.4 * x
        z = rng.standard_normal(n)
        kind = ("hsic", "rv", "glm", "chi2")[i % 4]
        if kind == "hsic":
            v = reference.hsic(x, y)
            assert np.isfinite(v) and v >= 0.0
        elif kind == "rv":
            v = reference.rv_coefficient(x, y)
            assert np.isfinite(v) and 0.0 <= v <= 1.0
        elif kind == "glm":
            tm, tc = reference.model_stat_pair(y, x, z, "gaussian")
            for v in (tm, tc):
                assert np.isfinite(v) and 0.0 <= v <= 1e12
        else:
            xb = (x > 0).astype(float)
            yb = (y > 0).astype(float)
            v = reference.pearson_chi_square(xb, yb)
            assert np.isfinite(v) and v >= 0.0


def check_row_permutation_symmetry(cases=100, seed=2026):
    """Statistics see samples as a set: permuting rows jointly is a no-op."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        n = int(rng.integers(16, 28))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n) + 0.3 * x
        z = rng.standard_normal(n)
        perm = rng.permutation(n)
        kind = ("rv", "hsic", "glm")[i % 3]
        if kind == "rv":
            a = reference.rv_coefficient(x, y)
            b = reference.rv_coefficient(x[perm], y[perm])
            np.testing.assert_allclose(b, a, rtol=1e-9, atol=1e-12)
        elif kind == "hsic":
            a = reference.hsic(x, y)
            b = reference.hsic(x[perm], y[perm])
            np.testing.assert_allclose(b, a, rtol=1e-9, atol=1e-14)
        else:
            a = reference.model_stat_pair(y, x, z, "gaussian")
            b = reference.model_stat_pair(y[perm], x[perm], z[perm], "gaussian")
            np.testing.assert_allclose(b[0], a[0], rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(b[1], a[1], rtol=1e-8, atol=1e-10)


def check_sampler_multisets(cases=100, seed=2027):
    """Permutation samplers rearrange residuals; they never invent values."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        n = int(rng.integers(15, 40))
        z = rng.standard_normal((n, 1))
        x = 0.7 * z[:, 0] + rng.standard_normal(n)
        if i % 3 == 0:
            model = samplers.fit_residual_linear(x, z)
            (xb,) = samplers.draw_for_strategy("residual-perm", model, seed, [i])
            np.testing.assert_allclose(
                np.sort((xb - model.fitted_mean).ravel()),
                np.sort(model.residuals.ravel()),
                atol=1e-12,
            )
        elif i % 3 == 1:
            edges = np.array([0.0])  # two bins split at the z median area
            model = samplers.fit_binned_residual(x, z, 0, edges)
            (xb,) = samplers.draw_for_strategy("binned-perm", model, seed, [i])
            for g in np.unique(model.bins):
                sel = model.bins == g
                np.testing.assert_allclose(
                    np.sort((xb[sel] - model.fitted_mean[sel]).ravel()),
                    np.sort(model.residuals[sel].ravel()),
                    atol=1e-12,
                )
        else:
            xb2 = (rng.random(n) < 1 / (1 + np.exp(-z[:, 0]))).astype(float)
            model = samplers.fit_parametric_logistic(xb2, z)
            draw = samplers.draw_for_strategy("parametric-logistic", model, seed, [i])
            assert set(np.unique(draw)) <= {0.0, 1.0}


def check_seed_determinism(cases=100, seed=2028):
    """Identical key paths give identical streams; siblings differ."""
    for i in range(cases):
        a = _rng.substream(seed, "case", i).random(5)
        b = _rng.substream(seed, "case", i).random(5)
        c = _rng.substream(seed, "case", i + 1).random(5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        s1 = _rng.substream_seed(seed, i)
        s2 = _rng.substream_seed(seed, i)
        assert s1 == s2


class TestProperties:
    def test_fbar_monotone(self):
        check_fbar_monotone()

    def test_statistics_nonnegative_bounded(self):
        check_statistics_nonnegative_bounded()

    def test_row_permutation_symmetry(self):
        check_row_permutation_symmetry()

    def test_sampler_multisets(self):
        check_sampler_multisets()

    def test_seed_determinism(self):
        check_seed_determinism()
