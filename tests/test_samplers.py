"""Conditional resampling of the exposure given confounders."""

import numpy as np
import pytest

import reference
from fdr2d import _accel, _rng, glm, samplers


class _IdentityRng:
    """Stub generator whose permutation is always the identity."""

    def permutation(self, n):
        return np.arange(n)


def _toy(n=30, seed=0, p=1):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 2))
    x = 0.8 * z[:, :1] - 0.3 * z[:, 1:2] + rng.normal(size=(n, p))
    return x, z


class TestResidualLinear:
    def test_decomposition_is_exact(self):
        x, z = _toy()
        model = samplers.fit_residual_linear(x, z)
        np.testing.assert_allclose(model.fitted_mean + model.residuals, x, atol=1e-12)

    def test_residuals_orthogonal_to_design(self):
        x, z = _toy()
        model = samplers.fit_residual_linear(x, z)
        np.testing.assert_allclose(z.T @ model.residuals, 0.0, atol=1e-9)
        np.testing.assert_allclose(model.residuals.sum(axis=0), 0.0, atol=1e-9)

    def test_identity_permutation_returns_original(self, monkeypatch):
        x, z = _toy()
        model = samplers.fit_residual_linear(x, z)
        monkeypatch.setattr(_rng, "substreams", lambda seed, draws: [_IdentityRng() for _ in draws])
        (draw,) = samplers.draw_for_strategy("residual-perm", model, 0, [1])
        np.testing.assert_allclose(draw, x, atol=1e-12)

    def test_permutation_multiset_invariant(self):
        x, z = _toy(n=25)
        model = samplers.fit_residual_linear(x, z)
        (draw,) = samplers.draw_for_strategy("residual-perm", model, 7, [1])
        resid = draw - model.fitted_mean
        got = np.array(sorted(map(tuple, resid.round(12))))
        want = np.array(sorted(map(tuple, model.residuals.round(12))))
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_bootstrap_rows_come_from_residuals(self):
        x, z = _toy(n=20)
        model = samplers.fit_residual_linear(x, z)
        (draw,) = samplers.draw_for_strategy("residual-boot", model, 9, [2])
        resid = draw - model.fitted_mean
        for row in resid:
            dists = np.abs(model.residuals - row).max(axis=1)
            assert dists.min() < 1e-10

    def test_seed_determinism(self):
        x, z = _toy()
        model = samplers.fit_residual_linear(x, z)
        a = samplers.draw_for_strategy("residual-perm", model, 42, [5])
        b = samplers.draw_for_strategy("residual-perm", model, 42, [5])
        np.testing.assert_array_equal(a, b)

    def test_spline_transform_residualizes_nonlinear_mean(self):
        rng = np.random.default_rng(3)
        n = 200
        z = rng.normal(size=(n, 1))
        x = (z**2 + 0.1 * rng.normal(size=(n, 1)))
        model = samplers.fit_residual_linear(x, z, spline_df=5)
        # spline design soaks up the quadratic mean; linear would not
        assert np.abs(np.corrcoef(z[:, 0] ** 2, model.residuals[:, 0])[0, 1]) < 0.05

    def test_singular_design(self):
        n = 15
        z = np.column_stack([np.ones(n), np.ones(n)])
        with pytest.raises(ValueError, match="singular design"):
            samplers.fit_residual_linear(np.random.default_rng(0).normal(size=(n, 1)), z)

    def test_no_residual_degrees_of_freedom(self):
        # [1, z] with n = d + 1 reproduces x exactly; there is nothing to permute
        x, z = _toy(n=3)
        with pytest.raises(ValueError, match="no residual degrees of freedom"):
            samplers.fit_residual_linear(x, z)


class TestParametricLogistic:
    def test_probabilities_clamped(self):
        rng = np.random.default_rng(4)
        n = 80
        z = rng.normal(size=(n, 1))
        x = (rng.random(n) < 1 / (1 + np.exp(-1.5 * z[:, 0]))).astype(float)
        if x.min() == x.max():  # avoid the degenerate response in this check
            x[0] = 1.0 - x[0]
        model = samplers.fit_parametric_logistic(x, z)
        assert model.success_prob.shape == (n,)
        assert model.success_prob.min() >= 1e-8
        assert model.success_prob.max() <= 1 - 1e-8

    def test_draw_is_binary_vector(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(50, 2))
        x = (rng.random(50) < 0.5).astype(float)
        model = samplers.fit_parametric_logistic(x, z)
        draw = samplers.draw_for_strategy("parametric-logistic", model, 1, [1])
        assert draw.shape == (1, 50, 1)
        assert set(np.unique(draw)) <= {0.0, 1.0}

    def test_all_zero_exposure_is_separation(self):
        z = np.random.default_rng(6).normal(size=(40, 1))
        with pytest.raises(ValueError, match="residual sampler"):
            samplers.fit_parametric_logistic(np.zeros(40), z)

    def test_perfectly_separated_exposure(self):
        rng = np.random.default_rng(7)
        z = np.sort(rng.normal(size=(60, 1)), axis=0)
        x = (z[:, 0] > 0).astype(float)
        with pytest.raises(ValueError, match="separation"):
            samplers.fit_parametric_logistic(x, z)


class TestBinnedResidual:
    def test_two_bins_permute_within_bin(self):
        rng = np.random.default_rng(8)
        n = 60
        z = np.column_stack([rng.uniform(18, 35, size=n)])
        x = 0.2 * z + rng.normal(size=(n, 1))
        model = samplers.fit_binned_residual(x, z, bin_column=0, bin_edges=[26.0])
        assert set(np.unique(model.bins)) == {0, 1}
        (draw,) = samplers.draw_for_strategy("binned-perm", model, 3, [1])
        resid = draw - model.fitted_mean
        for b in (0, 1):
            idx = model.bins == b
            got = np.sort(resid[idx, 0])
            want = np.sort(model.residuals[idx, 0])
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_edge_value_goes_to_lower_bin(self):
        z = np.array([[20.0], [26.0], [30.0]])
        labels = samplers.bin_labels(z[:, 0], [26.0])
        np.testing.assert_array_equal(labels, [0, 0, 1])

    def test_underfilled_bin_rejected(self):
        rng = np.random.default_rng(9)
        n = 30
        z = np.column_stack([np.concatenate([rng.uniform(0, 1, n - 2), [5.0, 5.1]])])
        x = rng.normal(size=(n, 1))
        with pytest.raises(ValueError, match="bin 1"):
            samplers.fit_binned_residual(x, z, bin_column=0, bin_edges=[4.0])

    def test_per_bin_fits_are_local(self):
        # different slopes per bin must be picked up by the separate fits
        rng = np.random.default_rng(10)
        n = 200
        zc = np.concatenate([rng.uniform(0, 1, n // 2), rng.uniform(2, 3, n // 2)])
        z = zc[:, None]
        slope = np.where(zc < 1.5, 2.0, -3.0)
        x = (slope * zc + 0.01 * rng.normal(size=n))[:, None]
        model = samplers.fit_binned_residual(x, z, bin_column=0, bin_edges=[1.5])
        assert np.abs(model.residuals).max() < 0.1


def _fitted(strategy, p, seed=0, n=60):
    # a fitted model of the strategy on n rows, p exposure columns
    x, z = _toy(n=n, seed=seed, p=p)
    if strategy == "parametric-logistic":
        x = (x[:, 0] > z[:, 0]).astype(float)
    return samplers.fit_for_strategy(strategy, x, z, bin_column=0, bin_edges=[0.0])


# every table row, with p = 1 and p = 2 where the strategy takes it
_DRAW_CASES = [
    (strategy, p)
    for strategy, sampler in samplers._SAMPLERS.items()
    for p in ((1,) if sampler.exposure == "binary" else (1, 2))
]


class TestStackedDrawsMatchTheOracleBitForBit:
    """A stack of draws is the per-draw draws of tests/reference.py,
    each on its own substream, bit for bit, however the draw indices are
    split into chunks."""

    B = 40

    @pytest.mark.parametrize("strategy,p", _DRAW_CASES)
    def test_stack_is_the_per_draw_oracle(self, strategy, p):
        model = _fitted(strategy, p)
        got = samplers.draw_for_strategy(strategy, model, 11, range(1, self.B + 1))
        assert got.shape == (self.B, 60, p)
        assert np.array_equal(got, reference.draw_stack(strategy, model, 11, range(1, self.B + 1)))

    @pytest.mark.parametrize("strategy,p", _DRAW_CASES)
    def test_any_chunking_gives_the_same_stack(self, strategy, p):
        model = _fitted(strategy, p, seed=1)
        whole = samplers.draw_for_strategy(strategy, model, 5, range(1, self.B + 1))
        for chunk in (1, 3, 7, self.B - 1):
            parts = [
                samplers.draw_for_strategy(strategy, model, 5, range(lo, min(lo + chunk, self.B + 1)))
                for lo in range(1, self.B + 1, chunk)
            ]
            assert np.array_equal(np.concatenate(parts), whole)
        for cut in range(1, self.B + 2):
            head = samplers.draw_for_strategy(strategy, model, 5, range(1, cut))
            tail = samplers.draw_for_strategy(strategy, model, 5, range(cut, self.B + 1))
            assert np.array_equal(np.concatenate([head, tail]), whole)

    def test_empty_range_is_an_empty_stack(self):
        for strategy, p in _DRAW_CASES:
            got = samplers.draw_for_strategy(strategy, _fitted(strategy, p), 5, range(1, 1))
            assert got.shape == (0, 60, p)


class TestFitsMatchTheReferenceBitForBit:
    """The samplers' fits against the one-design reference fits of
    tests/reference.py: the same QR and the same IRLS kernel call, so
    the same bits, and the same errors and warnings."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("spline_df", [None, 4])
    def test_residual_linear(self, seed, spline_df):
        x, z = _toy(n=40, seed=seed, p=1 + seed % 2)
        model = samplers.fit_residual_linear(x, z, spline_df=spline_df)
        fit = reference.ols_many(glm.confounder_design(z, spline_df=spline_df), x)
        np.testing.assert_array_equal(model.fitted_mean, fit.fitted)
        np.testing.assert_array_equal(model.residuals, fit.residuals)

    @pytest.mark.parametrize("seed", range(4))
    def test_binned_residual(self, seed):
        x, z = _toy(n=60, seed=seed, p=1 + seed % 2)
        model = samplers.fit_binned_residual(x, z, bin_column=1, bin_edges=[-0.3, 0.4])
        assert len(model.bin_rows) == 3
        for b in range(3):
            idx = np.flatnonzero(model.bins == b)
            np.testing.assert_array_equal(model.bin_rows[b], idx)
            fit = reference.ols_many(np.column_stack([np.ones(idx.size), z[idx]]), x[idx])
            np.testing.assert_array_equal(model.fitted_mean[idx], fit.fitted)
            np.testing.assert_array_equal(model.residuals[idx], fit.residuals)

    @staticmethod
    def _binary(seed, n=80):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, 2))
        x = (rng.random(n) < 1.0 / (1.0 + np.exp(-(0.8 * z[:, 0] - 0.5 * z[:, 1])))).astype(float)
        return x, z

    @staticmethod
    def _reference_prob(x, z, max_iter=500):
        design = np.column_stack([np.ones(x.size), z])
        fit = reference.irls(design, x, "binomial", max_iter=max_iter)
        return fit, np.clip(1.0 / (1.0 + np.exp(-(design @ fit.coef))), 1e-8, 1.0 - 1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_parametric_logistic(self, seed):
        x, z = self._binary(seed)
        fit, prob = self._reference_prob(x, z)
        assert fit.converged
        np.testing.assert_array_equal(samplers.fit_parametric_logistic(x, z).success_prob, prob)

    def test_parametric_logistic_singular_design(self):
        x, z = self._binary(5)
        with pytest.raises(ValueError, match="^singular design$"):
            samplers.fit_parametric_logistic(x, np.column_stack([z, 2.0 * z[:, 0]]))

    def test_parametric_logistic_separation(self):
        x, z = self._binary(6)
        with pytest.raises(ValueError, match="^complete separation: x is determined by z"):
            samplers.fit_parametric_logistic(x, np.column_stack([z, x - 0.5]))

    def test_parametric_logistic_iteration_limit_warns_and_keeps_the_last_iterate(
        self, monkeypatch
    ):
        # the kernel held to one iteration: the fit stops unconverged
        real = _accel.glm_fit_many
        monkeypatch.setattr(
            _accel, "glm_fit_many", lambda d, y, fam, size, it, tol: real(d, y, fam, size, 1, tol)
        )
        x, z = self._binary(7)
        fit, prob = self._reference_prob(x, z, max_iter=1)
        assert fit.reason == "max_iter"
        with pytest.warns(UserWarning, match="did not converge; using last iterate"):
            model = samplers.fit_parametric_logistic(x, z)
        np.testing.assert_array_equal(model.success_prob, prob)

    def test_residual_linear_singular_design(self):
        x, z = _toy(seed=8)
        for zs, message in [
            (np.column_stack([z, 3.0 * z[:, 1]]), "^singular design$"),
            (z[:3], "^singular design: no residual degrees of freedom$"),
        ]:
            with pytest.raises(ValueError, match=message):
                samplers.fit_residual_linear(x[: zs.shape[0]], zs)
