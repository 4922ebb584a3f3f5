"""Simulation-layer checks.

Structural claims (determinism, scoring arithmetic, paired dominance
between methods, exact global-null construction) are tested exactly.
Distributional claims about the generators use wide Monte Carlo bands
so the suite stays stable across platforms.
"""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from fdr2d import _accel, _rng, core, engine, sim


class TestGenSignals:
    def test_zero_density_is_point_mass(self):
        rng = np.random.default_rng(0)
        alpha, beta, truth = sim.gen_signals(50, 0.0, 0.3, rng)
        np.testing.assert_array_equal(alpha, 0.0)
        np.testing.assert_array_equal(beta, 0.0)
        assert truth.is_null.all()

    def test_full_density_support(self):
        rng = np.random.default_rng(1)
        alpha, beta, truth = sim.gen_signals(500, 1.0, 0.3, rng)
        assert np.all((np.abs(alpha) >= 0.3) & (np.abs(alpha) <= 0.5))
        assert np.all((np.abs(beta) >= 0.3) & (np.abs(beta) <= 0.5))
        assert not truth.is_null.any()

    def test_nonzero_fraction_tracks_density(self):
        rng = np.random.default_rng(2)
        m = 10_000
        alpha, _, truth = sim.gen_signals(m, 0.1, 0.3, rng)
        frac = np.mean(alpha != 0.0)
        assert abs(frac - 0.1) < 4 * np.sqrt(0.1 * 0.9 / m)
        np.testing.assert_array_equal(truth.is_null, alpha == 0.0)

    def test_signs_balanced(self):
        rng = np.random.default_rng(3)
        alpha, _, _ = sim.gen_signals(10_000, 0.5, 0.2, rng)
        pos = np.count_nonzero(alpha > 0)
        neg = np.count_nonzero(alpha < 0)
        assert abs(pos - neg) < 4 * np.sqrt(pos + neg)

    def test_separate_densities(self):
        rng = np.random.default_rng(4)
        alpha, beta, truth = sim.gen_signals(
            4000, 0.3, 0.2, rng, pi_alpha=0.0, pi_beta=0.5
        )
        np.testing.assert_array_equal(alpha, 0.0)
        assert truth.is_null.all()
        frac_b = np.mean(beta != 0.0)
        assert abs(frac_b - 0.5) < 4 * np.sqrt(0.25 / 4000)


def _config(**kw):
    defaults = dict(
        dgp=1,
        n=80,
        m=30,
        rho=1.0,
        pi=0.2,
        l=0.4,
        reps=2,
        seed=123,
        sampler=engine.ResamplePlan("residual-perm", b_count=20, seed=0),
        procedure=engine.ProcedureConfig(q=0.1, grid="quantile:40"),
    )
    defaults.update(kw)
    return sim.SimConfig(**defaults)


class TestGenDataset:
    def test_unknown_dgp_rejected(self):
        with pytest.raises(ValueError, match="dgp"):
            sim.SimConfig(dgp=12, n=50, m=10)

    def test_uncorrelated_when_rho_zero(self):
        ds, _ = sim.gen_dataset(_config(rho=0.0, n=2000), np.random.default_rng(5))
        r = np.corrcoef(ds.x[:, 0], ds.z[:, 0])[0, 1]
        assert abs(r) < 4 / np.sqrt(2000)

    def test_continuous_x_has_unit_sample_sd(self):
        for dgp in (1, 2, 3, 4, 9, 10, 11):
            ds, _ = sim.gen_dataset(_config(dgp=dgp, n=60), np.random.default_rng(dgp))
            np.testing.assert_allclose(np.std(ds.x[:, 0], ddof=1), 1.0, rtol=1e-12)

    def test_binary_x_dgps(self):
        for dgp in (5, 6, 7, 8):
            ds, _ = sim.gen_dataset(_config(dgp=dgp), np.random.default_rng(dgp))
            assert ds.x_kind == "binary"
            assert set(np.unique(ds.x)) <= {0.0, 1.0}

    def test_all_binary_dgp8(self):
        ds, _ = sim.gen_dataset(_config(dgp=8, n=500), np.random.default_rng(8))
        assert set(np.unique(ds.z)) <= {0.0, 1.0}
        assert ds.z_kinds == ("binary",)
        # Z ~ Bernoulli(0.7)
        assert abs(ds.z.mean() - 0.7) < 4 * np.sqrt(0.21 / 500)

    def test_outcome_kinds(self):
        kinds = {1: "continuous", 9: "binary", 10: "count", 11: "count"}
        for dgp, kind in kinds.items():
            ds, _ = sim.gen_dataset(_config(dgp=dgp), np.random.default_rng(20 + dgp))
            assert ds.y_kind == kind
            if kind == "binary":
                assert set(np.unique(ds.y)) <= {0.0, 1.0}
            if kind == "count":
                assert np.all(ds.y >= 0)
                np.testing.assert_array_equal(ds.y, np.round(ds.y))

    def test_linear_dgp_recovers_coefficients(self):
        # DGP 1 with huge effects: OLS on [1, x, z] must recover
        # coefficient magnitudes in the mixture band and unit noise.
        cfg = _config(n=600, m=40, pi=1.0, l=8.0, rho=1.0)
        ds, truth = sim.gen_dataset(cfg, np.random.default_rng(30))
        assert not truth.is_null.any()
        design = np.column_stack([np.ones(600), ds.x[:, 0], ds.z[:, 0]])
        coef, res, *_ = np.linalg.lstsq(design, ds.y, rcond=None)
        assert np.all(np.abs(coef[1]) > 7.0)
        assert np.all(np.abs(coef[1]) < 9.0)
        sigma = np.sqrt(res / (600 - 3))
        assert abs(np.mean(sigma) - 1.0) < 0.05

    def test_zero_density_leaves_pure_noise(self):
        cfg = _config(dgp=6, n=2000, m=25, pi=0.0)
        ds, truth = sim.gen_dataset(cfg, np.random.default_rng(31))
        assert truth.is_null.all()
        assert abs(ds.y.mean()) < 0.05
        assert abs(ds.y.var(ddof=1) - 1.0) < 0.05

    def test_global_null_is_exact_confounder_multiple(self):
        cfg = _config(global_null=True, n=120, m=15, pi=0.5)
        ds, truth = sim.gen_dataset(cfg, np.random.default_rng(32))
        assert truth.is_null.all()
        z = ds.z[:, 0]
        proj = np.outer(z, z @ ds.y) / (z @ z)
        np.testing.assert_allclose(ds.y, proj, atol=1e-10)

    def test_ar1_errors_stationary(self):
        # pi = 0 makes Y the raw error process; check the marginal
        # variance 1/(1 - 0.49) and the lag-one correlation 0.7.
        cfg = _config(n=3000, m=80, pi=0.0, ar1_errors=0.7)
        ds, _ = sim.gen_dataset(cfg, np.random.default_rng(33))
        var = ds.y.var(axis=0, ddof=1)
        np.testing.assert_allclose(np.mean(var), 1.0 / 0.51, rtol=0.05)
        r = [
            np.corrcoef(ds.y[:, j], ds.y[:, j + 1])[0, 1]
            for j in range(79)
        ]
        np.testing.assert_allclose(np.mean(r), 0.7, atol=0.03)

    @pytest.mark.parametrize(
        "ar1,digest",
        [
            (None, "4dd25af4bb280ca9bd9afcdddae27c36f7c863fcbe9711a2d9f979ff4fc4a028"),
            (0.5, "297b08a371ec40ac6c5a258de3ee07631195011153f894200fd484ef903adbcc"),
        ],
    )
    def test_outcome_bits_are_pinned(self, ar1, digest):
        # sha256 of the bytes of x, y and z: the buffer the noise is drawn
        # into, and the AR(1) series built there in place, change no bit
        cfg = sim.SimConfig(dgp=1, n=40, m=12, pi=0.5, l=0.5, reps=1, ar1_errors=ar1)
        ds, _ = sim.gen_dataset(cfg, np.random.default_rng(20_221_019))
        got = hashlib.sha256(b"".join(a.tobytes() for a in (ds.x, ds.y, ds.z))).hexdigest()
        assert got == digest

    def test_ar1_coefficient_must_be_stable(self):
        with pytest.raises(ValueError, match="ar1"):
            sim.SimConfig(dgp=1, ar1_errors=1.0)


class TestScoring:
    def test_hand_example(self):
        truth = core.TruthMask(np.array([True, True, False, False, False]))
        fdp, power = sim.score_rejections(np.array([0, 1, 2]), truth)
        assert fdp == 2 / 3
        assert power == 1 / 3

    def test_no_rejections(self):
        truth = core.TruthMask(np.array([True, False]))
        fdp, power = sim.score_rejections(np.zeros(0, dtype=np.int64), truth)
        assert fdp == 0.0 and power == 0.0

    def test_global_null_power_zero(self):
        truth = core.TruthMask(np.ones(4, dtype=bool))
        fdp, power = sim.score_rejections(np.array([1]), truth)
        assert fdp == 1.0 and power == 0.0

    def test_perfect_rejection(self):
        truth = core.TruthMask(np.array([False, True, False]))
        fdp, power = sim.score_rejections(np.array([0, 2]), truth)
        assert fdp == 0.0 and power == 1.0


class TestReplication:
    def test_deterministic(self):
        cfg = _config()
        a = sim.run_replication(cfg, 991)
        b = sim.run_replication(cfg, 991)
        assert a == b

    def test_distinct_seeds_differ(self):
        cfg = _config()
        outs = {sim.run_replication(cfg, s) for s in range(6)}
        assert len(outs) > 1

    def test_experiment_matches_single_replications(self):
        cfg = _config(reps=3)
        summary = sim.run_method_comparison(cfg, ["mf2d-fdr"])["mf2d-fdr"]
        assert summary.reps_completed == 3
        for r in range(3):
            fdp, power, nrej = sim.run_replication(cfg, sim.replication_seed(cfg.seed, r))
            assert summary.per_rep[r] == (fdp, power, nrej)
        np.testing.assert_allclose(summary.fdr, np.mean(summary.per_rep_fdp))
        np.testing.assert_allclose(summary.power, np.mean(summary.per_rep_power))

    def test_experiment_repeatable(self):
        cfg = _config(reps=2)
        s1 = sim.run_method_comparison(cfg, ["mf2d-fdr"])["mf2d-fdr"]
        s2 = sim.run_method_comparison(cfg, ["mf2d-fdr"])["mf2d-fdr"]
        np.testing.assert_array_equal(s1.per_rep_fdp, s2.per_rep_fdp)
        np.testing.assert_array_equal(s1.per_rep_power, s2.per_rep_power)
        assert s1.fdr == s2.fdr and s1.power == s2.power

    def test_single_rep_standard_error_zero(self):
        cfg = _config(reps=1)
        summary = sim.run_method_comparison(cfg, ["mf2d-fdr"])["mf2d-fdr"]
        assert summary.fdr_se == 0.0 and summary.power_se == 0.0

    def test_method_comparison_shares_data(self):
        cfg = _config(reps=2)
        table = sim.run_method_comparison(cfg, ("mf2d-fdr", "mf1d"))
        assert set(table) == {"mf2d-fdr", "mf1d"}
        # mf1d is mf2d restricted to t1 = 0 on the same tensor, so the
        # 2d search can never reject fewer features.
        for r in range(2):
            assert (
                table["mf2d-fdr"].per_rep_rejections[r]
                >= table["mf1d"].per_rep_rejections[r]
            )

    def test_comparison_column_matches_run_experiment(self):
        # the mf2d-fdr column of a three-method run is the one-method run
        cfg = _config(reps=2)
        table = sim.run_method_comparison(cfg, ("mf2d-fdr", "mf1d", "exchangeable-path"))
        direct = sim.run_method_comparison(cfg, ["mf2d-fdr"])["mf2d-fdr"]
        np.testing.assert_array_equal(
            table["mf2d-fdr"].per_rep_fdp, direct.per_rep_fdp
        )
        np.testing.assert_array_equal(
            table["mf2d-fdr"].per_rep_rejections, direct.per_rep_rejections
        )

    def test_global_null_rarely_rejects(self):
        cfg = _config(
            global_null=True,
            reps=8,
            n=60,
            m=20,
            procedure=engine.ProcedureConfig(q=0.05, grid="quantile:40"),
            sampler=engine.ResamplePlan("residual-perm", b_count=25, seed=0),
        )
        summary = sim.run_method_comparison(cfg, ["mf2d-fdr"])["mf2d-fdr"]
        quiet = np.count_nonzero(summary.per_rep_rejections == 0)
        assert quiet >= 7

    def test_bh_method_runs(self):
        cfg = _config(procedure=engine.ProcedureConfig(q=0.1), reps=1, pi=0.5)
        summary = sim.run_method_comparison(cfg, ["bh"])["bh"]
        assert summary.reps_completed == 1
        assert 0.0 <= summary.fdr <= 1.0


class TestBhFromTensor:
    """bh beside a tensor method reads the tensor's observed conditional
    row, which holds the glm fit a refit without a tensor makes again."""

    @staticmethod
    def _config():
        return sim.SimConfig(
            dgp=9, n=100, m=60, pi=0.2, l=1.0, reps=1, seed=3,
            procedure=engine.ProcedureConfig(q=0.2),
            sampler=engine.ResamplePlan("residual-perm", b_count=19, seed=0),
        )

    def test_bh_beside_a_tensor_method_fits_nothing_more(self, monkeypatch):
        calls = []
        real = _accel.glm_fit_many
        monkeypatch.setattr(_accel, "glm_fit_many", lambda *a: calls.append(1) or real(*a))
        sim.run_method_comparison(self._config(), ["mf2d-fdr"])
        alone = len(calls)
        calls.clear()
        sim.run_method_comparison(self._config(), ["mf2d-fdr", "bh"])
        assert alone > 0 and len(calls) == alone

    def test_pvalues_are_the_refit_bit_for_bit(self):
        config = self._config()
        rep_seed = sim.replication_seed(config.seed, 0)
        dataset, _ = sim.gen_dataset(config, _rng.substream(rep_seed, "data"))
        plan = dataclasses.replace(config.sampler, seed=_rng.substream_seed(rep_seed, "sampler"))
        tensor = engine.build_tensor(dataset, plan, config.statistic)
        got, rejected = engine.bh_rejections(dataset, config.statistic, 0.2, tensor)
        want = engine.bh_rejections(dataset, config.statistic, 0.2)[0]
        valid = ~tensor.zero_variance
        assert valid.all() and got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(rejected, engine.bh_procedure(want, 0.2))
        # a zero-variance feature scores 0 in the tensor, unfitted: p = 1
        # exactly; the refit sets it aside too, with no warning, so the
        # other features' fits and p-values stay the same bits
        dataset.y[:, 7] = 0.0
        tensor = engine.build_tensor(dataset, plan, config.statistic)
        got, rejected = engine.bh_rejections(dataset, config.statistic, 0.2, tensor)
        assert got[7] == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            refit_p, refit = engine.bh_rejections(dataset, config.statistic, 0.2)
        assert refit_p.tobytes() == got.tobytes()
        np.testing.assert_array_equal(rejected, refit)


class TestDefaults:
    def test_statistic_defaults(self):
        assert sim.default_statistic_for_dgp(1).token == "glm:gaussian"
        assert sim.default_statistic_for_dgp(3).token == "rv"
        assert sim.default_statistic_for_dgp(9).token == "glm:binomial"
        assert sim.default_statistic_for_dgp(10).token == "glm:poisson"
        spec = sim.default_statistic_for_dgp(11)
        assert spec.token == "glm:negbinom" and spec.size == 3.0

    def test_sampler_defaults(self):
        assert sim.default_sampler_for_dgp(1) == ("residual-perm", None)
        assert sim.default_sampler_for_dgp(2) == ("residual-perm", 5)
        assert sim.default_sampler_for_dgp(6) == ("parametric-logistic", None)
        assert sim.default_sampler_for_dgp(10) == ("residual-perm", None)

    def test_config_fills_defaults(self):
        cfg = sim.SimConfig(dgp=5, n=50, m=10)
        assert cfg.statistic.token == "glm:gaussian"
        assert cfg.sampler.strategy == "parametric-logistic"
        assert cfg.sampler.b_count == 100


class TestNullRankUniformity:
    def test_observed_conditional_rank_uniform_for_nulls(self):
        # Exchangeability check: for null features the observed row of
        # the tensor should look like one more draw from the sampler.
        ranks = []
        for rep in range(5):
            cfg = _config(n=100, m=20, pi=0.1, l=0.3, rho=1.0, seed=rep)
            rng = _rng.substream(777, rep)
            ds, truth = sim.gen_dataset(cfg, rng)
            plan = engine.ResamplePlan(
                "residual-perm", b_count=50, seed=_rng.substream_seed(777, "s", rep)
            )
            tensor = engine.build_tensor(
                ds, plan, engine.StatisticSpec(kind="glm", family="gaussian")
            )
            tc = tensor.pairs[:, :, 1]
            for j in np.flatnonzero(truth.is_null):
                below = np.count_nonzero(tc[1:, j] < tc[0, j])
                ties = np.count_nonzero(tc[1:, j] == tc[0, j])
                ranks.append((0.5 + below + 0.5 * ties) / 51)
        ranks = np.sort(np.asarray(ranks))
        grid = (np.arange(ranks.size) + 1) / ranks.size
        ks = np.max(np.abs(ranks - grid))
        assert ks < 0.15
