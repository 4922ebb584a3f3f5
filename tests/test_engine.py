"""Cutoff search and estimators against exhaustive brute force.

The brute-force reference walks every grid point with explicit loops
and applies the selection rule (most rejections, then smallest
criterion, then smallest t1, then smallest t2) one comparison at a
time. Its criterion uses the same arithmetic as the search
(count / (B+1), then the pi0 multiple, then the denominator) so exact
float equality is required, not just closeness.
"""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import fdr2d
import reference
from fdr2d import _accel, core, engine, samplers, sim


def _random_tensor(rng, m=None, b=None, style="ties"):
    m = m if m is not None else int(rng.integers(3, 31))
    bb = b if b is not None else int(rng.integers(1, 11))
    if style == "ties":
        vals = rng.integers(0, 8, size=(bb + 1, m, 2)).astype(float) / 2.0
    else:
        vals = rng.gamma(2.0, size=(bb + 1, m, 2))
    zv = np.zeros(m, dtype=bool)
    if rng.random() < 0.3 and m > 3:
        idx = rng.choice(m, size=int(rng.integers(1, m // 3 + 1)), replace=False)
        zv[idx] = True
        vals[:, idx, :] = 0.0
    return core.StatTensor(
        pairs=vals, zero_variance=zv, n=50, seed=1, statistic="glm:gaussian",
        sampler="residual-perm",
    )


def _brute_search(tensor, t1v, t2v, q, pi0, mode):
    pairs = tensor.pairs
    b1, m, _ = pairs.shape
    best = None
    for a in range(len(t1v)):
        for c in range(len(t2v)):
            t1 = t1v[a]
            t2 = t2v[c]
            cnt = 0
            for bb in range(b1):
                for j in range(m):
                    if pairs[bb, j, 0] >= t1 and pairs[bb, j, 1] >= t2:
                        cnt += 1
            r = 0
            for j in range(m):
                if tensor.zero_variance[j]:
                    continue
                if pairs[0, j, 0] >= t1 and pairs[0, j, 1] >= t2:
                    r += 1
            sumf = cnt / b1
            crit = pi0 * sumf / max(1, r) if mode == "fdr" else pi0 * sumf
            if crit > q:
                continue
            if best is None:
                best = (r, crit, a, c)
                continue
            br, bc, _, _ = best
            if r > br or (r == br and crit < bc):
                best = (r, crit, a, c)
    if best is None:
        return None
    r, crit, a, c = best
    rej = [
        j
        for j in range(m)
        if not tensor.zero_variance[j]
        and pairs[0, j, 0] >= t1v[a]
        and pairs[0, j, 1] >= t2v[c]
    ]
    return t1v[a], t2v[c], np.array(rej, dtype=np.int64), crit


class TestSearchOracle:
    def test_fdr_matches_brute_force(self):
        rng = np.random.default_rng(101)
        for trial in range(40):
            tensor = _random_tensor(rng, style="ties" if trial % 3 else "smooth")
            grid = engine.make_grid(
                tensor, "observed" if trial % 2 else f"quantile:{int(rng.integers(5, 25))}"
            )
            q = float(rng.choice([0.05, 0.1, 0.2, 0.3]))
            pi0 = float(rng.choice([1.0, 0.7]))
            got = reference.search(tensor, grid, q, pi0, "fdr")
            want = _brute_search(tensor, grid.t1_values, grid.t2_values, q, pi0, "fdr")
            if want is None:
                assert np.isinf(got.t1) and np.isinf(got.t2)
                assert got.n_rejected == 0
            else:
                assert got.t1 == want[0] and got.t2 == want[1]
                np.testing.assert_array_equal(got.rejected, want[2])
                assert got.fdp_estimate == want[3]

    def test_fwer_matches_brute_force(self):
        rng = np.random.default_rng(102)
        for trial in range(25):
            tensor = _random_tensor(rng)
            grid = engine.make_grid(tensor, "observed")
            q = float(rng.choice([0.05, 0.2, 0.5]))
            got = reference.search(tensor, grid, q, 1.0, "fwer")
            want = _brute_search(tensor, grid.t1_values, grid.t2_values, q, 1.0, "fwer")
            if want is None:
                assert np.isinf(got.t1) and got.n_rejected == 0
            else:
                assert got.t1 == want[0] and got.t2 == want[1]
                np.testing.assert_array_equal(got.rejected, want[2])

    def test_one_dim_matches_brute_force(self):
        rng = np.random.default_rng(103)
        for _ in range(15):
            tensor = _random_tensor(rng)
            config = engine.ProcedureConfig(q=0.2, grid="observed")
            got = engine.apply_methods(tensor, config, ["mf1d"])["mf1d"]
            grid = engine.make_grid(tensor, "observed")
            want = _brute_search(
                tensor, np.zeros(1), grid.t2_values, 0.2, 1.0, "fdr"
            )
            if want is None:
                assert got.n_rejected == 0
            else:
                assert got.t1 == 0.0 and got.t2 == want[1]
                np.testing.assert_array_equal(got.rejected, want[2])

    def test_mf1d_never_beats_mf2d(self):
        rng = np.random.default_rng(104)
        for _ in range(25):
            tensor = _random_tensor(rng)
            config = engine.ProcedureConfig(q=0.1, grid="observed")
            assert (
                engine.apply_methods(tensor, config, ["mf2d-fdr"])["mf2d-fdr"].n_rejected
                >= engine.apply_methods(tensor, config, ["mf1d"])["mf1d"].n_rejected
            )

    def test_fwer_never_beats_fdr(self):
        rng = np.random.default_rng(105)
        for _ in range(50):
            tensor = _random_tensor(rng)
            config = engine.ProcedureConfig(q=0.1, grid="observed")
            assert (
                engine.apply_methods(tensor, config, ["mf2d-fwer"])["mf2d-fwer"].n_rejected
                <= engine.apply_methods(tensor, config, ["mf2d-fdr"])["mf2d-fdr"].n_rejected
            )

    def test_vacuous_level_rejects_everything(self):
        rng = np.random.default_rng(106)
        pairs = rng.gamma(2.0, size=(5, 12, 2))  # strictly positive, no flags
        tensor = core.StatTensor(pairs=pairs, zero_variance=np.zeros(12, bool))
        config = engine.ProcedureConfig(q=1.0, grid="quantile:10")
        res = engine.apply_methods(tensor, config, ["mf2d-fdr"])["mf2d-fdr"]
        assert res.n_rejected == 12

    def test_infeasible_gives_sentinel(self):
        pairs = np.ones((3, 5, 2))
        tensor = core.StatTensor(pairs=pairs, zero_variance=np.zeros(5, bool))
        config = engine.ProcedureConfig(q=1e-9, grid="observed")
        res = engine.apply_methods(tensor, config, ["mf2d-fdr"])["mf2d-fdr"]
        assert np.isinf(res.t1) and np.isinf(res.t2)
        assert res.n_rejected == 0 and res.fdp_estimate == 0.0

    def test_fwer_q_zero_like(self):
        rng = np.random.default_rng(107)
        tensor = _random_tensor(rng, m=10, b=3)
        config = engine.ProcedureConfig(q=1e-12, grid="observed")
        assert engine.apply_methods(tensor, config, ["mf2d-fwer"])["mf2d-fwer"].n_rejected == 0


class TestEstimators:
    def test_fbar_hand_example(self):
        pairs = np.array([[[3.0, 3.0]], [[1.0, 1.0]]])
        tensor = core.StatTensor(pairs=pairs, zero_variance=np.zeros(1, bool))
        assert engine.fbar(tensor, 0, 2.5, 2.5) == 0.5
        assert engine.fbar(tensor, 0, 0.0, 0.0) == 1.0
        assert engine.fbar(tensor, 0, 100.0, 0.0) == 0.0

    def test_fbar_vector_equals_scalar_calls(self):
        rng = np.random.default_rng(112)
        tensor = _random_tensor(rng, m=15, b=6)
        idx = np.arange(tensor.m)
        for t1, t2 in [(0.0, 0.0), (1.0, 1.5), (2.5, 0.5), (np.inf, np.inf)]:
            vec = engine.fbar(tensor, idx, t1, t2)
            assert vec.shape == (tensor.m,)
            for j in idx:
                one = engine.fbar(tensor, int(j), t1, t2)
                assert isinstance(one, float) and vec[j] == one

    def test_fdp_tilde_hand_example(self):
        pairs = np.array(
            [[[3.0, 3.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]]
        )
        tensor = core.StatTensor(pairs=pairs, zero_variance=np.zeros(2, bool))
        np.testing.assert_allclose(engine.fdp_tilde(tensor, 2.5, 2.5), 0.5)
        np.testing.assert_allclose(engine.fdp_tilde(tensor, 0.0, 0.0), 1.0)
        assert engine.fdp_tilde(tensor, 100.0, 100.0) == 0.0

    def test_storey_hand_example(self):
        tm = np.ones((2, 3))
        tc = np.array([[0.1, 0.2, 5.0], [0.5, 0.3, 0.4]])
        pairs = np.stack([tm, tc], axis=-1)
        tensor = core.StatTensor(pairs=pairs, zero_variance=np.zeros(3, bool))
        np.testing.assert_allclose(engine.storey_pi0(tensor, 1.0), 0.8)

    def test_storey_lambda_above_everything(self):
        rng = np.random.default_rng(110)
        tensor = _random_tensor(rng, m=10, b=5)
        assert engine.storey_pi0(tensor, 1e9) == 1.0

    def test_storey_empty_numerator_warns_one(self):
        pairs = np.ones((3, 4, 2))
        tensor = core.StatTensor(pairs=pairs, zero_variance=np.zeros(4, bool))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            out = engine.storey_pi0(tensor, 0.0)
        assert out == 1.0
        assert len(rec) == 1

    def test_one_point_queries_read_the_planes(self, monkeypatch):
        # fdp_tilde and storey_pi0 count at one point without sorting a
        # pooled axis; the expected values are those of the sorted-axis
        # counts they replaced, zero-variance features and ties included
        rng = np.random.default_rng(154)
        vals = rng.integers(0, 8, size=(8, 12, 2)).astype(float) / 2.0
        vals[:, [2, 9], :] = 0.0
        zv = np.zeros(12, bool)
        zv[[2, 9]] = True
        tensor = core.StatTensor(pairs=vals, zero_variance=zv)

        def no_sort(*args):
            raise AssertionError("a one-point query sorted a pooled axis")

        monkeypatch.setattr(engine, "_axis_bins", no_sort)
        points = [(0.0, 0.0), (1.0, 1.5), (2.5, 0.5), (3.5, 3.5), (1.2, 2.7), (np.inf, 0.0)]
        assert [engine.fdp_tilde(tensor, t1, t2) for t1, t2 in points] == [
            1.2, 1.4583333333333333, 3.125, 0.0, 1.5, 0.0
        ]
        assert [engine.fdp_tilde(tensor, t1, t2, 0.6) for t1, t2 in points] == [
            0.72, 0.875, 1.875, 0.0, 0.8999999999999999, 0.0
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pi0 = [engine.storey_pi0(tensor, lam) for lam in (0.0, 0.5, 1.0, 1.7, 3.0, 10.0)]
        assert pi0 == [
            0.96, 0.9142857142857143, 0.7804878048780488, 0.7547169811320755,
            0.7441860465116279, 1.0,
        ]

    def test_pi0_in_unit_interval(self):
        rng = np.random.default_rng(111)
        for _ in range(20):
            tensor = _random_tensor(rng, style="smooth")
            lam = float(rng.uniform(0.1, 3.0))
            pi0 = engine.storey_pi0(tensor, lam)
            assert 0.0 < pi0 <= 1.0


class TestGrids:
    def test_quantile_grid_shape_and_zero(self):
        rng = np.random.default_rng(120)
        tensor = _random_tensor(rng, style="smooth")
        grid = engine.make_grid(tensor, "quantile:12")
        for axis in (grid.t1_values, grid.t2_values):
            assert axis[0] == 0.0
            assert np.all(np.diff(axis) > 0)
            assert axis.size <= 13

    def test_observed_grid_has_every_value(self):
        rng = np.random.default_rng(121)
        tensor = _random_tensor(rng, m=6, b=2)
        grid = engine.make_grid(tensor, "observed")
        want1 = np.unique(np.concatenate([[0.0], tensor.pairs[:, :, 0].ravel()]))
        np.testing.assert_array_equal(grid.t1_values, want1)

    def test_grids_and_paths_equal_unsorted_quantiles(self):
        # sorted-axis selection must equal numpy's inverted_cdf quantiles
        rng = np.random.default_rng(123)
        for trial in range(30):
            tensor = _random_tensor(rng, style="ties" if trial % 2 else "smooth")
            g = int(rng.integers(1, 60))
            levels = np.arange(1, g + 1) / g
            grid = engine.make_grid(tensor, f"quantile:{g}")
            tm = tensor.pairs[:, :, 0].ravel()
            picks = np.quantile(tm, levels, method="inverted_cdf")
            want = np.unique(np.concatenate([[0.0], picks]))
            np.testing.assert_array_equal(grid.t1_values, want)
            path = engine.default_path(tensor, g)
            want = np.quantile(np.unique(tm), levels, method="inverted_cdf")
            np.testing.assert_array_equal(path.t1, want)

    def test_nan_grid_value_rejected(self):
        with pytest.raises(ValueError, match="nonnegative numbers, not NaN"):
            engine.Grid2D(np.array([0.0, np.nan]), np.array([0.0, 1.0]))

    def test_bad_spec_rejected(self):
        rng = np.random.default_rng(122)
        tensor = _random_tensor(rng)
        with pytest.raises(ValueError, match="grid"):
            engine.make_grid(tensor, "hexagonal")
        with pytest.raises(ValueError, match="grid"):
            engine.make_grid(tensor, "quantile:0")


class TestPaths:
    def test_default_path_monotone(self):
        rng = np.random.default_rng(130)
        for _ in range(10):
            tensor = _random_tensor(rng)
            path = engine.default_path(tensor, int(rng.integers(1, 40)))
            assert np.all(np.diff(path.t1) >= 0)
            assert np.all(np.diff(path.t2) >= 0)

    def test_single_step_is_max_pair(self):
        rng = np.random.default_rng(131)
        tensor = _random_tensor(rng)
        path = engine.default_path(tensor, 1)
        assert path.t1[0] == tensor.pairs[:, :, 0].max()
        assert path.t2[0] == tensor.pairs[:, :, 1].max()

    def test_full_length_visits_every_distinct_value(self):
        rng = np.random.default_rng(132)
        tensor = _random_tensor(rng, m=8, b=3)
        d1 = np.unique(tensor.pairs[:, :, 0])
        d2 = np.unique(tensor.pairs[:, :, 1])
        path = engine.default_path(tensor, int(max(d1.size, d2.size)))
        assert set(np.unique(path.t1)) == set(d1)
        assert set(np.unique(path.t2)) == set(d2)

    def test_nonmonotone_path_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            engine.MonotonePath(t1=np.array([1.0, 0.5]), t2=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="empty"):
            engine.MonotonePath(t1=np.zeros(0), t2=np.zeros(0))

    def test_nan_path_value_rejected(self):
        # exceed_bins would fail on it with a message about negative repeats
        with pytest.raises(ValueError, match="not NaN"):
            engine.MonotonePath(t1=np.array([0.0, np.nan, 1.0]), t2=np.zeros(3))


class TestSequentialProcedures:
    def test_loosest_point_alone_rejects_nothing(self):
        rng = np.random.default_rng(140)
        tensor = _random_tensor(rng, m=10, b=4)
        path = engine.MonotonePath(t1=np.zeros(1), t2=np.zeros(1))
        res = engine.ordered_grid_procedure(tensor, path, q=0.5)
        assert res.n_rejected == 0 and np.isinf(res.t1)

    def test_identical_points_idempotent(self):
        rng = np.random.default_rng(141)
        tensor = _random_tensor(rng, m=12, b=5)
        one = engine.MonotonePath(t1=np.array([1.0]), t2=np.array([1.5]))
        many = engine.MonotonePath(t1=np.ones(7), t2=np.full(7, 1.5))
        a = engine.ordered_grid_procedure(tensor, one, q=0.4)
        b = engine.ordered_grid_procedure(tensor, many, q=0.4)
        assert a.t1 == b.t1 and a.t2 == b.t2
        np.testing.assert_array_equal(a.rejected, b.rejected)

    def test_walk_stops_at_first_feasible(self):
        rng = np.random.default_rng(142)
        for _ in range(10):
            tensor = _random_tensor(rng)
            path = engine.default_path(tensor, 15)
            q = 0.3
            res = engine.ordered_grid_procedure(tensor, path, q)
            crits = [
                reference.fdp_tilde(tensor, t1, t2) for t1, t2 in zip(path.t1, path.t2)
            ]
            feas = [c <= q for c in crits]
            if not any(feas):
                assert res.n_rejected == 0 and np.isinf(res.t1)
            else:
                s = feas.index(True)
                assert res.t1 == path.t1[s] and res.t2 == path.t2[s]

    def test_ordered_grid_first_point_feasible(self):
        pairs = np.zeros((2, 4, 2))
        pairs[0] = [[5.0, 5.0], [4.0, 4.0], [3.0, 3.0], [0.1, 0.1]]
        pairs[1] = [[0.2, 0.2], [0.1, 0.3], [0.2, 0.1], [0.1, 0.2]]
        tensor = core.StatTensor(pairs=pairs, zero_variance=np.zeros(4, bool))
        path = engine.MonotonePath(t1=np.array([1.0, 2.0]), t2=np.array([1.0, 2.0]))
        res = engine.ordered_grid_procedure(tensor, path, q=0.5)
        assert res.t1 == 1.0 and res.t2 == 1.0
        assert res.n_rejected == 3

    def test_ordered_grid_agrees_with_search_feasibility(self):
        rng = np.random.default_rng(143)
        for _ in range(10):
            tensor = _random_tensor(rng)
            path = engine.default_path(tensor, 12)
            q = 0.25
            res = engine.ordered_grid_procedure(tensor, path, q)
            found = None
            for t1, t2 in zip(path.t1, path.t2):
                if reference.fdp_tilde(tensor, t1, t2) <= q:
                    found = (t1, t2)
                    break
            if found is None:
                assert res.n_rejected == 0
            else:
                assert (res.t1, res.t2) == found


class TestBH:
    def test_textbook_example(self):
        rej = engine.bh_procedure(np.array([0.01, 0.02, 0.5]), q=0.05)
        np.testing.assert_array_equal(rej, [0, 1])

    def test_all_ones_empty(self):
        assert engine.bh_procedure(np.ones(10), q=0.05).size == 0

    def test_boundary_inclusive(self):
        np.testing.assert_array_equal(engine.bh_procedure(np.array([0.05]), 0.05), [0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="p-values"):
            engine.bh_procedure(np.array([0.5, 1.2]), 0.05)

    def test_step_up_dominates_bonferroni(self):
        rng = np.random.default_rng(150)
        for _ in range(20):
            p = rng.random(30)
            q = 0.2
            bh = set(engine.bh_procedure(p, q).tolist())
            bonf = {int(i) for i in np.nonzero(p <= q / p.size)[0]}
            assert bonf <= bh


def _tensor_dataset(seed=0, n=60, m=8):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 2))
    x = 0.6 * z[:, :1] + rng.normal(size=(n, 1))
    beta = np.zeros(m)
    beta[: m // 2] = 0.8
    y = x * beta + 0.5 * z[:, :1] + rng.normal(size=(n, m))
    return core.Dataset(x=x, y=y, z=z)


class TestBuildTensor:
    def test_shapes_and_metadata(self):
        ds = _tensor_dataset()
        plan = engine.ResamplePlan(strategy="residual-perm", b_count=7, seed=11)
        spec = engine.StatisticSpec(kind="glm", family="gaussian")
        tensor = engine.build_tensor(ds, plan, spec)
        assert tensor.pairs.shape == (8, ds.m, 2)
        assert tensor.b == 7 and tensor.m == ds.m
        assert tensor.statistic == "glm:gaussian"
        assert tensor.sampler == "residual-perm"
        assert np.all(np.isfinite(tensor.pairs))

    def test_statistics_are_two_contiguous_planes(self):
        # build_tensor writes its rows into a (2, B+1, m) block, and a
        # tensor made from a C-order (B+1, m, 2) array is put in that
        # layout: each statistic's pooled values are one contiguous plane
        ds = _tensor_dataset(4)
        plan = engine.ResamplePlan(strategy="residual-perm", b_count=7, seed=11)
        built = engine.build_tensor(ds, plan, engine.StatisticSpec(kind="rv"))
        c_order = np.ascontiguousarray(built.pairs)
        assert c_order.flags.c_contiguous and not built.pairs.flags.c_contiguous
        made = core.StatTensor(pairs=c_order, zero_variance=built.zero_variance)
        for tensor in (built, made):
            assert tensor.planes.flags.c_contiguous
            for k in (0, 1):
                assert tensor.pairs[:, :, k].flags.c_contiguous
            np.testing.assert_array_equal(tensor.pairs, c_order)
        # a tensor of a tensor's pairs shares its planes
        again = core.StatTensor(pairs=built.pairs, zero_variance=built.zero_variance)
        assert again.planes.base is built.planes.base

    def test_deterministic_in_seed(self):
        ds = _tensor_dataset(3)
        spec = engine.StatisticSpec(kind="glm", family="gaussian")
        t1 = engine.build_tensor(
            ds, engine.ResamplePlan("residual-perm", 5, seed=42), spec
        )
        t2 = engine.build_tensor(
            ds, engine.ResamplePlan("residual-perm", 5, seed=42), spec
        )
        t3 = engine.build_tensor(
            ds, engine.ResamplePlan("residual-perm", 5, seed=43), spec
        )
        np.testing.assert_array_equal(t1.pairs, t2.pairs)
        assert not np.array_equal(t1.pairs, t3.pairs)

    def test_identity_draw_duplicates_observed_row(self, monkeypatch):
        # If the sampler returns x unchanged, every row must equal row 0.
        # (fitted_mean + residuals is x only to rounding, not bit for bit.)
        ds = _tensor_dataset(5)
        monkeypatch.setattr(
            engine.samplers,
            "draw_for_strategy",
            lambda strategy, model, seed, draws: np.stack([ds.x for _ in draws]),
        )
        plan = engine.ResamplePlan("residual-perm", 3, seed=1)
        tensor = engine.build_tensor(
            ds, plan, engine.StatisticSpec(kind="glm", family="gaussian")
        )
        for row in range(1, 4):
            np.testing.assert_array_equal(tensor.pairs[row], tensor.pairs[0])

    def test_zero_variance_rows_zeroed_and_flagged(self):
        ds = _tensor_dataset(7)
        ds.y[:, 2] = 4.25
        plan = engine.ResamplePlan("residual-perm", 4, seed=9)
        tensor = engine.build_tensor(
            ds, plan, engine.StatisticSpec(kind="glm", family="gaussian")
        )
        assert tensor.zero_variance[2]
        assert tensor.zero_variance.sum() == 1
        np.testing.assert_array_equal(tensor.pairs[:, 2, :], 0.0)

    @staticmethod
    def _binomial_dataset():
        # the analyze-binomial benchmark's data: dgp 9, n = 100, m = 30
        config = sim.SimConfig(dgp=9, n=100, m=30, pi=0.2, l=1.0, reps=1)
        return sim.gen_dataset(config, np.random.default_rng(0))[0]

    @staticmethod
    def _warnings_of(*args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tensor = engine.build_tensor(*args)
        return tensor, [str(w.message) for w in caught]

    def test_zero_variance_feature_is_not_scored(self):
        # an all-zero binomial feature and constant hsic features are set
        # aside before scoring: no failed fit, no degenerate kernel
        ds = self._binomial_dataset()
        ds.y[:, 4] = 0.0
        plan = engine.ResamplePlan("residual-perm", 19, seed=0)
        spec = engine.StatisticSpec(kind="glm", family="binomial")
        tensor, caught = self._warnings_of(ds, plan, spec)
        assert caught == [] and np.flatnonzero(tensor.zero_variance).tolist() == [4]
        np.testing.assert_array_equal(tensor.pairs[:, 4], 0.0)
        ds = _tensor_dataset(7)
        ds.y[:, [2, 5]] = 4.25
        tensor, caught = self._warnings_of(ds, plan, engine.StatisticSpec(kind="hsic"))
        assert caught == [] and np.flatnonzero(tensor.zero_variance).tolist() == [2, 5]
        assert np.all(tensor.pairs[:, [0, 1, 3, 4, 6, 7], 0] > 0.0)

    def test_hsic_degenerate_kernel_feature_is_set_aside(self):
        # a varying feature with a median pairwise distance of 0 (0 in 55
        # of 60 rows, 3x + 1 in the other 5) has no hsic kernel: it is
        # flagged with the zero-variance features, scores (0, 0) in every
        # row and never counts on the observed row, not even at (0, 0)
        ds = _tensor_dataset(3)
        ds.y[:, 6] = 0.0
        ds.y[:5, 6] = 3.0 * ds.x[:5, 0] + 1.0
        plan = engine.ResamplePlan("residual-perm", 19, seed=0)
        tensor, caught = self._warnings_of(ds, plan, engine.StatisticSpec(kind="hsic"))
        assert caught == [] and np.flatnonzero(tensor.zero_variance).tolist() == [6]
        np.testing.assert_array_equal(tensor.pairs[:, 6], 0.0)
        assert 6 not in engine._rejected(tensor, 0.0, 0.0)
        found = engine.search(tensor, engine.ProcedureConfig(), ["mf2d-fdr"])
        assert found.grid.t1_values[0] == found.grid.t2_values[0] == 0.0
        assert found.surface[1][0, 0] == ds.m - 1

    def test_separated_varying_feature_still_counts_as_failed(self):
        ds = self._binomial_dataset()
        ds.y[:, 4] = (ds.x[:, 0] > np.median(ds.x[:, 0])).astype(float)
        plan = engine.ResamplePlan("residual-perm", 19, seed=0)
        spec = engine.StatisticSpec(kind="glm", family="binomial")
        tensor, caught = self._warnings_of(ds, plan, spec)
        assert not tensor.zero_variance.any() and tensor.pairs[0, 4, 1] == 0.0
        assert len(caught) == 1 and "statistic evaluations failed" in caught[0]

    @pytest.mark.parametrize("token", ["glm:binomial", "rv", "hsic"])
    def test_all_constant_dataset_gives_the_all_zero_tensor(self, monkeypatch, token):
        # the evaluator and the sampler are still made, so the observed
        # design is still checked; no draw is made
        ds = self._binomial_dataset()
        ds.y[:] = 1.0
        plan = engine.ResamplePlan("residual-perm", 7, seed=0)
        draws = []
        real = engine.samplers.draw_for_strategy
        monkeypatch.setattr(engine.samplers, "draw_for_strategy", lambda *a: draws.append(1) or real(*a))
        tensor, caught = self._warnings_of(ds, plan, engine.StatisticSpec.from_token(token))
        assert draws == []
        assert caught == [] and tensor.zero_variance.all()
        np.testing.assert_array_equal(tensor.pairs, np.zeros((8, ds.m, 2)))

    def test_incompatible_sampler_rejected(self):
        ds = _tensor_dataset()
        plan = engine.ResamplePlan("parametric-logistic", 3, seed=0)
        with pytest.raises(ValueError, match="binary exposure"):
            engine.build_tensor(
                ds, plan, engine.StatisticSpec(kind="glm", family="gaussian")
            )

    def test_family_outcome_mismatch_rejected(self):
        ds = _tensor_dataset()
        plan = engine.ResamplePlan("residual-perm", 3, seed=0)
        with pytest.raises(ValueError, match="outcomes"):
            engine.build_tensor(
                ds, plan, engine.StatisticSpec(kind="glm", family="poisson")
            )

    def test_invalid_dataset_rejected(self):
        ds = _tensor_dataset()
        ds.y[0, 0] = np.nan
        plan = engine.ResamplePlan("residual-perm", 3, seed=0)
        with pytest.raises(ValueError, match="invalid dataset"):
            engine.build_tensor(
                ds, plan, engine.StatisticSpec(kind="glm", family="gaussian")
            )


class TestValidate:
    def test_binary_check_matches_the_column_loop(self):
        # offenders in several columns of x, y and the binary z columns,
        # beside non-finite cells (their own rule) and a continuous z
        # column (not checked): the same Violations in the same order,
        # column by column, then row
        rng = np.random.default_rng(5)
        n = 12
        x = (rng.random((n, 2)) < 0.5).astype(float)
        x[[3, 0], 1] = [0.5, -1.0]
        y = (rng.random((n, 6)) < 0.5).astype(float)
        y[[7, 2], 0] = [2.0, 1e-300]
        y[[4, 9, 11], 3] = [-0.0, 0.25, np.nan]
        y[[1, 10], 5] = [np.inf, 3.0]
        z = np.column_stack([(rng.random(n) < 0.5), rng.normal(size=n), (rng.random(n) < 0.5)])
        z = z.astype(float)
        z[[6, 2], 2] = [7.0, 0.9]
        ds = core.Dataset(
            x=x, y=y, z=z, x_kind="binary", y_kind="binary",
            z_kinds=("binary", "continuous", "binary"),
        )
        got = [v for v in core.validate(ds) if v.rule == "not-binary"]
        want = (
            reference.not_binary("x", x, range(2))
            + reference.not_binary("y", y, range(6))
            + reference.not_binary("z", z, [0, 2])
        )
        assert len(want) == 8
        assert got == want
        assert [str(v) for v in got] == [str(v) for v in want]

    @pytest.mark.parametrize(
        "changes, want",
        [
            ({"x": np.zeros((4, 1))}, [("x", "row-count-mismatch", -1, -1)]),
            ({"z": np.zeros((6, 2))}, [("z", "row-count-mismatch", -1, -1)]),
            ({"n": 2}, [("y", "too-few-rows", -1, -1)]),
            ({"x_kind": "ordinal"}, [("x", "unknown-kind", -1, -1)]),
            ({"y_kind": "ordinal"}, [("y", "unknown-kind", -1, -1)]),
            ({"z_kinds": ("continuous", "ordinal")}, [("z", "unknown-kind", -1, -1)]),
            ({"z_kinds": ("continuous",)}, [("z", "kind-count-mismatch", -1, -1)]),
            ({"feature_names": ("a", "b")}, [("y", "name-count-mismatch", -1, -1)]),
            (
                # a non-finite cell is its own rule, then row-major order
                {"y": [[np.nan, 1, 0], [2, 0, -1], [0, 3, 1], [1, 2.5, 4], [5, 0, 2]]},
                [("y", "non-finite", 0, 0), ("y", "not-count", 1, 2), ("y", "not-count", 3, 1)],
            ),
        ],
        ids=[
            "row-count-mismatch-x", "row-count-mismatch-z", "too-few-rows", "unknown-kind-x",
            "unknown-kind-y", "unknown-kind-z", "kind-count-mismatch", "name-count-mismatch",
            "not-count",
        ],
    )
    def test_each_rule_locates_its_violation(self, changes, want):
        def dataset(n=5, **changes):
            # counts with continuous x and z, and the given fields replaced
            rng = np.random.default_rng(7)
            fields = dict(
                x=rng.normal(size=(n, 1)), y=rng.poisson(2.0, size=(n, 3)).astype(float),
                z=rng.normal(size=(n, 2)), y_kind="count", z_kinds=("continuous", "continuous"),
            )
            return core.Dataset(**{**fields, **changes})

        assert core.validate(dataset()) == []
        got = [(v.matrix, v.rule, v.row, v.col) for v in core.validate(dataset(**changes))]
        assert got == want


class TestConfigValidation:
    def test_spec_token_round_trip(self):
        spec = engine.StatisticSpec.from_token("glm:poisson")
        assert spec.kind == "glm" and spec.family == "poisson"
        assert spec.token == "glm:poisson"
        assert engine.StatisticSpec.from_token("hsic").token == "hsic"

    def test_bare_glm_rejected(self):
        with pytest.raises(ValueError, match="family"):
            engine.StatisticSpec.from_token("glm")

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"kind": "bogus"}, "unknown statistic kind 'bogus'; expected glm, rv, hsic, "
                                "categorical or basis-wald"),
            ({"kind": "glm"}, "glm statistics need a family, e.g. glm:gaussian"),
            ({"kind": "glm", "family": "x"}, "unknown family 'x'"),
            ({"kind": "glm", "family": "negbinom"}, "negbinom family requires a positive size"),
            # a NaN epsilon made every conditional hsic value NaN, and a
            # NaN negbinom size was reported as a singular design
            ({"kind": "hsic", "epsilon": np.nan}, "epsilon must be a finite positive number, got nan"),
            ({"kind": "hsic", "epsilon": np.inf}, "epsilon must be a finite positive number, got inf"),
            ({"kind": "hsic", "epsilon": 0.0}, "epsilon must be a finite positive number, got 0.0"),
            ({"kind": "rv", "epsilon": -1.0}, "epsilon must be a finite positive number, got -1.0"),
            ({"kind": "glm", "family": "negbinom", "size": np.nan},
             "size must be a finite positive number, got nan"),
            ({"kind": "glm", "family": "negbinom", "size": np.inf},
             "size must be a finite positive number, got inf"),
            ({"kind": "glm", "family": "gaussian", "size": -2.0},
             "size must be a finite positive number, got -2.0"),
        ],
    )
    def test_spec_refuses_what_no_evaluator_takes(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            engine.StatisticSpec(**kwargs)

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="strategy"):
            engine.ResamplePlan("teleport", 3, seed=0)
        with pytest.raises(ValueError, match="b_count"):
            engine.ResamplePlan("residual-perm", 0, seed=0)

    def test_plan_names_every_sampler_and_refuses_missing_bins(self):
        message = (
            "unknown sampler strategy 'bogus'; expected one of ('residual-perm', "
            "'residual-boot', 'parametric-logistic', 'binned-perm')"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            engine.ResamplePlan("bogus", 1, 0)
        for bins in ({}, {"bin_column": 0}, {"bin_edges": np.array([0.0])}):
            with pytest.raises(ValueError, match="^binned-perm needs bin_column and bin_edges$"):
                engine.ResamplePlan("binned-perm", 1, 0, **bins)
        engine.ResamplePlan("binned-perm", 1, 0, bin_column=0, bin_edges=np.array([0.0]))

    def test_plan_refuses_a_negative_seed(self):
        # each draw's substream derives from the seed's words
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -3$"):
            engine.ResamplePlan("residual-perm", 1, -3)

    def test_plan_refuses_an_exposure_its_sampler_cannot_draw(self):
        assert engine.ResamplePlan is samplers.ResamplePlan is fdr2d.ResamplePlan
        plan = engine.ResamplePlan("residual-perm", 1, 0)
        with pytest.raises(ValueError, match="^residual-perm sampler needs a continuous exposure$"):
            plan.check_kinds("binary")
        plan.check_kinds("continuous")

    def test_config_validation(self):
        with pytest.raises(ValueError, match="q must"):
            engine.ProcedureConfig(q=0.0)
        with pytest.raises(ValueError, match="q must"):
            engine.ProcedureConfig(q=1.5)
        with pytest.raises(ValueError, match="pi0_lambda"):
            engine.ProcedureConfig(pi0_lambda=-2.0)
        engine.ProcedureConfig(q=1.0, pi0_lambda="auto")

    def test_apply_method_dispatch(self):
        rng = np.random.default_rng(7)
        tensor = _random_tensor(rng, m=10, b=16)
        for method in ("mf2d-fdr", "mf2d-fwer", "mf1d", "exchangeable-path", "ordered-grid"):
            cfg = engine.ProcedureConfig(q=0.3, path_steps=20)
            res = engine.apply_method(tensor, cfg, method)
            assert isinstance(res, core.CutoffResult)
        with pytest.raises(ValueError, match="method"):
            engine.apply_method(tensor, engine.ProcedureConfig(), "triple-dip")
        with pytest.raises(ValueError, match="tensor"):
            engine.apply_method(tensor, engine.ProcedureConfig(), "bh")


def _stepwise_walk(tensor, path, q, pi0):
    # reference walk: one full-tensor fdp_tilde per step
    mult = 1.0 if pi0 is None else float(pi0)
    for t1, t2 in zip(path.t1, path.t2):
        crit = reference.fdp_tilde(tensor, float(t1), float(t2), pi0)
        if crit <= q:
            obs = tensor.pairs[0]
            ok = ~tensor.zero_variance & (obs[:, 0] >= t1) & (obs[:, 1] >= t2)
            return core.CutoffResult(float(t1), float(t2), np.flatnonzero(ok), float(crit), mult)
    return core.CutoffResult(np.inf, np.inf, np.zeros(0, dtype=np.int64), 0.0, mult)


def _assert_same(got, want):
    # bit-for-bit: the threshold pair, estimate and pi0, then the rejections
    for key in ("t1", "t2", "fdp_estimate", "pi0"):
        a, b = getattr(got, key), getattr(want, key)
        assert type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes(), key
    np.testing.assert_array_equal(got.rejected, want.rejected)
    assert got.rejected.dtype == want.rejected.dtype


def _reference(tensor, config, method):
    # each method on its own: grid searches counted by pair_exceed_counts,
    # path methods walked step by step
    pi0, _ = reference.resolve_pi0(tensor, config)
    grid = reference.make_grid(tensor, config.grid)
    if method == "mf2d-fdr":
        return reference.search(tensor, grid, config.q, pi0, "fdr")
    if method == "mf2d-fwer":
        return reference.search(tensor, grid, config.q, pi0, "fwer")
    if method == "mf1d":
        line = engine.Grid2D(np.zeros(1), grid.t2_values)
        return reference.search(tensor, line, config.q, pi0, "fdr")
    path = reference.default_path(tensor, config.path_steps)
    if method == "exchangeable-path" or config.pi0_lambda is None:
        return _stepwise_walk(tensor, path, config.q, None)
    return _stepwise_walk(tensor, path, config.q, pi0)


_TENSOR_METHODS = ("mf2d-fdr", "mf2d-fwer", "mf1d", "exchangeable-path", "ordered-grid")


class TestApplyMethods:
    def _tensors(self):
        rng = np.random.default_rng(150)
        # tie-heavy: integer-valued statistics
        ties = rng.integers(0, 5, size=(8, 20, 2)).astype(float)
        smooth = rng.gamma(2.0, size=(6, 25, 2))
        smooth[0, :5] *= 4.0  # a few strong features
        zero_var = rng.gamma(2.0, size=(5, 12, 2))
        zv = np.zeros(12, dtype=bool)
        zv[[1, 4, 7]] = True
        zero_var[:, zv, :] = 0.0
        # one value everywhere: a single distinct value per axis, no 0
        flat = np.full((4, 6, 2), 1.5)
        # 0 among the pooled values, so no 0 is prepended to the grid
        with_zero = rng.gamma(2.0, size=(5, 10, 2))
        with_zero[rng.random((5, 10, 2)) < 0.2] = 0.0
        # every value distinct within each axis
        no_ties = rng.permutation(np.arange(1.0, 2 * 7 * 9 + 1)).reshape(7, 9, 2) / 8.0
        return [
            core.StatTensor(pairs=ties, zero_variance=np.zeros(20, bool)),
            core.StatTensor(pairs=smooth, zero_variance=np.zeros(25, bool)),
            core.StatTensor(pairs=zero_var, zero_variance=zv),
            core.StatTensor(pairs=flat, zero_variance=np.zeros(6, bool)),
            core.StatTensor(pairs=with_zero, zero_variance=np.zeros(10, bool)),
            core.StatTensor(pairs=no_ties, zero_variance=np.zeros(9, bool)),
        ]

    def test_matches_per_method_runs(self):
        for tensor in self._tensors():
            distinct = int(np.unique(tensor.pairs).size)
            for pi0 in (None, "auto", 0.05):
                for grid in ("observed", "quantile:9"):
                    for steps in (1, distinct + 7):
                        for q in (1e-9, 0.1, 0.4):
                            config = engine.ProcedureConfig(
                                q=q, pi0_lambda=pi0, grid=grid, path_steps=steps
                            )
                            with warnings.catch_warnings():
                                warnings.simplefilter("ignore")
                                got = engine.apply_methods(tensor, config, _TENSOR_METHODS)
                                assert list(got) == list(_TENSOR_METHODS)
                                for method in _TENSOR_METHODS:
                                    one = engine.ProcedureConfig(
                                        q=q, pi0_lambda=pi0, grid=grid, path_steps=steps,
                                    )
                                    _assert_same(got[method], engine.apply_method(tensor, one, method))
                                    _assert_same(got[method], _reference(tensor, one, method))

    def test_pass_grid_and_path_equal_the_public_ones(self):
        # search derives both from its own key sort, as make_grid and
        # default_path do; the reference forms take np.sort of each axis.
        # Equal bits, including the sign of 0
        rng = np.random.default_rng(154)
        tensors = self._tensors() + [
            _random_tensor(rng, style="ties" if k % 2 else "smooth") for k in range(6)
        ]
        for tensor in tensors:
            distinct = max(np.unique(tensor.pairs[:, :, k]).size for k in (0, 1))
            for grid in ("observed", "quantile:1", "quantile:9", "quantile:100"):
                for steps in (1, 3, distinct, distinct + 5, 100):
                    config = engine.ProcedureConfig(grid=grid, path_steps=steps)
                    found = engine.search(tensor, config, _TENSOR_METHODS)
                    want = reference.make_grid(tensor, grid)
                    for got in (found.grid, engine.make_grid(tensor, grid)):
                        for got_axis, want_axis in (
                            (got.t1_values, want.t1_values),
                            (got.t2_values, want.t2_values),
                        ):
                            assert got_axis.tobytes() == want_axis.tobytes()
                    if grid == "observed":
                        # make_grid's own derivation against np.unique
                        for k, axis in enumerate((want.t1_values, want.t2_values)):
                            unique = np.unique(np.append(0.0, tensor.pairs[:, :, k]))
                            assert axis.tobytes() == unique.tobytes()
                    path = reference.default_path(tensor, steps)
                    for got in (found.path, engine.default_path(tensor, steps)):
                        assert got.t1.tobytes() == path.t1.tobytes()
                        assert got.t2.tobytes() == path.t2.tobytes()

    def test_pass_pi0_equals_resolve_pi0(self):
        # search and storey_pi0 read lambda and the pooled count off the
        # sorted conditional axis; the reference resolve_pi0 takes
        # np.median of the unsorted axis and counts afresh. Equal bits on
        # odd and even pooled sizes, with ties at the median (the
        # integer-valued tensors) and lambdas that land on pooled values
        rng = np.random.default_rng(156)
        tensors = self._tensors()
        for trial in range(120):
            b1, m = int(rng.integers(1, 8)), int(rng.integers(1, 12))
            style = "ties" if trial % 2 else "smooth"
            tensors.append(_random_tensor(rng, m=m, b=b1 - 1, style=style))
        assert {t.pairs[:, :, 1].size % 2 for t in tensors} == {0, 1}
        below_one = 0
        for tensor in tensors:
            for lam in ("auto", 0.5, 1.0, 1.75):
                config = engine.ProcedureConfig(pi0_lambda=lam)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    want = reference.resolve_pi0(tensor, config)[0]
                    got = engine.search(tensor, config, _TENSOR_METHODS).pi0
                    alone = want if lam == "auto" else engine.storey_pi0(tensor, lam)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), lam
                assert np.float64(alone).tobytes() == np.float64(want).tobytes(), lam
                below_one += want < 1.0
        assert below_one > 100

    def test_pass_pi0_reads_the_median_off_the_sorted_axis(self):
        def tensor(tc):
            tc = np.array(tc)
            pairs = np.stack([np.ones_like(tc), tc], axis=-1)
            return core.StatTensor(pairs=pairs, zero_variance=np.zeros(tc.shape[1], bool))

        config = engine.ProcedureConfig(pi0_lambda="auto")
        # 16 pooled values, even: the median is (1.75 + 2.25) / 2, so lambda
        # is exactly 1.0, a pooled value, and five values count against the
        # observed 1.0: pi0 = 1 / (5 / 4). Either middle value alone, or a
        # count that left out values equal to lambda, would give 1 or 2/3
        even = tensor(
            [[1.0, 3.0, 5.0, 6.0], [0.2, 1.1, 2.25, 4.0], [0.4, 1.5, 3.0, 4.0],
             [0.6, 0.8, 1.75, 5.0]]
        )
        # 9 pooled values, odd: the median is the fifth, 2.0, so lambda is
        # 1.0 again and four values count: pi0 = 1 / (4 / 3)
        odd = tensor([[1.0, 5.0, 6.0], [0.2, 2.0, 3.0], [0.4, 0.6, 4.0]])
        for t, want in ((even, 0.8), (odd, 0.75)):
            assert reference.resolve_pi0(t, config) == (want, 1.0)
            assert engine.search(t, config, _TENSOR_METHODS).pi0 == want
        # no observed value at or below lambda: both warn and give 1
        none_below = tensor([[3.0, 4.0], [0.5, 1.0]])
        for pi0 in (
            lambda: reference.resolve_pi0(none_below, config)[0],
            lambda: engine.search(none_below, config, _TENSOR_METHODS).pi0,
        ):
            with pytest.warns(UserWarning, match="no statistics at or below lambda"):
                assert pi0() == 1.0

    def test_result_lambda_equals_resolve_pi0(self):
        # every tensor method's result carries the lambda the search read
        # off its sorted conditional axis, bit for bit the one the
        # reference resolve_pi0 takes: with auto, with a number and with none, on odd and even
        # pooled sizes; exchangeable-path reports it but applies no pi0
        rng = np.random.default_rng(157)
        tensors = self._tensors()
        for trial in range(40):
            b1, m = int(rng.integers(1, 8)), int(rng.integers(1, 12))
            style = "ties" if trial % 2 else "smooth"
            tensors.append(_random_tensor(rng, m=m, b=b1 - 1, style=style))
        assert {t.pairs[:, :, 1].size % 2 for t in tensors} == {0, 1}
        for tensor in tensors:
            for lam in ("auto", 0.5, 1.75, None):
                config = engine.ProcedureConfig(q=0.3, pi0_lambda=lam, path_steps=9)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    want = reference.resolve_pi0(tensor, config)[1]
                    results = engine.apply_methods(tensor, config, _TENSOR_METHODS)
                    alone = engine.apply_method(tensor, config, "exchangeable-path")
                for method, res in [*results.items(), ("alone", alone)]:
                    got = res.pi0_lambda
                    if want is None:
                        assert got is None, method
                    else:
                        assert type(got) is float, method
                        assert np.float64(got).tobytes() == np.float64(want).tobytes(), method

    def test_one_sort_per_pooled_axis(self, monkeypatch):
        # every full-length in-place key sort, and every sort, argsort,
        # unique, partition or median of a pooled axis is recorded; the five
        # methods must share one key sort per axis, pi0_lambda="auto"
        # included, and make no other full-length one; so must a search on
        # a given path and ordered_grid_procedure
        rng = np.random.default_rng(155)
        tensor = core.StatTensor(
            pairs=rng.gamma(2.0, size=(21, 40, 2)), zero_variance=np.zeros(40, bool)
        )
        pooled = tensor.pairs[:, :, 0].size
        calls = []
        for owner, name in [(_accel, "_sort_keys")] + [
            (np, name) for name in ("argsort", "sort", "unique", "partition", "median")
        ]:
            original = getattr(owner, name)

            def recording(a, *args, _original=original, _name=name, **kwargs):
                calls.append((_name, np.asarray(a).size))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(owner, name, recording)
        path = engine.default_path(tensor, 7)
        runs = [
            lambda config: engine.apply_methods(tensor, config, _TENSOR_METHODS),
            lambda config: engine.search(tensor, config, _TENSOR_METHODS, path),
            lambda config: engine.ordered_grid_procedure(tensor, path, config.q, 0.8),
        ]
        for grid in ("quantile:100", "observed"):
            for pi0 in (None, "auto"):
                for run in runs:
                    calls.clear()
                    config = engine.ProcedureConfig(q=0.3, grid=grid, pi0_lambda=pi0)
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        run(config)
                    full = [call for call in calls if call[1] >= pooled]
                    assert full == [("_sort_keys", pooled)] * 2, (grid, pi0, runs.index(run))

    def test_c_order_and_two_plane_tensors_give_the_same_results(self):
        # the two planes are read as flat views; a tensor whose pairs were
        # replaced by a C-order array is read through copies of its axes.
        # Every field of every result is the same bits
        rng = np.random.default_rng(158)
        for tensor in self._tensors() + [_random_tensor(rng) for _ in range(6)]:
            c_order = dataclasses.replace(tensor)
            c_order.pairs = np.ascontiguousarray(tensor.pairs)
            assert c_order.pairs.flags.c_contiguous
            for pi0, grid in ((None, "quantile:9"), ("auto", "observed"), (0.5, "quantile:100")):
                config = engine.ProcedureConfig(q=0.3, pi0_lambda=pi0, grid=grid, path_steps=7)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    planes = engine.apply_methods(tensor, config, _TENSOR_METHODS)
                    flat = engine.apply_methods(c_order, config, _TENSOR_METHODS)
                for method in _TENSOR_METHODS:
                    _assert_same(flat[method], planes[method])
                    assert flat[method].pi0_lambda == planes[method].pi0_lambda

    def test_search_memory_per_pooled_value(self):
        # five methods on one tensor of N = 500 000 pooled pairs: each axis
        # is sorted and binned in small integers in turn, and the path
        # reads its distinct-value quantiles off the sorted axis without
        # copying them out, so the search holds at most 27 bytes per
        # pooled pair beyond the tensor
        rng = np.random.default_rng(159)
        tensor = core.StatTensor(
            pairs=rng.gamma(2.0, size=(100, 5000, 2)), zero_variance=np.zeros(5000, bool)
        )
        config = engine.ProcedureConfig(q=0.1, pi0_lambda="auto")
        tracemalloc.start()
        try:
            engine.apply_methods(tensor, config, _TENSOR_METHODS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 27 * 500_000

    @pytest.mark.parametrize("bad", [np.nan, -0.5])
    def test_statistic_not_a_nonnegative_number_rejected(self, bad):
        # a NaN would sort into the top bin of its pooled axis, where no
        # direct comparison counts it, so the search and fdp_tilde disagree
        pairs = np.random.default_rng(159).gamma(2.0, size=(5, 8, 2))
        pairs[1, 3, 1] = bad
        with pytest.raises(ValueError, match="nonnegative numbers, not NaN"):
            core.StatTensor(pairs=pairs, zero_variance=np.zeros(8, bool))

    def test_infeasible_level_gives_sentinels(self):
        tensor = core.StatTensor(pairs=np.ones((3, 5, 2)), zero_variance=np.zeros(5, bool))
        config = engine.ProcedureConfig(q=1e-9, grid="observed")
        for res in engine.apply_methods(tensor, config, _TENSOR_METHODS).values():
            assert np.isinf(res.t1) and np.isinf(res.t2) and res.n_rejected == 0

    def test_bh_and_unknown_methods_rejected(self):
        tensor = self._tensors()[0]
        config = engine.ProcedureConfig()
        for method, message in (
            ("bh", "tensor"), ("triple-dip", "unknown method"),
            ("mf2d-fdr", "method 'mf2d-fdr' is given more than once"),
        ):
            with pytest.raises(ValueError, match=message):
                engine.apply_methods(tensor, config, ["mf2d-fdr", method])
        assert engine.apply_methods(tensor, config, []) == {}

    def test_chain_walk_equals_stepwise_walk(self):
        rng = np.random.default_rng(151)
        for trial in range(30):
            tensor = _random_tensor(rng, style="ties" if trial % 2 else "smooth")
            b1 = tensor.pairs.shape[0]
            if trial % 3:
                path = engine.default_path(tensor, int(rng.integers(1, 50)))
            else:
                # off-tensor values and repeated steps
                steps = int(rng.integers(1, 20))
                path = engine.MonotonePath(
                    t1=np.sort(rng.integers(0, 8, steps) / 2.5),
                    t2=np.sort(rng.integers(0, 8, steps) / 2.5),
                )
            config = engine.ProcedureConfig()
            counts_all, robs = engine.search(tensor, config, ["exchangeable-path"], path).path_counts
            for pi0 in (None, 0.6):
                mult = 1.0 if pi0 is None else pi0
                crit = engine._fdp(counts_all, robs, b1, mult)
                want = [
                    reference.fdp_tilde(tensor, t1, t2, pi0) for t1, t2 in zip(path.t1, path.t2)
                ]
                assert crit.tolist() == want
                assert [engine.fdp_tilde(tensor, t1, t2, pi0) for t1, t2 in zip(path.t1, path.t2)] == want
                for q in (0.05, 0.3):
                    _assert_same(
                        engine.ordered_grid_procedure(tensor, path, q, pi0),
                        _stepwise_walk(tensor, path, q, pi0),
                    )

    def test_long_path_memory_is_linear_in_steps(self):
        rng = np.random.default_rng(152)
        tensor = core.StatTensor(
            pairs=rng.gamma(2.0, size=(4, 6, 2)), zero_variance=np.zeros(6, bool)
        )
        steps = 100_000
        config = engine.ProcedureConfig(q=0.2, path_steps=steps)
        tracemalloc.start()
        try:
            engine.apply_methods(tensor, config, ["exchangeable-path", "ordered-grid"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a handful of length-steps arrays; a steps x steps table would be 80 GB
        assert peak < 40 * 8 * steps

    def test_oversized_observed_grid_raises_before_allocating(self):
        rng = np.random.default_rng(153)
        # 6000 distinct values per axis: a 6001 x 6001 observed grid
        tensor = core.StatTensor(
            pairs=rng.gamma(2.0, size=(60, 100, 2)), zero_variance=np.zeros(100, bool)
        )
        config = engine.ProcedureConfig(grid="observed")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="quantile:<G>"):
                engine.apply_methods(tensor, config, ["mf2d-fdr"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the int64 count histogram alone would take 288 MB
        assert peak < 2**24

