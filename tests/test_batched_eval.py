"""Draw-batched evaluation.

build_tensor scores its resampled draws in stacks, one evaluator call
per chunk. Each row must still be what the evaluator gives for that
draw alone, made on its own substream; one draw's failure must not
touch the others; a fit stuck at the iteration limit must not change
the fits batched with it; and memory must not grow with B beyond the
tensor itself.
"""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from fdr2d import _accel, core, engine, glm, samplers, sim, stats

CONTINUOUS_SAMPLERS = ("residual-perm", "residual-boot", "binned-perm")


def _cases():
    cases = []
    for family in ("gaussian", "binomial", "poisson", "negbinom"):
        for p in (1, 2):
            cases += [(f"glm:{family}", s, p) for s in CONTINUOUS_SAMPLERS]
        cases.append((f"glm:{family}", "parametric-logistic", 1))
    cases += [("rv", s, 1) for s in CONTINUOUS_SAMPLERS + ("parametric-logistic",)]
    cases.append(("rv", "residual-perm", 2))
    cases += [("hsic", s, 1) for s in CONTINUOUS_SAMPLERS]
    cases.append(("categorical", "parametric-logistic", 1))
    cases += [("basis-wald", s, 1) for s in CONTINUOUS_SAMPLERS]
    return cases


def make_dataset(stat, sampler, p, n=40, m=7, seed=3, constant_last=True):
    """A small seeded dataset of the kinds the statistic and sampler need."""
    rng = np.random.default_rng(seed)
    categorical = stat == "categorical"
    z = (rng.random((n, 1)) < 0.5).astype(float) if categorical else rng.normal(size=(n, 1))
    if sampler == "parametric-logistic":
        x = (rng.random((n, 1)) < 1.0 / (1.0 + np.exp(-0.8 * z[:, :1]))).astype(float)
        x_kind = "binary"
    else:
        x = 0.6 * z[:, :1] + rng.normal(size=(n, p))
        x_kind = "continuous"
    alpha = np.where(np.arange(m) < 2, 0.8, 0.0)
    eta = 0.3 * x[:, :1] * alpha - 0.4 * z[:, :1] + 0.1
    family = stat[4:] if stat.startswith("glm:") else None
    if family == "binomial" or categorical:
        y = (rng.random((n, m)) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        y_kind = "binary"
    elif family == "poisson":
        y = rng.poisson(np.exp(eta)).astype(float)
        y_kind = "count"
    elif family == "negbinom":
        mu = np.exp(eta)
        y = rng.negative_binomial(3.0, 3.0 / (3.0 + mu)).astype(float)
        y_kind = "count"
    else:
        y = eta + rng.normal(size=(n, m))
        y_kind = "continuous"
    if constant_last:
        # a zero-variance feature, which the tensor zeroes in every row
        y[:, -1] = y[0, -1]
    return core.Dataset(x=x, y=y, z=z, x_kind=x_kind, y_kind=y_kind)


def make_plan(sampler, b, seed=11):
    binned = sampler == "binned-perm"
    return engine.ResamplePlan(
        strategy=sampler,
        b_count=b,
        seed=seed,
        bin_column=0 if binned else None,
        bin_edges=np.array([0.0]) if binned else None,
    )


def make_spec(stat):
    return engine.StatisticSpec.from_token(stat, size=3.0 if stat == "glm:negbinom" else None)


def _varying(dataset):
    """The dataset build_tensor scores: its zero-variance features set
    aside, and the mask of the ones kept."""
    keep = ~core.zero_variance_mask(dataset.y)
    return dataclasses.replace(dataset, y=dataset.y[:, keep], feature_names=()), keep


def _reported_failures(caught):
    for w in caught:
        hit = re.match(r"(\d+) statistic evaluations failed", str(w.message))
        if hit:
            return int(hit.group(1))
    return 0


def assert_close_rows(got, want, bitwise=False):
    """rel 1e-10 with a floor of 1e-12 x the largest |value| of each
    statistic axis, and an identical zero pattern."""
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    if bitwise:
        np.testing.assert_array_equal(got, want)
        return
    for k in (0, 1):
        floor = 1e-12 * float(np.max(np.abs(want[..., k])))
        np.testing.assert_allclose(got[..., k], want[..., k], rtol=1e-10, atol=floor)


def _counting_evaluators(monkeypatch):
    """Make build_tensor's evaluators record the shape of every input
    their pairs is called with, into the returned list."""
    shapes = []
    real = stats.make_evaluator

    def make_evaluator(*args, **kwargs):
        evaluator = real(*args, **kwargs)
        pairs = evaluator.pairs

        def counted(x, observed=False, out=None):
            shapes.append(np.shape(x))
            return pairs(x, observed=observed, out=out)

        evaluator.pairs = counted
        return evaluator

    monkeypatch.setattr(stats, "make_evaluator", make_evaluator)
    return shapes


@pytest.mark.parametrize("stat,sampler,p", _cases(), ids=lambda v: str(v))
def test_tensor_row_is_evaluator_on_that_draw(monkeypatch, stat, sampler, p):
    # five rows per chunk by the evaluator's own count, so the observed
    # row and the twelve draws come in three stacks, the last one partial.
    # The tensor scores the varying features only; so does the oracle
    dataset = make_dataset(stat, sampler, p)
    plan = make_plan(sampler, b=12)
    spec = make_spec(stat)
    varying, keep = _varying(dataset)
    evaluator = stats.make_evaluator(varying, spec)
    monkeypatch.setattr(engine, "_CHUNK_CELLS", 5 * evaluator.draw_cells)
    shapes = _counting_evaluators(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tensor = engine.build_tensor(dataset, plan, spec)
    assert shapes == [(d, dataset.n, p) for d in (5, 5, 3)]
    model = samplers.fit_for_strategy(
        sampler, dataset.x, dataset.z, z_kinds=dataset.z_kinds,
        bin_column=plan.bin_column, bin_edges=plan.bin_edges,
    )
    want = np.zeros_like(tensor.pairs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (tm,), (tc,), failed = evaluator.pairs(dataset.x[None], observed=True)
        want[0, keep, 0], want[0, keep, 1] = tm, tc
        for d in range(1, plan.b_count + 1):
            draw = samplers.draw_for_strategy(sampler, model, plan.seed, [d])
            (tm,), (tc,), bad = evaluator.pairs(draw)
            assert tm.shape == tc.shape == (varying.m,)
            want[d, keep, 0], want[d, keep, 1] = tm, tc
            failed += bad
    np.testing.assert_array_equal(tensor.zero_variance, ~keep)
    assert_close_rows(tensor.pairs, want, bitwise=stat == "categorical")
    assert _reported_failures(caught) == failed


# what an out= block holds before pairs writes it: no statistic is negative
_SENTINEL = -7.25


@pytest.mark.parametrize("stat,sampler,p", _cases(), ids=lambda v: str(v))
def test_pairs_writes_its_rows_into_out(stat, sampler, p):
    # out= gives pairs two (D, m) blocks, here rows 1..D of two sentinel
    # planes as build_tensor hands it rows start..stop of the tensor's:
    # pairs writes every cell of the blocks and nothing else, returns
    # the given arrays, and writes the bits it returns without out
    dataset = make_dataset(stat, sampler, p, constant_last=False)
    evaluator = stats.make_evaluator(dataset, make_spec(stat))
    xs = np.concatenate([dataset.x[None], _stack(dataset, 5)])
    planes = np.full((2, xs.shape[0] + 2, dataset.m), _SENTINEL)
    out = tuple(planes[:, 1:-1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tm, tc, failed = evaluator.pairs(xs, observed=True, out=out)
        want = evaluator.pairs(xs, observed=True)
    assert tm is out[0] and tc is out[1]
    assert np.all(planes[:, [0, -1]] == _SENTINEL)
    assert tm.tobytes() == want[0].tobytes() and tc.tobytes() == want[1].tobytes()
    assert failed == want[2]


def test_set_aside_features_are_scored_into_one_scratch_block(monkeypatch):
    # with a zero-variance feature set aside, every chunk is written into
    # the leading rows of one reused (2, chunk, varying m) block and
    # scattered; without one, into views of the tensor's own planes.
    # Each call's rows are the bits of the same call without out
    calls = []
    real = stats.make_evaluator

    def make_evaluator(*args, **kwargs):
        evaluator = real(*args, **kwargs)
        pairs = evaluator.pairs

        def spied(xs, observed=False, out=None):
            block = out[0].base
            before = block.copy()
            for given in out:
                given[...] = _SENTINEL
            got = pairs(xs, observed=observed, out=out)
            want = pairs(xs, observed=observed)
            assert got[0] is out[0] and got[1] is out[1]
            for k in (0, 1):
                assert got[k].tobytes() == want[k].tobytes()
            calls.append((block, before, xs.shape[0]))
            return got

        evaluator.pairs = spied
        return evaluator

    monkeypatch.setattr(stats, "make_evaluator", make_evaluator)
    for constant_last in (True, False):
        dataset = make_dataset("rv", "residual-perm", 1, constant_last=constant_last)
        varying, keep = _varying(dataset)
        cells = stats.make_evaluator(varying, make_spec("rv")).draw_cells
        monkeypatch.setattr(engine, "_CHUNK_CELLS", 5 * cells)
        calls.clear()
        tensor = engine.build_tensor(dataset, make_plan("residual-perm", b=12), make_spec("rv"))
        assert [d for _, _, d in calls] == [5, 5, 3]
        if constant_last:
            block, before, _ = calls[-1]
            assert block.shape == (2, 5, varying.m)
            assert all(b is block for b, _, _ in calls)
            # the partial last chunk leaves the block's other rows alone
            assert np.array_equal(block[:, 3:], before[:, 3:])
            assert not np.shares_memory(block, tensor.planes)
        else:
            assert all(b is tensor.planes.base for b, _, _ in calls)
        assert not np.any(tensor.planes == _SENTINEL)
        assert np.all(tensor.planes[:, :, ~keep] == 0.0)


@pytest.mark.parametrize(
    "stat",
    ["glm:gaussian", "glm:binomial", "glm:poisson", "glm:negbinom", "rv", "hsic",
     "categorical", "basis-wald"],
)
def test_constant_draw_counts_each_feature_once(stat):
    # a constant draw zeroes both statistics of every feature: m
    # failures, whatever the statistic, however many fits it runs. With
    # observed=True only row 0 is the observed exposure, so a constant
    # row 1 still fails alone instead of raising
    evaluator, stack, m = _stack_with_constant_row(stat, 1)
    for observed in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tm, tc, failed = evaluator.pairs(stack, observed=observed)
        assert np.all(tm[1] == 0.0) and np.all(tc[1] == 0.0)
        assert failed == m


def _stack_with_constant_row(stat, row):
    # (evaluator, a stack of three exposures whose given row is constant,
    # m) on a dataset with no zero-variance feature
    categorical = stat == "categorical"
    sampler = "parametric-logistic" if categorical else "residual-perm"
    dataset = make_dataset(stat, sampler, 1, constant_last=False)
    evaluator = stats.make_evaluator(dataset, make_spec(stat))
    rng = np.random.default_rng(8)
    if categorical:
        stack = (rng.random((3,) + dataset.x.shape) < 0.5).astype(float)
    else:
        stack = dataset.x[None] + rng.normal(scale=0.5, size=(3,) + dataset.x.shape)
    stack[row] = 0.0 if categorical else 0.37
    return evaluator, stack, dataset.m


# what each evaluator raises on a constant observed exposure
_OBSERVED_ERRORS = {
    "glm:gaussian": "feature 0: singular design on observed data",
    "glm:binomial": "feature 0: singular design on observed data",
    "glm:poisson": "feature 0: singular design on observed data",
    "glm:negbinom": "feature 0: singular design on observed data",
    "rv": "constant exposure on observed data",
    "hsic": "degenerate bandwidth",
    "basis-wald": "singular basis-wald design on observed data",
    "categorical": "constant exposure on observed data",
}


@pytest.mark.parametrize("stat", list(_OBSERVED_ERRORS))
def test_constant_observed_row_raises(stat):
    # a constant row 0 raises with observed=True, in a stack of three as
    # alone, and fails as a counted zero row without it
    evaluator, stack, m = _stack_with_constant_row(stat, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for xs in (stack, stack[:1]):
            with pytest.raises(ValueError, match=_OBSERVED_ERRORS[stat]):
                evaluator.pairs(xs, observed=True)
        tm, tc, failed = evaluator.pairs(stack)
    assert np.all(tm[0] == 0.0) and np.all(tc[0] == 0.0)
    assert failed == m


@pytest.mark.parametrize(
    "stat,error",
    [
        ("glm:binomial", "singular design on observed data"),
        ("glm:gaussian", "singular design on observed data"),
        ("rv", "exposure lies in the confounder span on observed data"),
    ],
)
def test_observed_error_comes_before_a_second_chunk_is_drawn(monkeypatch, stat, error):
    # an exposure affine in the confounder: the first chunk (the observed
    # row and four draws) raises, so no draw of a later chunk is made
    dataset = make_dataset(stat, "residual-perm", 1)
    spec = make_spec(stat)
    monkeypatch.setattr(engine, "_CHUNK_CELLS", 5 * stats.make_evaluator(dataset, spec).draw_cells)
    dataset.x = 2.0 * dataset.z + 1.0
    draws = []
    real = samplers.draw_for_strategy

    def draw_for_strategy(strategy, model, seed, indices):
        draws.extend(indices)
        return real(strategy, model, seed, indices)

    monkeypatch.setattr(samplers, "draw_for_strategy", draw_for_strategy)
    with pytest.raises(ValueError, match=error):
        engine.build_tensor(dataset, make_plan("residual-perm", b=12), spec)
    assert len(draws) <= 4


@pytest.mark.parametrize("family", ["gaussian", "binomial", "poisson"])
@pytest.mark.parametrize("exposure", ["affine-in-z", "constant"])
def test_singular_observed_glm_design_is_refused_before_any_draw_or_fit(
    monkeypatch, family, exposure
):
    # x = 2z + 1 makes [1, x, z] singular, a constant x [1, x] as well:
    # making the evaluator refuses it, so no draw is made and no IRLS runs
    stat = f"glm:{family}"
    dataset = make_dataset(stat, "residual-perm", 1)
    dataset.x = 2.0 * dataset.z + 1.0 if exposure == "affine-in-z" else np.full((40, 1), 0.5)
    calls = []
    for module, name in ((samplers, "draw_for_strategy"), (_accel, "glm_fit_many")):
        real = getattr(module, name)
        spy = lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k)  # noqa: E731
        monkeypatch.setattr(module, name, spy)
    with pytest.raises(ValueError, match="^feature 0: singular design on observed data$"):
        engine.build_tensor(dataset, make_plan("residual-perm", b=12), make_spec(stat))
    assert calls == []


def test_design_the_first_irls_information_test_refuses_fails_before_any_draw(monkeypatch):
    # x = z + 1e-7 noise passes the rank rule but not the Cholesky pivot
    # test of IRLS iteration 1, which is 10^4 looser: making the evaluator
    # runs that test on the observed [1, x, z], so no draw is made and no
    # IRLS runs
    config = sim.SimConfig(dgp=9, n=100, m=30, pi=0.2, l=1.0, reps=1, seed=0)
    dataset, _ = sim.gen_dataset(config, np.random.default_rng(0))
    dataset.x = dataset.z + 1e-7 * np.random.default_rng(1).normal(size=dataset.z.shape)
    joint = np.column_stack([np.ones(dataset.n), dataset.z, dataset.x])
    assert glm.Residualiser(joint).refusal is None
    calls = []
    for module, name in ((samplers, "draw_for_strategy"), (_accel, "glm_fit_many")):
        real = getattr(module, name)
        spy = lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k)  # noqa: E731
        monkeypatch.setattr(module, name, spy)
    with pytest.raises(ValueError, match="^feature 0: singular design on observed data$"):
        engine.build_tensor(dataset, make_plan("residual-perm", b=19), make_spec("glm:binomial"))
    assert calls == []


@pytest.mark.parametrize("family", ["binomial", "poisson", "negbinom"])
def test_observed_row_is_its_stack_of_one_bit_for_bit(family):
    # the observed row shares its IRLS calls with the first draws, and a
    # fit's bits do not depend on the other draws: row 0 is the
    # observed exposure scored alone, and its conditional statistic is
    # the one behind bh's p-values. All three score the varying features
    stat = f"glm:{family}"
    dataset = make_dataset(stat, "residual-perm", 1)
    spec = make_spec(stat)
    varying, valid = _varying(dataset)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tensor = engine.build_tensor(dataset, make_plan("residual-perm", b=12), spec)
        (tm,), (tc,), _ = stats.make_evaluator(varying, spec).pairs(dataset.x[None], observed=True)
        (w,), _ = stats._glm_wald(dataset.x[None], dataset.z, varying.y, family, spec.size, True)
    assert tensor.pairs[0, valid, 0].tobytes() == tm.tobytes()
    assert tensor.pairs[0, valid, 1].tobytes() == tc.tobytes()
    assert tensor.pairs[0, valid, 1].tobytes() == w.tobytes()


@pytest.mark.parametrize("stat", ["glm:binomial", "glm:poisson", "glm:gaussian", "rv", "categorical"])
def test_singular_draw_fails_alone(stat):
    categorical = stat == "categorical"
    sampler = "parametric-logistic" if categorical else "residual-perm"
    dataset = make_dataset(stat, sampler, 1, constant_last=False)
    evaluator = stats.make_evaluator(dataset, make_spec(stat))
    rng = np.random.default_rng(5)
    shape = (4,) + dataset.x.shape
    if categorical:
        stack = (rng.random(shape) < 0.5).astype(float)
    else:
        stack = dataset.x[None] + rng.normal(scale=0.5, size=shape)
    # draw 2 repeats the confounder (a singular GLM design) or is zero
    # (nothing to correlate, an empty exposure margin)
    stack[2] = dataset.z if stat.startswith("glm:") else 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tm, tc, failed = evaluator.pairs(stack)
        single = [evaluator.pairs(xd[None]) for xd in stack]
        clean = evaluator.pairs(np.delete(stack, 2, axis=0))
    assert tm.shape == tc.shape == (4, dataset.m)
    got = np.stack([tm, tc], axis=-1)
    want = np.concatenate([np.stack(s[:2], axis=-1) for s in single])
    assert [s[2] > 0 for s in single] == [False, False, True, False]
    assert failed == single[2][2]
    assert np.all(got[2, :, 1] == 0.0)
    assert_close_rows(got, want)
    # the other draws do not depend on the singular one being in the batch
    np.testing.assert_array_equal(np.delete(got[..., 0], 2, axis=0), clean[0])
    np.testing.assert_array_equal(np.delete(got[..., 1], 2, axis=0), clean[1])


def _poisson_inputs(n=40, m=5, draws=3, seed=9):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    xs = rng.normal(size=(draws, n))
    designs = np.stack([np.column_stack([np.ones(n), x, z]) for x in xs])
    ymat = rng.poisson(np.exp(0.2 + 0.4 * z[:, None] + 0.1 * rng.normal(size=(n, m))))
    return designs, ymat.astype(float)


def test_stuck_fit_leaves_the_batch_unchanged():
    designs, ymat = _poisson_inputs()
    # an all-zero count column drives eta to -inf: every draw's fit of
    # it runs to the iteration limit
    stuck = np.column_stack([ymat, np.zeros(ymat.shape[0])])
    with_stuck = _accel.glm_fit_many(designs, stuck, _accel.POISSON, 1.0, 50, 1e-8)
    alone = _accel.glm_fit_many(designs, ymat, _accel.POISSON, 1.0, 50, 1e-8)
    assert np.all(with_stuck[2][:, -1] == 1) and np.all(with_stuck[3][:, -1] == 50)
    assert np.all(alone[2] == 0) and np.all(alone[3] < 50)
    for got, want in zip(with_stuck, alone):
        got = got[:, :-1]
        if got.dtype.kind == "i":
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # a one-design call is the one-draw stack
    one = _accel.glm_fit_many(designs[1], ymat, _accel.POISSON, 1.0, 50, 1e-8)
    for got, want in zip(one, alone):
        np.testing.assert_allclose(got, want[1], rtol=1e-12, atol=0.0)


def test_exposure_separated_column_stops_early_as_separation():
    rng = np.random.default_rng(4)
    n = 30
    x = np.round(rng.normal(size=n), 4)
    design = np.column_stack([np.ones(n), x, rng.normal(size=n)])
    ymat = np.column_stack([(x > 0).astype(float), (rng.random(n) < 0.5).astype(float)])
    coef, cov, status, n_iter = _accel.glm_fit_many(design, ymat, _accel.BINOMIAL, 1.0, 50, 1e-8)
    assert status[0] == 2 and n_iter[0] < 50
    assert np.all(cov[0] == 0.0)
    assert status[1] == 0
    xs, z = design[None, :, 1:2], design[:, 2:]
    (tc,), (full_status,) = stats._glm_wald(xs, z, ymat, "binomial", None, observed=True)
    (tm,), (red_status,) = stats._glm_wald(xs, z[:, :0], ymat, "binomial", None, observed=True)
    assert full_status[0] == red_status[0] == 2 and tm[0] == 0.0 and tc[0] == 0.0


def _peak_bytes(call, *args):
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_tensor_plus_one_chunk(monkeypatch, stat, n, m):
    # ten draws per chunk: B = 50 already fills whole chunks, so B = 400
    # may add only the larger tensor and at most one chunk's working set
    dataset = make_dataset(stat, "residual-perm", 1, n=n, m=m)
    spec = make_spec(stat)
    cells = 10 * stats.make_evaluator(dataset, spec).draw_cells
    monkeypatch.setattr(engine, "_CHUNK_CELLS", cells)
    small = _peak_bytes(engine.build_tensor, dataset, make_plan("residual-perm", 50), spec)
    large = _peak_bytes(engine.build_tensor, dataset, make_plan("residual-perm", 400), spec)
    tensor_bytes = (400 + 1) * m * 2 * 8
    assert large - small <= tensor_bytes + 8 * cells


def test_build_tensor_memory_is_tensor_plus_one_chunk(monkeypatch):
    _assert_tensor_plus_one_chunk(monkeypatch, "glm:binomial", 50, 40)


@pytest.mark.parametrize("stat,n,m", [("rv", 50, 40), ("hsic", 120, 3)])
def test_build_tensor_memory_is_tensor_plus_one_chunk_per_stat(monkeypatch, stat, n, m):
    # hsic at n >> m makes two n x n kernels per draw, far more than n m
    _assert_tensor_plus_one_chunk(monkeypatch, stat, n, m)


def test_default_rv_replication_tensor_memory():
    # the tensor of one default rv simulate replication (dgp 3, n = 100,
    # m = 1000, B = 100, one chunk): the evaluator writes its rows into
    # the 1.6 MB planes, so the build holds those, the evaluator's two
    # (n, m) responses and the chunk's (D, m) products, with no row block
    # copied beside them. A first build warms lazy imports
    config = sim.SimConfig(dgp=3, n=100, m=1000, pi=0.1, l=1.0, reps=1, seed=1)
    dataset, _ = sim.gen_dataset(config, np.random.default_rng(1))
    plan = dataclasses.replace(config.sampler, seed=1)
    engine.build_tensor(dataset, plan, config.statistic)
    assert _peak_bytes(engine.build_tensor, dataset, plan, config.statistic) <= 5.0e6


def _stack(dataset, draws, seed=2):
    # draws near the observed exposure, or coin flips for a binary one
    rng = np.random.default_rng(seed)
    shape = (draws,) + dataset.x.shape
    if dataset.x_kind == "binary":
        return (rng.random(shape) < 0.5).astype(float)
    return dataset.x[None] + rng.normal(scale=0.5, size=shape)


# float64 arrays of draw_cells cells that one more draw may add: rv and
# categorical update their (D, m) rows in place, and the gaussian GLM
# writes its statistics over qf and sigma2 over rss
_DRAW_ARRAYS = {"rv": 5, "categorical": 5, "glm:gaussian": 4}


@pytest.mark.parametrize("n,m", [(100, 1000), (200, 20)])
@pytest.mark.parametrize(
    "stat", ["glm:binomial", "glm:gaussian", "rv", "hsic", "categorical", "basis-wald"]
)
def test_draw_cells_bound_the_footprint_of_a_draw(stat, n, m):
    # twenty more draws in one call may add at most _DRAW_ARRAYS (else
    # twelve) float64 arrays of draw_cells cells per draw, so that
    # _CHUNK_CELLS bounds the working memory of every chunk
    sampler = "parametric-logistic" if stat == "categorical" else "residual-perm"
    dataset = make_dataset(stat, sampler, 1, n=n, m=m, constant_last=False)
    evaluator = stats.make_evaluator(dataset, make_spec(stat))
    stack = _stack(dataset, 40)
    grown = _peak_bytes(evaluator.pairs, stack) - _peak_bytes(evaluator.pairs, stack[:20])
    assert grown <= _DRAW_ARRAYS.get(stat, 12) * 8 * 20 * evaluator.draw_cells


def test_default_gaussian_tensor_is_scored_in_one_call():
    # the gaussian route's largest per-draw arrays are the block's Q
    # (n, p) and Q'r (p, m), not the IRLS working arrays (n, m), so the
    # observed row and the hundred draws of a default tensor fit in one
    # chunk
    dataset = make_dataset("glm:gaussian", "residual-perm", 1, n=100, m=1000)
    evaluator = stats.make_evaluator(dataset, make_spec("glm:gaussian"))
    assert engine._CHUNK_CELLS // evaluator.draw_cells >= 101


def test_default_binomial_analyze_tensor_call_counts(monkeypatch):
    # the analyze-size binomial tensor (n = 100, m = 30, B = 19) fits in
    # one chunk: one evaluator call, whose conditional and marginal fits
    # are one IRLS batch each
    dataset = make_dataset("glm:binomial", "residual-perm", 1, n=100, m=30)
    shapes = _counting_evaluators(monkeypatch)
    fits = []
    real = _accel.glm_fit_many

    def glm_fit_many(design, *args):
        fits.append(design.shape)
        return real(design, *args)

    monkeypatch.setattr(_accel, "glm_fit_many", glm_fit_many)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        engine.build_tensor(dataset, make_plan("residual-perm", b=19), make_spec("glm:binomial"))
    assert shapes == [(20, 100, 1)]
    assert fits == [(20, 100, 3), (20, 100, 2)]


@pytest.mark.parametrize(
    "stat,sampler,spline_df,fits",
    [
        ("rv", "residual-perm", 5, 1),
        ("rv", "residual-perm", None, 2),
        ("basis-wald", "residual-boot", 5, 1),
        ("glm:gaussian", "residual-perm", None, 1),
        ("glm:binomial", "parametric-logistic", None, 0),
    ],
)
def test_one_confounder_fit_per_design(monkeypatch, stat, sampler, spline_df, fits):
    # the sampler fit and the statistic share one fit of each confounder
    # design [1, T(z)]: one for one spline df, two for two, and none where
    # neither side adjusts through it
    dataset = make_dataset(stat, sampler, 1)
    plan = dataclasses.replace(make_plan(sampler, b=9), spline_df=spline_df)
    designs = []
    real = glm.confounder_design

    def confounder_design(*args, **kwargs):
        designs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(glm, "confounder_design", confounder_design)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = engine.StatisticSpec.from_token(stat, spline_df=5)
        tensor = engine.build_tensor(dataset, plan, spec)
    assert len(designs) == fits
    # the same bits as a sampler and an evaluator that fit their own
    monkeypatch.setattr(glm, "confounder_design", real)
    varying, keep = _varying(dataset)
    evaluator = stats.make_evaluator(varying, spec)
    model = samplers.fit_for_strategy(sampler, dataset.x, dataset.z, spline_df, dataset.z_kinds)
    draws = samplers.draw_for_strategy(sampler, model, plan.seed, range(1, 10))
    xs = np.concatenate([dataset.x[None], draws])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tm, tc, _ = evaluator.pairs(xs, observed=True)
    assert tensor.planes[0][:, keep].tobytes() == tm.tobytes()
    assert tensor.planes[1][:, keep].tobytes() == tc.tobytes()


@pytest.mark.parametrize("stat,fits", [("glm:gaussian", 2), ("basis-wald", 1)])
def test_outcomes_are_residualised_once_per_model(monkeypatch, stat, fits):
    # the evaluator residualises the outcome block on each model's fixed
    # columns when it is built, [1, z] and [1] for the gaussian GLM and
    # the confounder spline for basis Wald (whose marginal model has no
    # fixed columns to fit); the chunks reuse those residuals
    dataset = make_dataset(stat, "residual-perm", 1)
    spec = make_spec(stat)
    varying, _ = _varying(dataset)
    monkeypatch.setattr(engine, "_CHUNK_CELLS", 5 * stats.make_evaluator(varying, spec).draw_cells)
    shapes = _counting_evaluators(monkeypatch)
    fitted_shapes = []
    real = glm.Residualiser.fitted

    def fitted(self, v):
        fitted_shapes.append(np.shape(v))
        return real(self, v)

    monkeypatch.setattr(glm.Residualiser, "fitted", fitted)
    engine.build_tensor(dataset, make_plan("residual-perm", b=12), spec)
    assert len(shapes) == 3
    assert fitted_shapes.count(varying.y.shape) == fits


def test_hsic_outcome_bandwidths_are_made_once(monkeypatch):
    # the set-aside pass takes each varying outcome's median distance
    # once, and the evaluator reuses it as that kernel's bandwidth: while
    # it is built, only the kernels of [y, z] take their own medians. The
    # tensor has the bits of an evaluator that takes the medians again
    dataset = make_dataset("hsic", "residual-perm", 1)
    spec = make_spec("hsic")
    medians = []
    real = stats._median_distance

    def median_distance(d2):
        medians.append(d2.shape)
        return real(d2)

    built = []
    make = stats.make_evaluator

    def make_evaluator(*args, **kwargs):
        before = len(medians)
        evaluator = make(*args, **kwargs)
        built.append(len(medians) - before)
        return evaluator

    monkeypatch.setattr(stats, "_median_distance", median_distance)
    monkeypatch.setattr(stats, "make_evaluator", make_evaluator)
    plan = make_plan("residual-perm", b=4)
    tensor = engine.build_tensor(dataset, plan, spec)
    varying, keep = _varying(dataset)
    assert medians[: varying.m] == [(dataset.n, dataset.n)] * varying.m
    assert built == [varying.m]
    model = samplers.fit_for_strategy("residual-perm", dataset.x, dataset.z)
    draws = samplers.draw_for_strategy("residual-perm", model, plan.seed, range(1, 5))
    tm, tc, _ = make(varying, spec).pairs(np.concatenate([dataset.x[None], draws]), observed=True)
    assert tensor.planes[0][:, keep].tobytes() == tm.tobytes()
    assert tensor.planes[1][:, keep].tobytes() == tc.tobytes()
