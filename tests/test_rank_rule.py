"""One rank rule, free of column scale and column order.

glm.rank_deficient compares each R diagonal with its own raw column's
norm, which is the R of the column-equilibrated design, and
_accel._cholesky compares each pivot with its own diagonal, the same
kind of rule in normal-equations form, with a looser tolerance. So
rescaling the exposure changes no verdict and no statistic, and a
nearly collinear design gets one verdict whatever its column order. A
singular confounder design is refused when the evaluator is built,
before the sampler is fitted.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import reference
from fdr2d import core, engine, glm, samplers, stats

STATS = ("glm:gaussian", "glm:binomial", "glm:poisson", "glm:negbinom", "rv", "basis-wald")


def _dataset(stat, seed, n=60, m=6):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 1))
    x = 0.6 * z + rng.normal(size=(n, 1))
    eta = 0.3 * x * np.where(np.arange(m) < 2, 1.0, 0.0) - 0.4 * z + 0.1
    if stat == "glm:binomial":
        y = (rng.random((n, m)) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    elif stat in ("glm:poisson", "glm:negbinom"):
        y = rng.poisson(np.exp(eta)).astype(float)
    else:
        y = eta + rng.normal(size=(n, m))
    return core.Dataset(x=x, y=y, z=z)


def _evaluator(ds, stat):
    size = 3.0 if stat.startswith("glm:") else None
    return stats.make_evaluator(ds, stats.StatisticSpec.from_token(stat, size=size))


def test_nearly_collinear_design_fits_in_either_column_order():
    # x = 1000 z + 1e-6 noise: each column is about 1e-9 of its norm
    # away from the span of the others, in either order
    rng = np.random.default_rng(14)
    n = 60
    z = rng.normal(size=(n, 1))
    x = 1000.0 * z + 1e-6 * rng.normal(size=(n, 1))
    y = rng.normal(size=(n, 3))
    one = np.ones((n, 1))
    fits = [reference.ols_many(np.hstack(cols), y) for cols in ((one, x, z), (one, z, x))]
    np.testing.assert_allclose(fits[0].sigma2, fits[1].sigma2, rtol=1e-6)
    evaluator = _evaluator(core.Dataset(x=x, y=y, z=z), "glm:gaussian")
    (tm,), (tc,), failed = evaluator.pairs(x[None], observed=True)
    assert failed == 0 and np.all(np.isfinite(tc)) and np.all(tc > 0.0)


@pytest.mark.parametrize("stat", STATS)
@pytest.mark.parametrize("seed", range(2))
def test_rescaling_the_exposure_changes_no_verdict_or_statistic(stat, seed):
    # the stack holds the observed exposure, permutations of it, a
    # constant draw and a draw in the confounder span; the last two
    # fail at every scale
    ds = _dataset(stat, seed)
    rng = np.random.default_rng(seed + 10)
    stack = np.stack(
        [ds.x]
        + [ds.x[rng.permutation(ds.n)] for _ in range(3)]
        + [np.full_like(ds.x, 0.7), 2.0 * ds.z + 1.0]
    )
    runs = []
    for scale in (1.0, 1e-6, 1e6):
        scaled = dataclasses.replace(ds, x=scale * ds.x)
        evaluator = _evaluator(scaled, stat)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evaluator.pairs(scaled.x[None], observed=True)
            runs.append(evaluator.pairs(scale * stack))
    # negbinom's log link is not canonical, so its IRLS converges
    # linearly and stops within tol * (1 + max|coef|) of the fit, a
    # bound that moves with the scale of x: its statistics agree only
    # to that accuracy
    atol = 1e-5 if stat == "glm:negbinom" else 0.0
    base = runs[0]
    assert base[2] == 2 * ds.m
    for tm, tc, failed in runs[1:]:
        assert failed == base[2]
        assert np.array_equal(tm[4:] == 0.0, base[0][4:] == 0.0)
        assert np.all(tc[4:] == 0.0)
        np.testing.assert_allclose(tm, base[0], rtol=1e-8, atol=atol)
        np.testing.assert_allclose(tc, base[1], rtol=1e-8, atol=atol)


def _singular_confounders(n=60, m=8):
    # z = [z1, z1 > 2] with z1 on six distinct values: the natural spline
    # of z1 (df 5) and the intercept already span every function of z1,
    # so [1, spline(z1), z2] is singular while each part is not
    rng = np.random.default_rng(3)
    z1 = np.repeat(np.arange(6.0), n // 6)
    z = np.column_stack([z1, (z1 > 2.0).astype(float)])
    x = 0.5 * z1[:, None] + rng.normal(size=(n, 1))
    y = 0.3 * x + rng.normal(size=(n, m))
    return core.Dataset(x=x, y=y, z=z)


@pytest.mark.parametrize("stat", ["rv", "basis-wald"])
def test_singular_confounder_design_is_refused_before_the_sampler(monkeypatch, stat):
    ds = _singular_confounders()
    design = glm.confounder_design(ds.z, spline_df=5, kinds=ds.z_kinds)
    assert glm.rank_deficient(np.linalg.qr(design, mode="r"), design)
    calls = []
    for name in ("fit_for_strategy", "draw_for_strategy"):
        monkeypatch.setattr(samplers, name, lambda *args, name=name, **kw: calls.append(name))
    plan = engine.ResamplePlan("residual-perm", b_count=19, seed=0)
    spec = engine.StatisticSpec(kind=stat, spline_df=5)
    with pytest.raises(ValueError, match="^singular confounder design on observed data$"):
        engine.build_tensor(ds, plan, spec)
    assert calls == []

