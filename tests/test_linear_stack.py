"""The least-squares statistics (gaussian GLM Wald, basis Wald) on a
draw stack.

Both score every draw through stats._linear_block_stack, which takes
the fixed columns ([1, z] for the gaussian GLM, the confounder basis for
basis Wald) apart from the stack of exposure blocks: one residualisation
on the fixed columns and one batched QR, with the rank rule
glm.rank_deficient on each R diagonal against its raw column's norm, and
the residual sum of squares summed from the residuals where the block
fits near-perfectly. The evaluators score stacks only, so one exposure
is a stack of one. These tests hold the edge cases to the scalar
reference forms, which fit the joint design with their own QR.
"""

import warnings

import numpy as np
import pytest

import reference
from fdr2d import _accel, core, glm, stats

KINDS = ("glm:gaussian", "basis-wald")


def _evaluator(dataset, kind):
    return stats.make_evaluator(dataset, stats.StatisticSpec.from_token(kind))


def _inputs(seed, n=50, m=6, x=None):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 1))
    if x is None:
        x = 0.5 * z + rng.normal(size=(n, 1))
    y = 0.4 * x - 0.3 * z + rng.normal(size=(n, m))
    return x, y, z, rng


@pytest.mark.parametrize("kind", KINDS)
def test_draw_singular_only_jointly(kind):
    # draw 1 is the confounder plus noise at 1e-11: residualised on the
    # confounders it is a small but well-conditioned column, and only its
    # R diagonal against the raw draw's norm shows the draw is singular
    x, y, z, rng = _inputs(11)
    ds = core.Dataset(x=x, y=y, z=z)
    evaluator = _evaluator(ds, kind)
    stack = x[None] + rng.normal(scale=0.5, size=(3,) + x.shape)
    stack[1] = z + 1e-11 * rng.normal(size=z.shape)
    fixed = np.column_stack([np.ones(ds.n), z])
    resid = reference.ols_many(fixed, stack[1]).residuals
    reference.ols_many(resid, y)  # the residualised block alone passes the rank rule
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tm, tc, failed = evaluator.pairs(stack)
        single = [evaluator.pairs(xd[None]) for xd in stack]
    assert np.all(tc[1] == 0.0)
    assert failed == ds.m
    assert [s[2] for s in single] == [0, ds.m, 0]
    for d in (0, 2):
        np.testing.assert_allclose(tm[d], single[d][0][0], rtol=1e-12)
        np.testing.assert_allclose(tc[d], single[d][1][0], rtol=1e-12)
    observed = core.Dataset(x=stack[1].copy(), y=y, z=z)
    with pytest.raises(ValueError, match="singular"):
        _evaluator(observed, kind).pairs(observed.x[None], observed=True)


def test_gaussian_glm_block_singular_only_jointly():
    # two exposure columns, each the confounder plus 1e-11 noise: the
    # residualised block is well-conditioned on its own, the joint design
    # is singular
    x, y, z, rng = _inputs(12)
    block = z + 1e-11 * rng.normal(size=(x.shape[0], 2))
    full = np.column_stack([np.ones(x.shape[0]), block, z])
    resid = reference.ols_many(np.delete(full, [1, 2], axis=1), block).residuals
    reference.ols_many(resid, y)
    stat, status = stats._glm_wald(block[None], z, y, "gaussian", None, observed=False)
    assert np.all(stat == 0.0) and np.all(status == 3)
    with pytest.raises(ValueError, match="feature 0: singular design on observed data"):
        stats._glm_wald(block[None], z, y, "gaussian", None, observed=True)


def _reference(kind, y, x, z):
    if kind == "glm:gaussian":
        return reference.model_stat_pair(y, x, z, "gaussian")
    return reference.basis_wald_pair(y, x, z, j1=5, j2=5)


def _near_perfect_inputs():
    # columns 0 and 1 leave residuals 1e-9 of the response, 2 and 3 fit
    # exactly, through the exposure and without it, 4 leaves 2e-5, so its
    # chi-square scale basis Wald (about 1e11) stays under STAT_CAP, and
    # 5 fits exactly with a negligible exposure coefficient
    x, y, z, rng = _inputs(13, m=7)
    n = x.shape[0]
    y[:, 0] = 1.3 * x[:, 0] - 0.7 * z[:, 0] + 1e-9 * rng.normal(size=n)
    y[:, 1] = 0.4 - 0.9 * x[:, 0] + 0.2 * z[:, 0] + 1e-9 * rng.normal(size=n)
    y[:, 2] = 1.3 * x[:, 0] - 0.7 * z[:, 0]
    y[:, 3] = 0.5 - 0.7 * z[:, 0]
    y[:, 4] = 1.3 * x[:, 0] - 0.7 * z[:, 0] + 2e-5 * rng.normal(size=n)
    y[:, 5] = 0.5 - 0.7 * z[:, 0] + 1e-11 * x[:, 0]
    return core.Dataset(x=x, y=y, z=z)


@pytest.mark.parametrize("kind", KINDS)
def test_near_perfect_and_exact_fits_match_the_scalar_forms(kind):
    # ||r||^2 - qf cancels when the block explains almost all of y; the
    # rss summed from the residuals keeps those statistics at the
    # reference's value (with the difference alone column 4 misses 1e-9).
    # A residual 1e-9 of the response carries about eps / 1e-9 = 2e-7
    # relative rounding in any float computation of it, so two
    # independent ones agree on columns 0 and 1 only to about that;
    # every other statistic to 1e-9
    ds = _near_perfect_inputs()
    x, y, z = ds.x, ds.y, ds.z
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (tm,), (tc,), failed = _evaluator(ds, kind).pairs(x[None], observed=True)
        want = np.array([_reference(kind, y[:, j], x, z) for j in range(ds.m)])
    got = np.column_stack([tm, tc])
    assert failed == 0
    cap = _accel.STAT_CAP
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    np.testing.assert_array_equal(got == cap, want == cap)
    np.testing.assert_allclose(got[:2], want[:2], rtol=1e-6, atol=0.0)
    np.testing.assert_allclose(got[2:], want[2:], rtol=1e-9, atol=0.0)
    assert got[2, 1] == cap and got[3, 1] == got[5, 1] == 0.0 and 1e5 < got[4, 1] < cap
    if kind == "glm:gaussian":
        # a |t| of order 1e10: finite, so it shows the rss it came from
        assert np.all((got[:2, 1] > 1e9) & (got[:2, 1] < cap))


def test_near_perfect_gaussian_wald_is_accurate():
    # the same near-perfect |t| in 60-digit arithmetic: the stack's
    # rounding stays at the eps / 1e-9 level
    mpmath = pytest.importorskip("mpmath")
    ds = _near_perfect_inputs()
    (tc,) = _evaluator(ds, "glm:gaussian").pairs(ds.x[None], observed=True)[1]
    full = np.column_stack([np.ones(ds.n), ds.x, ds.z])
    with mpmath.workdps(60):
        design = mpmath.matrix(full.tolist())
        ainv = (design.T * design) ** -1
        for j in (0, 1):
            yj = mpmath.matrix(ds.y[:, j].tolist())
            coef = ainv * (design.T * yj)
            rss = sum(v**2 for v in yj - design * coef)
            t = abs(coef[1]) / mpmath.sqrt(rss / (ds.n - 3) * ainv[1, 1])
            assert abs(tc[j] - float(t)) <= 1e-7 * float(t)


@pytest.mark.parametrize("kind", KINDS)
def test_rank_verdict_does_not_depend_on_the_responses(kind):
    # x = 1000 z + 1e-6 noise lies about 1e-9 of its norm from the span
    # of [1, z], eight times the rank tolerance; adding a column the draw
    # fits near-perfectly must not change whether the draw is scored
    rng = np.random.default_rng(14)
    n = 60
    z = rng.normal(size=(n, 1))
    x = 1000.0 * z + 1e-6 * rng.normal(size=(n, 1))
    y = rng.normal(size=(n, 4))
    near = 2.0 * x[:, 0] + z[:, 0] + 1e-9 * rng.normal(size=n)
    runs = []
    for ymat in (y, np.column_stack([y, near])):
        ds = core.Dataset(x=x, y=ymat, z=z)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (tm,), (tc,), failed = _evaluator(ds, kind).pairs(x[None])
        runs.append((tm[:4], tc[:4], failed // ds.m))
    assert runs[0][2] == runs[1][2]
    np.testing.assert_allclose(runs[1][0], runs[0][0], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(runs[1][1], runs[0][1], rtol=1e-12, atol=0.0)
    if kind == "glm:gaussian":
        assert runs[0][2] == 0
        ds = core.Dataset(x=x, y=np.column_stack([y, near]), z=z)
        (tc,) = _evaluator(ds, "glm:gaussian").pairs(x[None], observed=True)[1]
        assert np.all(np.isfinite(tc)) and tc[-1] > 0.0
