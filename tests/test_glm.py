"""Spline bases, and the least-squares, IRLS and projection oracles of
tests/reference.py that other tests check the package against.

Expected values in TestOlsOracle / TestIrlsOracle were computed by hand
from the closed-form estimators before the module was written.
"""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import reference
from fdr2d import glm


class TestOlsOracle:
    def test_three_point_line(self):
        # X'X = diag(3, 2), X'y = (0, 1) -> coef (0, 0.5)
        # residuals (-0.5, 1, -0.5) -> rss 1.5, df 1 -> sigma2 1.5
        # se = sqrt(1.5 * diag(1/3, 1/2)) = (sqrt(0.5), sqrt(0.75))
        x = np.array([-1.0, 0.0, 1.0])
        design = np.column_stack([np.ones(3), x])
        fit = reference.ols(design, np.array([-1.0, 1.0, 0.0]))
        np.testing.assert_allclose(fit.coef, [0.0, 0.5], atol=1e-14)
        np.testing.assert_allclose(fit.sigma2, 1.5, rtol=1e-14)
        np.testing.assert_allclose(
            fit.se, [0.7071067811865476, 0.8660254037844386], rtol=1e-13
        )
        np.testing.assert_allclose(fit.residuals, [-0.5, 1.0, -0.5], atol=1e-14)

    def test_matches_lstsq_on_random_problems(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(8, 60))
            k = int(rng.integers(2, 5))
            design = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
            y = rng.normal(size=n)
            fit = reference.ols(design, y)
            ref, *_ = np.linalg.lstsq(design, y, rcond=None)
            np.testing.assert_allclose(fit.coef, ref, rtol=1e-9, atol=1e-12)

    def test_singular_design_raises(self):
        n = 10
        x = np.linspace(0, 1, n)
        design = np.column_stack([np.ones(n), x, 2.0 * x])
        with pytest.raises(ValueError, match="singular design"):
            reference.ols(design, np.arange(n, dtype=float))

    def test_ols_many_columns_match_single_fits(self):
        rng = np.random.default_rng(22)
        n = 30
        design = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        ymat = rng.normal(size=(n, 4))
        ymat[:, 3] = design @ np.array([1.0, -2.0, 0.5])
        fit = reference.ols_many(design, ymat)
        for j in range(4):
            one = reference.ols(design, ymat[:, j])
            np.testing.assert_allclose(fit.coef[:, j], one.coef, rtol=1e-12)
            np.testing.assert_allclose(fit.residuals[:, j], one.residuals, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(fit.sigma2[j] * fit.ainv, one.cov, rtol=1e-12)
        np.testing.assert_allclose(fit.fitted + fit.residuals, ymat, rtol=1e-12, atol=1e-14)
        # the perfect-fit rule is per column
        assert fit.sigma2[3] == 0.0 and np.all(fit.sigma2[:3] > 0.0)

    def test_perfect_fit_sigma2_zero(self):
        x = np.linspace(-1, 1, 12)
        design = np.column_stack([np.ones(12), x])
        fit = reference.ols(design, 2.0 + 3.0 * x)
        assert fit.sigma2 == 0.0
        np.testing.assert_allclose(fit.coef, [2.0, 3.0], rtol=1e-12)


class TestIrlsOracle:
    def test_binomial_intercept_only(self):
        # balanced response -> logit(1/2) = 0; se = sqrt(1/(n/4)) = sqrt(0.5)
        y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        design = np.ones((8, 1))
        fit = reference.irls(design, y, "binomial")
        assert fit.converged
        np.testing.assert_allclose(fit.coef, [0.0], atol=1e-10)
        np.testing.assert_allclose(fit.se, [0.7071067811865476], rtol=1e-8)

    def test_poisson_intercept_only(self):
        # MLE mean = ybar = 2 -> coef log 2; se = 1/sqrt(n*mu) = 1/sqrt(6)
        design = np.ones((3, 1))
        fit = reference.irls(design, np.array([1.0, 2.0, 3.0]), "poisson")
        assert fit.converged
        np.testing.assert_allclose(fit.coef, [0.6931471805599453], rtol=1e-10)
        np.testing.assert_allclose(fit.se, [0.4082482904638631], rtol=1e-8)

    def test_negbinom_intercept_only(self):
        # score sum k(y - mu)/(mu + k) = 0 -> mu = ybar = 2
        # observed info weights (6/25)(y_i + 3) sum to 3.6 -> se = 1/sqrt(3.6)
        design = np.ones((3, 1))
        fit = reference.irls(design, np.array([1.0, 2.0, 3.0]), "negbinom", size=3.0)
        assert fit.converged
        np.testing.assert_allclose(fit.coef, [0.6931471805599453], rtol=1e-10)
        np.testing.assert_allclose(fit.se, [0.5270462766947299], rtol=1e-8)

    def test_gaussian_equals_ols(self):
        rng = np.random.default_rng(3)
        n = 40
        design = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        y = design @ np.array([1.0, -0.5, 0.25]) + rng.normal(size=n)
        ref = reference.ols(design, y)
        fit = reference.fit_glm(design, y, "gaussian")
        assert fit.converged
        np.testing.assert_allclose(fit.coef, ref.coef, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(fit.se, ref.se, rtol=1e-10)

    def test_separation_flagged(self):
        x = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
        y = (x > 0).astype(float)
        design = np.column_stack([np.ones(6), x])
        fit = reference.irls(design, y, "binomial")
        assert not fit.converged
        assert fit.reason == "separation"

    def test_score_vanishes_at_mle(self):
        # finite-difference gradient of the log likelihood at the MLE
        rng = np.random.default_rng(11)
        n = 60
        for family in ("binomial", "poisson", "negbinom"):
            x = rng.normal(size=n)
            design = np.column_stack([np.ones(n), x])
            eta = 0.4 * x - 0.2
            if family == "binomial":
                y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
            elif family == "poisson":
                y = rng.poisson(np.exp(eta)).astype(float)
            else:
                mu = np.exp(eta)
                y = rng.negative_binomial(3, 3 / (3 + mu)).astype(float)
            fit = reference.irls(design, y, family, size=3.0, tol=1e-12, max_iter=200)
            assert fit.converged
            grad = _fd_loglik_grad(design, y, family, fit.coef, 3.0)
            assert np.linalg.norm(grad) <= 1e-6

    def test_negbinom_requires_size(self):
        with pytest.raises(ValueError, match="size"):
            reference.irls(np.ones((5, 1)), np.ones(5), "negbinom")

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            reference.irls(np.ones((5, 1)), np.ones(5), "gamma")

    def test_gaussian_is_refused(self):
        # a gaussian response is a least-squares fit, ols_many's job
        with pytest.raises(ValueError, match="ols_many"):
            reference.irls(np.ones((5, 1)), np.arange(5.0), "gaussian")


def _loglik(design, y, family, coef, size=3.0):
    eta = design @ coef
    if family == "binomial":
        return float(np.sum(y * eta - np.log1p(np.exp(eta))))
    if family == "poisson":
        return float(np.sum(y * eta - np.exp(eta)))
    mu = np.exp(eta)
    return float(np.sum(y * np.log(mu / (mu + size)) + size * np.log(size / (mu + size))))


def _fd_loglik_grad(design, y, family, coef, size=3.0, h=1e-6):
    g = np.zeros_like(coef)
    for i in range(coef.size):
        up = coef.copy()
        dn = coef.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (_loglik(design, y, family, up, size) - _loglik(design, y, family, dn, size)) / (2 * h)
    return g


class TestNaturalCubicBasis:
    def test_df3_three_points_invertible(self):
        pts = np.array([0.5, 1.25, 2.5])
        basis = glm.natural_cubic_basis(pts, df=3)
        mat = basis.evaluate(pts)
        assert mat.shape == (3, 3)
        assert abs(np.linalg.det(mat)) > 1e-10

    def test_full_column_rank(self):
        rng = np.random.default_rng(5)
        for df in (3, 4, 5, 7):
            v = rng.normal(size=80)
            mat = glm.natural_cubic_basis(v, df=df).evaluate(v)
            assert mat.shape == (80, df)
            assert np.linalg.matrix_rank(mat) == df

    def test_reproduces_natural_spline(self):
        # a natural cubic interpolant through the basis knots lies in the
        # span of [1, basis], so regression recovers it exactly
        rng = np.random.default_rng(7)
        v = np.sort(rng.uniform(0, 10, size=120))
        for df in (4, 5, 6):
            basis = glm.natural_cubic_basis(v, df=df)
            knots = np.concatenate(
                [[basis.boundary_knots[0]], basis.interior_knots, [basis.boundary_knots[1]]]
            )
            heights = rng.normal(size=knots.size)
            target = CubicSpline(knots, heights, bc_type="natural")(v)
            design = np.column_stack([np.ones(v.size), basis.evaluate(v)])
            coef, *_ = np.linalg.lstsq(design, target, rcond=None)
            np.testing.assert_allclose(design @ coef, target, atol=1e-8)

    def test_linear_tails(self):
        v = np.linspace(0, 1, 50)
        basis = glm.natural_cubic_basis(v, df=4)
        far = np.array([-5.0, -4.0, 6.0, 7.0])
        mat = basis.evaluate(far)
        # second differences vanish where every basis function is linear
        left = mat[1] - mat[0]
        right = mat[3] - mat[2]
        slope_left = (basis.evaluate(np.array([-3.0])) - basis.evaluate(np.array([-4.0])))[0]
        slope_right = (basis.evaluate(np.array([8.0])) - basis.evaluate(np.array([7.0])))[0]
        np.testing.assert_allclose(left, slope_left, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(right, slope_right, rtol=1e-9, atol=1e-9)

    def test_too_few_distinct_values(self):
        with pytest.raises(ValueError, match="distinct"):
            glm.natural_cubic_basis(np.array([1.0, 1.0, 1.0, 2.0]), df=3)


class TestProjectionComplement:
    def test_idempotent_and_annihilates(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(10, 40))
            k = int(rng.integers(1, 5))
            basis = rng.normal(size=(n, k))
            proj = reference.projection_complement(basis)
            np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
            np.testing.assert_allclose(proj @ basis, 0.0, atol=1e-10)
            np.testing.assert_allclose(proj, proj.T, atol=1e-12)

    def test_rank_deficient_basis(self):
        n = 20
        x = np.linspace(0, 1, n)
        basis = np.column_stack([x, 2 * x, np.ones(n)])
        proj = reference.projection_complement(basis)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
        np.testing.assert_allclose(proj @ basis, 0.0, atol=1e-10)
        np.testing.assert_allclose(np.trace(proj), n - 2, rtol=1e-12)
