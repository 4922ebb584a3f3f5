"""Acceptance gate: every shipped claim, one test per criterion.

Each test prints one [PASS]/[FAIL] line (visible with -s; the -v test
status carries the same verdict) and enforces both the stated
tolerance and the stated runtime budget. The search-oracle brute
force is reimplemented here from scratch so the gate does not lean on
the engine it is judging.
"""

import time

import numpy as np
import pytest

import reference
from fdr2d import _rng, core, engine, glm, sim, stats


def _report(number, name, ok, elapsed, detail=""):
    verdict = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"[{verdict}] criterion {number}: {name} ({elapsed:.1f}s){extra}")
    assert ok, f"criterion {number} ({name}) failed:{extra}"


# ---------------------------------------------------------------- 1 --


def _brute_best(tensor, t1v, t2v, q, pi0, mode):
    """Quadruple-loop search; same arithmetic, no shared code."""
    p = tensor.pairs
    b1 = p.shape[0]
    tm = p[:, :, 0].ravel()
    tc = p[:, :, 1].ravel()
    valid = ~tensor.zero_variance
    om = p[0, valid, 0]
    oc = p[0, valid, 1]
    best = None
    for t1 in t1v:
        for t2 in t2v:
            cnt = int(np.count_nonzero((tm >= t1) & (tc >= t2)))
            r = int(np.count_nonzero((om >= t1) & (oc >= t2)))
            sumf = cnt / float(b1)
            crit = pi0 * sumf / max(1, r) if mode == "fdr" else pi0 * sumf
            if crit <= q and (
                best is None or r > best[0] or (r == best[0] and crit < best[1])
            ):
                best = (r, crit, float(t1), float(t2))
    return best


def _acceptance_tensor(rng):
    m = int(rng.integers(3, 31))
    b = int(rng.integers(1, 11))
    if rng.random() < 0.5:
        pairs = rng.integers(0, 8, size=(b + 1, m, 2)) / 2.0
    else:
        pairs = rng.gamma(1.2, size=(b + 1, m, 2))
    zv = np.zeros(m, dtype=bool)
    if rng.random() < 0.25:
        zv[rng.integers(m)] = True
        pairs[:, zv, :] = 0.0
    return core.StatTensor(pairs, zv)


def test_criterion_1_cutoff_search_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20240817)
    checked = 0
    for trial in range(200):
        tensor = _acceptance_tensor(rng)
        g = int(rng.integers(8, 40))
        spec = "observed" if rng.random() < 0.4 else f"quantile:{g}"
        grid = engine.make_grid(tensor, spec)
        if grid.t1_values.size > 40 or grid.t2_values.size > 40:
            grid = engine.Grid2D(grid.t1_values[:40], grid.t2_values[:40])
        q = float(rng.choice([0.05, 0.1, 0.25]))
        pi0 = float(rng.choice([1.0, 0.8]))
        config_grid = grid
        for mode, search in (
            ("fdr", reference.search),
            ("fwer", reference.search),
            ("one-dim", reference.search),
        ):
            if mode == "one-dim":
                use_grid = engine.Grid2D(np.zeros(1), config_grid.t2_values)
                want = _brute_best(
                    tensor, [0.0], config_grid.t2_values, q, pi0, "fdr"
                )
                got = search(tensor, use_grid, q, pi0, "fdr")
            else:
                want = _brute_best(
                    tensor, config_grid.t1_values, config_grid.t2_values, q, pi0, mode
                )
                got = search(tensor, config_grid, q, pi0, mode)
            if want is None:
                assert got.t1 == np.inf and got.n_rejected == 0
            else:
                r, crit, t1, t2 = want
                assert got.t1 == t1 and got.t2 == t2
                assert got.fdp_estimate == crit
                p0 = tensor.pairs[0]
                rej = np.flatnonzero(
                    ~tensor.zero_variance & (p0[:, 0] >= t1) & (p0[:, 1] >= t2)
                )
                np.testing.assert_array_equal(got.rejected, rej)
            checked += 1
    elapsed = time.perf_counter() - started
    _report(
        1,
        "cutoff search matches brute force",
        checked == 600 and elapsed < 60,
        elapsed,
        f"600 searches, exact t1/t2/criterion/rejected-set equality",
    )


# ---------------------------------------------------------------- 2 --


def test_criterion_2_finite_sample_control():
    started = time.perf_counter()
    rng = np.random.default_rng(7011)
    q = 0.1
    fdp = np.empty(1000)
    for rep in range(1000):
        pairs = np.abs(rng.standard_normal((20, 50, 2)))
        tensor = core.StatTensor(pairs, np.zeros(50, dtype=bool))
        path = engine.default_path(tensor, 25)
        res = engine.ordered_grid_procedure(tensor, path, q)
        # fully null: every rejection is false
        fdp[rep] = 1.0 if res.n_rejected > 0 else 0.0
    fdr = float(fdp.mean())
    se = float(fdp.std(ddof=1) / np.sqrt(fdp.size))
    elapsed = time.perf_counter() - started
    _report(
        2,
        "exchangeable path controls FDR on null tensors",
        fdr <= q + 2 * se and elapsed < 120,
        elapsed,
        f"empirical FDR {fdr:.4f} vs bound {q + 2 * se:.4f} (m=50, B=19, 1000 reps)",
    )


# ---------------------------------------------------------------- 3 --


def _dgp1_comparison(rho, reps=50):
    cfg = sim.SimConfig(
        dgp=1,
        n=100,
        m=500,
        rho=rho,
        pi=0.1,
        l=0.3,
        reps=reps,
        seed=2718,
        procedure=engine.ProcedureConfig(q=0.05, grid="quantile:100"),
        statistic=engine.StatisticSpec(kind="glm", family="gaussian"),
        sampler=engine.ResamplePlan("residual-perm", b_count=100, seed=0),
    )
    return sim.run_method_comparison(cfg, ("mf2d-fdr", "mf1d"))


def test_criterion_3_simulation_reproduction():
    started = time.perf_counter()
    results = {rho: _dgp1_comparison(rho) for rho in (0.1, 1.0)}
    problems = []
    gaps = {}
    for rho, table in results.items():
        two = table["mf2d-fdr"]
        one = table["mf1d"]
        bound = 0.05 + 2 * two.fdr_se
        if two.fdr > bound:
            problems.append(f"rho={rho}: FDR {two.fdr:.4f} > {bound:.4f}")
        if two.power < one.power:
            problems.append(f"rho={rho}: aggregate power 2d < 1d")
        if np.any(two.per_rep_rejections < one.per_rep_rejections):
            problems.append(f"rho={rho}: a replication had fewer 2d rejections")
        gaps[rho] = two.power - one.power
    if not gaps[1.0] > gaps[0.1]:
        problems.append(
            f"power gap at rho=1 ({gaps[1.0]:.4f}) not above rho=0.1 ({gaps[0.1]:.4f})"
        )
    elapsed = time.perf_counter() - started
    detail = (
        f"FDR(rho=1)={results[1.0]['mf2d-fdr'].fdr:.4f}, "
        f"gap(rho=0.1)={gaps[0.1]:.4f}, gap(rho=1)={gaps[1.0]:.4f}; " + "; ".join(problems)
    )
    _report(
        3,
        "desk-scale DGP 1 control and dominance",
        not problems and elapsed < 600,
        elapsed,
        detail,
    )


# ---------------------------------------------------------------- 4 --


def test_criterion_4_global_null():
    started = time.perf_counter()
    cfg = sim.SimConfig(
        dgp=1,
        n=100,
        m=200,
        rho=1.0,
        pi=0.1,
        l=0.3,
        reps=200,
        seed=31415,
        global_null=True,
        procedure=engine.ProcedureConfig(q=0.05, grid="quantile:100"),
        statistic=engine.StatisticSpec(kind="glm", family="gaussian"),
        sampler=engine.ResamplePlan("residual-perm", b_count=100, seed=0),
    )
    table = sim.run_method_comparison(cfg, ("mf2d-fdr", "mf1d"))
    fractions = {
        m: float(np.mean(table[m].per_rep_rejections == 0)) for m in table
    }
    ok = all(v >= 0.95 for v in fractions.values())
    elapsed = time.perf_counter() - started
    _report(
        4,
        "global null yields no rejections",
        ok and elapsed < 180,
        elapsed,
        f"zero-rejection fraction mf2d {fractions['mf2d-fdr']:.3f}, mf1d {fractions['mf1d']:.3f}",
    )


# ---------------------------------------------------------------- 5 --


def _oracle_gaussian_kernel(pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float).T).T
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    d2 = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            d2[a, b] = np.sum((pts[a] - pts[b]) ** 2)
    dists = [np.sqrt(d2[a, b]) for a in range(n) for b in range(a + 1, n)]
    bw = float(np.median(dists))
    return np.exp(-d2 / (2.0 * bw * bw))


def _oracle_hsic_double_sum(x, y):
    kx = _oracle_gaussian_kernel(x)
    ky = _oracle_gaussian_kernel(y)
    n = kx.shape[0]
    h = np.eye(n) - np.ones((n, n)) / n
    kxc = h @ kx @ h
    kyc = h @ ky @ h
    total = 0.0
    for a in range(n):
        for b in range(n):
            total += kxc[a, b] * kyc[a, b]
    return total / n


def test_criterion_5_statistic_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(555)
    for _ in range(20):
        x = rng.standard_normal(30)
        y = rng.standard_normal(30) + 0.5 * x
        np.testing.assert_allclose(
            reference.hsic(x, y), _oracle_hsic_double_sum(x, y), rtol=1e-10
        )
    for _ in range(20):
        u = rng.standard_normal(40)
        v = rng.standard_normal(40) + 0.3 * u
        np.testing.assert_allclose(
            reference.rv_coefficient(u, v),
            np.corrcoef(u, v)[0, 1] ** 2,
            rtol=1e-12,
        )
    for _ in range(10):
        xb = (rng.random(60) < 0.5).astype(float)
        yb = (rng.random(60) < 0.4).astype(float)
        if len(np.unique(xb)) < 2 or len(np.unique(yb)) < 2:
            continue
        chi = reference.pearson_chi_square(xb, yb)
        mh = reference.mantel_haenszel(xb, yb, np.zeros(60, dtype=np.int64))
        np.testing.assert_allclose(mh, (59 / 60) * chi, rtol=1e-10)
    table = reference.pearson_chi_square(
        np.repeat([0.0, 0.0, 1.0, 1.0], [10, 20, 20, 10]),
        np.repeat([0.0, 1.0, 0.0, 1.0], [10, 20, 20, 10]),
    )
    np.testing.assert_allclose(table, 6.6667, atol=1e-3)
    elapsed = time.perf_counter() - started
    _report(
        5,
        "statistic oracles (hsic, rv, MH, chi-square)",
        elapsed < 30,
        elapsed,
        "all four oracle comparisons held at stated tolerances",
    )


# ---------------------------------------------------------------- 6 --


def _loglik_and_grad(family, design, y, coef, size=3.0):
    eta = design @ coef

    def ll(c):
        e = design @ c
        if family == "gaussian":
            return -0.5 * np.sum((y - e) ** 2)
        if family == "binomial":
            return float(np.sum(y * e - np.log1p(np.exp(e))))
        if family == "poisson":
            return float(np.sum(y * e - np.exp(e)))
        return float(np.sum(y * e - (y + size) * np.log(size + np.exp(e))))

    h = 1e-6
    grad = np.empty(coef.size)
    for i in range(coef.size):
        up = coef.copy()
        dn = coef.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (ll(up) - ll(dn)) / (2 * h)
    return grad


def test_criterion_6_glm_numerics():
    started = time.perf_counter()
    rng = np.random.default_rng(66)
    worst = 0.0
    for family in glm.FAMILIES:
        for _ in range(5):
            n = 80
            design = np.column_stack(
                [np.ones(n), rng.standard_normal(n), rng.standard_normal(n)]
            )
            eta = design @ np.array([0.2, 0.5, -0.4])
            if family == "gaussian":
                y = eta + rng.standard_normal(n)
            elif family == "binomial":
                y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
            elif family == "poisson":
                y = rng.poisson(np.exp(eta)).astype(float)
            else:
                mu = np.exp(eta)
                y = rng.negative_binomial(3.0, 3.0 / (3.0 + mu)).astype(float)
            fit = reference.fit_glm(design, y, family, max_iter=200, tol=1e-12, size=3.0)
            assert fit.converged, f"{family} fit did not converge"
            grad = _loglik_and_grad(family, design, y, fit.coef)
            worst = max(worst, float(np.linalg.norm(grad)))
    assert worst <= 1e-6, f"worst finite-difference score norm {worst:.2e}"

    for _ in range(5):
        n = 60
        design = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = design @ np.array([1.0, -0.5, 0.25]) + rng.standard_normal(n)
        np.testing.assert_allclose(
            reference.fit_glm(design, y, "gaussian").coef,
            reference.ols(design, y).coef,
            atol=1e-10,
        )

    # null conditional basis statistic: mean approximately J1
    n, m = 100, 2000
    z = rng.standard_normal(n)
    x = 0.8 * z + rng.standard_normal(n)
    y = rng.standard_normal((n, m))
    ds = core.Dataset(x=x, y=y, z=z)
    ev = stats.make_evaluator(ds, stats.StatisticSpec("basis-wald", spline_df=5))
    _, (tc,), _ = ev.pairs(ds.x[None], observed=True)
    mean_tc = float(np.mean(tc))
    ok = abs(mean_tc - 5.0) <= 0.5
    elapsed = time.perf_counter() - started
    _report(
        6,
        "GLM score conditions and basis statistic calibration",
        ok and elapsed < 60,
        elapsed,
        f"max score norm {worst:.2e}, null basis mean {mean_tc:.3f} (target 5 +/- 0.5)",
    )


# ---------------------------------------------------------------- 7 --


def test_criterion_7_property_suites():
    import test_properties as props

    started = time.perf_counter()
    props.check_fbar_monotone()
    props.check_statistics_nonnegative_bounded()
    props.check_row_permutation_symmetry()
    props.check_sampler_multisets()
    props.check_seed_determinism()
    elapsed = time.perf_counter() - started
    _report(
        7,
        "property suites (5 properties, >=100 cases each)",
        elapsed < 120,
        elapsed,
        "monotonicity, boundedness, permutation symmetry, multisets, determinism",
    )


# ---------------------------------------------------------------- 8 --


def test_criterion_8_fwer_variant():
    started = time.perf_counter()
    cfg = sim.SimConfig(
        dgp=1,
        n=100,
        m=200,
        rho=1.0,
        pi=0.1,
        l=0.3,
        reps=100,
        seed=9099,
        procedure=engine.ProcedureConfig(q=0.05, grid="quantile:100"),
        statistic=engine.StatisticSpec(kind="glm", family="gaussian"),
        sampler=engine.ResamplePlan("residual-perm", b_count=100, seed=0),
    )
    summary = sim.run_method_comparison(cfg, ["mf2d-fwer"])["mf2d-fwer"]
    # a replication commits a family-wise error iff any rejection is false
    any_false = summary.per_rep_fdp > 0
    fwer = float(np.mean(any_false))
    se = float(np.std(any_false.astype(float), ddof=1) / np.sqrt(any_false.size))
    ok = fwer <= 0.05 + 2 * se
    elapsed = time.perf_counter() - started
    _report(
        8,
        "FWER variant is controlled",
        ok and elapsed < 300,
        elapsed,
        f"empirical FWER {fwer:.4f} vs bound {0.05 + 2 * se:.4f} over 100 reps",
    )
