"""Kernel checks: dominance counts and the feature-batched GLM fits."""

import json
import os

import numpy as np
import pytest

from fdr2d import _accel

PIN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "glm_kernel_pin.json")


def _brute_counts(tm, tc, t1, t2):
    # direct definition, no binning tricks
    out = np.zeros((t1.size, t2.size), dtype=np.int64)
    for a, x in enumerate(t1):
        for b, y in enumerate(t2):
            out[a, b] = int(np.sum((tm >= x) & (tc >= y)))
    return out


class TestPairExceedCounts:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = rng.integers(1, 400)
            tm = rng.normal(size=n)
            tc = np.abs(rng.normal(size=n))
            # grids with ties against the data values to hit the >= edge
            t1 = np.sort(np.concatenate([rng.normal(size=5), tm[: min(3, n)]]))
            t2 = np.sort(np.concatenate([np.abs(rng.normal(size=4)), tc[: min(2, n)]]))
            expected = _brute_counts(tm, tc, t1, t2)
            got = _accel.pair_exceed_counts(tm, tc, t1, t2)
            np.testing.assert_array_equal(got, expected)

    def test_empty_pairs(self):
        tm = np.zeros(0)
        tc = np.zeros(0)
        out = _accel.pair_exceed_counts(tm, tc, np.array([0.0]), np.array([0.0]))
        assert out.shape == (1, 1) and out[0, 0] == 0

    def test_given_orders_and_chain_match_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = rng.integers(1, 300)
            # integer values: many ties among the data and with the thresholds
            tm = rng.integers(-3, 4, size=n).astype(float)
            tc = rng.integers(0, 5, size=n).astype(float)
            t1 = np.sort(rng.integers(-4, 5, size=rng.integers(1, 8)).astype(float))
            t2 = np.sort(rng.integers(-1, 6, size=t1.size).astype(float))
            orders = (np.argsort(tm), np.argsort(tc))
            want = _brute_counts(tm, tc, t1, t2)
            np.testing.assert_array_equal(_accel.pair_exceed_counts(tm, tc, t1, t2, orders), want)
            # a nondecreasing chain visits the diagonal of its own grid
            diag = np.diagonal(want)
            np.testing.assert_array_equal(_accel.chain_exceed_counts(tm, tc, t1, t2), diag)
            np.testing.assert_array_equal(
                _accel.chain_exceed_counts(tm, tc, t1, t2, orders), diag
            )


def _pin_cases():
    with open(PIN, "r", encoding="utf-8") as fh:
        return json.load(fh)["cases"]


@pytest.mark.parametrize("case", _pin_cases(), ids=lambda c: c["name"])
def test_wald_pair_many_matches_pin(case):
    # the pin holds the per-feature scalar kernel's outputs (see
    # tests/fixtures/pin_glm_kernel.py) but for binomial-degenerate
    # warn[0]: that column is separated by the exposure, which the
    # kernel now detects inside the loop (2) instead of running into the
    # iteration limit (1). Fitting each column alone must give the
    # batch's answer, so convergence masks cannot couple features
    d_full = np.array(case["d_full"], dtype=float)
    d_red = np.array(case["d_red"], dtype=float)
    ymat = np.array(case["ymat"], dtype=float)
    args = (case["p"], case["family"], case["nb_size"], case["max_iter"], case["tol"])
    tm, tc, warn = _accel.wald_pair_many(d_full, d_red, ymat, *args)
    np.testing.assert_array_equal(warn, case["warn"])
    np.testing.assert_allclose(tm, case["tm"], rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(tc, case["tc"], rtol=1e-9, atol=0.0)
    for j in range(ymat.shape[1]):
        one = _accel.wald_pair_many(d_full, d_red, ymat[:, j : j + 1], *args)
        assert one[2][0] == warn[j]
        np.testing.assert_allclose([one[0][0], one[1][0]], [tm[j], tc[j]], rtol=1e-12, atol=0.0)
