"""The packed-key sort of a pooled axis: exact against np.sort and np.argsort,
repaired where values share a key prefix, and within its memory bound."""

import tracemalloc

import numpy as np
import pytest

from fdr2d import _accel

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SPECIALS = (0.0, -0.0, _accel.STAT_CAP, np.inf, np.nan)
NEGATIVES = (-1.5, -_accel.STAT_CAP, -np.inf, np.copysign(np.nan, -1.0))


def _low(n):
    # the mask of the index bits of an axis of n keys
    return np.uint64((1 << max(n - 1, 0).bit_length()) - 1)


def _prefix_cluster(values, at, start):
    # values that share their key prefix and differ only in low mantissa
    # bits, at the ascending positions at, in reverse index order, so the
    # key sort leaves them out of value order
    prefix = np.float64(start).view(np.uint64) & ~_low(values.size)
    bits = prefix + np.arange(at.size, dtype=np.uint64)[::-1]
    values[at] = bits.view(np.float64)


@st.composite
def _axes(draw):
    # (values, negatives): a gamma axis of a size around powers of two,
    # with prefix clusters (some repeating a value), specials (ties, +-0,
    # STAT_CAP, inf, NaN) and sometimes negatives
    sizes = st.sampled_from([0, 1, 2, 3, 4, 5, 8, 9, 1024, 1025, 8192, 8193])
    n = draw(st.one_of(sizes, st.integers(0, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.gamma(2.0, size=n)
    if n:
        values[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    low = int(_low(n))
    for _ in range(draw(st.integers(0, 3))):
        size = min(n, low + 1, draw(st.integers(2, 40)))
        if size >= 2:
            at = np.sort(rng.choice(n, size, replace=False))
            _prefix_cluster(values, at, rng.choice([1e-300, 0.5, 3.0, 1e12, 1e300]))
            if draw(st.booleans()):
                # ties inside the run: its values drawn again, with repeats
                values[at] = rng.choice(values[at], size)
    specials = SPECIALS + (NEGATIVES if draw(st.booleans()) else ())
    if n:
        picks = rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.3]))
        values[picks] = rng.choice(specials, int(picks.sum()))
    # -0.0 is keyed as +0.0; any other sign bit, a negative NaN's too,
    # makes sort_order fall back to np.argsort
    return values, bool(np.signbit(values[values != 0.0]).any())


def _thresholds(values, rng):
    # an ascending threshold set: some distinct finite values, 0 and inf
    finite = np.unique(values[np.isfinite(values)])
    pick = finite[rng.random(finite.size) < 0.3]
    return np.unique(np.concatenate([[0.0, np.inf], pick]))


class TestSortOrder:
    @settings(max_examples=300, deadline=None)
    @given(_axes())
    def test_order_sorts_like_argsort(self, axis):
        values, negative = axis
        order, repaired = _accel.sort_order(values)
        assert order.dtype == np.intp and order.shape == values.shape
        np.testing.assert_array_equal(np.sort(order), np.arange(values.size))
        ascending = values[order]
        assert np.array_equal(ascending, np.sort(values), equal_nan=True)
        # a sign bit set on any value but -0.0 is the argsort fallback
        assert (repaired is None) == negative
        if not negative:
            # equal values, repaired runs' too, stay in index order
            np.testing.assert_array_equal(order, np.argsort(values, kind="stable"))
        # any sorting order gives the argsort route's bins
        argsort = np.argsort(values)
        rng = np.random.default_rng(values.size)
        t = _thresholds(values, rng)
        np.testing.assert_array_equal(
            _accel.exceed_bins(order, ascending, t), _accel.exceed_bins(argsort, values[argsort], t)
        )

    @pytest.mark.parametrize("n", [2, 3, 4096, 2**13 + 1, 40_000])
    def test_reversed_prefix_cluster_is_repaired(self, n):
        # a run of values one ulp apart in reverse index order, longer
        # than a block when the axis allows, among gamma values
        rng = np.random.default_rng(n)
        values = rng.gamma(2.0, size=n)
        at = np.sort(rng.choice(n, min(n, int(_low(n)) + 1, 10_000), replace=False))
        _prefix_cluster(values, at, 3.0)
        order, repaired = _accel.sort_order(values)
        assert repaired == 1
        want = np.sort(values)
        np.testing.assert_array_equal(values[order].view(np.uint64), want.view(np.uint64))

    def test_negative_zero_and_empty_need_no_fallback(self):
        for values in (np.zeros(0), np.array([-0.0]), np.array([0.0, -0.0, 1.0, -0.0, 0.0])):
            order, repaired = _accel.sort_order(values)
            assert repaired == 0
            assert np.array_equal(values[order], np.sort(values))

    def test_memory_is_the_keys_and_the_sorted_copy(self):
        # a 2^18 + 1 axis with ties and two reversed prefix runs, one of them
        # longer than a block: the keys are its only full-length array, so
        # the sort with its repairs peaks at 8 bytes per value plus a few
        # blocks of scratch, and with the gathered sorted copy at 16 bytes
        # per value plus one block
        rng = np.random.default_rng(5)
        n = 2**18 + 1
        values = rng.gamma(2.0, size=n)
        values[rng.random(n) < 0.2] = 0.0
        for size, start in ((5, 0.5), (20_000, 3.0)):
            _prefix_cluster(values, np.sort(rng.choice(n, size, replace=False)), start)
        block = 8 * _accel._KEY_BLOCK
        tracemalloc.start()
        try:
            order, repaired = _accel.sort_order(values)
            sort_peak = tracemalloc.get_traced_memory()[1]
            ascending = values[order]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert repaired >= 2
        assert np.array_equal(ascending, np.sort(values))
        assert sort_peak <= 8 * n + 8 * block, (sort_peak - 8 * n) / block
        assert peak <= 16 * n + block, (peak - 16 * n) / block
