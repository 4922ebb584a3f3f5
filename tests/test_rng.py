"""The batched draw substreams against numpy's own SeedSequence: the same
PCG64 state and the same numbers for every seed width and key, and a
refusal, with no warning, of what the batch does not derive."""

import warnings

import numpy as np
import pytest

from fdr2d import _rng

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# one to seven 32-bit words: fewer words than the pool, exactly as many
# (substream_seed's width is two), and more
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1, 2**128 + 5, 2**200]
KEYS = [0, 1, 100, 2**32 - 1]


def _assert_numpy_streams(seed, keys):
    gens = _rng.substreams(seed, keys)
    assert len(gens) == len(keys)
    for gen, key in zip(gens, keys):
        oracle = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))
        assert gen.bit_generator.state == oracle.bit_generator.state
        assert np.array_equal(gen.random(5), oracle.random(5))


@pytest.mark.parametrize("seed", SEEDS)
def test_each_generator_is_numpys_keyed_stream(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_numpy_streams(seed, KEYS)
        _assert_numpy_streams(seed, [])


def test_each_generator_is_the_substream_of_its_key():
    keys = range(1, 41)
    for gen, key in zip(_rng.substreams(11, keys), keys):
        assert np.array_equal(gen.permutation(60), _rng.substream(11, key).permutation(60))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**300)),
    keys=st.lists(st.integers(0, 2**32 - 1), max_size=12),
)
def test_any_seed_and_key_list_gives_numpys_streams(seed, keys):
    _assert_numpy_streams(seed, keys)


@pytest.mark.parametrize(
    "seed,keys,message",
    [
        (-1, [0], "seed must be a non-negative integer, got -1"),
        (-(2**40), [], "seed must be a non-negative integer, got -1099511627776"),
        (0, [2**32], "keys must be a list of integers in"),
        (0, [0, 2**64], "keys must be a list of integers in"),
        (0, [-1], "keys must be a list of integers in"),
        (0, ["rep"], "keys must be a list of integers in"),
        (0, [1.0], "keys must be a list of integers in"),
        (0, 3, "keys must be a list of integers in"),
    ],
)
def test_refuses_what_it_does_not_derive(seed, keys, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            _rng.substreams(seed, keys)


def test_state_words_seed_only_a_pcg64():
    (gen,) = _rng.substreams(3, [1])
    with pytest.raises(ValueError, match="seed only a PCG64"):
        gen.bit_generator.seed_seq.generate_state(8)
