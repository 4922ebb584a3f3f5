"""Deterministic random-stream derivation.

Every stochastic component (resampling draws, simulation replications)
pulls its generator from a root seed plus a key path, so streams are
independent of each other and of execution order. numpy's SeedSequence
derives every stream: substreams reads a batch's seed pool from it and
computes only each key's mix and state words itself. numpy.random is
reached at call time, so importing this module does not load it.
"""

import functools
import zlib

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the
# entropy hash's initial value and multiplier, the output hash's, the
# pool mix's two multipliers and the xor shift of all three. substreams
# takes the seed's pool from numpy and restates with them only the key's
# mix and the output hash; the tests hold it to numpy's own SeedSequence
# bit for bit.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _normalize_key(key):
    if isinstance(key, (int, np.integer)):
        if key < 0:
            raise ValueError("substream keys must be non-negative")
        return int(key)
    # crc32 is stable across platforms and runs, unlike hash()
    return zlib.crc32(str(key).encode("utf-8"))


def _sequence(seed, keys):
    spawn_key = tuple(_normalize_key(k) for k in keys)
    return np.random.SeedSequence(entropy=int(seed), spawn_key=spawn_key)


def substream(seed, *keys):
    """Generator for the stream identified by ``seed`` and ``keys``.

    Keys may be non-negative integers or strings. Derivation is
    counter-based (spawn keys), so ``substream(s, 3)`` is the same
    stream no matter how many other substreams were created first.
    """
    return np.random.default_rng(_sequence(seed, keys))


def _hash_consts(hash_const, mult, count):
    # a hash's next count + 1 constants: hashing a word xors it with one
    # and multiplies it by the next, whatever the words hashed
    consts = [hash_const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, np.uint32)


@functools.cache
def _state_words_type():
    # made on first use, so importing this module does not import
    # numpy.random
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """A seed sequence that is already its 4 uint64 PCG64 words."""

        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("these state words seed only a PCG64")
            return self.words

    return StateWords


def substreams(seed, keys):
    """The generators of ``[substream(seed, k) for k in keys]``, bit for bit.

    ``keys`` are integers in [0, 2**32). SeedSequence mixes a seed's
    words into its pool before the spawn key's word, and its hash
    constants do not depend on the data, so the seed's pool is read once
    from numpy's own ``SeedSequence(seed).pool``. Only each key's word
    and the 8 state words it yields are computed per key, as uint32
    arrays. Each PCG64 is seeded straight from its 4 uint64 words, so a
    generator's ``bit_generator.seed_seq`` is not a SeedSequence and
    cannot spawn; nothing in the package, its tests or its benchmark
    reads it.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    keys = np.asarray(keys)
    if keys.ndim != 1 or keys.size and (
        keys.dtype.kind not in "iu" or keys.min() < 0 or keys.max() > _MASK32
    ):
        raise ValueError("substreams keys must be a list of integers in [0, 2**32)")
    # the key's word comes after the seed's, padded with zeros to the
    # pool's size; the entropy hash took one step per pool word, one per
    # cross-mix and one per pool word for each seed word past the pool
    pool = np.random.SeedSequence(seed).pool
    width = max(1, -(-seed.bit_length() // 32))
    steps = pool.size * max(pool.size, width)
    h = _hash_consts(_INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32, _MULT_A, pool.size)
    out = _hash_consts(_INIT_B, _MULT_B, 2 * pool.size)
    with np.errstate(over="ignore"):
        # the key word's hashmix into each pool word, then the mix
        value = (keys.astype(np.uint32)[:, None] ^ h[:-1]) * h[1:]
        value ^= value >> _XSHIFT
        mixed = pool * np.uint32(_MIX_MULT_L) - value * np.uint32(_MIX_MULT_R)
        mixed ^= mixed >> _XSHIFT
        # generate_state's 8 uint32 words, cycling through the pool
        state = np.concatenate([mixed, mixed], axis=1) ^ out[:-1]
        state *= out[1:]
        state ^= state >> _XSHIFT
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    state_words = _state_words_type()
    return [np.random.Generator(np.random.PCG64(state_words(row))) for row in words]


def substream_seed(seed, *keys):
    """Integer seed for the stream identified by ``seed`` and ``keys``.

    Use when a component needs to hand a plain seed onward (for example
    a per-replication seed that later spawns its own sampler streams).
    """
    return int(_sequence(seed, keys).generate_state(2, dtype=np.uint32).view(np.uint64)[0])
