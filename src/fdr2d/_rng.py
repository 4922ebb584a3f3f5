"""Deterministic random-stream derivation.

Every stochastic component (resampling draws, simulation replications)
pulls its generator from a root seed plus a key path, so streams are
independent of each other and of execution order.
"""

import functools
import zlib

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the
# entropy hash's initial value and multiplier, the output hash's, the
# pool mix's two multipliers, the xor shift of all three and the pool
# size. substreams restates SeedSequence with them, and the tests hold
# it to numpy's own SeedSequence bit for bit.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _normalize_key(key):
    if isinstance(key, (int, np.integer)):
        if key < 0:
            raise ValueError("substream keys must be non-negative")
        return int(key)
    # crc32 is stable across platforms and runs, unlike hash()
    return zlib.crc32(str(key).encode("utf-8"))


def substream(seed, *keys):
    """Generator for the stream identified by ``seed`` and ``keys``.

    Keys may be non-negative integers or strings. Derivation is
    counter-based (spawn keys), so ``substream(s, 3)`` is the same
    stream no matter how many other substreams were created first.
    """
    spawn_key = tuple(_normalize_key(k) for k in keys)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=spawn_key)
    return np.random.default_rng(ss)


def _hash_steps(hash_const, mult, count):
    # the xors and multipliers of count hash steps from hash_const: a
    # hash's constants never depend on the words it hashes
    xors, mults = [], []
    for _ in range(count):
        xors.append(hash_const)
        hash_const = hash_const * mult & _MASK32
        mults.append(hash_const)
    return xors, mults


def _hashmix(value, hash_const):
    # SeedSequence's hashmix on Python ints: (hashed value, next constant)
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> _XSHIFT, hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _seed_pool(seed):
    """SeedSequence(seed, spawn_key=(k,))'s pool before the key's word
    is mixed in, and the entropy hash's constant at that point: every
    pool word and cross-mix that reads only the seed's words."""
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    # a spawn key pads the seed's words to the pool size with zeros
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    return pool, hash_const


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
    constants do not depend on the data, so the seed's part is mixed
    once here, in Python ints. Only each key's word and the 8 state
    words it yields are computed per key, as uint32 arrays. Each PCG64
    is seeded straight from its 4 uint64 words, so a generator's
    ``bit_generator.seed_seq`` is not a SeedSequence and cannot spawn;
    nothing in the package, its tests or its benchmark reads it.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    keys = np.asarray(keys)
    if keys.ndim != 1 or keys.size and (
        keys.dtype.kind not in "iu" or keys.min() < 0 or keys.max() > _MASK32
    ):
        raise ValueError("substreams keys must be a list of integers in [0, 2**32)")
    pool, hash_const = _seed_pool(seed)
    xors, mults = _hash_steps(hash_const, _MULT_A, _POOL_SIZE)
    out_xors, out_mults = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    with np.errstate(over="ignore"):
        # the key word's hashmix into each pool word, then the mix
        key = keys.astype(np.uint32)[:, None]
        value = (key ^ np.array(xors, np.uint32)) * np.array(mults, np.uint32)
        value ^= value >> _XSHIFT
        mixed = np.array([_MIX_MULT_L * p & _MASK32 for p in pool], np.uint32)
        mixed = mixed - value * np.uint32(_MIX_MULT_R)
        mixed ^= mixed >> _XSHIFT
        # generate_state's 8 uint32 words, cycling through the pool
        state = np.concatenate([mixed, mixed], axis=1) ^ np.array(out_xors, np.uint32)
        state *= np.array(out_mults, np.uint32)
        state ^= state >> _XSHIFT
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    state_words = _state_words_type()
    return [np.random.Generator(np.random.PCG64(state_words(row))) for row in words]


def substream_seed(seed, *keys):
    """Integer seed for the stream identified by ``seed`` and ``keys``.

    Use when a component needs to hand a plain seed onward (for example
    a per-replication seed that later spawns its own sampler streams).
    """
    spawn_key = tuple(_normalize_key(k) for k in keys)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=spawn_key)
    return int(ss.generate_state(2, dtype=np.uint32).view(np.uint64)[0])
