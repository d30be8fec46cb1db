"""Seed handling for reproducible synthesis.

Seeds are user-facing signed integers; numpy's SeedSequence wants
non-negative entropy, so the 64-bit two's-complement image is used.

Record-level randomness is derived from (seed, line id) alone, so a
record's picks do not depend on which other records are in the call or in
what order. :func:`record_picks` gives, for each record, exactly what

    np.random.default_rng(
        np.random.SeedSequence(seed & (2**64 - 1), spawn_key=(line_id,))
    ).integers(0, n, size=k)

returns: the SeedSequence hash, PCG64 seeding and its XSL-RR output, and
``Generator.integers``' 32-bit Lemire rejection, reproduced here. Building
those three numpy objects per record took most of the fuzzing time, so
every step runs once over uint64 arrays with one entry per line: the hash
on the line ids, then the 128-bit generator state as a high and a low
word, its 64x64-bit products built from 32-bit halves. Line ids must fit in
32 bits, so each spawn key is one uint32 word; the package gives row i of a
dataset line id i + 1.
"""

from __future__ import annotations

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# numpy.random.SeedSequence constants (pool of 4 uint32 words).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# numpy.random.PCG64 (PCG XSL-RR 128/64) multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def generator(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed & _MASK64)


def _hash_consts(init: int, mult: int):
    """Successive (xor, multiply) constant pairs of a SeedSequence hash."""
    h = init
    while True:
        nxt = (h * mult) & _MASK32
        yield h, nxt
        h = nxt


def _hashmix(value, consts):
    # Works alike on Python ints and uint64 arrays holding 32-bit values.
    xor, mul = next(consts)
    value = ((value ^ xor) * mul) & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _mul(a, b: int):
    """The 128-bit product of the uint64s `a` and `b`, as (high, low) words,
    built from 32-bit halves so that no partial product overflows."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    high = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return high, (mid << 32) | (p00 & _MASK32)


def _add(a_high, a_low, b_high, b_low):
    """(a + b) mod 2**128 on (high, low) words."""
    low = a_low + b_low
    return a_high + b_high + (low < a_low), low


def _step(high, low, inc_high, inc_low):
    """One PCG64 step, state * multiplier + inc mod 2**128."""
    p_high, p_low = _mul(low, _PCG_MULT & _MASK64)
    p_high += high * (_PCG_MULT & _MASK64) + low * (_PCG_MULT >> 64)
    return _add(p_high, p_low, inc_high, inc_low)


def record_picks(seed: int, line_ids: list[int], n: int, k: int) -> np.ndarray:
    """The first `k` uniform picks from ``range(n)`` of each line's stream.

    Returns a (len(line_ids), k) uint64 matrix whose row i equals numpy's
    picks for ``SeedSequence(seed, spawn_key=(line_ids[i],))`` (see the
    module docstring); a line that needs j picks takes the first j of its
    row. `n` must be below 2**32, the limit of the 32-bit draw this
    reproduces; line ids must be in [0, 2**32 - 1].
    """
    if not 1 <= n <= _MASK32:
        raise ValueError(
            f"n must be in [1, 2**32 - 1] (picks are 32-bit draws), got {n}"
        )
    if line_ids and (min(line_ids) < 0 or max(line_ids) > _MASK32):
        raise ValueError("line ids must be non-negative and below 2**32")
    if not line_ids or not k:
        return np.zeros((len(line_ids), k), dtype=np.uint64)

    # SeedSequence.mix_entropy. The seed's two uint32 words are padded to
    # the pool size because a spawn key is present, so the first two stages,
    # and the constants every later hash uses, depend only on the seed.
    consts = _hash_consts(_INIT_A, _MULT_A)
    e = seed & _MASK64
    pool = [_hashmix(w, consts) for w in (e & _MASK32, e >> 32, 0, 0)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], consts))

    # The spawn key, one uint32 word per line id.
    key = np.array(line_ids, dtype=np.uint64)
    mixer = [
        _mix(np.full(len(line_ids), p, dtype=np.uint64), _hashmix(key, consts))
        for p in pool
    ]

    # SeedSequence.generate_state(4, np.uint64): eight uint32 words, paired
    # little-endian into uint64s u0..u3; PCG64 takes (u0, u1) as its initial
    # state and (u2, u3) as its stream, high word first.
    consts = _hash_consts(_INIT_B, _MULT_B)
    state = [_hashmix(mixer[i % _POOL_SIZE], consts) for i in range(8)]
    u0, u1, u2, u3 = (state[2 * i] | (state[2 * i + 1] << 32) for i in range(4))

    # pcg64_set_seed: state = 0; inc = (initseq << 1) | 1; step;
    # state += initstate; step.
    inc = (u2 << 1) | (u3 >> 63), (u3 << 1) | 1
    high, low = _step(*_add(u0, u1, *inc), *inc)

    # Lemire: m = u * n for a 32-bit draw u, rejected while its low word is
    # below the threshold. numpy tests against n first, a bound on the
    # threshold, so the outcome is the same. A rejection is rare (below
    # n / 2**32 a draw), so all lines draw k words and, while some line has
    # fewer than k accepted, all draw again.
    threshold = (_MASK32 + 1 - n) % n
    words: list[np.ndarray] = []
    missing = k
    while missing > 0:
        for _ in range((missing + 1) // 2):
            high, low = _step(high, low, *inc)
            x, rot = high ^ low, high >> 58
            x = (x >> rot) | (x << ((64 - rot) & 63))
            # next_uint32 hands out the low half first, then the high.
            words += (x & _MASK32, x >> 32)
        m = np.stack(words, axis=1) * n
        accepted = (m & _MASK32) >= threshold
        missing = k - int(accepted.sum(axis=1).min())
    # Each row's accepted draws, in order, ahead of its rejected ones.
    order = np.argsort(~accepted, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(m, order, axis=1) >> 32
