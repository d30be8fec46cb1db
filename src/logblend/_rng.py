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
those three numpy objects per record took most of the fuzzing time, so the
hash runs once over an array of all line ids and the 128-bit generator
steps run on Python ints. Line ids must fit in 32 bits, so each spawn key
is one uint32 word; every line id the package makes is a row position.
"""

from __future__ import annotations

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

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


def record_picks(
    seed: int, line_ids: list[int], n: int, counts: list[int]
) -> list[list[int]]:
    """Per record, `counts[i]` uniform picks from ``range(n)`` for `line_ids[i]`.

    The picks equal numpy's for ``SeedSequence(seed, spawn_key=(line_id,))``
    (see the module docstring). `n` must be below 2**32, the limit of the
    32-bit draw this reproduces; line ids must be in [0, 2**32 - 1].
    """
    if not 1 <= n <= _MASK32:
        raise ValueError(
            f"n must be in [1, 2**32 - 1] (picks are 32-bit draws), got {n}"
        )
    if not line_ids:
        return []
    if min(line_ids) < 0 or max(line_ids) > _MASK32:
        raise ValueError("line ids must be non-negative and below 2**32")

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
    u0, u1, u2, u3 = (
        (state[2 * i] | (state[2 * i + 1] << 32)).tolist() for i in range(4)
    )

    threshold = (_MASK32 + 1 - n) % n
    out: list[list[int]] = []
    for s0, s1, q0, q1, k in zip(u0, u1, u2, u3, counts):
        # pcg64_set_seed: state = 0; inc = (initseq << 1) | 1; step;
        # state += initstate; step.
        inc = ((((q0 << 64) | q1) << 1) | 1) & _MASK128
        s = ((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _MASK128
        picks: list[int] = []
        high = -1
        while len(picks) < k:
            if high < 0:
                s = (s * _PCG_MULT + inc) & _MASK128
                x = (s >> 64) ^ (s & _MASK64)
                rot = s >> 122
                x = ((x >> rot) | (x << (64 - rot))) & _MASK64
                # next_uint32 hands out the low half first, then the high.
                u, high = x & _MASK32, x >> 32
            else:
                u, high = high, -1
            # Lemire: m = u * n, rejected while its low word is below the
            # threshold. numpy tests against n first, a bound on the
            # threshold, so the outcome is the same.
            m = u * n
            if m & _MASK32 >= threshold:
                picks.append(m >> 32)
        out.append(picks)
    return out
