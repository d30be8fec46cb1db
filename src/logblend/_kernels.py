"""Exact bit-parallel Levenshtein distance, one text against many patterns.

The only hot numeric kernel in this package is the Levenshtein distance:
evaluation compares one predicted and one ground-truth template per record.

:func:`distances` is Myers' bit-vector algorithm ("A fast bit-vector
algorithm for approximate string matching based on dynamic programming",
JACM 1999) in Hyyrö's edit-distance form (2001), with several patterns packed
into one bit-vector as in Hyyrö, Fredriksson & Navarro ("Increased
bit-parallelism for approximate and multiple string matching", JEA 2005). It
keeps one column of the dynamic program per pattern as vertical +1/-1 delta
bit-vectors and advances all of them one character of the shared text per
step, so the cost is O(len(text)) big-integer operations on ints as wide as
the patterns together. Python ints grow as needed, so there are no word
limits and no blocking.

* Packing: the patterns sit end to end from bit 0, each followed by one
  guard bit. ``mask`` holds every pattern bit and no guard bit; ``pv``,
  ``mv`` and every ``peq`` entry are kept inside it, so a guard bit is zero
  when the addition runs and a carry out of a pattern's top bit stops there
  instead of entering the next pattern.
* The shift: ``(ph << 1) | bottoms`` feeds the top row's +1 into the lowest
  bit of every pattern at once (``bottoms`` holds those bits); whatever a
  guard bit shifts into a pattern's lowest bit is overwritten by it.
* ``peq[c]``, the positions where the patterns hold ``c``, is built only for
  the characters of the text that some pattern holds, each by one
  ``str.translate`` and one ``int(..., 2)`` over the reversed joined
  patterns: O(width) C-level work. The translate table is a ``defaultdict``
  whose missing entries read ``"0"``, so no Python pass over the patterns'
  characters builds it. The patterns are joined by NUL, so only ``peq["\\0"]``
  marks guard bits, and it alone is masked.
* Non-negative operands: Python ints are sign and magnitude, and a bit op
  with a negative operand is many times slower than one without (about 12x
  for ``x | ~y`` against ``x & y`` on a 24k-bit int). So ``~x`` is written
  ``x ^ mask``. Inside ``mask`` the two agree; a bit outside it (a guard,
  or above the top pattern) is either shifted into a pattern's lowest bit,
  which ``bottoms`` sets, or cleared by ``& mask`` or ``& xv``.
* Shared prefix: the longest prefix of the text that every pattern starts
  with too is dropped first. Levenshtein distance is unchanged by a common
  prefix, and each character dropped from the text is one step fewer.
* Read-out: row 0 of the last column is ``len(text)``, and each pattern's
  distance is that plus its +1 deltas minus its -1 deltas, counted once at
  the end as ``len(text) + popcount(pv_i) - popcount(mv_i)``: one
  ``str.count`` per lane of the binary strings of ``pv`` and ``mv``, mapped
  over the lanes' precomputed bounds.

:func:`levenshtein` scores one pair: it is ``distances(a, [b])[0]``.

``benchmarks/bench_edit_distance.py`` times :func:`levenshtein` on its
template-like pairs and, with ``--corpus``, :func:`distances` on the 12,761
distinct (content, template) pairs of the nine synthetic source datasets,
grouped by template as evaluation calls it.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate, repeat
from operator import sub
from os.path import commonprefix


def distances(text: str, patterns: list[str]) -> list[int]:
    """Levenshtein distance from `text` to each pattern, in code points."""
    if not patterns:
        return []
    # Exact: a prefix shared by the text and every pattern moves no distance.
    shared = len(commonprefix([text, *patterns]))
    if shared:
        text = text[shared:]
        patterns = [p[shared:] for p in patterns]
    lengths = list(map(len, patterns))
    width = sum(lengths) + len(patterns)
    # Pattern i fills the bits from its offset up, and its guard bit is the
    # next one. int(..., 2) reads the top bit first, so the patterns go in
    # reverse; a "\0" stands at each guard below the top one, which is the
    # "0" put in front.
    mask = int("".join(["0" + "1" * n for n in reversed(lengths)]), 2)
    bottoms = mask ^ (mask & (mask << 1))
    reversed_joined = "\0".join(patterns)[::-1]
    # Every character maps to "0" except the one whose vector is built.
    table = defaultdict(repeat("0").__next__)
    peq: dict[str, int] = {}
    for ch in set(text):
        if ch in reversed_joined:
            code = ord(ch)
            table[code] = "1"
            peq[ch] = int("0" + reversed_joined.translate(table), 2)
            table[code] = "0"
    if "\0" in peq:  # the only vector that also marks the guards
        peq["\0"] &= mask
    # ~x is written x ^ mask, which keeps every operand non-negative (see
    # "Non-negative operands" above).
    pv, mv = mask, 0
    for ch in text:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ((xh | pv) ^ mask)
        mh = pv & xh
        ph = (ph << 1) | bottoms
        mh <<= 1
        pv = (mh | ((xv | ph) ^ mask)) & mask
        mv = ph & xv  # inside the mask, as xv is
    # Character k of these strings is bit width - 1 - k, so pattern i's lane
    # ends where the patterns before it and their guards leave off.
    n = len(text)
    ends = list(accumulate([m + 1 for m in lengths], sub, initial=width))
    starts = list(map(sub, ends, lengths))
    plus = map(format(pv, f"0{width}b").count, repeat("1"), starts, ends)
    minus = map(format(mv, f"0{width}b").count, repeat("1"), starts, ends)
    return [n + a - b for a, b in zip(plus, minus)]


def levenshtein(a: str, b: str) -> int:
    """Levenshtein distance between two strings, counted in code points."""
    return distances(a, [b])[0]
