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
  the characters of the text, each by one ``str.translate`` and one
  ``int(..., 2)`` over the reversed joined patterns: O(width) C-level work.
* Read-out: row 0 of the last column is ``len(text)``, and each pattern's
  distance is that plus its +1 deltas minus its -1 deltas, counted once at
  the end as ``len(text) + popcount(pv_i) - popcount(mv_i)``.

:func:`levenshtein` scores one pair with the same loop. A common prefix and
suffix never change the distance (Ukkonen 1985), and template pairs share
long literal heads and tails, so both are stripped first; the suffix scan
stops where the prefix ends, so an overlap such as ``"aa"``/``"aaa"`` is not
counted twice. The shorter rest is the text, so the loop takes fewer steps.

``benchmarks/bench_edit_distance.py`` times :func:`levenshtein` on its
template-like pairs and, with ``--corpus``, :func:`distances` on the 12,761
distinct (content, template) pairs of the nine synthetic source datasets,
grouped by template as evaluation calls it.
"""

from __future__ import annotations


def distances(text: str, patterns: list[str]) -> list[int]:
    """Levenshtein distance from `text` to each pattern, in code points."""
    if not patterns:
        return []
    width = sum(map(len, patterns)) + len(patterns)
    # Pattern i fills the bits from its offset up, and its guard bit is the
    # next one. int(..., 2) reads the top bit first, so the patterns go in
    # reverse; a "\0" stands at each guard below the top one, which is the
    # "0" put in front, and `& mask` clears it.
    mask = int("".join(["0" + "1" * len(p) for p in reversed(patterns)]), 2)
    bottoms = mask & ~(mask << 1)
    reversed_joined = "\0".join(patterns)[::-1]
    chars = set(reversed_joined)
    table = dict.fromkeys(map(ord, chars), "0")
    peq: dict[str, int] = {}
    for ch in chars.intersection(text):
        code = ord(ch)
        table[code] = "1"
        peq[ch] = int("0" + reversed_joined.translate(table), 2) & mask
        table[code] = "0"
    pv, mv = mask, 0
    for ch in text:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        ph = (ph << 1) | bottoms
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv  # inside the mask, as xv is
    # Character k of these strings is bit width - 1 - k.
    n = len(text)
    pv_bits = format(pv, f"0{width}b")
    mv_bits = format(mv, f"0{width}b")
    out = []
    end = width
    for p in patterns:
        start = end - len(p)
        out.append(n + pv_bits.count("1", start, end) - mv_bits.count("1", start, end))
        end = start - 1
    return out


def levenshtein(a: str, b: str) -> int:
    """Levenshtein distance between two strings, counted in code points."""
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    n, m = len(a), len(b)
    start = 0
    while start < n and a[start] == b[start]:
        start += 1
    end = 0
    while end < n - start and a[n - 1 - end] == b[m - 1 - end]:
        end += 1
    return distances(a[start : n - end], [b[start : m - end]])[0]
