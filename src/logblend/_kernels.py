"""Exact bit-parallel Levenshtein distance.

The only hot numeric kernel in this package is the Levenshtein distance:
evaluation compares one predicted and one ground-truth template per record.

A common prefix and suffix never change the distance (Ukkonen 1985), and
template pairs share long literal heads and tails, so both are stripped
first; the suffix scan stops where the prefix ends, so an overlap such as
``"aa"``/``"aaa"`` is not counted twice.

The rest is Myers' bit-vector algorithm ("A fast bit-vector algorithm for
approximate string matching based on dynamic programming", JACM 1999) in
Hyyrö's edit-distance form (2001). It keeps one column of the dynamic
program as vertical +1/-1 delta bit-vectors over the shorter string and
advances it one character of the longer string per step, so the cost is
O(len(b)) big-integer operations. Python ints grow as needed, so patterns
longer than a machine word need no blocking.

``benchmarks/bench_edit_distance.py`` times the kernel on its template-like
pairs and, with ``--corpus``, on the 12,761 distinct (content, template)
pairs of the nine synthetic source datasets. On a 2-CPU Xeon with Python
3.11.7 the affix step took them from 8.4k-12.2k to 15.8k-20.1k and from
23.4k-27.1k to 49.3k-63.9k pairs/s (three alternating runs each).
"""

from __future__ import annotations


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
    a, b = a[start : n - end], b[start : m - end]
    if not a:
        return len(b)
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pv, mv, score = mask, 0, len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv & mask
    return score
