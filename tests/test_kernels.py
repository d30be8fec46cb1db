"""Edge cases of the bit-parallel Levenshtein kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logblend._kernels import levenshtein
from test_metrics import dp_edit_distance


def test_empty_string_edges():
    assert levenshtein("", "") == 0
    assert levenshtein("", "xyz") == 3
    assert levenshtein("xyz", "") == 3


def test_paths_agree_on_long_asymmetric_strings():
    # The shorter string becomes the bit-vector pattern whichever side it is on.
    a = "x" * 300 + " tail of the message 42"
    b = "x" * 120 + " tail of the <*> 42 extended"
    expected = dp_edit_distance(a, b)
    assert levenshtein(a, b) == expected
    assert levenshtein(b, a) == expected


# Pieces mixing ASCII, a combining sequence, a lone combining mark and astral
# characters, so shared affixes can end inside a grapheme.
_PIECE = st.lists(
    st.sampled_from(
        ["a", "b", "ab", " ", "<*>", "\u00e9", "e\u0301", "\u0301",
         "\U0001F600", "\U0001D538"]
    ),
    max_size=10,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(p=_PIECE, x=_PIECE, y=_PIECE, s=_PIECE)
def test_shared_affixes_match_oracle(p, x, y, s):
    a, b = p + x + s, p + y + s
    expected = dp_edit_distance(a, b)
    assert levenshtein(a, b) == expected
    assert levenshtein(b, a) == expected


@settings(max_examples=200, deadline=None)
@given(w=_PIECE, x=_PIECE, i=st.integers(0, 4), j=st.integers(0, 4))
def test_affix_and_overlapping_affixes_match_oracle(w, x, i, j):
    # One string a prefix or suffix of the other, and repeats whose common
    # prefix and suffix overlap.
    for a, b in ((w, w + x), (w, x + w), (w * i, w * j), (x + w * i, x + w * j)):
        expected = dp_edit_distance(a, b)
        assert levenshtein(a, b) == expected
        assert levenshtein(b, a) == expected


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ("aa", "aaa", 1),
        ("ab", "abab", 2),
        ("aba", "ababa", 2),
        ("\U0001F600\U0001F600", "\U0001F600\U0001F600\U0001F600", 1),
        ("e\u0301e\u0301", "e\u0301", 2),
        ("open <*> done", "open f1 done", 3),
    ],
)
def test_overlapping_affixes_are_counted_once(a, b, expected):
    assert levenshtein(a, b) == expected
    assert levenshtein(b, a) == expected
