"""Edge cases of the bit-parallel Levenshtein kernel, one pattern and many."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logblend._kernels import distances, levenshtein

from helpers import dp_edit_distance


def test_empty_string_edges():
    assert levenshtein("", "") == 0
    assert levenshtein("", "xyz") == 3
    assert levenshtein("xyz", "") == 3


def test_long_asymmetric_strings_match_oracle_either_way():
    # Either string may be the text and the other the bit-vector pattern.
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


# Characters a packing could use as a separator, ASCII, a lone combining mark,
# a combining sequence and astral characters.
_CHARS = ["\0", "\x01", "\x1f", "|", "\uffff", "a", "b", " ", "<*>", "\u0301",
          "e\u0301", "\U0001F600", "\U0001D538"]
_TEXT = st.lists(st.sampled_from(_CHARS), max_size=12).map("".join)


@settings(max_examples=300, deadline=None)
@given(
    text=_TEXT,
    patterns=st.lists(st.one_of(_TEXT, st.just(""), st.just(None)), max_size=8),
)
def test_distances_match_oracle(text, patterns):
    # None stands for a pattern equal to the text.
    patterns = [text if p is None else p for p in patterns]
    assert distances(text, patterns) == [dp_edit_distance(text, p) for p in patterns]


@settings(max_examples=15, deadline=None)
@given(
    text=st.lists(st.sampled_from(_CHARS), max_size=6).map("".join),
    patterns=st.lists(
        st.tuples(
            st.lists(st.sampled_from(_CHARS), min_size=8, max_size=10).map("".join),
            st.integers(50, 80),
        ).map(lambda t: t[0] * t[1]),
        min_size=5,
        max_size=8,
    ),
)
def test_distances_match_oracle_past_thousands_of_bits(text, patterns):
    assert sum(map(len, patterns)) + len(patterns) > 2000
    assert distances(text, patterns) == [dp_edit_distance(text, p) for p in patterns]


@settings(max_examples=300, deadline=None)
@given(
    prefix=_TEXT,
    rest=_TEXT,
    tails=st.lists(st.one_of(_TEXT, st.just("")), min_size=1, max_size=6),
)
@example(prefix="open ", rest="<*> now", tails=["", "<*> later", "<*>"])
@example(prefix="ab", rest="", tails=["", ""])
def test_distances_with_a_shared_prefix_match_oracle(prefix, rest, tails):
    # "" as a tail or as `rest` gives a pattern or a text equal to the prefix.
    patterns = [prefix + tail for tail in tails]
    for text in (prefix + rest, prefix, ""):
        expected = [dp_edit_distance(text, p) for p in patterns]
        assert distances(text, patterns) == expected


def test_distances_of_nothing():
    assert distances("abc", []) == []
    assert distances("", []) == []
    assert distances("", ["", "ab", ""]) == [0, 2, 0]
    assert distances("abc", ["", "abc", ""]) == [3, 0, 3]


@pytest.mark.parametrize(
    "text, patterns",
    [
        # Each all-matching pattern's first addition carries out of its top
        # bit, into the bit below the next pattern.
        ("a", ["aaaa", "b"]),
        ("a", ["aaaa", "aaaa", "a"]),
        ("ab", ["ab", "ba", "ab"]),
        ("aaa", ["aaa", "a", "aa", "b"]),
        ("ba", ["a", "", "a", "ab"]),
        ("abab", ["bababa", "ab", "", "abab"]),
    ],
)
def test_carry_out_of_a_pattern_stays_out_of_its_neighbour(text, patterns):
    expected = [dp_edit_distance(text, p) for p in patterns]
    assert distances(text, patterns) == expected
    assert distances(text, patterns[::-1]) == expected[::-1]


@pytest.mark.parametrize(
    "text, patterns",
    [
        # NUL only in the text: the separators of the joined patterns are
        # NULs, so its vector must hold no guard bit.
        ("a\0b", ["ab", "ba", "a"]),
        ("\0", ["x", "", "xy"]),
        # NUL only in the patterns: the text needs no vector for it.
        ("ab", ["a\0b", "\0", "b\0"]),
        ("\0a\0", ["\0", "a\0\0", ""]),
        # A text character that no pattern holds gets no vector.
        ("axb", ["ab", "b", "a"]),
        ("xyz", ["ab", "ba", ""]),
    ],
)
def test_match_vectors_of_nul_and_of_characters_no_pattern_holds(text, patterns):
    expected = [dp_edit_distance(text, p) for p in patterns]
    assert distances(text, patterns) == expected
    assert distances(text, patterns[::-1]) == expected[::-1]
