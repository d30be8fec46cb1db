"""Edge cases of the bit-parallel Levenshtein kernel."""

from __future__ import annotations

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
