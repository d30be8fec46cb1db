"""Grouping accuracy, template accuracy, and edit distance."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logblend import metrics
from logblend._kernels import distances, levenshtein
from logblend.errors import EmptyDatasetError, ShapeError
from logblend.metrics import (
    edit_distance,
    evaluate,
    grouping_accuracy,
    mean_edit_distance,
    template_accuracy,
)


def dp_edit_distance(a: str, b: str) -> int:
    """Independent full-table dynamic program."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[m][n]


# --- edit distance ----------------------------------------------------------

def test_edit_distance_identity():
    assert edit_distance("abc", "abc") == 0


def test_edit_distance_pure_insertion():
    assert edit_distance("", "abcd") == 4


def test_edit_distance_kitten_sitting():
    # full 7x8 table oracle
    assert dp_edit_distance("kitten", "sitting") == 3
    assert edit_distance("kitten", "sitting") == 3


def test_edit_distance_unicode_code_points():
    # one substitution, not a byte-level count
    assert edit_distance("naïve", "naive") == 1
    assert edit_distance("日本語", "日本") == 1


@given(
    st.text(alphabet="ab <*>0", max_size=24),
    st.text(alphabet="ab <*>0", max_size=24),
)
@settings(max_examples=300)
def test_edit_distance_matches_oracle_on_both_kernels(a, b):
    assert levenshtein(a, b) == dp_edit_distance(a, b)


@given(
    st.text(max_size=16), st.text(max_size=16), st.text(max_size=16)
)
@settings(max_examples=200)
def test_edit_distance_metric_axioms(x, y, z):
    assert edit_distance(x, x) == 0
    assert edit_distance(x, y) == edit_distance(y, x)
    assert edit_distance(x, z) <= edit_distance(x, y) + edit_distance(y, z)


def test_kernel_paths_agree_on_template_like_strings():
    rng = random.Random(5)
    words = ["alpha", "beta", "<*>", "127", "flush", "x9"]
    for _ in range(100):
        a = " ".join(rng.choices(words, k=rng.randint(0, 12)))
        b = " ".join(rng.choices(words, k=rng.randint(0, 12)))
        assert levenshtein(a, b) == dp_edit_distance(a, b)


@st.composite
def unicode_pairs(draw):
    """Two strings over a shared alphabet of arbitrary code points.

    Lengths run to 200 independently, so pairs are often very unequal and
    patterns cross the 30-bit digit and 64-bit word boundaries of Python
    ints; an alphabet of 1-20 characters plus one astral-plane character
    ranges from mostly matching to mostly distinct.
    """
    alphabet = draw(st.lists(st.characters(), min_size=1, max_size=20, unique=True))
    chars = st.sampled_from(alphabet + ["\U0001F600"])
    len_a, len_b = draw(st.integers(0, 200)), draw(st.integers(0, 200))
    return (
        draw(st.text(chars, min_size=len_a, max_size=len_a)),
        draw(st.text(chars, min_size=len_b, max_size=len_b)),
    )


@given(unicode_pairs())
@settings(max_examples=150, deadline=None)
def test_bit_parallel_kernel_matches_oracle_on_unicode(pair):
    a, b = pair
    expected = dp_edit_distance(a, b)
    assert levenshtein(a, b) == expected
    assert levenshtein(b, a) == expected


@pytest.mark.parametrize(
    "a, b",
    [
        pytest.param("a", "bbbabbb", id="one-char-pattern-matched"),
        pytest.param("a", "b" * 70, id="one-char-pattern-unmatched"),
        pytest.param("\U0001F600", "x\U0001F600y", id="astral-one-char-pattern"),
        pytest.param(
            "same prefix " * 6 + "A" + " same suffix" * 6,
            "same prefix " * 6 + "BC" + " same suffix" * 6,
            id="shared-prefix-and-suffix",
        ),
        pytest.param("head " * 20 + "tail", "head " * 20, id="shared-prefix-ragged-end"),
        pytest.param("x" * 70 + "ab", "ab", id="first-argument-longer"),
        pytest.param("ab" * 40, "ba" * 40, id="pattern-past-64-bits"),
    ],
)
def test_bit_parallel_kernel_edge_cases(a, b):
    expected = dp_edit_distance(a, b)
    assert levenshtein(a, b) == expected
    assert levenshtein(b, a) == expected


# --- the figure-3-style scenario --------------------------------------------

FIG3_TRUTH = [
    "Template log <*>",
    "Session opened for user <*>",
    "Connection from <*> closed",
]
# same grouping as truth (three singletons), two template strings wrong
FIG3_PREDICTED = [
    "Template log <*>",
    "Session opened for <*> <*>",
    "Connection <*> closed",
]


def test_scenario_grouping_perfect_templates_wrong():
    assert grouping_accuracy(FIG3_PREDICTED, FIG3_TRUTH) == 1.0
    assert template_accuracy(FIG3_PREDICTED, FIG3_TRUTH) == pytest.approx(1 / 3)


# --- grouping accuracy ------------------------------------------------------

def test_grouping_identity():
    truth = ["a", "b", "a"]
    assert grouping_accuracy(truth, truth) == 1.0


def test_grouping_overlapping_partitions_score_zero():
    # predicted groups {1,2},{3}; truth groups {1},{2,3}
    predicted = ["p", "p", "q"]
    truth = ["t", "u", "u"]
    # hand oracle: record 1 {1,2} vs {1}; 2 {1,2} vs {2,3}; 3 {3} vs {2,3}
    assert grouping_accuracy(predicted, truth) == 0.0


def test_grouping_invariant_under_renaming():
    rng = random.Random(11)
    truth = [f"t{rng.randint(0, 5)}" for _ in range(60)]
    predicted = [f"p{rng.randint(0, 5)}" for _ in range(60)]
    renamed = [f"renamed-{p}" for p in predicted]
    assert grouping_accuracy(predicted, truth) == grouping_accuracy(renamed, truth)


def test_grouping_empty_input():
    assert grouping_accuracy([], []) == 1.0


def test_grouping_length_mismatch():
    with pytest.raises(ShapeError):
        grouping_accuracy(["a"], ["a", "b"])


# --- template accuracy ------------------------------------------------------

def test_template_accuracy_identity_and_disjoint():
    truth = ["a", "b", "c"]
    assert template_accuracy(truth, truth) == 1.0
    assert template_accuracy(["x", "y", "z"], truth) == 0.0


def test_template_accuracy_not_invariant_under_renaming():
    truth = ["a", "a", "b"]
    predicted = ["a", "a", "b"]
    renamed = ["x", "x", "y"]
    assert template_accuracy(predicted, truth) == 1.0
    assert template_accuracy(renamed, truth) == 0.0
    assert grouping_accuracy(renamed, truth) == 1.0


# --- mean edit distance -----------------------------------------------------

def test_mean_edit_distance_zero_on_equal():
    assert mean_edit_distance(["a", "b"], ["a", "b"]) == 0.0


def test_mean_edit_distance_arithmetic():
    # distances 2 and 4
    assert mean_edit_distance(["ab", "abcd"], ["abcd", "abcdabcd"]) == 3.0


def test_mean_edit_distance_2000_records_against_summation_oracle():
    rng = random.Random(3)
    words = ["worker", "slot", "<*>", "cache", "19", "flush", "ok"]
    predicted = [" ".join(rng.choices(words, k=rng.randint(1, 8))) for _ in range(2000)]
    truth = [" ".join(rng.choices(words, k=rng.randint(1, 8))) for _ in range(2000)]
    total = 0
    for p, t in zip(predicted, truth):
        total += dp_edit_distance(p, t)
    assert mean_edit_distance(predicted, truth) == pytest.approx(total / 2000)


def test_mean_edit_distance_scores_each_distinct_pair_once(monkeypatch):
    rng = random.Random(4)
    predicted = [rng.choice(["open <*>", "close <*>", "flush"]) for _ in range(2000)]
    truth = [rng.choice(["open <*>", "close <*> now", "flush"]) for _ in range(2000)]
    scored = []

    def counting(text, patterns):
        scored.extend((p, text) for p in patterns)
        return distances(text, patterns)

    monkeypatch.setattr(metrics, "distances", counting)
    expected = sum(dp_edit_distance(p, t) for p, t in zip(predicted, truth))
    expected /= 2000
    assert mean_edit_distance(predicted, truth) == expected
    distinct = set(zip(predicted, truth))
    assert len(scored) == len(distinct) and set(scored) == distinct
    # The scores live for one call only: a second call scores every pair again.
    mean_edit_distance(predicted, truth)
    assert len(scored) == 2 * len(distinct) and set(scored) == distinct


def test_mean_edit_distance_empty_is_undefined():
    with pytest.raises(EmptyDatasetError):
        mean_edit_distance([], [])


# --- cross-metric invariants ------------------------------------------------

@given(st.lists(st.sampled_from(["a", "b <*>", "c c"]), min_size=1, max_size=30))
def test_template_accuracy_one_iff_mean_distance_zero(truth):
    assert template_accuracy(truth, truth) == 1.0
    assert mean_edit_distance(truth, truth) == 0.0
    broken = list(truth)
    broken[0] = broken[0] + " tail"
    assert template_accuracy(broken, truth) < 1.0
    assert mean_edit_distance(broken, truth) > 0.0


def test_metrics_permutation_equivariant():
    rng = random.Random(9)
    truth = [f"t{rng.randint(0, 4)}" for _ in range(80)]
    predicted = [f"t{rng.randint(0, 5)}" for _ in range(80)]
    before = evaluate(predicted, truth)
    order = list(range(80))
    rng.shuffle(order)
    after = evaluate([predicted[i] for i in order], [truth[i] for i in order])
    assert before == after
