"""Proxy statistics, the heterogeneity score, and cross-dataset variability."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logblend.corpus import Dataset
from logblend.errors import (
    EmptyDatasetError,
    InsufficientDataError,
    InvalidReferenceError,
)
from logblend.heterogeneity import (
    INDUSTRY_REFERENCE,
    ProxyStats,
    h_score,
    metric_variability,
    proxy_stats,
)

from helpers import PUBLISHED_STATS, WHITESPACE, apacheish, reference_proxy_stats

def _ds(contents: list[str]) -> Dataset:
    return Dataset("t", contents, [None] * len(contents), ["t"] * len(contents))


# --- proxy stats ------------------------------------------------------------

def test_proxy_stats_hand_oracle():
    # words {a,b,c}; chars {a,b,c,space}; lengths {3}
    stats = proxy_stats(_ds(["a b", "a c"]))
    assert stats == ProxyStats(nuw=3, nuc=4, nuldl=1)


def test_proxy_stats_single_char_record():
    assert proxy_stats(_ds(["x"])) == ProxyStats(1, 1, 1)


def test_proxy_stats_counts_spaces_as_characters():
    stats = proxy_stats(_ds(["ab", "a b"]))
    assert stats.nuc == 3  # a, b, space


def test_proxy_stats_empty_dataset():
    with pytest.raises(EmptyDatasetError):
        proxy_stats(_ds([]))


def test_proxy_stats_permutation_invariant():
    ds = apacheish()
    reversed_ds = Dataset(
        ds.name, ds.contents()[::-1], ds.ground_truths[::-1], ds.sources[::-1]
    )
    assert proxy_stats(ds) == proxy_stats(reversed_ds)


#: Every character ``str.split()`` splits on, and a few that a word holds.
_ALPHABET = WHITESPACE + "ab<*>\u00e9"
#: Contents drawn mostly from whitespace and a few letters, or from any text.
_CONTENT = st.one_of(
    st.text(alphabet=_ALPHABET, max_size=12),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CONTENT, min_size=1, max_size=20))
def test_proxy_stats_equals_per_record_reference(contents):
    ds = _ds(contents)
    assert proxy_stats(ds) == reference_proxy_stats(ds)


@settings(max_examples=200, deadline=None)
@given(_CONTENT)
def test_proxy_stats_of_one_line_equals_per_record_reference(content):
    ds = _ds([content])
    assert proxy_stats(ds) == reference_proxy_stats(ds)


@settings(max_examples=200, deadline=None)
@given(st.lists(_CONTENT.map(lambda c: c.replace(" ", "")), min_size=1, max_size=20))
def test_proxy_stats_without_spaces_count_no_joining_space(contents):
    ds = _ds(contents)
    assert proxy_stats(ds) == reference_proxy_stats(ds)


def test_proxy_stats_counts_a_space_only_where_a_content_holds_one():
    assert proxy_stats(_ds(["ab", "c\td"])).nuc == 5
    assert proxy_stats(_ds(["ab", "c d"])).nuc == 5
    assert proxy_stats(_ds(["", "", ""])) == ProxyStats(0, 0, 1)
    assert proxy_stats(_ds([" "])) == ProxyStats(0, 1, 1)


def test_proxy_stats_monotone_under_added_record():
    base = _ds(["a b", "a c"])
    grown = _ds(["a b", "a c", "zq xw 99"])
    s0, s1 = proxy_stats(base), proxy_stats(grown)
    assert s1.nuw >= s0.nuw and s1.nuc >= s0.nuc and s1.nuldl >= s0.nuldl
    assert h_score(s1).h >= h_score(s0).h


# --- H score ----------------------------------------------------------------

def _expected_h(stats: ProxyStats, ref: ProxyStats = INDUSTRY_REFERENCE) -> float:
    # independent arithmetic: capped ratios, 40/20/40
    ratios = [min(s / r, 1.0) for s, r in zip(stats.as_tuple(), ref.as_tuple())]
    return 0.4 * ratios[0] + 0.2 * ratios[1] + 0.4 * ratios[2]


def test_reference_against_itself_is_exactly_one():
    assert h_score(PUBLISHED_STATS["Industry"]).h == 1.0


@pytest.mark.parametrize(
    "name,published,tolerance",
    [
        ("BGL", 0.608, 0.05),
        ("Mac", 0.868, 0.05),
        ("Apache", 0.219, 0.05),
        ("HPC", 0.259, 0.05),
        ("Combined", 0.830, 0.05),
    ],
)
def test_h_reproduces_published_levels(name, published, tolerance):
    score = h_score(PUBLISHED_STATS[name])
    assert score.h == pytest.approx(_expected_h(PUBLISHED_STATS[name]))
    assert abs(score.h - published) <= tolerance


def test_h_bgl_value_frozen():
    assert h_score(PUBLISHED_STATS["BGL"]).h == pytest.approx(0.6021, abs=1e-4)


def test_h_mac_caps_line_length_ratio():
    score = h_score(PUBLISHED_STATS["Mac"])
    assert score.components[2] == 1.0  # 186/181 capped
    assert score.h == pytest.approx(0.8654, abs=1e-4)
    assert score.h <= 1.0


def test_h_rejects_zero_reference():
    with pytest.raises(InvalidReferenceError):
        h_score(ProxyStats(1, 1, 1), ProxyStats(0, 92, 181))


def test_h_bounded_for_any_stats():
    assert 0.0 < h_score(ProxyStats(10**6, 10**6, 10**6)).h <= 1.0


# --- variability ------------------------------------------------------------

def _sample_std(values: list[float]) -> float:
    m = sum(values) / len(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def test_variability_reproduces_published_triple():
    stats = list(PUBLISHED_STATS.values())
    result = metric_variability(stats)
    assert result[0] == pytest.approx(0.278, abs=0.01)
    assert result[1] == pytest.approx(0.159, abs=0.01)
    assert result[2] == pytest.approx(0.331, abs=0.01)


def test_variability_matches_plain_python_oracle():
    stats = list(PUBLISHED_STATS.values())
    result = metric_variability(stats)
    ref = INDUSTRY_REFERENCE.as_tuple()
    for axis in range(3):
        normalized = [s.as_tuple()[axis] / ref[axis] for s in stats]
        assert result[axis] == pytest.approx(_sample_std(normalized))


def test_variability_zero_for_identical_stats():
    s = ProxyStats(100, 50, 10)
    assert metric_variability([s, s]) == (0.0, 0.0, 0.0)


def test_variability_isolates_differing_component():
    a = ProxyStats(100, 50, 10)
    b = ProxyStats(200, 50, 10)
    result = metric_variability([a, b])
    assert result[0] > 0.0
    assert result[1] == 0.0 and result[2] == 0.0


def test_variability_needs_two_datasets():
    with pytest.raises(InsufficientDataError):
        metric_variability([ProxyStats(1, 1, 1)])
