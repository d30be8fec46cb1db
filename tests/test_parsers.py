"""Reference parser behaviors."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logblend.corpus import Dataset
from logblend.fuzzing import FuzzConfig, fuzz
from logblend.mixing import MixConfig, mix
from logblend.errors import (
    DataFormatError,
    EmptyDatasetError,
    LabelingError,
    ShapeError,
)
from logblend.metrics import grouping_accuracy, template_accuracy
from logblend.parsers import (
    IdentityParserConfig,
    TokenFrequencyParserConfig,
    TreeParserConfig,
    parse,
    read_parse_result,
    write_parse_result,
)

from helpers import (
    apacheish,
    fill_template,
    reference_tokenfreq,
    reference_tree,
    source_datasets,
    standard_pools,
)


def _ds(lines: list[str]) -> Dataset:
    return Dataset("t", lines, [None] * len(lines), ["t"] * len(lines))


# --- template discovery examples ---------------------------------------------

def test_tree_discovers_underlying_template_for_both_records():
    result = parse(_ds(["Template log 1", "Template log 2"]), TreeParserConfig())
    assert result == ["Template log <*>", "Template log <*>"]


def test_tokenfreq_discovers_underlying_template_for_both_records():
    result = parse(
        _ds(["Template log 1", "Template log 2"]), TokenFrequencyParserConfig()
    )
    assert result == ["Template log <*>", "Template log <*>"]


def test_single_unique_line_is_its_own_template():
    for cfg in (TreeParserConfig(), TokenFrequencyParserConfig()):
        assert parse(_ds(["one lonely line"]), cfg) == ["one lonely line"]


def test_tree_hand_simulated_grouping():
    # lines 1,2 route together (3 tokens, prefix a b) and merge at
    # similarity 2/3 >= 0.5; line 3 lives in its own 2-token subtree.
    result = parse(
        _ds(["a b c", "a b d", "x y"]), TreeParserConfig(similarity_threshold=0.5)
    )
    assert result == ["a b <*>", "a b <*>", "x y"]


def test_tree_similarity_below_threshold_splits():
    result = parse(
        _ds(["a b c", "a q r"]), TreeParserConfig(similarity_threshold=0.5)
    )
    assert result == ["a b c", "a q r"]


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDatasetError):
        parse(Dataset("e", [], [], []), TreeParserConfig())


# --- tree parser internals ----------------------------------------------------

def test_tree_digit_tokens_route_to_wildcard_branch():
    # the digit-bearing second token must not split the group across leaves
    lines = [f"worker {i} ready for duty" for i in (10, 20, 30)]
    result = parse(_ds(lines), TreeParserConfig())
    assert set(result) == {"worker <*> ready for duty"}


def test_tree_max_children_spill_keeps_grouping():
    # 40 distinct wordy second tokens overflow max_children=3 into the
    # spill bucket, where similarity still merges the template
    lines = [f"state {w}{'x' * (i % 3)} changed cleanly now" for i, w in
             enumerate(["alpha", "beta", "gamma", "delta"] * 10)]
    result = parse(_ds(lines), TreeParserConfig(max_children=3))
    assert len(set(result)) <= 4


def test_tree_never_reports_duplicate_groups_for_one_template():
    # records sharing a predicted template always form a single group, so
    # grouping accuracy cannot be corrupted by duplicate-template clusters
    ds = apacheish()
    predicted = parse(ds, TreeParserConfig())
    truth = ds.labels()
    by_template: dict[str, set[str]] = {}
    for p, t in zip(predicted, truth):
        by_template.setdefault(p, set()).add(t)
    # on this corpus the discovered templates split cleanly by truth template
    assert all(len(truths) == 1 for truths in by_template.values())


def test_tree_masks_are_applied_before_tokenizing():
    lines = ["sent to 10.0.0.1 ok", "sent to 10.0.0.2 ok"]
    cfg = TreeParserConfig(masks=(r"(\d+\.){3}\d+",))
    assert parse(_ds(lines), cfg) == ["sent to <*> ok"] * 2


def test_tree_parser_is_deterministic():
    ds = apacheish()
    cfg = TreeParserConfig()
    assert parse(ds, cfg) == parse(ds, cfg)


def test_tree_prefix_grouping_is_stable():
    # group membership decided online: the partition over a prefix matches
    # the full parse restricted to that prefix
    ds = apacheish()
    k = 400
    prefix = Dataset(ds.name, ds.contents()[:k], ds.ground_truths[:k], ds.sources[:k])
    full = parse(ds, TreeParserConfig())
    part = parse(prefix, TreeParserConfig())

    def partition(labels: list[str]) -> dict[str, list[int]]:
        groups: dict[str, list[int]] = {}
        for i, label in enumerate(labels):
            groups.setdefault(label, []).append(i)
        return groups

    full_restricted = partition([full[i] for i in range(k)])
    assert sorted(map(tuple, partition(part).values())) == sorted(
        map(tuple, full_restricted.values())
    )


def test_token_count_preserved_by_both_parsers():
    ds = apacheish()
    for cfg in (TreeParserConfig(), TokenFrequencyParserConfig()):
        for content, template in zip(ds.contents(), parse(ds, cfg)):
            assert len(template.split()) == len(content.split())


def test_tree_perfect_grouping_on_generated_corpus():
    # every template seen repeatedly, >= 2 distinct single-token values per
    # slot, literal-heavy templates with distinct leading tokens
    templates = [
        ("alpha service worker <*> online", [["11", "12", "13", "14"]]),
        ("beta queue depth <*> on <*>", [["3", "4", "5"], ["n1", "n2"]]),
        ("gamma cache hit ratio <*> steady", [["81", "82", "93"]]),
        ("delta peer <*> handshake done ok", [["p1", "p2", "p3"]]),
    ]
    rng = random.Random(17)
    rows = []
    for template, slots in templates:
        for i in range(40):
            values = [slot[i % len(slot)] for slot in slots]
            rows.append((fill_template(template, values), template))
    rng.shuffle(rows)
    contents, truths = zip(*rows)
    ds = Dataset("gen", contents, truths, ["gen"] * len(rows))
    predicted = parse(ds, TreeParserConfig(depth=4, similarity_threshold=0.4))
    assert grouping_accuracy(predicted, ds.labels()) == 1.0
    assert template_accuracy(predicted, ds.labels()) == 1.0


# --- token-frequency parser -----------------------------------------------------

def test_tokenfreq_threshold_boundaries():
    lines = ["put 1 here", "put 2 here", "put 3 here", "put 3 here"]
    # "3" has ratio 0.5 in its class; at threshold 0.5 it is kept
    result = parse(_ds(lines), TokenFrequencyParserConfig(threshold=0.5))
    assert result[2] == "put <*> here" or result[2] == "put 3 here"
    kept = parse(_ds(["x 3", "x 3"]), TokenFrequencyParserConfig(threshold=1.0))
    assert kept == ["x 3", "x 3"]
    # 7 of 25 meets 0.28 as a quotient, though 0.28 * 25 exceeds 7 in floats.
    lines = ["a x"] * 7 + [f"b{i} x" for i in range(18)]
    result = parse(_ds(lines), TokenFrequencyParserConfig(threshold=0.28))
    assert result == ["a x"] * 7 + ["<*> x"] * 18


def test_tokenfreq_mixed_length_classes_are_independent():
    lines = ["a b", "a c", "a b c", "a b d"]
    result = parse(_ds(lines), TokenFrequencyParserConfig(threshold=0.6))
    assert result[0] == "a <*>"
    assert result[2] == "a b <*>"


def test_tokenfreq_relabels_each_kind_of_column():
    # In the four-token class: a uniform column, one where threshold 0.5
    # keeps two tokens, one where it keeps one of three, and one that keeps
    # nothing. The one-token lines form a class of their own.
    lines = ["open a x 1", "open a x 2", "z", "open b y 3", "open b w 4", "z"]
    result = parse(_ds(lines), TokenFrequencyParserConfig(threshold=0.5))
    assert result == [
        "open a x <*>", "open a x <*>", "z", "open b <*> <*>", "open b <*> <*>", "z",
    ]
    assert result == reference_tokenfreq(_ds(lines), 0.5)


#: Tokens split on U+0020 alone, so NBSP, a tab and U+001C stay inside them.
_TOKEN = st.sampled_from(["a", "b", "<*>", "a\xa0b", "\t", "x\x1cy", "\u00e9", "7"])


@st.composite
def _spaced_tokens(draw, token=_TOKEN) -> str:
    """Tokens between runs of spaces, maybe at either end; may be "" or spaces only."""
    tokens = draw(st.lists(token, max_size=4))
    inner = draw(st.lists(st.sampled_from([" ", "  "]), min_size=len(tokens) + 1,
                          max_size=len(tokens) + 1))
    inner[0] = draw(st.sampled_from(["", " ", "   "]))
    inner[-1] = draw(st.sampled_from(["", " "]))
    return inner[0] + "".join(t + sep for t, sep in zip(tokens, inner[1:]))


@settings(max_examples=300, deadline=None)
@given(
    contents=st.lists(_spaced_tokens(), min_size=1, max_size=30),
    threshold=st.one_of(
        st.sampled_from([0.28, 0.5, 0.6, 1.0]), st.floats(min_value=0.01, max_value=1.0)
    ),
)
@example(contents=["a x"] * 7 + [f"b{i} x" for i in range(18)], threshold=0.28)
@example(contents=["", "  ", "a", "a  b", " a b ", "<*> b"], threshold=1.0)
def test_tokenfreq_equals_per_token_reference(contents, threshold):
    ds = _ds(contents)
    expected = reference_tokenfreq(ds, threshold)
    assert parse(ds, TokenFrequencyParserConfig(threshold=threshold)) == expected


#: Few tokens, so lines collide; literal `<*>` and digits exercise the tie-break
#: on wildcards and the digit routing.
_TREE_TOKEN = st.sampled_from(["a", "b", "c", "<*>", "<*>", "1", "23", "a1", "\u00e9"])


@settings(max_examples=400, deadline=None)
@given(
    contents=st.lists(_spaced_tokens(_TREE_TOKEN), min_size=1, max_size=40),
    depth=st.integers(1, 6),
    threshold=st.one_of(
        st.sampled_from([0.05, 0.25, 0.4, 0.5, 0.99]),
        st.floats(min_value=0.01, max_value=0.99),
    ),
    max_children=st.integers(1, 3),
    masks=st.sampled_from([(), ("a",), (r"\w",), (r"\d+",)]),
)
@example(
    contents=["", "  ", "<*> <*> a", "<*> <*> a", "b <*> a", "b c a", "b c 1"],
    depth=1, threshold=0.5, max_children=1, masks=(),
)
@example(
    contents=["a a b b", "b <*> a a", "b a a b"],
    depth=1, threshold=0.05, max_children=1, masks=(),
)
# The fan-out under the root fills at one literal child. The paths "a b", seen
# before the fill, and "b b", seen after it, come back and must route as before.
@example(
    contents=["a b c", "a c c", "b b c", "a d c", "b b c", "a b d", "c b d", "a c d"],
    depth=4, threshold=0.5, max_children=2, masks=(),
)
# A literal "<*>" token meets a template wildcard: equal, yet no literal match.
@example(
    contents=["x 1 y", "x 2 y", "x <*> y", "x <*> z", "<*> <*> z", "<*> 3 z"],
    depth=1, threshold=0.6, max_children=1, masks=(),
)
# "a y q" ties both groups at one agreement; the generalized "x y <*>" wins on
# its wildcard count, which must have been kept up to date.
@example(
    contents=["a b c", "x y z", "x y w", "a y q"],
    depth=1, threshold=0.3, max_children=1, masks=(),
)
@example(
    contents=[" a  b ", "a b", "  a b c", "a  b c  ", " ", "a b  d "],
    depth=4, threshold=0.4, max_children=3, masks=(),
)
# The fan-out fills at both levels: under the token count, "a" and then the
# spill key; under "a" and under the spill key, one literal and then the spill.
@example(
    contents=["a x 1 q", "a y 2 q", "b x 3 q", "b z 4 q", "a x 5 r", "c w 6 r",
              "a y 7 s", "b y 8 q", "c x 9 q"],
    depth=4, threshold=0.4, max_children=2, masks=(),
)
# Digit tokens route to "<*>" under a parent that has already spilled: "1"
# adds "<*>" to a fan-out that had none, so "b" still finds a free slot beside
# it and "y b c d" stays apart, while "y 2 c d" joins "x 1 c d"; "e" spills.
@example(
    contents=["a b c d", "x 1 c d", "y b c d", "y 2 c d", "w e c d", "v 33 c d", "u b c e"],
    depth=4, threshold=0.4, max_children=2, masks=(),
)
def test_tree_equals_merging_reference(contents, depth, threshold, max_children, masks):
    cfg = TreeParserConfig(depth, threshold, max_children, masks)
    ds = _ds(contents)
    assert parse(ds, cfg) == reference_tree(ds, cfg)


@pytest.mark.parametrize("seed", [0, 1])
def test_tree_equals_merging_reference_on_synthesized_corpus(seed):
    opool, vpool = standard_pools()
    cfg = TreeParserConfig()
    for ds in source_datasets():
        data = mix(ds, opool, MixConfig(strength=1.0, seed=seed))
        data = fuzz(data, vpool, FuzzConfig(seed=seed)).dataset
        assert parse(data, cfg) == reference_tree(data, cfg)


@pytest.mark.parametrize("seed", [0, 1])
def test_tree_equals_merging_reference_on_surrogate_labelled_mix(seed):
    # The parsed-label path: a surrogate parse labels the mix, which is parsed.
    opool, _ = standard_pools()
    cfg = TreeParserConfig()
    for ds in source_datasets():
        surrogate = parse(ds, cfg)
        assert surrogate == reference_tree(ds, cfg)
        data = mix(ds, opool, MixConfig(strength=1.0, seed=seed), parsed=surrogate)
        assert parse(data, cfg) == reference_tree(data, cfg)


def test_tokenfreq_is_deterministic():
    ds = apacheish()
    cfg = TokenFrequencyParserConfig()
    assert parse(ds, cfg) == parse(ds, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        TreeParserConfig(depth=0)
    with pytest.raises(ValueError):
        TreeParserConfig(similarity_threshold=1.5)
    with pytest.raises(ValueError):
        TokenFrequencyParserConfig(threshold=0.0)
    with pytest.raises(ValueError, match=r"mask '\('"):
        TreeParserConfig(masks=("(",))


# --- identity parser --------------------------------------------------------------

def test_identity_parser_echoes_labels():
    ds = apacheish()
    assert template_accuracy(parse(ds, IdentityParserConfig()), ds.labels()) == 1.0
    assert parse(ds, IdentityParserConfig()) == list(ds.labels())


def test_identity_parser_requires_labels():
    ds = Dataset("u", ["x"], [None], ["u"])
    with pytest.raises(LabelingError):
        parse(ds, IdentityParserConfig())


# --- integration file format -------------------------------------------------------

def test_parse_result_file_round_trip(tmp_path):
    ds = apacheish()
    result = parse(ds, TreeParserConfig())
    p = tmp_path / "parsed.csv"
    write_parse_result(result, p)
    assert read_parse_result(p, dataset=ds) == result


def test_parse_result_reorders_by_line_id(tmp_path):
    p = tmp_path / "shuffled.csv"
    p.write_text(
        "LineId,EventTemplate\n2,second <*>\n1,first <*>\n", encoding="utf-8"
    )
    assert read_parse_result(p) == ["first <*>", "second <*>"]


def test_parse_result_length_check(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("LineId,EventTemplate\n1,a\n", encoding="utf-8")
    ds = Dataset("two", ["a", "b"], ["a", "b"], ["two"] * 2)
    message = f"{p}: 1 templates for the 2 records of dataset 'two'"
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        read_parse_result(p, dataset=ds)


def test_parse_result_rejects_duplicate_line_ids(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("LineId,EventTemplate\n1,a\n1,b\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="contiguous"):
        read_parse_result(p)


@pytest.mark.parametrize(
    "rows, match",
    [
        ("1,a\n2\n", "row 3 has 1 fields, expected 2"),
        ("1,a\nx,b\n", "row 3 has non-integer LineId 'x'"),
        ('1,a\n2,"b"c\n', "row 3"),
        ("0_2,a\n1,b\n", "row 2 has non-integer LineId '0_2'"),
        (" 1,a\n2,b\n", "row 2 has non-integer LineId ' 1'"),
        ("1,a\n+2,b\n", r"row 3 has non-integer LineId '\+2'"),
        ("\u0661,a\n2,b\n", "row 2 has non-integer LineId '\u0661'"),
    ],
    ids=["short-row", "non-integer-line-id", "bad-quote", "underscore-line-id",
         "space-line-id", "signed-line-id", "arabic-indic-digit-line-id"],
)
def test_parse_result_names_malformed_row(tmp_path, rows, match):
    p = tmp_path / "parsed.csv"
    p.write_text("LineId,EventTemplate\n" + rows, encoding="utf-8")
    with pytest.raises(DataFormatError, match=match) as exc:
        read_parse_result(p)
    assert str(p) in str(exc.value)
