"""Parser evaluation metrics.

Three metrics, one legacy and two template-quality:

* grouping accuracy: fraction of records whose predicted cluster of line ids
  exactly equals the ground-truth cluster. Blind to the template text itself,
  so a parser can score 1.0 while emitting wrong templates.
* template accuracy: fraction of records whose predicted template string
  equals the ground-truth template string.
* mean edit distance: average per-record Levenshtein distance between the
  predicted and ground-truth templates, counted in characters.

Templates arrive canonical (they are canonicalized where they are read) and
are compared exactly as given.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from itertools import repeat
from operator import eq, mul

from ._kernels import distances
from .errors import EmptyDatasetError, ShapeError

#: One canonical template per record, index-aligned with the dataset.
ParseResult = list[str]


@dataclass(frozen=True)
class MetricReport:
    grouping_accuracy: float
    template_accuracy: float
    mean_edit_distance: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def _check_lengths(predicted: ParseResult, truth: ParseResult) -> None:
    if len(predicted) != len(truth):
        raise ShapeError(
            f"predicted has {len(predicted)} entries, truth has {len(truth)}"
        )


def grouping_accuracy(predicted: ParseResult, truth: ParseResult) -> float:
    """Fraction of records whose predicted group equals their truth group.

    Invariant under any renaming of the predicted template strings; empty
    input is vacuously 1.0. Templates are grouped as given. A record's two
    groups are equal exactly when its (predicted, truth) pair occurs as often
    as its predicted template and as often as its truth template.
    """
    _check_lengths(predicted, truth)
    if not truth:
        return 1.0
    pred_sizes, truth_sizes = Counter(predicted), Counter(truth)
    correct = sum(
        n
        for (p, t), n in Counter(zip(predicted, truth)).items()
        if n == pred_sizes[p] == truth_sizes[t]
    )
    return correct / len(truth)


def template_accuracy(predicted: ParseResult, truth: ParseResult) -> float:
    """Fraction of records whose predicted template string equals the truth's."""
    _check_lengths(predicted, truth)
    if not truth:
        return 1.0
    return sum(map(eq, predicted, truth)) / len(truth)


def mean_edit_distance(predicted: ParseResult, truth: ParseResult) -> float:
    """Arithmetic mean of per-record edit distances.

    Parsers emit few distinct templates, so the records are counted per
    distinct (predicted, truth) pair and each pair is scored once. The pairs
    are grouped by truth template, and one :func:`distances` call scores all
    of a template's distinct partners in a single bit-parallel pass over it.
    The total is the integer sum of count x distance over the pairs, equal to
    the per-record sum, so the result is bit-identical however it was
    computed. Templates are compared as given.
    """
    _check_lengths(predicted, truth)
    if not truth:
        raise EmptyDatasetError("mean edit distance is undefined on empty input")
    counts = Counter(zip(predicted, truth))
    partners: dict[str, list[str]] = {}
    for p, t in counts:
        partners.setdefault(t, []).append(p)
    total = 0
    for t, preds in partners.items():
        records = map(counts.__getitem__, zip(preds, repeat(t)))
        total += sum(map(mul, records, distances(t, preds)))
    return total / len(truth)


def evaluate(predicted: ParseResult, truth: ParseResult) -> MetricReport:
    """All three metrics in one report."""
    return MetricReport(
        grouping_accuracy=grouping_accuracy(predicted, truth),
        template_accuracy=template_accuracy(predicted, truth),
        mean_edit_distance=mean_edit_distance(predicted, truth),
    )
