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

from dataclasses import dataclass

from ._kernels import levenshtein
from .errors import EmptyDatasetError, ShapeError

#: One canonical template per record, index-aligned with the dataset.
ParseResult = list[str]


@dataclass(frozen=True)
class MetricReport:
    grouping_accuracy: float
    template_accuracy: float
    mean_edit_distance: float

    def as_dict(self) -> dict[str, float]:
        return {
            "grouping_accuracy": self.grouping_accuracy,
            "template_accuracy": self.template_accuracy,
            "mean_edit_distance": self.mean_edit_distance,
        }


def _check_lengths(predicted: ParseResult, truth: ParseResult) -> None:
    if len(predicted) != len(truth):
        raise ShapeError(
            f"predicted has {len(predicted)} entries, truth has {len(truth)}"
        )


def _groups(templates: list[str]) -> list[tuple[int, ...]]:
    """Map each index to the tuple of indices sharing its template."""
    by_template: dict[str, list[int]] = {}
    for idx, tpl in enumerate(templates):
        by_template.setdefault(tpl, []).append(idx)
    frozen = {tpl: tuple(idxs) for tpl, idxs in by_template.items()}
    return [frozen[tpl] for tpl in templates]


def grouping_accuracy(predicted: ParseResult, truth: ParseResult) -> float:
    """Fraction of records whose predicted group equals their truth group.

    Invariant under any renaming of the predicted template strings; empty
    input is vacuously 1.0. Templates are grouped as given.
    """
    _check_lengths(predicted, truth)
    if not truth:
        return 1.0
    pred_groups = _groups(predicted)
    truth_groups = _groups(truth)
    correct = sum(1 for p, t in zip(pred_groups, truth_groups) if p == t)
    return correct / len(truth)


def template_accuracy(predicted: ParseResult, truth: ParseResult) -> float:
    """Fraction of records whose predicted template string equals the truth's."""
    _check_lengths(predicted, truth)
    if not truth:
        return 1.0
    correct = sum(1 for p, t in zip(predicted, truth) if p == t)
    return correct / len(truth)


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance: single-character insertions, deletions, substitutions."""
    return levenshtein(a, b)


def mean_edit_distance(predicted: ParseResult, truth: ParseResult) -> float:
    """Arithmetic mean of per-record edit distances, in line order.

    The summation order is fixed (ascending line id) and the per-pair
    distances are integers, so the result is bit-identical however the
    distances were computed. Parsers emit few distinct templates, so each
    distinct (predicted, truth) pair is scored once; the memo lives only for
    this call. Templates are compared as given.
    """
    _check_lengths(predicted, truth)
    if not truth:
        raise EmptyDatasetError("mean edit distance is undefined on empty input")
    memo: dict[tuple[str, str], int] = {}
    total = 0
    for pair in zip(predicted, truth):
        distance = memo.get(pair)
        if distance is None:
            p, t = pair
            distance = levenshtein(p, t)
            memo[pair] = distance
        total += distance
    return total / len(truth)


def evaluate(predicted: ParseResult, truth: ParseResult) -> MetricReport:
    """All three metrics in one report."""
    return MetricReport(
        grouping_accuracy=grouping_accuracy(predicted, truth),
        template_accuracy=template_accuracy(predicted, truth),
        mean_edit_distance=mean_edit_distance(predicted, truth),
    )
