"""Raise heterogeneity further by refilling every variable slot from a pool.

Each line keeps its template structure: the variables are extracted against
the line's template (ground truth, or a parser's output when no labels
exist), replaced with values sampled uniformly from the variable pool, and
substituted back. The output dataset is labeled with the templates that were
used, so it stays evaluable. A line's picks depend only on the seed and its
row position, so they do not change with the rows around it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from ._rng import record_picks
from .corpus import WILDCARD, Dataset, _pattern
from .errors import EmptyPoolError
from .pool import VariablePool


@dataclass(frozen=True)
class FuzzConfig:
    seed: int


@dataclass
class FuzzResult:
    dataset: Dataset
    #: Line ids that could not be aligned and passed through unchanged.
    skipped_line_ids: list[int]


def fuzz(
    ds: Dataset,
    vpool: VariablePool,
    cfg: FuzzConfig,
    parsed: Sequence[str] | None = None,
) -> FuzzResult:
    """Replace every variable of every line with pool samples.

    Each line is aligned with its entry of `parsed` when that is given (one
    template per line), and with its ground truth otherwise. Randomness
    is derived from (seed, row position): row i draws the stream of line
    id i + 1. Lines whose template has no wildcard
    pass through unchanged; lines that fail alignment (possible when parser
    templates are wrong) also pass through and are listed in the result's
    skip report.
    """
    if not vpool.values:
        raise EmptyPoolError("variable pool is empty")
    templates = ds.templates(parsed)

    values = vpool.values
    # Per distinct template: the text before its first wildcard, the piece
    # after each wildcard, and its matcher.
    shapes: dict[str, tuple[str, list[str], Callable]] = {}
    contents = list(ds.contents())
    truths = list(ds.ground_truths)
    skipped: list[int] = []
    refill: list[int] = []  # positions of the lines whose slots are refilled
    slots: list[int] = []
    for i, (content, template) in enumerate(zip(contents, templates)):
        shape = shapes.get(template)
        if shape is None:
            head, *rest = template.split(WILDCARD)
            shape = shapes[template] = (head, rest, _pattern(template).fullmatch)
        _, rest, fullmatch = shape
        if not rest:
            truths[i] = template or None
        elif fullmatch(content):
            refill.append(i)
            slots.append(len(rest))
        else:
            skipped.append(i + 1)
    picks = record_picks(cfg.seed, [i + 1 for i in refill], len(values), slots)
    for i, chosen in zip(refill, picks):
        template = templates[i]
        content, rest, _ = shapes[template]
        for j, piece in zip(chosen, rest):
            content += values[j] + piece
        contents[i] = content
        truths[i] = template
    return FuzzResult(Dataset(ds.name, contents, truths, ds.sources), skipped)
