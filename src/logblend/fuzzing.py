"""Raise heterogeneity further by refilling every variable slot from a pool.

Each line keeps its template structure: the variables are extracted against
the line's template (ground truth, or a parser's output when no labels
exist), replaced with values sampled uniformly from the variable pool, and
substituted back. The output dataset is labeled with the templates that were
used, so it stays evaluable.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ._rng import record_picks
from .corpus import WILDCARD, Dataset, LogRecord, _pattern
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
    parsed: list[str] | None = None,
) -> FuzzResult:
    """Replace every variable of every line with pool samples.

    Each line is aligned with its entry of `parsed` when that is given (one
    template per record), and with its ground truth otherwise. Randomness
    is derived from (seed, line id), so the output is identical however the
    records are scheduled. Lines whose template has no wildcard
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
    records = list(ds.records)
    skipped: list[int] = []
    refill: list[int] = []  # positions of the lines whose slots are refilled
    slots: list[int] = []
    for i, (rec, template) in enumerate(zip(records, templates)):
        shape = shapes.get(template)
        if shape is None:
            head, *rest = template.split(WILDCARD)
            shape = shapes[template] = (head, rest, _pattern(template).fullmatch)
        _, rest, fullmatch = shape
        if not rest:
            if rec.ground_truth != (template or None):
                records[i] = LogRecord(
                    rec.line_id, rec.content, template or None, rec.source
                )
        elif fullmatch(rec.content):
            refill.append(i)
            slots.append(len(rest))
        else:
            skipped.append(rec.line_id)
    picks = record_picks(
        cfg.seed, [records[i].line_id for i in refill], len(values), slots
    )
    for i, chosen in zip(refill, picks):
        rec = records[i]
        template = templates[i]
        content, rest, _ = shapes[template]
        for j, piece in zip(chosen, rest):
            content += values[j] + piece
        records[i] = LogRecord(rec.line_id, content, template, rec.source)
    return FuzzResult(
        dataset=Dataset(name=ds.name, records=records), skipped_line_ids=skipped
    )
