"""Raise heterogeneity further by refilling every variable slot from a pool.

Each line keeps its template structure: the variables are extracted against
the line's template (ground truth, or a parser's output when no labels
exist), replaced with values sampled uniformly from the variable pool, and
substituted back. The output dataset is labeled with the templates that were
used, so it stays evaluable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rng import record_picks
from .corpus import (
    Dataset,
    LogRecord,
    count_wildcards,
    matches_template,
    substitute_variables,
)
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
    records: list[LogRecord] = []
    skipped: list[int] = []
    refill: list[int] = []  # positions of the lines whose slots are refilled
    slots: list[int] = []
    for rec, template in zip(ds.records, templates):
        count = count_wildcards(template)
        if count == 0:
            records.append(
                LogRecord(
                    line_id=rec.line_id,
                    content=rec.content,
                    ground_truth=template or None,
                    source=rec.source,
                )
            )
            continue
        if matches_template(rec.content, template):
            refill.append(len(records))
            slots.append(count)
        else:
            skipped.append(rec.line_id)
        records.append(rec)
    picks = record_picks(
        cfg.seed, [records[i].line_id for i in refill], len(values), slots
    )
    for i, chosen in zip(refill, picks):
        rec = records[i]
        records[i] = LogRecord(
            line_id=rec.line_id,
            content=substitute_variables(templates[i], [values[j] for j in chosen]),
            ground_truth=templates[i],
            source=rec.source,
        )
    return FuzzResult(
        dataset=Dataset(name=ds.name, records=records), skipped_line_ids=skipped
    )
