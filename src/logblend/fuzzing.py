"""Raise heterogeneity further by refilling every variable slot from a pool.

Each line keeps its template structure: the variables are extracted against
the line's template (ground truth, or a parser's output when no labels
exist), replaced with values sampled uniformly from the variable pool, and
substituted back. The output dataset is labeled with the templates that were
used, so it stays evaluable. A line's picks depend only on the seed and its
row position, so they do not change with the rows around it.

The lines are aligned a template at a time. The picks of all refilled lines
come as one matrix, and the lines with the same number of slots are rebuilt
together, a slot at a time, by adding numpy object arrays of strings.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress

import numpy as np

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

    rows_of: dict[str, list[int]] = defaultdict(list)
    for i, template in enumerate(templates):
        rows_of[template].append(i)
    contents = ds.contents()
    truths = list(ds.ground_truths)
    skipped: list[int] = []
    # Per slot count, the positions of the lines refilled and their template
    # pieces around the wildcards.
    groups: dict[int, tuple[list[int], list[tuple[str, ...]]]] = {}
    for template, rows in rows_of.items():
        pieces = tuple(template.split(WILDCARD))
        if len(pieces) > 1:
            fullmatch = _pattern(template).fullmatch
            aligned = [fullmatch(contents[i]) is not None for i in rows]
            if not all(aligned):
                skipped += (i + 1 for i, ok in zip(rows, aligned) if not ok)
                rows = list(compress(rows, aligned))
            if rows:
                group_rows, group_pieces = groups.setdefault(len(pieces) - 1, ([], []))
                group_rows += rows
                group_pieces += [pieces] * len(rows)
        for i in rows:
            truths[i] = template or None
    skipped.sort()

    # One pick matrix for all refilled lines, a group's rows after another's;
    # then each group's lines are built a slot at a time, all rows at once.
    line_ids = [i + 1 for rows, _ in groups.values() for i in rows]
    picks = record_picks(cfg.seed, line_ids, len(vpool.values), max(groups, default=0))
    values = np.array(vpool.values, dtype=object)
    out = np.array(contents, dtype=object)
    start = 0
    for slots, (rows, row_pieces) in groups.items():
        parts = np.array(row_pieces, dtype=object)
        chosen = values[picks[start : start + len(rows)]]
        start += len(rows)
        text = parts[:, 0]
        for j in range(slots):
            text = text + chosen[:, j] + parts[:, j + 1]
        out[rows] = text
    return FuzzResult(Dataset(ds.name, out.tolist(), truths, ds.sources), skipped)
