"""Raise heterogeneity further by refilling every variable slot from a pool.

Each line keeps its template structure: the variables are extracted against
the line's template (ground truth, or a parser's output when no labels
exist), replaced with values sampled uniformly from the variable pool, and
substituted back. The output dataset is labeled with the templates that were
used, so it stays evaluable. A line's picks depend only on the seed and its
row position, so they do not change with the rows around it.

The lines are aligned a template at a time. The picks of all refilled lines
come as one matrix, read as one list per slot, and each template's lines are
rebuilt with one ``str.join`` per line over its pieces and picked values.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, repeat

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
    template per line), and with its ground truth otherwise. Randomness is
    derived from (seed, row position): row i draws the stream of line id
    i + 1. Lines whose template has no wildcard pass through unchanged;
    lines that fail alignment (possible when parser templates are wrong)
    also pass through, keep their ground truth and are listed in the
    result's skip report. Every other line is labeled with its template.
    """
    if not vpool.values:
        raise EmptyPoolError("variable pool is empty")
    templates = ds.templates(parsed)

    rows_of: dict[str, list[int]] = defaultdict(list)
    for i, template in enumerate(templates):
        rows_of[template].append(i)
    contents = ds.contents()
    skipped: list[int] = []
    # Per template with a wildcard, its pieces around the wildcards and the
    # positions of the lines refilled.
    refills: list[tuple[list[str], list[int]]] = []
    for template, rows in rows_of.items():
        pieces = template.split(WILDCARD)
        if len(pieces) > 1:
            fullmatch = _pattern(template).fullmatch
            aligned = [fullmatch(contents[i]) is not None for i in rows]
            if not all(aligned):
                skipped += (i + 1 for i, ok in zip(rows, aligned) if not ok)
                rows = list(compress(rows, aligned))
            if rows:
                refills.append((pieces, rows))
    skipped.sort()
    truths = list(templates)
    for line_id in skipped:
        truths[line_id - 1] = ds.ground_truths[line_id - 1]

    # One pick matrix for all refilled lines, a template's rows after
    # another's, read as one list of picks per slot.
    line_ids = [i + 1 for _, rows in refills for i in rows]
    slots = max((len(pieces) - 1 for pieces, _ in refills), default=0)
    columns = record_picks(cfg.seed, line_ids, len(vpool.values), slots).T.tolist()
    pick = vpool.values.__getitem__
    out = list(contents)
    start = 0
    for (head, *pieces), rows in refills:
        end = start + len(rows)
        parts = [repeat(head)]
        for column, piece in zip(columns, pieces):
            parts += (map(pick, column[start:end]), repeat(piece))
        for i, line in zip(rows, map("".join, zip(*parts))):
            out[i] = line
        start = end
    return FuzzResult(Dataset(ds.name, out, truths, ds.sources), skipped)
