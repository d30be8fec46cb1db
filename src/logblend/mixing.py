"""Raise a dataset's heterogeneity by swapping frequent lines for pooled outliers.

The user knob runs from 0 to 1 and maps linearly onto replacing 0% to 25% of
the dataset: the rows with the most frequent templates are overwritten in
place by lines sampled from the outlier pool, so every other row keeps its
position and the dataset its size, and results remain comparable across
strengths. Rows are taken in descending template frequency, then round (one
line of each template of that frequency), then first occurrence.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, groupby, islice

from ._rng import generator
from .corpus import Dataset
from .errors import EmptyPoolError
from .pool import OutlierPool

#: Replacement fraction at strength 1.0.
MAX_REPLACEMENT_FRACTION = 0.25


@dataclass(frozen=True)
class MixConfig:
    strength: float
    seed: int
    exclude_source: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError(f"strength must be in [0, 1], got {self.strength}")


def replacement_count(strength: float, size: int) -> int:
    return math.floor(round(MAX_REPLACEMENT_FRACTION * strength * size, 9))


def replacement_targets(labels: Sequence[str], k: int) -> list[int]:
    """Row positions of the k lines with the most frequent templates, in
    descending frequency, then round, then first occurrence.

    A round takes the next line, in row order, of each template of one
    frequency, so no template is exhausted before its peers.
    """
    by_template: dict[str, list[int]] = {}
    for idx, label in enumerate(labels):
        by_template.setdefault(label, []).append(idx)
    # Stable: templates of equal frequency keep their first-occurrence order.
    ordered = sorted(by_template.values(), key=len, reverse=True)
    rounds = chain.from_iterable(zip(*peers) for _, peers in groupby(ordered, key=len))
    return list(islice(chain.from_iterable(rounds), k))


def mix(
    ds: Dataset, pool: OutlierPool, cfg: MixConfig, parsed: Sequence[str] | None = None
) -> Dataset:
    """Replace the most frequent entries with pool lines.

    Frequency is counted over `parsed` when that is given (one template per
    line), so lines a parser lumped under one template are the frequent
    entries and no ground truth is needed; over the ground truth otherwise.
    Replaced rows adopt the pooled line's content, ground truth, and source;
    everything else is untouched and the output has the input's size.
    """
    labels = ds.templates(parsed)
    k = replacement_count(cfg.strength, len(ds))
    if k == 0:
        return ds
    lines = pool.lines
    candidates: Sequence[int] = range(len(lines))
    if cfg.exclude_source:
        candidates = [i for i, source in enumerate(lines.sources) if source != ds.name]
    if not candidates:
        excluded = f" after excluding source {ds.name!r}" if len(lines) else ""
        raise EmptyPoolError(f"outlier pool is empty{excluded}")
    targets = replacement_targets(labels, k)
    picks = generator(cfg.seed).integers(0, len(candidates), size=k)
    contents, truths, sources = map(list, (ds.contents(), ds.ground_truths, ds.sources))
    for pos, pick in zip(targets, picks):
        row = candidates[pick]
        contents[pos] = lines.contents()[row]
        truths[pos] = lines.ground_truths[row]
        sources[pos] = lines.sources[row]
    return Dataset(ds.name, contents, truths, sources)
