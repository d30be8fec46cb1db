"""Static resources backing synthesis: the outlier pool and the variable pool.

Both pools are built once from a set of labeled datasets and then frozen to
disk, so repeated benchmark runs draw from identical material. The outlier
pool holds rare lines (lowest ground-truth template frequency first) used to
replace frequent entries during mixing; the variable pool holds every
distinct variable value observed, used to refill wildcard slots during
fuzzing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

from .corpus import (
    Dataset,
    check_contents,
    extract_variables,
    read_columns,
    read_lines,
    template_frequency_map,
    write_csv_rows,
)
from .errors import AlignmentError, DataFormatError


@dataclass(frozen=True)
class PoolEntry:
    content: str
    ground_truth: str
    source: str


@dataclass(frozen=True)
class OutlierPool:
    """Rare log lines pooled across datasets, deduplicated by content."""

    entries: tuple[PoolEntry, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def excluding(self, source: str) -> list[PoolEntry]:
        return [e for e in self.entries if e.source != source]

    def save(self, path: str | Path) -> None:
        check_contents([e.content for e in self.entries], range(1, len(self) + 1))
        rows = (
            (i, e.content, e.ground_truth, e.source)
            for i, e in enumerate(self.entries, start=1)
        )
        write_csv_rows(path, ["LineId", "Content", "EventTemplate", "Source"], rows)

    @classmethod
    def load(cls, path: str | Path) -> "OutlierPool":
        """Read a saved pool with :func:`~logblend.corpus.read_columns`."""
        columns = read_columns(path, ("LineId", "Content", "EventTemplate", "Source"))
        fields = (columns[col] for col in ("Content", "EventTemplate", "Source"))
        return cls(entries=map(PoolEntry, *fields))


@dataclass(frozen=True)
class VariablePool:
    """Deduplicated variable values with the datasets each was seen in.

    `skipped` maps dataset name to the line ids whose content could not be
    aligned against its template during extraction; those lines contribute
    nothing but the build does not fail.
    """

    values: tuple[str, ...] = ()
    sources: MappingProxyType[str, tuple[str, ...]] = field(default_factory=dict)
    skipped: dict[str, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "sources", MappingProxyType(dict(self.sources)))

    def __len__(self) -> int:
        return len(self.values)

    def to_text(self) -> str:
        """The saved form: per value, the value, then its source tags, tab-separated.

        Raises ValueError naming a value that would not read back: an empty
        one, one with no tag, or a tab, CR or LF in it or a tag.
        """
        lines = []
        for value in self.values:
            tags = self.sources[value]
            line = "\t".join((value, *tags))
            split = line.count("\t") != len(tags) or "\n" in line or "\r" in line
            if split or not value or not tags:
                raise ValueError(
                    f"variable pool value {value!r} with sources {tags!r} would not "
                    "read back: it needs a value, a tag, and no tab, CR or LF"
                )
            lines.append(line + "\n")
        return "".join(lines)

    def save(self, path: str | Path) -> None:
        """Write :meth:`to_text` to `path`; where that raises, nothing is opened."""
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "VariablePool":
        """Read a saved pool: per line, a value and its tab-separated source tags.

        An empty or repeated value, a line with no source tag, or a byte that
        is not UTF-8 raises DataFormatError naming the file and line.
        """
        values: list[str] = []
        sources: dict[str, tuple[str, ...]] = {}
        for line_num, line in enumerate(read_lines(path), start=1):
            if not line:
                continue
            value, *tags = line.split("\t")
            if not value:
                raise DataFormatError(f"{path}: line {line_num} has an empty value")
            if not tags:
                raise DataFormatError(f"{path}: line {line_num} has no source tag")
            if value in sources:
                raise DataFormatError(
                    f"{path}: line {line_num} repeats the value {value!r}"
                )
            values.append(value)
            sources[value] = tuple(tags)
        return cls(values=values, sources=sources)


def build_outlier_pool(
    datasets: list[Dataset], outlier_fraction: float = 0.05
) -> OutlierPool:
    """Pool the rarest lines of each dataset.

    Per dataset, records are ranked by ascending ground-truth template
    frequency (ties by line id) and the first ceil(fraction * N) are taken.
    The union across datasets is deduplicated by content, keeping the first
    occurrence and its source tag.
    """
    if not 0.0 < outlier_fraction <= 1.0:
        raise ValueError(f"outlier_fraction must be in (0, 1], got {outlier_fraction}")
    seen: set[str] = set()
    entries: list[PoolEntry] = []
    for ds in datasets:
        freq = template_frequency_map(ds)  # raises LabelingError when unlabeled
        take = math.ceil(round(outlier_fraction * len(ds.records), 9))
        ranked = sorted(
            ds.records,
            key=lambda r: (freq[r.ground_truth], r.line_id),  # type: ignore[index]
        )
        for rec in ranked[:take]:
            if rec.content in seen:
                continue
            seen.add(rec.content)
            entries.append(
                PoolEntry(
                    content=rec.content,
                    ground_truth=rec.ground_truth,  # type: ignore[arg-type]
                    source=rec.source,
                )
            )
    return OutlierPool(entries=entries)


def build_variable_pool(datasets: list[Dataset]) -> VariablePool:
    """Collect every variable value extractable from the datasets' labels.

    Values are deduplicated in encounter order; a value seen in several
    datasets accumulates all their source tags. Records that fail alignment
    are recorded in the pool's skip report.
    """
    values: list[str] = []
    sources: dict[str, list[str]] = {}
    skipped: dict[str, list[int]] = {}
    for ds in datasets:
        for rec, template in zip(ds.records, ds.labels()):
            try:
                captured = extract_variables(rec.content, template)
            except AlignmentError:
                skipped.setdefault(ds.name, []).append(rec.line_id)
                continue
            for value in captured:
                # A tab, CR or LF would split the value in the saved file.
                if not value or "\t" in value or "\n" in value or "\r" in value:
                    continue
                if value not in sources:
                    sources[value] = [rec.source]
                    values.append(value)
                elif rec.source not in sources[value]:
                    sources[value].append(rec.source)
    return VariablePool(
        values=values,
        sources={v: tuple(s) for v, s in sources.items()},
        skipped=skipped,
    )
