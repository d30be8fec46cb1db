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

from .corpus import (
    Dataset,
    canonicalize_template,
    extract_variables,
    parse_content,
    read_csv_rows,
    template_frequency_map,
    write_csv_rows,
)
from .errors import AlignmentError, DataFormatError, LabelingError


@dataclass(frozen=True)
class PoolEntry:
    content: str
    ground_truth: str
    source: str


@dataclass
class OutlierPool:
    """Rare log lines pooled across datasets, deduplicated by content."""

    entries: list[PoolEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def excluding(self, source: str) -> list[PoolEntry]:
        return [e for e in self.entries if e.source != source]

    def save(self, path: str | Path) -> None:
        rows = (
            (i, e.content, e.ground_truth, e.source)
            for i, e in enumerate(self.entries, start=1)
        )
        write_csv_rows(path, ["LineId", "Content", "EventTemplate", "Source"], rows)

    @classmethod
    def load(cls, path: str | Path) -> "OutlierPool":
        """Read a saved pool; templates are canonicalized here, once each."""
        path = Path(path)
        header, rows = read_csv_rows(path)
        expected = ["LineId", "Content", "EventTemplate", "Source"]
        if header != expected:
            raise DataFormatError(f"{path}: expected header {expected}, got {header}")
        raw_templates = {row[2] for _, row in rows}
        canonical = {raw: canonicalize_template(raw) for raw in raw_templates}
        return cls(
            entries=[
                PoolEntry(
                    content=parse_content(path, row_num, row[1]),
                    ground_truth=canonical[row[2]],
                    source=row[3],
                )
                for row_num, row in rows
            ]
        )


@dataclass
class VariablePool:
    """Deduplicated variable values with the datasets each was seen in.

    `skipped` maps dataset name to the line ids whose content could not be
    aligned against its template during extraction; those lines contribute
    nothing but the build does not fail.
    """

    values: list[str] = field(default_factory=list)
    sources: dict[str, tuple[str, ...]] = field(default_factory=dict)
    skipped: dict[str, list[int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.values)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for value in self.values:
                f.write(value + "\t" + "\t".join(self.sources[value]) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "VariablePool":
        values: list[str] = []
        sources: dict[str, tuple[str, ...]] = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                values.append(parts[0])
                sources[parts[0]] = tuple(parts[1:])
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
        missing = [r.line_id for r in ds.records if r.ground_truth is None]
        if missing:
            raise LabelingError(
                f"dataset {ds.name!r} has unlabeled records", missing
            )
        for rec in ds.records:
            try:
                captured = extract_variables(rec.content, rec.ground_truth)  # type: ignore[arg-type]
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
