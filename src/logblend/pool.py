"""Static resources backing synthesis: the outlier pool and the variable pool.

Both pools are built once from a set of labeled datasets and then frozen to
disk, so repeated benchmark runs draw from identical material. The outlier
pool holds rare lines (lowest ground-truth template frequency first) used to
replace frequent entries during mixing, as a :class:`~logblend.corpus.Dataset`
saved in the CSV format with a `Source` column; the variable pool holds every
distinct variable value observed, used to refill wildcard slots during
fuzzing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

from .corpus import Dataset, extract_variables, read_columns, read_lines, write_columns
from .errors import AlignmentError, DataFormatError

#: The name of an outlier pool's lines, built or loaded.
OUTLIER_POOL_NAME = "outlier_pool"
#: The columns of a saved outlier pool after its `LineId`.
_COLUMNS = ("Content", "EventTemplate", "Source")


@dataclass(frozen=True)
class OutlierPool:
    """Rare log lines pooled across datasets, deduplicated by content.

    Row i of `lines` holds a pooled line's content, its template and the
    source it was taken from.
    """

    lines: Dataset
    #: sha256 of the file the pool was loaded from; None for a built pool.
    sha256: str | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.lines)

    def save(self, path: str | Path) -> None:
        """Write the pool. A line :meth:`load` would reject (a line break in its
        content, an empty template) raises ValueError before the file is opened."""
        lines = self.lines
        for i, (content, template) in enumerate(zip(lines.contents(), lines.ground_truths), 1):
            if not (template or "").strip(" "):
                raise ValueError(f"outlier pool entry {i} {content!r} has an empty template")
        columns = lines.contents(), lines.ground_truths, lines.sources
        write_columns(path, dict(zip(_COLUMNS, columns)))

    @classmethod
    def load(cls, path: str | Path) -> "OutlierPool":
        """Read a saved pool with :func:`~logblend.corpus.read_columns`.

        Every pooled line is labeled: an empty `EventTemplate` raises
        DataFormatError naming the file and the `LineId`.
        """
        columns, digest = read_columns(path, ("LineId", *_COLUMNS))
        if "" in columns["EventTemplate"]:
            line_id = columns["EventTemplate"].index("") + 1
            raise DataFormatError(f"{path}: LineId {line_id} has an empty EventTemplate")
        return cls(Dataset(OUTLIER_POOL_NAME, *map(columns.get, _COLUMNS)), sha256=digest)


@dataclass(frozen=True)
class VariablePool:
    """Deduplicated variable values with the datasets each was seen in.

    `sources` maps each value, in order, to its source tags. `skipped` maps
    dataset name to the line ids (row position + 1) whose content could not
    be aligned against its template during extraction; those lines
    contribute nothing but the build does not fail.
    """

    sources: MappingProxyType[str, tuple[str, ...]] = field(default_factory=dict)
    skipped: MappingProxyType[str, tuple[int, ...]] = field(default_factory=dict)
    #: sha256 of the file the pool was loaded from; None for a built pool.
    sha256: str | None = field(default=None, compare=False)
    #: The values in order, ``tuple(sources)``.
    values: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sources = {value: tuple(tags) for value, tags in self.sources.items()}
        object.__setattr__(self, "sources", MappingProxyType(sources))
        object.__setattr__(self, "values", tuple(sources))
        skipped = {name: tuple(ids) for name, ids in self.skipped.items()}
        object.__setattr__(self, "skipped", MappingProxyType(skipped))

    def __len__(self) -> int:
        return len(self.values)

    def __reduce__(self):  # a mappingproxy does not pickle; rebuild from dicts
        return type(self), (dict(self.sources), dict(self.skipped), self.sha256)

    def to_text(self) -> str:
        """The saved form: per value, the value, then its source tags, tab-separated.

        Raises ValueError naming a value that would not read back: an empty
        one, one with no tag, or a tab, CR or LF in it or a tag.
        """
        lines = []
        for value, tags in self.sources.items():
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
        sources: dict[str, tuple[str, ...]] = {}
        lines, digest = read_lines(path)
        for line_num, line in enumerate(lines, start=1):
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
            sources[value] = tuple(tags)
        return cls(sources=sources, sha256=digest)


def build_outlier_pool(
    datasets: list[Dataset], outlier_fraction: float = 0.05
) -> OutlierPool:
    """Pool the rarest lines of each dataset.

    Per dataset, rows are ranked by ascending ground-truth template
    frequency (ties by row position) and the first ceil(fraction * N) are
    taken. The union across datasets is deduplicated by content, keeping the
    first occurrence and its source tag.
    """
    if not 0.0 < outlier_fraction <= 1.0:
        raise ValueError(f"outlier_fraction must be in (0, 1], got {outlier_fraction}")
    picked: dict[str, tuple[str, str]] = {}  # content: (template, source)
    for ds in datasets:
        freq = Counter(ds.labels())  # raises LabelingError when unlabeled
        take = math.ceil(round(outlier_fraction * len(ds), 9))
        rows = zip(ds.contents(), ds.ground_truths, ds.sources)
        # A stable sort, so rows of equal frequency keep their order.
        for content, truth, source in sorted(rows, key=lambda row: freq[row[1]])[:take]:
            picked.setdefault(content, (truth, source))
    truths = [truth for truth, _ in picked.values()]
    sources = [source for _, source in picked.values()]
    return OutlierPool(Dataset(OUTLIER_POOL_NAME, picked, truths, sources))


def build_variable_pool(datasets: list[Dataset]) -> VariablePool:
    """Collect every variable value extractable from the datasets' labels.

    Values are deduplicated in encounter order; a value seen in several
    datasets accumulates all their source tags. Lines that fail alignment
    are recorded in the pool's skip report.
    """
    sources: dict[str, list[str]] = {}
    skipped: dict[str, list[int]] = {}
    for ds in datasets:
        rows = zip(ds.labels(), ds.contents(), ds.sources)
        for line_id, (template, content, source) in enumerate(rows, start=1):
            try:
                captured = extract_variables(content, template)
            except AlignmentError:
                skipped.setdefault(ds.name, []).append(line_id)
                continue
            for value in captured:
                # A tab, CR or LF would split the value in the saved file.
                if not value or "\t" in value or "\n" in value or "\r" in value:
                    continue
                tags = sources.setdefault(value, [])
                if source not in tags:
                    tags.append(source)
    return VariablePool(sources=sources, skipped=skipped)
