"""Log dataset representation, ingestion, and template/variable alignment.

A dataset is an ordered list of log records. Each record carries the free-text
message content (no timestamp/level/PID header) and, when available, a
ground-truth template whose variable positions are marked with the ``<*>``
wildcard token.

Templates are canonicalized once, where they are read (:func:`load_structured`
here, ``read_parse_result`` and ``OutlierPool.load`` elsewhere); every other
function expects canonical templates and compares them as given.
"""

from __future__ import annotations

import csv
import functools
import re
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .errors import AlignmentError, DataFormatError, LabelingError

WILDCARD = "<*>"


def canonicalize_template(text: str) -> str:
    """Collapse runs of spaces (U+0020) to one and trim them from the ends.

    Templates are tokenized and aligned on U+0020 alone, so that is the only
    whitespace canonicalization touches: a tab, NBSP or U+2028 in a template
    is a literal character that its content must hold too. Template files
    vary in incidental spacing; metric comparisons must not hinge on it.
    Applied where templates are read, nowhere else.
    """
    return " ".join(filter(None, text.split(" ")))


def template_tokens(template: str) -> list[str]:
    return template.split(" ") if template else []


def count_wildcards(template: str) -> int:
    return template.count(WILDCARD)


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One log line: 1-based position, message content, optional template."""

    line_id: int
    content: str
    #: Canonical template (see :func:`canonicalize_template`), or None.
    ground_truth: str | None = None
    source: str = ""


@dataclass
class Dataset:
    """Named, ordered collection of log records with contiguous line ids."""

    name: str
    records: list[LogRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def contents(self) -> list[str]:
        return [r.content for r in self.records]

    def labels(self) -> list[str]:
        """Ground-truth templates in line order; raises if any are missing."""
        missing = [r.line_id for r in self.records if r.ground_truth is None]
        if missing:
            raise LabelingError(
                f"dataset {self.name!r} has records without ground truth", missing
            )
        return [r.ground_truth for r in self.records]  # type: ignore[misc]

    def is_labeled(self) -> bool:
        return all(r.ground_truth is not None for r in self.records)

    def validate(self) -> None:
        non_canonical = {
            gt
            for gt in {r.ground_truth for r in self.records}
            if gt is not None and canonicalize_template(gt) != gt
        }
        for i, rec in enumerate(self.records, start=1):
            if rec.line_id != i:
                raise DataFormatError(
                    f"dataset {self.name!r}: line_id {rec.line_id} at position {i}"
                )
            if "\n" in rec.content or "\r" in rec.content:
                raise DataFormatError(
                    f"dataset {self.name!r}: line {i} contains a line break"
                )
            if rec.ground_truth in non_canonical:
                raise DataFormatError(
                    f"dataset {self.name!r}: line {i} ground truth "
                    f"{rec.ground_truth!r} is not canonical"
                )


def read_csv_rows(path: Path) -> tuple[list[str] | None, list[tuple[int, list[str]]]]:
    """Header and non-empty rows of a CSV file, each with the line it starts on.

    Bad quoting, or a row whose field count differs from the header's,
    raises DataFormatError naming the file and the row.
    """
    rows: list[tuple[int, list[str]]] = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f, strict=True)
        next_row = 1
        try:
            header = next(reader, None)
            next_row = reader.line_num + 1
            for row in reader:
                row_num, next_row = next_row, reader.line_num + 1
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataFormatError(
                        f"{path}: row {row_num} has {len(row)} fields, "
                        f"expected {len(header)}"
                    )
                rows.append((row_num, row))
        except csv.Error as exc:
            raise DataFormatError(f"{path}: row {next_row}: {exc}") from exc
    return header, rows


def write_csv_rows(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write a header and rows as UTF-8 CSV that :func:`read_csv_rows` reads back.

    Fields are written with ``str()``; quoting is minimal and rows end in CRLF.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def parse_line_id(path: Path, row_num: int, text: str) -> int:
    """A `LineId` field as an int; DataFormatError naming the file and row if not."""
    try:
        return int(text)
    except ValueError as exc:
        raise DataFormatError(
            f"{path}: row {row_num} has non-integer LineId {text!r}"
        ) from exc


def parse_content(path: Path, row_num: int, text: str) -> str:
    """A `Content` field; DataFormatError naming file and row if it has a line break."""
    if "\n" in text or "\r" in text:
        raise DataFormatError(f"{path}: row {row_num} content contains a line break")
    return text


def load_structured(path: str | Path, name: str | None = None) -> Dataset:
    """Load a comma-separated dataset with `Content` and `EventTemplate` columns.

    `LineId` is honored when present (must be contiguous from 1), otherwise
    line ids follow row order. An optional `Source` column overrides the
    per-record source tag; an empty `EventTemplate` field means unlabeled.
    Templates are canonicalized here, once per distinct template.
    """
    path = Path(path)
    if name is None:
        name = path.stem
    header, rows = read_csv_rows(path)
    if header is None:
        raise DataFormatError(f"{path}: empty file, expected a header row")
    cols = {col: idx for idx, col in enumerate(header)}
    for required in ("Content", "EventTemplate"):
        if required not in cols:
            raise DataFormatError(f"{path}: missing column {required!r}")
    content_idx = cols["Content"]
    template_idx = cols["EventTemplate"]
    line_idx = cols.get("LineId")
    source_idx = cols.get("Source")
    raw_templates = {row[template_idx] for _, row in rows}
    canonical = {raw: canonicalize_template(raw) for raw in raw_templates}
    records: list[LogRecord] = []
    for row_num, row in rows:
        content = parse_content(path, row_num, row[content_idx])
        template = canonical[row[template_idx]]
        if line_idx is not None:
            line_id = parse_line_id(path, row_num, row[line_idx])
        else:
            line_id = len(records) + 1
        records.append(
            LogRecord(
                line_id=line_id,
                content=content,
                ground_truth=template or None,
                source=row[source_idx] if source_idx is not None else name,
            )
        )
    ds = Dataset(name=name, records=records)
    ds.validate()
    return ds


def load_raw(path: str | Path, name: str | None = None) -> Dataset:
    """Load a newline-delimited text file, one message per line.

    Blank lines are skipped; line ids stay contiguous. Records carry no
    ground truth.
    """
    path = Path(path)
    if name is None:
        name = path.stem
    records: list[LogRecord] = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            content = line.rstrip("\r\n")
            if not content.strip():
                continue
            records.append(
                LogRecord(line_id=len(records) + 1, content=content, source=name)
            )
    return Dataset(name=name, records=records)


def write_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a dataset in the structured format; round-trips exactly.

    A `Source` column is emitted only when some record's source differs from
    the dataset name (as after mixing).
    """
    records = ds.records
    if any(r.source != ds.name for r in records):
        header = ["LineId", "Content", "EventTemplate", "Source"]
        rows = ((r.line_id, r.content, r.ground_truth or "", r.source) for r in records)
    else:
        header = ["LineId", "Content", "EventTemplate"]
        rows = ((r.line_id, r.content, r.ground_truth or "") for r in records)
    write_csv_rows(path, header, rows)


def _token_pattern(template: str) -> re.Pattern | None:
    """Token-level matcher: wildcards absorb one-or-more space-separated tokens.

    Returns None when a wildcard is embedded inside a token (e.g. ``id=<*>``);
    those templates only admit character-level alignment.
    """
    parts = []
    for tok in template_tokens(template):
        if tok == WILDCARD:
            parts.append(r"(\S+(?: \S+)*?)")
        elif WILDCARD in tok:
            return None
        else:
            parts.append(re.escape(tok))
    return re.compile(" ".join(parts))


def _char_pattern(template: str) -> re.Pattern:
    """Character-level matcher: each wildcard captures one-or-more characters."""
    pieces = template.split(WILDCARD)
    return re.compile(r"(.+?)".join(re.escape(p) for p in pieces))


@functools.lru_cache(maxsize=None)
def _matchers(template: str) -> tuple[re.Pattern | None, re.Pattern]:
    return _token_pattern(template), _char_pattern(template)


def _alignment(content: str, template: str) -> re.Match | None:
    token_pat, char_pat = _matchers(template)
    if token_pat is not None:
        m = token_pat.fullmatch(content)
        if m is not None:
            return m
    return char_pat.fullmatch(content)


def extract_variables(content: str, template: str) -> list[str]:
    """Return the substring captured by each ``<*>`` of `template`, in order.

    Matching is leftmost-shortest: token-level alignment first (a wildcard
    absorbs whole tokens), character-level as fallback. Every wildcard must
    absorb at least one character and the full content must be consumed.
    """
    m = _alignment(content, template)
    if m is None:
        raise AlignmentError(content, template)
    return list(m.groups())


def substitute_variables(template: str, variables: list[str]) -> str:
    """Inverse of :func:`extract_variables`: fill wildcard slots in order."""
    pieces = template.split(WILDCARD)
    if len(variables) != len(pieces) - 1:
        raise ValueError(
            f"template has {len(pieces) - 1} wildcard slots, "
            f"got {len(variables)} values"
        )
    out = [pieces[0]]
    for value, piece in zip(variables, pieces[1:]):
        out.append(value)
        out.append(piece)
    return "".join(out)


def matches_template(content: str, template: str) -> bool:
    """Whether :func:`extract_variables` would align `content` with `template`."""
    return _alignment(content, template) is not None


def template_frequency_map(ds: Dataset) -> dict[str, int]:
    """Count records per ground-truth template."""
    return dict(Counter(ds.labels()))

