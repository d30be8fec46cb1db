"""Log dataset representation, ingestion, and template/variable alignment.

A dataset is an ordered list of log records. Each record carries the free-text
message content (no timestamp/level/PID header) and, when available, a
ground-truth template whose variable positions are marked with the ``<*>``
wildcard token.

Every input file is read and decoded by :func:`read_text`. Every CSV format
(dataset, outlier pool, parser output) is read by :func:`read_columns`,
which canonicalizes templates once, where they are read; every other
function expects canonical templates and compares them as given.
"""

from __future__ import annotations

import csv
import functools
import io
import re
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

from .errors import AlignmentError, DataFormatError, LabelingError, ShapeError

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

    def templates(self, parsed: list[str] | None = None) -> list[str]:
        """Per record, `parsed` (a parser's output) when given, else :meth:`labels`.

        Lets synthesis stand parser templates in for missing ground truth.
        """
        if parsed is None:
            return self.labels()
        if len(parsed) != len(self.records):
            raise ShapeError(
                f"parse result has {len(parsed)} entries for {len(self.records)} records"
            )
        return parsed


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file. Every input file is read and decoded here, once.

    A byte that is not UTF-8 raises DataFormatError naming the file, the
    line (CR, LF and CRLF each end one) and the byte.
    """
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1
        byte = raw[exc.start]
        raise DataFormatError(
            f"{path}: line {line}: byte 0x{byte:02x} is not UTF-8"
        ) from None


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 file, without their line breaks.

    Only CR, LF and CRLF end a line, as in text-mode reading; unlike
    :meth:`str.splitlines`, VT, FF, NEL, U+2028 and the like stay inside one.
    """
    lines = read_text(path).replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def write_csv_rows(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write a header and rows as UTF-8 CSV that :func:`read_columns` reads back.

    Fields are written with ``str()``; quoting is minimal and rows end in CRLF.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def read_columns(
    path: str | Path, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> dict[str, list[str]]:
    """The named columns of a CSV file, each a list of fields in `LineId` order.

    Every CSV format is read here, so each row rule is applied in one place:

    * the `required` columns are in the header; an `optional` column is
      returned only when the header has it, and other columns are ignored;
    * no column read here (`LineId` included) is named twice in the header;
    * empty rows are skipped, and every other row has the header's fields;
    * a `LineId` column, whenever the header has it, holds the integers
      1..n in any order, and rows come back in that order (file order when
      the column is absent); it is not itself returned;
    * a `Content` field holds no line break;
    * each distinct `EventTemplate` field is canonicalized once.

    A violation, bad quoting or a ragged row raises DataFormatError naming
    the file and the row (the line it starts on); a byte that is not UTF-8,
    naming the file and the line.
    """
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path), newline=""), strict=True)
    rows: list[tuple[int, list[str]]] = []
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
                    f"{path}: row {row_num} has {len(row)} fields, expected {len(header)}"
                )
            rows.append((row_num, row))
    except csv.Error as exc:
        raise DataFormatError(f"{path}: row {next_row}: {exc}") from exc
    if header is None:
        raise DataFormatError(f"{path}: empty file, expected a header row")
    index = {col: idx for idx, col in enumerate(header)}
    for col in required:
        if col not in index:
            raise DataFormatError(f"{path}: missing column {col!r}")
    for col in (*required, *optional, "LineId"):
        if header.count(col) > 1:
            raise DataFormatError(f"{path}: header repeats column {col!r}")
    columns = {
        col: [row[index[col]] for _, row in rows]
        for col in (*required, *optional)
        if col in index and col != "LineId"
    }
    for (row_num, _), content in zip(rows, columns.get("Content", ())):
        if "\n" in content or "\r" in content:
            raise DataFormatError(f"{path}: row {row_num} content contains a line break")
    if "EventTemplate" in columns:
        raw = columns["EventTemplate"]
        canonical = {text: canonicalize_template(text) for text in set(raw)}
        columns["EventTemplate"] = [canonical[text] for text in raw]
    if "LineId" in index:
        order = _line_id_order(path, rows, index["LineId"])
        columns = {col: [fields[i] for i in order] for col, fields in columns.items()}
    return columns


def check_contents(contents: list[str], line_ids: Sequence[int]) -> None:
    """Raise ValueError naming the line id of the first content holding a CR or
    LF, which :func:`read_columns` rejects; writers call it before writing."""
    joined = "".join(contents)  # one scan in C when, as usual, none has one
    if "\n" in joined or "\r" in joined:
        i = next(i for i, text in enumerate(contents) if "\n" in text or "\r" in text)
        raise ValueError(f"line {line_ids[i]} content contains a line break")


def _line_id_order(path: Path, rows: list[tuple[int, list[str]]], line_idx: int) -> list[int]:
    """Row positions in `LineId` order; the ids must be 1..n, each once."""
    n = len(rows)
    order = [-1] * n
    for pos, (row_num, row) in enumerate(rows):
        text = row[line_idx]
        try:
            line_id = int(text)
        except ValueError:
            raise DataFormatError(
                f"{path}: row {row_num} has non-integer LineId {text!r}"
            ) from None
        if not 1 <= line_id <= n:
            raise DataFormatError(
                f"{path}: row {row_num} has LineId {line_id}; LineId values must "
                f"be contiguous from 1, here 1..{n}"
            )
        first = order[line_id - 1]
        if first >= 0:
            raise DataFormatError(
                f"{path}: row {row_num} repeats LineId {line_id} of row "
                f"{rows[first][0]}; LineId values must be contiguous from 1"
            )
        order[line_id - 1] = pos
    return order


def load_structured(path: str | Path, name: str | None = None) -> Dataset:
    """Load a comma-separated dataset with `Content` and `EventTemplate` columns.

    Read by :func:`read_columns`, so records are in `LineId` order when the
    file has that column. An optional `Source` column overrides the
    per-record source tag; an empty `EventTemplate` field means unlabeled.
    """
    path = Path(path)
    if name is None:
        name = path.stem
    columns = read_columns(path, ("Content", "EventTemplate"), ("Source",))
    sources = columns.get("Source") or repeat(name)
    records = [
        LogRecord(line_id, content, template or None, source)
        for line_id, (content, template, source) in enumerate(
            zip(columns["Content"], columns["EventTemplate"], sources), start=1
        )
    ]
    return Dataset(name=name, records=records)


def load_raw(path: str | Path, name: str | None = None) -> Dataset:
    """Load a newline-delimited text file, one message per line.

    Blank lines are skipped; line ids stay contiguous. Records carry no
    ground truth. A byte that is not UTF-8 raises DataFormatError naming the
    file and the line.
    """
    path = Path(path)
    if name is None:
        name = path.stem
    contents = (line for line in read_lines(path) if line.strip())
    records = [
        LogRecord(line_id=line_id, content=content, source=name)
        for line_id, content in enumerate(contents, start=1)
    ]
    return Dataset(name=name, records=records)


def write_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a dataset in the structured format; round-trips exactly.

    A `Source` column is emitted only when some record's source differs from
    the dataset name (as after mixing). A record whose line id is not its
    row position 1..n (the reader would reject or reorder it), or a content
    holding a line break, raises ValueError naming it before the file is
    opened.
    """
    records = ds.records
    for row, r in enumerate(records, start=1):
        if r.line_id != row:
            raise ValueError(f"record {row} has line id {r.line_id}, not its row position")
    check_contents([r.content for r in records], [r.line_id for r in records])
    if any(r.source != ds.name for r in records):
        header = ["LineId", "Content", "EventTemplate", "Source"]
        rows = ((r.line_id, r.content, r.ground_truth or "", r.source) for r in records)
    else:
        header = ["LineId", "Content", "EventTemplate"]
        rows = ((r.line_id, r.content, r.ground_truth or "") for r in records)
    write_csv_rows(path, header, rows)


@functools.lru_cache(maxsize=None)
def _pattern(template: str) -> re.Pattern:
    """Each wildcard captures one or more characters, leftmost-shortest."""
    return re.compile(r"(.+?)".join(map(re.escape, template.split(WILDCARD))))


def extract_variables(content: str, template: str) -> list[str]:
    """Return the substring captured by each ``<*>`` of `template`, in order.

    Matching is character-level and leftmost-shortest: the first wildcard
    takes the fewest characters with which the rest can still align, then
    the second, and so on. Every wildcard must absorb at least one character
    and the full content must be consumed. When each wildcard is a token of
    its own and the values are tokens joined by single spaces, wildcards
    absorb whole tokens, so this is also the leftmost-shortest token-level
    alignment.
    """
    m = _pattern(template).fullmatch(content)
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
    return _pattern(template).fullmatch(content) is not None


def template_frequency_map(ds: Dataset) -> dict[str, int]:
    """Count records per ground-truth template."""
    return dict(Counter(ds.labels()))

