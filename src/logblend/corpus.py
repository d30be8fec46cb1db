"""Log dataset representation, ingestion, and template/variable alignment.

A dataset is three columns: per line, the free-text message content (no
timestamp/level/PID header), the ground-truth template with its variable
positions marked by the ``<*>`` wildcard token (None where unlabeled), and the
source tag. A line id is the line's row position + 1.

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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from hashlib import sha256
from itertools import count
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


class _Records(Sequence):
    """A dataset's rows as :class:`LogRecord` values, each built when it is read."""

    def __init__(self, ds: Dataset) -> None:
        self._ds = ds

    def __len__(self) -> int:
        return len(self._ds)

    def __getitem__(self, i):
        row = range(len(self))[i]  # IndexError past the end; a range for a slice
        if isinstance(row, range):
            return [self[j] for j in row]
        ds = self._ds
        return LogRecord(row + 1, ds._contents[row], ds.ground_truths[row], ds.sources[row])


@dataclass(frozen=True, init=False)
class Dataset:
    """A named dataset stored as three equally long columns.

    Row i holds a line's content, its canonical ground-truth template (None
    where unlabeled) and its source tag; its line id is i + 1.
    """

    name: str
    _contents: tuple[str, ...]
    ground_truths: tuple[str | None, ...]
    sources: tuple[str, ...]

    def __init__(
        self,
        name: str,
        contents: Iterable[str],
        ground_truths: Iterable[str | None],
        sources: Iterable[str],
    ) -> None:
        columns = tuple(contents), tuple(ground_truths), tuple(sources)
        n, m, k = map(len, columns)
        if not n == m == k:
            message = f"{n} contents, {m} ground truths and {k} sources"
            raise ShapeError(f"dataset {name!r} has {message}")
        object.__setattr__(self, "name", name)
        for field, column in zip(("_contents", "ground_truths", "sources"), columns):
            object.__setattr__(self, field, column)

    def __len__(self) -> int:
        return len(self._contents)

    @property
    def records(self) -> Sequence[LogRecord]:
        """The rows as :class:`LogRecord` values; `len` of it builds none."""
        return _Records(self)

    def contents(self) -> tuple[str, ...]:
        return self._contents

    def labels(self) -> tuple[str, ...]:
        """Ground-truth templates in line order; raises if any are missing."""
        if None in self.ground_truths:
            missing = [i for i, t in enumerate(self.ground_truths, 1) if t is None]
            message = f"dataset {self.name!r} has records without ground truth"
            raise LabelingError(message, missing)
        return self.ground_truths  # type: ignore[return-value]

    def templates(self, parsed: Sequence[str] | None = None) -> Sequence[str]:
        """Per record, `parsed` (a parser's output) when given, else :meth:`labels`.

        Lets synthesis stand parser templates in for missing ground truth.
        """
        if parsed is None:
            return self.labels()
        if len(parsed) != len(self):
            raise ShapeError(
                f"parse result has {len(parsed)} entries for {len(self)} records"
            )
        return parsed


def read_text(path: str | Path) -> tuple[str, str]:
    """The text of a UTF-8 file and the sha256 of the bytes it was decoded from.

    Every input file is read and decoded here, once. A byte that is not
    UTF-8 raises DataFormatError naming the file, the line (CR, LF and CRLF
    each end one) and the byte.
    """
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8"), sha256(raw).hexdigest()
    except UnicodeDecodeError as exc:
        head = raw[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1
        byte = raw[exc.start]
        raise DataFormatError(
            f"{path}: line {line}: byte 0x{byte:02x} is not UTF-8"
        ) from None


def read_lines(path: str | Path) -> tuple[list[str], str]:
    """The lines of a UTF-8 file, without their line breaks, and its sha256.

    Only CR, LF and CRLF end a line, as in text-mode reading; unlike
    :meth:`str.splitlines`, VT, FF, NEL, U+2028 and the like stay inside one.
    """
    text, digest = read_text(path)
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines, digest


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
) -> tuple[dict[str, list[str]], str]:
    """The named columns of a CSV file, each a list of fields in `LineId` order,
    and the file's sha256.

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
    text, digest = read_text(path)
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
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
    return columns, digest


def check_contents(contents: Sequence[str]) -> None:
    """Raise ValueError naming the line id of the first content holding a CR or
    LF, which :func:`read_columns` rejects; writers call it before writing."""
    joined = "".join(contents)  # one scan in C when, as usual, none has one
    if "\n" in joined or "\r" in joined:
        i = next(i for i, text in enumerate(contents) if "\n" in text or "\r" in text)
        raise ValueError(f"line {i + 1} content contains a line break")


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

    Read by :func:`read_columns`, so rows are in `LineId` order when the
    file has that column. An optional `Source` column overrides the
    per-line source tag; an empty `EventTemplate` field means unlabeled.
    """
    name = Path(path).stem if name is None else name
    columns, _ = read_columns(path, ("Content", "EventTemplate"), ("Source",))
    contents = columns["Content"]
    truths = [template or None for template in columns["EventTemplate"]]
    return Dataset(name, contents, truths, columns.get("Source") or (name,) * len(contents))


def load_raw(path: str | Path, name: str | None = None) -> Dataset:
    """Load a newline-delimited text file, one message per line.

    Blank lines are skipped; the rest are the dataset's rows in file order.
    Lines carry no ground truth. A byte that is not UTF-8 raises
    DataFormatError naming the file and the line.
    """
    name = Path(path).stem if name is None else name
    contents = [line for line in read_lines(Path(path))[0] if line.strip()]
    return Dataset(name, contents, (None,) * len(contents), (name,) * len(contents))


def write_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a dataset in the structured format; round-trips exactly.

    A `Source` column is emitted only when some line's source differs from
    the dataset name (as after mixing). A content holding a line break
    raises ValueError naming its line id before the file is opened.
    """
    check_contents(ds.contents())
    header = ["LineId", "Content", "EventTemplate"]
    columns = [ds.contents(), [template or "" for template in ds.ground_truths]]
    if ds.sources.count(ds.name) != len(ds):
        header.append("Source")
        columns.append(ds.sources)
    write_csv_rows(path, header, zip(count(1), *columns))


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
