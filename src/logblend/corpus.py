"""Log dataset representation, ingestion, and template/variable alignment.

A dataset is three columns: per line, the free-text message content (no
timestamp/level/PID header), the ground-truth template with its variable
positions marked by the ``<*>`` wildcard token (None where unlabeled), and the
source tag. A line id is the line's row position + 1; there is no row type.

Every input file is read and decoded by :func:`read_text`. Every CSV format
(dataset, outlier pool, parser output) is written from columns, numbered by a
`LineId` column, by :func:`write_columns` and read by :func:`read_columns`,
which canonicalizes templates once, where they are read; every other function
expects canonical templates and compares them as given. Both work a column at
a time and give what the ``csv`` module gives: the writer quotes only the
fields of a column that holds a comma, quote, CR or LF; the reader splits a
quote-free file in bulk and reads a quoted one with ``csv.reader``, with the
same rules either way.
"""

from __future__ import annotations

import csv
import functools
import io
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from hashlib import sha256
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
    if "  " in text or text.startswith(" ") or text.endswith(" "):
        return " ".join(filter(None, text.split(" ")))
    return text


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
    def records(self) -> tuple[tuple[str, str | None, str], ...]:
        """(content, truth, source) rows, for perfbench only; ROADMAP 1a deletes it."""
        return tuple(zip(self._contents, self.ground_truths, self.sources))

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

    Lines end as :func:`_split_lines` says.
    """
    text, digest = read_text(path)
    return _split_lines(text), digest


def _split_lines(text: str) -> list[str]:
    """The lines of `text` without their line breaks.

    Only CR, LF and CRLF end a line, as in text-mode reading and in
    ``csv.reader``; unlike :meth:`str.splitlines`, VT, FF, NEL, U+2028 and
    the like stay inside one. A break at the end starts no further line.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _needs_quotes(text: str) -> bool:
    """Whether ``csv.writer`` quotes a field holding `text`."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


@functools.lru_cache(maxsize=4)  # the files of a run mostly share a row count
def _line_ids(n: int) -> tuple[str, ...]:
    """The `LineId` fields of n rows in order: ``"1"`` to ``str(n)``."""
    return tuple(map(str, range(1, n + 1)))


def _csv_fields(name: str, column: Sequence) -> list[str]:
    """The header and fields of column `name` as ``csv.writer`` writes them in
    rows of two or more fields.

    A field is ``str()`` of the value. It is quoted, with each ``"`` doubled,
    when it holds a comma, quote, CR or LF. The whole column is scanned at
    once; only a column with a hit is checked field by field.
    """
    fields = [name, *map(str, column)]
    if _needs_quotes("".join(fields)):
        fields = [
            '"' + text.replace('"', '""') + '"' if _needs_quotes(text) else text
            for text in fields
        ]
    return fields


def write_columns(path: str | Path, columns: dict[str, Sequence]) -> None:
    """Write one or more columns, after a `LineId` column numbering the rows
    1..n, as UTF-8 CSV that :func:`read_columns` reads back.

    `columns` maps each column's name to its values, in order. The bytes are
    those ``csv.writer`` writes: a header row of the names, then per row its
    fields as :func:`_csv_fields` gives them, joined by commas, each row
    ending in CRLF. Columns of different lengths or a `Content` value holding
    a CR or LF, which the reader rejects, raise ValueError before the file is
    opened.
    """
    lengths = {name: len(column) for name, column in columns.items()}
    n = max(lengths.values())
    if min(lengths.values()) != n:
        raise ValueError(f"columns of different lengths: {lengths}")
    broken = _line_break_at(columns.get("Content", ()))
    if broken is not None:
        raise ValueError(f"line {broken + 1} content contains a line break")
    fields = [
        _csv_fields(name, column)
        for name, column in {"LineId": _line_ids(n), **columns}.items()
    ]
    text = "\r\n".join(map(",".join, zip(*fields))) + "\r\n"
    Path(path).write_text(text, encoding="utf-8", newline="")


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
    * a `LineId` column, whenever the header has it, holds 1..n in ASCII
      digits in any order, and rows come back in that order (file order when
      the column is absent); it is not itself returned;
    * a `Content` field holds no line break;
    * each distinct `EventTemplate` field is canonicalized once.

    A violation, bad quoting or a ragged row raises DataFormatError naming
    the file and the row (the line it starts on); a byte that is not UTF-8,
    naming the file and the line.

    Text with no ``"`` is split in bulk by :func:`_split_rows`.
    Other text, and text in which that split finds a row it leaves to
    ``csv.reader`` to name, is read by :func:`_read_rows`. Both paths give
    the same columns and the same errors.
    """
    path = Path(path)
    text, digest = read_text(path)
    split = None if '"' in text else _split_rows(text)
    header, row_nums, rows = split or _read_rows(path, text)
    if header is None:
        raise DataFormatError(f"{path}: empty file, expected a header row")
    index = {col: idx for idx, col in enumerate(header)}
    for col in required:
        if col not in index:
            raise DataFormatError(f"{path}: missing column {col!r}")
    for col in (*required, *optional, "LineId"):
        if header.count(col) > 1:
            raise DataFormatError(f"{path}: header repeats column {col!r}")
    fields = list(zip(*rows)) or [()] * len(header)
    columns = {
        col: list(fields[index[col]])
        for col in (*required, *optional)
        if col in index and col != "LineId"
    }
    broken = _line_break_at(columns.get("Content", ()))
    if broken is not None:
        raise DataFormatError(f"{path}: row {row_nums[broken]} content contains a line break")
    if "EventTemplate" in columns:
        raw = columns["EventTemplate"]
        canonical = {text: canonicalize_template(text) for text in set(raw)}
        columns["EventTemplate"] = [canonical[text] for text in raw]
    if "LineId" in index:
        ids = fields[index["LineId"]]
        if ids != _line_ids(len(ids)):
            order = _line_id_order(path, row_nums, ids)
            columns = {col: [column[i] for i in order] for col, column in columns.items()}
    return columns, digest


def _split_rows(text: str) -> tuple[list[str], Sequence[int], list[list[str]]] | None:
    """The header, and the line number and fields of each non-empty row, that
    :func:`_read_rows` reads from `text`, which holds no ``"``.

    Lines end as :func:`_split_lines` says and fields at each comma. None
    where ``csv.reader`` is to read it and name what is wrong: an empty file
    or header line, a non-empty row not as wide as the header, or a line
    longer than ``csv.field_size_limit()``.
    """
    lines = _split_lines(text)
    if not lines or not lines[0] or max(map(len, lines)) > csv.field_size_limit():
        return None
    row_nums: Sequence[int] = range(2, len(lines) + 1)
    if "" in lines:  # csv.reader gives an empty line as an empty row, skipped
        row_nums = [num for num, line in enumerate(lines, 1) if line][1:]
        lines = list(filter(None, lines))
    header, *rows = [line.split(",") for line in lines]
    if not set(map(len, rows)) <= {len(header)}:
        return None
    return header, row_nums, rows


def _read_rows(
    path: Path, text: str
) -> tuple[list[str] | None, list[int], list[list[str]]]:
    """The header (None for an empty file), and the line number and fields of
    each non-empty row, as ``csv.reader(strict=True)`` reads `text`.

    Bad quoting, a field over ``csv.field_size_limit()`` or a non-empty row
    not as wide as the header raises DataFormatError naming the row.
    """
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    row_nums: list[int] = []
    rows: list[list[str]] = []
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
            row_nums.append(row_num)
            rows.append(row)
    except csv.Error as exc:
        raise DataFormatError(f"{path}: row {next_row}: {exc}") from exc
    return header, row_nums, rows


def _line_break_at(texts: Sequence[str]) -> int | None:
    """The index of the first of `texts` holding a CR or LF, or None."""
    joined = "".join(texts)  # one scan in C when, as usual, none has one
    if "\n" in joined or "\r" in joined:
        return next(i for i, text in enumerate(texts) if "\n" in text or "\r" in text)
    return None


def _line_id_order(path: Path, row_nums: Sequence[int], ids: Sequence[str]) -> list[int]:
    """Row positions in `LineId` order; the ids must be 1..n, each once.

    Leading zeros are allowed. An id with more significant digits than n is
    past the end without being converted, since ``int()`` refuses a string
    of more than ``sys.get_int_max_str_digits()`` digits.
    """
    n = len(ids)
    most_digits = len(str(n))
    order = [-1] * n
    for pos, (row_num, text) in enumerate(zip(row_nums, ids)):
        if not (text.isascii() and text.isdigit()):
            raise DataFormatError(f"{path}: row {row_num} has non-integer LineId {text!r}")
        digits = text.lstrip("0") or "0"
        line_id = int(digits) if len(digits) <= most_digits else n + 1
        if not 1 <= line_id <= n:
            raise DataFormatError(
                f"{path}: row {row_num} has LineId {digits}; LineId values must "
                f"be contiguous from 1, here 1..{n}"
            )
        first = order[line_id - 1]
        if first >= 0:
            raise DataFormatError(
                f"{path}: row {row_num} repeats LineId {digits} of row "
                f"{row_nums[first]}; LineId values must be contiguous from 1"
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

    A `Source` column is written only when some line's source differs from
    the file's stem, the name :func:`load_structured` gives the dataset it
    reads back (as after mixing, or when the file is named otherwise).
    """
    columns = {
        "Content": ds.contents(),
        "EventTemplate": [template or "" for template in ds.ground_truths],
    }
    if ds.sources.count(Path(path).stem) != len(ds):
        columns["Source"] = ds.sources
    write_columns(path, columns)


@functools.lru_cache(maxsize=None)
def _pattern(template: str) -> re.Pattern:
    """Each wildcard captures one or more characters, leftmost-shortest.

    A wildcard followed by literal text ends at that text's first occurrence
    after the wildcard's first character: a later one only leaves less room
    for the wildcards after it. So each wildcard but the last is captured in a
    lookahead up to that occurrence, which the regex engine never backtracks
    into, and then consumed with the piece; a line that does not align fails
    without trying every split.
    """
    head, *rest = map(re.escape, template.split(WILDCARD))
    if not rest:
        return re.compile(head)
    middle = "".join(
        f"(?=(?P<w{i}>.+?){piece})(?P=w{i}){piece}" for i, piece in enumerate(rest[:-1])
    )
    return re.compile(f"{head}{middle}(.+?){rest[-1]}")


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
