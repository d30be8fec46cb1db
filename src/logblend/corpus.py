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
quote-free file whose lines are all non-empty and as wide as its header with
one split of the whole text, and reads every other file with ``csv.reader``,
with the same rules either way. The string work is done in whole-text
passes: lines are split at CRLF first and again only where a bare CR or LF
is left, and one scan of the distinct templates tells whether any needs
canonicalizing.
"""

from __future__ import annotations

import csv
import functools
import io
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from hashlib import sha256
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
    Applied where templates are read, nowhere else. A template already
    canonical is returned as the same object.
    """
    if "  " not in text and text[:1] != " " and text[-1:] != " ":
        return text
    return " ".join(_tokens(text))


def _tokens(content: str) -> tuple[str, ...]:
    """`content` split on U+0020, without the empty tokens a run of spaces leaves."""
    tokens = content.split(" ")
    if "" in tokens:
        return tuple(filter(None, tokens))
    return tuple(tokens)


def distinct_tokens(contents: Iterable[str]) -> set[str]:
    """The distinct :func:`_tokens` of `contents`, from one split of them all."""
    tokens = set(" ".join(contents).split(" "))
    tokens.discard("")
    return tokens


@dataclass(frozen=True, init=False)
class Dataset:
    """A named dataset stored as three equally long columns.

    Row i holds a line's content, its canonical ground-truth template (None
    where unlabeled) and its source tag; its line id is i + 1. An empty
    template means unlabeled, in memory as in a file: a ``""`` ground truth
    is held as None. The token table of :attr:`tokens` is kept beside the
    three columns, not among the fields, so it takes no part in equality or
    the repr.
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
        truths = tuple(ground_truths)
        if "" in truths:  # one scan in C; usually none is empty
            truths = tuple(template or None for template in truths)
        columns = tuple(contents), truths, tuple(sources)
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

    @functools.cached_property
    def tokens(self) -> tuple[tuple[str, ...], ...]:
        """Per line, its content split on U+0020 without empty tokens.

        Built on first use and kept until the dataset is freed, so every
        parse of one dataset reads the same split.
        """
        return tuple(map(_tokens, self._contents))

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
        # The bytes before the bad one decode; the "x" starts the bad byte's line.
        line = len(_split_lines(raw[: exc.start].decode("utf-8") + "x"))
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

    The text is split at CRLF, and the pieces are joined by LF and split
    again at every CR and LF only when one of them holds a bare break. Both
    give the lines of replacing CRLF, then CR, by LF and splitting there.
    """
    lines = text.split("\r\n")
    rest = "".join(lines)  # the text itself when it holds no CRLF
    if "\n" in rest or "\r" in rest:
        lines = "\n".join(lines).replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _needs_quotes(text: str) -> bool:
    """Whether ``csv.writer`` quotes a field holding `text`."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


@functools.lru_cache(maxsize=4)  # the files of a run mostly share a row count
def _line_ids(n: int) -> tuple[str, ...]:
    """The `LineId` fields of n rows in order, ``"1"`` to ``str(n)``: the ids
    the writer writes, among which the reader looks up each id it reads."""
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
    ending in CRLF. Before the file is opened, columns of different lengths
    raise ValueError, and a `Content` value holding a CR or LF, which the
    reader rejects, raises DataFormatError naming `path` and the line.
    """
    lengths = {name: len(column) for name, column in columns.items()}
    n = max(lengths.values())
    if min(lengths.values()) != n:
        raise ValueError(f"columns of different lengths: {lengths}")
    broken = _line_break_at(columns.get("Content", ()))
    if broken is not None:
        raise DataFormatError(f"{path}: line {broken + 1} content contains a line break")
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
      the column is absent); it is not itself returned. Without its leading
      zeros, an id is looked up among the writer's ids, never converted;
    * a `Content` field holds no line break;
    * each distinct `EventTemplate` field is canonicalized at most once, and
      equal templates come back as one object (:func:`_canonical_templates`);
      equal `Source` fields come back as one object as well (:func:`_shared`).

    A violation, bad quoting or a ragged row raises DataFormatError naming
    the file and the row (the line it starts on); a byte that is not UTF-8,
    naming the file and the line.

    Text with no ``"`` is split in bulk by :func:`_split_rows` unless it is
    empty or holds an empty line, a line not as wide as the header or one
    longer than ``csv.field_size_limit()``. That text and text with a ``"``
    are read by :func:`_read_rows`, and only its `Content` fields are scanned
    for a line break, since the bulk split breaks the text at every CR and
    LF. Both give the same columns and errors.
    """
    path = Path(path)
    text, digest = read_text(path)
    names = (*required, *optional)
    split = None if '"' in text else _split_rows(text)
    header, row_nums, fields = split or _read_rows(path, text, (*names, "LineId"))
    if header is None:
        raise DataFormatError(f"{path}: empty file, expected a header row")
    for col in required:
        if col not in fields:
            raise DataFormatError(f"{path}: missing column {col!r}")
    for col in (*names, "LineId"):
        if header.count(col) > 1:
            raise DataFormatError(f"{path}: header repeats column {col!r}")
    columns = {col: fields[col] for col in names if col in fields and col != "LineId"}
    broken = None if split else _line_break_at(columns.get("Content", ()))
    if broken is not None:
        raise DataFormatError(f"{path}: row {row_nums[broken]} content contains a line break")
    if "EventTemplate" in columns:
        columns["EventTemplate"] = _canonical_templates(columns["EventTemplate"])
    if "Source" in columns:
        columns["Source"] = _shared(columns["Source"])
    if "LineId" in fields:
        ids = fields["LineId"]
        if tuple(ids) != _line_ids(len(ids)):  # like types: a list never equals a tuple
            order = _line_id_order(path, row_nums, ids)
            columns = {col: [column[i] for i in order] for col, column in columns.items()}
    return columns, digest


def _canonical_templates(fields: list[str]) -> list[str]:
    """Per field its canonical template, one string object per distinct one.

    A template is canonical unless it holds two spaces in a row or a space at
    either end. When the distinct templates are joined by single spaces, such
    a space shows as ``"  "`` or at an end of the joined text, so one scan
    tells whether any needs :func:`canonicalize_template`; usually none does.
    ``""`` is canonical and is left out of the scan, where it would show as
    ``"  "``.
    """
    shared = dict(zip(fields, fields))
    scan = " ".join(filter(None, shared))
    if "  " in scan or scan[:1] == " " or scan[-1:] == " ":
        canonical: dict[str, str] = {}
        for text in shared:
            form = canonicalize_template(text)
            shared[text] = canonical.setdefault(form, form)
    return _shared(fields, shared)


def _shared(fields: list[str], shared: dict[str, str] | None = None) -> list[str]:
    """Per field, `shared[field]`; by default the last field equal to it, so
    that a column holds one string object per distinct value."""
    if shared is None:
        shared = dict(zip(fields, fields))
    return list(map(shared.__getitem__, fields))


def _split_rows(text: str) -> tuple[list[str], range, dict[str, list[str]]] | None:
    """The header, the line number of each row, and each column by its name,
    that :func:`_read_rows` reads from `text`, which holds no ``"``.

    Lines end as :func:`_split_lines` says. When every line holds as many
    commas as the header, the lines are joined by commas and split once, and
    column i is every width-th field of that split from row 1 on. None where
    ``csv.reader`` is to read it and name what is wrong, if anything: an
    empty file, an empty line (which it skips), a line not as wide as the
    header, or a line longer than ``csv.field_size_limit()``.
    """
    lines = _split_lines(text)
    if not lines or "" in lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    commas = lines[0].count(",")
    if set(map(str.count, lines, repeat(","))) != {commas}:
        return None
    row_nums = range(2, len(lines) + 1)
    joined = ",".join(lines)
    del lines  # each line copies its part of the text; none is needed now
    flat = joined.split(",")
    del joined
    width = commas + 1
    header = flat[:width]
    columns = {name: flat[i + width :: width] for i, name in enumerate(header)}
    return header, row_nums, columns


def _read_rows(
    path: Path, text: str, names: tuple[str, ...]
) -> tuple[list[str] | None, list[int], dict[str, list[str]]]:
    """The header (None for an empty file), the line number of each non-empty
    row, and each of the columns `names` that the header has, by its name,
    as ``csv.reader(strict=True)`` reads `text`.

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
    wanted = [(i, name) for i, name in enumerate(header or ()) if name in names]
    return header, row_nums, {name: [row[i] for row in rows] for i, name in wanted}


def _line_break_at(texts: Sequence[str]) -> int | None:
    """The index of the first of `texts` holding a CR or LF, or None."""
    joined = "".join(texts)  # one scan in C when, as usual, none has one
    if "\n" in joined or "\r" in joined:
        return next(i for i, text in enumerate(texts) if "\n" in text or "\r" in text)
    return None


def _line_id_order(path: Path, row_nums: Sequence[int], ids: Sequence[str]) -> list[int]:
    """Row positions in `LineId` order; the ids must be 1..n, each once.

    Leading zeros are allowed. Once they are dropped, an id is looked up among
    the ids the writer writes, :func:`_line_ids`; it is never converted to an
    integer.
    """
    n = len(ids)
    position = dict(zip(_line_ids(n), range(n)))
    order = [-1] * n
    for pos, (row_num, text) in enumerate(zip(row_nums, ids)):
        if not (text.isascii() and text.isdigit()):
            raise DataFormatError(f"{path}: row {row_num} has non-integer LineId {text!r}")
        digits = text.lstrip("0") or "0"
        line = position.get(digits)
        if line is None:
            raise DataFormatError(
                f"{path}: row {row_num} has LineId {digits}; LineId values must "
                f"be contiguous from 1, here 1..{n}"
            )
        first = order[line]
        if first >= 0:
            raise DataFormatError(
                f"{path}: row {row_num} repeats LineId {digits} of row "
                f"{row_nums[first]}; LineId values must be contiguous from 1"
            )
        order[line] = pos
    return order


def load_structured(path: str | Path, name: str | None = None) -> Dataset:
    """Load a comma-separated dataset with `Content` and `EventTemplate` columns.

    Read by :func:`read_columns`, so rows are in `LineId` order when the
    file has that column. An optional `Source` column overrides the
    per-line source tag.
    """
    name = Path(path).stem if name is None else name
    columns, _ = read_columns(path, ("Content", "EventTemplate"), ("Source",))
    contents, truths = columns["Content"], columns["EventTemplate"]
    return Dataset(name, contents, truths, columns.get("Source") or (name,) * len(contents))


def load_raw(path: str | Path) -> Dataset:
    """Load a newline-delimited text file, one message per line.

    Blank lines are skipped; the rest are the dataset's rows in file order,
    named after the file's stem, with no ground truth. A byte that is not
    UTF-8 raises DataFormatError naming the file and the line.
    """
    name = Path(path).stem
    contents = [line for line in read_lines(path)[0] if line.strip()]
    return Dataset(name, contents, (None,) * len(contents), (name,) * len(contents))


def write_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a dataset in the structured format; round-trips canonical templates exactly.

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
    for the wildcards after it. So each wildcard but the last is matched with
    the piece after it in an atomic group, ``(?>(.+?)piece)``, which the regex
    engine never backtracks into; a line that does not align fails without
    trying every split.
    """
    head, *rest = map(re.escape, template.split(WILDCARD))
    if not rest:
        return re.compile(head)
    middle = "".join(f"(?>(.+?){piece})" for piece in rest[:-1])
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
