"""Reference log parsers behind one interface.

Two baselines are built in, enough to exercise the synthesis/evaluation loop:

* a streaming fixed-depth-tree parser: lines are routed by token count and
  leading tokens, matched against groups by positional token similarity, and
  group templates generalize disagreeing positions to ``<*>``. Membership is
  decided online, in one pass, and groups never merge; each record reports
  its group's final template.
* an offline token-frequency parser: lines are grouped by token count and
  counted per column, that is per (token count, position); a token is kept
  when its occurrence ratio within its column meets a threshold, otherwise
  it becomes ``<*>``.

Any other parser integrates by writing a `LineId,EventTemplate` file,
index-aligned with the input dataset (see :func:`read_parse_result`).

Built-in parsers emit canonical templates: they split content on U+0020
alone, the one character templates are aligned on, and join the tokens with
single spaces, so any other whitespace (a tab, NBSP) stays inside its token.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, get_args

from .corpus import WILDCARD, Dataset, read_columns, write_csv_rows
from .errors import EmptyDatasetError, ShapeError
from .metrics import ParseResult


@dataclass(frozen=True)
class TreeParserConfig:
    name: ClassVar[str] = "tree"
    depth: int = 4
    similarity_threshold: float = 0.4
    max_children: int = 100
    #: Optional regex masks substituted with the wildcard before tokenizing.
    #: Off by default: canned masks encode per-dataset heuristics.
    masks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError(f"depth must be positive, got {self.depth}")
        if not 0.0 < self.similarity_threshold < 1.0:
            raise ValueError(
                f"similarity_threshold must be in (0, 1), got {self.similarity_threshold}"
            )
        if self.max_children < 1:
            raise ValueError(f"max_children must be positive, got {self.max_children}")
        for mask in self.masks:
            try:
                re.compile(mask)
            except re.error as exc:
                raise ValueError(f"mask {mask!r} is not a regex: {exc}") from exc


@dataclass(frozen=True)
class TokenFrequencyParserConfig:
    name: ClassVar[str] = "tokenfreq"
    threshold: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")


@dataclass(frozen=True)
class IdentityParserConfig:
    """Echoes stored ground truth; an oracle for metric and label validation."""

    name: ClassVar[str] = "identity"


ParserConfig = TreeParserConfig | TokenFrequencyParserConfig | IdentityParserConfig

#: Each built-in parser's config class by its name, the `kind` of a plan entry.
PARSER_CONFIGS: dict[str, type] = {cls.name: cls for cls in get_args(ParserConfig)}

_DIGIT = re.compile(r"\d")


class _Node:
    __slots__ = ("children", "groups")

    def __init__(self) -> None:
        self.children: dict[str, _Node] = {}
        #: The leaf's groups, as indices into the parse's template list.
        self.groups: list[int] = []


def _similarity(template: list[str], tokens: list[str]) -> tuple[float, int]:
    """Fraction of positions with equal tokens, plus the wildcard count."""
    same = 0
    params = 0
    for t, s in zip(template, tokens):
        if t == WILDCARD:
            params += 1
        elif t == s:
            same += 1
    return same / len(template), params


def _parse_tree(ds: Dataset, cfg: TreeParserConfig) -> ParseResult:
    masks = [re.compile(m) for m in cfg.masks]
    token_layers = max(cfg.depth - 2, 0)
    root: dict[int, _Node] = {}
    templates: list[list[str]] = []
    # The group each line joined; -1 for a line without tokens.
    joined: list[int] = []
    for content in ds.contents():
        for mask in masks:
            content = mask.sub(WILDCARD, content)
        tokens = list(filter(None, content.split(" ")))
        if not tokens:
            joined.append(-1)
            continue

        node = root.get(len(tokens))
        if node is None:
            node = root[len(tokens)] = _Node()
        for level in range(min(token_layers, len(tokens))):
            key = tokens[level]
            if _DIGIT.search(key):
                key = WILDCARD
            child = node.children.get(key)
            if child is None:
                if key != WILDCARD and len(node.children) + (
                    0 if WILDCARD in node.children else 1
                ) >= cfg.max_children:
                    # Leave room for the spill bucket once the fan-out fills up.
                    key = WILDCARD
                    child = node.children.get(key)
                if child is None:
                    child = _Node()
                    node.children[key] = child
            node = child

        # Groups never merge, since no two groups of a leaf that a line can
        # join hold equal templates. Generalizing the chosen group by the line
        # cannot give another group's template: that group would match the
        # line as well, with more wildcards, and would have been chosen. A new
        # group can repeat a template only when the line's share of literal
        # tokens is below the threshold, and a group like that is never chosen.
        best = -1
        best_sim = -1.0
        best_params = -1
        for group in node.groups:
            sim, params = _similarity(templates[group], tokens)
            if sim > best_sim or (sim == best_sim and params > best_params):
                best, best_sim, best_params = group, sim, params
        if best < 0 or best_sim < cfg.similarity_threshold:
            best = len(templates)
            templates.append(tokens)
            node.groups.append(best)
        else:
            template = templates[best]
            for i, tok in enumerate(tokens):
                if template[i] != tok:
                    template[i] = WILDCARD
        joined.append(best)
    # The trailing "" is what index -1 reads.
    final = [" ".join(template) for template in templates] + [""]
    return [final[group] for group in joined]


def _parse_tokenfreq(ds: Dataset, cfg: TokenFrequencyParserConfig) -> ParseResult:
    token_lists = [list(filter(None, content.split(" "))) for content in ds.contents()]
    classes: dict[int, list[int]] = defaultdict(list)
    for idx, toks in enumerate(token_lists):
        classes[len(toks)].append(idx)
    # Rows without tokens drop out of the transpose and keep "".
    results = [""] * len(token_lists)
    for rows in classes.values():
        size = len(rows)
        columns = []
        for column in zip(*[token_lists[idx] for idx in rows]):
            counts = Counter(column).items()
            kept = {tok for tok, n in counts if n / size >= cfg.threshold}
            columns.append([tok if tok in kept else WILDCARD for tok in column])
        for idx, row in zip(rows, zip(*columns)):
            results[idx] = " ".join(row)
    return results


def identity_parser(ds: Dataset) -> ParseResult:
    """Return each line's stored ground truth."""
    return list(ds.labels())


def parse(ds: Dataset, cfg: ParserConfig) -> ParseResult:
    """One canonical template per record, index-aligned with the dataset."""
    if not len(ds):
        raise EmptyDatasetError(f"dataset {ds.name!r} is empty")
    if isinstance(cfg, TreeParserConfig):
        return _parse_tree(ds, cfg)
    if isinstance(cfg, TokenFrequencyParserConfig):
        return _parse_tokenfreq(ds, cfg)
    if isinstance(cfg, IdentityParserConfig):
        return identity_parser(ds)
    raise TypeError(f"unknown parser config: {cfg!r}")


def write_parse_result(result: ParseResult, path: str | Path) -> None:
    """Write the two-column integration format: LineId,EventTemplate."""
    write_csv_rows(path, ["LineId", "EventTemplate"], enumerate(result, start=1))


def read_parse_result(path: str | Path, expected_len: int | None = None) -> ParseResult:
    """Read a parser-output file; how external parsers plug into the harness.

    Read by :func:`~logblend.corpus.read_columns`, which orders the templates
    by `LineId` and canonicalizes them.
    """
    result = read_columns(path, ("EventTemplate",))[0]["EventTemplate"]
    if expected_len is not None and len(result) != expected_len:
        raise ShapeError(f"{path}: {len(result)} templates for {expected_len} records")
    return result
