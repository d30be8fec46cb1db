"""Reference log parsers behind one interface.

Two baselines are built in, enough to exercise the synthesis/evaluation loop:

* a streaming fixed-depth-tree parser: lines are routed by token count and
  leading tokens, matched against groups by positional token similarity, and
  group templates generalize disagreeing positions to ``<*>``. Membership is
  decided online, in one pass, and groups never merge; each record reports
  its group's final template. Routes are kept in a table of paths: the keys
  seen after each routed prefix, and the groups at each leaf path. A line's
  token count and leading tokens are routed once, since a route never changes.
* an offline token-frequency parser: lines are grouped by token count and
  counted per column, that is per (token count, position); a token is kept
  when its occurrence ratio within its column meets a threshold, otherwise
  it becomes ``<*>``.

Any other parser integrates by writing a `LineId,EventTemplate` file,
index-aligned with the input dataset (see :func:`read_parse_result`).

Built-in parsers emit canonical templates: they split content on U+0020
alone, the one character templates are aligned on, and join the tokens with
single spaces, so any other whitespace (a tab, NBSP) stays inside its token.
Both read that split from :attr:`~logblend.corpus.Dataset.tokens`, which a
dataset builds once for every parse of it; a tree parse with masks reads the
table of a dataset of the masked contents. The token-frequency parser
relabels a column at a time: a column whose tokens are all kept is used as
it is, one with none kept becomes wildcards, and any other maps each token
through the kept set.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import eq
from pathlib import Path
from typing import ClassVar, get_args

from .corpus import WILDCARD, Dataset, read_columns, write_columns
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


def _leaf(fanout: dict[tuple, set[str]], tokens: Sequence[str], levels: int,
          max_children: int) -> tuple:
    """The routed path of `tokens`, adding each key to the fan-out of its prefix."""
    path: tuple = (len(tokens),)
    for key in tokens[:levels]:
        if _DIGIT.search(key):
            key = WILDCARD
        keys = fanout.setdefault(path, set())
        if key not in keys and key != WILDCARD and (
            len(keys) + (WILDCARD not in keys) >= max_children
        ):
            # Leave room for the spill bucket once the fan-out fills up.
            key = WILDCARD
        keys.add(key)
        path += (key,)
    return path


def _parse_tree(ds: Dataset, cfg: TreeParserConfig) -> ParseResult:
    if cfg.masks:
        masked = ds.contents()
        for mask in map(re.compile, cfg.masks):
            masked = [mask.sub(WILDCARD, content) for content in masked]
        ds = Dataset(ds.name, masked, ds.ground_truths, ds.sources)
    levels = max(cfg.depth - 2, 0)
    threshold = cfg.similarity_threshold
    # The keys seen after each routed prefix (token count, then keys).
    fanout: dict[tuple, set[str]] = {}
    # Each leaf's groups, as indices into `templates`, by its routed path.
    groups_at: dict[tuple, list[int]] = {}
    # A line's leaf depends only on its token count and first `levels` tokens.
    # A stored route never goes stale: keys are never removed, and a fan-out
    # that has filled up never shrinks, so it spills the same keys.
    leaves: dict[tuple, list[int]] = {}
    # Group templates hold each wildcard as "", which no token equals, so a
    # literal "<*>" token never agrees with a template's wildcard.
    templates: list[Sequence[str]] = []
    # Per group, the number of wildcards in its template.
    wildcards: list[int] = []
    # The group each line joined; -1 for a line without tokens.
    joined: list[int] = []
    for tokens in ds.tokens:
        if not tokens:
            joined.append(-1)
            continue
        n = len(tokens)
        path = (n, *tokens[:levels])
        groups = leaves.get(path)
        if groups is None:
            leaf = _leaf(fanout, tokens, levels, cfg.max_children)
            groups = leaves[path] = groups_at.setdefault(leaf, [])

        # Every template of a leaf has the line's length, so the integer count
        # of literal positions that agree orders groups as the similarity
        # (that count over n) does.
        best = -1
        best_same = -1
        best_wildcards = -1
        for group in groups:
            same = sum(map(eq, templates[group], tokens))
            if same > best_same or (same == best_same and wildcards[group] > best_wildcards):
                best, best_same, best_wildcards = group, same, wildcards[group]

        # Groups never merge, since no two groups of a leaf that a line can
        # join hold equal templates. Generalizing the chosen group by the line
        # cannot give another group's template: that group would match the
        # line as well, with more wildcards, and would have been chosen. A new
        # group can repeat a template only when the line's share of literal
        # tokens is below the threshold, and a group like that is never chosen.
        if best < 0 or best_same / n < threshold:
            best = len(templates)
            if WILDCARD in tokens:
                tokens = [tok if tok != WILDCARD else "" for tok in tokens]
            templates.append(tokens)
            wildcards.append(tokens.count(""))
            groups.append(best)
        elif best_same + best_wildcards != n:
            # Some literal position disagrees with the line; it becomes "".
            templates[best] = [
                t if t == tok else "" for t, tok in zip(templates[best], tokens)
            ]
            wildcards[best] = n - best_same
        joined.append(best)
    # Wildcards are written as "<*>"; the trailing "" is what index -1 reads.
    final = [" ".join([t or WILDCARD for t in template]) for template in templates]
    final.append("")
    return [final[group] for group in joined]


def _parse_tokenfreq(ds: Dataset, cfg: TokenFrequencyParserConfig) -> ParseResult:
    token_lists = ds.tokens
    classes: dict[int, list[int]] = defaultdict(list)
    for idx, toks in enumerate(token_lists):
        classes[len(toks)].append(idx)
    # Rows without tokens drop out of the transpose and keep "".
    results = [""] * len(token_lists)
    for rows in classes.values():
        size = len(rows)
        columns: list[Iterable[str]] = []
        for column in zip(*map(token_lists.__getitem__, rows)):
            counts = Counter(column)
            kept = {tok: tok for tok, n in counts.items() if n / size >= cfg.threshold}
            if len(kept) == len(counts):
                columns.append(column)
            elif not kept:
                columns.append(repeat(WILDCARD, size))
            else:
                columns.append(map(kept.get, column, repeat(WILDCARD)))
        for idx, row in zip(rows, map(" ".join, zip(*columns))):
            results[idx] = row
    return results


def parse(ds: Dataset, cfg: ParserConfig) -> ParseResult:
    """One canonical template per record, index-aligned with the dataset."""
    if not len(ds):
        raise EmptyDatasetError(f"dataset {ds.name!r} is empty")
    if isinstance(cfg, TreeParserConfig):
        return _parse_tree(ds, cfg)
    if isinstance(cfg, TokenFrequencyParserConfig):
        return _parse_tokenfreq(ds, cfg)
    if isinstance(cfg, IdentityParserConfig):
        return list(ds.labels())
    raise TypeError(f"unknown parser config: {cfg!r}")


def write_parse_result(result: ParseResult, path: str | Path) -> None:
    """Write the two-column integration format: LineId,EventTemplate."""
    write_columns(path, {"EventTemplate": result})


def read_parse_result(path: str | Path, dataset: Dataset | None = None) -> ParseResult:
    """Read a parser-output file; how external parsers plug into the harness.

    Read by :func:`~logblend.corpus.read_columns`, which orders the templates
    by `LineId` and canonicalizes them. Given the `dataset` whose records the
    file labels, a file with another number of templates raises ShapeError
    naming both the file and the dataset.
    """
    result = read_columns(path, ("EventTemplate",))[0]["EventTemplate"]
    if dataset is not None and len(result) != len(dataset):
        raise ShapeError(
            f"{path}: {len(result)} templates for the {len(dataset)} records"
            f" of dataset {dataset.name!r}"
        )
    return result
