"""Synthetic multi-source log corpora for tests.

Nine generated datasets stand in for the usual public 2K-line benchmark
sets: distinct vocabularies per source, skewed template frequencies with a
rare tail, and value pools that mix single-token values (ids, ips, paths)
with multi-token phrases (error descriptions), which is what makes fuzzed
data genuinely hard to parse.
"""

from __future__ import annotations

import ast
import random
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from logblend.corpus import (
    WILDCARD,
    Dataset,
    canonicalize_template,
    extract_variables,
)
from logblend.errors import AlignmentError
from logblend.fuzzing import FuzzResult
from logblend.heterogeneity import ProxyStats
from logblend.parsers import TreeParserConfig
from logblend.pool import (
    OUTLIER_POOL_NAME,
    OutlierPool,
    VariablePool,
    build_outlier_pool,
    build_variable_pool,
)


# Published per-dataset stat triples (unique words, chars, line lengths) for
# the nine public 2K benchmark sets plus the combined and industry sets.
PUBLISHED_STATS = {
    "Apache": ProxyStats(874, 46, 9),
    "BGL": ProxyStats(2068, 75, 114),
    "HDFS": ProxyStats(3599, 56, 59),
    "HealthApp": ProxyStats(1512, 71, 55),
    "HPC": ProxyStats(510, 65, 50),
    "Mac": ProxyStats(2981, 90, 186),
    "OpenStack": ProxyStats(1445, 72, 50),
    "Spark": ProxyStats(1970, 70, 63),
    "Windows": ProxyStats(1206, 82, 66),
    "Combined": ProxyStats(3123, 91, 157),
    "Industry": ProxyStats(4421, 92, 181),
}


def fill_template(template: str, variables: list[str]) -> str:
    """Fill the ``<*>`` slots of `template` with `variables`, in order.

    The inverse of :func:`logblend.corpus.extract_variables`.
    """
    pieces = template.split(WILDCARD)
    assert len(variables) == len(pieces) - 1, (template, variables)
    return "".join(piece + value for piece, value in zip(pieces, variables)) + pieces[-1]


def backtracking_alignment(content: str, template: str) -> list[str] | None:
    """One lazy group per wildcard, the oracle for `extract_variables`; None
    where the line does not align.

    Leftmost-shortest by construction, but on a line that does not align the
    regex tries every split, in time exponential in the wildcards: keep its
    inputs short.
    """
    pattern = r"(.+?)".join(map(re.escape, template.split(WILDCARD)))
    m = re.fullmatch(pattern, content)
    return None if m is None else list(m.groups())


_ADJ = [
    "stale", "primary", "remote", "secondary", "invalid", "degraded",
    "active", "orphaned", "cold", "split", "readonly", "shadow",
    "pending", "foreign", "misplaced", "unbound", "frozen", "partial",
    "rotated", "inherited",
]
_NOUN = [
    "replica", "shard", "bucket", "channel", "segment", "lease",
    "cursor", "handle", "quota", "token", "snapshot", "mirror",
    "ledger", "manifest", "journal", "backlog", "fence", "epoch",
    "watermark", "heartbeat",
]
_VERB = [
    "exceeded", "rejected", "expired", "recovered", "detached",
    "throttled", "corrupted", "drained", "evicted", "fenced",
    "reconciled", "suspended", "escalated", "quarantined", "rewound",
    "truncated",
]


def phrases(rng: random.Random, n: int) -> list[str]:
    """Multi-token values, 2 or 3 words each."""
    out = set()
    while len(out) < n:
        words = [rng.choice(_ADJ), rng.choice(_NOUN)]
        if rng.random() < 0.6:
            words.append(rng.choice(_VERB))
        out.add(" ".join(words))
    return sorted(out)


def hexids(rng: random.Random, n: int, width: int = 8) -> list[str]:
    out = set()
    while len(out) < n:
        out.add("".join(rng.choice("0123456789abcdef") for _ in range(width)))
    return sorted(out)


def ips(rng: random.Random, n: int) -> list[str]:
    out = set()
    while len(out) < n:
        out.add(".".join(str(rng.randint(1, 254)) for _ in range(4)))
    return sorted(out)


def ints(lo: int, hi: int) -> list[str]:
    return [str(i) for i in range(lo, hi + 1)]


def paths(rng: random.Random, n: int) -> list[str]:
    dirs = ["var", "srv", "data", "tmp", "opt", "cache"]
    out = set()
    while len(out) < n:
        out.add(
            "/" + rng.choice(dirs) + "/" + rng.choice(_NOUN) + str(rng.randint(0, 99))
        )
    return sorted(out)


def names(rng: random.Random, n: int, prefix: str) -> list[str]:
    return [f"{prefix}_{i:03d}" for i in range(n)]


@dataclass(frozen=True)
class TemplateSpec:
    template: str
    weight: float
    slots: tuple[tuple[str, ...], ...]


def _spec(template: str, weight: float, *slots: list[str]) -> TemplateSpec:
    assert template.count("<*>") == len(slots)
    return TemplateSpec(template, weight, tuple(tuple(s) for s in slots))


def build_dataset(name: str, n: int, seed: int, specs: list[TemplateSpec]) -> Dataset:
    """Sample n lines from weighted templates, filling slots from their pools.

    Every template gets at least two lines and every slot sees at least two
    distinct values (cycled on the first occurrences), so a competent parser
    can converge on every template.
    """
    rng = random.Random(seed)
    total_w = sum(s.weight for s in specs)
    counts = [max(2, round(s.weight / total_w * n)) for s in specs]
    while sum(counts) > n:
        counts[counts.index(max(counts))] -= 1
    while sum(counts) < n:
        counts[counts.index(max(counts))] += 1
    line_specs: list[TemplateSpec] = []
    for spec, count in zip(specs, counts):
        line_specs.extend([spec] * count)
    rng.shuffle(line_specs)

    seen_per_spec: dict[str, int] = {}
    contents: list[str] = []
    for spec in line_specs:
        occurrence = seen_per_spec.get(spec.template, 0)
        seen_per_spec[spec.template] = occurrence + 1
        values = []
        for slot in spec.slots:
            if occurrence < 2:
                values.append(slot[occurrence % len(slot)])
            else:
                values.append(rng.choice(slot))
        contents.append(fill_template(spec.template, values))
    templates = [spec.template for spec in line_specs]
    return Dataset(name, contents, templates, [name] * n)


def apacheish_specs() -> list[TemplateSpec]:
    """Six templates, two slots each, heavily skewed like a single-service log.

    Frequent templates draw from small value pools so replacing their lines
    rarely removes unique words; the rare tail carries diverse values.
    """
    rng = random.Random(101)
    return [
        _spec(
            "child worker <*> registered in slot <*>", 0.38,
            ints(0, 15), ints(0, 9),
        ),
        _spec(
            "connection from <*> closed after <*> ms", 0.24,
            ips(rng, 12), ints(1, 40),
        ),
        _spec(
            "cache segment <*> flushed in <*> ms", 0.16,
            ints(0, 31), ints(1, 25),
        ),
        _spec(
            "config profile <*> reloaded from <*>", 0.12,
            names(rng, 6, "profile"), paths(rng, 8),
        ),
        _spec(
            "request <*> rejected by rule <*>", 0.06,
            hexids(rng, 60), ints(1, 12),
        ),
        _spec(
            "scheduler job <*> finished with status <*>", 0.04,
            names(rng, 70, "job"), phrases(rng, 120),
        ),
    ]


def _source_specs() -> dict[str, list[TemplateSpec]]:
    rng = random.Random(202)
    return {
        "apacheish": apacheish_specs(),
        "dbsvc": [
            _spec("query on table <*> finished in <*> ms", 0.4,
                  names(rng, 24, "tbl"), ints(1, 30)),
            _spec("transaction <*> committed at offset <*>", 0.3,
                  hexids(rng, 40), phrases(rng, 300)),
            _spec("vacuum of table <*> reclaimed <*> pages", 0.2,
                  names(rng, 24, "tbl"), ints(1, 30)),
            _spec("replication lag on <*> is <*>", 0.07,
                  names(rng, 20, "node"), phrases(rng, 300)),
            _spec("deadlock detected between <*> and <*>", 0.03,
                  hexids(rng, 40, 6), phrases(rng, 300)),
        ],
        "authsvc": [
            _spec("login for user <*> from <*> succeeded", 0.45,
                  names(rng, 30, "user"), ips(rng, 25)),
            _spec("session <*> expired after <*> minutes", 0.3,
                  hexids(rng, 40, 12), ints(5, 35)),
            _spec("password change for <*> denied because <*>", 0.15,
                  names(rng, 30, "user"), phrases(rng, 320)),
            _spec("token refresh for <*> returned <*>", 0.07,
                  names(rng, 30, "user"), phrases(rng, 320)),
            _spec("lockout triggered for <*> on host <*>", 0.03,
                  names(rng, 30, "user"), phrases(rng, 280)),
        ],
        "netmon": [
            _spec("interface <*> link state changed to <*>", 0.4,
                  names(rng, 16, "eth"), phrases(rng, 300)),
            _spec("packet loss on <*> reached <*> percent", 0.3,
                  names(rng, 16, "eth"), ints(1, 30)),
            _spec("neighbor <*> advertised route <*>", 0.2,
                  ips(rng, 25), phrases(rng, 300)),
            _spec("arp cache entry <*> for <*> evicted", 0.07,
                  hexids(rng, 50, 12), ips(rng, 25)),
            _spec("probe to <*> timed out after <*> ms", 0.03,
                  ips(rng, 25), ints(100, 130)),
        ],
        "queue": [
            _spec("consumer <*> polled <*> messages", 0.45,
                  names(rng, 20, "cons"), ints(0, 30)),
            _spec("partition <*> rebalanced to broker <*>", 0.25,
                  ints(0, 40), ints(1, 9)),
            _spec("offset commit for <*> failed because <*>", 0.17,
                  names(rng, 20, "cons"), phrases(rng, 340)),
            _spec("topic <*> retention moved to <*> hours", 0.1,
                  names(rng, 25, "topic"), ints(1, 48)),
            _spec("dead letter from <*> carrying <*>", 0.03,
                  names(rng, 25, "topic"), phrases(rng, 340)),
        ],
        "storage": [
            _spec("volume <*> usage at <*> percent", 0.45,
                  names(rng, 16, "vol"), ints(1, 100)),
            _spec("scrub of <*> repaired <*> blocks", 0.25,
                  names(rng, 16, "vol"), ints(0, 30)),
            _spec("snapshot <*> created under <*>", 0.15,
                  hexids(rng, 40, 10), paths(rng, 30)),
            _spec("tier migration of <*> is <*>", 0.1,
                  paths(rng, 30), phrases(rng, 320)),
            _spec("disk <*> reported smart warning <*>", 0.05,
                  names(rng, 20, "sd"), phrases(rng, 320)),
        ],
        "webapp": [
            _spec("GET <*> served in <*> ms", 0.5,
                  paths(rng, 35), ints(1, 45)),
            _spec("upstream <*> returned status <*>", 0.25,
                  names(rng, 12, "backend"), ints(200, 230)),
            _spec("rate limit for client <*> now <*>", 0.15,
                  ips(rng, 25), phrases(rng, 340)),
            _spec("render of view <*> used <*> queries", 0.07,
                  names(rng, 30, "view"), ints(1, 40)),
            _spec("websocket <*> closed with reason <*>", 0.03,
                  hexids(rng, 40, 10), phrases(rng, 340)),
        ],
        "sensor": [
            _spec("reading from probe <*> is <*> celsius", 0.5,
                  names(rng, 24, "probe"), ints(-20, 10)),
            _spec("calibration of <*> drifted by <*>", 0.25,
                  names(rng, 24, "probe"), phrases(rng, 320)),
            _spec("battery on node <*> at <*> percent", 0.15,
                  ints(100, 125), ints(1, 100)),
            _spec("radio sync with <*> lost near <*>", 0.07,
                  hexids(rng, 40, 6), phrases(rng, 300)),
            _spec("firmware on <*> updated to <*>", 0.03,
                  names(rng, 24, "probe"), phrases(rng, 300)),
        ],
        "batchjob": [
            _spec("stage <*> of pipeline <*> completed", 0.45,
                  ints(1, 12), names(rng, 24, "pipe")),
            _spec("retrying task <*> attempt <*>", 0.25,
                  hexids(rng, 40, 10), ints(1, 8)),
            _spec("input split <*> skipped because <*>", 0.15,
                  paths(rng, 30), phrases(rng, 360)),
            _spec("checkpoint for <*> stored at <*>", 0.1,
                  names(rng, 24, "pipe"), paths(rng, 30)),
            _spec("executor <*> lost with <*>", 0.05,
                  ints(1, 40), phrases(rng, 360)),
        ],
    }


@lru_cache(maxsize=None)
def source_datasets(n: int = 2000) -> tuple[Dataset, ...]:
    """The nine synthetic source datasets, 2K lines each by default."""
    specs = _source_specs()
    return tuple(
        build_dataset(name, n, seed=300 + i, specs=spec_list)
        for i, (name, spec_list) in enumerate(specs.items())
    )


@lru_cache(maxsize=None)
def apacheish(n: int = 2000) -> Dataset:
    return source_datasets(n)[0]


@lru_cache(maxsize=None)
def standard_pools(n: int = 2000) -> tuple[OutlierPool, VariablePool]:
    datasets = list(source_datasets(n))
    return (
        build_outlier_pool(datasets, outlier_fraction=0.05),
        build_variable_pool(datasets),
    )


def outlier_pool(rows) -> OutlierPool:
    """An outlier pool of (content, template, source) rows, in order."""
    rows = list(rows)
    columns = zip(*rows) if rows else ((), (), ())
    return OutlierPool(Dataset(OUTLIER_POOL_NAME, *columns))


def dataset_rows(ds: Dataset) -> tuple[tuple[str, str | None, str], ...]:
    """A dataset's (content, template, source) rows, in order."""
    return tuple(zip(ds.contents(), ds.ground_truths, ds.sources))


def pool_rows(pool: OutlierPool) -> tuple[tuple[str, str, str], ...]:
    """An outlier pool's (content, template, source) rows, in order."""
    return dataset_rows(pool.lines)


def assert_well_formed(ds: Dataset) -> None:
    """What the readers guarantee: equal columns, one-line content, canonical templates."""
    assert len(ds.contents()) == len(ds.ground_truths) == len(ds.sources) == len(ds)
    for content, truth in zip(ds.contents(), ds.ground_truths):
        assert "\n" not in content and "\r" not in content
        if truth is not None:
            assert canonicalize_template(truth) == truth


def unlabeled(ds: Dataset) -> Dataset:
    """`ds` with its ground truth dropped."""
    return Dataset(ds.name, ds.contents(), [None] * len(ds), ds.sources)


# Per-record reference implementations: the straightforward loops that the
# edit-distance kernel, the tree parser, the column-wise token-frequency
# parser, `proxy_stats` and `fuzz` must equal.


def dp_edit_distance(a: str, b: str) -> int:
    """Independent full-table dynamic program."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[m][n]


class _RefGroup:
    def __init__(self, template: list[str], first_member: int):
        self.template = template
        self.members = [first_member]


class _RefNode:
    def __init__(self) -> None:
        self.children: dict[str, _RefNode] = {}
        self.groups: list[_RefGroup] = []


def _ref_similarity(template: list[str], tokens: list[str]) -> tuple[float, int]:
    same = 0
    params = 0
    for t, s in zip(template, tokens):
        if t == WILDCARD:
            params += 1
        elif t == s:
            same += 1
    return same / len(template), params


def reference_tree(ds: Dataset, cfg: TreeParserConfig) -> list[str]:
    """Tree parse with group objects and member lists, merging any two groups
    of a leaf whose templates become equal after an update."""
    masks = [re.compile(m) for m in cfg.masks]
    token_layers = max(cfg.depth - 2, 0)
    root: dict[int, _RefNode] = {}
    all_groups: list[_RefGroup] = []
    results: list[str | None] = [None] * len(ds)
    for idx, content in enumerate(ds.contents()):
        for mask in masks:
            content = mask.sub(WILDCARD, content)
        tokens = list(filter(None, content.split(" ")))
        if not tokens:
            results[idx] = ""
            continue
        node = root.setdefault(len(tokens), _RefNode())
        for level in range(min(token_layers, len(tokens))):
            key = tokens[level]
            if re.search(r"\d", key):
                key = WILDCARD
            child = node.children.get(key)
            if child is None:
                if key != WILDCARD and len(node.children) + (
                    0 if WILDCARD in node.children else 1
                ) >= cfg.max_children:
                    key = WILDCARD
                    child = node.children.get(key)
                if child is None:
                    child = _RefNode()
                    node.children[key] = child
            node = child
        best = None
        best_sim = -1.0
        best_params = -1
        for group in node.groups:
            sim, params = _ref_similarity(group.template, tokens)
            if sim > best_sim or (sim == best_sim and params > best_params):
                best, best_sim, best_params = group, sim, params
        if best is None or best_sim < cfg.similarity_threshold:
            group = _RefGroup(list(tokens), idx)
            node.groups.append(group)
            all_groups.append(group)
        else:
            group = best
            group.members.append(idx)
            for i, tok in enumerate(tokens):
                if group.template[i] != tok:
                    group.template[i] = WILDCARD
            survivors = []
            for g in node.groups:
                if g is not group and g.template == group.template:
                    group.members.extend(g.members)
                    g.members.clear()
                else:
                    survivors.append(g)
            node.groups = survivors
    for group in all_groups:
        template = " ".join(group.template)
        for idx in group.members:
            results[idx] = template
    return results  # type: ignore[return-value]


def reference_tokenfreq(ds: Dataset, threshold: float) -> list[str]:
    """Token-frequency parse by one count per (token count, position, token)."""
    token_lists = [list(filter(None, content.split(" "))) for content in ds.contents()]
    class_sizes: Counter[int] = Counter(len(toks) for toks in token_lists)
    freq: dict[tuple[int, int, str], int] = defaultdict(int)
    for toks in token_lists:
        n = len(toks)
        for pos, tok in enumerate(toks):
            freq[(n, pos, tok)] += 1
    results: list[str] = []
    for toks in token_lists:
        n = len(toks)
        kept = [
            tok if freq[(n, pos, tok)] / class_sizes[n] >= threshold else WILDCARD
            for pos, tok in enumerate(toks)
        ]
        results.append(" ".join(kept))
    return results


def reference_proxy_stats(ds: Dataset) -> ProxyStats:
    """Unique words, characters and lengths, gathered record by record."""
    words: set[str] = set()
    chars: set[str] = set()
    lengths: set[int] = set()
    for content in ds.contents():
        words.update(content.split())
        chars.update(content)
        lengths.add(len(content))
    return ProxyStats(nuw=len(words), nuc=len(chars), nuldl=len(lengths))


def reference_fuzz(ds, vpool, seed, parsed=None) -> FuzzResult:
    """Fuzzing that splits and matches each record's template afresh, drawing
    each refilled record's picks from its own numpy generator."""
    templates = ds.templates(parsed)
    values = vpool.values
    contents: list[str] = []
    truths: list[str | None] = []
    skipped: list[int] = []
    rows = zip(ds.contents(), ds.ground_truths, templates)
    for line_id, (content, truth, template) in enumerate(rows, start=1):
        count = template.count(WILDCARD)
        if count == 0:
            truth = template or None
        else:
            try:
                extract_variables(content, template)
            except AlignmentError:
                skipped.append(line_id)
            else:
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed & (2**64 - 1), spawn_key=(line_id,))
                )
                chosen = rng.integers(0, len(values), size=count)
                content = fill_template(template, [values[j] for j in chosen])
                truth = template
        contents.append(content)
        truths.append(truth)
    return FuzzResult(Dataset(ds.name, contents, truths, ds.sources), skipped)


def text_mode_lines(path) -> list[str]:
    """The lines of a file as the loaders read it before `corpus.read_lines`.

    A text-mode reader ends a line at CR, LF or CRLF only and gives each
    line break as "\\n", which is stripped here. A byte that is not UTF-8 is
    kept as a lone surrogate (U+DC80..U+DCFF).
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        return [line.rstrip("\n") for line in f]


def absolute_imports(source: str) -> list[tuple[int, str]]:
    """Each (line, module) that `source` imports by its full name: every name
    of an ``import`` and the module of a ``from`` import that is not relative.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.lineno, node.module))
    return found
