"""Benchmark the Levenshtein kernel.

By default it times ``levenshtein`` one pair at a time on template-like
strings (mixed literal tokens and short alphanumeric values), 2000 pairs per
round. Run from the repository root:

    python benchmarks/bench_edit_distance.py [--pairs 2000] [--rounds 5]

With ``--corpus`` it times instead the 12,761 distinct (content, ground-truth
template) pairs of the nine synthetic source datasets in ``tests/helpers.py``,
the shape a parser that echoes content is scored on. They are grouped by
template and scored with one ``distances`` call per template, as evaluation
calls it, and the script exits non-zero unless their checksum is 240703.
"""

from __future__ import annotations

import argparse
import random
import string
import sys
import time
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from logblend._kernels import distances, levenshtein  # noqa: E402

WORDS = [
    "worker", "session", "cache", "request", "timeout", "error", "node",
    "started", "closed", "failed", "retry", "flush", "commit", "replica",
]


def template_like(rng: random.Random, length: int) -> str:
    parts = []
    while sum(len(p) + 1 for p in parts) < length:
        if rng.random() < 0.3:
            parts.append(
                "".join(rng.choices(string.ascii_lowercase + string.digits, k=rng.randint(2, 12)))
            )
        else:
            parts.append(rng.choice(WORDS))
    return " ".join(parts)


def make_pairs(n: int, seed: int = 0) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        a = template_like(rng, rng.randint(20, 160))
        # Half the pairs are near-identical, like a decent parser's output.
        if rng.random() < 0.5:
            b = a[: max(1, len(a) - rng.randint(0, 8))]
        else:
            b = template_like(rng, rng.randint(20, 160))
        pairs.append((a, b))
    return pairs


CORPUS_CHECKSUM = 240703


def corpus_groups() -> dict[str, list[str]]:
    """Each template of the nine source datasets with its distinct contents, sorted."""
    sys.path.insert(0, str(ROOT / "tests"))
    from helpers import source_datasets

    groups: dict[str, list[str]] = {}
    for content, template in sorted(
        {pair for ds in source_datasets() for pair in zip(ds.contents(), ds.labels())}
    ):
        groups.setdefault(template, []).append(content)
    return groups


def best_of(rounds: int, score: Callable[[], int]) -> tuple[float, int]:
    """Shortest of `rounds` timed calls of `score`, and the checksum it returned."""
    best = float("inf")
    checksum = 0
    for _ in range(rounds):
        start = time.perf_counter()
        checksum = score()
        best = min(best, time.perf_counter() - start)
    return best, checksum


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=2000)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument(
        "--corpus", action="store_true", help="time the source datasets' pairs instead"
    )
    args = ap.parse_args()

    if args.corpus:
        groups = corpus_groups()
        n = sum(map(len, groups.values()))
        print(
            f"{n} distinct corpus pairs in {len(groups)} template groups, "
            f"best of {args.rounds} rounds"
        )
        elapsed, checksum = best_of(
            args.rounds, lambda: sum(sum(distances(t, c)) for t, c in groups.items())
        )
    else:
        pairs = make_pairs(args.pairs)
        n = len(pairs)
        print(f"{n} template pairs, best of {args.rounds} rounds")
        elapsed, checksum = best_of(
            args.rounds, lambda: sum(levenshtein(a, b) for a, b in pairs)
        )
    print(f"{elapsed * 1e3:8.1f} ms  ({n / elapsed:,.0f} pairs/s)  checksum {checksum}")
    if args.corpus and checksum != CORPUS_CHECKSUM:
        sys.exit(f"checksum {checksum} != {CORPUS_CHECKSUM}")


if __name__ == "__main__":
    main()
