"""Benchmark the Levenshtein kernel.

Workload mirrors real evaluation: pairs of template-like strings (mixed
literal tokens and short alphanumeric values) at benchmark scale, 2000 pairs
per round. Run directly:

    python benchmarks/bench_edit_distance.py [--pairs 2000] [--rounds 5]

With ``--corpus`` it times instead the 12,761 distinct (content, ground-truth
template) pairs of the nine synthetic source datasets in ``tests/helpers.py``,
the shape a parser that echoes content is scored on, and exits non-zero
unless their checksum is 240703.
"""

from __future__ import annotations

import argparse
import random
import string
import sys
import time
from pathlib import Path

from logblend._kernels import levenshtein

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


def corpus_pairs() -> list[tuple[str, str]]:
    """Distinct (content, template) pairs of the nine source datasets, sorted."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from helpers import source_datasets

    return sorted({(r.content, r.ground_truth) for ds in source_datasets() for r in ds})


def run(pairs: list[tuple[str, str]], rounds: int) -> tuple[float, int]:
    best = float("inf")
    checksum = 0
    for _ in range(rounds):
        start = time.perf_counter()
        checksum = 0
        for a, b in pairs:
            checksum += levenshtein(a, b)
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
        pairs = corpus_pairs()
        print(f"{len(pairs)} distinct corpus pairs, best of {args.rounds} rounds")
    else:
        pairs = make_pairs(args.pairs)
        print(f"{args.pairs} template pairs, best of {args.rounds} rounds")
    elapsed, checksum = run(pairs, rounds=args.rounds)
    print(f"{elapsed * 1e3:8.1f} ms  ({len(pairs) / elapsed:,.0f} pairs/s)  checksum {checksum}")
    if args.corpus and checksum != CORPUS_CHECKSUM:
        sys.exit(f"checksum {checksum} != {CORPUS_CHECKSUM}")


if __name__ == "__main__":
    main()
