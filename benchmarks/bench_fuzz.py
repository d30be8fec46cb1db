"""Benchmark fuzzing on the nine mixed 2K-line datasets.

Each source dataset of ``tests/helpers.py`` is mixed at strength 1.0 with the
standard outlier pool, then fuzzed with the standard variable pool, best of N
rounds. The same fuzz is then run as one numpy generator per record (the
reference loop in ``tests/helpers.py``), once, and both must give the same
sha256 of the fuzzed contents. Run from the repository root:

    python benchmarks/bench_fuzz.py [--rounds 5] [--seed 0]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import numpy_loop_fuzz, source_datasets, standard_pools  # noqa: E402
from logblend.fuzzing import FuzzConfig, fuzz  # noqa: E402
from logblend.mixing import MixConfig, mix  # noqa: E402


def digest(contents: list[list[str]]) -> str:
    h = hashlib.sha256()
    for lines in contents:
        h.update("\n".join(lines).encode("utf-8") + b"\n")
    return h.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    opool, vpool = standard_pools()
    mixed = [
        mix(ds, opool, MixConfig(strength=1.0, seed=args.seed + i))
        for i, ds in enumerate(source_datasets())
    ]
    n_records = sum(len(ds.records) for ds in mixed)
    cfg = FuzzConfig(seed=args.seed)

    best = float("inf")
    for _ in range(args.rounds):
        start = time.perf_counter()
        out = [fuzz(ds, vpool, cfg).dataset for ds in mixed]
        best = min(best, time.perf_counter() - start)
    got = digest([[r.content for r in ds.records] for ds in out])

    start = time.perf_counter()
    ref = [numpy_loop_fuzz(ds, vpool, args.seed, ds.labels())[0] for ds in mixed]
    ref_elapsed = time.perf_counter() - start
    if digest(ref) != got:
        sys.exit("fuzz differs from the per-record numpy loop")

    print(f"{len(mixed)} mixed datasets, {n_records} records")
    print(
        f"fuzz        {best * 1e3:8.1f} ms  ({n_records / best:,.0f} records/s, "
        f"best of {args.rounds} rounds)"
    )
    print(
        f"numpy loop  {ref_elapsed * 1e3:8.1f} ms  "
        f"({n_records / ref_elapsed:,.0f} records/s, one round)"
    )
    print(f"sha256 {got}")


if __name__ == "__main__":
    main()
