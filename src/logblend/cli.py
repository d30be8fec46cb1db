"""Command-line interface.

Subcommands: stats, heterogeneity, pool build, mix, fuzz, parse, combine,
evaluate, benchmark. All structured output is JSON. Exit codes: 0 success,
1 usage error, 2 data/format error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from .corpus import Dataset, load_raw, load_structured, read_text, write_dataset
from .errors import DataFormatError, LogblendError
from .fuzzing import FuzzConfig, fuzz
from .harness import (
    EvaluationReport,
    build_combined_dataset,
    plan_from_dict,
    run_experiment,
)
from .heterogeneity import INDUSTRY_REFERENCE, ProxyStats, h_score, proxy_stats
from .metrics import evaluate
from .mixing import MixConfig, mix
from .parsers import (
    PARSER_CONFIGS,
    TokenFrequencyParserConfig,
    TreeParserConfig,
    parse,
    read_parse_result,
    write_parse_result,
)
from .pool import OutlierPool, VariablePool, build_outlier_pool, build_variable_pool

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _load(path: str, raw: bool) -> Dataset:
    return load_raw(path) if raw else load_structured(path)


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


#: Each parser-specific `parse` flag by its argparse dest, with the config
#: field it sets; a parser takes the flag when its config has that field.
_PARSER_FLAGS = {
    "depth": ("--depth", "depth"),
    "st": ("--st", "similarity_threshold"),
    "max_children": ("--max-children", "max_children"),
    "mask": ("--mask", "masks"),
    "tf_threshold": ("--tf-threshold", "threshold"),
}


def _parser_config(args: argparse.Namespace):
    cls = PARSER_CONFIGS[args.parser]
    taken = {f.name for f in fields(cls)}
    given = {name: getattr(args, dest) for dest, (_, name) in _PARSER_FLAGS.items()}
    foreign = [
        flag for flag, name in _PARSER_FLAGS.values()
        if given[name] is not None and name not in taken
    ]
    if foreign:
        raise UsageError(f"--parser {args.parser} does not take {', '.join(foreign)}")
    # --mask appends to a list; the config holds a tuple.
    given["masks"] = tuple(given["masks"] or ())
    return cls(**{name: given[name] for name in taken if given[name] is not None})


def build_arg_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="logblend", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="proxy statistics of a dataset")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--raw", action="store_true", help="input is newline-delimited text")
    p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("heterogeneity", help="heterogeneity score of a dataset")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--raw", action="store_true")
    p.add_argument("--ref-nuw", type=int, default=INDUSTRY_REFERENCE.nuw)
    p.add_argument("--ref-nuc", type=int, default=INDUSTRY_REFERENCE.nuc)
    p.add_argument("--ref-nuldl", type=int, default=INDUSTRY_REFERENCE.nuldl)
    p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("pool", help="build synthesis pools")
    pool_sub = p.add_subparsers(dest="pool_command", required=True)
    b = pool_sub.add_parser("build", help="build outlier and variable pools")
    b.add_argument("datasets", nargs="+", help="structured dataset files")
    b.add_argument("--outlier-fraction", type=float, default=0.05)
    b.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("mix", help="replace frequent entries with pooled outliers")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--pool", required=True, help="pool directory or outlier pool file")
    p.add_argument("--strength", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--include-own-source", action="store_true")
    p.add_argument("--parsed", help="parser output file used as surrogate labels")
    p.add_argument("--out", required=True)

    p = sub.add_parser("fuzz", help="resample every variable from the pool")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--vpool", required=True, help="variable pool file")
    p.add_argument("--parsed", help="parser output file used as surrogate labels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("parse", help="run a built-in parser")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--raw", action="store_true")
    tree, tokenfreq = TreeParserConfig, TokenFrequencyParserConfig
    p.add_argument("--parser", choices=list(PARSER_CONFIGS), default=tree.name)
    p.add_argument("--depth", type=int, help=f"tree only (default {tree.depth})")
    p.add_argument(
        "--st", type=float,
        help=f"tree only: minimum similarity (default {tree.similarity_threshold})",
    )
    p.add_argument(
        "--max-children", type=int, help=f"tree only (default {tree.max_children})"
    )
    p.add_argument(
        "--tf-threshold", type=float,
        help=f"tokenfreq only (default {tokenfreq.threshold})",
    )
    p.add_argument(
        "--mask", action="append", help="tree only: regex replaced by <*> pre-parse"
    )
    p.add_argument("--out", required=True, help="LineId,EventTemplate output file")

    p = sub.add_parser("combine", help="uniform sample across datasets")
    p.add_argument("datasets", nargs="+")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="metrics of a parse result against labels")
    p.add_argument("--truth", required=True, help="structured dataset with labels")
    p.add_argument("--predicted", required=True, help="LineId,EventTemplate file")
    p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("benchmark", help="run an experiment plan")
    p.add_argument("--plan", required=True, help="plan JSON file")
    p.add_argument("--runs", type=int, help="override plan run count")
    p.add_argument("--seed", type=int, help="override plan base seed")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")
    p.add_argument("--out", help="report file (default: stdout)")

    return top


def _cmd_stats(args) -> None:
    ds = _load(args.input, args.raw)
    _emit(asdict(proxy_stats(ds)), args.out)


def _cmd_heterogeneity(args) -> None:
    ds = _load(args.input, args.raw)
    reference = ProxyStats(args.ref_nuw, args.ref_nuc, args.ref_nuldl)
    score = h_score(proxy_stats(ds), reference)
    _emit(score.as_dict(), args.out)


def _cmd_pool_build(args) -> None:
    datasets = [load_structured(p) for p in args.datasets]
    opool = build_outlier_pool(datasets, outlier_fraction=args.outlier_fraction)
    vpool = build_variable_pool(datasets)
    # Checked before anything is created: a source tag from the data may hold a
    # tab, CR or LF. Outlier pool lines come from loaded datasets, so they save.
    vpool_text = vpool.to_text()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "variable_pool.tsv").write_text(vpool_text, encoding="utf-8")
    opool.save(out_dir / "outlier_pool.csv")
    skipped = sum(len(v) for v in vpool.skipped.values())
    _emit(
        {
            "outlier_pool": str(out_dir / "outlier_pool.csv"),
            "outlier_entries": len(opool),
            "variable_pool": str(out_dir / "variable_pool.tsv"),
            "variable_values": len(vpool),
            "skipped_records": skipped,
        },
        None,
    )


def _cmd_mix(args) -> None:
    ds = load_structured(args.input)
    path = Path(args.pool)  # a pool directory or the outlier pool file itself
    path = path / "outlier_pool.csv" if path.is_dir() else path
    pool = OutlierPool.load(path)
    if not pool:
        raise DataFormatError(f"{path}: outlier pool holds no lines")
    cfg = MixConfig(
        strength=args.strength,
        seed=args.seed,
        exclude_source=not args.include_own_source,
    )
    parsed = None if args.parsed is None else read_parse_result(args.parsed, dataset=ds)
    mixed = mix(ds, pool, cfg, parsed)
    write_dataset(mixed, args.out)


def _cmd_fuzz(args) -> None:
    ds = load_structured(args.input)
    vpool = VariablePool.load(args.vpool)
    if not vpool:
        raise DataFormatError(f"{args.vpool}: variable pool holds no values")
    parsed = None if args.parsed is None else read_parse_result(args.parsed, dataset=ds)
    result = fuzz(ds, vpool, FuzzConfig(seed=args.seed), parsed)
    write_dataset(result.dataset, args.out)
    if result.skipped_line_ids:
        print(
            f"skipped {len(result.skipped_line_ids)} unalignable records",
            file=sys.stderr,
        )


def _cmd_parse(args) -> None:
    ds = _load(args.input, args.raw)
    result = parse(ds, _parser_config(args))
    write_parse_result(result, args.out)


def _cmd_combine(args) -> None:
    datasets = [load_structured(p) for p in args.datasets]
    combined = build_combined_dataset(datasets, size=args.size, seed=args.seed)
    write_dataset(combined, args.out)


def _cmd_evaluate(args) -> None:
    truth_ds = load_structured(args.truth)
    predicted = read_parse_result(args.predicted, dataset=truth_ds)
    report = evaluate(predicted, truth_ds.labels())
    _emit(report.as_dict(), args.out)


def _cmd_benchmark(args) -> None:
    plan_path = Path(args.plan)

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise DataFormatError(f"{plan_path}: an object repeats the key {key!r}")
            doc[key] = value
        return doc

    text = read_text(plan_path)[0]
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise DataFormatError(f"{plan_path}: {exc}") from exc
    except RecursionError:
        raise DataFormatError(f"{plan_path}: JSON nested too deeply to read") from None
    plan = plan_from_dict(doc, base_dir=plan_path.parent)
    # replace() runs the plan's own checks on the overridden values.
    overrides = {"runs": args.runs, "base_seed": args.seed}
    plan = replace(plan, **{k: v for k, v in overrides.items() if v is not None})
    report: EvaluationReport = run_experiment(plan)
    _emit(report.to_dict(include_timings=args.timings), args.out)


_COMMANDS = {
    "stats": _cmd_stats,
    "heterogeneity": _cmd_heterogeneity,
    "pool": _cmd_pool_build,
    "mix": _cmd_mix,
    "fuzz": _cmd_fuzz,
    "parse": _cmd_parse,
    "combine": _cmd_combine,
    "evaluate": _cmd_evaluate,
    "benchmark": _cmd_benchmark,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
        _COMMANDS[args.command](args)
        return EXIT_OK
    except (LogblendError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
