"""logblend benchmark: three workloads on the nine-source 2K-line corpus.

Run from the repository root:

    python3 perfbench/run.py --workload experiment --seed 0 --seconds 30 --trace 0

Workloads are ``experiment``, ``oversplit`` and ``synthesize`` (see
``workloads.py``). One process, one thread, closed loop: each job starts
when the previous one ends. Set-up (corpus generation, CSVs, pools, plan)
runs SETUP_REPEATS times and its median is ``setup_s``.

``--trace 0`` runs one whole pass over the workload's jobs, then jobs
round-robin until ``--seconds`` have elapsed, and reports the end-to-end
metrics from each job's median time. ``--trace 1`` runs one untraced pass,
then traced passes (spans from ``layers.py``) while another fits in
``--seconds``, then the edit-distance kernel probe, and reports the
per-layer metrics; the spans are written to
``perfbench/out/trace-<workload>.jsonl``.

Correctness: every repeated job reproduces its first output byte for byte;
at seed 0 and 2000 lines per dataset the first pass's digest equals
REFERENCE_DIGESTS; traced passes reproduce the untraced digest and
MetricReports; a job that raises or a report cell with an error fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
restate every metric with its unit, the failed-operation ratio and the
provenance (kernel, source digest, versions, CPU count).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 7
DEFAULT_SIZE = 2000
MICROBENCH_PAIRS = 2000
#: Sum of distances over benchmarks/bench_edit_distance.py's 2000 pairs.
MICROBENCH_CHECKSUM = 98158

#: sha256 of the first pass's outputs at seed 0 and DEFAULT_SIZE lines.
REFERENCE_DIGESTS = {
    "experiment": "21c85d9e66fb7f1649aeba6e0cfda42cdaedfe93c5e078e7079a0d26df1d72ea",
    "oversplit": "710e89e4a0377da6a2b34c19fa294338b0f24ab11be5aa45374b4ccf7d0479dc",
    "synthesize": "b487b27a42b475f6166efa6f5c14a7aee9263bf79e0a12c3b822732e116a53af",
}

END_TO_END = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "job_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


#: When a timed interval started and ended, in perf_counter seconds.
Interval = tuple[float, float]


@dataclass
class PassResult:
    digest: str
    outputs: dict[str, bytes]
    times: dict[str, Interval]


def run_job(job, tally: Tally, speed: Speed, tracer=None, label="") -> tuple[Interval, bytes]:
    """Time one job, then probe the machine's speed.

    The job, and each of its report cells, count as operations.
    """
    errors: list[str | None] = []
    out = b""
    raised = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = job.run()
        else:
            tracer.job = f"{label}/{job.key}"
            with tracer.span(layers.JOB_SPAN):
                result = job.run()
    except Exception as exc:  # a job that raises is counted, not fatal
        raised = f"{type(exc).__name__}: {exc}"
    interval = (t0, time.perf_counter())
    speed.tick()
    if raised is None:
        out, errors = job.output(result)
    tally.check(raised is None, f"job {job.key} raised {raised}")
    for err in errors:
        tally.check(err is None, f"job {job.key} cell error: {err}")
    return interval, out


def run_pass(setup, tally: Tally, speed: Speed, tracer=None, label="pass") -> PassResult:
    outputs: dict[str, bytes] = {}
    times: dict[str, Interval] = {}
    for job in setup.jobs:
        times[job.key], outputs[job.key] = run_job(job, tally, speed, tracer, label)
    digest = workloads.digest(list(outputs.values()))
    return PassResult(digest, outputs, times)


def measure(
    setup, seconds: float, tally: Tally, speed: Speed
) -> tuple[PassResult, dict[str, list[Interval]]]:
    """One whole pass, then jobs round-robin until `seconds` have elapsed."""
    started = time.perf_counter()
    first = run_pass(setup, tally, speed)
    samples = {key: [t] for key, t in first.times.items()}
    i = 0
    while time.perf_counter() - started < seconds:
        job = setup.jobs[i % len(setup.jobs)]
        i += 1
        interval, out = run_job(job, tally, speed)
        samples[job.key].append(interval)
        tally.check(
            out == first.outputs[job.key], f"job {job.key} output differs from its first run"
        )
    return first, samples


def microbench(tally: Tally, speed: Speed) -> float | None:
    """Pairs per second of the edit-distance kernel on the kernel bench's pairs."""
    try:
        from logblend._kernels import levenshtein

        bench = workloads.load_file_module(
            "bench_edit_distance", ROOT / "benchmarks" / "bench_edit_distance.py"
        )
        pairs = bench.make_pairs(MICROBENCH_PAIRS)
    except (ImportError, AttributeError, OSError) as exc:
        print(f"kernel probe missing: {exc}", file=sys.stderr)
        return None
    start = time.perf_counter()
    checksum = sum(levenshtein(a, b) for a, b in pairs)
    end = time.perf_counter()
    speed.tick()
    tally.check(
        checksum == MICROBENCH_CHECKSUM,
        f"kernel probe checksum {checksum} != {MICROBENCH_CHECKSUM}",
    )
    return len(pairs) / speed.scaled(start, end)


def _cells(report_bytes: bytes) -> list[dict]:
    body = json.loads(report_bytes)
    return [
        cell["metrics"]
        for ds in body["datasets"].values()
        for parser in ds["parsers"].values()
        for cell in parser["runs"]
        if cell["metrics"] is not None
    ]


def provenance() -> dict:
    import numpy

    try:
        from logblend._kernels import NUMBA_ENABLED

        kernel = "numba" if NUMBA_ENABLED else "numpy"
    except ImportError:
        kernel = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git": _git_head(),
        "src_sha256": src.hexdigest(),
        "kernel": kernel,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _git_head() -> str:
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def set_up(workload, seed, size, work: Path, speed: Speed, tracer, evaluations):
    """SETUP_REPEATS set-ups; the last one, traced when tracing, is kept."""
    times: list[Interval] = []
    speed.tick()
    for k in range(SETUP_REPEATS):
        target = work / f"setup{k}"
        traced = tracer is not None and k == SETUP_REPEATS - 1
        t0 = time.perf_counter()
        if traced:
            layers.instrument(tracer, evaluations)
            tracer.job = layers.SETUP_JOB
            try:
                with tracer.span(layers.SETUP_SPAN):
                    setup = workloads.setup(workload, seed, size, target)
            finally:
                tracer.unwrap()
                tracer.job = layers.UNTRACED_JOB
        else:
            setup = workloads.setup(workload, seed, size, target)
        times.append((t0, time.perf_counter()))
        speed.tick()
        if k:
            shutil.rmtree(work / f"setup{k - 1}")
    return setup, times


def end_to_end(setup, setup_times, seconds, tally, speed, lines) -> tuple[dict, PassResult]:
    first, samples = measure(setup, seconds, tally, speed)
    records = sum(job.records for job in setup.jobs)

    def summary(duration) -> dict[str, float]:
        medians = [statistics.median(map(duration, ts)) for ts in samples.values()]
        return {
            "setup_s": statistics.median(map(duration, setup_times)),
            "records_per_s": records / sum(medians),
            "job_p50_ms": statistics.median(medians) * 1e3,
        }

    metrics = summary(lambda interval: speed.scaled(*interval))
    wall = summary(lambda interval: interval[1] - interval[0])
    lines.append(
        f"job_p50_ms is the median over {len(samples)} jobs of each one's median "
        f"time; {sum(map(len, samples.values()))} job samples; "
        f"setup_s is the median of {SETUP_REPEATS}"
    )
    lines.append(
        "times are scaled to a probe time of "
        f"{NOMINAL_PROBE_S * 1e3:g} ms; the median probe took "
        f"{statistics.median(d for _, d in speed.probes) * 1e3:.2f} ms; as measured: "
        + " ".join(f"{k} {v!r}" for k, v in wall.items())
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, first


def per_layer(setup, seconds, tally, speed, tracer, evaluations, lines) -> tuple[dict, PassResult]:
    """An untraced pass, then traced passes while another fits in `seconds`.

    Checks that tracing changed nothing: every traced pass reproduces the
    untraced digest, and the MetricReport each traced evaluate call
    returned equals the untraced report's cell. Checks the spans: they
    nest, none was recorded with tracing off, and the per-job self times
    add up to the job span.
    """
    started = time.perf_counter()
    first = run_pass(setup, tally, speed)
    traced: list[PassResult] = []
    layers.instrument(tracer, evaluations)
    try:
        # Elapsed time covers len(traced) + 1 passes; stop when one more would overrun.
        while not traced or (time.perf_counter() - started) * (len(traced) + 2) / (
            len(traced) + 1
        ) <= seconds:
            traced.append(run_pass(setup, tally, speed, tracer, f"traced{len(traced)}"))
    finally:
        tracer.unwrap()
    for p in traced:
        tally.check(p.digest == first.digest, f"traced digest {p.digest} differs")
    if setup.workload != "synthesize" and "metrics.evaluate" not in tracer.missing:
        seen: dict[str, list[dict]] = {}
        for job, report in evaluations:
            seen.setdefault(job, []).append(report)
        for p_idx in range(len(traced)):
            for key, out in first.outputs.items():
                job = f"traced{p_idx}/{key}"
                tally.check(
                    seen.get(job, []) == (_cells(out) if out else []),
                    f"evaluate values in {job} differ from the untraced report",
                )
    for error in tracer.nesting_errors():
        tally.check(False, error)
    leaked = sum(sp.job == layers.UNTRACED_JOB for sp in tracer.spans)
    tally.check(not leaked, f"{leaked} spans recorded while tracing was off")

    def pass_s(p: PassResult) -> float:
        return sum(speed.scaled(*interval) for interval in p.times.values())

    overhead = statistics.median(map(pass_s, traced)) / pass_s(first)
    pairs_per_s = microbench(tally, speed)
    values = layers.layer_values(tracer, overhead, pairs_per_s or 0.0, speed)
    self_sum = sum(values[f"{n}.self_ms"] for n in layers.JOB_SELF_MS)
    tally.check(
        abs(self_sum - values["trace.job_ms"]) <= 1e-6 * values["trace.job_ms"] + 1e-9,
        f"layer self times sum to {self_sum} ms, job span is {values['trace.job_ms']} ms",
    )
    lines.append(f"untraced_pass_s {pass_s(first)!r} traced_passes {len(traced)}")
    missing = layers.missing_metrics(tracer, pairs_per_s is not None)
    if missing:
        lines.append("missing (reported as 0) " + " ".join(missing))
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{setup.workload}.jsonl")
    return values, first


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: int = DEFAULT_SIZE,
    reference: dict[str, str] | None = None,
) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the report lines.

    `size` (lines per dataset) is DEFAULT_SIZE except in the smoke test.
    `reference` maps workload to the expected first-pass digest; by default
    REFERENCE_DIGESTS at seed 0 and DEFAULT_SIZE, otherwise none.
    """
    if reference is None:
        reference = REFERENCE_DIGESTS if size == DEFAULT_SIZE and seed == 0 else {}
    tally = Tally()
    lines = [f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)} size={size}"]
    lines.append("provenance " + json.dumps(provenance(), sort_keys=True))
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if trace else None
    evaluations: list[tuple[str, dict]] = []
    with Speed() as speed:
        try:
            setup, setup_times = set_up(workload, seed, size, work, speed, tracer, evaluations)
            if trace:
                metrics, first = per_layer(
                    setup, seconds, tally, speed, tracer, evaluations, lines
                )
                units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
            else:
                metrics, first = end_to_end(setup, setup_times, seconds, tally, speed, lines)
                units = END_TO_END
        finally:
            shutil.rmtree(work, ignore_errors=True)
    lines.append(f"digest {first.digest}")
    if workload in reference:
        tally.check(
            first.digest == reference[workload],
            f"digest {first.digest} != reference {reference[workload]}",
        )

    lines.extend(f"{name} {value!r} {units[name]}" for name, value in metrics.items())
    failed = len(tally.failures)
    lines.append(f"failed_ratio {failed / tally.attempted!r} ratio ({failed}/{tally.attempted})")
    lines.extend(f"FAILED {note}" for note in tally.failures)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def _require_sources() -> None:
    for needed in (ROOT / "src" / "logblend", ROOT / "tests" / "helpers.py"):
        if not needed.exists():
            sys.exit(f"perfbench: {needed.relative_to(ROOT)} not found; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    # One thread: keep numpy's BLAS from starting a pool it would not use.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


_require_sources()
import layers  # noqa: E402  (needs src on sys.path)
import workloads  # noqa: E402
from speed import NOMINAL_PROBE_S, Speed  # noqa: E402
from tracing import Tracer  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
