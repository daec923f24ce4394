"""qgeom benchmark: seeded probe workloads, checked against oracles.

Run from the repository root:

    python3 perfbench/run.py --workload xmethod-2mode --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, each in its own process

With --trace 0 a run reports the end-to-end metrics (setup_s, probes_per_s,
probe_p50_s, probe_tail_s, peak_rss_mb, pass_ratio). With --trace 1 it runs
the workload untraced for --seconds, then a fixed number of units with every
layer function wrapped, and reports per-layer calls, self time and counts,
plus the tracing overhead. Every metric is printed by name with its unit;
the last line of standard output is the result as one JSON object, and the
exit code is non-zero when any probe failed its oracle.

The workloads and their oracles are in workloads.py; SPEC.md says why each
was chosen and which layer metric should move which end-to-end metric.
"""

import time

T_START = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

SETUP_SAMPLES = 3  # set-ups per run: this process plus fresh child processes
TAIL_BEYOND = 10  # probe_tail_s: highest percentile with this many probes beyond
BLOCK_S = 1.0  # probes_per_s is the median rate over blocks of units this long
# OpenBLAS threads unless OPENBLAS_NUM_THREADS is set: all usable CPUs for the
# dim-1600 workloads, where a second thread cuts eigh time by ~30% on two
# cores; one for small matrices, where waking a second thread made dim-80
# probes ~7x slower and spread their latency over two decades (see SPEC.md).
SMALL_DIM_WORKLOADS = ("xmethod-1mode", "geometry-fd")
SPAN_DIR = ROOT / ".bench_out"
DEFAULT_SECONDS = 20


class CoverageError(RuntimeError):
    """The wrappers missed calls: per-layer numbers would be partial."""


def set_up(name: str, seed: int):
    """Import qgeom, build the workload's models and run one warm-up probe.

    Returns the workload and the seconds since this process started.
    """
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    work = workloads.WORKLOADS[name](seed)
    rec = workloads.Recorder()
    work.warm_up(rec)
    if rec.failures:
        raise RuntimeError(f"warm-up probe failed: {rec.failures[0][1]}")
    return work, time.perf_counter() - T_START


def child_setup_s(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure(work, rec, seconds: float = 0.0, units: int = 0, check=None) -> float:
    """Run whole units until `seconds` have passed and `units` have run.

    Returns the median over blocks of consecutive units lasting at least
    BLOCK_S (or one unit, if longer) of verified probes per second. The
    median keeps short bursts of a shared machine's clock speed out.
    """
    start = block_start = time.perf_counter()
    block_done = ran = 0
    rates = []
    while True:
        expected = work.unit(rec)
        ran += 1
        if check is not None:
            check(expected)
        now = time.perf_counter()
        done = len(rec.latencies) - len(rec.failures)
        if now - block_start >= BLOCK_S:
            rates.append((done - block_done) / (now - block_start))
            block_start, block_done = now, done
        if now - start >= seconds and ran >= units:
            if not rates:  # shorter than one block
                rates.append((done - block_done) / (now - block_start))
            return statistics.median(rates)


def tail(latencies) -> tuple[float, int]:
    """(latency, percentile) at the highest whole percentile that leaves at
    least TAIL_BEYOND probes beyond it (nearest-rank)."""
    n = len(latencies)
    pct = max(0, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return sorted(latencies)[rank - 1], pct


def end_to_end(rec, rate: float, setup_samples) -> tuple[dict, dict]:
    attempted = len(rec.latencies)
    passed = attempted - len(rec.failures)
    tail_s, pct = tail(rec.latencies)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "probes_per_s": (rate, "1/s"),
        "probe_p50_s": (statistics.median(rec.latencies), "s"),
        "probe_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": (passed / attempted, "1"),
    }
    notes = {"probe_tail_percentile": pct, "probe_tail_samples": attempted,
             "setup_samples_s": list(setup_samples)}
    return metrics, notes


def _cache_info():
    from qgeom import fock
    info = getattr(fock.quadratics, "cache_info", None)
    return info() if info is not None else None


def traced_run(work, seconds: float):
    """Untraced for `seconds`, then a fixed number of units traced.

    The traced units come from a second input stream of the same seed, so
    their counts repeat exactly from run to run.
    """
    import workloads
    from tracer import Tracer

    plain = workloads.Recorder()
    plain_rate = measure(work, plain, seconds)

    twin = work.twin(stream=1)
    tracer = Tracer()
    traced = workloads.Recorder(tracer)
    seen = Counter()

    def check(expected):
        nonlocal seen
        now = Counter(tracer.calls)
        got = {name: now[name] - seen[name] for name in expected}
        if got != expected:
            raise CoverageError(f"{work.name} unit {twin.units}: expected calls "
                                f"{expected}, wrappers caught {got}")
        seen = now

    before = _cache_info()
    twin.tracer = tracer
    with tracer:
        workloads.instrument(tracer, twin)
        traced_rate = measure(twin, traced, units=twin.trace_units, check=check)
    after = _cache_info()

    rows = tracer.totals()
    m = {}
    for name in workloads.SPAN_NAMES:
        calls, self_s, errors = rows.get(name, (0, 0.0, 0))
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (self_s, "s")
        m[f"{name}.errors"] = (errors, "count")
    counts = tracer.counts
    m["fock.eigh.dim_max"] = (counts["fock.eigh.dim_max"], "count")
    m["fock.eigh.pairs_computed"] = (counts["fock.eigh.pairs_computed"], "count")
    m["fock.eigh.computed_gflop"] = (counts["fock.eigh.flop"] / 1e9, "GFLOP")
    hits = lookups = 0
    if before is not None and after is not None:
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
    m["fock.quadratics.hit_ratio"] = (hits / lookups if lookups else 0.0, "1")
    m["qgt.overlap_fd.displaced_solves"] = (
        tracer.parent_names()[("fock.eigh", "qgt.qgt_overlap_fd")], "count")
    probes = len(traced.latencies)
    m["geometry.field_evals"] = (counts["geometry.field_evals"], "count")
    m["geometry.field_evals_per_probe"] = (counts["geometry.field_evals"] / probes, "1/probe")
    m["trace.overhead_ratio"] = (plain_rate / traced_rate if traced_rate else 0.0, "1")

    notes = {"untraced_probes_per_s": plain_rate, "traced_probes_per_s": traced_rate,
             "traced_units": twin.units, "traced_probes": probes, "spans": len(tracer.spans)}
    return m, notes, [plain, traced], tracer


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of this tree
    return lines[1]


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, work, notes: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cutoff_per_mode": work.cutoff or None,
        "units": work.units,
        **notes,
    }


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")


def run_one(args) -> int:
    threads = 1 if args.workload in SMALL_DIM_WORKLOADS else len(os.sched_getaffinity(0))
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(threads))
    try:
        work, setup_s = set_up(args.workload, args.seed)
    except ModuleNotFoundError as exc:
        print(f"cannot import the benchmark's program: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        metrics, notes, recs, tracer = traced_run(work, args.seconds)
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        notes["span_file"] = str(span_file.relative_to(ROOT))
    else:
        samples = [setup_s] + [child_setup_s(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        import workloads
        rec = workloads.Recorder()
        rate = measure(work, rec, args.seconds)
        metrics, notes = end_to_end(rec, rate, samples)
        recs = [rec]
    attempted = sum(len(r.latencies) for r in recs)
    failed = sum(len(r.failures) for r in recs)

    print(f"{args.workload} seed {args.seed}: {attempted} probes, {failed} failed")
    print_metrics(metrics)
    print(json.dumps({"provenance": provenance(args, work, notes)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; non-zero if any oracle failed."""
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}")
            ok = False
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        print_metrics({k: (v["value"], v["unit"]) for k, v in result["metrics"].items()})
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stderr)
            ok = False
    return 0 if ok else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.all and not args.workload:
        p.error("give --workload NAME or --all")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
