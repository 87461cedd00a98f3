"""The magnuskit benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S [--trace 0|1]

Run from the repository root; the library is imported from ./src.  One
caller drives a closed loop in one thread: the next query is sent when the
previous one returns.  A run sets up the workload (handles, oracles and
seeded inputs), runs one untimed warm-up query per query kind, then sends
queries for ``--seconds`` and at least MIN_QUERIES queries, and finally
checks every answer.  With ``--trace 0`` it reports the end-to-end
metrics; ``setup_s`` is the median wall time of PROBES fresh interpreters
doing the same set-up.  With ``--trace 1`` it sends each query
twice, first with every public layer wrapped in spans and then untraced,
and reports the per-layer metrics and the tracing overhead.  Every time is
the wall time as measured.  The last line of standard output is the result
as JSON; the full record (provenance, latencies, failures, spans) goes to
perfbench/results/.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MIN_QUERIES = 100  # so that at least ten samples lie beyond the 90th percentile
MAX_TIMED_S = 120  # a regression that slows every query still ends the run
PROBES = 5


def load_library():
    """Import magnuskit from ./src, and only from there."""
    if not (SRC / "magnuskit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no magnuskit sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    t0 = time.perf_counter()
    import magnuskit

    import_s = time.perf_counter() - t0
    if Path(magnuskit.__file__).resolve().parent != SRC / "magnuskit":
        sys.exit(f"perfbench: imported magnuskit from {magnuskit.__file__}, not {SRC}")
    return import_s


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(workload, seed):
    return {
        "workload": workload.name,
        "seed": seed,
        "inputs_sha256": workload.digest,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def send(workload, q, tracer=None):
    """One query, traced only while it runs; returns its record (query,
    latency seconds, answer, exact, error) and the seconds spent
    summarizing the answer, which the caller leaves out of the timed phase.
    The raw result is dropped at once: a run's normal forms kept to the end
    would raise the peak memory the run reports tenfold."""
    if tracer:
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            raw, error = workload.run(q), None
        except Exception as exc:  # a failed query is counted, not fatal
            raw, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    finally:
        if tracer:
            tracer.uninstall()
    answer, exact = None, False
    if error is None:
        try:
            answer, exact = workload.summarize(q, raw)
        except Exception as exc:
            error = f"unreadable result: {type(exc).__name__}: {exc}"
    return (q, t1 - t0, answer, exact, error), time.perf_counter() - t1


def finished(n, elapsed, seconds, min_queries):
    return (n >= min_queries and elapsed >= seconds) or elapsed >= MAX_TIMED_S


def closed_loop(workload, seconds, min_queries):
    """Send the pool's queries, cycled, one after another; returns
    (records, wall seconds of the queries)."""
    records, summarizing = [], 0.0
    start = time.perf_counter()
    while not finished(len(records), time.perf_counter() - start - summarizing, seconds, min_queries):
        rec, spent = send(workload, workload.pool[len(records) % len(workload.pool)])
        records.append(rec)
        summarizing += spent
    return records, time.perf_counter() - start - summarizing


def traced_loop(workload, seconds, min_queries, tracer):
    """Send each query twice in a row, traced and untraced, so that host
    drift cancels between the two; the copies take turns going first.
    Returns (traced records, untraced records)."""
    traced, plain = [], []
    start = time.perf_counter()
    while not finished(len(traced), time.perf_counter() - start, seconds, min_queries):
        n = len(traced)
        q = workload.pool[n % len(workload.pool)]
        tracer.query = n
        if n % 2:
            plain.append(send(workload, q)[0])
        traced.append(send(workload, q, tracer)[0])
        if not n % 2:
            plain.append(send(workload, q)[0])
    return traced, plain


def check_all(workload, records, replay=()):
    """Failures as (query, problems, known defect), one per failed query.
    ``replay`` holds the untraced records of the same queries, whose
    answers must equal the traced ones."""
    failures, checked = [], {}
    for i, (q, _, answer, _, error) in enumerate(records):
        if error:
            failures.append((q, [error], False))
            continue
        # a run sends each pool input several times; the same answer to the
        # same input is checked once
        key = (id(q), repr(answer))
        if key not in checked:
            try:
                checked[key] = workload.check(q, answer)
            except Exception as exc:
                checked[key] = [f"checker raised {type(exc).__name__}: {exc}"]
        problems = list(checked[key])
        if replay and replay[i][2] != answer:
            problems.append(f"traced answer {answer!r} != untraced answer {replay[i][2]!r}")
        if problems:
            failures.append((q, problems, workload.known_defect(q, answer, problems)))
    return failures


def setup_probe_seconds(name, seed, digest):
    """Median wall time of fresh interpreters importing magnuskit, building
    the handles and drawing the inputs, with every cache cold."""
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout.split() != [digest]:
            sys.exit(f"perfbench: set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return statistics.median(times)


def measure(workload, seed, seconds, trace, min_queries=MIN_QUERIES, import_s=0.0):
    """One run of a workload that is already set up; returns the record."""
    for q in workload.warmup:
        workload.run(q)

    if not trace:
        setup_s = setup_probe_seconds(workload.name, seed, workload.digest)
        records, wall = closed_loop(workload, seconds, min_queries)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = check_all(workload, records)
        lat = sorted(r[1] for r in records)
        n = len(records)
        metrics = {
            "setup_s": (setup_s, "s"),
            "queries_per_s": (n / wall, "1/s"),
            "query_p50_ms": (percentile(lat, 0.5) * 1000, "ms"),
            "query_p90_ms": (percentile(lat, 0.9) * 1000, "ms"),
            "correct_share": (1 - len(failures) / n, "ratio"),
            "exact_share": (sum(r[3] for r in records) / n, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        return _record(workload, seed, records, failures, metrics, wall)

    from tracing import Tracer, unit_of

    tracer = Tracer()
    records, plain = traced_loop(workload, seconds, min_queries, tracer)
    failures = check_all(workload, records, plain)
    metrics = {name: (value, unit_of(name)) for name, value in tracer.layer_metrics().items()}
    buckets = {}
    for q, latency, *_ in plain:
        if q["op"] == "form":
            buckets.setdefault(f"d{q['d']}.L{len(q['w'])}", []).append(latency)
    for bucket in ("d3.L64", "d3.L128", "d3.L256", "d4.L32", "d4.L64"):
        values = buckets.get(bucket)
        metrics[f"magnus.embed_ms.{bucket}"] = (statistics.median(values) * 1000 if values else 0.0, "ms")
    metrics["setup.import_s"] = (import_s, "s")
    traced_s, plain_s = sum(r[1] for r in records), sum(r[1] for r in plain)
    # untraced over traced queries per second, on the same queries
    metrics["trace_overhead"] = (traced_s / plain_s, "ratio")
    rec = _record(workload, seed, records, failures, metrics, traced_s)
    rec["spans"] = tracer.spans
    return rec


def _record(workload, seed, records, failures, metrics, wall):
    by_class = {}
    for q, latency, *_ in records:
        by_class.setdefault(q["cls"], []).append(latency)
    return {
        "provenance": provenance(workload, seed),
        "attempted": len(records),
        # the documented open defect is listed and lowers correct_share, but
        # is not a failed operation: ``failed`` counts only new failures
        "failed": sum(not known for _, _, known in failures),
        "known_defects": sum(known for _, _, known in failures),
        "correct": all(known for _, _, known in failures),
        "wall_s": wall,
        "classes": {cls: {"count": len(v), "median_ms": statistics.median(v) * 1000} for cls, v in by_class.items()},
        "latencies_ms": [[q["label"], latency * 1000] for q, latency, *_ in records],
        "failures": [
            {"input": workload.describe(q), "problems": problems, "known_defect": known}
            for q, problems, known in failures
        ],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def report(rec):
    """The human-readable summary printed before the JSON line."""
    p = rec["provenance"]
    n = rec["attempted"]
    lines = [
        f"workload {p['workload']}  seed {p['seed']}  inputs sha256 {p['inputs_sha256']}",
        f"python {p['python']}  nproc {p['nproc']}  {p['platform']}  commit {p['commit']}",
        f"closed loop, 1 caller: {n} queries in {rec['wall_s']:.2f} s  "
        + "  ".join(f"{cls} {c['count']} (median {c['median_ms']:.2f} ms)" for cls, c in sorted(rec["classes"].items())),
    ]
    for name, m in rec["metrics"].items():
        lines.append(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'failed_share':44s} {rec['failed'] / n:.6g} ratio  ({rec['failed']} of {n} queries; "
                 f"p90 has {n - math.ceil(0.9 * n)} samples beyond it)")
    lines.append(f"  {'known_defect_share':44s} {rec['known_defects'] / n:.6g} ratio  ({rec['known_defects']} of {n} queries)")
    distinct = {}
    for f in rec["failures"]:
        distinct.setdefault((f["input"], "; ".join(f["problems"]), f["known_defect"]), []).append(f)
    for (inp, problems, known), same in list(distinct.items())[:20]:
        tag = "known defect" if known else "FAILED"
        lines.append(f"  {tag} x{len(same)}: {inp[:120]}: {problems}")
    if len(distinct) > 20:
        lines.append(f"  ... and {len(distinct) - 20} more failing inputs (see the results file)")
    return "\n".join(lines)


def run_one(name, seed, seconds, trace, import_s):
    from workloads import WORKLOADS

    workload = WORKLOADS[name]().setup(seed)
    rec = measure(workload, seed, seconds, trace, import_s=import_s)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(rec))
    print(report(rec))
    print(f"  record written to {out.relative_to(ROOT)}")
    return {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}


def run_all(args):
    """Each workload in its own interpreter, so peak memory is per workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        print(proc.stdout, end="")
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} failed: {proc.stderr.strip()[-500:]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="length of the timed phase (required)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    import_s = load_library()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.setup_only:
        print(WORKLOADS[args.workload]().setup(args.seed).digest)
        return
    if args.seconds is None:
        ap.error("the following arguments are required: --seconds")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
