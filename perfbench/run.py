"""coxlehmer benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last stdout line is one JSON object,
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A fuller record (Python
version, nproc, commit, seed, and per metric the median, quartiles and
sample count it came from) goes to perfbench/results/.

Workloads (why each is here is in BENCHMARK.json):

  verify-all    `coxlehmer verify all` at verify's default seed 2024, once
                per repetition; an op is one such invocation.
  routes-sweep  a seeded shuffle of A5 + B4 + D4 + H3 (1416 elements), each
                element through interval_poincare on all three routes; an op
                is one route evaluation.  One sweep is split over 3 processes.
  d6-cli        cli.main on D6: a cold w0 query, a seeded stream of warm
                `code --json` / `hpoly --route direct --json` point queries
                (the ops), and classify principal/unimodal/pal scans.

Every repetition is a fresh single-threaded interpreter (worker.py), one at
a time, so the package's process-wide caches start cold as they do for a
user and ru_maxrss is per repetition.  Answers are checked outside the timed
spans; any wrong answer makes "correct" false.  Refused ops (ValueError,
SizeLimitError, CLI exit != 0) count in "failed" and are never redrawn.

Metric definitions:

  setup_s      median over repetitions of spawn -> ready: the import on
               verify-all, import plus posets and codes on routes-sweep,
               the cold CLI query on d6-cli.
  wall_s       median over work units of the timed ops (one `verify all`,
               one sweep, one CLI session's queries and scans).
  ops_per_s    ops / their summed latency.
  op_p50_ms    median op latency.
  op_p99_ms    p99 op latency, or with fewer than 1000 ops the highest whole
               percentile that leaves at least 10 ops above it; the record
               names the percentile and the count.
  peak_rss_mb  median over repetitions of the process's own ru_maxrss.

scan_p50_ms and failed_ratio are written to the record only: the first
exists on d6-cli alone and the second is 0 on every workload, and the
result line may carry only metrics every workload has and that are never 0.
failed_ratio's base is the result line's "attempted" and "failed".

A traced run (--trace 1) first repeats the untraced run, then runs the same
jobs with tracing.py's wrappers installed; trace.overhead_ratio is traced
over untraced wall_s, minus one.  Per-layer values are medians over work
units of self times (seconds) or counts; LAYER_MAP says which end-to-end
metric each should move, and on which workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
DEADLINE_S = 170  # a run must end within 180 s

VERIFY_SEED = 2024  # `coxlehmer verify`'s default
VERIFY_SECONDS = 11  # one `verify all` on the reference 2-core machine
SESSIONS = 6  # fresh processes per d6-cli run, each with its own cold query
QUERIES_PER_SECOND = 300  # d6-cli queries per run second, spread over the sessions
SCANS = ("principal", "unimodal", "pal")  # per session
SWEEP_SECONDS = 17  # one routes sweep on the reference 2-core machine
SWEEP_CHUNKS = 3

ROUTE_SYSTEMS = (("A", 5, None, 720), ("B", 4, None, 384), ("D", 4, None, 192),
                 ("H3", None, None, 120))
D6 = ("D", 6, None)
D6_EXPONENTS = (1, 3, 5, 7, 9, 5)

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_p99_ms": "ms", "peak_rss_mb": "MB",
}

SUITE_NAMES = ("codes", "shellings", "vd", "flag", "routes", "catalan", "unimodal",
               "smooth", "h3-unimodal", "d-factorization", "h3-quotients",
               "strict-inclusions", "msequence", "exponents")

# per-layer metric -> (unit, better, the end-to-end metric it should move)
LAYER_MAP = {
    "coxeter.enumerate_s": ("s", "lower", "setup_s on d6-cli; flat on routes-sweep"),
    "coxeter.enumerations": ("count", "lower", "setup_s on d6-cli"),
    "coxeter.elements": ("count", "lower", "setup_s on d6-cli"),
    "coxeter.covers": ("count", "lower", "setup_s on d6-cli"),
    "coxeter.downset_bytes": ("bytes", "lower", "peak_rss_mb on d6-cli"),
    "codes.build_s": ("s", "lower", "setup_s on d6-cli and routes-sweep"),
    "codes.verify_s": ("s", "lower", "wall_s on verify-all"),
    "codes.verify_calls": ("count", "lower", "wall_s on verify-all"),
    "intervals.ideal_s": ("s", "lower", "op_p50_ms/op_p99_ms on routes-sweep"),
    "intervals.direct_s": ("s", "lower", "op_p50_ms/op_p99_ms on routes-sweep"),
    "intervals.complex_s": ("s", "lower", "op_p50_ms/op_p99_ms on routes-sweep"),
    "intervals.maxima_s": ("s", "lower", "op_p50_ms/op_p99_ms on routes-sweep"),
    "intervals.route_calls": ("count", "higher", "failed ops (record) on routes-sweep"),
    "intervals.route_refusals": ("count", "lower", "failed ops (record) on routes-sweep"),
    "intervals.maxima_points": ("count", "lower", "op_p99_ms on routes-sweep"),
    "intervals.ie_terms": ("count", "lower", "op_p99_ms on routes-sweep"),
    "intervals.scan_s": ("s", "lower", "scan_p50_ms (record) and wall_s on d6-cli"),
    "simplicial.complex_s": ("s", "lower", "wall_s on verify-all; complex route on routes-sweep"),
    "simplicial.facets": ("count", "lower", "wall_s on verify-all; complex route on routes-sweep"),
    "simplicial.shelling_s": ("s", "lower", "wall_s on verify-all; complex route on routes-sweep"),
    "simplicial.shelling_calls": ("count", "lower", "wall_s on verify-all"),
    "simplicial.shelling_pairs": ("count", "lower", "wall_s on verify-all; op_p99_ms on routes-sweep"),
    "simplicial.fh_s": ("s", "lower", "wall_s on verify-all"),
    "simplicial.vd_s": ("s", "lower", "wall_s on verify-all"),
    "simplicial.flag_s": ("s", "lower", "wall_s on verify-all"),
    "multicomplex.extensions_s": ("s", "lower", "wall_s on verify-all"),
    "multicomplex.extensions": ("count", "lower", "wall_s on verify-all"),
    "multicomplex.count_extensions_s": ("s", "lower", "wall_s on verify-all"),
    "multicomplex.ideals_s": ("s", "lower", "wall_s on verify-all"),
    **{f"verify.{name}_s": ("s", "lower", "wall_s on verify-all") for name in SUITE_NAMES},
    **{f"verify.{name}.checks": ("count", "higher", "wall_s on verify-all")
       for name in SUITE_NAMES},
    "cli.import_s": ("s", "lower", "setup_s on d6-cli"),
    "cli.parse_s": ("s", "lower", "op_p50_ms on d6-cli"),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced over untraced wall_s, minus one"),
}


# ---------------------------------------------------------------------------
# inputs: every job is a plain dict, built from the seed alone


def verify_jobs(seed: int, seconds: int, suite="all", reps=None):
    if reps is None:
        reps = max(3, round(seconds / VERIFY_SECONDS))
    return [{"kind": "verify", "unit": r, "suite": suite, "verify_seed": VERIFY_SEED}
            for r in range(reps)]


def routes_jobs(seed: int, seconds: int, systems=ROUTE_SYSTEMS, chunks=SWEEP_CHUNKS,
                sweeps=None):
    rng = random.Random(seed)
    population = [(i, r) for i, sys_ in enumerate(systems) for r in range(sys_[3])]
    if sweeps is None:
        sweeps = max(1, round(seconds / SWEEP_SECONDS))
    jobs = []
    for unit in range(sweeps):
        order = population[:]
        rng.shuffle(order)
        for c in range(chunks):
            jobs.append({"kind": "routes", "unit": unit,
                         "systems": [list(s[:3]) for s in systems],
                         "elements": order[c::chunks]})
    return jobs


def random_signed_perm(rng: random.Random, n: int, label: str) -> list[int]:
    """Uniform element of A_{n-1} (label A), B_n or D_n as a one-line list."""
    perm = rng.sample(range(1, n + 1), n)
    if label == "A":
        return perm
    signs = [rng.choice((1, -1)) for _ in range(n)]
    if label == "D" and signs.count(-1) % 2:
        signs[-1] = -signs[-1]  # the first n-1 signs are free, the last fixes parity
    return [s * v for s, v in zip(signs, perm)]


def cli_jobs(seed: int, seconds: int, system=D6, exponents=D6_EXPONENTS, sessions=SESSIONS,
             queries=None, scans=SCANS):
    label, rank, _ = system
    n = rank + 1 if label == "A" else rank
    w0 = list(range(n, 0, -1)) if label == "A" else [-v for v in range(1, n + 1)]
    if label == "D" and n % 2:
        w0[0] = -w0[0]  # -1 is not in D_n for odd n
    if queries is None:
        queries = max(2, seconds * QUERIES_PER_SECOND // sessions)
    rng = random.Random(seed)
    jobs = []
    for unit in range(sessions):
        stream = [("code" if k % 2 == 0 else "hpoly", random_signed_perm(rng, n, label))
                  for k in range(queries)]
        jobs.append({"kind": "cli", "unit": unit, "system": list(system), "w0": w0,
                     "exponents": list(exponents), "queries": stream, "scans": list(scans)})
    return jobs


WORKLOADS = {
    "verify-all": verify_jobs,
    "routes-sweep": routes_jobs,
    "d6-cli": cli_jobs,
}


# ---------------------------------------------------------------------------
# running


def run_job(job: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"error": "run deadline passed before this repetition started"}
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job), repr(spawned)],
            capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        return {"error": f"repetition exceeded the run deadline ({timeout:.0f} s left)"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def run_jobs(jobs, trace: bool, tag: str | None, deadline: float) -> list[dict]:
    """Run jobs one at a time; traced jobs write their spans when tagged."""
    out = []
    for i, job in enumerate(jobs):
        job = dict(job, root=str(ROOT), trace=trace)
        if trace and tag:
            job["spans_out"] = str(RESULTS / f"spans-{tag}-job{i}.txt.gz")
        out.append(run_job(job, deadline))
        out[-1]["unit"] = job["unit"]
    return out


# ---------------------------------------------------------------------------
# statistics


def summary(values) -> dict:
    """Median, quartiles and count of a sample, as recorded per metric."""
    vals = sorted(values)
    if not vals:
        return {"n": 0}
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
    return {"n": len(vals), "median": statistics.median(vals), "q1": q1, "q3": q3}


def tail(values) -> tuple[float, int]:
    """(value, percentile): p99, or the highest whole percentile that leaves
    at least 10 samples above it; the maximum when there are 10 or fewer."""
    vals = sorted(values)
    n = len(vals)
    if n <= 10:
        return vals[-1], 100
    p = min(99, (100 * (n - 10)) // n)
    return vals[math.ceil(p * n / 100) - 1], p


def by_unit(reps, key) -> list[float]:
    units: dict[int, float] = {}
    for rep in reps:
        units[rep["unit"]] = units.get(rep["unit"], 0.0) + key(rep)
    return list(units.values())


def end_to_end(reps) -> tuple[dict, dict]:
    ops = [t for rep in reps for t in rep["ops"]]
    scans = [t for rep in reps for t in rep["scans"]]
    setups = [rep["setup_s"] for rep in reps]
    walls = by_unit(reps, lambda r: r["measured_s"])
    rss = [rep["peak_rss_mb"] for rep in reps]
    p99, pct = tail(ops)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": len(ops) / sum(ops),
        "op_p50_ms": 1000 * statistics.median(ops),
        "op_p99_ms": 1000 * p99,
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {
        "setup_s": summary(setups),
        "wall_s": summary(walls),
        "ops_per_s": {"n": len(ops), "seconds": sum(ops)},
        "op_p50_ms": summary(1000 * t for t in ops),
        "op_p99_ms": {"n": len(ops), "percentile": pct},
        "peak_rss_mb": summary(rss),
        "scan_p50_ms": summary(1000 * t for t in scans),
    }
    return values, samples


def per_layer(reps, untraced_wall: float, traced_wall: float) -> tuple[dict, dict]:
    values, samples = {}, {}
    for name in LAYER_MAP:
        if name == "trace.overhead_ratio":
            continue
        if name == "cli.import_s":
            per_unit = by_unit(reps, lambda r: r["import_s"])
        elif name.endswith("_s"):
            # a suite's whole time; every other layer's self time
            times = "total_s" if name.startswith("verify.") else "self_s"
            per_unit = by_unit(reps, lambda r: r[times].get(name[:-2], 0.0))
        else:
            per_unit = by_unit(reps, lambda r: r["counts"].get(name, 0))
        values[name] = statistics.median(per_unit)
        samples[name] = summary(per_unit)
    values["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
    samples["trace.overhead_ratio"] = {"traced_wall_s": traced_wall,
                                       "untraced_wall_s": untraced_wall}
    return values, samples


def problems(reps) -> list[str]:
    out = []
    for rep in reps:
        for key in ("error", "wrong"):
            if key in rep:
                out.append(f"{key}: {rep[key]}")
    checks = [rep["checks"] for rep in reps if "checks" in rep]
    if any(c != checks[0] for c in checks):
        out.append(f"wrong: verify check counts differ between repetitions: {checks}")
    return out


def commit_of(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def benchmark(workload: str, seed: int, seconds: int, trace: bool, jobs=None,
              record: bool = True) -> dict:
    """Run one benchmark run; returns the result line plus the record."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if jobs is None:
        jobs = WORKLOADS[workload](seed, seconds)
    tag = f"{workload}-seed{seed}" if record else None
    if record:
        RESULTS.mkdir(exist_ok=True)
    reps = run_jobs(jobs, False, tag, deadline)
    traced = []
    if trace and not problems(reps):
        traced = run_jobs(jobs, True, tag, deadline)
    trouble = problems(reps + traced)
    attempted = sum(rep.get("attempted", 0) for rep in reps + traced)
    failed = sum(rep.get("failed", 0) for rep in reps + traced)
    metrics, samples = {}, {}
    if not trouble:
        metrics, samples = end_to_end(reps)
        if trace:
            traced_wall = end_to_end(traced)[0]["wall_s"]
            samples["end_to_end"] = metrics
            metrics, samples["per_layer"] = per_layer(traced, metrics["wall_s"], traced_wall)
    unit_of = {**END_TO_END, **{k: v[0] for k, v in LAYER_MAP.items()}}
    line = {
        "correct": not trouble,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }
    rec = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit_of(ROOT), "elapsed_s": time.monotonic() - started,
        "failed_ratio": failed / max(attempted, 1), "problems": trouble,
        "refused_ops": [e for rep in reps + traced for e in rep.get("refusals", [])][:50],
        "samples": samples, "result": line,
        "verify_checks": next((rep["checks"] for rep in reps if "checks" in rep), None),
        "layer_map": {k: v[2] for k, v in LAYER_MAP.items()} if trace else None,
    }
    if record:
        path = RESULTS / f"{tag}-trace{int(trace)}.json"
        path.write_text(json.dumps(rec, indent=1))
    return {"line": line, "record": rec}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "coxlehmer" / "cli.py").is_file():
        print(f"error: no coxlehmer sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in out["record"]["problems"][:10]:
        print(problem, file=sys.stderr)
    print(json.dumps(out["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
