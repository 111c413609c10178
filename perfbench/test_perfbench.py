"""Quick self-test of the benchmark harness on tiny inputs.

    python3 -m pytest -q perfbench

Each test starts real worker processes against src/, on A3 and I2(5) and a
handful of queries, so the whole path from job to result line is covered
in a few seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

TINY_ROUTES = (("A", 3, None, 24), ("I2", None, 5, 10))


def tiny_jobs(workload, seed=1, **overrides):
    if workload == "verify-all":
        kw = {"suite": "flag", "reps": 2}
    elif workload == "routes-sweep":
        kw = {"systems": TINY_ROUTES, "chunks": 2, "sweeps": 1}
    else:
        kw = {"system": ("A", 3, None), "exponents": (1, 2, 3), "sessions": 2,
              "queries": 4, "scans": ("principal", "unimodal", "pal")}
    kw.update(overrides)
    return bench.WORKLOADS[workload](seed, 1, **kw)


def run_tiny(workload, trace=False, **overrides):
    return bench.benchmark(workload, 1, 1, trace, jobs=tiny_jobs(workload, **overrides),
                           record=False)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_end_to_end_metric_with_unit(workload):
    line = run_tiny(workload)["line"]
    assert line["correct"], line
    assert line["failed"] == 0 and line["attempted"] > 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == bench.END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_per_layer_metric_with_unit(workload):
    line = run_tiny(workload, trace=True)["line"]
    assert line["correct"], line
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        k: v[0] for k, v in bench.LAYER_MAP.items()}


def test_trace_sees_layers_and_double_enumeration():
    cli = run_tiny("d6-cli", trace=True)["line"]["metrics"]
    # a cold query enumerates the group twice: cli and codes miss each other's cache key
    assert cli["coxeter.enumerations"]["value"] == 2
    assert cli["coxeter.elements"]["value"] == 2 * 24
    assert cli["intervals.scan_s"]["value"] > 0 and cli["cli.parse_s"]["value"] > 0
    routes = run_tiny("routes-sweep", trace=True)["line"]["metrics"]
    assert routes["intervals.route_calls"]["value"] == 3 * 34
    for name in ("intervals.complex_s", "intervals.maxima_s", "simplicial.shelling_s"):
        assert routes[name]["value"] > 0, name
    verify = run_tiny("verify-all", trace=True)["line"]["metrics"]
    assert verify["verify.flag.checks"]["value"] > 0
    assert verify["simplicial.flag_s"]["value"] > 0


def test_wrong_expected_answer_fails_the_run():
    out = run_tiny("d6-cli", exponents=(1, 2, 4))
    assert out["line"]["correct"] is False
    assert out["line"]["metrics"] == {}
    assert any("w0 polynomial" in p for p in out["record"]["problems"])


def test_failed_verify_claim_fails_the_run(monkeypatch, capsys):
    # in-process, so a claim can be made to fail: exit 1 must be a wrong
    # answer, not a refused op
    import worker

    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    from coxlehmer import cli

    def failing_suite(name, **opts):
        rep = real_suite(name, **opts)
        rep.check(False, "planted failure")
        return rep

    real_suite = cli.run_suite
    monkeypatch.setattr(cli, "run_suite", failing_suite)
    job = dict(tiny_jobs("verify-all")[0], root=str(HERE.parent), trace=False)
    assert worker.main(["worker.py", json.dumps(job), repr(time.monotonic())]) == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "verify flag: pass=False failures=1" in rep["wrong"]
    assert rep.get("failed", 0) == 0
    assert bench.problems([rep])


def test_refused_ops_are_counted_not_dropped():
    # A3 has no element -1,2,3,4: the CLI exits 2 and the op counts as failed
    jobs = tiny_jobs("d6-cli")
    jobs[0]["queries"][1] = ("hpoly", [-1, 2, 3, 4])
    out = bench.benchmark("d6-cli", 1, 1, False, jobs=jobs, record=False)
    assert out["line"]["failed"] == 1
    assert out["record"]["refused_ops"]


def test_same_seed_same_inputs():
    for workload, make in bench.WORKLOADS.items():
        assert make(7, 20) == make(7, 20), workload
    assert bench.routes_jobs(7, 20) != bench.routes_jobs(8, 20)


def test_d_elements_are_even_signed():
    import random

    rng = random.Random(3)
    for _ in range(200):
        perm = bench.random_signed_perm(rng, 6, "D")
        assert sorted(map(abs, perm)) == list(range(1, 7))
        assert sum(v < 0 for v in perm) % 2 == 0


def test_tail_percentile_leaves_ten_above():
    value, pct = bench.tail(range(42))
    assert pct == 76 and sum(v > value for v in range(42)) >= 10
    assert bench.tail(range(5000)) == (4949, 99)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    for name in ("run.py", "worker.py", "tracing.py"):
        (tmp_path / "perfbench" / name).write_text((HERE / name).read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "d6-cli",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (k, v[0], v[1]) for k, v in bench.LAYER_MAP.items()]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
