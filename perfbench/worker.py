"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 worker.py JOB_JSON SPAWN_MONOTONIC

run.py starts one of these at a time and reads the JSON object this prints
as its last stdout line.  A fresh process per repetition keeps the
package's process-wide caches (shared_poset, shared_standard_code,
_box_poly, _VD_CACHE) cold, the way a user's invocation finds them, and
makes ru_maxrss a per-repetition peak.  Answers are checked outside the
timed spans; a wrong answer is reported as an error, not as a slow op.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


class WrongAnswer(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def q_analog_product(ns):
    """prod [n]_q as a coefficient list, computed here, not by the library."""
    out = [1]
    for n in ns:
        out = poly_mul(out, [1] * n)
    return out


class Session:
    """Times ops and scans, records refusals and wrong answers."""

    def __init__(self, tracer, refusals):
        self.tracer = tracer
        self.refusals = refusals
        self.ops: list[float] = []
        self.scans: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def checking(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def set_op(self, op) -> None:
        if self.tracer:
            self.tracer.op = op

    def cli(self, main, argv, bucket, answers=(0,)):
        """Run one CLI invocation; returns its stdout, or None if refused.

        An exit code in `answers` means the CLI gave an answer, to be checked
        by the caller; any other exit code is a refused op."""
        self.attempted += 1
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except self.refusals as exc:  # escapes main as a traceback today
                rc = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        if bucket is not None:
            bucket.append(dt)
        if rc not in answers:
            self.failed += 1
            self.errors.append(f"exit {rc}: {' '.join(argv)}")
            return None
        return buf.getvalue()


# ---------------------------------------------------------------------------
# workloads


def run_verify(job, s: Session, cli, setup_done):
    """One `coxlehmer verify <suite>` call, `verify all` by default."""
    setup_done()
    suite = job["suite"]
    s.set_op(suite)
    # exit 1 is a failed claim: the report is an answer, and a wrong one
    out = s.cli(cli.main, ["verify", suite, "--seed", str(job["verify_seed"]), "--json"], s.ops,
                answers=(0, 1))
    if out is None:
        return {}
    with s.checking():
        doc = json.loads(out)
        expect(doc["pass"] is True and doc["failures"] == 0,
               f"verify {suite}: pass={doc['pass']} failures={doc['failures']}")
    return {"checks": doc["instances"]}


def run_routes(job, s: Session, setup_done):
    """Each sampled element through interval_poincare on every route."""
    from coxlehmer import intervals
    from coxlehmer.codes import shared_standard_code
    from coxlehmer.coxeter import SizeLimitError

    codes = [shared_standard_code(label, rank, m) for label, rank, m in job["systems"]]
    setup_done()
    with s.checking():
        ordered = [sorted(code.poset.elements) for code in codes]
        sample = [(codes[i], codes[i].poset.index[ordered[i][r]]) for i, r in job["elements"]]
    for k, (code, w) in enumerate(sample):
        s.set_op(k)
        polys = []
        for route in intervals.ROUTES:
            s.attempted += 1
            t0 = time.perf_counter()
            try:
                p = intervals.interval_poincare(w, code, route)
            except (ValueError, SizeLimitError) as exc:
                s.ops.append(time.perf_counter() - t0)
                s.failed += 1
                s.errors.append(f"refused {route} on {code.poset.render(w)}: {exc}")
                continue
            s.ops.append(time.perf_counter() - t0)
            polys.append(p)
        with s.checking():
            coeffs = {tuple(p.to_json()) for p in polys}
            expect(len(coeffs) <= 1, f"{code.name} {code.poset.render(w)}: routes disagree")
            size = code.poset.downset(w).bit_count()
            for c in coeffs:
                expect(sum(c) == size, f"{code.name} {code.poset.render(w)}: "
                                       f"coefficients sum to {sum(c)}, interval has {size}")
    return {}


def _parse_render(text: str) -> tuple[int, ...]:
    """Invert BruhatPoset.render for types A, B, D ("3412" or "2 -1 3")."""
    return tuple(int(x) for x in (text.split() if " " in text else text))


def _perm_arg(perm) -> str:
    return "--perm=" + ",".join(map(str, perm))


def run_cli(job, s: Session, cli, setup_done):
    """One cold query, a stream of warm point queries, then group scans."""
    label, rank, _ = job["system"]
    system = ["--type", label, "--rank", str(rank)]
    s.set_op("cold")
    out = s.cli(cli.main, ["hpoly", *system, _perm_arg(job["w0"]), "--route", "direct",
                           "--json"], None)
    setup_done()
    from coxlehmer.codes import shared_standard_code

    with s.checking():
        expect(out is not None, "cold query refused")
        got = json.loads(out)["routes"]["direct"]
        want = q_analog_product(e + 1 for e in job["exponents"])
        expect(got == want, f"w0 polynomial {got} != prod [e+1]_q = {want}")
        code = shared_standard_code(label, rank, None, variant=False)
        poset = code.poset

    for k, (kind, perm) in enumerate(job["queries"]):
        s.set_op(k)
        argv = [kind, *system, _perm_arg(perm), "--json"]
        if kind == "hpoly":
            argv[-1:-1] = ["--route", "direct"]
        out = s.cli(cli.main, argv, s.ops)
        if out is None:
            continue
        with s.checking():
            doc = json.loads(out)
            w = poset.index[tuple(perm)]
            if kind == "code":
                vec = tuple(doc["code"])
                expect(sum(vec) == doc["length"] == poset.length[w],
                       f"code {perm}: sum {vec} vs length {doc['length']}")
                expect(code.element(code.of(w)) == w and code.of(w) == vec,
                       f"code {perm}: table does not invert")
            else:
                coeffs = doc["routes"]["direct"]
                expect(sum(coeffs) == poset.downset(w).bit_count(),
                       f"hpoly {perm}: coefficients sum to {sum(coeffs)}")
                # independent of the downsets: [e,w] has one bottom, one top
                # and, as atoms, the generators in w's support
                support = len(set(poset.word[w]))
                expect(len(coeffs) - 1 == poset.length[w] and coeffs[0] == coeffs[-1] == 1
                       and (poset.length[w] == 0 or coeffs[1] == support),
                       f"hpoly {perm}: {coeffs} is not 1 + {support}q + ... + q^{poset.length[w]}")

    principal = None
    for k, what in enumerate(job["scans"]):
        s.set_op(f"scan{k}")
        out = s.cli(cli.main, ["classify", *system, "--what", what], s.scans)
        if out is None:
            continue
        with s.checking():
            doc = json.loads(out)
            polys = doc["polynomials"]
            expect(doc["count"] == len(doc.get("elements", polys)) > 0, f"classify {what}: count")
            if what == "pal":
                expect(all(p == p[::-1] for p in polys), "classify pal: not palindromic")
                continue
            for elem, vec in zip(doc["elements"], doc["codes"]):
                w = poset.index[_parse_render(elem)]
                box = 1
                for x in vec:
                    box *= x + 1
                expect(code.of(w) == tuple(vec) and poset.downset(w).bit_count() == box,
                       f"classify {what}: {elem} is not principal")
            if what == "principal":
                principal = set(doc["elements"])
            elif principal is not None:
                expect(set(doc["elements"]) <= principal, "unimodal element not principal")
    return {}


# ---------------------------------------------------------------------------


def main(argv) -> int:
    job = json.loads(argv[1])
    spawned = float(argv[2])
    result: dict = {}
    tracer = None
    try:
        src = Path(job["root"]) / "src"
        sys.path.insert(0, str(src))
        t0 = time.perf_counter()
        from coxlehmer import cli

        result["import_s"] = time.perf_counter() - t0
        if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"imported coxlehmer from {cli.__file__}, not {src}")
        if job["trace"]:
            sys.path.insert(0, str(HERE))
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        from coxlehmer.coxeter import SizeLimitError

        s = Session(tracer, (SizeLimitError,))

        def setup_done():
            result["setup_s"] = time.monotonic() - spawned

        kind = job["kind"]
        if kind == "verify":
            result.update(run_verify(job, s, cli, setup_done))
        elif kind == "routes":
            result.update(run_routes(job, s, setup_done))
        elif kind == "cli":
            result.update(run_cli(job, s, cli, setup_done))
        else:
            raise ValueError(f"unknown job kind {kind!r}")
        result.update(ops=s.ops, scans=s.scans, attempted=s.attempted, failed=s.failed,
                      refusals=s.errors, measured_s=sum(s.ops) + sum(s.scans))
    except WrongAnswer as exc:
        result["wrong"] = str(exc)
    except Exception:
        result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["self_s"] = tracer.self_s
        result["total_s"] = tracer.total_s
        result["counts"] = tracer.counts
        if job.get("spans_out"):
            tracer.write(job["spans_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
