import argparse
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from coxlehmer import cli, codes, coxeter, verify
from coxlehmer.qpoly import q_analog_product
from coxlehmer.report import Report


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_code_word_example(capsys):
    code, out, _ = run(capsys, "code", "--type", "A", "--rank", "3",
                       "--word", "s2 s1 s3 s2")
    assert code == 0
    assert "LA3(3412) = (0, 2, 2)" in out
    assert "length = 4" in out


def test_code_json(capsys):
    code, out, _ = run(capsys, "code", "--type", "A", "--rank", "3",
                       "--perm", "3412", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"system": "A3", "code_name": "LA3", "element": "3412",
                   "code": [0, 2, 2], "length": 4}


def test_code_b2_word(capsys):
    code, out, _ = run(capsys, "code", "--type", "B", "--rank", "2",
                       "--word", "s2 s1 s2")
    assert code == 0
    assert "= (0, 3)" in out


def test_code_h3_identity(capsys):
    code, out, _ = run(capsys, "code", "--type", "H3", "--word", "")
    assert code == 0
    assert "LH3(e) = (0, 0, 0)" in out


def test_code_dump_table(capsys):
    code, out, _ = run(capsys, "code", "--type", "A", "--rank", "2", "--dump-table")
    assert code == 0
    table = json.loads(out)
    assert table["123"] == [0, 0]
    assert len(table) == 6


@pytest.mark.parametrize("element", [("--word", "s1"), ("--word", ""), ("--perm", "21")])
def test_dump_table_refuses_an_element(capsys, element):
    code, out, err = run(capsys, "code", "--type", "A", "--rank", "2", "--dump-table", *element)
    assert code == 2 and out == ""
    assert err == "error: --dump-table prints the whole code; give no --word or --perm\n"


def test_hpoly_all_routes(capsys):
    code, out, _ = run(capsys, "hpoly", "--type", "A", "--rank", "3",
                       "--perm", "3412", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert set(doc["routes"]) == {"direct", "complex", "maxima"}
    assert all(v == [1, 3, 5, 4, 1] for v in doc["routes"].values())


def test_hpoly_identity(capsys):
    code, out, _ = run(capsys, "hpoly", "--type", "I2", "--m", "5",
                       "--word", "", "--route", "direct")
    assert code == 0
    assert out.strip().endswith("1")


@pytest.mark.parametrize("verb", [("hpoly", "--route", "complex"), ("complex",)])
def test_invalid_code_image_is_a_verification_failure(capsys, monkeypatch, verb):
    from coxlehmer import intervals

    def broken(w, code):
        raise intervals.InvalidCodeImage(f"{code.name}: image is not an order ideal")

    monkeypatch.setattr(intervals, "interval_ideal", broken)
    code, out, err = run(capsys, verb[0], "--type", "A", "--rank", "3", "--perm", "3412",
                         *verb[1:])
    assert code == 1
    assert out == ""
    assert err == "error: LA3: image is not an order ideal\n"


def test_complex_json_roundtrip(capsys):
    code, out, _ = run(capsys, "complex", "--type", "A", "--rank", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2
    assert doc["facet_count"] == 6
    nverts = len(doc["vertices"])
    for facet in doc["facets"]:
        assert all(0 <= v < nverts for v in facet)
    assert len(doc["labels"]) == len(doc["facets"])


def test_complex_of_element(capsys):
    code, out, _ = run(capsys, "complex", "--type", "A", "--rank", "3",
                       "--perm", "3412")
    assert code == 0
    assert json.loads(out)["facet_count"] == 14


def test_classify_h3_unimodal(capsys):
    code, out, _ = run(capsys, "classify", "--type", "H3", "--what", "unimodal")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 17
    assert [1, 5, 9] in doc["codes"]
    assert doc["class"] == "unimodal"


def test_classify_smooth(capsys):
    code, out, _ = run(capsys, "classify", "--type", "A", "--rank", "3",
                       "--what", "smooth")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 22
    assert len(doc["polynomials"]) == 8  # distinct Poincare polynomials


@pytest.mark.parametrize("argv", [
    ("--type", "B", "--rank", "3", "--what", "pal"),
    ("--type", "B", "--rank", "3", "--what", "pal", "--code", "dual"),
    ("--type", "A", "--rank", "3", "--what", "smooth"),
])
def test_classify_pal_and_smooth_build_no_code(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a code was built")

    monkeypatch.setattr(cli, "_shared_code", refuse)
    code, out, err = run(capsys, "classify", *argv)
    assert code == 0, err
    assert json.loads(out)["count"] > 0


def test_classify_smooth_needs_type_a(capsys):
    code, _, err = run(capsys, "classify", "--type", "B", "--rank", "3",
                       "--what", "smooth")
    assert code == 2
    assert "type A" in err


def test_verify_catalan(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "catalan", "--n", "5",
                       "--json", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["suite"] == "catalan"
    assert doc["seed"] == 2024
    assert json.loads(out_file.read_text())["pass"] is True


@pytest.mark.parametrize("route", ["complex", "all"])
def test_failed_shelling_is_a_verification_failure(capsys, route):
    from oracles import step_rule

    def origin_only(*_):
        return 0, 0  # G empty, the least container at the origin

    with step_rule(origin_only):
        code, out, err = run(capsys, "hpoly", "--type", "A", "--rank", "3", "--perm", "3412",
                             "--route", route)
    assert code == 1
    assert out == ""
    assert err == "error: rank order failed to shell the complex at point (0, 0, 1)\n"


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: `write`, or with `buffered` only
    `flush`, raises BrokenPipeError, as a block-buffered pipe does."""

    def __init__(self, fd, buffered):
        self._fd, self._buffered = fd, buffered

    def write(self, text):
        if not self._buffered:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self._buffered:
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


@pytest.mark.parametrize("buffered", [False, True], ids=["on_write", "on_flush"])
def test_a_closed_pipe_ends_the_run_without_a_traceback(capsys, monkeypatch, tmp_path, buffered):
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(target.fileno(), buffered))
        assert cli.main(["verify", "codes", "--max-rank", "1"]) == 1
        # what is still buffered goes to the null device, not the pipe
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def test_verify_failure_exit_code(capsys, monkeypatch):
    def failing(**_):
        rep = Report("failing")
        rep.check(False, "synthetic")
        return rep

    monkeypatch.setitem(cli.SUITES, "failing", failing)
    monkeypatch.setitem(verify.SYSTEMS, "failing", ())
    code, out, _ = run(capsys, "verify", "failing")
    assert code == 1
    assert "FAIL" in out
    assert "synthetic" in out


def test_verify_out_unwritable_is_exit_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, _, err = run(capsys, "verify", "exponents", "--out", str(target))
    assert code == 2
    assert err.startswith("error: cannot write the report to")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["catalan", "--n", "1"], "ran 0 checks"),
    (["catalan", "--n", "-3"], "ran 0 checks"),
    (["shellings", "--n", "3"], "takes no --n"),
])
def test_verify_never_passes_vacuously(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert "PASS" not in out
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("name, n, max_rank", [
    ("catalan", 1, None), ("catalan", -3, None), ("d-factorization", None, 3),
])
def test_run_suite_refuses_a_report_of_0_checks(name, n, max_rank):
    # a library caller gets the CLI's refusal, not a pass that checked nothing
    with pytest.raises(ValueError) as exc:
        verify.run_suite(name, n=n, max_rank=max_rank)
    assert str(exc.value) == f"suite {name} ran 0 checks, so it verified nothing"


REFUSALS = [
    (["catalan", "--n", "12"], "suite catalan takes --n up to 8, got 12"),
    (["unimodal", "--n", "99"], "suite unimodal takes --n from 0 to 8, got 99"),
    (["smooth", "--n", "1"], "suite smooth takes --n from 2 to 6, got 1"),
    (["all", "--n", "1"], "suite smooth takes --n from 2 to 6, got 1"),
    (["all", "--n", "9"], "suite catalan takes --n up to 8, got 9"),
    (["smooth", "--n", "9", "--max-rank", "7"],
     "suite smooth takes --n from 2 to 6, got 8 (--n 9 capped by --max-rank 7)"),
    (["unimodal", "--max-rank", "-3"], "--max-rank takes a rank of at least 1, got -3"),
    (["smooth", "--max-rank", "0"], "--max-rank takes a rank of at least 1, got 0"),
    (["all", "--max-rank", "0"], "--max-rank takes a rank of at least 1, got 0"),
    (["codes", "--max-rank", "-1"], "--max-rank takes a rank of at least 1, got -1"),
    # --max-rank is checked before it caps --n
    (["smooth", "--n", "5", "--max-rank", "0"], "--max-rank takes a rank of at least 1, got 0"),
]


def _record_suites(monkeypatch):
    """Replace every suite by one that records its name; returns the record."""
    ran = []
    for key in list(verify.SUITES):
        monkeypatch.setitem(verify.SUITES, key, lambda key=key, **_: ran.append(key) or Report(key))
    return ran


@pytest.mark.parametrize("argv, message", REFUSALS)
def test_out_of_range_n_is_refused_before_any_suite_runs(capsys, monkeypatch, argv, message):
    ran = _record_suites(monkeypatch)
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == "" and ran == []
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", REFUSALS)
def test_run_suite_refuses_what_the_cli_refuses(monkeypatch, argv, message):
    # the library gives the same refusal, before any suite runs
    ran = _record_suites(monkeypatch)
    args = cli.build_parser().parse_args(["verify", *argv])
    with pytest.raises(ValueError) as exc:
        verify.run_suite(args.suite, n=args.n, max_rank=args.max_rank, seed=args.seed)
    assert str(exc.value) == message and ran == []


def test_every_suite_declares_exactly_one_scope():
    # the systems a suite reads, or the n range of a type A suite; never both
    assert not verify.SYSTEMS.keys() & verify.N_RANGES.keys()
    assert verify.SYSTEMS.keys() | verify.N_RANGES.keys() == verify.SUITES.keys()


@pytest.mark.parametrize("argv", [
    ["unimodal", "--n", "1"],
    ["smooth", "--n", "2"],
    ["catalan", "--n", "12", "--max-rank", "2"],  # runs at n = 3
])
def test_in_range_n_still_runs(capsys, argv):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0 and ": PASS (" in out


def test_codes_below_rank_two_skips_the_dihedral_counts(capsys, monkeypatch):
    def refuse(poset):
        raise AssertionError(f"counted the codes of {poset.system.describe()}")

    monkeypatch.setattr(codes, "enumerate_dihedral_codes", refuse)
    code, out, _ = run(capsys, "verify", "codes", "--max-rank", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["notes"] == ["1 systems with duals"]


@pytest.mark.parametrize("argv, message", [
    (["code", "--type", "A", "--rank", "3", "--m", "7", "--word", "s1"],
     "--m applies to type I2 only, not A"),
    (["classify", "--type", "H3", "--m", "5"], "--m applies to type I2 only, not H3"),
    (["hpoly", "--type", "I2", "--m", "4", "--rank", "9", "--word", "s1"],
     "type I2 takes --m, not --rank"),
])
def test_stray_system_option_is_refused(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["code", "--type", "A", "--rank", "3", "--word", "s1"],
    ["hpoly", "--type", "D", "--rank", "4", "--word", "s1"],
    ["classify", "--type", "H3"],
    ["complex", "--type", "A", "--rank", "3", "--word", "s1"],
    ["complex", "--type", "A", "--rank", "3"],
], ids=["code", "hpoly", "classify", "complex-element", "complex-group"])
def test_variant_code_is_refused_outside_type_b_before_any_group_is_built(
        capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError(f"group {args} built for a refused --code")

    monkeypatch.setattr(cli, "shared_poset", refuse)
    code, out, err = run(capsys, *argv, "--code", "variant")
    assert code == 2 and out == ""
    assert err == "error: only type B has a variant code\n"


def test_h3_accepts_its_rank(capsys):
    code, out, _ = run(capsys, "code", "--type", "H3", "--rank", "3", "--word", "s1")
    assert code == 0 and "= (1, 0, 0)" in out


def test_unknown_suite_lists_names(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2
    assert "valid:" in err and "catalan" in err


def test_word_parse_error(capsys):
    code, _, err = run(capsys, "code", "--type", "A", "--rank", "3",
                       "--word", "s1 s9")
    assert code == 2
    assert "position 2" in err


def test_bad_perm(capsys):
    code, _, err = run(capsys, "code", "--type", "A", "--rank", "3",
                       "--perm", "3413")
    assert code == 2
    assert "not an element" in err


def test_bad_perm_d4_names_the_sign_rule(capsys):
    # a signed permutation of 1..4, but with an odd number of minus signs
    code, out, err = run(capsys, "code", "--type", "D", "--rank", "4", "--perm=-1,2,3,4")
    assert code == 2 and out == ""
    assert err == ("error: (-1, 2, 3, 4) is not an element of D4 "
                   "(need an even number of minus signs)\n")
    code, _, err = run(capsys, "code", "--type", "D", "--rank", "4", "--perm=1,2,3,5")
    assert code == 2 and "need a signed permutation of 1..4" in err


def test_unreadable_perm(capsys):
    code, _, err = run(capsys, "code", "--type", "A", "--rank", "2", "--perm", "3x2")
    assert code == 2
    assert err.strip() == "error: cannot read one-line element '3x2'"


def test_missing_element(capsys):
    code, _, err = run(capsys, "code", "--type", "A", "--rank", "3")
    assert code == 2
    assert "needs an element" in err


def test_i2_requires_m(capsys):
    code, _, err = run(capsys, "code", "--type", "I2", "--word", "s1")
    assert code == 2
    assert "--m" in err


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["badverb"])
    assert exc.value.code == 2


def test_verify_max_rank_filters_systems(capsys):
    code, out, _ = run(capsys, "verify", "codes", "--max-rank", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert "14 systems" in " ".join(doc["notes"])  # A1-3, B2-3, H3, I2(3..10)


def test_verify_vd_max_rank_keeps_the_boxes_and_caps_the_intervals(capsys):
    code, out, _ = run(capsys, "verify", "vd", "--max-rank", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    # the 805 box ideals do not depend on a rank; of the code systems only
    # A1 is left, whose box (2,) has 2 points
    assert doc["pass"] is True and doc["instances"] == 805 + 2
    assert doc["notes"][0].endswith("805 ideals of 30 boxes up to volume 16 and at the 2 points "
                                    "of the 1 boxes of 1 code systems, which hold every lower "
                                    "interval of them")


@pytest.mark.parametrize("suite, max_rank, checks", [
    ("d-factorization", 3, 0), ("d-factorization", 4, 6),
    ("h3-quotients", 2, 0), ("h3-quotients", 3, 11),
    ("h3-unimodal", 2, 0), ("h3-unimodal", 3, 4),
    # B3 has two checks, then B4 and D4 one each
    ("strict-inclusions", 2, 0), ("strict-inclusions", 3, 2), ("strict-inclusions", 4, 4),
    # one check per element: I2(8) has 16, B3 48 and H3 120
    ("msequence", 2, 16), ("msequence", 3, 16 + 48 + 120),
    # two per system: A1, A2, B2 and I2(3..10), then A3, B3 and H3
    ("exponents", 2, 2 * 11), ("exponents", 3, 2 * 14),
    # two per element of A1, A2 and I2(3..8); the worked S4 example's 5
    # checks only from rank 3
    ("routes", 2, 2 * (2 + 6 + 66)), ("routes", 3, 537),
    # ranks 1 to 5; the type A suites read S_k up to k = rank + 1
    *[(suite, rank, checks) for suite, row in {
        "codes": (16, 865, 2479, 9293, 39409),
        "shellings": (180, 278, 470, 1166, 3806),
        "vd": (807, 911, 1103, 1799, 4439),
        "flag": (186,) * 5,
        "catalan": (5, 17, 56, 219, 1072),
        "unimodal": (69, 96, 177, 478, 478),
        "smooth": (2, 8, 27, 95, 97),
        "all": (1271, 2547, 5264, 14952, 51214),
    }.items() for rank, checks in enumerate(row, start=1)],
])
def test_verify_max_rank_caps_the_fixed_system_suites(capsys, suite, max_rank, checks):
    code, out, err = run(capsys, "verify", suite, "--max-rank", str(max_rank), "--json")
    if checks:
        assert code == 0 and json.loads(out)["instances"] == checks
    else:
        assert code == 2 and f"suite {suite} ran 0 checks, so it verified nothing" in err


def test_verify_all_max_rank_builds_no_system_above_it(capsys, monkeypatch):
    coxeter._shared_poset.cache_clear()
    codes._shared_code.cache_clear()
    ranks, build = [], coxeter.build_system

    def recording(*args):
        system = build(*args)
        ranks.append(system.rank)
        return system

    monkeypatch.setattr(coxeter, "build_system", recording)
    code, out, _ = run(capsys, "verify", "all", "--max-rank", "2", "--json")
    assert code == 0 and json.loads(out)["pass"] is True
    assert sorted(set(ranks)) == [1, 2]


def test_hpoly_h3_top_element(capsys):
    from coxlehmer.coxeter import shared_poset
    from coxlehmer.qpoly import q_analog_product

    poset = shared_poset("H3")
    word = " ".join(f"s{poset.system.gen_subscripts[g]}"
                    for g in poset.word[poset.w0])
    code, out, _ = run(capsys, "hpoly", "--type", "H3", "--word", word, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["routes"]["direct"] == q_analog_product([2, 6, 10]).to_json()


def test_rank_one_type_a(capsys):
    code, out, _ = run(capsys, "code", "--type", "A", "--rank", "1", "--perm", "21")
    assert code == 0
    assert "= (1)" in out


def test_size_limit_is_exit_2(capsys):
    code, out, err = run(capsys, "code", "--type", "B", "--rank", "9", "--word", "s1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "enumeration limit" in err and "Traceback" not in err


@pytest.mark.parametrize("label, flag, size", [("D", "--rank", "7"), ("A", "--rank", "8"),
                                               ("I2", "--m", "60000"), ("I2", "--m", "2556")],
                         ids=["D-7", "A-8", "I2-60000", "I2-2556"])
def test_groups_above_the_limit_are_refused_before_enumeration(
        capsys, monkeypatch, label, flag, size):
    # their downsets alone would take 6.5 GB (D7) and 8.2 GB (A8), and
    # I2(60000)'s 120,000 elements of 120,000 entries each 116 GB; I2(2556)
    # is the first dihedral group past the limit, at 40.25 m^2 + 2,176 m bytes; the BFS
    # reaches every element through the per-generator actions, and the
    # relation check composes s1 s2 m times, quadratic in m
    acted = []

    def guarded_actions(system):
        def act(e):
            acted.append(system.describe())
            raise AssertionError(f"{system.describe()} is being enumerated")

        return [act] * system.rank

    def guarded_relations(system):
        acted.append(f"{system.describe()} relations")
        raise AssertionError(f"{system.describe()}'s relations are being checked")

    monkeypatch.setattr(coxeter, "_right_actions", guarded_actions)
    monkeypatch.setattr(coxeter.CoxeterSystem, "_check_relations", guarded_relations)
    code, out, err = run(capsys, "code", "--type", label, flag, size, "--word", "s1")
    assert acted == []
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "enumeration limit" in err


# the Coxeter matrix alone holds rank^2 entries, and each I2(m) generator 2m;
# |A1500| has 4,118 digits and the bytes it would need over 8,000, past the
# 4,300 digits that str() of an int converts
HUGE_GROUPS = {"A-100000": ("A", "--rank", "100000"), "B-30000": ("B", "--rank", "30000"),
               "D-30000": ("D", "--rank", "30000"), "I2-1e9": ("I2", "--m", "1000000000"),
               "A-1500": ("A", "--rank", "1500")}


@pytest.mark.parametrize("label, flag, size", HUGE_GROUPS.values(), ids=HUGE_GROUPS)
def test_huge_groups_are_refused_in_one_short_line_before_anything_is_built(label, flag, size):
    # a child capped at 512 MB of address space, so that building the
    # generators or the matrix first dies with a MemoryError
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    src = Path(cli.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-B", "-m", "coxlehmer.cli", "code", "--type", label,
                           flag, size, "--word", "s1"], capture_output=True, text=True,
                          timeout=5, preexec_fn=cap, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 2 and done.stdout == ""
    err = done.stderr
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300
    name = f"I2({size})" if label == "I2" else f"{label}{size}"
    assert f"|{name}|" in err and "enumeration limit" in err


def test_i2_2555_is_the_largest_dihedral_group_under_the_limit(monkeypatch):
    # 2m-entry elements, words of m/2 letters on average, the downsets and
    # PER_ELEMENT_BYTES per element: 40.25 m^2 + 2,176 m against 2^28
    checked = []
    monkeypatch.setattr(coxeter.CoxeterSystem, "_check_relations",
                        lambda system: checked.append(system.dihedral_m))
    system = coxeter.build_system("I2", m=2555)
    assert system.order == 5110
    assert system.modelled_bytes == 268_312_686 <= coxeter.ENUMERATION_LIMIT
    with pytest.raises(coxeter.SizeLimitError, match="268,520,580 bytes"):
        coxeter.build_system("I2", m=2556)
    assert checked == [2555]


def test_seed_reaches_the_forest_samples(capsys, monkeypatch):
    # the suite draws its forests from random.Random(--seed), and only there
    drawn, real = [], verify.random_forest_covers

    def recorder(size, rng):
        drawn.append(real(size, rng))
        return drawn[-1]

    def draws(seed):
        drawn.clear()
        assert run(capsys, "verify", "unimodal", "--n", "3", "--seed", str(seed))[0] == 0
        return list(drawn)

    monkeypatch.setattr(verify, "random_forest_covers", recorder)
    rng, seven = random.Random(7), draws(7)
    assert seven == [real(rng.randint(2, 12), rng) for _ in range(verify.FOREST_SAMPLES)]
    assert len(draws(8)) == verify.FOREST_SAMPLES and drawn != seven


def test_h3_quotients_adds_up_each_system():
    h3 = ("H3", None, None)
    assert verify.suite_h3_quotients(systems=[h3]).instances == 11
    rep = verify.suite_h3_quotients(systems=[h3, h3])
    assert rep.passed and rep.instances == 22
    assert verify.run_suite("h3-quotients").instances == 11


def test_warm_dual_code_queries_build_one_dual_table(capsys, monkeypatch):
    codes._shared_code.cache_clear()
    built, real = [], codes.dual_code
    monkeypatch.setattr(codes, "dual_code", lambda code: built.append(code) or real(code))
    argv = ["code", "--type", "D", "--rank", "4", "--code", "dual", "--word", "s1 s2", "--json"]
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second and first[0] == 0
    assert json.loads(first[1])["code_name"] == "dual(LD4)"
    # one dual table, built from the shared standard code
    assert len(built) == 1 and built[0] is codes.shared_standard_code("D", 4)


def test_leading_minus_perm_d4(capsys):
    code, out, _ = run(capsys, "hpoly", "--type", "D", "--rank", "4",
                       "--perm=-1,-2,3,4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["element"] == "-1 -2 3 4"
    assert all(v == [1, 2, 1] for v in doc["routes"].values())


def test_cold_query_enumerates_once(capsys, monkeypatch):
    coxeter._shared_poset.cache_clear()
    codes._shared_code.cache_clear()
    built = []
    init = coxeter.BruhatPoset.__init__

    def counting_init(self, system):
        built.append(system.describe())
        init(self, system)

    monkeypatch.setattr(coxeter.BruhatPoset, "__init__", counting_init)
    code, out, _ = run(capsys, "hpoly", "--type", "D", "--rank", "4",
                       "--word", "s0 s1 s2", "--route", "direct", "--json")
    assert code == 0
    assert json.loads(out)["routes"]["direct"] == [1, 3, 3, 1]
    assert built == ["D4"]


def test_maxima_route_answers_past_twenty_maxima(capsys):
    # 30 maxima: the meet table answers where 2^30 subsets could not, and
    # every route agrees
    code, out, err = run(capsys, "hpoly", "--type", "D", "--rank", "5",
                         "--perm=1,2,-4,3,-5", "--route", "all", "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["agree"] is True
    assert set(doc["routes"]) == {"direct", "complex", "maxima"}


def readme_schemas() -> dict[str, list[str]]:
    """Top-level keys of each `label`: `{...}` bullet under README's
    "JSON schemas" heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## JSON schemas", 1)[1].split("\n## ", 1)[0]
    schemas = {}
    for bullet in section.split("\n- ")[1:]:
        bullet = " ".join(bullet.split())
        head = re.match(r"`([^`]+)`: `\{", bullet)
        if head is None:
            continue
        depth, keys = 0, []
        for tok in re.finditer(r'[{}]|"([\w-]+)"', bullet[head.end():]):
            if tok.group() == "{":
                depth += 1
            elif tok.group() == "}":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0:
                keys.append(tok.group(1))
        schemas[head.group(1)] = keys
    return schemas


A3 = ("--type", "A", "--rank", "3")
README_RUNS = {
    "code --json": [("code", *A3, "--perm", "3412", "--json")],
    "hpoly --json": [("hpoly", *A3, "--perm", "3412", "--json")],
    "complex": [("complex", *A3), ("complex", *A3, "--perm", "3412")],
    "classify --what principal|unimodal": [("classify", *A3, "--what", "principal"),
                                           ("classify", *A3, "--what", "unimodal")],
    "classify --what smooth|pal": [("classify", *A3, "--what", "smooth"),
                                   ("classify", *A3, "--what", "pal")],
    "verify --json": [("verify", "catalan", "--n", "4", "--json")],
}


def test_readme_json_schemas_match_output(capsys):
    schemas = readme_schemas()
    assert set(schemas) == set(README_RUNS)
    for label, runs in README_RUNS.items():
        for argv in runs:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            assert sorted(json.loads(out)) == sorted(schemas[label]), argv


def test_hpoly_route_all_runs_every_route_in_order(capsys):
    from coxlehmer import intervals

    code, out, _ = run(capsys, "hpoly", *A3, "--perm", "3412", "--route", "all", "--json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc["routes"]) == list(intervals.ROUTES) and doc["agree"] is True


# distinct palindromic interval polynomials; 2^n in type A_n
PAL_COUNTS = {"A3": 8, "A4": 16, "A5": 32, "A6": 64, "B3": 13, "B4": 31, "B5": 70,
              "D4": 16, "D5": 37, "D6": 85, "H3": 17, "I2(5)": 6}


def _system_args(name):
    if name == "H3":
        return ("--type", "H3")
    if name.startswith("I2("):
        return ("--type", "I2", "--m", name[3:-1])
    return ("--type", name[0], "--rank", name[1:])


@pytest.mark.parametrize("name", PAL_COUNTS)
def test_classify_pal(capsys, name):
    code, out, _ = run(capsys, "classify", *_system_args(name), "--what", "pal")
    assert code == 0
    assert json.loads(out)["count"] == PAL_COUNTS[name]


# principal elements and their distinct interval polynomials
PRINCIPAL_COUNTS = {"D6": (377, 67)}


@pytest.mark.parametrize("name", PRINCIPAL_COUNTS)
def test_classify_principal(capsys, name):
    code, out, _ = run(capsys, "classify", *_system_args(name), "--what", "principal")
    doc = json.loads(out)
    assert code == 0
    assert (doc["count"], len(doc["polynomials"])) == PRINCIPAL_COUNTS[name]


def test_d6_w0_on_every_route_is_the_group_polynomial(capsys):
    # w0 = -1 in D6, so [e, w0] is the whole group: prod [e + 1]_q over the
    # exponents 1, 3, 5, 7, 9, 5, with coefficients summing to |D6|
    code, out, _ = run(capsys, "hpoly", "--type", "D", "--rank", "6",
                       "--perm=-1,-2,-3,-4,-5,-6", "--route", "all", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["agree"] is True
    assert [sum(p) for p in doc["routes"].values()] == [23040] * 3
    assert doc["routes"]["direct"] == q_analog_product([2, 4, 6, 8, 10, 6]).to_json()


PARSER_RUNS = [
    ("hpoly", *A3, "--perm", "3412", "--route", "complex"),
    ("hpoly", *A3, "--perm", "3412"),
    ("hpoly", *A3, "--perm", "3412", "--route", "fast"),
    ("code", *A3, "--perm", "3412", "--json"),
    ("code", *A3, "--perm", "3412", "--bogus"),
]


def _outcome(capsys, argv):
    try:
        status = cli.main(None if argv is None else list(argv))
    except SystemExit as exc:
        status = f"SystemExit {exc.code}"
    out = capsys.readouterr()
    return status, out.out, out.err


def test_main_builds_one_parser_that_keeps_no_state(capsys, monkeypatch):
    fresh = []
    for argv in PARSER_RUNS:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(_outcome(capsys, argv))
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    warm = [_outcome(capsys, argv) for argv in PARSER_RUNS]
    assert len(built) == 1
    assert warm == fresh
    # --route complex does not stick, and the usage error leaves the parser working
    assert [line.split()[0] for line in warm[0][1].splitlines()] == ["complex"]
    assert [line.split()[0] for line in warm[1][1].splitlines()] == ["direct", "complex", "maxima"]
    assert warm[2][0] == "SystemExit 2" and "invalid choice" in warm[2][2]
    assert warm[3][0] == 0 and json.loads(warm[3][1])["code"] == [0, 2, 2]
    # the verb's own parser reports an unrecognized argument, with its usage
    assert warm[4][0] == "SystemExit 2" and warm[4][1] == ""
    assert warm[4][2].startswith("usage: coxlehmer code [-h] --type ")
    assert warm[4][2].endswith("coxlehmer code: error: unrecognized arguments: --bogus\n")


def test_a_warm_verb_query_is_parsed_once(monkeypatch):
    argv = ["code", *A3, "--perm", "3412", "--json"]
    assert cli.main(argv) == 0  # the parser is built
    calls = []
    parse = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda self, *a, **k: calls.append(self.prog) or parse(self, *a, **k))
    assert cli.main(argv) == 0
    assert calls == ["coxlehmer code"]


@pytest.mark.parametrize("argv, status, stream, text", [
    (["code", *A3, "--perm", "3412", "--json"], 0, "out", '"code": [0, 2, 2]'),
    (["code", *A3, "stray"], "SystemExit 2", "err",
     "coxlehmer code: error: unrecognized arguments: stray"),
    ([], "SystemExit 2", "err", "the following arguments are required: command"),
])
def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch, argv, status, stream, text):
    # the console script calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["coxlehmer", *argv])
    got, out, err = _outcome(capsys, None)
    assert got == status
    assert text in (out if stream == "out" else err)
