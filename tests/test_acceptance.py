"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line with its runtime (visible with
pytest -rA); any assertion failure marks the criterion FAILED.  Each suite
runs through `run_suite`, and its check count is pinned, so a suite that
checks nothing fails its criterion.
"""

import time

from coxlehmer.codes import (
    dual_code,
    enumerate_dihedral_codes,
    shared_standard_code,
    verify_code,
)
from coxlehmer.coxeter import shared_poset
from coxlehmer.intervals import code_meet, interval_ideal, interval_poincare
from coxlehmer.qpoly import IntPolynomial
from coxlehmer.schubert import catalan
from coxlehmer.verify import CODE_SYSTEMS, VD_MAX_VOLUME, run_suite


class _Stopwatch:
    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {status} [{elapsed:.2f}s] {self.label}")
        return False


def test_criterion_01_code_word_example():
    with _Stopwatch(1, "code of s2 s1 s3 s2 in A3 is (0,2,2)"):
        poset = shared_poset("A", 3)
        code = shared_standard_code("A", 3)
        w = poset.apply_word([1, 0, 2, 1])
        assert poset.elements[w] == (3, 4, 1, 2)
        assert code.of(w) == (0, 2, 2)


def test_criterion_02_worked_interval_3412():
    with _Stopwatch(2, "3412 interval: three routes, maxima, meets"):
        poset = shared_poset("A", 3)
        code = shared_standard_code("A", 3)
        w = poset.index[(3, 4, 1, 2)]
        expected = IntPolynomial([1, 3, 5, 4, 1])
        for route in ("direct", "complex", "maxima"):
            assert interval_poincare(w, code, route) == expected
        ideal = interval_ideal(w, code)
        maxima_elements = {poset.elements[code.element(v)] for v in ideal.maxima()}
        assert maxima_elements == {(2, 4, 1, 3), (3, 2, 1, 4), (3, 4, 1, 2)}
        u, v = poset.index[(2, 4, 1, 3)], poset.index[(3, 2, 1, 4)]
        assert poset.elements[code_meet(u, v, code)] == (2, 1, 3, 4)
        assert poset.elements[code_meet(u, w, code)] == (1, 4, 2, 3)
        assert poset.elements[code_meet(v, w, code)] == (3, 1, 2, 4)
        assert poset.elements[code_meet(code_meet(u, v, code), w, code)] == (1, 2, 3, 4)


def test_criterion_03_code_validity():
    with _Stopwatch(3, "all shipped codes and duals are valid"):
        for label, rank, m in CODE_SYSTEMS:
            code = shared_standard_code(label, rank, m)
            rep = verify_code(code)
            assert rep.passed, (code.name, rep.witnesses)
            rep_dual = verify_code(dual_code(code))
            assert rep_dual.passed, (code.name, rep_dual.witnesses)


def test_criterion_04_catalan_classification():
    with _Stopwatch(4, "principal = lazy Fubini = 312-avoiding, n = 2..7"):
        rep = run_suite("catalan", n=7)
        assert rep.passed, rep.witnesses
        assert rep.instances == 6542
        assert [catalan(n) for n in range(2, 8)] == [2, 5, 14, 42, 132, 429]


def test_criterion_05_smooth_classification():
    with _Stopwatch(5, "smooth = unimodal Poincare sets, n = 3..6"):
        rep = run_suite("smooth", n=6)
        assert rep.passed, rep.witnesses
        assert rep.instances == 97


def test_criterion_06_h3_unimodal():
    with _Stopwatch(6, "17 unimodal triples and palindromic equalities in H3"):
        rep = run_suite("h3-unimodal")
        assert rep.passed, rep.witnesses
        assert rep.instances == 4


def test_criterion_07_shellings():
    with _Stopwatch(7, "per-point shelling lemma on every code box; f/h on 128 ideals"):
        rep = run_suite("shellings", seed=2024)
        assert rep.passed, rep.witnesses
        assert rep.failures == 0
        # one check per point of the 19 distinct boxes of the standard codes
        # and the suite's own boxes, which by the per-point lemma certifies
        # every linear extension of every ideal of them, plus one f/h check
        # per ideal
        assert rep.notes == ["G(I, x) = G(x) whenever x is minimal outside I, so "
                             "l(G(x)) = x and |G(x)| = |x| at 3678 points of 19 boxes "
                             "certify every linear extension of every ideal of them; "
                             "f/h on 128 ideals"]
        assert rep.instances == 3678 + 128 == 3806


def test_criterion_08_vertex_decomposability():
    with _Stopwatch(8, "join lemma on box ideals up to volume 16 and every code box point"):
        assert VD_MAX_VOLUME == 16
        rep = run_suite("vd")
        assert rep.passed, rep.witnesses
        assert rep.failures == 0
        # one certificate per ideal of the 30 boxes up to volume 16 and one
        # per point of the 17 distinct boxes of the standard codes, whose
        # lower intervals are order ideals of them: every interval of A1-A5,
        # B2-B4, D4-D5, H3 and I2(3..10)
        assert rep.notes == ["each facet is the join of one chain facet per class, and each "
                             "chain's top vertex sheds: certified at every point of 805 ideals "
                             "of 30 boxes up to volume 16 and at the 3634 points of the 17 "
                             "boxes of 19 code systems, which hold every lower interval of them"]
        assert rep.instances == 805 + 3634 == 4439


def test_criterion_09_flag_equivalence():
    with _Stopwatch(9, "complex flag iff ideal flag over 0/1 boxes"):
        rep = run_suite("flag")
        assert rep.passed, rep.witnesses
        assert rep.instances == 186


def test_criterion_10_m_sequences():
    with _Stopwatch(10, "interval rank counts pass the Macaulay test"):
        rep = run_suite("msequence")
        assert rep.passed, rep.witnesses
        assert rep.instances == 496


def test_criterion_11_d_structure():
    with _Stopwatch(11, "type D quotient recursion and chain factorization"):
        rep = run_suite("d-factorization")
        assert rep.passed, rep.witnesses
        assert rep.instances == 12


def test_criterion_12_h3_structure():
    with _Stopwatch(12, "H3 five-set equality and chain factorization"):
        rep = run_suite("h3-quotients")
        assert rep.passed, rep.witnesses
        assert rep.instances == 11


def test_criterion_13_dihedral_code_count():
    with _Stopwatch(13, "2^(m-1) dihedral codes for m = 3, 4, 5"):
        for m, expected in ((3, 4), (4, 8), (5, 16)):
            found = enumerate_dihedral_codes(shared_poset("I2", None, m))
            assert len(found) == expected


def test_criterion_14_strict_inclusions():
    with _Stopwatch(14, "palindromic versus unimodal counts in B3, B4, D4, D5"):
        rep = run_suite("strict-inclusions")
        assert rep.passed, rep.witnesses
        assert rep.instances == 5


def test_criterion_15_exponent_products():
    with _Stopwatch(15, "group Poincare polynomials factor over the exponents"):
        rep = run_suite("exponents")
        assert rep.passed, rep.witnesses
        assert rep.instances == 38
        assert shared_poset("H3").exponents() == (1, 5, 9)
