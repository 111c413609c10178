import itertools
import random

import pytest

from coxlehmer import intervals, schubert
from coxlehmer.coxeter import shared_poset
from coxlehmer.qpoly import IntPolynomial, q_analog_product
from coxlehmer.schubert import (
    SMOOTH_PATTERNS,
    UNIMODAL_PATTERNS,
    avoiders,
    avoids,
    catalan,
    chain_counts,
    chain_partition,
    dual_partition,
    hasse_covers,
    hasse_is_forest,
    identity_perm,
    inversion_code,
    is_fubini_word,
    is_lazy_fubini_word,
    is_smooth,
    is_unimodal_permutation,
    partition_to_unimodal,
    smooth_exponents,
    smooth_permutations,
    unimodal_permutations,
    unimodal_to_partition,
)
from coxlehmer.verify import FOREST_SAMPLES, random_forest_covers, run_suite
from oracles import avoiders_by_scan, avoids_by_standardizing

AVOIDS_PATTERNS = [(1, 2), (2, 1), (3, 1, 2), (3, 4, 1, 2), (4, 2, 3, 1), (2, 5, 3, 1, 4)]


def test_avoids_basics():
    assert not avoids((3, 4, 1, 2), (3, 4, 1, 2))
    assert avoids((2, 4, 1, 3), (3, 4, 1, 2))
    for k in (2, 3, 4):
        for pat in itertools.permutations(range(1, k + 1)):
            if pat != tuple(range(1, k + 1)):
                assert avoids(identity_perm(6), pat)


def test_avoids_by_brute_subsequences():
    # independent check for 312: a high value before a low-then-middle pair
    pat = (3, 1, 2)
    for w in itertools.permutations(range(1, 6)):
        hit = any(w[i] > max(w[j], w[k]) and w[j] < w[k]
                  for i, j, k in itertools.combinations(range(5), 3))
        assert avoids(w, pat) == (not hit)


@pytest.mark.parametrize("pattern", AVOIDS_PATTERNS)
def test_avoids_matches_the_standardizing_oracle(pattern):
    # S_0 .. S_7, so every pattern also meets permutations shorter than it
    for n in range(8):
        for w in itertools.permutations(range(1, n + 1)):
            assert avoids(w, pattern) == avoids_by_standardizing(w, pattern)


@pytest.mark.parametrize("patterns, top", [
    (((3, 1, 2),), 7), (SMOOTH_PATTERNS, 7),
    *(((p,), 6) for p in AVOIDS_PATTERNS),
    (((1,),), 6), (((2, 1), (3, 4, 1, 2)), 6), (UNIMODAL_PATTERNS, 7),
])
def test_avoiders_match_the_scan_oracle(patterns, top):
    # (1,) has no avoider past S_0; {21, 3412} leaves only the identity
    for n in range(top + 1):
        assert avoiders(n, patterns) == avoiders_by_scan(n, patterns), n


def test_avoider_counts_through_s8():
    assert [len(avoiders(n, ((3, 1, 2),))) for n in range(9)] == [catalan(n) for n in range(9)]
    assert ([len(smooth_permutations(n)) for n in range(9)]
            == [1, 1, 2, 6, 22, 88, 366, 1552, 6652])


def test_smooth_counts():
    assert not is_smooth((3, 4, 1, 2))
    assert not is_smooth((4, 2, 3, 1))
    assert all(is_smooth(w) for w in itertools.permutations((1, 2, 3)))
    assert len(smooth_permutations(4)) == 22
    assert len(smooth_permutations(5)) == 88


def test_permutation_poset_identity():
    covers = hasse_covers((1, 2, 3, 4))
    assert covers == {1: [], 2: [], 3: [], 4: []}
    assert chain_counts(covers) == (4,)


def test_permutation_poset_longest():
    covers = hasse_covers((3, 2, 1))
    assert covers == {1: [2], 2: [3], 3: []}
    assert chain_counts(covers) == (3, 2, 1)


def _chain_counts_by_subsets(n, rel, is_cover):
    """Totally ordered subsets of 1..n that are saturated, counted by size
    straight from the relation."""
    counts = {}
    for size in range(1, n + 1):
        for sub in itertools.combinations(range(1, n + 1), size):
            # order candidates bottom-up: more elements above means lower
            chain = sorted(sub, key=lambda x: -sum((x, y) in rel for y in sub))
            if all(is_cover(chain[i], chain[i + 1]) for i in range(len(chain) - 1)):
                counts[size - 1] = counts.get(size - 1, 0) + 1
    return tuple(counts.get(r, 0) for r in range(len(counts)))


def test_chain_counts_against_brute_force():
    # the relation is read off w: i below j when i < j but j comes first in w
    for w in itertools.permutations(range(1, 6)):
        n = len(w)
        rel = {(i, j) for i in w for j in w if i < j and w.index(j) < w.index(i)}

        def is_cover(a, b):
            return (a, b) in rel and not any(
                (a, z) in rel and (z, b) in rel for z in range(1, n + 1))

        assert hasse_covers(w) == {a: [b for b in range(1, n + 1) if is_cover(a, b)]
                                   for a in range(1, n + 1)}
        assert chain_counts(hasse_covers(w)) == _chain_counts_by_subsets(n, rel, is_cover)
    # seeded rooted forests: the relation is the closure of their covers
    rng = random.Random(31)
    for _ in range(20):
        covers = random_forest_covers(rng.randint(2, 9), rng)
        rel, stack = set(), [(a, b) for a, ups in covers.items() for b in ups]
        while stack:
            a, b = stack.pop()
            if (a, b) not in rel:
                rel.add((a, b))
                stack.extend((a, c) for c in covers[b])
        assert chain_counts(covers) == _chain_counts_by_subsets(
            len(covers), rel, lambda a, b: b in covers[a]), covers
    # a chain has at most n elements: cyclic covers are refused, not walked
    for cyclic in ({1: [2], 2: [1]}, {1: [2], 2: [3], 3: [1], 4: [1]}, {1: [1]}):
        with pytest.raises(ValueError, match="cycle"):
            chain_counts(cyclic)


def test_chain_partition_examples():
    assert chain_partition(identity_perm(4)) == (0,)
    assert chain_partition((3, 2, 1)) == (1, 2)
    assert chain_partition((2, 1, 4, 3)) == (2,)
    assert chain_partition((3, 4, 2, 1)) == (2, 3)


def test_chain_partition_rejects_non_smooth():
    with pytest.raises(ValueError, match="smooth"):
        chain_partition((3, 4, 1, 2))


def test_chain_partition_rejects_counts_that_miss_the_length(monkeypatch):
    # 21 has length 1; chain counts (3, 2) would read off the partition (2,)
    monkeypatch.setattr(schubert, "chain_counts", lambda covers: (3, 2))
    with pytest.raises(AssertionError, match="do not partition its length"):
        chain_partition((2, 1))


def test_dual_partition():
    assert dual_partition((0,)) == (0,)
    assert dual_partition((1, 2, 3)) == (1, 2, 3)
    assert dual_partition((2, 3)) == (1, 2, 2)
    assert dual_partition((3,)) == (1, 1, 1)
    with pytest.raises(ValueError):
        dual_partition((3, 1))


def test_dual_partition_is_involution():
    def partitions(total, cap=None):
        cap = cap or total
        if total == 0:
            yield ()
            return
        for first in range(1, min(cap, total) + 1):
            for rest in partitions(total - first, first):
                yield tuple(sorted(rest + (first,)))

    for n in range(1, 13):
        for lam in set(partitions(n)):
            assert dual_partition(dual_partition(lam)) == lam
            assert sum(dual_partition(lam)) == n


def test_dual_partition_multiplicity_rule():
    # multiplicity of k in the dual equals the k-th top difference
    for lam in [(1, 2, 3), (2, 3), (1, 1, 4), (3, 3, 3)]:
        dual = dual_partition(lam)
        r = len(lam)
        padded = (0,) + lam
        for k in range(1, r + 1):
            assert dual.count(k) == padded[r - k + 1] - padded[r - k]


def lazy_fubini_words(k):
    return {x for x in itertools.product(range(k), repeat=k) if is_lazy_fubini_word(x)}


def test_fubini_examples():
    assert lazy_fubini_words(3) == {(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2)}
    f4 = lazy_fubini_words(4)
    assert len(f4) == 14 == catalan(4)
    assert f4 == {
        (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 1, 0),
        (0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1), (0, 1, 2, 0), (0, 0, 1, 2),
        (0, 1, 1, 2), (0, 1, 2, 1), (0, 1, 2, 2), (0, 1, 2, 3),
    }
    assert is_fubini_word((0, 2, 1, 1))
    assert not is_lazy_fubini_word((0, 2, 1, 1))
    assert not is_fubini_word((0, 2, 2))
    assert all(is_fubini_word(x) for x in f4)


def test_unimodal_permutations():
    assert is_unimodal_permutation((1, 2, 3, 4))
    assert is_unimodal_permutation((1, 3, 4, 2))
    assert not is_unimodal_permutation((3, 1, 4, 2))
    assert len(unimodal_permutations(4)) == 8
    for n in range(1, 9):
        assert unimodal_permutations(n) == [w for w in itertools.permutations(range(1, n + 1))
                                            if is_unimodal_permutation(w)], n


def test_unimodal_partition_bijection():
    assert unimodal_to_partition(identity_perm(4)) == (0,)
    partitions = {unimodal_to_partition(u) for u in unimodal_permutations(4)}
    assert partitions == {(0,), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)}


def test_partition_to_unimodal_example():
    u = partition_to_unimodal((2, 3), 4)
    assert u == (3, 4, 2, 1)
    assert sum(inversion_code(u)) == 5
    assert is_unimodal_permutation(u)


def test_partition_to_unimodal_validation():
    with pytest.raises(ValueError):
        partition_to_unimodal((2, 2), 4)
    with pytest.raises(ValueError):
        partition_to_unimodal((4,), 4)


def test_lambda_roundtrip_up_to_8():
    for n in range(1, 9):
        for u in unimodal_permutations(n):
            lam = unimodal_to_partition(u)
            assert partition_to_unimodal(lam, n) == u
            assert sum(lam) == sum(inversion_code(u)) or lam == (0,)


def test_tail_partition_checks():
    # the unimodal suite at n reads the tail partitions of S_(n+1): S_4,
    # which holds (3, 4, 2, 1), then S_5 and S_6, three checks per unimodal
    # permutation; before them, one check per element of S_2..S_n and one
    # count per S_k, and after them two per smooth permutation of S_n
    for n, checks in ((3, (2 + 6) + 2 + 3 * 8 + 2 * 6 + FOREST_SAMPLES),
                      (4, (2 + 6 + 24) + 3 + 3 * 16 + 2 * 22 + FOREST_SAMPLES),
                      (5, (2 + 6 + 24 + 120) + 4 + 3 * 32 + 2 * 88 + FOREST_SAMPLES)):
        rep = run_suite("unimodal", n=n)
        assert rep.passed, rep.witnesses
        assert rep.instances == checks


def test_tail_partition_checks_the_round_trip(monkeypatch):
    # a round trip broken at (3, 4, 2, 1) alone fails exactly its one check
    real = schubert.partition_to_unimodal
    monkeypatch.setattr(schubert, "partition_to_unimodal", lambda lam, n: identity_perm(n)
                        if (lam, n) == ((2, 3), 4) else real(lam, n))
    rep = run_suite("unimodal", n=3)
    assert rep.failures == 1
    assert rep.witnesses == ["(3, 4, 2, 1): partition (2, 3) maps back to (1, 2, 3, 4)"]


def test_catalan_equivalence():
    rep = run_suite("catalan", n=5)
    assert rep.passed, rep.witnesses
    assert rep.notes[-1] == "catalan classification in S_5: 42 principal elements"
    # S_9 lies past the enumeration limit, so N_RANGES refuses n = 9 before any check runs
    with pytest.raises(ValueError, match="^suite catalan takes --n up to 8, got 9$"):
        run_suite("catalan", n=9)


def test_catalan_suite_fails_on_a_planted_fault(monkeypatch):
    # each of the three sides is checked: S_2 and S_3 have 2 + 5 principal elements
    with monkeypatch.context() as m:
        m.setattr(schubert, "is_lazy_fubini_word", lambda code: False)
        rep = run_suite("catalan", n=3)
    assert rep.failures == 7
    assert rep.witnesses[0] == "(1, 2): principal=True lazy=False 312-avoiding=True"
    with monkeypatch.context() as m:
        m.setattr(schubert, "avoiders", lambda n, patterns: [])
        rep = run_suite("catalan", n=3)
    assert rep.failures == 7
    assert rep.witnesses[-1] == "(3, 2, 1): principal=True lazy=True 312-avoiding=False"


def test_unimodal_equivalence():
    rep = run_suite("unimodal", n=5)
    assert rep.passed, rep.witnesses


def test_unimodal_equivalence_reads_the_shared_unimodal_set(monkeypatch):
    # the lex-minimal side is intervals.unimodal_set, the rule classify runs
    monkeypatch.setattr(intervals, "unimodal_set", lambda code: [])
    rep = run_suite("unimodal", n=4)
    assert not rep.passed
    # each unimodal permutation of S_2, S_3 and S_4 loses its lexmin side
    assert rep.failures == 2 + 4 + 8


def test_smooth_classification_small():
    rep = run_suite("smooth", n=4)
    assert rep.passed, rep.witnesses
    assert rep.notes == ["smooth Poincare classification in S_3: 4 polynomials",
                         "smooth Poincare classification in S_4: 8 polynomials"]


def test_smooth_factorization_s5():
    rep = run_suite("smooth", n=5)
    assert rep.passed, rep.witnesses


def test_smooth_suite_fails_on_a_planted_fault(monkeypatch):
    # without the last unimodal permutation, its polynomial is missing in every S_k
    real = schubert.unimodal_permutations
    monkeypatch.setattr(schubert, "unimodal_permutations", lambda n: real(n)[:-1])
    rep = run_suite("smooth", n=4)
    assert rep.failures == 2
    assert rep.witnesses == ["S_3: 4 smooth vs 3 unimodal polynomials",
                             "S_4: 8 smooth vs 7 unimodal polynomials"]


def test_smooth_exponents_match_interval():
    poset = shared_poset("A", 3)
    for perm in smooth_permutations(4):
        exps = smooth_exponents(perm)
        expected = (IntPolynomial([1]) if exps == (0,)
                    else q_analog_product(e + 1 for e in exps))
        got = IntPolynomial(poset.interval_poincare_coeffs(poset.index[perm]))
        assert got == expected, perm


def test_padded_dual_is_fubini():
    for n in (4, 5):
        for w in smooth_permutations(n):
            lam = smooth_exponents(w)
            if lam == (0,):
                continue
            assert is_fubini_word((0,) + lam)


def test_forest_chain_counts(monkeypatch):
    rep = run_suite("unimodal", n=5)
    assert rep.passed, rep.witnesses
    assert hasse_is_forest(hasse_covers((2, 1, 4, 3)))
    assert not hasse_is_forest(hasse_covers((3, 4, 1, 2)))
    # counts that do not decrease fail the empty permutation of S_0 and every
    # sampled forest; at n = 0 the tail partitions read only the identity of
    # S_1, which calls no chain_counts
    monkeypatch.setattr(schubert, "chain_counts", lambda covers: (1, 1))
    rep = run_suite("unimodal", n=0)
    assert rep.instances == 3 + 2 + FOREST_SAMPLES
    assert rep.failures == 1 + FOREST_SAMPLES
    assert rep.witnesses[0] == "(): counts (1, 1) not strictly decreasing"
    assert rep.witnesses[1].startswith("random rooted forest {1: ")
    assert rep.witnesses[1].endswith("}: counts (1, 1)")


def test_mixed_orientation_star_breaks_monotonicity():
    # why random_forest_covers roots its components: a node with three
    # lower and three upper covers has more rank-2 chains than edges
    covers = {1: [7], 2: [7], 3: [7], 7: [4, 5, 6], 4: [], 5: [], 6: []}
    rho = chain_counts(covers)
    assert rho == (7, 6, 9)
    assert not all(rho[i] > rho[i + 1] for i in range(len(rho) - 1))


def test_312_avoiders_code_entry_sets():
    # for 312-avoiding w the nonzero code entries are the dual partition parts
    for n in (4, 5):
        for w in itertools.permutations(range(1, n + 1)):
            if not avoids(w, (3, 1, 2)):
                continue
            code = inversion_code(w)
            lam = smooth_exponents(w)
            lam_set = set() if lam == (0,) else set(lam)
            assert lam_set | {0} == set(code) | {0}
