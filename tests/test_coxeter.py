import cmath
import hashlib
import json
import sys
import tracemalloc

import pytest

from coxlehmer.codes import standard_code
from coxlehmer.coxeter import (
    BruhatPoset,
    CoxeterSystem,
    SizeLimitError,
    _compose,
    _right_actions,
    _root_permutations,
    build_system,
    shared_poset,
)
from coxlehmer.multicomplex import _bits
from coxlehmer.qpoly import q_analog_product
from oracles import (
    affine_dihedral_tables,
    downsets_whole_group,
    matrix_h3_tables,
    parabolic_decompose,
    quotient_factorization,
    reflections,
)


def inversions(perm):
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
               if perm[i] > perm[j])


@pytest.fixture(scope="module")
def a3():
    return BruhatPoset(build_system("A", 3))


@pytest.fixture(scope="module")
def b3():
    return BruhatPoset(build_system("B", 3))


@pytest.fixture(scope="module")
def h3():
    return BruhatPoset(build_system("H3"))


def test_build_system_validation():
    with pytest.raises(ValueError, match="rank >= 1"):
        build_system("A", 0)
    with pytest.raises(ValueError, match="rank >= 2"):
        build_system("B", 1)
    with pytest.raises(ValueError, match="rank >= 4"):
        build_system("D", 3)
    with pytest.raises(ValueError, match="m >= 3"):
        build_system("I2", m=2)
    with pytest.raises(ValueError, match="rank 3"):
        build_system("H3", 4)
    with pytest.raises(ValueError, match="unknown type"):
        build_system("E", 6)


def test_coxeter_matrices():
    a = build_system("A", 3)
    assert a.coxeter_matrix[0][1] == 3 and a.coxeter_matrix[0][2] == 2
    b = build_system("B", 3)
    assert b.coxeter_matrix[0][1] == 4 and b.coxeter_matrix[1][2] == 3
    h = build_system("H3")
    assert h.coxeter_matrix[0][1] == 3 and h.coxeter_matrix[1][2] == 5
    d = build_system("D", 4)
    assert d.gen_subscripts == (0, 1, 2, 3)
    assert d.coxeter_matrix[0][2] == 3 and d.coxeter_matrix[1][2] == 3
    assert d.coxeter_matrix[0][1] == 2
    # every admitted A1-A7, B2-B6 and D4-D6, plus H3 and I2(3..10), pinned:
    # the BFS order, and so every element index, follows the generators
    systems = ([("A", n, None) for n in range(1, 8)] + [("B", n, None) for n in range(2, 7)]
               + [("D", n, None) for n in range(4, 7)] + [("H3", None, None)]
               + [("I2", None, m) for m in range(3, 11)])
    doc = [[s.coxeter_matrix, s.generators, s.gen_subscripts]
           for s in (build_system(*key) for key in systems)]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == (
        "117c860f5b71afe423e49c93a185b999549a7580fffbb909491edb1b6cb7acfc")


def test_relations_that_do_not_hold_are_refused():
    # A3's generators with the bond (s1, s2) set to 4: s1 s2 has order 3
    a = build_system("A", 3)
    matrix = [list(row) for row in a.coxeter_matrix]
    matrix[0][1] = matrix[1][0] = 4
    with pytest.raises(AssertionError, match=r"A3: \(s1 s2\) has order 3, expected 4"):
        CoxeterSystem("A", matrix, a.gen_subscripts, a.generators, a.order, a.reflections,
                      a.modelled_bytes)
    # a lone generator that is a 3- or 5-cycle, not an involution: only the
    # diagonal sees it, and the search for its order stops past m = 1
    for cycle in [(2, 3, 1), (2, 3, 4, 5, 1)]:
        with pytest.raises(AssertionError) as err:
            CoxeterSystem("A", [[1]], [1], [cycle], 2, 1, 0)
        assert str(err.value) == "A1: (s1 s1) has order greater than 1, expected 1"


def test_group_orders():
    assert build_system("A", 3).order == 24
    assert build_system("B", 3).order == 48
    assert build_system("D", 4).order == 192
    assert build_system("H3").order == 120
    assert build_system("I2", m=7).order == 14


def test_multiply_identity_and_involution(a3):
    sys = a3.system
    s1 = a3.index[sys.generators[0]]
    w = a3.apply_word([1, 0, 2, 1])
    assert a3.mult(w, 0) == w
    assert a3.mult(0, w) == w
    assert a3.mult(s1, s1) == 0


def test_known_word_in_a3(a3):
    # s2 s1 s3 s2 composed as functions gives the one-line 3412
    w = a3.apply_word([1, 0, 2, 1])
    assert a3.elements[w] == (3, 4, 1, 2)
    assert a3.length[w] == 4
    assert inversions((3, 4, 1, 2)) == 4


def test_lengths_match_inversion_counts(a3):
    for i, perm in enumerate(a3.elements):
        assert a3.length[i] == inversions(perm)


def test_longest_elements(a3, h3):
    assert a3.length[a3.w0] == 6
    assert a3.elements[a3.w0] == (4, 3, 2, 1)
    assert h3.length[h3.w0] == 15


def test_apply_word_rejects_bad_index(a3):
    with pytest.raises(ValueError, match="out of range"):
        a3.apply_word([5])


def test_dihedral_enumeration():
    p = BruhatPoset(build_system("I2", m=3))
    assert p.size == 6
    profile = [m.bit_count() for m in p.by_length]
    assert profile == [1, 2, 2, 1]


def test_h3_and_d4_sizes(h3):
    assert h3.size == 120
    assert BruhatPoset(build_system("D", 4)).size == 192


def test_size_limit():
    with pytest.raises(SizeLimitError, match="exceeds"):
        BruhatPoset(build_system("B", 9))


def test_bruhat_minimum(a3):
    assert all(a3.downset(w) & 1 for w in range(a3.size))
    assert all(a3.downset(a3.w0) >> w & 1 for w in range(a3.size))


def test_bruhat_s3_example():
    p = BruhatPoset(build_system("A", 2))
    u = p.index[(1, 3, 2)]
    w = p.index[(2, 3, 1)]
    assert p.downset(w) >> u & 1
    assert not p.downset(u) >> w & 1


def test_interval_size_3412(a3):
    w = a3.index[(3, 4, 1, 2)]
    assert a3.downset(w).bit_count() == 14


def test_interval_poincare_3412(a3):
    w = a3.index[(3, 4, 1, 2)]
    assert a3.interval_poincare_coeffs(w) == (1, 3, 5, 4, 1)
    lengths = [a3.length[z] for z in range(a3.size) if a3.downset(w) >> z & 1]
    assert [lengths.count(k) for k in range(5)] == [1, 3, 5, 4, 1]


def test_subword_property_oracle(a3):
    # u <= w iff u is a product of some subword of a fixed reduced word of w
    gens = [a3.index[g] for g in a3.system.generators]
    for w in range(a3.size):
        reachable = {0}
        for gi in a3.word[w]:
            reachable |= {a3.right_mult[u][gi] for u in reachable}
        for u in range(a3.size):
            assert (a3.downset(w) >> u & 1) == (u in reachable), (u, w)


def test_gradedness_of_covers(b3):
    # covers are built length-graded; check they generate the order exactly:
    # every non-cover pair u < w with length gap 1 must not exist
    for w in range(b3.size):
        for u in b3.covers_down[w]:
            assert b3.length[w] == b3.length[u] + 1
            between = [z for z in range(b3.size)
                       if b3.downset(z) >> u & 1 and b3.downset(w) >> z & 1]
            assert between == [u, w]


def test_poincare_whole_dihedral_group():
    for m in (3, 5, 8):
        p = BruhatPoset(build_system("I2", m=m))
        assert p.group_poincare() == q_analog_product([2, m])


def test_exponents():
    assert BruhatPoset(build_system("A", 3)).exponents() == (1, 2, 3)
    assert BruhatPoset(build_system("B", 3)).exponents() == (1, 3, 5)
    assert BruhatPoset(build_system("D", 4)).exponents() == (1, 3, 3, 5)
    assert BruhatPoset(build_system("H3")).exponents() == (1, 5, 9)
    assert BruhatPoset(build_system("I2", m=9)).exponents() == (1, 8)


def test_poincare_product_of_q_analogs(a3, b3, h3):
    for p in (a3, b3, h3):
        es = p.exponents()
        assert p.group_poincare() == q_analog_product(e + 1 for e in es)
        assert sum(es) == p.length[p.w0]


def test_descents(a3):
    assert a3.descents_left(0) == frozenset()
    assert a3.descents_left(a3.w0) == frozenset(range(3))
    # right descents of w are the left descents of its inverse
    assert a3.descents_left(a3.inverse[a3.w0]) == frozenset(range(3))
    w = a3.index[(3, 4, 1, 2)]
    # 3412: right descent at position 2 only (3<4, 4>1, 1<2)
    assert a3.descents_left(a3.inverse[w]) == frozenset({1})


def test_parabolic_decompose_trivial_cases(a3):
    w = a3.index[(3, 4, 1, 2)]
    assert parabolic_decompose(a3, w, ()) == (0, w)
    assert parabolic_decompose(a3, w, (0, 1, 2)) == (w, 0)


def test_parabolic_decompose_example(a3):
    w = a3.apply_word([2, 1, 0])  # s3 s2 s1
    wj, jw = parabolic_decompose(a3, w, (0, 1))
    assert wj == 0 and jw == w
    # s3 s2 s1 has no left descent in {s1, s2}
    assert not (a3.descents_left(w) & {0, 1})


def test_parabolic_lengths_add_everywhere(b3):
    import random
    rng = random.Random(7)
    Js = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    for w in range(b3.size):
        J = Js[rng.randrange(len(Js))]
        wj, jw = parabolic_decompose(b3, w, J)
        assert b3.length[wj] + b3.length[jw] == b3.length[w]
        assert b3.mult(wj, jw) == w
        assert not (b3.descents_left(jw) & frozenset(J))


def test_quotient_factorization_known_values(a3):
    w = a3.index[(3, 4, 1, 2)]
    f = quotient_factorization(a3, w)
    assert f[0] == 0
    assert a3.elements[f[1]] == (3, 1, 2, 4)  # s2 s1
    assert a3.elements[f[2]] == (1, 4, 2, 3)  # s3 s2
    assert [a3.length[x] for x in f] == [0, 2, 2]


def test_quotient_factorization_recomposes(b3):
    for w in range(b3.size):
        f = quotient_factorization(b3, w)
        assert sum(b3.length[x] for x in f) == b3.length[w]
        acc = 0
        for x in f:
            acc = b3.mult(acc, x)
        assert acc == w


def test_identity_factorization(a3):
    assert quotient_factorization(a3, 0) == (0, 0, 0)


def test_generalized_quotient_trivial(a3):
    assert a3.generalized_quotient([0]) == list(range(a3.size))
    assert a3.generalized_quotient([a3.w0]) == [0]


def test_weak_left_interval():
    p = BruhatPoset(build_system("A", 2))
    w = p.index[(3, 1, 2)]  # s2 s1
    got = sorted(p.elements[z] for z in p.weak_left_interval(w))
    assert got == [(1, 2, 3), (2, 1, 3), (3, 1, 2)]
    assert p.index[(2, 1, 3)] in p.weak_left_interval(w)
    assert p.index[(1, 3, 2)] not in p.weak_left_interval(w)


def test_weak_order_below_bruhat(b3):
    for w in range(0, b3.size, 7):
        for u in b3.weak_left_interval(w):
            assert b3.downset(w) >> u & 1


def test_inverse_table(h3):
    for w in range(0, h3.size, 3):
        assert h3.mult(w, h3.inverse[w]) == 0
        assert h3.length[h3.inverse[w]] == h3.length[w]


def test_reflection_count_equals_longest_length(a3, b3, h3):
    for p in (a3, b3, h3):
        assert len(reflections(p)) == p.length[p.w0] == p.system.reflections


@pytest.mark.parametrize("label, rank, m", [
    ("A", 1, None), ("A", 5, None), ("B", 2, None), ("B", 4, None), ("D", 4, None),
    ("D", 5, None), ("H3", None, None), ("I2", None, 3), ("I2", None, 8)])
def test_size_model_counts_the_bfs_word_letters(label, rank, m):
    # the enumeration limit still budgets |W| N / 2 word letters for N =
    # l(w0), 8 bytes each, though a poset stores only each word's last
    # letter and `word` reads the rest off the BFS parents
    poset = shared_poset(label, rank, m)
    assert poset.system.reflections == poset.length[poset.w0]
    assert 2 * sum(map(len, poset.word)) == poset.size * poset.system.reflections


@pytest.mark.parametrize("label, rank, m", [
    ("A", 5, None), ("B", 4, None), ("D", 5, None), ("H3", None, None), ("I2", None, 200)])
def test_traced_peak_stays_under_the_size_model(label, rank, m):
    # the limit bounds what a group and its code store: the bytes
    # tracemalloc sees from build_system through standard_code
    tracemalloc.start()
    try:
        system = build_system(label, rank, m)
        standard_code(BruhatPoset(system))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= system.modelled_bytes


def test_render(a3, h3):
    w = a3.index[(3, 4, 1, 2)]
    assert a3.render(w) == "3412"
    assert h3.render(0) == "e"
    s3 = h3.index[h3.system.generators[2]]
    assert h3.render(s3) == "s3"


def signed_inversions(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def test_b_length_closed_form(b3):
    # independent oracle: window inversions plus the absolute values of the
    # negative entries
    for i, w in enumerate(b3.elements):
        assert b3.length[i] == signed_inversions(w) + sum(-v for v in w if v < 0)


def test_d_length_closed_form():
    # independent oracle: window inversions plus pairs summing negative
    d4 = BruhatPoset(build_system("D", 4))
    n = 4
    for i, w in enumerate(d4.elements):
        negp = sum(1 for a in range(n) for b in range(a + 1, n) if w[a] + w[b] < 0)
        assert d4.length[i] == signed_inversions(w) + negp


def test_h3_matrices_preserve_the_form():
    # the oracle's geometric representation fixes the doubled bilinear form
    # exactly, so its matrices are a faithful H3 to check the roots against
    elements = matrix_h3_tables()[0]
    phi = (0, 1)

    def mul(x, y):
        a, b = x
        c, d = y
        return (a * c + b * d, a * d + b * c + b * d)

    G = [[(2, 0), (-1, 0), (0, 0)],
         [(-1, 0), (2, 0), (0, -1)],
         [(0, 0), (0, -1), (2, 0)]]
    for M in elements[::7]:
        for i in range(3):
            for j in range(3):
                acc = (0, 0)
                for k in range(3):
                    for l in range(3):
                        t = mul(mul(M[3 * k + i], G[k][l]), M[3 * l + j])
                        acc = (acc[0] + t[0], acc[1] + t[1])
                assert acc == G[i][j]


ROOT_GROUPS = [("H3", None)] + [("I2", m) for m in range(3, 11)]
ROOT_IDS = ["H3"] + [f"I2({m})" for m in range(3, 11)]


@pytest.mark.parametrize("label,m", ROOT_GROUPS, ids=ROOT_IDS)
def test_root_permutations_match_the_old_kernels(label, m):
    # BFS indices depend only on the group and its generator order, so the
    # Z[phi] matrices and the affine dihedral maps give the same tables;
    # BruhatPoset reads every other table off these three
    new = BruhatPoset(build_system(label, m=m))
    old = matrix_h3_tables() if label == "H3" else affine_dihedral_tables(m)
    assert (new.length, list(new.word), list(map(list, new.right_mult))) == old[1:]


def _dihedral_positive(m):
    # root k of the 2m-gon sits at angle k pi / m; it is positive when it is
    # a nonnegative combination of the simple roots at angles 0, (m-1) pi / m
    a2 = cmath.exp(1j * cmath.pi * (m - 1) / m)
    out = []
    for k in range(2 * m):
        r = cmath.exp(1j * cmath.pi * k / m)
        y = r.imag / a2.imag
        out.append(y > -1e-9 and r.real - y * a2.real > -1e-9)
    return out


@pytest.mark.parametrize("label,m", ROOT_GROUPS, ids=ROOT_IDS)
def test_length_counts_positive_roots_made_negative(label, m):
    # l(w) = #{beta > 0 : w beta < 0} (Humphreys, Reflection Groups and
    # Coxeter Groups, 1.6-1.7 and 5.4), against the lengths the BFS assigns
    p = BruhatPoset(build_system(label, m=m))
    if label == "H3":
        roots, _ = _root_permutations(p.system.coxeter_matrix)
        # a + b phi >= 0 for every coefficient, or <= 0 for every one
        positive = [all(a >= 0 and b >= 0 for a, b in r) for r in roots]
        negative = [all(a <= 0 and b <= 0 for a, b in r) for r in roots]
        assert all(x != y for x, y in zip(positive, negative))
    else:
        positive = _dihedral_positive(m)
    assert sum(positive) == p.length[p.w0] == len(positive) // 2
    for w, perm in enumerate(p.elements):
        made_negative = sum(1 for k, x in enumerate(perm) if positive[k] and not positive[x - 1])
        assert made_negative == p.length[w]


def test_dihedral_bruhat_is_by_length():
    # in a dihedral group u < w exactly when u is shorter
    p = BruhatPoset(build_system("I2", m=5))
    for u in range(p.size):
        for w in range(p.size):
            expected = u == w or p.length[u] < p.length[w]
            assert (p.downset(w) >> u & 1) == expected


def test_bruhat_dominance_oracle(a3):
    # independent type A criterion: u <= w iff every prefix of u, sorted,
    # is dominated entrywise by the same prefix of w
    def dominance_leq(u, w):
        n = len(u)
        for i in range(1, n):
            su = sorted(u[:i], reverse=True)
            sw = sorted(w[:i], reverse=True)
            if any(a > b for a, b in zip(su, sw)):
                return False
        return True

    for u in range(a3.size):
        for w in range(a3.size):
            assert (a3.downset(w) >> u & 1) == dominance_leq(a3.elements[u], a3.elements[w])


def test_weak_order_inversion_set_oracle(a3):
    # right weak order is containment of inversion sets, so left weak order
    # is containment of the inverses' inversion sets
    def inv_set(p):
        pos = {v: i for i, v in enumerate(p)}
        n = len(p)
        return {(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                if pos[a] > pos[b]}

    invs = [inv_set(p) for p in a3.elements]
    for w in range(a3.size):
        below = set(a3.weak_left_interval(w))
        for u in range(a3.size):
            assert (u in below) == (invs[a3.inverse[u]] <= invs[a3.inverse[w]])


def test_subword_property_oracle_b3(b3):
    for w in range(b3.size):
        reachable = {0}
        for gi in b3.word[w]:
            reachable |= {b3.right_mult[x][gi] for x in reachable}
        down = {u for u in range(b3.size) if b3.downset(w) >> u & 1}
        assert down == reachable


def test_exponents_failure_is_loud(a3, monkeypatch):
    from coxlehmer.qpoly import IntPolynomial

    monkeypatch.setattr(type(a3), "group_poincare",
                        lambda self: IntPolynomial([1, 1, 2]))
    with pytest.raises(ArithmeticError, match="factor"):
        a3.exponents()


ORACLE_GROUPS = ([("A", r, None) for r in range(1, 6)]
                 + [("B", r, None) for r in range(2, 6)]
                 + [("D", 4, None), ("D", 5, None), ("H3", None, None)]
                 + [("I2", None, m) for m in range(3, 11)])
# from the tuples, not build_system, so a kernel mistake fails named tests
# instead of the collection of this module
ORACLE_IDS = [f"I2({m})" if label == "I2" else "H3" if label == "H3" else f"{label}{rank}"
              for label, rank, m in ORACLE_GROUPS]


@pytest.mark.parametrize("label,rank,m", ORACLE_GROUPS, ids=ORACLE_IDS)
def test_downsets_match_the_whole_group_oracle(label, rank, m):
    # only even lengths are stored; an odd one, w0's too when l(w0) is odd
    # (A1, A2, A5, B3, B5, H3, I2(odd m)), is w's bit OR'd with its covers' sets
    p = shared_poset(label, rank, m)
    assert [p.downset(w) for w in range(p.size)] == downsets_whole_group(p.covers_down)
    assert [d == 0 for d in p._down] == [n % 2 == 1 for n in p.length]


@pytest.mark.parametrize("label,rank", [("A", 5), ("B", 5), ("D", 5)])
def test_even_length_downsets_take_half_the_bytes(label, rank):
    # W has as many odd-length elements as even-length ones; 0.50 on all three
    p = shared_poset(label, rank)
    stored = sum(sys.getsizeof(d) for d in p._down if d)
    whole = sum(sys.getsizeof(d) for d in downsets_whole_group(p.covers_down))
    assert stored <= 0.55 * whole


@pytest.mark.parametrize("label,rank,m", ORACLE_GROUPS, ids=ORACLE_IDS)
def test_right_actions_match_compose(label, rank, m):
    # the BFS's position maps against the composition kernel itself
    p = BruhatPoset(build_system(label, rank, m))
    gens = p.system.generators
    actions = _right_actions(p.system)
    assert len(actions) == len(gens)
    for e in p.elements:
        assert [act(e) for act in actions] == [_compose(e, g) for g in gens]


@pytest.mark.parametrize("label,rank,m", ORACLE_GROUPS, ids=ORACLE_IDS)
def test_tables_match_compose_oracle(label, rank, m):
    # slow reference: covers from every reflection times every element,
    # products and left multiplication through the kernel `_compose` on
    # canonical elements
    import random

    p = BruhatPoset(build_system(label, rank, m))
    compose, elements, index = _compose, p.elements, p.index
    covers = [set() for _ in range(p.size)]
    for t in reflections(p):
        for u in range(p.size):
            w = index[compose(elements[u], elements[t])]
            if p.length[w] == p.length[u] + 1:
                covers[w].add(u)
    assert [set(c) for c in p.covers_down] == covers
    assert all(len(c) == len(set(c)) for c in p.covers_down)
    # the left side, g u through the kernel: left descents, and each left
    # weak interval [e, w] as w joined to those of its left weak lower covers
    weak_down = []
    for w, e in enumerate(elements):
        left = [index[compose(g, e)] for g in p.system.generators]
        descents = [gi for gi, v in enumerate(left) if p.length[v] < p.length[w]]
        assert p.descents_left(w) == frozenset(descents)
        down = 1 << w
        for gi in descents:
            down |= weak_down[left[gi]]
        weak_down.append(down)
        assert p.weak_left_interval(w) == list(_bits(down))
    if p.size <= 120:
        pairs = [(a, b) for a in range(p.size) for b in range(p.size)]
    else:
        rng = random.Random(p.size)
        pairs = [(rng.randrange(p.size), rng.randrange(p.size)) for _ in range(5000)]
    for a, b in pairs:
        assert p.mult(a, b) == index[compose(elements[a], elements[b])]
    for w in range(p.size):
        assert p.mult(w, p.inverse[w]) == p.mult(p.inverse[w], w) == 0
        assert compose(elements[w], elements[p.inverse[w]]) == p.system.identity
