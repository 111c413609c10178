import itertools
import random
import re
from math import prod

import pytest

from coxlehmer import intervals, simplicial, verify
from coxlehmer.codes import dual_code, shared_standard_code
from coxlehmer.coxeter import shared_poset
from coxlehmer.intervals import (
    InvalidCodeImage,
    _maxima_polynomial,
    code_meet,
    group_complex,
    interval_complex,
    interval_ideal,
    interval_poincare,
    interval_polynomials,
    is_principal,
    palindromic_intervals,
    principal_set,
    unimodal_set,
)
from coxlehmer.multicomplex import _bits, all_order_ideals, box_table, full_ideal
from coxlehmer.qpoly import IntPolynomial, q_analog_product
from coxlehmer.schubert import inversion_code
from coxlehmer.simplicial import ShellingFailure, is_vertex_decomposable, shelling_h_polynomial
from oracles import (
    LookupShellingState,
    ShellingState,
    code_leq,
    facet_rule,
    interval_ideal_by_walk,
    is_order_ideal,
    maxima_by_covers,
    maxima_by_subsets,
    maxima_polynomial_by_sums,
    one_facet_per_column,
    palindromic_intervals_unfiltered,
    planted_code,
    principal_set_by_popcount,
    push_all,
    pushed,
    rank_lex,
    step_rule,
    sum_of_products,
    unimodal_set_by_orbits,
    upper_covers,
    vertex_decomposable_by_search,
)

H3_UNIMODAL_TRIPLES = {
    (1, 5, 9), (1, 5, 4), (1, 4, 4), (1, 3, 4), (1, 2, 4), (1, 1, 4), (1, 2, 3),
    (0, 1, 4), (1, 1, 3), (1, 2, 2), (0, 1, 3), (1, 1, 2), (0, 1, 2), (1, 1, 1),
    (0, 1, 1), (0, 0, 1), (0, 0, 0),
}


@pytest.fixture(scope="module")
def a3():
    return shared_poset("A", 3)


@pytest.fixture(scope="module")
def la3(a3):
    return shared_standard_code("A", 3)


@pytest.fixture(scope="module")
def h3():
    return shared_poset("H3")


@pytest.fixture(scope="module")
def lh3(h3):
    return shared_standard_code("H3")


def test_interval_ideal_of_identity(la3):
    j = interval_ideal(0, la3)
    assert set(j) == {(0, 0, 0)}


def test_interval_ideal_3412(a3, la3):
    w = a3.index[(3, 4, 1, 2)]
    j = interval_ideal(w, la3)
    assert len(j) == 14
    assert j.f_polynomial() == IntPolynomial([1, 3, 5, 4, 1])
    assert j.maxima() == {(1, 0, 2), (1, 2, 0), (0, 2, 2)}
    codes_of = {la3.of(a3.index[p]) for p in [(2, 4, 1, 3), (3, 2, 1, 4), (3, 4, 1, 2)]}
    assert j.maxima() == codes_of


def test_interval_ideal_of_top_is_box(a3, la3):
    j = interval_ideal(a3.w0, la3)
    assert j == full_ideal(box_table(tuple(b + 1 for b in la3.bounds)))


def test_interval_ideal_detects_corruption(a3, la3):
    s1 = a3.index[(2, 1, 3, 4)]
    s3 = a3.index[(1, 2, 4, 3)]
    vectors = list(la3.vectors)
    vectors[s1], vectors[s3] = vectors[s3], vectors[s1]
    bad = planted_code("bad", a3, la3.bounds, vectors)
    w = a3.index[(2, 3, 1, 4)]  # s1 s2: its interval sees only one swapped element
    with pytest.raises(InvalidCodeImage):
        interval_ideal(w, bad)


@pytest.mark.parametrize("label,rank", [("A", 4), ("B", 3), ("D", 4), ("H3", None)])
def test_interval_ideal_matches_the_oracle(label, rank):
    # the single box-and-closure check gives the image the oracle accepts
    code = shared_standard_code(label, rank)
    box = box_table(tuple(b + 1 for b in code.bounds))
    for w in range(code.poset.size):
        pts = {code.of(v) for v in _bits(code.poset.downset(w))}
        assert is_order_ideal(box, pts), code.poset.render(w)
        assert set(interval_ideal(w, code)) == pts


def _matches_the_walk(w, code):
    """Whether the scatter's ideal is the walk's, mask for mask, or both
    raise InvalidCodeImage; returns whether the image was an ideal."""
    try:
        want = interval_ideal_by_walk(w, code)
    except InvalidCodeImage:
        with pytest.raises(InvalidCodeImage):
            interval_ideal(w, code)
        return False
    got = interval_ideal(w, code)
    assert (got.box.dims, got.mask) == (want.box.dims, want.mask), code.poset.render(w)
    return True


@pytest.mark.parametrize("label,rank,m", verify.CODE_SYSTEMS)
def test_interval_ideal_matches_the_walk_on_every_element(label, rank, m):
    code = shared_standard_code(label, rank, m)
    for c in (code, dual_code(code)):
        assert all([_matches_the_walk(w, c) for w in range(c.poset.size)])


def test_interval_ideal_in_a_box_larger_than_the_group(a3, la3):
    # LA3's vectors in the box (2,3,5), with w0 sent to the corner (1,2,4):
    # box position 29, past a buffer sized by |W| = 24, and without (1,2,3)
    # below it, so [e, w0] alone is not an ideal
    vectors = list(la3.vectors)
    vectors[a3.w0] = (1, 2, 4)
    big = planted_code("big", a3, (1, 2, 4), vectors)
    assert big.box_index[a3.w0] == 29
    ok = [_matches_the_walk(w, big) for w in range(a3.size)]
    assert ok.count(False) == 1 and not ok[a3.w0]
    assert interval_ideal(0, big).box.dims == (2, 3, 5)


def test_every_equal_length_swap_is_caught(a3, la3):
    # swapping the vectors of two elements of equal length keeps every rank
    # count, so only the closure check can see it; in LA3 each of the 41
    # swaps breaks some interval, and interval_ideal raises exactly there
    box = box_table(tuple(b + 1 for b in la3.bounds))
    swaps = [(u, v) for u in range(a3.size) for v in range(u + 1, a3.size)
             if a3.length[u] == a3.length[v]]
    assert len(swaps) == 41
    for u, v in swaps:
        vectors = list(la3.vectors)
        vectors[u], vectors[v] = vectors[v], vectors[u]
        bad = planted_code("bad", a3, la3.bounds, vectors)
        caught = 0
        for w in range(a3.size):
            pts = {bad.of(x) for x in _bits(a3.downset(w))}
            assert _matches_the_walk(w, bad) == is_order_ideal(box, pts)
            if is_order_ideal(box, pts):
                assert set(interval_ideal(w, bad)) == pts
            else:
                with pytest.raises(InvalidCodeImage):
                    interval_ideal(w, bad)
                caught += 1
        assert caught, (a3.render(u), a3.render(v))


def test_group_complex_shapes(a3, h3):
    a2 = shared_poset("A", 2)
    # the last label is the box's top point, one-based: the box itself
    sc = group_complex(a2)
    assert sc.labels[-1] == (2, 3)
    i25 = shared_poset("I2", m=5)
    assert group_complex(i25).labels[-1] == (2, 5)
    sch = group_complex(h3)
    assert sch.labels[-1] == (2, 6, 10)
    assert sch.facet_count == 120


def test_interval_complex(a3, la3):
    assert interval_complex(0, la3).facet_count == 1
    w = a3.index[(3, 4, 1, 2)]
    sc = interval_complex(w, la3)
    assert sc.facet_count == 14
    assert interval_complex(a3.w0, la3).facet_count == 24


def test_routes_identity(la3):
    for route in ("direct", "complex", "maxima"):
        assert interval_poincare(0, la3, route) == IntPolynomial([1])


def test_routes_3412(a3, la3, monkeypatch):
    def generic_check(*_):
        raise AssertionError("the complex route reads the box table's step memo")

    monkeypatch.setattr(simplicial, "verify_shelling", generic_check)
    w = a3.index[(3, 4, 1, 2)]
    expected = IntPolynomial([1, 3, 5, 4, 1])
    for route in ("direct", "complex", "maxima"):
        assert interval_poincare(w, la3, route) == expected


def test_maxima_route_matches_hand_expansion():
    # the inclusion-exclusion over {(1,0,2),(1,2,0),(0,2,2)} written out
    two, three = [1, 1], [1, 1, 1]
    byhand = sum_of_products([(2, [two, three]), (1, [three, three]),
                              (-1, [two]), (-2, [three]), (1, [])])
    assert byhand == IntPolynomial([1, 3, 5, 4, 1])


def test_routes_whole_h3(h3, lh3):
    expected = q_analog_product([2, 6, 10])
    for route in ("direct", "complex", "maxima"):
        assert interval_poincare(h3.w0, lh3, route) == expected


def test_route_agreement_everywhere_a3(a3, la3):
    for w in range(a3.size):
        d = interval_poincare(w, la3, "direct")
        assert interval_poincare(w, la3, "complex") == d
        assert interval_poincare(w, la3, "maxima") == d


MAXIMA_SYSTEMS = (
    [("A", n, None) for n in range(1, 6)]
    + [("B", n, None) for n in range(2, 5)]
    + [("D", 4, None), ("H3", None, None)]
    + [("I2", None, m) for m in range(3, 11)]
)


@pytest.mark.parametrize("label,rank,m", MAXIMA_SYSTEMS)
def test_maxima_table_matches_the_subset_oracle(label, rank, m):
    code = shared_standard_code(label, rank, m)
    for w in range(code.poset.size):
        ideal = interval_ideal(w, code)
        assert _maxima_polynomial(ideal) == maxima_by_subsets(ideal), code.poset.render(w)


def test_maxima_route_matches_the_tuple_sums_on_every_small_ideal():
    # the 805 ideals of the boxes up to volume 16, whose f-polynomials are
    # the answer, plus boxes with a side of 1 (a zero-width unary field)
    boxes = verify._boxes_up_to(16) + [(1, 3), (2, 1, 3)]
    ideals = [j for dims in boxes for j in all_order_ideals(box_table(dims))]
    assert len(ideals) == 805 + 3 + 9
    for ideal in ideals:
        assert (_maxima_polynomial(ideal) == maxima_polynomial_by_sums(ideal)
                == ideal.f_polynomial()), (ideal.box.dims, ideal.to_json())


SWEEP_SYSTEMS = [("A", 5, None), ("B", 4, None), ("D", 4, None), ("H3", None, None)]


@pytest.mark.parametrize("label,rank,m", SWEEP_SYSTEMS)
def test_maxima_route_matches_direct_on_the_sweep_systems(label, rank, m):
    # the 720 + 384 + 192 + 120 = 1,416 elements the routes benchmark sweeps
    code = shared_standard_code(label, rank, m)
    for w in range(code.poset.size):
        assert (interval_poincare(w, code, "maxima")
                == interval_poincare(w, code, "direct")), code.poset.render(w)


def test_maxima_route_past_twenty_maxima_matches_direct():
    # the 51 elements of D5 whose ideals have more than 20 maxima, which
    # the 2^k subset expansion could not reach.  The code is a bijection
    # onto its box, so code(v) is a maximum of the ideal below w iff no box
    # cover above it is the code of an element below w
    code = shared_standard_code("D", 5)
    poset = code.poset
    dims = tuple(b + 1 for b in code.bounds)
    above = [[code.element(q) for q in upper_covers(code.of(v), dims)]
             for v in range(poset.size)]

    def maxima_count(w):
        below = poset.downset(w)
        return sum(not any(below >> u & 1 for u in above[v]) for v in _bits(below))

    wide = [w for w in range(poset.size) if maxima_count(w) > 20]
    assert len(wide) == 51
    for w in wide:
        assert len(interval_ideal(w, code).maxima()) == maxima_count(w)
        assert interval_poincare(w, code, "maxima") == interval_poincare(w, code, "direct")


def test_unknown_route(la3):
    with pytest.raises(ValueError, match="unknown route"):
        interval_poincare(0, la3, "fast")


def test_code_meet_worked_example(a3, la3):
    u = a3.index[(2, 4, 1, 3)]
    v = a3.index[(3, 2, 1, 4)]
    t = a3.index[(3, 4, 1, 2)]
    assert a3.elements[code_meet(u, v, la3)] == (2, 1, 3, 4)
    assert a3.elements[code_meet(u, t, la3)] == (1, 4, 2, 3)
    assert a3.elements[code_meet(v, t, la3)] == (3, 1, 2, 4)
    triple = code_meet(code_meet(u, v, la3), t, la3)
    assert a3.elements[triple] == (1, 2, 3, 4)


def test_code_meet_idempotent_and_leq(a3, la3):
    for w in range(0, a3.size, 3):
        assert code_meet(w, w, la3) == w
        assert code_leq(0, w, la3)


def test_code_order_refines_bruhat(a3, la3):
    for u in range(a3.size):
        for w in range(a3.size):
            if code_leq(u, w, la3):
                assert a3.downset(w) >> u & 1


def test_principal_basics(a3, la3):
    assert is_principal(a3, 0, la3.of(0))
    assert is_principal(a3, a3.w0, la3.of(a3.w0))
    assert len(principal_set(la3)) == 14  # Catalan number C_4


def test_principal_h_factors(a3, la3):
    for w in principal_set(la3):
        expected = q_analog_product(x + 1 for x in la3.of(w))
        assert interval_poincare(w, la3, "direct") == expected


def test_h3_unimodal_triples(h3, lh3):
    uni = unimodal_set(lh3)
    assert len(uni) == 17
    assert {lh3.of(w) for w in uni} == H3_UNIMODAL_TRIPLES


def test_h3_unimodal_hasse_diagram(h3, lh3):
    # Bruhat order restricted to the unimodal set, as drawn: each triple
    # covers the listed ones
    uni = unimodal_set(lh3)
    by_code = {lh3.of(w): w for w in uni}
    expected_edges = {
        ((1, 5, 4), (1, 5, 9)), ((1, 4, 4), (1, 5, 4)), ((1, 3, 4), (1, 4, 4)),
        ((1, 2, 4), (1, 3, 4)), ((1, 1, 4), (1, 2, 4)), ((1, 2, 3), (1, 2, 4)),
        ((1, 1, 3), (1, 2, 3)), ((1, 2, 2), (1, 2, 3)), ((0, 1, 4), (1, 1, 4)),
        ((1, 1, 3), (1, 1, 4)), ((0, 1, 3), (1, 1, 3)), ((1, 1, 2), (1, 1, 3)),
        ((1, 1, 2), (1, 2, 2)), ((0, 1, 3), (0, 1, 4)), ((0, 1, 2), (0, 1, 3)),
        ((0, 1, 2), (1, 1, 2)), ((1, 1, 1), (1, 1, 2)), ((0, 1, 1), (0, 1, 2)),
        ((0, 1, 1), (1, 1, 1)), ((0, 0, 1), (0, 1, 1)), ((0, 0, 0), (0, 0, 1)),
    }
    got = set()
    for a in uni:
        for b in uni:
            if a != b and h3.downset(b) >> a & 1:
                if not any(c not in (a, b) and h3.downset(c) >> a & 1 and h3.downset(b) >> c & 1
                           for c in uni):
                    got.add((lh3.of(a), lh3.of(b)))
    assert got == expected_edges


def test_unimodal_poset_equality(h3, lh3):
    # Bruhat and the code order agree on the unimodal set
    uni = unimodal_set(lh3)
    for a in uni:
        for b in uni:
            assert (h3.downset(b) >> a & 1) == code_leq(a, b, lh3)


def test_principal_poset_equality(a3, la3, h3, lh3):
    # ... and already on the whole principal set
    for poset, code in ((a3, la3), (h3, lh3)):
        pr = principal_set(code)
        for a in pr:
            for b in pr:
                assert (poset.downset(b) >> a & 1) == code_leq(a, b, code)


def test_pal_h3_matches_unimodal_and_principal(h3, lh3):
    pal = palindromic_intervals(h3)
    uni_polys = interval_polynomials(h3, unimodal_set(lh3))
    pr_polys = interval_polynomials(h3, principal_set(lh3))
    assert pal == uni_polys == pr_polys


def test_pal_a_n_counts():
    for n in (1, 2, 3, 4, 5):
        poset = shared_poset("A", n)
        assert len(palindromic_intervals(poset)) == 2 ** n


PAL_GROUPS = ([("A", n, None) for n in range(1, 7)] + [("B", n, None) for n in range(2, 6)]
              + [("D", n, None) for n in (4, 5, 6)] + [("H3", None, None)]
              + [("I2", None, m) for m in range(3, 11)])


@pytest.mark.parametrize("label, rank, m", PAL_GROUPS)
def test_palindromic_scan_matches_the_unfiltered_oracle(label, rank, m):
    poset = shared_poset(label, rank, m)
    assert palindromic_intervals(poset) == palindromic_intervals_unfiltered(poset)


@pytest.mark.parametrize("label, rank, m", PAL_GROUPS)
def test_rank_one_and_corank_one_counts(label, rank, m):
    # the two counts the palindromic pre-filter compares: the atoms of
    # [e, w] are the generators in w's support, its coatoms w's lower covers
    # the scan reads the first off w's BFS parent, its first lower cover
    poset = shared_poset(label, rank, m)
    atoms = sum(1 << poset.index[g] for g in poset.system.generators)
    assert atoms == poset.by_length[1]
    for w in range(1, poset.size):
        cs = poset.interval_poincare_coeffs(w)
        assert cs[1] == len(set(poset.word[w])) == (poset.downset(w) & atoms).bit_count()
        assert set(poset.word[w]) == set(poset.word[poset.covers_down[w][0]] + poset.word[w][-1:])
        assert cs[poset.length[w] - 1] == len(poset.covers_down[w])


def test_unimodal_polys_inside_pal(a3, la3):
    pal = palindromic_intervals(a3)
    uni_polys = interval_polynomials(a3, unimodal_set(la3))
    pr_polys = interval_polynomials(a3, principal_set(la3))
    assert uni_polys == pr_polys
    assert uni_polys <= pal


UNIMODAL_CODES = ([(label, rank, m, False) for label, rank, m in verify.CODE_SYSTEMS]
                  + [("B", 3, None, True), ("B", 4, None, True), ("D", 6, None, False)])


@pytest.mark.parametrize("label, rank, m, variant", UNIMODAL_CODES)
def test_unimodal_set_matches_the_orbit_oracle(label, rank, m, variant):
    # the least principal code per entry multiset is the least of its orbit
    code = shared_standard_code(label, rank, m, variant=variant)
    for c in (code, dual_code(code)):
        assert unimodal_set(c) == unimodal_set_by_orbits(c)


@pytest.mark.parametrize("label, rank, m, variant", UNIMODAL_CODES)
def test_principal_set_matches_the_popcount_oracle(label, rank, m, variant):
    code = shared_standard_code(label, rank, m, variant=variant)
    for c in (code, dual_code(code)):
        assert principal_set(c) == principal_set_by_popcount(c)


def _box_coatoms_and_atoms(poset, w, vec):
    # a principal w's lower covers and atoms against vec's nonzero entries
    atoms = sum(1 << poset.index[g] for g in poset.system.generators)
    return (len(poset.covers_down[w]), (poset.downset(w) & atoms).bit_count(),
            len(vec) - vec.count(0))


@pytest.mark.parametrize("label, rank, m, variant", UNIMODAL_CODES)
def test_principal_elements_have_a_coatom_and_an_atom_per_nonzero_entry(label, rank, m, variant):
    # the implication the principal pre-filter rests on: [e, w] is the box
    # below L(w), whose coatoms and atoms are its nonzero coordinates
    code = shared_standard_code(label, rank, m, variant=variant)
    for c in (code, dual_code(code)):
        principal = principal_set_by_popcount(c)
        assert principal
        for w in principal:
            coatoms, atoms, nonzero = _box_coatoms_and_atoms(c.poset, w, c.of(w))
            assert coatoms == atoms == nonzero


@pytest.mark.parametrize("n", range(2, 8))
def test_catalan_principal_elements_have_a_coatom_and_an_atom_per_nonzero_entry(n):
    # the catalan suite calls is_principal with the inversion code of S_n
    poset = shared_poset("A", n - 1)
    principal = 0
    for perm in itertools.permutations(range(1, n + 1)):
        w, vec = poset.index[perm], inversion_code(perm)
        by_popcount = poset.downset(w).bit_count() == prod(x + 1 for x in vec)
        assert is_principal(poset, w, vec) == by_popcount
        if by_popcount:
            principal += 1
            coatoms, atoms, nonzero = _box_coatoms_and_atoms(poset, w, vec)
            assert coatoms == atoms == nonzero
    assert principal == [2, 5, 14, 42, 132, 429][n - 2]  # Catalan numbers C_2..C_7


def test_strict_inclusion_b3():
    b3 = shared_poset("B", 3)
    pal = palindromic_intervals(b3)
    u_std = unimodal_set(shared_standard_code("B", 3))
    u_var = unimodal_set(shared_standard_code("B", 3, variant=True))
    assert len(pal) > len(u_std)
    assert len(pal) == len(u_var)


def test_group_complexes_are_vertex_decomposable(h3):
    for poset in shared_poset("A", 4), h3:
        box = box_table(tuple(e + 1 for e in poset.exponents()))
        assert box.dims == group_complex(poset).labels[-1]
        assert is_vertex_decomposable(full_ideal(box))
        assert vertex_decomposable_by_search(group_complex(poset), max_facets=200)


def test_full_morphism_not_just_covers(a3, la3, h3, lh3):
    # the definition verbatim: componentwise order implies Bruhat order
    for poset, code in ((a3, la3), (h3, lh3)):
        for u in range(poset.size):
            cu = code.of(u)
            for v in range(poset.size):
                if all(a <= b for a, b in zip(cu, code.of(v))):
                    assert poset.downset(v) >> u & 1



# -- the bitmask paths against the tuple paths they replaced


def _agrees_with_the_tuple_paths(code, w):
    """The interval's ideal, maxima, maxima polynomial and rank-lex
    shelling, each computed by the bitmask path and the tuple path."""
    ideal = interval_ideal(w, code)
    pts = {code.of(v) for v in _bits(code.poset.downset(w))}
    assert is_order_ideal(ideal.box, pts) and set(ideal) == pts
    assert ideal.maxima() == maxima_by_covers(ideal)
    direct = interval_poincare(w, code, "direct")
    assert _maxima_polynomial(ideal) == maxima_polynomial_by_sums(ideal) == direct
    new, old = ShellingState(ideal), LookupShellingState(ideal)
    order = rank_lex(ideal)
    assert push_all(new, order) == push_all(old, order) == (len(ideal), None)
    assert new.h_vector == old.h_vector and pushed(new) == old.prefix
    assert shelling_h_polynomial(ideal) == IntPolynomial(new.h_vector) == direct


@pytest.mark.parametrize("label,rank,m", verify.ROUTE_SYSTEMS)
def test_bitmask_paths_match_the_tuple_paths_on_route_systems(label, rank, m):
    code = shared_standard_code(label, rank, m)
    for w in range(code.poset.size):
        _agrees_with_the_tuple_paths(code, w)


SAMPLED_SYSTEMS = [("A", 5, None), ("B", 4, None), ("D", 5, None)]


def _sample(label, rank, m, count=40, seed=21):
    code = shared_standard_code(label, rank, m)
    rng = random.Random(f"{seed} {label}{rank}")
    return code, [code.poset.w0] + rng.sample(range(code.poset.size), count)


@pytest.mark.parametrize("label,rank,m", SAMPLED_SYSTEMS)
def test_bitmask_paths_match_the_tuple_paths_on_sampled_elements(label, rank, m):
    code, sample = _sample(label, rank, m)
    for w in sample:
        _agrees_with_the_tuple_paths(code, w)


@pytest.mark.parametrize("label,rank,m", SAMPLED_SYSTEMS)
def test_corrupted_facet_rule_fails_both_states_on_sampled_intervals(label, rank, m):
    # under a facet rule that merges the facets of each first-coordinate
    # column, both states stop at the same step, with the same violation,
    # and the complex route fails on exactly those ideals, naming the point
    code, sample = _sample(label, rank, m)
    failed, violations = 0, {}
    with facet_rule(one_facet_per_column):
        for w in sample:
            ideal = interval_ideal(w, code)
            new, old = ShellingState(ideal), LookupShellingState(ideal)
            found = push_all(new, rank_lex(ideal))
            assert found == push_all(old, rank_lex(ideal))
            assert new.h_vector == old.h_vector
            failed += found[1] is not None
            violations[w] = found[1]
        # the route in another order, so that its memo grows step by step
        for w in random.Random(7).sample(sample, len(sample)):
            if violations[w] is None:
                assert shelling_h_polynomial(interval_ideal(w, code)) == interval_poincare(w, code)
            else:
                with pytest.raises(ShellingFailure, match=re.escape(f"at point {violations[w][1]}")):
                    shelling_h_polynomial(interval_ideal(w, code))
    assert failed > len(sample) // 2
    # the memo walked under the corrupted rule is gone with its tables
    for w in sample:
        assert interval_poincare(w, code, "complex") == interval_poincare(w, code)


def _state_h_vectors(code, elements):
    """Each element's rank-lex h-vector by `oracles.ShellingState`."""
    out = {}
    for w in elements:
        ideal = interval_ideal(w, code)
        state = ShellingState(ideal)
        assert push_all(state, rank_lex(ideal)) == (len(ideal), None)
        out[w] = IntPolynomial(state.h_vector)
    return out


@pytest.mark.parametrize("label,rank,m", [*verify.ROUTE_SYSTEMS, *SAMPLED_SYSTEMS])
def test_step_memo_matches_the_state_in_any_call_order(label, rank, m):
    # w0 first walks the whole box at once; a seeded shuffle grows the memo
    # one interval at a time; a fresh table per element walks each alone
    if (label, rank, m) in SAMPLED_SYSTEMS:
        code, elements = _sample(label, rank, m)
    else:
        code = shared_standard_code(label, rank, m)
        elements = [code.poset.w0, *(w for w in range(code.poset.size) if w != code.poset.w0)]
    expected = _state_h_vectors(code, elements)
    shuffled = random.Random(f"memo {label}{rank}{m}").sample(elements, len(elements))
    for order, fresh in ((elements, False), (shuffled, False), (elements, True)):
        box_table.cache_clear()
        for w in order:
            if fresh:
                box_table.cache_clear()
            assert shelling_h_polynomial(interval_ideal(w, code)) == expected[w]


def test_step_memo_walks_each_point_once(a3, la3, monkeypatch):
    # a point's step is computed on the first interval that holds it, and
    # no walk goes past the interval it serves
    steps, step = [], simplicial._shelling_step

    def counted(classes, lines, facet):
        steps.append(facet)
        return step(classes, lines, facet)

    with step_rule(counted):
        table = box_table(tuple(b + 1 for b in la3.bounds))
        w = a3.index[(3, 4, 1, 2)]
        first = interval_ideal(w, la3)
        shelling_h_polynomial(first)
        assert table.walked == first.mask and len(steps) == len(first) == 14
        shelling_h_polynomial(first)
        assert len(steps) == 14
        for w in range(a3.size):
            interval_poincare(w, la3, "complex")
        assert table.walked == table.full and len(steps) == len(set(steps)) == 24


def _origin_only(*_):
    """A step rule whose G is empty and whose least container is the
    origin: every step but the origin's fails."""
    return 0, 0


def test_planted_step_failure_is_a_failed_route_check():
    with step_rule(_origin_only):
        rep = verify.run_suite("routes", max_rank=3)
    assert not rep.passed
    # the complex route fails on every interval but {e}: 3412 and the
    # non-identity elements of A1, A2, A3, B3, H3 and I2(3..8); the worked
    # S4 example runs from rank 3
    assert rep.failures == 1 + 1 + 5 + 23 + 47 + 119 + sum(2 * m - 1 for m in range(3, 9))
    assert rep.witnesses[:3] == [
        "A3 3412: complex route failed: rank order failed to shell the complex at point (0, 0, 1)",
        "routes LA1: A1 21: complex route failed: rank order failed to shell the complex at point (1,)",
        "routes LA2: A2 213: complex route failed: rank order failed to shell the complex at point (1, 0)",
    ]
    # the tables walked under the planted rule are gone with it
    assert verify.run_suite("routes", max_rank=3).passed


def test_interval_ideal_refuses_a_code_vector_off_the_box(a3, la3):
    s2 = a3.index[(1, 3, 2, 4)]
    vectors = list(la3.vectors)
    vectors[s2] = (0, 3, 0)  # coordinate 1 of LA3 runs 0..2
    bad = planted_code("bad", a3, la3.bounds, vectors)
    assert bad.box_index[s2] == 24
    with pytest.raises(InvalidCodeImage):
        interval_ideal(s2, bad)
    ok = [_matches_the_walk(w, bad) for w in range(a3.size)]
    assert not ok[s2] and ok[a3.index[(2, 1, 3, 4)]]
    assert set(interval_ideal(a3.index[(2, 1, 3, 4)], bad)) == {(0, 0, 0), (1, 0, 0)}
