import itertools
import random
import re
from math import prod

import pytest

from coxlehmer.codes import shared_standard_code
from coxlehmer.coxeter import SizeLimitError
from coxlehmer import verify
from coxlehmer import simplicial
from coxlehmer.intervals import interval_ideal
from coxlehmer.multicomplex import (
    OrderIdeal,
    all_order_ideals,
    box_table,
    count_linear_extensions,
    full_ideal,
    ideal_from_points,
    linear_extensions,
    random_order_ideals,
)
from coxlehmer.qpoly import IntPolynomial, q_analog_product
from coxlehmer.report import MAX_WITNESSES
from coxlehmer.simplicial import (
    ShellingFailure,
    SimplicialComplex,
    box_shelling_steps,
    build_box_complex,
    complex_of_ideal,
    f_from_h,
    f_vector,
    h_from_f,
    is_flag,
    is_flag_ideal,
    is_vertex_decomposable,
    shelling_h_polynomial,
    verify_shelling,
)
from oracles import (
    LookupShellingState,
    ShellingState,
    _shed,
    complex_from_sets,
    extension_shellings,
    facet_of,
    facet_rule,
    facet_vertices,
    is_flag_ideal_by_scan,
    least_container,
    maximalize,
    omitted_bits,
    one_facet_per_column,
    order_from_extension,
    push_all,
    pushed,
    rank_lex,
    shelling_lattice,
    shellings_by_extension,
    vertex_decomposable_by_search,
    vertex_decomposable_by_shedding,
)


def test_facet_of_worked_example():
    got = facet_of((1, 2, 2), (3, 3, 4))
    assert got == {(1, 1), (2, 1), (1, 2), (3, 2), (1, 3), (2, 3), (4, 3)}


def test_facet_of_single_coordinate():
    assert facet_of((1,), (2,)) == {(1, 1)}
    assert facet_of((2,), (2,)) == {(2, 1)}


def test_facet_of_range_check():
    with pytest.raises(ValueError, match="outside"):
        facet_of((0, 1), (2, 2))


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (3, 3, 4), (1, 3)])
def test_facet_rule_masks_unpack_to_facet_of(dims):
    # every point of the box: the rule's mask, read through the vertex
    # tuple, is the facet the definition gives; bits follow the tuple order
    sc = build_box_complex(dims)
    assert sc.vertices == tuple((v, i) for i, d in enumerate(dims, start=1)
                                for v in range(1, d + 1))
    assert sc.facet_count == prod(dims)
    for k, label in enumerate(sc.labels):
        assert facet_vertices(sc, k) == facet_of(label, dims)
    omitted = omitted_bits(dims)
    assert [len(bits) for bits in omitted] == list(dims)
    assert sum(b for bits in omitted for b in bits) == (1 << sum(dims)) - 1
    # the library states the rule once, in `_classes`: bit top_i - 1 - x
    assert tuple(tuple(1 << top - 1 - x for x in range(d))
                 for (_, top, _), d in zip(simplicial._classes(dims), dims)) == omitted


def test_facets_distinct_on_2x2():
    dims = (2, 2)
    facets = {facet_of((a, b), dims) for a in (1, 2) for b in (1, 2)}
    assert len(facets) == 4


def test_box_complex_of_all_ones():
    sc = build_box_complex((1, 1, 1))
    assert sc.facets == (0,)
    assert sc.dimension == -1
    assert sc.facet_count == 1


def test_box_complex_2x3():
    sc = build_box_complex((2, 3))
    assert sc.dimension == 2
    assert sc.facet_count == 6
    assert sc.is_pure()


def test_box_complex_3x3x4():
    sc = build_box_complex((3, 3, 4))
    assert sc.dimension == 6
    assert sc.facet_count == 36


def test_complex_of_ideal_counts():
    box = box_table((2, 3))
    j = ideal_from_points(box, [(1, 1)])
    sc = complex_of_ideal(j)
    assert sc.facet_count == len(j) == 4
    assert sc.is_pure()


def test_shelling_single_facet():
    sc = build_box_complex((1, 1))
    res = verify_shelling(sc, [0])
    assert res.ok
    assert IntPolynomial(res.h_vector) == IntPolynomial([1])


def test_every_extension_shells_the_2x3_box():
    sc = build_box_complex((2, 3))
    j = full_ideal(box_table((2, 3)))
    count = 0
    for ext in linear_extensions(j):
        res = verify_shelling(sc, order_from_extension(sc, ext))
        assert res.ok
        assert IntPolynomial(res.h_vector) == q_analog_product([2, 3])
        count += 1
    assert count == 5


def test_bad_order_is_rejected():
    # two disjoint edges can never be shelled
    sc = complex_from_sets([{1, 2}, {3, 4}])
    res = verify_shelling(sc, [0, 1])
    assert not res.ok
    assert res.violation == (0, 1)


def test_non_shelling_order_on_shellable_complex():
    # a path of three edges ordered ends-first fails in the middle
    sc = complex_from_sets([{1, 2}, {2, 3}, {3, 4}])
    assert verify_shelling(sc, [0, 1, 2]).ok
    res = verify_shelling(sc, [0, 2, 1])
    assert not res.ok


def test_verify_shelling_rejects_non_pure():
    sc = complex_from_sets([{1, 2}, {3}])
    with pytest.raises(ValueError, match="pure"):
        verify_shelling(sc, [0, 1])


def test_verify_shelling_rejects_partial_order():
    sc = build_box_complex((2, 2))
    with pytest.raises(ValueError, match="every facet"):
        verify_shelling(sc, [0, 1])


def _walked(ideal):
    """(extension, ok, h-vector) for each extension of the oracle's walk."""
    return list(extension_shellings(ideal))


def _assert_maximal(sc):
    """The facets are the distinct maximal faces the constructor trusts."""
    assert sorted(maximalize(list(sc.facets))) == sorted(sc.facets)


def _oracle(ideal):
    sc = complex_of_ideal(ideal)
    _assert_maximal(sc)
    out = []
    for ext in linear_extensions(ideal):
        res = verify_shelling(sc, order_from_extension(sc, ext))
        out.append((ext, res.ok, res.h_vector))
    return out


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (2, 2, 3), (3, 3)])
def test_walk_matches_verify_shelling_on_every_ideal(dims):
    _assert_maximal(build_box_complex(dims))
    for ideal in all_order_ideals(box_table(dims)):
        assert _walked(ideal) == _oracle(ideal)


def test_walk_matches_verify_shelling_on_seeded_3x3x4_ideals():
    checked = 0
    for ideal in random_order_ideals(box_table((3, 3, 4)), 40, seed=5):
        if len(ideal) <= 9:
            assert _walked(ideal) == _oracle(ideal)
            checked += 1
        # pushing a sampled-size ideal point by point agrees too
        sc = complex_of_ideal(ideal)
        state = ShellingState(ideal)
        ext = next(linear_extensions(ideal))
        assert all(state.push(p) for p in ext)
        assert state.h_vector == verify_shelling(sc, order_from_extension(sc, ext)).h_vector
    assert checked >= 5


# (sub-ideals, edges, extensions) the lattice pass visits over the shellings
# suite's f/h ideals: every ideal of (2, 3) and of (2, 2, 2), and the 100
# seed-2024 ideals of (3, 3, 4)
SUITE_LATTICE_TOTALS = {(2, 3): (49, 50, 21), (2, 2, 2): (167, 227, 190),
                        (3, 3, 4): (66345, 245339, 212353187465900024207)}


def _lattice(ideal, visited):
    """The lattice pass's verdict in `shellings_by_extension`'s form; its
    (sub-ideals, edges, extensions) go on the list `visited`."""
    found = shelling_lattice(ideal)
    visited.append((found.sub_ideals, found.edges, found.extensions))
    return found.ok, found.h_vectors, found.extensions


def _sums(visited):
    return tuple(map(sum, zip(*visited)))


def test_suite_lattice_totals_add_up():
    # what the suite certified when it walked each ideal's lattice: one check
    # per edge, every linear extension of the 128 ideals
    assert _sums(SUITE_LATTICE_TOTALS.values()) == (66561, 245616, 212353187465900024418)


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (2, 2, 3), (3, 3)])
def test_lattice_matches_the_extension_walk_on_every_ideal(dims):
    visited = []
    for ideal in all_order_ideals(box_table(dims)):
        assert _lattice(ideal, visited) == shellings_by_extension(ideal)
    if dims in SUITE_LATTICE_TOTALS:
        assert _sums(visited) == SUITE_LATTICE_TOTALS[dims]


def test_lattice_matches_the_extension_walk_on_seeded_3x3x4_ideals():
    # the shellings suite's random ideals; the walk takes those it can
    walked, visited = 0, []
    for ideal in random_order_ideals(box_table((3, 3, 4)), verify.RANDOM_IDEAL_COUNT, 2024):
        total = count_linear_extensions(ideal)
        if total <= 10 ** 4:
            assert _lattice(ideal, visited) == shellings_by_extension(ideal)
            walked += 1
        else:
            ok, _, extensions = _lattice(ideal, visited)
            assert ok and extensions == total
    assert walked == 38
    assert _sums(visited) == SUITE_LATTICE_TOTALS[(3, 3, 4)]


def test_lattice_counts_on_the_2x3_box():
    # the 2x3 grid: 10 sub-ideals, 12 cover edges, 5 linear extensions
    found = shelling_lattice(full_ideal(box_table((2, 3))))
    assert (found.sub_ideals, found.edges, found.extensions) == (10, 12, 5)
    assert found.h_vectors == {(1, 2, 2, 1)}


_facet_masks = simplicial._facet_masks


def test_corrupted_facet_rule_fails_both():
    ideals = list(all_order_ideals(box_table((2, 3))))
    with facet_rule(one_facet_per_column):
        lattice = [shelling_lattice(ideal) for ideal in ideals]
        oracle = [shellings_by_extension(ideal) for ideal in ideals]
        # the complex route's state, pushing rank-lex order
        states = [push_all(ShellingState(ideal), rank_lex(ideal)) for ideal in ideals]
        # the shellings suite's per-point check
        steps = list(box_shelling_steps((2, 3)))
        rep = verify.run_suite("shellings", seed=2024)
    assert [(f.ok, f.h_vectors, f.extensions) for f in lattice] == oracle
    # an ideal reaching the second row holds two points with one facet
    assert [ok for ok, _, _ in oracle] == [all(p[0] == 0 for p in j) for j in ideals]
    assert not all(ok for ok, _, _ in oracle)
    for found, (passed, violation), ideal in zip(lattice, states, ideals):
        assert violation == found.violation
        assert (passed == len(ideal)) == found.ok
        if not found.ok:
            least, point = found.violation
            assert least == (0, point[1]) and point[0] == 1
    # the first point whose step fails is (1, 0), and the suite stops there
    assert [x for x, ok, _ in steps if not ok][0] == (1, 0)
    assert "box (2, 3): point (1, 0) has l(G(x)) < x" in rep.witnesses
    # the true rule is back
    points = box_table((2, 3)).points
    assert simplicial._facet_masks((2, 3), points) == _facet_masks((2, 3), points)


LEMMA_BOXES = [(2, 3), (2, 2, 2), (2, 2, 3), (3, 3), (3, 2, 2), (2, 4)]


def _lemma_ideals():
    """Every ideal of LEMMA_BOXES, every A3 interval ideal and the B3
    interval ideals of at most 24 points."""
    ideals = [j for dims in LEMMA_BOXES for j in all_order_ideals(box_table(dims))]
    assert len(ideals) == 159
    a3, b3 = shared_standard_code("A", 3), shared_standard_code("B", 3)
    ideals += [interval_ideal(w, a3) for w in range(a3.poset.size)]
    ideals += [j for j in (interval_ideal(w, b3) for w in range(b3.poset.size)) if len(j) <= 24]
    return ideals


@pytest.mark.parametrize("rule", [_facet_masks, one_facet_per_column],
                         ids=["true_rule", "one_facet_per_column"])
def test_lattice_verdict_is_the_per_point_verdict(rule):
    # every extension of an ideal shells iff no point of it fails
    # l(G(x)) = x, and then all of them have the h-vector of the |G(x)|
    ideals = _lemma_ideals()
    failed = 0
    with facet_rule(rule):
        steps = {}
        for ideal in ideals:
            dims = ideal.box.dims
            if dims not in steps:
                steps[dims] = {x: (ok, g) for x, ok, g in box_shelling_steps(dims)}
            found = shelling_lattice(ideal)
            assert found.ok == all(steps[dims][x][0] for x in ideal)
            failed += not found.ok
            if found.ok:
                h = [0] * (sum(dims) - len(dims) + 1)
                for x in ideal:
                    h[steps[dims][x][1]] += 1
                assert found.h_vectors == {tuple(h)}
    assert (failed == 0) == (rule is _facet_masks)


@pytest.mark.parametrize("dims,count", [((2, 3), 9), ((3, 3), 19), ((2, 2, 2), 19),
                                        ((3, 2, 2), 49)])
def test_corrupted_facet_rule_fails_the_lookup_state_alike(dims, count):
    # the line-indexed state and the old set-of-facets state stop at the
    # same step with the same (least, point), and agree where both shell
    ideals = list(all_order_ideals(box_table(dims)))
    with facet_rule(one_facet_per_column):
        for ideal in ideals:
            new, old = ShellingState(ideal), LookupShellingState(ideal)
            assert push_all(new, rank_lex(ideal)) == push_all(old, rank_lex(ideal))
            assert new.h_vector == old.h_vector and pushed(new) == old.prefix
    assert len(ideals) == count


@pytest.mark.parametrize("rule", [_facet_masks, one_facet_per_column],
                         ids=["true_rule", "one_facet_per_column"])
@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 2, 2), (3, 2, 2), (2, 2, 3)])
def test_step_memo_route_fails_where_the_state_fails(dims, rule):
    # every ideal of the box, in a seeded order that grows the memo one
    # ideal at a time: the route's h-vector is the state's, or both fail
    # at the same point
    ideals = list(all_order_ideals(box_table(dims)))
    random.Random(f"memo {dims}").shuffle(ideals)
    failed = 0
    with facet_rule(rule):
        for ideal in ideals:
            state = ShellingState(ideal)
            _, violation = push_all(state, rank_lex(ideal))
            if violation is None:
                assert shelling_h_polynomial(ideal) == IntPolynomial(state.h_vector)
            else:
                failed += 1
                with pytest.raises(ShellingFailure, match=re.escape(f"at point {violation[1]}")):
                    shelling_h_polynomial(ideal)
    assert (failed == 0) == (rule is _facet_masks)


def test_push_refuses_a_point_outside_the_frontier():
    state = ShellingState(full_ideal(box_table((2, 3))))
    with pytest.raises(ValueError, match="not minimal"):
        state.push((0, 1))
    assert state.push((0, 0))
    with pytest.raises(ValueError, match="not minimal"):
        state.push((0, 0))
    with pytest.raises(ValueError, match="not minimal"):
        state.push((1, 1))
    with pytest.raises(ValueError, match="no facet"):
        state.push((2, 0))
    assert state.push((1, 0)) and state.push((0, 1))
    assert pushed(state) == {(0, 0), (1, 0), (0, 1)}
    assert state.h_vector == (1, 2, 0, 0)


def test_push_refuses_a_box_point_outside_the_ideal():
    # (1, 1) is in the box and its lower covers are all pushed, but it is
    # not in the ideal; the shared box table numbers it
    assert (1, 1) in box_table((2, 3)).index
    state = ShellingState(ideal_from_points(box_table((2, 3)), [(1, 0), (0, 1)]))
    assert all(state.push(p) for p in [(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match="no facet"):
        state.push((1, 1))
    assert pushed(state) == {(0, 0), (1, 0), (0, 1)}


def test_least_container_matches_brute_force():
    for dims in [(2, 3), (2, 2, 2), (3, 3), (1, 3)]:
        omitted = omitted_bits(dims)
        sc = complex_of_ideal(full_ideal(box_table(dims)))
        points = [tuple(x - 1 for x in lab) for lab in sc.labels]
        for facet in sc.facets:
            face = facet
            while True:  # every subset of the facet
                holders = [p for p, f in zip(points, sc.facets) if face & ~f == 0]
                least = tuple(map(min, zip(*holders)))
                assert least in holders
                assert least_container(omitted, face) == least
                if not face:
                    break
                face = (face - 1) & facet


def test_a_subface_lies_in_its_facet_and_one_neighbour():
    # the shelling step finds facet - v in one other facet only: the one
    # that trades v for the vertex the facet omits in v's class, which lies
    # on the facet's line of that class
    for dims in [(2, 3), (2, 2, 2), (3, 3), (1, 3), (3, 3, 4)]:
        omitted = omitted_bits(dims)
        points = list(full_ideal(box_table(dims)))
        facets = dict(zip(points, _facet_masks(dims, points)))
        for x, f in facets.items():
            for i, (bits, xi) in enumerate(zip(omitted, x)):
                for y, v in enumerate(bits):
                    if y != xi:
                        moved = x[:i] + (y,) + x[i + 1:]
                        assert {p for p, e in facets.items() if (f ^ v) & ~e == 0} == {x, moved}
                        assert facets[moved] == f ^ v ^ bits[xi]


def test_planted_step_failure_is_reported(monkeypatch):
    # a shelling rule that always names the origin as G's least container:
    # every step after the first fails, in the suite and in push alike
    def failing_step(*_):
        return 0, 0  # G empty, the least container at lex position 0

    monkeypatch.setattr(simplicial, "_shelling_step", failing_step)
    rep = verify.run_suite("shellings", seed=2024)
    assert not rep.passed
    # one failure per box with at least two points, at its second point in
    # rank-lex order, then the box stops; the f/h checks all pass
    boxes = sorted({tuple(b + 1 for b in shared_standard_code(*system).bounds)
                    for system in verify.CODE_SYSTEMS} | {(2, 3), (2, 2, 2), (3, 3, 4)})
    failing = [dims for dims in boxes if len(box_table(dims).points) >= 2]
    assert rep.failures == len(failing) == 19
    assert rep.instances == 2 * len(failing) + verify.RANDOM_IDEAL_COUNT + 28
    assert rep.witnesses == [f"box {dims}: point {(0,) * (len(dims) - 1) + (1,)} has l(G(x)) < x"
                             for dims in failing][:MAX_WITNESSES]
    state = ShellingState(full_ideal(box_table((2, 3))))
    assert state.push((0, 0)) and not state.push((1, 0))
    assert state.violation == ((0, 0), (1, 0)) and pushed(state) == {(0, 0)}


def test_planted_g_size_failure_is_reported(monkeypatch):
    # a rule with the true least container but one vertex too many in G:
    # |G(x)| = |x| fails at each box's origin, and the box stops there
    step = simplicial._shelling_step

    def grown_step(classes, lines, facet):
        g, least = step(classes, lines, facet)
        return g | 1 << facet.bit_length(), least

    monkeypatch.setattr(simplicial, "_shelling_step", grown_step)
    rep = verify.run_suite("shellings", seed=2024)
    assert rep.failures == 19
    assert rep.instances == 19 + verify.RANDOM_IDEAL_COUNT + 28
    assert rep.witnesses[:3] == ["box (2,): point (0,) has |G(x)| = 1, not 0",
                                 "box (2, 2, 2): point (0, 0, 0) has |G(x)| = 1, not 0",
                                 "box (2, 3): point (0, 0) has |G(x)| = 1, not 0"]


def test_f_vector_trivial_complex():
    sc = build_box_complex((1, 1))
    assert f_vector(sc) == (1,)
    assert h_from_f((1,), -1) == (1,)


def test_f_vector_triangle_boundary():
    sc = complex_from_sets([{1, 2}, {1, 3}, {2, 3}])
    assert f_vector(sc) == (1, 3, 3)
    assert h_from_f((1, 3, 3), 1) == (1, 1, 1)


def test_h_from_f_matches_shelling_on_2x3():
    sc = build_box_complex((2, 3))
    f = f_vector(sc)
    assert f == (1, 5, 9, 6)
    h = h_from_f(f, sc.dimension)
    assert h == (1, 2, 2, 1)
    assert IntPolynomial(h) == shelling_h_polynomial(full_ideal(box_table((2, 3))))


def test_f_h_round_trip():
    for dims in [(2, 3), (2, 2, 2), (4,)]:
        for j in all_order_ideals(box_table(dims)):
            sc = complex_of_ideal(j)
            f = f_vector(sc)
            h = h_from_f(f, sc.dimension)
            assert f_from_h(h, sc.dimension) == f


def test_vd_simplex_and_trivial():
    assert vertex_decomposable_by_search(complex_from_sets([{1, 2, 3}]))
    assert vertex_decomposable_by_search(build_box_complex((1, 1)))
    assert is_vertex_decomposable(full_ideal(box_table((1, 1))))
    assert is_vertex_decomposable(ideal_from_points(box_table((3, 4)), [(0, 0)]))


def test_vd_all_ideals_of_2x2():
    for j in all_order_ideals(box_table((2, 2))):
        assert is_vertex_decomposable(j)


def test_vd_refuses_the_empty_ideal():
    with pytest.raises(ValueError, match="empty ideal"):
        is_vertex_decomposable(ideal_from_points(box_table((2, 2)), []))


def test_vd_rejects_disjoint_edges():
    assert not vertex_decomposable_by_search(complex_from_sets([{1, 2}, {3, 4}]))


def test_vd_triangle_boundary_and_path():
    assert vertex_decomposable_by_search(complex_from_sets([{1, 2}, {1, 3}, {2, 3}]))
    assert vertex_decomposable_by_search(complex_from_sets([{1, 2}, {2, 3}, {3, 4}]))


def test_vd_size_limit():
    sc = build_box_complex((2, 3))
    with pytest.raises(SizeLimitError, match="facets"):
        vertex_decomposable_by_search(sc, max_facets=3)


def test_vd_rejects_non_pure():
    with pytest.raises(ValueError):
        vertex_decomposable_by_search(complex_from_sets([{1, 2}, {3}]))


def _vd_ideals():
    """Every ideal of the suite's boxes and every A3 and B3 interval ideal."""
    ideals = [j for dims in verify._boxes_up_to(verify.VD_MAX_VOLUME)
              for j in all_order_ideals(box_table(dims))]
    assert len(ideals) == 805
    for code in shared_standard_code("A", 3), shared_standard_code("B", 3):
        ideals += [interval_ideal(w, code) for w in range(code.poset.size)]
    return ideals


def test_vd_certificate_matches_the_search():
    ideals = _vd_ideals()
    expected = [vertex_decomposable_by_search(complex_of_ideal(j), max_facets=64) for j in ideals]
    assert all(expected) and len(expected) == 805 + 24 + 48
    assert [is_vertex_decomposable(j) for j in ideals] == expected


def test_vd_certificate_matches_the_shedding_recursion():
    # the 805 box ideals and the 578 lower intervals of the route systems,
    # one memo across them as the recursion's suite kept it
    ideals = _vd_ideals()[:805]
    for label, rank, m in verify.ROUTE_SYSTEMS:
        code = shared_standard_code(label, rank, m)
        ideals += [interval_ideal(w, code) for w in range(code.poset.size)]
    assert len(ideals) == 805 + 578
    memo = {}
    expected = [vertex_decomposable_by_shedding(j, memo) for j in ideals]
    assert all(expected)
    assert [is_vertex_decomposable(j) for j in ideals] == expected
    # the recursion's memo holds the link boxes' tables, apart from box_table's
    assert (1, 3, 4) in memo and memo[(1, 3, 4)][0] is not box_table((1, 3, 4))


def test_corrupted_facet_rule_fails_the_vd_certificate():
    # one facet per column gives (0, 0) and (1, 0) the same facet, which
    # misses (2, 1): the recursion's first shedding vertex in every (2, 3)
    # ideal that reaches the second row, and not the class join at (1, 0)
    ideals = list(all_order_ideals(box_table((2, 3))))
    with facet_rule(one_facet_per_column):
        verdicts = [is_vertex_decomposable(j) for j in ideals]
        ideal = ideal_from_points(box_table((2, 3)), [(1, 0)])
        named = is_vertex_decomposable(ideal), vertex_decomposable_by_shedding(ideal)
        box_ideals = _vd_ideals()[:805]
        rejected = [not is_vertex_decomposable(j) for j in box_ideals]
        recursion = [not vertex_decomposable_by_shedding(j) for j in box_ideals]
        code_box = list(itertools.product(range(2), range(3), range(4)))
        points = simplicial.join_certificate((2, 3, 4), code_box)
    assert named == (False, False)
    assert verdicts == [all(p[0] == 0 for p in j) for j in ideals]
    assert rejected == recursion and sum(rejected) == 692
    # in a box, exactly the points off the first column fail
    assert points == [p[0] == 0 for p in code_box]


def _one_facet_changed(box, point, change):
    """The true facet rule but for the facet of `point` in `box`."""
    def rule(dims, points):
        return [change(m) if dims == box and p == point else m
                for p, m in zip(points, _facet_masks(dims, points))]
    return rule


@pytest.mark.parametrize("box, point, change", [
    ((2, 3), (0, 0), lambda m: m | 1 << 4),  # F_y gains (3, 2): |F_y| > |F_x|
    ((2, 3), (0, 0), lambda m: m | 1 << 1),  # F_y gains v
    ((2, 3), (1, 0), lambda m: m & ~(1 << 1)),  # F_x loses v
    ((2, 3), (0, 0), lambda m: m & ~(1 << 3)),  # F_y loses (2, 2), in F_x - v
    ((1, 3), (0, 0), lambda m: m ^ 0b1100),  # the link's facet trades (2, 2) for (3, 2)
], ids=["size", "v_in_deletion", "v_not_in_facet", "not_inside", "link"])
def test_each_shedding_identity_is_checked(box, point, change):
    # {(0, 0), (1, 0)} in (2, 3) sheds v = (2, 1): F_y = {(1, 1), (1, 2), (2, 2)}
    # at y = (0, 0), F_x = {(2, 1), (1, 2), (2, 2)} at x = (1, 0), and the link
    # is the facet {(1, 2), (2, 2)} of the origin of (1, 3); one change to one
    # facet breaks one identity of the recursion, and the changed facet is
    # no class join, so the certificate refuses the ideal below it
    ideal = ideal_from_points(box_table((2, 3)), [(1, 0)])
    assert is_vertex_decomposable(ideal) and vertex_decomposable_by_shedding(ideal)
    with facet_rule(_one_facet_changed(box, point, change)):
        ideal = ideal_from_points(box_table((2, 3)), [(1, 0)])
        assert not vertex_decomposable_by_shedding(ideal)
        assert not is_vertex_decomposable(ideal_from_points(box_table(box), [point]))
        # the certificate reads the facets of the ideal's own box only: the
        # link's box (1, 3) enters through the class rule
        assert is_vertex_decomposable(ideal) == (box == (1, 3))
        # a change in (2, 3) leaves facets of two sizes
        assert complex_of_ideal(ideal).is_pure() == (box == (1, 3))


def test_vd_certificate_and_box_walk_leave_no_cached_table():
    ideal = full_ideal(box_table((2, 2, 7)))
    before = box_table.cache_info().currsize
    assert is_vertex_decomposable(ideal)
    assert len(list(box_shelling_steps((3, 2, 7)))) == 42
    assert box_table.cache_info().currsize == before


def test_vd_certificate_needs_the_points_below():
    # (0, 0) and (1, 1) are no ideal: their triangles share one vertex, so
    # the search rejects them, the recursion misses (0, 1) below (1, 1), and
    # an OrderIdeal refuses them, so the certificate never sees them
    table, points = box_table((2, 3)), [(0, 0), (1, 1)]
    sc = SimplicialComplex(simplicial._facet_masks((2, 3), points), range(5))
    assert not vertex_decomposable_by_search(sc)
    assert _shed((2, 3), table.mask_of(points), {}) is False
    with pytest.raises(ValueError, match="not downward closed"):
        OrderIdeal(table, table.mask_of(points))


def test_planted_shedding_failure_is_reported(monkeypatch):
    # a chain check that sheds vertex 1, which the facet at x_i = d_i - 1
    # omits, in place of d: it fails on every chain of 2 or more vertices,
    # so every point off the origin fails, and so every ideal but the origin
    sheds = simplicial._sheds
    assert all(sheds(d, 1 << d - 1) for d in range(1, 12))
    assert not any(sheds(d, 1) for d in range(2, 12))
    monkeypatch.setattr(simplicial, "_sheds", lambda d, v: sheds(d, 1))
    rep = verify.run_suite("vd")
    boxes = verify._boxes_up_to(verify.VD_MAX_VOLUME)
    assert rep.instances == 4439
    assert rep.failures == 4439 - len(boxes) - 17 == 4392
    assert rep.witnesses[:2] == ["box (2,): ideal [[0], [1]] not vertex decomposable",
                                 "box (2, 2): ideal [[0, 0], [0, 1], [1, 0], [1, 1]] "
                                 "not vertex decomposable"]
    # planted only on chains of more than 8 vertices, a point fails if it
    # reaches one: the ideals of (9,) ... (16,) but the origin, and the code
    # box points with x_i >= 1 in a class of 9 or 10 vertices, in the boxes
    # (2, 6, 10) of H3, (2, 9) of I2(9) and (2, 10) of I2(10)
    monkeypatch.setattr(simplicial, "_sheds", lambda d, v: sheds(d, 1 if d > 8 else v))
    rep = verify.run_suite("vd")
    assert rep.failures == sum(range(8, 16)) + 2 * 6 * 9 + 2 * 8 + 2 * 9 == 92 + 142
    assert rep.witnesses[0] == ("box (9,): ideal [[0], [1], [2], [3], [4], [5], [6], [7], [8]] "
                                "not vertex decomposable")


def test_changed_code_box_facet_is_reported():
    # one facet of the H3 box changed, no box up to volume 16 touched: the
    # one failure is that point's
    with facet_rule(_one_facet_changed((2, 6, 10), (1, 2, 3), lambda m: m ^ 1)):
        rep = verify.run_suite("vd")
    assert (rep.instances, rep.failures) == (4439, 1)
    assert rep.witnesses == ["box (2, 6, 10): point (1, 2, 3) fails the join lemma"]


def test_join_certificate_passes_every_point_of_the_a6_b5_and_d6_boxes():
    # the boxes of A6, B5 and D6, the exponents plus one, with no group
    # enumerated: 5,040, 3,840 and 23,040 points
    for dims in (2, 3, 4, 5, 6, 7), (2, 4, 6, 8, 10), (2, 4, 6, 8, 10, 6):
        points = list(itertools.product(*map(range, dims)))
        assert len(points) == prod(dims) and all(simplicial.join_certificate(dims, points))


def test_flag_full_simplex():
    assert is_flag(complex_from_sets([{1, 2, 3}]))


def test_flag_triangle_boundary_is_not():
    assert not is_flag(complex_from_sets([{1, 2}, {1, 3}, {2, 3}]))


def test_flag_ideal_requires_01_box():
    for check in is_flag_ideal, is_flag_ideal_by_scan:
        with pytest.raises(ValueError, match="2-chains"):
            check(full_ideal(box_table((2, 3))))


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2)])
def test_flag_ideal_matches_the_point_scan_on_every_ideal(dims):
    ideals = list(all_order_ideals(box_table(dims)))
    verdicts = [is_flag_ideal(j) for j in ideals]
    assert verdicts == [is_flag_ideal_by_scan(j) for j in ideals]
    assert True in verdicts and False in verdicts


def test_flag_equivalence_on_2_cubed():
    box = box_table((2, 2, 2))
    for j in all_order_ideals(box):
        assert is_flag(complex_of_ideal(j)) == is_flag_ideal(j)


def test_json_export():
    sc = build_box_complex((2, 2))
    doc = sc.to_json()
    assert doc["dim"] == 1
    assert len(doc["facets"]) == 4
    assert len(doc["vertices"]) == 4
    assert doc["labels"][0] == [1, 1]
    for facet in doc["facets"]:
        assert all(0 <= v < len(doc["vertices"]) for v in facet)
