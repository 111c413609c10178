import pytest

from coxlehmer.coxeter import SizeLimitError
from coxlehmer.multicomplex import (
    ChainProduct,
    all_order_ideals,
    full_ideal,
    ideal_from_points,
    linear_extensions,
)
from coxlehmer.qpoly import IntPolynomial, q_analog
from coxlehmer.simplicial import (
    SimplicialComplex,
    build_box_complex,
    complex_of_ideal,
    f_from_h,
    f_vector,
    facet_of,
    h_from_f,
    is_flag,
    is_flag_ideal,
    is_vertex_decomposable,
    order_from_extension,
    shelling_h_polynomial,
    verify_shelling,
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
    amb = ChainProduct((2, 3))
    j = ideal_from_points(amb, [(1, 1)])
    sc = complex_of_ideal(j)
    assert sc.facet_count == len(j) == 4
    assert sc.is_pure()


def test_shelling_single_facet():
    sc = build_box_complex((1, 1))
    res = verify_shelling(sc, [0])
    assert res.ok
    assert res.restrictions == [frozenset()]
    assert IntPolynomial(res.h_vector) == IntPolynomial([1])


def test_every_extension_shells_the_2x3_box():
    sc = build_box_complex((2, 3))
    j = full_ideal(ChainProduct((2, 3)))
    count = 0
    for ext in linear_extensions(j):
        res = verify_shelling(sc, order_from_extension(sc, ext))
        assert res.ok
        assert IntPolynomial(res.h_vector) == q_analog(2) * q_analog(3)
        count += 1
    assert count == 5


def test_bad_order_is_rejected():
    # two disjoint edges can never be shelled
    sc = SimplicialComplex([{1, 2}, {3, 4}])
    res = verify_shelling(sc, [0, 1])
    assert not res.ok
    assert res.violation == (0, 1)


def test_non_shelling_order_on_shellable_complex():
    # a path of three edges ordered ends-first fails in the middle
    sc = SimplicialComplex([{1, 2}, {2, 3}, {3, 4}])
    assert verify_shelling(sc, [0, 1, 2]).ok
    res = verify_shelling(sc, [0, 2, 1])
    assert not res.ok


def test_verify_shelling_rejects_non_pure():
    sc = SimplicialComplex([{1, 2}, {3}])
    with pytest.raises(ValueError, match="pure"):
        verify_shelling(sc, [0, 1])


def test_verify_shelling_rejects_partial_order():
    sc = build_box_complex((2, 2))
    with pytest.raises(ValueError, match="every facet"):
        verify_shelling(sc, [0, 1])


def test_f_vector_trivial_complex():
    sc = build_box_complex((1, 1))
    assert f_vector(sc) == (1,)
    assert h_from_f((1,), -1) == (1,)


def test_f_vector_triangle_boundary():
    sc = SimplicialComplex([{1, 2}, {1, 3}, {2, 3}])
    assert f_vector(sc) == (1, 3, 3)
    assert h_from_f((1, 3, 3), 1) == (1, 1, 1)


def test_h_from_f_matches_shelling_on_2x3():
    sc = build_box_complex((2, 3))
    f = f_vector(sc)
    assert f == (1, 5, 9, 6)
    h = h_from_f(f, sc.dimension)
    assert h == (1, 2, 2, 1)
    assert IntPolynomial(h) == shelling_h_polynomial(sc)


def test_f_h_round_trip():
    for dims in [(2, 3), (2, 2, 2), (4,)]:
        for j in all_order_ideals(ChainProduct(dims)):
            sc = complex_of_ideal(j)
            f = f_vector(sc)
            h = h_from_f(f, sc.dimension)
            assert f_from_h(h, sc.dimension) == f


def test_vd_simplex_and_trivial():
    assert is_vertex_decomposable(SimplicialComplex([{1, 2, 3}]))
    assert is_vertex_decomposable(build_box_complex((1, 1)))


def test_vd_all_ideals_of_2x2():
    for j in all_order_ideals(ChainProduct((2, 2))):
        assert is_vertex_decomposable(complex_of_ideal(j))


def test_vd_rejects_disjoint_edges():
    assert not is_vertex_decomposable(SimplicialComplex([{1, 2}, {3, 4}]))


def test_vd_triangle_boundary_and_path():
    assert is_vertex_decomposable(SimplicialComplex([{1, 2}, {1, 3}, {2, 3}]))
    assert is_vertex_decomposable(SimplicialComplex([{1, 2}, {2, 3}, {3, 4}]))


def test_vd_size_limit():
    sc = build_box_complex((2, 3))
    with pytest.raises(SizeLimitError, match="facets"):
        is_vertex_decomposable(sc, max_facets=3)


def test_vd_rejects_non_pure():
    with pytest.raises(ValueError):
        is_vertex_decomposable(SimplicialComplex([{1, 2}, {3}]))


def test_flag_full_simplex():
    assert is_flag(SimplicialComplex([{1, 2, 3}]))


def test_flag_triangle_boundary_is_not():
    assert not is_flag(SimplicialComplex([{1, 2}, {1, 3}, {2, 3}]))


def test_flag_ideal_requires_01_box():
    with pytest.raises(ValueError, match="2-chains"):
        is_flag_ideal(full_ideal(ChainProduct((2, 3))))


def test_flag_equivalence_on_2_cubed():
    amb = ChainProduct((2, 2, 2))
    for j in all_order_ideals(amb):
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
