"""Property tests: the incremental shelling state, the lattice pass and the
generic shelling check against each other and against the definition, and
the `complex` and `maxima` routes' polynomials against the ideal's rank
counts, on drawn boxes, ideals and facet orders; the q-analog products and
the f/h transforms against their multiplied-out references."""

from math import prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coxlehmer.intervals import _maxima_polynomial  # noqa: E402
from coxlehmer.multicomplex import _bits, box_table, ideal_from_points  # noqa: E402
from coxlehmer.qpoly import IntPolynomial, q_analog_product  # noqa: E402
from coxlehmer.simplicial import (  # noqa: E402
    complex_of_ideal,
    f_from_h,
    h_from_f,
    shelling_h_polynomial,
    verify_shelling,
)
from oracles import (  # noqa: E402
    ShellingState,
    facet_vertices,
    is_linear_extension,
    order_from_extension,
    q_analog_product_by_multiplying,
    shelling_lattice,
    transform_by_powers,
)
from test_fuzz import brute_shelling_ok  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                             database=None)


@st.composite
def ideals_and_orders(draw):
    """A box with sides 2 or 3 and volume at most 12, the ideal below one to
    three points other than the origin, and an order of the ideal's points:
    half the time a linear extension, else any permutation."""
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=3)))
    if prod(dims) > 12:
        dims = dims[:2]
    table = box_table(dims)
    gens = draw(st.lists(st.sampled_from(table.points[1:]), min_size=1, max_size=3))
    ideal = ideal_from_points(table, gens)
    if not draw(st.booleans()):
        return ideal, list(draw(st.permutations(sorted(ideal))))
    left, order = ideal.mask, []
    while left:  # draw each next point among the minimal ones left, in lex order
        j = draw(st.sampled_from(tuple(_bits(table.minimal(left)))))
        left ^= 1 << j
        order.append(table.points[j])
    return ideal, order


@PROPERTY_SETTINGS
@given(ideals_and_orders())
def test_state_agrees_with_verify_shelling_on_linear_extensions(case):
    ideal, order = case
    sc = complex_of_ideal(ideal)
    expected = verify_shelling(sc, order_from_extension(sc, order))
    state = ShellingState(ideal)
    if not is_linear_extension(ideal, order):
        # the state refuses a point whose lower covers are not all pushed
        with pytest.raises(ValueError, match="not minimal"):
            for p in order:
                assert state.push(p)
        return
    ok = all(state.push(p) for p in order)
    assert ok == expected.ok
    if ok:
        assert state.h_vector == expected.h_vector
        # the lattice pass certifies this extension along with all the others
        found = shelling_lattice(ideal)
        assert found.ok and expected.h_vector in found.h_vectors


@PROPERTY_SETTINGS
@given(ideals_and_orders())
def test_verify_shelling_agrees_with_the_definition(case):
    ideal, order = case
    sc = complex_of_ideal(ideal)
    facet_order = order_from_extension(sc, order)
    facets = [set(facet_vertices(sc, i)) for i in range(sc.facet_count)]
    assert verify_shelling(sc, facet_order).ok == brute_shelling_ok(facets, facet_order)


@PROPERTY_SETTINGS
@given(ideals_and_orders())
def test_shelling_h_polynomial_is_the_rank_count(case):
    ideal, _ = case
    sc = complex_of_ideal(ideal)
    rank_lex = sorted(ideal, key=lambda p: (sum(p), p))
    generic = verify_shelling(sc, order_from_extension(sc, rank_lex))
    assert generic.ok
    got = shelling_h_polynomial(ideal)
    assert got == ideal.f_polynomial() == IntPolynomial(generic.h_vector)


@PROPERTY_SETTINGS
@given(ideals_and_orders())
def test_maxima_table_is_the_rank_count(case):
    ideal, _ = case
    assert _maxima_polynomial(ideal) == ideal.f_polynomial()


def _product_or_error(product, ns):
    try:
        return product(ns)
    except ValueError as err:
        return str(err)


@PROPERTY_SETTINGS
@given(st.lists(st.integers(min_value=-3, max_value=9), max_size=6))
@example([])
@example([0])
@example([4, -1, 2])
def test_running_sums_match_repeated_products(ns):
    # the same polynomial, or the same ValueError at the first n < 1
    got = _product_or_error(q_analog_product, ns)
    assert got == _product_or_error(q_analog_product_by_multiplying, ns)
    if not ns:
        assert got == IntPolynomial([1])
    if any(n < 1 for n in ns):
        assert got == f"q-analog is defined for n >= 1, got {next(n for n in ns if n < 1)}"


@st.composite
def vectors_and_dims(draw):
    """An integer vector of length 1-12 and a dim from len - 3 (floored at
    -1) to len + 1, so the vector is longer than, as long as or shorter than
    the dim + 2 entries the transforms read."""
    v = draw(st.lists(st.integers(), min_size=1, max_size=12))
    return v, draw(st.integers(max(len(v) - 3, -1), len(v) + 1))


@PROPERTY_SETTINGS
@given(vectors_and_dims())
@example(([1], -1))
@example(([1, 3, 3], 1))
@example(([1, 5, 9, 6, 7, 8], 1))
def test_fh_transforms_match_the_powers_of_x_plus_c(case):
    v, dim = case
    h, f = h_from_f(v, dim), f_from_h(v, dim)
    assert h == transform_by_powers(v, dim, -1)
    assert f == transform_by_powers(v, dim, 1)
    # both give dim + 2 entries: v cut there or padded with zeros, back again
    kept = tuple(v[:dim + 2]) + (0,) * (dim + 2 - len(v))
    assert len(h) == len(f) == dim + 2
    assert f_from_h(h, dim) == h_from_f(f, dim) == kept
