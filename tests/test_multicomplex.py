import hashlib
import itertools
import random
from functools import lru_cache

import pytest

from coxlehmer.multicomplex import (
    OrderIdeal,
    _BoxTable,
    all_order_ideals,
    box_table,
    count_linear_extensions,
    full_ideal,
    ideal_from_points,
    is_m_sequence,
    linear_extensions,
    meet,
    random_order_ideals,
    sample_linear_extensions,
)
from coxlehmer.qpoly import IntPolynomial, q_analog_product
from oracles import (
    all_order_ideals_by_sets,
    is_linear_extension,
    is_order_ideal,
    lower_covers,
    maxima_by_covers,
    rank_lex,
    upper_covers,
)


def test_ambient_validation():
    for dims in [(2, 0), ()]:
        for make in (box_table, _BoxTable):
            with pytest.raises(ValueError, match="chain sizes must be >= 1"):
                make(dims)


@pytest.mark.parametrize("dims", [(1,), (2, 3), (2, 2, 2), (3, 3, 4), (2, 3, 4, 5, 6)])
def test_box_table_matches_the_generators(dims):
    table = box_table(dims)
    points = list(itertools.product(*map(range, dims)))
    assert table.points == points and table.full == (1 << len(points)) - 1
    assert all(table.mask_of([p]) == 1 << j for j, p in enumerate(points))
    bit = {p: 1 << j for j, p in enumerate(points)}
    for i, stride in enumerate(table.strides):
        assert table.nonzero[i] == sum(bit[p] for p in points if p[i])
        # a step down in coordinate i is a shift by its stride, both ways
        for p in points:
            for q in upper_covers(p, dims):
                if q[i] != p[i]:
                    assert bit[q] >> stride == bit[p]
    assert table.levels == [sum(bit[p] for p in points if sum(p) == r)
                            for r in range(sum(dims) - len(dims) + 1)]


@pytest.mark.parametrize("dims,ideals", [((2, 3), 10), ((2, 2, 2), 20)])
def test_closure_check_matches_the_tuple_oracle_on_every_subset(dims, ideals):
    box = box_table(dims)
    points = box.points
    accepted = 0
    for mask in range(1 << len(points)):
        pts = [p for j, p in enumerate(points) if mask >> j & 1]
        expected = is_order_ideal(box, pts)
        for build in (lambda: OrderIdeal(box, box.mask_of(pts)), lambda: OrderIdeal(box, mask)):
            try:
                ideal = build()
            except ValueError as err:
                assert not expected and "downward closed" in str(err)
            else:
                assert expected and ideal.mask == mask and set(ideal) == set(pts)
        accepted += expected
    assert accepted == ideals  # the empty set included
    with pytest.raises(ValueError, match="outside"):
        OrderIdeal(box, 1 << len(points) | 1)


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (3, 3), (1, 3), (2, 2, 3)])
def test_ideal_views_match_the_tuple_definitions(dims):
    box = box_table(dims)
    points = box.points
    for j in all_order_ideals(box):
        pts = {points[x] for x in range(len(points)) if j.mask >> x & 1}
        assert list(j) == sorted(pts) and len(j) == len(pts)
        assert j.maxima() == maxima_by_covers(j)
        assert [points[x] for x in j.rank_order()] == rank_lex(j)
        assert j.to_json() == [list(p) for p in sorted(pts)]
        assert j.f_polynomial() == IntPolynomial(
            [sum(1 for p in pts if sum(p) == r) for r in range(sum(dims))])
        assert all(p in j for p in pts) and (-1,) * len(dims) not in j
        same = OrderIdeal(box, box.mask_of(pts))
        assert j == same and hash(j) == hash(same)


def test_order_ideal_refuses_masks_off_the_box_or_not_closed():
    box = box_table((2, 3))
    for mask in (1 << len(box.points), box.full | 1 << len(box.points)):
        with pytest.raises(ValueError, match="outside"):
            OrderIdeal(box, mask)
    for points in ([(0, 1)], [(0, 0), (1, 1)], [(0, 0), (0, 2)]):
        with pytest.raises(ValueError, match="not downward closed"):
            OrderIdeal(box, box.mask_of(points))


def test_ideals_are_equal_by_dims_and_mask():
    shared, own = box_table((2, 3)), _BoxTable((2, 3))
    assert shared is not own
    for j in all_order_ideals(shared):
        same = OrderIdeal(own, j.mask)
        assert same == j and hash(same) == hash(j)
    # mask 0b11 holds the points (0, 0) and (0, 1) in both boxes
    wide, tall = OrderIdeal(box_table((2, 3)), 0b11), OrderIdeal(box_table((3, 2)), 0b11)
    assert set(wide) == set(tall) and wide != tall


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (1, 3)])
def test_covered_is_the_set_of_lower_covers(dims):
    box = box_table(dims)
    for mask in range(1 << len(box.points)):
        pts = [p for j, p in enumerate(box.points) if mask >> j & 1]
        assert box.covered(mask) == box.mask_of(q for p in pts for q in lower_covers(p))


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (3, 3, 4), (1, 4)])
def test_closure_is_the_set_below_the_given_points(dims):
    box, rng = box_table(dims), random.Random(f"closure {dims}")
    for _ in range(50):
        gens = rng.sample(box.points, rng.randint(0, min(4, len(box.points))))
        below = {p for p in box.points if any(all(map(int.__le__, p, g)) for g in gens)}
        assert set(ideal_from_points(box, gens)) == below


def test_seeded_random_ideals_are_pinned():
    # the 100 ideals the shellings suite draws at its default seed, by the
    # SHA-256 of their masks: a change to the draw shows here
    ideals = random_order_ideals(box_table((3, 3, 4)), 100, 2024)
    digest = hashlib.sha256(" ".join(str(j.mask) for j in ideals).encode()).hexdigest()
    assert digest == "1c9e5ee084a0256642589c4898146360841ea6a802cc1a908e2a70d7a5642752"


def test_order_ideal_refuses_points_off_the_box():
    # read by strides alone, (0, 3) would alias (1, 0) and (1, -1) alias (0, 2)
    box = box_table((2, 3))
    for bad in [(2, 0), (0, 3), (1, -1), (0, -1), (0, 0, 0), (0,)]:
        with pytest.raises(ValueError, match="outside"):
            OrderIdeal(box, box.mask_of([(0, 0), bad]))


def test_closure_of_origin():
    box = box_table((2, 2))
    assert set(ideal_from_points(box, [(0, 0)])) == {(0, 0)}


def test_closure_of_top_of_2x2():
    box = box_table((2, 2))
    j = ideal_from_points(box, [(1, 1)])
    assert len(j) == 4


def test_closure_hand_count():
    box = box_table((2, 3))
    j = ideal_from_points(box, [(0, 2), (1, 1)])
    assert set(j) == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)}


def test_closure_rejects_out_of_bounds():
    box = box_table((2, 2))
    with pytest.raises(ValueError, match="outside"):
        ideal_from_points(box, [(2, 0)])


def test_is_order_ideal():
    box = box_table((2, 2))
    assert is_order_ideal(box, [(0, 0), (0, 1)])
    assert not is_order_ideal(box, [(0, 1)])
    with pytest.raises(ValueError, match="downward closed"):
        OrderIdeal(box, box.mask_of([(1, 1)]))


def test_meet_examples():
    assert meet((0, 2, 2), (2, 0, 2)) == (0, 0, 2)
    assert meet((1, 1), (1, 1)) == (1, 1)


def test_meet_properties_inside_ideal():
    box = box_table((3, 3))
    j = ideal_from_points(box, [(2, 1), (1, 2)])
    pts = sorted(j)
    for x in pts:
        for y in pts:
            m = meet(x, y)
            assert m in j
            assert meet(x, y) == meet(y, x)
            assert meet(x, x) == x
            for z in pts:
                assert meet(meet(x, y), z) == meet(x, meet(y, z))


@pytest.mark.parametrize("dims", [(2, 3, 4), (1, 3), (3, 3, 4)])
def test_unary_codes_meet_by_and_and_pack_their_box_polynomials(dims):
    # a side of 1 is a zero-width field, coded 0 and read back as [1]_q
    box = _BoxTable(dims)
    for x in box.points:
        for y in box.points:
            assert box.unary(x) & box.unary(y) == box.unary(meet(x, y)), (x, y)
        packed = box.box_poly(box.unary(x))
        assert box.unpack(packed) == q_analog_product(v + 1 for v in x), x
    assert len(box.unary_codes) == len(box.box_polys) == len(box.points)


def test_maxima_of_full_box():
    box = box_table((2, 3))
    assert full_ideal(box).maxima() == {(1, 2)}


def test_maxima_hand_example():
    box = box_table((2, 3))
    j = ideal_from_points(box, [(0, 2), (1, 1)])
    assert j.maxima() == {(0, 2), (1, 1)}


def test_f_polynomial():
    box = box_table((2, 3))
    assert ideal_from_points(box, [(0, 0)]).f_polynomial() == IntPolynomial([1])
    assert full_ideal(box).f_polynomial() == q_analog_product([2, 3])


def test_f_polynomial_counts_points():
    box = box_table((3, 3, 2))
    for j in random_order_ideals(box, 20, seed=5):
        assert sum(j.f_polynomial().coeffs) == len(j)


def test_is_m_sequence_basics():
    assert is_m_sequence([1])
    assert is_m_sequence([1, 0, 0])
    assert not is_m_sequence([1, 0, 1])
    assert not is_m_sequence([])
    assert not is_m_sequence([2])
    assert not is_m_sequence([1, -1])
    assert is_m_sequence([1, 3, 5, 4, 1])
    assert is_m_sequence([1, 2, 3])
    assert not is_m_sequence([1, 2, 4])
    assert is_m_sequence([1, 4, 10, 20])


def test_m_sequence_of_every_small_ideal():
    # f-vectors of multicomplexes always satisfy the growth bound
    for dims in [(2, 3), (2, 2, 2), (3, 3)]:
        for j in all_order_ideals(box_table(dims)):
            assert is_m_sequence(j.f_polynomial().coeffs)


def test_linear_extensions_of_chain():
    box = box_table((3,))
    exts = list(linear_extensions(full_ideal(box)))
    assert exts == [((0,), (1,), (2,))]


def test_linear_extensions_of_diamond():
    box = box_table((2, 2))
    exts = list(linear_extensions(full_ideal(box)))
    assert len(exts) == 2
    for e in exts:
        assert e[0] == (0, 0) and e[-1] == (1, 1)


def test_extension_count_2x3_box():
    # standard Young tableaux of shape 2x3
    box = box_table((2, 3))
    assert count_linear_extensions(full_ideal(box)) == 5
    assert len(list(linear_extensions(full_ideal(box)))) == 5


def test_count_matches_enumeration():
    box = box_table((2, 2, 2))
    for j in all_order_ideals(box):
        assert count_linear_extensions(j) == len(list(linear_extensions(j)))


def test_sampled_extensions_are_extensions_and_deterministic():
    box = box_table((3, 3))
    j = full_ideal(box)
    a = list(sample_linear_extensions(j, 10, seed=42))
    b = list(sample_linear_extensions(j, 10, seed=42))
    assert a == b
    for ext in a:
        assert is_linear_extension(j, ext)
    assert list(sample_linear_extensions(j, 10, seed=43)) != a


# The generators as they were before they walked masks: the minimal points
# are re-scanned from the remaining set at every step.  Kept as the oracle.


def _old_minimal_points(remaining):
    return sorted(p for p in remaining
                  if not any(q in remaining for q in lower_covers(p)))


def _old_linear_extensions(ideal):
    remaining = set(ideal)
    acc = []

    def rec():
        if not remaining:
            yield tuple(acc)
            return
        for p in _old_minimal_points(remaining):
            remaining.remove(p)
            acc.append(p)
            yield from rec()
            acc.pop()
            remaining.add(p)

    yield from rec()


def _old_count_linear_extensions(ideal):
    @lru_cache(maxsize=None)
    def count(remaining):
        if not remaining:
            return 1
        return sum(count(remaining - {p}) for p in _old_minimal_points(set(remaining)))

    return count(frozenset(ideal))


def _old_sample_linear_extensions(ideal, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        remaining = set(ideal)
        out = []
        while remaining:
            p = rng.choice(_old_minimal_points(remaining))
            remaining.remove(p)
            out.append(p)
        yield tuple(out)


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (2, 2, 3), (3, 3)])
def test_mask_generators_match_rescanning_oracle(dims):
    for j in all_order_ideals(box_table(dims)):
        assert list(linear_extensions(j)) == list(_old_linear_extensions(j))
        assert count_linear_extensions(j) == _old_count_linear_extensions(j)
        assert (list(sample_linear_extensions(j, 5, seed=7))
                == list(_old_sample_linear_extensions(j, 5, seed=7)))


def test_mask_generators_match_oracle_on_seeded_3x3x4_ideals():
    for k, j in enumerate(random_order_ideals(box_table((3, 3, 4)), 20, seed=11)):
        total = count_linear_extensions(j)
        assert total == _old_count_linear_extensions(j)
        if total <= 500:
            assert list(linear_extensions(j)) == list(_old_linear_extensions(j))
        assert (list(sample_linear_extensions(j, 10, seed=k))
                == list(_old_sample_linear_extensions(j, 10, seed=k)))


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (1, 4), (3, 2, 2)])
def test_minimal_and_rank_order_match_the_tuple_definitions_on_every_subset(dims):
    table = box_table(dims)
    points = table.points
    for mask in range(1 << len(points)):
        pts = {p for j, p in enumerate(points) if mask >> j & 1}
        minimal = {p for p in pts if not any(q in pts for q in lower_covers(p))}
        assert table.minimal(mask) == table.mask_of(minimal)
        assert [points[j] for j in table.rank_order(mask)] == sorted(pts, key=lambda p: (sum(p), p))


def test_all_order_ideals_counts():
    # 2xn grid ideals are counted by binomial(n+2, 2); [2]^3 by Dedekind's 20
    assert sum(1 for _ in all_order_ideals(box_table((2, 3)))) == 10 - 1
    assert sum(1 for _ in all_order_ideals(box_table((2, 2, 2)))) == 20 - 1
    assert sum(1 for _ in all_order_ideals(box_table((2, 2, 2, 2)))) == 168 - 1


def test_all_order_ideals_are_ideals():
    for j in all_order_ideals(box_table((2, 2, 2))):
        assert is_order_ideal(j.box, j)


@pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3), (2, 2, 2), (3, 3), (2, 2, 3),
                                  (2, 2, 2, 2), (4, 4), (2, 8), (3, 5)])
def test_all_order_ideals_match_the_set_oracle(dims):
    box = box_table(dims)
    assert list(all_order_ideals(box)) == list(all_order_ideals_by_sets(box))


def test_random_ideals_deterministic():
    box = box_table((3, 3, 4))
    a = random_order_ideals(box, 10, seed=1)
    b = random_order_ideals(box, 10, seed=1)
    assert [set(x) for x in a] == [set(y) for y in b]
    for j in a:
        assert is_order_ideal(box, j)


def test_ideal_json():
    box = box_table((2, 2))
    j = ideal_from_points(box, [(1, 0)])
    assert j.to_json() == [[0, 0], [1, 0]]
