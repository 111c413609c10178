"""Randomized cross-checks of the trickiest algorithms against brute-force
oracles written straight from the definitions."""

import itertools
import random

from coxlehmer.coxeter import _factor_into_q_analogs
from coxlehmer.intervals import _maxima_polynomial
from coxlehmer.multicomplex import box_table, random_order_ideals
from coxlehmer.qpoly import IntPolynomial, q_analog_product
from coxlehmer.simplicial import verify_shelling
from oracles import (
    complex_from_sets,
    facet_vertices,
    maxima_by_subsets,
    vertex_decomposable_by_search,
)


def brute_shelling_ok(facets, order):
    """The shelling condition verbatim: for i < j there are v in F_j - F_i
    and h < j with F_j - F_h = {v}."""
    seq = [facets[k] for k in order]
    for j in range(len(seq)):
        for i in range(j):
            good = False
            for v in seq[j] - seq[i]:
                if any(seq[j] - seq[h] == {v} for h in range(j)):
                    good = True
                    break
            if not good:
                return False
    return True


def random_pure_complex(rng, nverts=6, size=3, count=4):
    from math import comb

    verts = list(range(nverts))
    count = min(count, comb(nverts, size))
    facets = set()
    while len(facets) < count:
        facets.add(frozenset(rng.sample(verts, size)))
    return [set(f) for f in facets]


def test_verify_shelling_against_brute_force():
    rng = random.Random(977)
    checked = 0
    for _ in range(200):
        facets = random_pure_complex(rng, nverts=rng.randint(4, 7),
                                     size=rng.randint(2, 4),
                                     count=rng.randint(2, 5))
        sc = complex_from_sets(facets)
        if sc.facet_count < 2:
            continue
        count = sc.facet_count
        sets = [set(facet_vertices(sc, i)) for i in range(count)]
        for order in itertools.permutations(range(count)):
            got = verify_shelling(sc, list(order)).ok
            assert got == brute_shelling_ok(sets, order), (facets, order)
            checked += 1
    assert checked > 1000


def test_vertex_decomposable_implies_shellable():
    rng = random.Random(31)
    for _ in range(150):
        count = rng.randint(2, 5)
        facets = random_pure_complex(rng, nverts=rng.randint(4, 6),
                                     size=rng.randint(2, 3), count=count)
        sc = complex_from_sets(facets)
        if not sc.is_pure():
            continue
        r = sc.facet_count
        some_shelling = any(verify_shelling(sc, list(order)).ok
                            for order in itertools.permutations(range(r)))
        if vertex_decomposable_by_search(sc):
            assert some_shelling, facets


def test_inclusion_exclusion_over_maxima_on_arbitrary_ideals():
    # the union-of-boxes identity holds for every order ideal, not only
    # images of Bruhat intervals; skip wide ideals to keep 2^|maxima| small
    checked = 0
    for seed in (5, 6, 7):
        for ideal in random_order_ideals(box_table((3, 3, 4)), 25, seed):
            if len(ideal.maxima()) > 7:
                continue
            checked += 1
            expected = ideal.f_polynomial()
            assert maxima_by_subsets(ideal) == expected, ideal.to_json()
            assert _maxima_polynomial(ideal) == expected, ideal.to_json()
    assert checked >= 50


def test_exponent_factorization_roundtrip():
    rng = random.Random(4096)
    for _ in range(100):
        exps = sorted(rng.randint(1, 9) for _ in range(rng.randint(1, 5)))
        poly = q_analog_product(e + 1 for e in exps)
        got = _factor_into_q_analogs(poly, len(exps))
        assert got is not None
        assert sorted(d - 1 for d in got) == exps
        # uniqueness of the multiset: the recovered product matches exactly
        assert q_analog_product(got) == poly


def test_factorization_rejects_non_products():
    assert _factor_into_q_analogs(IntPolynomial([1, 1, 2]), 2) is None
    assert _factor_into_q_analogs(IntPolynomial([1, 2]), 1) is None
    assert _factor_into_q_analogs(IntPolynomial([1, 1, 1]), 2) is None
    # (1 - q)^2 (1 + 2q) = 1 - 3q^2 + 2q^3: the first peel of 1 - q^2 leaves
    # 2q^3 - 2q^4 past the quotient, so the division is inexact
    assert _factor_into_q_analogs(IntPolynomial([1, 2]), 2) is None
    for k in range(4):
        assert _factor_into_q_analogs(IntPolynomial(), k) is None
    # a [1]_q factor is no factor of degree >= 2: k of them are one too many
    assert _factor_into_q_analogs(IntPolynomial([1]), 1) is None
    assert _factor_into_q_analogs(q_analog_product((1, 3)), 2) is None
    assert _factor_into_q_analogs(q_analog_product((2, 1, 4, 1)), 4) is None
    assert _factor_into_q_analogs(q_analog_product((2, 1, 4, 1)), 2) == [2, 4]


def test_factorization_of_arbitrary_polynomials():
    # the peel returns degrees only for a true factorization into k q-integers
    # of degree >= 2, and finds every product of k of them ([1]_q is 1)
    rng = random.Random(2718)
    found = 0
    for _ in range(2000):
        k = rng.randint(0, 6)
        ns = sorted(rng.randint(1, 10) for _ in range(rng.randint(0, 7)))
        poly = q_analog_product(ns)
        kind = rng.randrange(3)
        expected = [n for n in ns if n >= 2] if kind == 2 else None
        if kind == 0:
            poly = IntPolynomial(rng.randint(-2, 3) for _ in range(rng.randint(0, 14)))
        elif kind == 1:  # a product with one coefficient moved, which no peel may accept
            cs = list(poly.coeffs)
            cs[rng.randrange(len(cs))] += rng.choice((-2, -1, 1, 2))
            poly = IntPolynomial(cs)
        got = _factor_into_q_analogs(poly, k)
        if got is not None:
            found += 1
            assert len(got) == k and all(d >= 2 for d in got), (poly, k, got)
            assert q_analog_product(got) == poly
        if expected is not None:
            assert got == (expected if len(expected) == k else None), (poly, k, got)
    assert found > 50
