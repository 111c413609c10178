import random

import pytest

from coxlehmer.qpoly import IntPolynomial, q_analog_product
from oracles import sum_of_products

ZERO, ONE = IntPolynomial(), IntPolynomial([1])


def q_analog(n):
    return q_analog_product([n])


def test_q_analog_one_is_constant():
    assert q_analog(1) == ONE
    assert q_analog_product([]) == ONE


def test_q_analog_four():
    assert q_analog(4).coeffs == (1, 1, 1, 1)


def test_q_analog_product_hand_expansion():
    # (1 + q)(1 + q + q^2) expanded by hand
    assert sum_of_products([(1, [[1, 1], [1, 1, 1]])]).coeffs == (1, 2, 2, 1)
    assert q_analog_product([3, 2]).coeffs == (1, 2, 2, 1)
    assert q_analog_product([2, 3]).coeffs == (1, 2, 2, 1)


def test_q_analog_rejects_zero():
    with pytest.raises(ValueError):
        q_analog(0)


def test_canonical_trimming_and_equality():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0]) == ZERO
    assert IntPolynomial([1, 2]) == IntPolynomial((1, 2, 0))
    assert hash(IntPolynomial([1, 2])) == hash(IntPolynomial((1, 2, 0)))
    # only the zero polynomial is false
    assert not IntPolynomial([0, 0]) and ONE and IntPolynomial([0, -1])


def test_degree():
    assert ZERO.degree == -1
    assert ONE.degree == 0
    assert q_analog(5).degree == 4


def test_product_evaluated_at_one_counts():
    # the coefficient sum is the value at q = 1
    for m in range(1, 21):
        for n in range(1, 21):
            assert sum(q_analog_product([m, n]).coeffs) == m * n


def test_products_of_q_analogs_are_palindromic():
    rng = random.Random(20240531)
    for _ in range(50):
        ns = [rng.randint(1, 7) for _ in range(rng.randint(1, 5))]
        p = q_analog_product(ns)
        assert p.degree == sum(n - 1 for n in ns)
        assert p.coeffs == p.coeffs[::-1]


def test_text_rendering():
    assert IntPolynomial([1, 3, 5, 4, 1]).text() == "1 + 3*q + 5*q^2 + 4*q^3 + q^4"
    assert ZERO.text() == "0"
    assert ONE.text() == "1"
    assert IntPolynomial([0, 1]).text() == "q"
    assert IntPolynomial([1, -2]).text() == "1 - 2*q"
    assert IntPolynomial([-1, 1]).text() == "-1 + q"


def test_json_rendering():
    assert IntPolynomial([1, 3, 5, 4, 1]).to_json() == [1, 3, 5, 4, 1]
    assert ZERO.to_json() == []
