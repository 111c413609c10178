"""Exact polynomials in one variable q with integer coefficients.

Coefficients are arbitrary-precision ints stored densely from the constant
term up, with trailing zeros trimmed, so structural equality is polynomial
equality.  These carry every generating function in the package: q-analogs,
Poincare polynomials of intervals, f- and h-polynomials.  The class has no
arithmetic: products of q-integers are `q_analog_product`'s running sums.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import Iterable


class IntPolynomial:
    """A polynomial over the integers.

    >>> IntPolynomial([1, 2, 0, 0]).coeffs
    (1, 2)
    >>> q_analog_product([2, 3]).coeffs
    (1, 2, 2, 1)
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        t = tuple(int(c) for c in coeffs)
        end = len(t)
        while end and t[end - 1] == 0:
            end -= 1
        self.coeffs = t[:end]

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def text(self) -> str:
        """Render like "1 + 3*q + 5*q^2 + 4*q^3 + q^4"."""
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            elif i == 1:
                term = "q" if mag == 1 else f"{mag}*q"
            else:
                term = f"q^{i}" if mag == 1 else f"{mag}*q^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.text()!r})"


def q_analog_product(ns: Iterable[int]) -> IntPolynomial:
    """prod [n]_q over ns (1 if empty), where [n]_q = 1 + q + ... + q^(n-1)
    for n >= 1.  Times [n]_q, coefficient i is c_(i-n+1) + ... + c_i, a
    running sum of c_i - c_(i-n): O(degree).

    >>> q_analog_product([4]).coeffs
    (1, 1, 1, 1)
    """
    coeffs = [1]
    for n in ns:
        if n < 1:
            raise ValueError(f"q-analog is defined for n >= 1, got {n}")
        coeffs = list(accumulate(map(sub, coeffs + [0] * (n - 1), [0] * n + coeffs)))
    return IntPolynomial(coeffs)
