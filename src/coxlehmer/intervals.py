"""Lower Bruhat intervals through a Lehmer code.

A valid code turns the interval below w into an order ideal of the product
of chains, a bitmask over the box written by one scatter of the downset
through `box_index` (`lookup` inverted) and checked once for closure.  This
module computes the interval's rank generating function three independent
ways (direct summation, the h-vector of the attached complex's
rank-then-lex shelling read off the box table's memo of shelling steps,
inclusion-exclusion over the ideal's maxima with its terms grouped by the
meets of their code vectors, each meet one AND of unary-coded points and
each box polynomial one packed int), and classifies elements whose
intervals are full boxes (principal) or lexicographically minimal in their
coordinate orbit (unimodal).
"""

from __future__ import annotations

from itertools import compress
from math import prod

from .codes import LehmerCode
from .coxeter import BruhatPoset
from .multicomplex import OrderIdeal, box_table, meet
from .qpoly import IntPolynomial
from .simplicial import SimplicialComplex, build_box_complex, complex_of_ideal, shelling_h_polynomial

ROUTES = ("direct", "complex", "maxima")
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # a binary string's digits as 0/1 bytes


class InvalidCodeImage(RuntimeError):
    """The image of an interval is not an order ideal: the code is broken."""


# ---------------------------------------------------------------------------
# ideals and complexes of intervals


def interval_ideal(w: int, code: LehmerCode) -> OrderIdeal:
    """The code image of {v : v <= w}: the downset's bits select box
    positions through `box_index`, the code's `lookup` inverted (`compress`),
    each set to "1" in a string of "0"s read in base 2 and checked once to be
    an ideal of the box, which a "1" in the slot past it (no position) fails."""
    poset = code.poset
    box = box_table(code.dims)
    members = bin(poset.downset(w))[:1:-1].encode().translate(_BIT_BYTES)
    buf = bytearray(b"0") * (len(box.points) + 1)
    for j in compress(code.box_index, members):
        buf[j] = 49  # ord("1")
    try:
        return OrderIdeal(box, int(buf[::-1], 2))
    except ValueError:
        raise InvalidCodeImage(
            f"{code.name}: image of the interval below {poset.render(w)} "
            f"is not an order ideal") from None


def group_complex(poset: BruhatPoset) -> SimplicialComplex:
    """The box complex over the group's exponents; no code needed."""
    return build_box_complex(tuple(e + 1 for e in poset.exponents()))


def interval_complex(w: int, code: LehmerCode) -> SimplicialComplex:
    return complex_of_ideal(interval_ideal(w, code))


# ---------------------------------------------------------------------------
# the three Poincare routes


def _maxima_polynomial(ideal: OrderIdeal) -> IntPolynomial:
    """The ideal's rank generating function by inclusion-exclusion over its
    maxima, terms of equal meet collected (Mobius inversion on the
    meet-semilattice the maxima generate).  `table` holds the coefficient c
    of each meet m in the indicator of the union of the boxes so far, sum of
    c [box below m]; adding the box below x subtracts its intersection with
    that union, the same sum over the meets of m and x.  The work is k
    times the number of distinct meets, at most k |ideal| for k maxima.
    Points are keyed by their unary codes, so a meet is one AND; the
    answer is one multiply-add of the packed box polynomial per nonzero
    entry, unpacked once (`_BoxTable.unary`, `box_poly`, `unpack`)."""
    box = ideal.box
    unary, box_poly = box.unary, box.box_poly
    table: dict[int, int] = {}
    get = table.get
    for x in ideal.maxima():
        u = unary(x)
        for m, c in list(table.items()):
            y = m & u
            table[y] = get(y, 0) - c
        table[u] = get(u, 0) + 1
    return box.unpack(sum(c * box_poly(m) for m, c in table.items() if c))


def interval_poincare(w: int, code: LehmerCode | BruhatPoset,
                      route: str = "direct") -> IntPolynomial:
    """Rank generating function of {v : v <= w} by the chosen route.

    "direct" sums q^length over the interval; "complex" reads the h-vector
    off a shelling of the interval's complex; "maxima" runs
    inclusion-exclusion over the ideal's maximal points, with meets taken
    componentwise and the terms grouped by meet (`_maxima_polynomial`).
    The direct route reads no code, so it also takes the poset itself.
    """
    if route == "direct":
        poset = code if isinstance(code, BruhatPoset) else code.poset
        return IntPolynomial(poset.interval_poincare_coeffs(w))
    if route == "complex":
        return shelling_h_polynomial(interval_ideal(w, code))
    if route == "maxima":
        return _maxima_polynomial(interval_ideal(w, code))
    raise ValueError(f"unknown route {route!r}; valid: {', '.join(ROUTES)}")


# ---------------------------------------------------------------------------
# code meets


def code_meet(u: int, v: int, code: LehmerCode) -> int:
    return code.element(meet(code.of(u), code.of(v)))


# ---------------------------------------------------------------------------
# principal and unimodal elements


def is_principal(poset: BruhatPoset, w: int, vec: tuple[int, ...]) -> bool:
    """Whether [e, w] is the whole box below its code vector `vec`.

    A valid code's inverse is order preserving, so the box below `vec` lies
    inside the image of [e, w], and the two are equal exactly when [e, w]
    has the box's volume.  A box's coatoms are its nonzero coordinates and
    the code sends length to coordinate sum, so a principal w has as many
    lower covers as `vec` has nonzero entries: only elements whose counts
    agree pay the popcount of their downset.
    """
    return (len(poset.covers_down[w]) == len(vec) - vec.count(0)
            and poset.downset(w).bit_count() == prod(x + 1 for x in vec))


def principal_set(code: LehmerCode) -> list[int]:
    poset = code.poset
    return [w for w, vec in enumerate(code.vectors) if is_principal(poset, w, vec)]


def unimodal_set(code: LehmerCode) -> list[int]:
    """Principal elements whose code is lexicographically least in its
    coordinate orbit among principal codes.  That orbit is exactly the
    principal codes with the same multiset of entries, so the least code
    per sorted entry tuple is kept."""
    pr = principal_set(code)
    vecs = [code.of(w) for w in pr]
    least: dict[tuple[int, ...], tuple[int, ...]] = {}
    for vec in sorted(vecs):
        least.setdefault(tuple(sorted(vec)), vec)
    keep = set(least.values())
    return [w for w, vec in zip(pr, vecs) if vec in keep]


# ---------------------------------------------------------------------------
# palindromic intervals


def palindromic_intervals(poset: BruhatPoset) -> set[IntPolynomial]:
    """Distinct palindromic rank generating functions of lower intervals.

    Rank 1 of [e, w] holds its atoms, the generators in w's support: its
    BFS parent's support, the parent being its first lower cover, and its
    last letter.  Rank l(w) - 1 holds w's lower covers.  An element whose
    two counts differ is skipped without reading its downset, and every
    survivor has all its coefficients checked.
    """
    out = set()
    covers_down, last = poset.covers_down, poset.last
    support = [0]  # the generators of each element's words, as a bitmask
    for w in range(1, poset.size):
        support.append(support[covers_down[w][0]] | 1 << last[w])
    for w in range(poset.size):
        if support[w].bit_count() != len(covers_down[w]):
            continue
        cs = poset.interval_poincare_coeffs(w)
        if cs == cs[::-1]:
            out.add(IntPolynomial(cs))
    return out


def interval_polynomials(poset: BruhatPoset, elements) -> set[IntPolynomial]:
    return {IntPolynomial(poset.interval_poincare_coeffs(w)) for w in elements}

