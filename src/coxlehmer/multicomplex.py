"""Finite multicomplexes, i.e. order ideals of a product of chains.

Points are stored zero-based, so the rank of a point is the plain sum of its
entries; the one-based view used by the facet construction shifts at that
boundary only.  Covers and facet masks come from one `box_table` per box.
Includes the Macaulay growth test for f-vectors of multicomplexes, and
exhaustive, counted or seeded-random linear extensions, all driven by one
`Frontier`: the sorted minimal points of what is left of an ideal, kept by
counting each point's untaken lower covers.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import Iterable, Iterator


@dataclass(frozen=True)
class ChainProduct:
    """Ambient box: the product of chains of sizes dims[i] (points 0..d_i-1)."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError(f"chain sizes must be >= 1, got {self.dims}")

    def points(self) -> Iterator[tuple[int, ...]]:
        """Every point, in lexicographic order."""
        return itertools.product(*map(range, self.dims))

    def size(self) -> int:
        return prod(self.dims)


def lower_covers(point):
    for i, x in enumerate(point):
        if x:
            yield point[:i] + (x - 1,) + point[i + 1 :]


def upper_covers(point, dims):
    for i, x in enumerate(point):
        if x + 1 < dims[i]:
            yield point[:i] + (x + 1,) + point[i + 1 :]


def meet(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Componentwise minimum, the lattice meet in a product of chains."""
    return tuple(map(min, x, y))


class _BoxTable(dict):
    """point -> (lower covers, upper covers, facet mask) in the box `dims`,
    built at the point's first lookup (ValueError outside the box).  Cover
    tuples hold the table's own point objects, interned in `_keys`."""

    def __init__(self, dims: tuple[int, ...]):
        self.dims, self._keys = dims, {}

    def __missing__(self, p):
        from .simplicial import _facet_masks  # simplicial imports this module

        dims = self.dims
        if len(p) != len(dims) or not all(0 <= x < d for x, d in zip(p, dims)):
            raise ValueError(f"point {p} outside ambient {dims}")
        key = self._keys.setdefault
        p = key(p, p)
        entry = self[p] = (tuple(key(q, q) for q in lower_covers(p)),
                           tuple(key(q, q) for q in upper_covers(p, dims)),
                           _facet_masks(dims, (p,))[0])
        return entry


box_table = lru_cache(maxsize=None)(_BoxTable)  # one shared table per box dims


class OrderIdeal:
    """A downward-closed set of points in a ChainProduct."""

    __slots__ = ("ambient", "points")

    def __init__(self, ambient: ChainProduct, points: Iterable[tuple[int, ...]], *,
                 _trusted: bool = False):
        self.ambient = ambient
        pts = frozenset(tuple(p) for p in points)
        if not _trusted:  # one box check and one closure check per point
            table = box_table(ambient.dims)  # ValueError outside the box
            if not all(q in pts for p in pts for q in table[p][0]):
                raise ValueError("point set is not downward closed")
        self.points = pts

    def __contains__(self, point) -> bool:
        return tuple(point) in self.points

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return (isinstance(other, OrderIdeal) and self.ambient == other.ambient
                and self.points == other.points)

    def __hash__(self):
        return hash((self.ambient, self.points))

    def maxima(self) -> set[tuple[int, ...]]:
        pts, table = self.points, box_table(self.ambient.dims)
        return {p for p in pts if not any(q in pts for q in table[p][1])}

    def f_polynomial(self):
        from .qpoly import IntPolynomial

        if not self.points:
            raise ValueError("the empty ideal has no rank generating function")
        coeffs = [0] * (sum(d - 1 for d in self.ambient.dims) + 1)
        for p in self.points:
            coeffs[sum(p)] += 1
        return IntPolynomial(coeffs)

    def is_full_box(self) -> bool:
        return len(self.points) == self.ambient.size()

    def to_json(self) -> list[list[int]]:
        return [list(p) for p in sorted(self.points)]


def ideal_from_points(ambient: ChainProduct, points: Iterable[tuple[int, ...]]) -> OrderIdeal:
    """Downward closure of the given points."""
    table = box_table(ambient.dims)
    todo = [tuple(p) for p in points]
    seen = set(todo)
    while todo:
        for q in table[todo.pop()][0]:  # ValueError outside the box
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return OrderIdeal(ambient, seen, _trusted=True)


def full_ideal(ambient: ChainProduct) -> OrderIdeal:
    return OrderIdeal(ambient, ambient.points(), _trusted=True)


# ---------------------------------------------------------------------------
# Macaulay's criterion


def _macaulay_power(h: int, i: int) -> int:
    """h^<i>: write h in its i-binomial representation and bump every index."""
    out = 0
    j = i
    while h > 0:
        a = j
        while comb(a + 1, j) <= h:
            a += 1
        h -= comb(a, j)
        out += comb(a + 1, j + 1)
        j -= 1
    return out


def is_m_sequence(coeffs: Iterable[int]) -> bool:
    """Whether the sequence is the f-vector of some multicomplex.

    Macaulay's characterization: h_0 = 1 and h_{i+1} <= h_i^<i> for i >= 1,
    treating the sequence as extended by zeros.
    """
    cs = [int(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs or cs[0] != 1 or any(c < 0 for c in cs):
        return False
    for i in range(1, len(cs) - 1):
        if cs[i + 1] > _macaulay_power(cs[i], i):
            return False
    return True


# ---------------------------------------------------------------------------
# linear extensions


class Frontier:
    """The minimal points of an ideal once a prefix of it has been taken.

    `minimal` stays sorted (`bisect.insort`), and `_waiting[p]` counts the
    lower covers of p not yet taken, so p is minimal exactly when it is
    untaken and its count is zero.  `take` accepts only minimal points, so
    the taken prefix is always an order ideal; `give_back` undoes the last
    `take` still standing, which makes depth-first walks exact.
    """

    __slots__ = ("minimal", "_above", "_waiting")

    def __init__(self, ideal: OrderIdeal):
        pts, table = ideal.points, box_table(ideal.ambient.dims)
        self._above = {p: [q for q in table[p][1] if q in pts] for p in pts}
        # every lower cover of an ideal point lies in the ideal
        self._waiting = {p: len(table[p][0]) for p in pts}
        self.minimal = sorted(p for p, k in self._waiting.items() if not k)

    def take(self, p: tuple[int, ...]) -> None:
        minimal = self.minimal
        i = bisect_left(minimal, p)
        if i == len(minimal) or minimal[i] != p:
            raise ValueError(f"point {p} is not minimal among the untaken points")
        del minimal[i]
        waiting = self._waiting
        for q in self._above[p]:
            waiting[q] -= 1
            if not waiting[q]:
                insort(minimal, q)

    def give_back(self, p: tuple[int, ...]) -> None:
        minimal = self.minimal
        waiting = self._waiting
        for q in self._above[p]:
            if not waiting[q]:
                del minimal[bisect_left(minimal, q)]
            waiting[q] += 1
        insort(minimal, p)


def linear_extensions(ideal: OrderIdeal) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Exhaustively generate every linear extension, in lexicographic order."""
    yield from _extensions(Frontier(ideal), [])


def _extensions(frontier: Frontier, acc: list) -> Iterator[tuple[tuple[int, ...], ...]]:
    minimal = frontier.minimal
    if not minimal:
        yield tuple(acc)
        return
    # the frontier is restored after each child, so positions are stable
    for i in range(len(minimal)):
        p = minimal[i]
        frontier.take(p)
        acc.append(p)
        yield from _extensions(frontier, acc)
        acc.pop()
        frontier.give_back(p)


def count_linear_extensions(ideal: OrderIdeal, cap: int | None = None) -> int:
    """Number of linear extensions; stops early once `cap` is exceeded."""
    return _count(Frontier(ideal), frozenset(ideal.points), cap, {})


def _count(frontier: Frontier, remaining: frozenset, cap: int | None, memo: dict) -> int:
    if not remaining:
        return 1
    hit = memo.get(remaining)
    if hit is not None:
        return hit
    total = 0
    minimal = frontier.minimal
    for i in range(len(minimal)):
        p = minimal[i]
        frontier.take(p)
        total += _count(frontier, remaining - {p}, cap, memo)
        frontier.give_back(p)
        if cap is not None and total > cap:
            break
    memo[remaining] = total
    return total


def sample_linear_extensions(ideal: OrderIdeal, count: int,
                             seed: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Seeded random topological shuffles (uniform choice among minima)."""
    rng = random.Random(seed)
    frontier = Frontier(ideal)
    for _ in range(count):
        out = []
        while frontier.minimal:
            p = rng.choice(frontier.minimal)
            frontier.take(p)
            out.append(p)
        for p in reversed(out):
            frontier.give_back(p)
        yield tuple(out)


# ---------------------------------------------------------------------------
# ideal enumeration


def all_order_ideals(ambient: ChainProduct) -> Iterator[OrderIdeal]:
    """Every nonempty order ideal of the box."""
    box = sorted(ambient.points(), key=lambda p: (sum(p), p))
    chosen: set = set()

    def rec(i):
        if i == len(box):
            if chosen:
                yield OrderIdeal(ambient, frozenset(chosen), _trusted=True)
            return
        p = box[i]
        if all(q in chosen for q in lower_covers(p)):
            chosen.add(p)
            yield from rec(i + 1)
            chosen.remove(p)
        yield from rec(i + 1)

    yield from rec(0)


def random_order_ideals(ambient: ChainProduct, count: int, seed: int) -> list[OrderIdeal]:
    """Seeded random ideals: downward closures of a few random points."""
    rng = random.Random(seed)
    box = sorted(ambient.points())
    out = []
    for _ in range(count):
        k = rng.randint(1, 4)
        gens = [box[rng.randrange(len(box))] for _ in range(k)]
        out.append(ideal_from_points(ambient, gens))
    return out
