"""Finite multicomplexes, i.e. order ideals of a product of chains.

Points are stored zero-based, so the rank of a point is the plain sum of its
entries; the one-based view used by the facet construction shifts at that
boundary only.  One `box_table` per box numbers its points in lex
(mixed-radix) order, so an `OrderIdeal` is a bitmask over the box: its
closure check and its maxima are one shifted AND per coordinate class, and
rank-then-lex order reads the box's rank masks; the table also keeps the
memo of shelling steps.  Includes the Macaulay growth test for f-vectors of
multicomplexes, the enumeration of a box's ideals, and exhaustive, counted
or seeded-random linear extensions, which walk the mask of what is left of
an ideal and read its minimal points off it by one shifted AND per class.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import Iterable, Iterator

from .coxeter import _bits
from .qpoly import IntPolynomial


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


def lower_covers(point):
    for i, x in enumerate(point):
        if x:
            yield point[:i] + (x - 1,) + point[i + 1 :]


def meet(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Componentwise minimum, the lattice meet in a product of chains."""
    return tuple(map(min, x, y))


class _BoxTable:
    """The shared table of the box `dims`, which numbers its points in lex
    (mixed-radix) order so that a set of points is a bitmask.

    Bit j is `points[j]`, and `index` inverts that.  A step down in
    coordinate i moves `strides[i]` bits, `nonzero[i]` marks the points whose
    coordinate i is positive and `levels[r]` those of rank r.  It keeps
    steps, not facets: the memo grows as `simplicial._walk` walks ideals,
    `lines` (as `_shelling_step` reads it), the masks of the points `walked`
    and of the `failing` ones, l(G(x)) != x, and `by_size[k]`, those with
    |G(x)| = k.  Nothing here holds a mask per point (|box|^2 bits)."""

    def __init__(self, dims: tuple[int, ...]):
        self.dims = dims
        self.points = list(itertools.product(*map(range, dims)))
        self.index = {p: j for j, p in enumerate(self.points)}
        self.full = (1 << len(self.points)) - 1
        self.strides = tuple(prod(dims[i + 1:]) for i in range(len(dims)))
        # coordinate i is 0 on the first stride bits of every period d * stride
        self.nonzero = tuple(self.full ^ ((1 << s) - 1) * (self.full // ((1 << d * s) - 1))
                             for d, s in zip(dims, self.strides))
        levels, block = [1], 1  # rank masks of the box dims[i:], built from the last class
        for d in reversed(dims):
            grown = [0] * (len(levels) + d - 1)
            for x in range(d):
                for r, m in enumerate(levels):
                    grown[r + x] |= m << x * block
            levels, block = grown, block * d
        self.levels = levels
        self.lines, self.walked, self.failing, self.by_size = {}, 0, 0, {}

    def mask_of(self, points: Iterable[tuple[int, ...]]) -> int:
        """The mask of the given points (ValueError outside the box)."""
        index, mask = self.index, 0
        for p in points:
            j = index.get(tuple(p))
            if j is None:
                raise ValueError(f"point {tuple(p)} outside ambient {self.dims}")
            mask |= 1 << j
        return mask

    def minimal(self, mask: int) -> int:
        """The points of `mask` none of whose lower covers is in it: the
        mask minus OR_i (mask << stride_i) & nonzero_i."""
        covering = 0
        for z, s in zip(self.nonzero, self.strides):
            covering |= mask << s & z
        return mask & ~covering

    def rank_order(self, mask: int) -> list[int]:
        """The mask's bit positions in rank-then-lex order of their points."""
        return [j for level in self.levels for j in _bits(mask & level)]


box_table = lru_cache(maxsize=None)(_BoxTable)  # one shared table per box dims


class OrderIdeal:
    """A downward-closed set of points in a ChainProduct, held as `mask`, a
    bitmask over its box table's points; iterating gives the points."""

    __slots__ = ("ambient", "mask", "_table")

    def __init__(self, ambient: ChainProduct, points: Iterable[tuple[int, ...]]):
        table = box_table(ambient.dims)
        self._adopt(ambient, table, table.mask_of(points))

    @classmethod
    def from_mask(cls, ambient: ChainProduct, mask: int) -> "OrderIdeal":
        self = cls.__new__(cls)
        self._adopt(ambient, box_table(ambient.dims), mask)
        return self

    def _adopt(self, ambient, table, mask: int) -> None:
        """Keep `mask` once it lies in the box and holds the lower covers
        of its points: per class, (mask & nonzero_i) >> stride_i."""
        if mask & ~table.full:
            raise ValueError(f"mask has points outside ambient {ambient.dims}")
        if any((mask & z) >> s & ~mask for z, s in zip(table.nonzero, table.strides)):
            raise ValueError("point set is not downward closed")
        self.ambient, self.mask, self._table = ambient, mask, table

    def __contains__(self, point) -> bool:
        j = self._table.index.get(tuple(point))
        return j is not None and bool(self.mask >> j & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        pts = self._table.points
        return (pts[j] for j in _bits(self.mask))

    def __eq__(self, other) -> bool:
        return (isinstance(other, OrderIdeal) and self.ambient == other.ambient
                and self.mask == other.mask)

    def __hash__(self):
        return hash((self.ambient, self.mask))

    def maxima(self) -> set[tuple[int, ...]]:
        """The points with no upper cover in the ideal: the mask minus every
        point that some point of it covers, OR_i (mask & nonzero_i) >> stride_i."""
        mask, table = self.mask, self._table
        covered = 0
        for z, s in zip(table.nonzero, table.strides):
            covered |= (mask & z) >> s
        pts = table.points
        return {pts[j] for j in _bits(mask & ~covered)}

    def rank_order(self) -> list[int]:
        """The mask's bit positions in rank-then-lex order of their points,
        a linear extension."""
        return self._table.rank_order(self.mask)

    def f_polynomial(self) -> IntPolynomial:
        if not self.mask:
            raise ValueError("the empty ideal has no rank generating function")
        return IntPolynomial([(self.mask & level).bit_count() for level in self._table.levels])

    def to_json(self) -> list[list[int]]:
        return [list(p) for p in self]


def ideal_from_points(ambient: ChainProduct, points: Iterable[tuple[int, ...]]) -> OrderIdeal:
    """Downward closure of the given points, closed one class at a time."""
    table = box_table(ambient.dims)
    mask = table.mask_of(points)  # ValueError outside the box
    for d, z, s in zip(ambient.dims, table.nonzero, table.strides):
        for _ in range(d - 1):
            mask |= (mask & z) >> s
    return OrderIdeal.from_mask(ambient, mask)


def full_ideal(ambient: ChainProduct) -> OrderIdeal:
    return OrderIdeal.from_mask(ambient, box_table(ambient.dims).full)


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


def linear_extensions(ideal: OrderIdeal) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Exhaustively generate every linear extension, in lexicographic order:
    each step takes a minimal point of what is left, in ascending bit order."""
    table, acc = ideal._table, []

    def rec(left):
        if not left:
            yield tuple(acc)
            return
        for j in _bits(table.minimal(left)):
            acc.append(table.points[j])
            yield from rec(left ^ 1 << j)
            acc.pop()

    yield from rec(ideal.mask)


def count_linear_extensions(ideal: OrderIdeal) -> int:
    """Number of linear extensions, memoised on the mask of what is left."""
    table, memo = ideal._table, {0: 1}

    def count(left):
        hit = memo.get(left)
        if hit is None:
            hit = memo[left] = sum(count(left ^ 1 << j) for j in _bits(table.minimal(left)))
        return hit

    return count(ideal.mask)


def sample_linear_extensions(ideal: OrderIdeal, count: int,
                             seed: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Seeded random topological shuffles (uniform choice among minima)."""
    rng, table = random.Random(seed), ideal._table
    for _ in range(count):
        left, out = ideal.mask, []
        while left:
            j = rng.choice(list(_bits(table.minimal(left))))
            left ^= 1 << j
            out.append(table.points[j])
        yield tuple(out)


# ---------------------------------------------------------------------------
# ideal enumeration


def all_order_ideals(ambient: ChainProduct) -> Iterator[OrderIdeal]:
    """Every nonempty order ideal of the box: each point in rank-then-lex
    order is taken (first) or left, and taken only over its lower covers."""
    table = box_table(ambient.dims)
    box = table.rank_order(table.full)
    below = [sum(1 << j - s for x, s in zip(p, table.strides) if x)
             for j, p in enumerate(table.points)]

    def rec(i, chosen):
        if i == len(box):
            if chosen:
                yield OrderIdeal.from_mask(ambient, chosen)
            return
        j = box[i]
        if not below[j] & ~chosen:
            yield from rec(i + 1, chosen | 1 << j)
        yield from rec(i + 1, chosen)

    yield from rec(0, 0)


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
