"""Finite multicomplexes, i.e. order ideals of a product of chains.

Points are stored zero-based, so the rank of a point is the plain sum of its
entries; the one-based view used by the facet construction shifts at that
boundary only.  A box, the product of chains of sizes `dims`, is one
`box_table(dims)`, shared per dims, which numbers its points in lex
(mixed-radix) order.  An `OrderIdeal` is that table and a bitmask over it:
the table's `covered` shift, one per coordinate class, gives its closure
check, its maxima and the closure of a point set, and rank-then-lex order
reads the box's rank masks; the table also keeps the memo of shelling
steps and, for the maxima route, the memos of unary point codes and
packed box polynomials, each filled on first use and bounded by |box|.
Includes the Macaulay growth test for f-vectors of multicomplexes,
the enumeration of a box's ideals, and exhaustive, counted or seeded-random
linear extensions, which walk the mask of what is left of an ideal and read
its minimal points off it by one shifted AND per class.  `_bits`, which
lists the set bits of a mask, reads these masks and the complexes' bitset
facets in `simplicial`.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from math import comb, prod
from typing import Iterable, Iterator

from .qpoly import IntPolynomial


def _bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lower_covers(point):
    for i, x in enumerate(point):
        if x:
            yield point[:i] + (x - 1,) + point[i + 1 :]


def meet(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Componentwise minimum, the lattice meet in a product of chains."""
    return tuple(map(min, x, y))


class _BoxTable:
    """The table of the box `dims`, the product of chains of sizes dims[i]
    (points 0..d_i - 1), which numbers its points in lex (mixed-radix)
    order so that a set of points is a bitmask.

    Bit j is `points[j]`, and `index` inverts that.  A step down in
    coordinate i moves `strides[i]` bits, `nonzero[i]` marks the points whose
    coordinate i is positive and `levels[r]` those of rank r.  It keeps
    steps, not facets: the memo grows as `simplicial._walk` walks ideals,
    `lines` (as `_shelling_step` reads it), the masks of the points `walked`
    and of the `failing` ones, l(G(x)) != x, and `by_size[k]`, those with
    |G(x)| = k.  Nothing here holds a mask per point (|box|^2 bits).

    Two more memos serve the maxima route, filled on first use, so a query
    on a large box builds only what it reads: `unary_codes`, one code per
    point asked for (`unary`), and `box_polys`, one packed polynomial per
    distinct code asked for (`box_poly`); each holds at most |box| ints."""

    def __init__(self, dims: tuple[int, ...]):
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"chain sizes must be >= 1, got {dims}")
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
        offsets = itertools.accumulate((d - 1 for d in dims[:-1]), initial=0)
        self.fields = tuple((o, (1 << d - 1) - 1) for o, d in zip(offsets, dims))
        self.width = len(self.points).bit_length()
        self.unary_codes, self.box_polys = {}, {}

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

    def covered(self, mask: int) -> int:
        """The points some point of `mask` covers, OR_i (mask & nonzero_i)
        >> stride_i: the dual of `minimal`."""
        out = 0
        for z, s in zip(self.nonzero, self.strides):
            out |= (mask & z) >> s
        return out

    def rank_order(self, mask: int) -> list[int]:
        """The mask's bit positions in rank-then-lex order of their points."""
        return [j for level in self.levels for j in _bits(mask & level)]

    def unary(self, point: tuple[int, ...]) -> int:
        """The point's unary code: coordinate i as x_i ones in a field of
        d_i - 1 bits (`fields`), so the meet of two points is the AND of
        their codes."""
        code = self.unary_codes.get(point)
        if code is None:
            code = self.unary_codes[point] = sum(
                ((1 << x) - 1) << o for x, (o, _) in zip(point, self.fields))
        return code

    def box_poly(self, code: int) -> int:
        """prod [x_i + 1]_q, the box below the point of unary code `code`,
        packed with coefficient r in bits r * `width`: the product of the
        geometric series (2^((x_i + 1) w) - 1) / (2^w - 1).  Its coefficients,
        and those of an ideal's polynomial summed from such terms, count
        box points, at most |box| < 2^width, so no field carries."""
        packed = self.box_polys.get(code)
        if packed is None:
            w = self.width
            field = (1 << w) - 1
            packed = self.box_polys[code] = prod(
                ((1 << ((code >> o & f).bit_count() + 1) * w) - 1) // field
                for o, f in self.fields)
        return packed

    def unpack(self, packed: int) -> IntPolynomial:
        """A polynomial packed as `box_poly` packs, every coefficient in
        0..2^width - 1, read one field per degree up to its top nonzero
        field."""
        w = self.width
        field, top = (1 << w) - 1, -(-packed.bit_length() // w)
        return IntPolynomial(packed >> r * w & field for r in range(top))


box_table = lru_cache(maxsize=None)(_BoxTable)  # one shared table per box dims


class OrderIdeal:
    """A downward-closed set of points of a box, held as `mask`, a bitmask
    over the box table `box`'s points; iterating gives the points."""

    __slots__ = ("box", "mask")

    def __init__(self, box: _BoxTable, mask: int):
        if mask & ~box.full:
            raise ValueError(f"mask has points outside ambient {box.dims}")
        if box.covered(mask) & ~mask:
            raise ValueError("point set is not downward closed")
        self.box, self.mask = box, mask

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        pts = self.box.points
        return (pts[j] for j in _bits(self.mask))

    def __eq__(self, other) -> bool:
        return (isinstance(other, OrderIdeal) and self.box.dims == other.box.dims
                and self.mask == other.mask)

    def __hash__(self):
        return hash((self.box.dims, self.mask))

    def maxima(self) -> set[tuple[int, ...]]:
        """The points with no upper cover in the ideal: the mask minus
        every point that some point of it covers."""
        mask, pts = self.mask, self.box.points
        return {pts[j] for j in _bits(mask & ~self.box.covered(mask))}

    def rank_order(self) -> list[int]:
        """The mask's bit positions in rank-then-lex order of their points,
        a linear extension."""
        return self.box.rank_order(self.mask)

    def f_polynomial(self) -> IntPolynomial:
        if not self.mask:
            raise ValueError("the empty ideal has no rank generating function")
        return IntPolynomial([(self.mask & level).bit_count() for level in self.box.levels])

    def to_json(self) -> list[list[int]]:
        return [list(p) for p in self]


def ideal_from_points(box: _BoxTable, points: Iterable[tuple[int, ...]]) -> OrderIdeal:
    """Downward closure of the given points: `covered` ORed in until the
    mask stops growing."""
    mask = box.mask_of(points)  # ValueError outside the box
    while (grown := mask | box.covered(mask)) != mask:
        mask = grown
    return OrderIdeal(box, mask)


def full_ideal(box: _BoxTable) -> OrderIdeal:
    return OrderIdeal(box, box.full)


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
    table, acc = ideal.box, []

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
    table, memo = ideal.box, {0: 1}

    def count(left):
        hit = memo.get(left)
        if hit is None:
            hit = memo[left] = sum(count(left ^ 1 << j) for j in _bits(table.minimal(left)))
        return hit

    return count(ideal.mask)


def sample_linear_extensions(ideal: OrderIdeal, count: int,
                             seed: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Seeded random topological shuffles (uniform choice among minima)."""
    rng, table = random.Random(seed), ideal.box
    for _ in range(count):
        left, out = ideal.mask, []
        while left:
            j = rng.choice(list(_bits(table.minimal(left))))
            left ^= 1 << j
            out.append(table.points[j])
        yield tuple(out)


# ---------------------------------------------------------------------------
# ideal enumeration


def all_order_ideals(box: _BoxTable) -> Iterator[OrderIdeal]:
    """Every nonempty order ideal of the box: each point in rank-then-lex
    order is taken (first) or left, and taken only over its lower covers."""
    order = box.rank_order(box.full)
    below = [box.covered(1 << j) for j in range(len(box.points))]

    def rec(i, chosen):
        if i == len(order):
            if chosen:
                yield OrderIdeal(box, chosen)
            return
        j = order[i]
        if not below[j] & ~chosen:
            yield from rec(i + 1, chosen | 1 << j)
        yield from rec(i + 1, chosen)

    yield from rec(0, 0)


def random_order_ideals(box: _BoxTable, count: int, seed: int) -> list[OrderIdeal]:
    """Seeded random ideals: downward closures of a few random points."""
    rng, points = random.Random(seed), box.points
    out = []
    for _ in range(count):
        k = rng.randint(1, 4)
        gens = [points[rng.randrange(len(points))] for _ in range(k)]
        out.append(ideal_from_points(box, gens))
    return out
