"""Pure simplicial complexes with bitset facets.

A `SimplicialComplex` is given its distinct maximal faces and keeps them in
the order given.  Houses the complex of an order ideal of a product of
chains (`complex_of_ideal`, one facet per point, per the displayed union of
punctured coordinate classes; the full box's complex is the full ideal's),
the generic shelling check and h-vector for any facet order
(`verify_shelling`, the reference the tests compare against), one shelling
step rule for ideal complexes (`_shelling_step`, which reads the earlier
facets by coordinate line, O(rank) per step), one walk that runs it over
the points of an order ideal not yet walked and keeps each point's step in
a memo on the box table (`_walk`; a point's step is the same for every
order ideal that it is minimal outside), read by the `complex` route
(`shelling_h_polynomial`) and, over a whole uncached box, by the shellings
suite (`box_shelling_steps`), the f/h transforms, the flag checks (a
clique search for any complex; for an ideal of a 0/1 box, the ranks of the
box table's minimal points outside it, `is_flag_ideal`), and the
vertex-decomposability certificate (`join_certificate`, one check per point
that its facet is the join of one chain facet per class, the vd suite).

Vertices of box complexes are (value, coordinate) pairs with values written
one-based, matching the construction's indexing; order-ideal points arrive
zero-based and are shifted here, at the boundary.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import rshift
from typing import Iterable, Sequence

from .multicomplex import OrderIdeal, _BoxTable, _bits, box_table, full_ideal, strides
from .qpoly import IntPolynomial


class SimplicialComplex:
    """A complex stored by its facets, bitmasks over the vertex tuple
    `vertices` (bit b is vertices[b]).

    The facets given must be the complex's distinct maximal faces; they are
    kept in the order given, and nothing is dropped or merged.
    """

    def __init__(self, facets: Iterable[int], vertices: Sequence,
                 labels: Sequence | None = None):
        self.vertices = tuple(vertices)
        self.facets = tuple(facets)
        self.labels = tuple(labels) if labels is not None else None
        if not self.facets:
            raise ValueError("a simplicial complex needs at least one facet")

    # -- basics

    @property
    def facet_count(self) -> int:
        return len(self.facets)

    @property
    def dimension(self) -> int:
        return max(m.bit_count() for m in self.facets) - 1

    def is_pure(self) -> bool:
        return len({m.bit_count() for m in self.facets}) == 1

    def active_vertex_mask(self) -> int:
        m = 0
        for f in self.facets:
            m |= f
        return m

    def to_json(self) -> dict:
        doc = {
            "dim": self.dimension,
            "vertices": [list(v) if isinstance(v, tuple) else v for v in self.vertices],
            "facets": [sorted(_bits(m)) for m in self.facets],
        }
        if self.labels is not None:
            doc["labels"] = [list(x) for x in self.labels]
        return doc


# ---------------------------------------------------------------------------
# the box complex


@lru_cache(maxsize=None)
def _classes(dims: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """The box complex's one facet rule, per coordinate class i: (its vertex
    mask, top_i = offset_i + d_i, coordinate i's stride in a box position,
    `strides(dims)[i]`).  Vertex (v, i), v one-based, is bit offset_i + v - 1
    with offset_i = d_1 + ... + d_{i-1}; the facet of a zero-based point x
    is every vertex but (d_i - x_i, i) in each class i, bit top_i - 1 - x_i."""
    out, offset = [], 0
    for d, s in zip(dims, strides(dims)):
        out.append((((1 << d) - 1) << offset, offset + d, s))
        offset += d
    return tuple(out)


def _facet_masks(dims: tuple[int, ...], points) -> list[int]:
    """The facet mask of each zero-based point: all vertices but the omitted,
    bit top_i - 1 - x_i of each class, (1 << top_i - 1) >> x_i."""
    highs = [1 << top - 1 for _, top, _ in _classes(dims)]
    full = (1 << sum(dims)) - 1
    return [full ^ sum(map(rshift, highs, p)) for p in points]


def build_box_complex(dims: Sequence[int]) -> SimplicialComplex:
    """The pure complex with one facet per point of the full box."""
    return complex_of_ideal(full_ideal(box_table(tuple(dims))))


def complex_of_ideal(ideal: OrderIdeal) -> SimplicialComplex:
    """The subcomplex of the box complex with facets at the ideal's points,
    labeled by the one-based points in rank-then-lex order."""
    if not len(ideal):
        raise ValueError("the empty ideal has no complex")
    dims, points = ideal.box.dims, ideal.box.points
    pts = [points[j] for j in ideal.rank_order()]
    vertices = [(v, i) for i, d in enumerate(dims, start=1) for v in range(1, d + 1)]
    return SimplicialComplex(_facet_masks(dims, pts), vertices,
                             labels=[tuple(x + 1 for x in p) for p in pts])


# ---------------------------------------------------------------------------
# shelling


class ShellingResult:
    __slots__ = ("ok", "h_vector", "violation")

    def __init__(self, ok, h_vector=None, violation=None):
        self.ok = ok
        self.h_vector = h_vector
        self.violation = violation

    def __bool__(self):
        return self.ok


def verify_shelling(sc: SimplicialComplex, order: Sequence[int]) -> ShellingResult:
    """Check a facet order against the shelling condition.

    On success returns the h-vector: h_k counts the steps whose new faces'
    least vertex set, the restriction, has k vertices.  On failure reports
    the first offending pair of positions.
    """
    if not sc.is_pure():
        raise ValueError("shelling verification requires a pure complex")
    r = len(sc.facets)
    if sorted(order) != list(range(r)):
        raise ValueError("facet order must list every facet exactly once")
    seq = [sc.facets[i] for i in order]
    d1 = seq[0].bit_count()  # facet cardinality, dim + 1

    # gj collects the vertices v with F_j minus v inside some earlier facet;
    # the order shells iff every earlier facet misses at least one such v
    seen_subfaces = set()
    h_vector = [0] * (d1 + 1)
    for j, fj in enumerate(seq):
        gj = 0
        bits = [1 << b for b in _bits(fj)]
        for bit in bits:
            if fj ^ bit in seen_subfaces:
                gj |= bit
        for i in range(j):
            if gj & ~seq[i] == 0:  # every candidate vertex already in F_i
                return ShellingResult(False, violation=(order[i], order[j]))
        h_vector[gj.bit_count()] += 1
        for bit in bits:
            seen_subfaces.add(fj ^ bit)
    return ShellingResult(True, h_vector=tuple(h_vector))


def _shelling_step(classes, lines: dict[int, int], facet: int) -> tuple[int, int]:
    """The shelling rule for appending a facet of a box complex after a set
    of earlier facets, whatever order they came in, read off `lines`.

    G is the set of vertices v of `facet` whose codim-1 subface facet - v
    lies in an earlier facet.  The facet omits one vertex of each class i,
    and for v in class i, facet - v lies in one other facet of the box: the
    one that omits v instead, on the same class-i line (the points equal
    off coordinate i).  The facets on a class-i line share `facet | cm_i`,
    for cm_i the class's vertex mask, and no two classes share such a key,
    since every facet misses a vertex of each class.  So `lines` maps that
    key to the OR of the class-i vertices the earlier facets on the line
    omit (`_put_on_lines`), and G_i = lines[facet | cm_i] & facet.

    The step shells iff no earlier facet contains G.  The facets containing
    G are those of a product set of box points, least in class i at the x
    whose omitted vertex, bit top_i - 1 - x, is the highest class-i bit
    outside G; so if the earlier points form an order ideal, one does iff
    that least point, returned as its lex position with G, is earlier.
    When the facet's point x is minimal outside them, that least point is
    at most x and every point below x is earlier, so the step shells iff
    it is x: the test `_walk` records."""
    g = least = 0
    get = lines.get
    for cm, top, stride in classes:
        gi = get(facet | cm, 0) & facet
        g |= gi
        least += (top - (cm & ~gi).bit_length()) * stride
    return g, least


def _put_on_lines(classes, lines: dict[int, int], facet: int) -> None:
    """Record `facet` as earlier on its line of every class."""
    for cm, _, _ in classes:
        key = facet | cm
        lines[key] = lines.get(key, 0) | cm & ~facet


class ShellingFailure(RuntimeError):
    """A box complex's rank-then-lex order failed a shelling step."""


def _walk(table: _BoxTable, mask: int) -> None:
    """Extend the table's step memo to the order ideal `mask`: its points
    not yet walked, and only their facets, go through `_shelling_step` in
    rank-then-lex order.
    The walked set is a union of ideals, so an ideal.  For a new point x,
    the points below x on its lines are walked or come earlier in this
    pass, and none above x is walked, or x would be.  So `lines` at x
    holds the facets a rank-lex push of any ideal x is minimal outside
    holds, and the step is that push's (`box_shelling_steps`)."""
    new = mask & ~table.walked
    if not new:
        return
    order = table.rank_order(new)
    classes, lines, by_size = _classes(table.dims), table.lines, table.by_size
    failing = 0
    for j, facet in zip(order, _facet_masks(table.dims, map(table.points.__getitem__, order))):
        g, least = _shelling_step(classes, lines, facet)
        _put_on_lines(classes, lines, facet)
        bit, k = 1 << j, g.bit_count()
        by_size[k] = by_size.get(k, 0) | bit
        if least != j:
            failing |= bit
    table.walked |= new
    table.failing |= failing


def shelling_h_polynomial(ideal: OrderIdeal) -> IntPolynomial:
    """h-polynomial of the ideal's complex via its rank-then-lex shelling,
    which is a linear extension of the ideal, read off the step memo of
    its box table: h_k counts the ideal's points with |G(x)| = k.  Raises
    ShellingFailure at the first point in that order with l(G(x)) != x."""
    table, mask = ideal.box, ideal.mask
    _walk(table, mask)
    if bad := mask & table.failing:
        j = table.rank_order(bad)[0]
        raise ShellingFailure(f"rank order failed to shell the complex at point {table.points[j]}")
    by_size = table.by_size
    return IntPolynomial([(mask & by_size.get(k, 0)).bit_count()
                          for k in range(max(by_size, default=-1) + 1)])


def box_shelling_steps(dims: tuple[int, ...]):
    """Yield (x, whether l(G(x)) = x, |G(x)|) for each zero-based point x of
    the box, in rank-then-lex order, from `_walk` over the whole box.

    For v in class i, F_x - v lies only in F_x and in the facet of the
    point y that moves x along its class-i line.  If x is minimal outside
    an order ideal I, y is in I iff y < x, so G(I, x) = G(x) for every such
    I.  F_x contains G(x), so its least container l(G(x)) is at most x, and
    the step shells iff l(G(x)) = x.  So every linear extension of every
    order ideal of the box shells iff each point passes, with the ideal's
    rank counts for h-vector iff |G(x)| = |x| at each point (Bjorner &
    Wachs, Trans. AMS 348 (1996)).  Passing both pins G(x) to the closed
    form, the top x_i vertices of each class i: l(G(x)) = x needs each of
    them in G(x), and |G(x)| = |x| leaves room for nothing else."""
    table = _BoxTable(dims)  # not box_table's: freed after the walk
    _walk(table, table.full)
    size = {j: k for k, m in table.by_size.items() for j in _bits(m)}
    for j in table.rank_order(table.full):
        yield table.points[j], not table.failing >> j & 1, size[j]


# ---------------------------------------------------------------------------
# f- and h-vectors


def f_vector(sc: SimplicialComplex) -> tuple[int, ...]:
    """Face counts by cardinality, starting from the empty face."""
    faces = set()
    for m in sc.facets:
        sub = m
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
    out = [0] * (sc.dimension + 2)
    for f in faces:
        out[f.bit_count()] += 1
    return tuple(out)


def h_from_f(f: Sequence[int], dim: int) -> tuple[int, ...]:
    """h-vector from the f-vector through the defining polynomial identity,
    sum_j h_j x^(d+1-j) = sum_i f_i (x - 1)^(d+1-i)."""
    return _transform(f, dim, -1)


def f_from_h(h: Sequence[int], dim: int) -> tuple[int, ...]:
    return _transform(h, dim, 1)


def _transform(v: Sequence[int], dim: int, c: int) -> tuple[int, ...]:
    """The coefficients of sum_i v_i (x + c)^(d+1-i), from x^(d+1) down:
    entry j is sum_(i <= j) C(d+1-i, j-i) c^(j-i) v_i (Stanley, Combinatorics
    and Commutative Algebra, II.2).  Entries of v past d + 1 are ignored."""
    d1 = dim + 1
    return tuple(sum(comb(d1 - i, j - i) * c ** (j - i) * v[i]
                     for i in range(min(j + 1, len(v)))) for j in range(d1 + 1))


# ---------------------------------------------------------------------------
# vertex decomposability


def _class_facet(d: int, a: int) -> int:
    """Facet a of one chain of d vertices, vertex v at bit v - 1, by the
    class rule: every vertex but d - a."""
    return (1 << d) - 1 ^ 1 << d - a - 1


def _sheds(d: int, v: int) -> bool:
    """Whether the vertex bit v sheds from one chain of d vertices as the
    join lemma uses it: facet 0 misses v, and each facet a >= 1 holds v,
    lies in facet 0 without it and, its bits above v shifted down, is facet
    a - 1 of the chain of d - 1 vertices."""
    top = _class_facet(d, 0)
    if top & v:
        return False
    for a in range(1, d):
        f = _class_facet(d, a)
        if not f & v or f & ~v & ~top or f & v - 1 | f >> 1 & ~(v - 1) != _class_facet(d - 1, a - 1):
            return False
    return True


def join_certificate(dims: tuple[int, ...], points: Sequence[tuple[int, ...]]) -> list[bool]:
    """Per zero-based point x of the box, whether `_facet_masks` gives it the
    join of the class facets x_i and, in each class i, the top vertex sheds
    (`_sheds`) from the chain of every length d with d_i - x_i < d <= d_i.

    If an order ideal I moves in class i, the chain facts at d_i make
    (d_i, i) shed from its complex, with deletion the complex of
    {x in I : x_i = 0} and link the class-rule complex of {x - e_i : x_i >= 1}
    in the box d - e_i (Provan & Billera, Math. Oper. Res. 5 (1980); Bjorner
    & Wachs, Trans. AMS 348 (1996), 11).  So the complex is vertex
    decomposable if every point of I passes."""
    classes = [[_class_facet(d, a) << top - d for a in range(d)]
               for d, (_, top, _) in zip(dims, _classes(dims))]
    bad = [k for k in range(2, max(dims) + 1) if not _sheds(k, 1 << k - 1)]
    return [facet == sum(c[xi] for c, xi in zip(classes, x))
            and not any(d - xi < k <= d for k in bad for d, xi in zip(dims, x))
            for x, facet in zip(points, _facet_masks(dims, points))]


def is_vertex_decomposable(ideal: OrderIdeal) -> bool:
    """Whether `join_certificate` passes at every point of a nonempty ideal."""
    if not ideal.mask:
        raise ValueError("the empty ideal has no complex")
    return all(join_certificate(ideal.box.dims, list(ideal)))


# ---------------------------------------------------------------------------
# flagness


def is_flag(sc: SimplicialComplex) -> bool:
    """Whether all minimal non-faces have at most two vertices.

    Equivalently every clique of the edge graph is a face; the search walks
    cliques and stops at the first one that fails.
    """
    def is_face_mask(m):
        return any(m & ~f == 0 for f in sc.facets)

    active = list(_bits(sc.active_vertex_mask()))
    adj = {a: sum(1 << b for b in active if b != a and is_face_mask(1 << a | 1 << b))
           for a in active}

    def rec(clique: int, cand: int) -> bool:
        for b in _bits(cand):
            ncl = clique | 1 << b
            if not is_face_mask(ncl):
                return False
            above = cand & ~((1 << (b + 1)) - 1)
            if not rec(ncl, above & adj[b]):
                return False
        return True

    return rec(0, sc.active_vertex_mask())


def is_flag_ideal(ideal: OrderIdeal) -> bool:
    """Flagness of an ideal of a 0/1 box, read as a simplicial complex:
    every minimal point of the box outside it has rank at most two."""
    table = ideal.box
    if any(d != 2 for d in table.dims):
        raise ValueError(f"flag ideals live in products of 2-chains, got {table.dims}")
    return not table.minimal(table.full & ~ideal.mask) & sum(table.levels[3:])

