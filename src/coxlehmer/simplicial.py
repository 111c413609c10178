"""Pure simplicial complexes with bitset facets.

A `SimplicialComplex` is given its distinct maximal faces and keeps them in
the order given.  Houses the complex of an order ideal of a product of
chains (`complex_of_ideal`, one facet per point, per the displayed union of
punctured coordinate classes; the full box's complex is the full ideal's),
the generic shelling check with restriction sets for any facet order
(`verify_shelling`, the reference the tests compare against), one shelling
step rule for ideal complexes (`_shelling_step`, which reads the earlier
facets by coordinate line, O(rank) per step) shared by `ShellingState`,
which pushes one linear extension (the `complex` route), and
`box_shelling_steps`, which walks a full box once and reports each
point's step, the same for every order ideal that the point is minimal
outside (the shellings suite), the f/h transforms, the flag check, and
the shedding-lemma certificate of vertex decomposability (the vd suite).

Vertices of box complexes are (value, coordinate) pairs with values written
one-based, matching the construction's indexing; order-ideal points arrive
zero-based and are shifted here, at the boundary.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Iterable, Sequence

from .coxeter import _bits
from .multicomplex import ChainProduct, OrderIdeal, _BoxTable, box_table, full_ideal, lower_covers
from .qpoly import IntPolynomial


class SimplicialComplex:
    """A complex stored by its facets, bitmasks over the vertex tuple
    `vertices` (bit b is vertices[b]).

    The facets given must be the complex's distinct maximal faces; they are
    kept in the order given, and nothing is dropped or merged.
    """

    def __init__(self, facets: Iterable[int], vertices: Sequence,
                 labels: Sequence | None = None, dims: tuple[int, ...] | None = None):
        self.vertices = tuple(vertices)
        self.facets = tuple(facets)
        self.labels = tuple(labels) if labels is not None else None
        self.dims = dims
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

    def _unpack(self, mask: int) -> frozenset:
        return frozenset(self.vertices[b] for b in _bits(mask))

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
def _omitted_bits(dims: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The box complex's one facet rule.  Vertex (v, i), v one-based, is bit
    offset_i + v - 1 with offset_i = d_1 + ... + d_{i-1}; the facet of a
    zero-based point x is every vertex but (d_i - x_i, i) in each class i.
    Entry [i][x] is the bit of the vertex class i omits at x_i = x."""
    out, offset = [], 0
    for d in dims:
        out.append(tuple(1 << (offset + d - x - 1) for x in range(d)))
        offset += d
    return tuple(out)


def _facet_masks(dims: tuple[int, ...], points) -> list[int]:
    """The facet mask of each zero-based point: all vertices but the omitted."""
    omitted = _omitted_bits(dims)
    full = (1 << sum(dims)) - 1
    return [full ^ sum(bits[x] for bits, x in zip(omitted, p)) for p in points]


def build_box_complex(dims: Sequence[int]) -> SimplicialComplex:
    """The pure complex with one facet per point of the full box."""
    return complex_of_ideal(full_ideal(ChainProduct(tuple(dims))))


def complex_of_ideal(ideal: OrderIdeal) -> SimplicialComplex:
    """The subcomplex of the box complex with facets at the ideal's points,
    labeled by the one-based points in rank-then-lex order."""
    if not len(ideal):
        raise ValueError("the empty ideal has no complex")
    dims = ideal.ambient.dims
    table = box_table(dims)
    pts = [table.points[j] for j in ideal.rank_order()]
    vertices = [(v, i) for i, d in enumerate(dims, start=1) for v in range(1, d + 1)]
    return SimplicialComplex(_facet_masks(dims, pts), vertices,
                             labels=[tuple(x + 1 for x in p) for p in pts], dims=dims)


# ---------------------------------------------------------------------------
# shelling


class ShellingResult:
    __slots__ = ("ok", "restrictions", "h_vector", "violation")

    def __init__(self, ok, restrictions=None, h_vector=None, violation=None):
        self.ok = ok
        self.restrictions = restrictions
        self.h_vector = h_vector
        self.violation = violation

    def __bool__(self):
        return self.ok


def verify_shelling(sc: SimplicialComplex, order: Sequence[int]) -> ShellingResult:
    """Check a facet order against the shelling condition.

    On success returns the restriction sets (new faces' minimal vertices)
    and the h-vector counting restriction sizes.  On failure reports the
    first offending pair of positions.
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
    restrictions = []
    for j, fj in enumerate(seq):
        gj = 0
        bits = [1 << b for b in _bits(fj)]
        for bit in bits:
            if fj ^ bit in seen_subfaces:
                gj |= bit
        for i in range(j):
            if gj & ~seq[i] == 0:  # every candidate vertex already in F_i
                return ShellingResult(False, violation=(order[i], order[j]))
        restrictions.append(gj)
        for bit in bits:
            seen_subfaces.add(fj ^ bit)

    h_vector = [0] * (d1 + 1)
    for gj in restrictions:
        h_vector[gj.bit_count()] += 1
    return ShellingResult(True,
                          restrictions=[sc._unpack(g) for g in restrictions],
                          h_vector=tuple(h_vector))


@lru_cache(maxsize=None)
def _classes(dims: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """Per coordinate class i: (its vertex mask, offset_i + d_i, the box
    table's stride of coordinate i, d_{i+1} ... d_n)."""
    out, offset = [], 0
    for i, d in enumerate(dims):
        out.append((((1 << d) - 1) << offset, offset + d, prod(dims[i + 1:])))
        offset += d
    return tuple(out)


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
    that least point, returned as its lex position with G, is earlier."""
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


class ShellingState:
    """The shelling condition checked one facet at a time along a growing
    order ideal of a box complex.

    `ShellingState(ideal)` reads strides and facet masks from `box_table`.
    `push(point)` appends the facet of a zero-based point of the ideal and
    returns whether the order so far still shells, by `_shelling_step`; it
    refuses a point whose lower covers are not all pushed, so the prefix
    stays an order ideal.  The state keeps the prefix as one flag per box
    point, the facets pushed by line and the h-vector counts."""

    def __init__(self, ideal: OrderIdeal):
        dims = ideal.ambient.dims
        self._table = box_table(dims)
        self._classes = _classes(dims)
        self._lines: dict[int, int] = {}
        self._mask = ideal.mask
        self._done = bytearray(len(self._table.points))
        self._h = [0] * (sum(dims) - len(dims) + 1)
        self.violation = None

    @property
    def h_vector(self) -> tuple[int, ...]:
        return tuple(self._h)

    def push(self, point: tuple[int, ...]) -> bool:
        """Append the facet of `point`.  On failure the state is unchanged
        and `violation` names the earlier point whose facet contains G."""
        table, done = self._table, self._done
        j = table.index.get(point)
        if j is None or not self._mask >> j & 1:
            raise ValueError(f"point {point} has no facet in this complex")
        if done[j] or not all(done[j - s] for x, s in zip(point, table.strides) if x):
            raise ValueError(f"point {point} is not minimal outside the prefix")
        facet = table.facets[j]
        g, least = _shelling_step(self._classes, self._lines, facet)
        if done[least]:
            self.violation = (table.points[least], point)
            return False
        _put_on_lines(self._classes, self._lines, facet)
        self._h[g.bit_count()] += 1
        done[j] = 1
        return True


def shelling_h_polynomial(ideal: OrderIdeal) -> IntPolynomial:
    """h-polynomial of the ideal's complex via its rank-then-lex shelling,
    which is a linear extension of the ideal."""
    state, pts = ShellingState(ideal), box_table(ideal.ambient.dims).points
    for j in ideal.rank_order():
        if not state.push(pts[j]):
            raise AssertionError(
                f"rank order failed to shell the complex at points {state.violation}")
    return IntPolynomial(state.h_vector)


def box_shelling_steps(dims: tuple[int, ...]):
    """Yield (x, whether l(G(x)) = x, |G(x)|) for each zero-based point x of
    the box, in rank-then-lex order, by `_shelling_step` over the earlier
    points.

    For v in class i, F_x - v lies only in F_x and in the facet of the
    point y that moves x along its class-i line.  If x is minimal outside
    an order ideal I, y is in I iff y < x, so G(I, x) = G(x) for every such
    I.  F_x contains G(x), so its least container l(G(x)) is at most x, and
    the step shells iff l(G(x)) = x.  So every linear extension of every
    order ideal of the box shells iff each point passes, with the ideal's
    rank counts for h-vector iff |G(x)| = |x| at each point (Bjorner &
    Wachs, Trans. AMS 348 (1996))."""
    table, classes = _BoxTable(dims), _classes(dims)  # not box_table's: freed after the walk
    lines: dict[int, int] = {}
    for j in (j for level in table.levels for j in _bits(level)):
        facet = table.facets[j]
        g, least = _shelling_step(classes, lines, facet)
        _put_on_lines(classes, lines, facet)
        yield table.points[j], least == j, g.bit_count()


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
    """h-vector from the f-vector through the defining polynomial identity."""
    d1 = dim + 1
    xm1 = IntPolynomial([-1, 1])
    total = IntPolynomial([])
    power = IntPolynomial([1])
    # accumulate f_i (x-1)^(d+1-i) from the top down
    for i in range(d1, -1, -1):
        total = total + power * (f[i] if i < len(f) else 0)
        power = power * xm1
    return tuple(total.coeff(d1 - j) for j in range(d1 + 1))


def f_from_h(h: Sequence[int], dim: int) -> tuple[int, ...]:
    d1 = dim + 1
    xp1 = IntPolynomial([1, 1])
    total = IntPolynomial([])
    power = IntPolynomial([1])
    for j in range(d1, -1, -1):
        total = total + power * (h[j] if j < len(h) else 0)
        power = power * xp1
    return tuple(total.coeff(d1 - i) for i in range(d1 + 1))


# ---------------------------------------------------------------------------
# vertex decomposability


def _shedding_vertex(dims: tuple[int, ...], i: int) -> int:
    """The bit of (d_i, i), the class-i vertex the facets at x_i = 0 omit."""
    return _omitted_bits(dims)[i][0]


def is_vertex_decomposable(ideal: OrderIdeal, memo: dict | None = None) -> bool:
    """Certify that a nonempty ideal's complex is vertex decomposable by the
    shedding lemma (Provan & Billera, Math. Oper. Res. 5 (1980); Bjorner &
    Wachs, Trans. AMS 348 (1996), 11): if I moves in class i, (d_i, i)
    sheds, with deletion the complex of {x in I : x_i = 0} and link that of
    {x - e_i : x_i >= 1} in the box d - e_i.  Share `memo` across calls."""
    if not ideal.mask:
        raise ValueError("the empty ideal has no complex")
    return _shed(ideal.ambient.dims, ideal.mask, {} if memo is None else memo)


def _shed(dims: tuple[int, ...], mask: int, memo: dict) -> bool:
    """The certificate at the point set `mask` of the box `dims`, for i the
    first class it moves in: it holds x - e_i for each x with x_i >= 1, the
    link and the deletion pass, and no point of it is `_failing`.
    `memo` maps dims to the box's own table (not `box_table`'s, so it is
    freed with the memo), its verdicts by mask and `_failing` by class."""
    # the origin alone, mask 1, is a simplex
    table, verdicts, bad = memo.get(dims) or memo.setdefault(dims, (_BoxTable(dims), {1: True}, {}))
    if mask in verdicts:
        return verdicts[mask]
    i = next(i for i, z in enumerate(table.nonzero) if mask & z)
    z, s, sub = table.nonzero[i], table.strides[i], dims[:i] + (dims[i] - 1,) + dims[i + 1:]
    ok = (not (mask & z) >> s & ~mask and _shed(sub, mask >> s, memo)
          and _shed(dims, mask & (1 << s) - 1, memo))
    if ok and i not in bad:  # the link's call made the entry of its box
        bad[i] = _failing(table, i, memo[sub][0].facets)
    verdicts[mask] = ok = ok and not mask & bad[i]
    return ok


def _failing(table: _BoxTable, i: int, sub_facets: list[int]) -> int:
    """The points x with x_k = 0 for k < i (bits j < d_i stride) where the
    lemma fails for v = (d_i, i): v in F_x iff x_i >= 1, and then F_x - v in
    F_y, y = x - x_i e_i (bit j % stride), |F_y| = |F_x|, and F_x - v, bits
    above v shifted down, is the facet of x - e_i (bit j - stride) in d - e_i."""
    v, s, facets, out = _shedding_vertex(table.dims, i), table.strides[i], table.facets, 0
    for j in range(table.dims[i] * s):
        f, g = facets[j], facets[j % s]
        holds = (f & v and not f & ~v & ~g and (g & ~f).bit_count() == 1
                 and f & v - 1 | f >> 1 & ~(v - 1) == sub_facets[j - s]) if j >= s else not f & v
        out |= (not holds) << j
    return out


# ---------------------------------------------------------------------------
# flagness


def is_flag(sc: SimplicialComplex) -> bool:
    """Whether all minimal non-faces have at most two vertices.

    Equivalently every clique of the edge graph is a face; the search walks
    cliques and stops at the first one that fails.
    """
    active = list(_bits(sc.active_vertex_mask()))
    adj = {}
    for a in active:
        m = 0
        for b in active:
            if a != b and any((1 << a | 1 << b) & ~f == 0 for f in sc.facets):
                m |= 1 << b
        adj[a] = m

    def is_face_mask(m):
        return any(m & ~f == 0 for f in sc.facets)

    def rec(clique: int, cand: int) -> bool:
        for b in _bits(cand):
            ncl = clique | 1 << b
            if not is_face_mask(ncl):
                return False
            above = cand & ~((1 << (b + 1)) - 1)
            if not rec(ncl, above & adj[b]):
                return False
        return True

    allm = 0
    for a in active:
        allm |= 1 << a
    return rec(0, allm)


def is_flag_ideal(ideal: OrderIdeal) -> bool:
    """Flagness of an ideal of a 0/1 box, read as a simplicial complex:
    the full box, or every minimal missing point has rank at most two."""
    dims = ideal.ambient.dims
    if any(d != 2 for d in dims):
        raise ValueError(f"flag ideals live in products of 2-chains, got {dims}")
    if ideal.is_full_box():
        return True
    for p in ideal.ambient.points():
        if p not in ideal:
            if all(q in ideal for q in lower_covers(p)) and sum(p) > 2:
                return False
    return True

