"""Pure simplicial complexes with bitset facets.

Houses the complex built from a product of chains (one facet per box point,
per the displayed union of punctured coordinate classes), shelling
verification with restriction sets, the f/h transforms, and the recursive
vertex-decomposability and flag checks.

Vertices of box complexes are (value, coordinate) pairs with values written
one-based, matching the construction's indexing; order-ideal points arrive
zero-based and are shifted here, at the boundary.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .coxeter import SizeLimitError, _bits
from .multicomplex import ChainProduct, OrderIdeal
from .qpoly import IntPolynomial


class SimplicialComplex:
    """A complex stored by its facets over a fixed vertex universe."""

    def __init__(self, facets: Iterable[Iterable[Hashable]], universe=None,
                 labels: Sequence | None = None, dims: tuple[int, ...] | None = None):
        facet_sets = [frozenset(f) for f in facets]
        if universe is None:
            seen = set()
            for f in facet_sets:
                seen |= f
            universe = sorted(seen)
        self.vertices = tuple(universe)
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        masks = []
        for f in facet_sets:
            m = 0
            for v in f:
                m |= 1 << self.vertex_index[v]
            masks.append(m)
        keep = _maximalize(masks)
        if labels is not None and len(keep) != len(masks):
            raise ValueError("labels supplied but some facets were not maximal")
        self.facets = tuple(keep)
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
        sizes = {m.bit_count() for m in self.facets}
        return len(sizes) == 1

    def facet_vertices(self, i: int) -> frozenset:
        return self._unpack(self.facets[i])

    def _unpack(self, mask: int) -> frozenset:
        return frozenset(self.vertices[b] for b in _bits(mask))

    def label_index(self):
        if self.labels is None:
            raise ValueError("complex carries no facet labels")
        return {lab: i for i, lab in enumerate(self.labels)}

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


def _maximalize(masks: list[int]) -> list[int]:
    out = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(m & ~k == 0 for k in out):
            out.append(m)
    # keep first-seen order of the survivors
    surv = set(out)
    seen = set()
    ordered = []
    for m in masks:
        if m in surv and m not in seen:
            seen.add(m)
            ordered.append(m)
    return ordered


# ---------------------------------------------------------------------------
# the box complex


def facet_of(x: tuple[int, ...], dims: tuple[int, ...]) -> frozenset:
    """The facet attached to a one-based box point: coordinate class i minus
    its value d_i + 1 - x_i."""
    if len(x) != len(dims) or any(not 1 <= xi <= d for xi, d in zip(x, dims)):
        raise ValueError(f"point {x} outside the box {dims}")
    out = []
    for i, (xi, d) in enumerate(zip(x, dims), start=1):
        missing = d + 1 - xi
        out.extend((v, i) for v in range(1, d + 1) if v != missing)
    return frozenset(out)


def _box_universe(dims):
    return [(v, i) for i, d in enumerate(dims, start=1) for v in range(1, d + 1)]


def build_box_complex(dims: Sequence[int]) -> SimplicialComplex:
    """The pure complex with one facet per point of the full box."""
    dims = tuple(dims)
    amb = ChainProduct(dims)
    pts = [tuple(x + 1 for x in p) for p in sorted(amb.points(), key=lambda p: (sum(p), p))]
    return SimplicialComplex([facet_of(x, dims) for x in pts],
                             universe=_box_universe(dims), labels=pts, dims=dims)


def complex_of_ideal(ideal: OrderIdeal) -> SimplicialComplex:
    """The subcomplex of the box complex with facets at the ideal's points."""
    if not len(ideal):
        raise ValueError("the empty ideal has no complex")
    dims = ideal.ambient.dims
    pts = [tuple(x + 1 for x in p) for p in sorted(ideal.points, key=lambda p: (sum(p), p))]
    return SimplicialComplex([facet_of(x, dims) for x in pts],
                             universe=_box_universe(dims), labels=pts, dims=dims)


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


def order_from_extension(sc: SimplicialComplex,
                         extension: Sequence[tuple[int, ...]]) -> list[int]:
    """Facet order induced by a linear extension of zero-based ideal points."""
    idx = sc.label_index()
    return [idx[tuple(x + 1 for x in p)] for p in extension]


def shelling_h_polynomial(sc: SimplicialComplex) -> IntPolynomial:
    """h-polynomial via the rank-then-lex shelling of a labeled box complex."""
    pts = sorted(sc.labels, key=lambda p: (sum(p), p))
    idx = sc.label_index()
    res = verify_shelling(sc, [idx[p] for p in pts])
    if not res.ok:
        raise AssertionError(f"rank order failed to shell the complex at {res.violation}")
    return IntPolynomial(res.h_vector)


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


_VD_CACHE: dict[tuple[int, ...], bool] = {}


def _pure(masks) -> bool:
    it = iter(masks)
    first = next(it).bit_count()
    return all(m.bit_count() == first for m in it)


def _vd(facets: tuple[int, ...]) -> bool:
    if len(facets) == 1:
        return True  # a simplex, possibly {0}
    key = tuple(sorted(facets))
    hit = _VD_CACHE.get(key)
    if hit is not None:
        return hit
    verts = 0
    for m in facets:
        verts |= m
    result = False
    for b in reversed(list(_bits(verts))):
        bit = 1 << b
        deletion = _maximalize([m & ~bit for m in facets])
        if not _pure(deletion):
            continue  # not a shedding vertex
        link = _maximalize([m & ~bit for m in facets if m & bit])
        if _vd(tuple(link)) and _vd(tuple(deletion)):
            result = True
            break
    _VD_CACHE[key] = result
    return result


def is_vertex_decomposable(sc: SimplicialComplex, max_facets: int = 20) -> bool:
    """Recursive shedding-vertex check with memoization.

    Raises SizeLimitError beyond `max_facets` rather than running an
    unbounded search.
    """
    if not sc.is_pure():
        raise ValueError("vertex decomposability here applies to pure complexes")
    if sc.facet_count > max_facets:
        raise SizeLimitError(
            f"{sc.facet_count} facets exceeds the limit {max_facets}; raise max_facets")
    return _vd(sc.facets)


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
            from .multicomplex import lower_covers

            if all(q in ideal for q in lower_covers(p)) and sum(p) > 2:
                return False
    return True

