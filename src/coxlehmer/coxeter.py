"""Finite Coxeter systems: exact element arithmetic and Bruhat combinatorics.

Every system is realized by one-line signed permutations, whose product
`_compose` defines: type A permutes 1..n, types B and D are signed
permutations of 1..n, and H3 and I2(m) permute their root systems (the 30
roots of H3, with coefficients in Z[phi] for phi the golden ratio, and the
2m roots of the 2m-gon), on which every finite Coxeter group acts
faithfully.  All arithmetic is exact; equal tuples are equal group elements.

Enumerating a system yields a BruhatPoset: every element indexed in BFS
order, lengths, the last letter of each BFS word (a word is read off the
BFS parents), and the right multiplication table the BFS fills, applying
each generator as one position map (`_right_actions`, which agrees with
`_compose`); `_compose` itself runs only in the check of the Coxeter
relations.  Inverses (built on first use),
products, left descents and Bruhat covers (by the lifting property) are
all read off that table.  Reachability bitsets hold every lower interval,
so u <= w is one bit test: Bruhat order is graded by length and W has as
many odd-length elements as even-length ones, so only the even-length
downsets are stored, and an odd-length one is one OR over its lower covers.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property, lru_cache
from math import factorial
from operator import itemgetter

from .qpoly import IntPolynomial

# the bytes an enumerated group and its code may store, as tracemalloc
# traces them from build_system through standard_code (a process's fixed
# costs, such as the CLI's parser, are outside it): the downset bitsets,
# |W|^2 / 16, an upper bound about twice what the even-length store holds,
# the one-line elements, 8 bytes per entry, the BFS words, 8
# bytes per letter at N / 2 letters a word, N = l(w0) the number of
# reflections, and PER_ELEMENT_BYTES for the rest an element holds.  The
# letters are budgeted but no longer stored: past its downset and its
# one-line tuple, an element holds one byte, its word's last letter, an
# index entry and a length, its multiplication row and lower covers as
# tuples, and in its code a 2-byte entry per coordinate and a 4-byte
# lookup entry.  That is 62 MB for D6 (23,040 elements) but 6.9 GB for D7
# and 8.7 GB for A8, and 40.25 m^2 + 2,176 m for I2(m), whose elements have
# 2m entries and N = m.  The limit keeps A7, B6, D6 and I2(m) up to m =
# 2,555; it can rise once the model is re-derived for what is stored.  The
# traced peak is 0.43-0.51 of the model on A5, A6, B4, B5, D5, H3 and D6,
# 0.52 on A7 and B6, 0.82 on I2(200) and 0.90 on I2(2555), the largest
# group admitted.
ENUMERATION_LIMIT = 2 ** 28
PER_ELEMENT_BYTES = 1088


class SizeLimitError(RuntimeError):
    """A size bound refuses the computation instead of running it unbounded:
    a group whose enumeration would store more than ENUMERATION_LIMIT
    bytes."""


# ---------------------------------------------------------------------------
# the element kernel


def _compose(a, b):
    # (a . b)(x) = a(b(x)), one-line tuples over +-1..+-n with w(-i) = -w(i)
    return tuple(a[v - 1] if v > 0 else -a[-v - 1] for v in b)


def _right_actions(system) -> list[Callable]:
    """e -> e g for each generator g.  Under `_compose` that moves the
    entries of e to the positions |g(x)| names and negates the slots where
    g is negative (Bjorner-Brenti, GTM 231, 8.1-8.2): one itemgetter call,
    and a sign flip only for B's s1 and D's s0."""
    actions = []
    for g in system.generators:
        # itemgetter of a single index returns the entry, not a tuple
        assert len(g) >= 2, g
        take = itemgetter(*[abs(v) - 1 for v in g])
        negated = [k for k, v in enumerate(g) if v < 0]
        actions.append(_negating(take, negated) if negated else take)
    return actions


def _negating(take, negated):
    def act(e):
        out = list(take(e))
        for k in negated:
            out[k] = -out[k]
        return tuple(out)
    return act


# 2B(alpha_i, alpha_j) = -2cos(pi/m(i,j)) as a + b phi in Z[phi]
_PAIRING = {1: (2, 0), 2: (0, 0), 3: (-1, 0), 5: (0, -1)}


def _root_permutations(matrix):
    """The roots of a Coxeter matrix with bonds in {2, 3, 5}, and its simple
    reflections as one-line permutations of them.

    Roots are coefficient vectors over the simple roots with entries a + b phi
    stored as (a, b): the orbit of the simple roots under
    s_i(beta) = beta - 2B(beta, alpha_i) alpha_i (Humphreys, Reflection Groups
    and Coxeter Groups, 5.4).  W acts faithfully on them, and the length of w
    is the number of positive roots it makes negative."""
    rank = len(matrix)
    pairing = [[_PAIRING[m] for m in row] for row in matrix]

    def reflect(beta, i):
        c0 = c1 = 0
        for (a, b), (p, q) in zip(beta, pairing[i]):
            c0 += a * p + b * q
            c1 += a * q + b * p + b * q
        a, b = beta[i]
        return beta[:i] + ((a - c0, b - c1),) + beta[i + 1:]

    roots = [tuple((1, 0) if j == i else (0, 0) for j in range(rank)) for i in range(rank)]
    index = {r: k for k, r in enumerate(roots)}
    for beta in roots:  # grows as new roots are found
        for i in range(rank):
            r = reflect(beta, i)
            if r not in index:
                index[r] = len(roots)
                roots.append(r)
    return roots, [tuple(index[reflect(beta, i)] + 1 for beta in roots) for i in range(rank)]


# ---------------------------------------------------------------------------
# systems


class CoxeterSystem:
    """A finite Coxeter system with concrete, exactly-represented elements."""

    def __init__(self, label, matrix, gen_subscripts, generators, order, reflections,
                 modelled_bytes, render=None):
        self.label = label
        self.rank = len(matrix)
        self.coxeter_matrix = matrix
        self.gen_subscripts = tuple(gen_subscripts)
        self.identity = tuple(range(1, len(generators[0]) + 1))
        self.generators = tuple(generators)
        self.order = order
        self.reflections = reflections
        self.modelled_bytes = modelled_bytes
        self.dihedral_m = matrix[0][1] if label == "I2" else None
        self.render = render
        self._check_relations()

    def _check_relations(self):
        # (s_i s_j)^m(i,j) = e for each unordered pair (s_j s_i, the inverse,
        # has the same order); catches kernel mistakes early
        for i in range(self.rank):
            for j in range(i, self.rank):
                m = self.coxeter_matrix[i][j]
                p = _compose(self.generators[i], self.generators[j])
                acc, k = p, 1
                while acc != self.identity and k <= m:
                    acc, k = _compose(acc, p), k + 1
                if k != m:
                    order = f"greater than {m}" if k > m else k
                    raise AssertionError(
                        f"{self.describe()}: (s{self.gen_subscripts[i]} "
                        f"s{self.gen_subscripts[j]}) has order {order}, expected {m}")

    def describe(self) -> str:
        return _name(self.label, self.rank, self.dihedral_m)

    def gen_index(self, subscript: int) -> int:
        try:
            return self.gen_subscripts.index(subscript)
        except ValueError:
            valid = ", ".join(f"s{s}" for s in self.gen_subscripts)
            raise ValueError(f"unknown generator s{subscript}; valid: {valid}") from None


def _chain_matrix(rank, start, bonds):
    """The Coxeter matrix with a 3-bond between s_i and s_i+1 for each i >= start,
    then `bonds`, {(i, j): m}, set over it."""
    m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for (i, j), v in [((i, i + 1), 3) for i in range(start, rank - 1)] + list(bonds.items()):
        m[i][j] = m[j][i] = v
    return tuple(tuple(row) for row in m)


def _adjacent_swaps(n):
    """The transpositions (i i+1) of 1..n, i = 1..n-1, in one-line notation."""
    ident = tuple(range(1, n + 1))
    return [ident[:i] + (i + 2, i + 1) + ident[i + 2:] for i in range(n - 1)]


def build_system(label: str, rank: int | None = None, m: int | None = None) -> CoxeterSystem:
    """Construct a Coxeter system of type A_n, B_n, D_n, H3 or I2(m).

    Generator numbering follows the conventions used throughout: type B has
    the 4-bond between s1 and s2; type D has generators s0..s_{n-1} with the
    branch vertex s2 adjacent to both s0 and s1; H3 has the 5-bond between
    s2 and s3.
    """
    label = label.upper()
    # the size first, from |W|, the entries of an element and N alone: the
    # Coxeter matrix has rank^2 entries and I2(m)'s generators 2m each
    if label == "A":
        if rank is None or rank < 1:
            raise ValueError(f"type A requires rank >= 1, got {rank}")
        order, entries, reflections = factorial(rank + 1), rank + 1, (rank + 1) * rank // 2
    elif label == "B":
        if rank is None or rank < 2:
            raise ValueError(f"type B requires rank >= 2, got {rank}")
        order, entries, reflections = 2 ** rank * factorial(rank), rank, rank * rank
    elif label == "D":
        if rank is None or rank < 4:
            raise ValueError(f"type D requires rank >= 4, got {rank}")
        order, entries, reflections = 2 ** (rank - 1) * factorial(rank), rank, rank * (rank - 1)
    elif label == "H3":
        if rank not in (None, 3):
            raise ValueError(f"type H3 has rank 3, got {rank}")
        rank, order, entries, reflections = 3, 120, 30, 15
    elif label == "I2":
        if m is None or m < 3:
            raise ValueError(f"type I2(m) requires m >= 3, got {m}")
        rank, order, entries, reflections = 2, 2 * m, 2 * m, m
    else:
        raise ValueError(f"unknown type {label!r}; valid: A, B, D, H3, I2")
    need = _modelled_bytes(_name(label, rank, m), order, entries, reflections)

    subscripts, render = range(1, rank + 1), _render_signed
    if label == "A":
        matrix, gens, render = _chain_matrix(rank, 0, {}), _adjacent_swaps(rank + 1), _render_perm
    elif label == "B":
        matrix = _chain_matrix(rank, 0, {(0, 1): 4})
        gens = [(-1, *range(2, rank + 1)), *_adjacent_swaps(rank)]
    elif label == "D":
        matrix, subscripts = _chain_matrix(rank, 1, {(0, 2): 3}), range(0, rank)
        gens = [(-2, -1, *range(3, rank + 1)), *_adjacent_swaps(rank)]
    elif label == "H3":
        matrix, render = _chain_matrix(3, 0, {(1, 2): 5}), None
        gens = _root_permutations(matrix)[1]
    else:
        # the 2m roots of the 2m-gon, root k at angle k pi / m: s1 and s2
        # reflect in the simple roots 0 and m - 1, sending root k to
        # m - k and m - 2 - k (mod 2m); roots 0..m-1 are the positive ones
        matrix, render = _chain_matrix(2, 0, {(0, 1): m}), None
        gens = [tuple((c - k) % (2 * m) + 1 for k in range(2 * m)) for c in (m, m - 2)]
    return CoxeterSystem(label, matrix, subscripts, gens, order, reflections, need, render)


def _name(label, rank, m) -> str:
    return {"I2": f"I2({m})", "H3": "H3"}.get(label, f"{label}{rank}")


def _modelled_bytes(name, order, entries, reflections) -> int:
    """The bytes the model above gives a group of `order` elements with
    `entries` one-line entries each and N = `reflections`; SizeLimitError
    past ENUMERATION_LIMIT."""
    need = (order * order // 16 + 8 * order * entries + 4 * order * reflections
            + PER_ELEMENT_BYTES * order)
    if need > ENUMERATION_LIMIT:
        raise SizeLimitError(f"|{name}| = {_bounded(order)} needs {_bounded(need, ',')} bytes, "
                             f"which exceeds the enumeration limit of {ENUMERATION_LIMIT:,} bytes")
    return need


def _bounded(n: int, spec: str = "") -> str:
    """n in full below 2^64, else the power of two it reaches, so that a
    refusal stays one short line at any size (str(n) itself refuses past
    4,300 digits)."""
    return format(n, spec) if n.bit_length() <= 64 else f"at least 2^{n.bit_length() - 1:,}"


def _render_perm(p):
    if all(v <= 9 for v in p):
        return "".join(str(v) for v in p)
    return " ".join(str(v) for v in p)


def _render_signed(p):
    return " ".join(str(v) for v in p)


# ---------------------------------------------------------------------------
# enumerated groups


def _downsets(covers_down: list[tuple[int, ...]], starts: list[int]) -> list[int]:
    """Reachability bitsets of a cover relation on length-graded indices,
    level l the range starts[l] .. starts[l + 1] - 1 and every lower cover
    on the level below: the bitset of each even-level index, and 0 for each
    odd-level one.  A level is built from the one below it, so an odd level
    is held only until the even level above it is built."""
    down = [0] * len(covers_down)
    odd: dict[int, int] = {}
    for level, (start, end) in enumerate(zip(starts, starts[1:])):
        below, into = (down, odd) if level % 2 else (odd, down)
        if level % 2:
            odd.clear()
        for w in range(start, end):
            m = 1 << w
            for u in covers_down[w]:
                m |= below[u]
            into[w] = m
    return down


class _Words(Sequence):
    """The BFS words, read-only: word[w] is read off w's BFS parents,
    each one letter shorter, so that only the last letters are stored."""

    def __init__(self, last: bytes, right_mult: list[tuple[int, ...]]):
        self._last = last
        self._right_mult = right_mult

    def __len__(self) -> int:
        return len(self._last)

    def __getitem__(self, w: int) -> tuple[int, ...]:
        last, right_mult = self._last, self._right_mult
        if not 0 <= w < len(last):
            raise IndexError(f"no element {w} in a group of {len(last)}")
        letters = []
        while w:
            s = last[w]
            letters.append(s)
            w = right_mult[w][s]
        return tuple(reversed(letters))


class BruhatPoset:
    """A fully enumerated finite Coxeter group with its orders materialized.

    Elements are referred to by their BFS index; index 0 is the identity,
    and indices are length-graded.  `__init__` builds the element list,
    lengths, the last letter of each BFS word (`last`; `word[w]` walks the
    BFS parents for the rest), the right multiplication table, Bruhat
    covers and the downset bitsets; `inverse` is built on first use.
    `downset(w)` is a bitset over indices encoding {v : v <= w} in Bruhat
    order, so u <= w is `downset(w) >> u & 1` and interval extraction is
    bit operations.
    `_down` stores it for the even-length elements only, and 0 for the
    odd-length ones, whose lower covers all have even length: their
    downset costs one OR over those covers' stored sets.
    Left multiplication is read through the inverse: g u = (u^-1 g)^-1.
    """

    def __init__(self, system: CoxeterSystem):
        # the build allocates many tuples and lists but no cycles: pause the gc
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._build(system)
        finally:
            if enabled:
                gc.enable()

    def _build(self, system: CoxeterSystem):
        self.system = system
        actions = list(enumerate(_right_actions(system)))

        # BFS by right multiplication, visiting indices in the order they are
        # assigned, so right_mult gains its rows in index order and indices
        # are length-graded.  Every other table is read off right_mult.
        elements = [system.identity]
        index = {system.identity: 0}
        length = [0]
        last = bytearray(1)  # the identity has no last letter
        right_mult: list[tuple[int, ...]] = []
        for u, eu in enumerate(elements):  # grows as new elements are found
            row = []
            for gi, act in actions:
                v = act(eu)
                j = index.get(v)
                if j is None:
                    j = index[v] = len(elements)
                    elements.append(v)
                    length.append(length[u] + 1)
                    last.append(gi)
                row.append(j)
            right_mult.append(tuple(row))
        if len(elements) != system.order:
            raise AssertionError(
                f"enumerated {len(elements)} elements, classification says {system.order}")

        self.size = len(elements)
        self.elements = elements
        self.index = index
        self.length = length
        self.last = bytes(last)
        self.word = _Words(self.last, right_mult)
        self.right_mult = right_mult

        # level l is the index range starts[l] .. starts[l + 1] - 1
        max_len = length[-1]
        starts = [bisect_left(length, l) for l in range(max_len + 2)]
        self.by_length = [(1 << end) - (1 << start) for start, end in zip(starts, starts[1:])]
        if starts[-2] != self.size - 1:
            raise AssertionError("longest element is not unique")
        self.w0 = self.size - 1

        # Lifting property (Bjorner-Brenti, GTM 231, Prop. 2.2.7): if s is a
        # right descent of w, the lower covers of w are ws together with
        # every vs where v is a lower cover of ws and vs > v.  Take s the
        # last letter of w's BFS word, so ws is its BFS parent and its
        # covers are already known.
        covers_down: list[tuple[int, ...]] = [()]
        for w in range(1, self.size):
            s = last[w]
            ws = right_mult[w][s]
            lows = [ws]
            for v in covers_down[ws]:
                vs = right_mult[v][s]
                if length[vs] > length[v]:
                    lows.append(vs)
            covers_down.append(tuple(lows))
        self.covers_down = covers_down
        self._down = _downsets(covers_down, starts)

    @cached_property
    def inverse(self) -> list[int]:
        # the letters met walking w's BFS parents up to e are w's word
        # reversed, which spells w^-1
        right_mult, last = self.right_mult, self.last
        out = []
        for w in range(self.size):
            v = 0
            while w:
                s = last[w]
                v, w = right_mult[v][s], right_mult[w][s]
            out.append(v)
        return out

    # -- element arithmetic by index

    def mult(self, a: int, b: int) -> int:
        right_mult = self.right_mult
        for gi in self.word[b]:
            a = right_mult[a][gi]
        return a

    def apply_word(self, word: Sequence[int]) -> int:
        w = 0
        for gi in word:
            if not 0 <= gi < self.system.rank:
                raise ValueError(f"generator index {gi} out of range 0..{self.system.rank - 1}")
            w = self.right_mult[w][gi]
        return w

    def render(self, w: int) -> str:
        if self.system.render is not None:
            return self.system.render(self.elements[w])
        if w == 0:
            return "e"
        subs = self.system.gen_subscripts
        return " ".join(f"s{subs[gi]}" for gi in self.word[w])

    # -- orders

    def downset(self, w: int) -> int:
        d = self._down[w]
        if d:
            return d
        # odd length: w's bit and the stored downsets of its lower covers
        d = 1 << w
        for u in self.covers_down[w]:
            d |= self._down[u]
        return d

    def weak_left_interval(self, w: int) -> list[int]:
        """The left weak interval [e, w], in index order: a search from w
        down the left weak covers, u to g u whenever that is shorter."""
        inverse, right_mult, length = self.inverse, self.right_mult, self.length
        seen = {w}
        stack = [w]
        while stack:
            u = stack.pop()
            for v in right_mult[inverse[u]]:  # u^-1 g, the inverse of g u
                gu = inverse[v]
                if length[gu] < length[u] and gu not in seen:
                    seen.add(gu)
                    stack.append(gu)
        return sorted(seen)

    # -- descents and quotients

    def descents_left(self, w: int) -> frozenset[int]:
        # the left descents of w are the right descents of its inverse
        length = self.length
        lw = length[w]
        return frozenset([gi for gi, v in enumerate(self.right_mult[self.inverse[w]])
                          if length[v] < lw])

    def minimal_coset_reps(self, J: Iterable[int]) -> list[int]:
        """The quotient of W by W_J: elements with no left descent in J."""
        J = frozenset(J)
        return [w for w in range(self.size) if not self.descents_left(w) & J]

    def generalized_quotient(self, V: Iterable[int]) -> list[int]:
        Vt = tuple(V)
        out = []
        for w in range(self.size):
            lw = self.length[w]
            if all(self.length[self.mult(w, v)] == lw + self.length[v] for v in Vt):
                out.append(w)
        return out

    # -- generating functions

    def group_poincare(self) -> IntPolynomial:
        return IntPolynomial([m.bit_count() for m in self.by_length])

    def interval_poincare_coeffs(self, w: int) -> tuple[int, ...]:
        """Coefficients of the rank generating function of {v : v <= w}."""
        d = self.downset(w)
        return tuple((d & mask).bit_count() for mask in self.by_length[: self.length[w] + 1])

    def exponents(self) -> tuple[int, ...]:
        """The multiset e_1 <= ... <= e_n with W(q) equal to prod [e_i + 1]_q."""
        fac = _factor_into_q_analogs(self.group_poincare(), self.system.rank)
        if fac is None:
            raise ArithmeticError(
                f"{self.system.describe()}: Poincare polynomial does not factor into q-analogs")
        return tuple(d - 1 for d in fac)


def _factor_into_q_analogs(p: IntPolynomial, k: int) -> list[int] | None:
    """The degrees 2 <= d_1 <= ... <= d_k with p = prod [d_i]_q, or None.

    (1 - q)^k p = prod (1 - q^d_i), whose lowest term past the constant is
    -c q^d for d the least d_i left: so one peel per factor takes that d,
    divides by 1 - q^d (a running sum of stride d) and drops the top d
    coefficients, which must be zero; what is left must be 1.  The
    factorization is unique, so no other order of peels finds another."""
    c = list(p.coeffs)
    for _ in range(k):
        c = [a - b for a, b in zip(c + [0], [0] + c)]
    degrees = []
    for _ in range(k):
        d = next((i for i, a in enumerate(c) if i and a), 0)
        if d < 2 or c[d] > 0:
            return None
        for i in range(d, len(c)):
            c[i] += c[i - d]
        if any(c[-d:]):
            return None
        del c[-d:]
        degrees.append(d)
    return degrees if c == [1] else None


def system_key(label: str, rank: int | None = None,
               m: int | None = None) -> tuple[str, int | None, int | None]:
    """The canonical (label, rank, m) of a system, so that every spelling of
    its arguments names one memo entry: rank only for A/B/D, m only for I2.
    Invalid arguments pass through for build_system to reject."""
    label = label.upper()
    if label == "I2":
        return label, None, m
    if label == "H3" and rank == 3:
        rank = None
    return label, rank, None


def shared_poset(label: str, rank: int | None = None, m: int | None = None) -> BruhatPoset:
    """The process-wide enumerated group, built once per system; posets
    are immutable, so sharing across callers is safe."""
    return _shared_poset(*system_key(label, rank, m))


@lru_cache(maxsize=None)
def _shared_poset(label, rank, m) -> BruhatPoset:
    return BruhatPoset(build_system(label, rank, m))
