"""Lehmer codes: rank-compatible bijections from a finite Coxeter group onto
a product of chains whose inverse is monotone into Bruhat order.

Every standard code comes from one table of generator words: each factor
lists one or more saturated Bruhat chains, one word per element.  Types A,
B and I2(m) give each one-step parabolic quotient along the generator chain
the prefixes of one reduced word; type D lists the chains X_1, ..., X_{n-1},
Y_n generated by rule; H3 lists a generalized quotient as two chains, then
one long chain.  One walker reads every word along right multiplication,
and the code vector of a product is read off its factors.  Codes are
materialized as two flat arrays, the vectors end to end and the element at
each box position (`multicomplex.strides`), and `verify_code` re-checks
bijectivity, rank compatibility and the cover-morphism property from those
two arrays and the Bruhat covers alone.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from functools import cached_property, lru_cache
from itertools import product
from math import prod
from operator import mul

from .coxeter import BruhatPoset, shared_poset, system_key
from .multicomplex import strides
from .report import Report

# the exhaustive dihedral search tries 2^(m-1) level choices
DIHEDRAL_MAX_M = 8


class ChainVerificationError(RuntimeError):
    """A set expected to be a saturated Bruhat chain is not one."""


class CodeBuildError(RuntimeError):
    """A code construction failed its built-in bijectivity or length checks."""


# lookup's entry at a box point that no element's vector names
_NO_ELEMENT = 0xFFFFFFFF


class _Vectors(Sequence):
    """A code's vectors in element order, read-only."""

    def __init__(self, code: LehmerCode):
        self._code = code

    def __len__(self) -> int:
        return len(self._code.flat) // len(self._code.bounds)

    def __getitem__(self, w: int) -> tuple[int, ...]:
        return self._code.of(w)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return zip(*[iter(self._code.flat)] * len(self._code.bounds))


class LehmerCode:
    """A materialized code: element index -> vector and back.

    The vectors lie end to end in `flat`, len(bounds) entries an element,
    and `lookup` holds the element at each point of the box, indexed by the
    point's box position (`multicomplex.strides`, its rank in lex order),
    or _NO_ELEMENT where there is none."""

    def __init__(self, name: str, poset: BruhatPoset, bounds: tuple[int, ...],
                 flat: array, lookup: array):
        self.name = name
        self.poset = poset
        self.bounds = bounds
        self.flat = flat
        self.lookup = lookup

    @property
    def vectors(self) -> _Vectors:
        return _Vectors(self)

    def of(self, w: int) -> tuple[int, ...]:
        k = len(self.bounds)
        if not 0 <= w < len(self.flat) // k:
            raise IndexError(f"no element {w} in a code of {len(self.flat) // k}")
        return tuple(self.flat[k * w:k * w + k])

    def element(self, vec: tuple[int, ...]) -> int:
        """The element whose vector is `vec`; KeyError for a vector that no
        element has, one off the box or of another length among them."""
        if len(vec) == len(self.bounds) and all(0 <= x <= b for x, b in zip(vec, self.bounds)):
            w = self.lookup[sum(map(mul, vec, strides(self.dims)))]
            if w != _NO_ELEMENT:
                return w
        raise KeyError(vec)

    @property
    def dims(self) -> tuple[int, ...]:
        """The chain sizes of the code's box, each bound plus one."""
        return tuple(b + 1 for b in self.bounds)

    def box_size(self) -> int:
        return prod(self.dims)

    @cached_property
    def box_index(self) -> list[int]:
        """Element -> box position of its vector, `lookup` inverted on first
        use; an element at no position gets the box size, one past the end."""
        index = [len(self.lookup)] * len(self.vectors)
        for j, w in enumerate(self.lookup):
            if w != _NO_ELEMENT:
                index[w] = j
        return index

    def to_json(self) -> dict:
        return {self.poset.render(w): list(v) for w, v in enumerate(self.vectors)}


def _make_code(name: str, poset: BruhatPoset, vectors) -> LehmerCode:
    """The code of `vectors`, one tuple per element: the product code of
    one factor, which lists each vector with its element, and checked as
    every product code is."""
    return _product_code(name, poset, [list(zip(vectors, range(poset.size)))])


def _product_code(name: str, poset: BruhatPoset, factors) -> LehmerCode:
    """The code that multiplies out one element from each factor, in order.

    A factor lists (coordinates, element) pairs; the code vector of a
    product is the concatenation of its factors' coordinates, and each
    bound is the largest value its coordinate takes.  The build aborts
    unless lengths add along every product and every element comes out
    exactly once, since neither is assumed.

    Products come in itertools.product order, depth first: a prefix over
    the factors but the last is multiplied out once and meets every
    element of the last factor.  A vector is written as packed bytes and
    its box position as a sum, each factor's coordinates adding their
    share; the build also aborts unless every point of the box is the
    vector of exactly one element.
    """
    length, right_mult, word = poset.length, poset.right_mult, poset.word
    bounds = [max(column) for factor in factors
              for column in zip(*(coords for coords, _ in factor))]
    dims = [b + 1 for b in bounds]
    weights = iter(strides(dims))
    # each entry as (coordinates packed, their share of the position, element,
    # its word): u x is u times the letters of x's word, each word read once
    packed = []
    for factor in factors:
        share = [next(weights) for _ in factor[0][0]]
        packed.append([(array("H", coords).tobytes(), sum(map(mul, coords, share)), x, word[x])
                       for coords, x in factor])
    *head, last = packed
    step = sum(len(entries[0][0]) for entries in packed)  # the bytes of a vector
    # written through a memoryview, whose slice assignment costs less than
    # a bytearray's, and with no object per element left behind
    vectors = memoryview(bytearray(step * poset.size))
    lookup = array("I", [_NO_ELEMENT]) * prod(dims)
    reached = bytearray(poset.size)
    # (factors used, prefix, its length sum, its coordinates, their position share)
    stack = [(0, 0, 0, b"", 0)]
    while stack:
        k, u, before, vec, pos = stack.pop()
        if k < len(head):  # pushed in reverse, so they pop in factor order
            for coords, p, x, letters in reversed(head[k]):
                ux = u
                for g in letters:
                    ux = right_mult[ux][g]
                stack.append((k + 1, ux, before + length[x], vec + coords, pos + p))
            continue
        for coords, p, x, letters in last:
            w = u
            for g in letters:
                w = right_mult[w][g]
            if before + length[x] != length[w]:
                raise CodeBuildError(f"{name}: factor lengths do not add up for "
                                     f"{poset.render(w)}")
            if reached[w]:
                raise CodeBuildError(f"{name}: {poset.render(w)} factors twice")
            reached[w] = 1
            q = pos + p
            if lookup[q] != _NO_ELEMENT:
                raise CodeBuildError(
                    f"{name}: elements {poset.render(lookup[q])} and {poset.render(w)} "
                    f"both map to {tuple(array('H', vec + coords))}")
            lookup[q] = w
            vectors[step * w:step * w + step] = vec + coords
    if 0 in reached:
        raise CodeBuildError(f"{name}: no product reaches "
                             f"{poset.render(reached.index(0))}")
    if len(lookup) != poset.size:
        raise CodeBuildError(f"{name}: table covers {poset.size} of "
                             f"{len(lookup)} codomain points")
    flat = array("H")
    flat.frombytes(vectors)
    return LehmerCode(name, poset, tuple(bounds), flat, lookup)


# ---------------------------------------------------------------------------
# word tables
#
# A code's table lists its factors in product order; a factor lists one or
# more saturated Bruhat chains, and a chain lists generator-subscript words,
# one per element, from its least element up.


def _assert_saturated_chain(poset: BruhatPoset, elems, what: str) -> None:
    for k, w in enumerate(elems, start=poset.length[elems[0]]):
        if poset.length[w] != k:
            raise ChainVerificationError(
                f"{what}: element {poset.render(w)} has length {poset.length[w]}, "
                f"expected {k}")
    # the lengths go up by one, so a <= b means a is a lower cover of b
    for a, b in zip(elems, elems[1:]):
        if a not in poset.covers_down[b]:
            raise ChainVerificationError(
                f"{what}: {poset.render(a)} not below {poset.render(b)}")


def _walk(poset: BruhatPoset, name: str, table) -> list:
    """The table with every word replaced by its element.

    Each word is walked from e one letter at a time along right_mult, and
    every letter must add one to the length; a word that extends the one
    before it in its chain resumes from that word's element, so a chain of
    prefixes walks each letter once.  Every chain must then be saturated.
    """
    right_mult, length, gen = poset.right_mult, poset.length, poset.system.gen_index
    walked = []
    for i, chains in enumerate(table, start=1):
        what = f"{name}: factor {i}"
        walked.append([])
        for words in chains:
            chain, prev, w = [], (), 0
            for word in words:
                if word[:len(prev)] != prev:
                    prev, w = (), 0
                for k, sub in enumerate(word[len(prev):], start=len(prev) + 1):
                    w = right_mult[w][gen(sub)]
                    if length[w] != k:
                        raise ChainVerificationError(
                            f"{what}: word {word} is not reduced at letter {k}, s{sub}")
                chain.append(w)
                prev = word
            _assert_saturated_chain(poset, chain, what)
            walked[-1].append(chain)
    return walked


def _factors(poset: BruhatPoset, walked) -> list:
    """Each walked factor as (coordinates, element) pairs: the length in a
    one-chain factor, (chain index, height in the chain) in one of several."""
    return [[((poset.length[x],), x) for x in chains[0]] if len(chains) == 1
            else [((j, h), x) for j, chain in enumerate(chains) for h, x in enumerate(chain)]
            for chains in walked]


def _table_code(poset: BruhatPoset, name: str, table) -> LehmerCode:
    return _product_code(name, poset, _factors(poset, _walk(poset, name, table)))


def _prefixes(word):
    # made one at a time: I2(2555)'s quotient word has 3.3 million letters
    # over all its prefixes
    return (word[:i] for i in range(len(word) + 1))


def d_chain_words(n: int) -> list[list[tuple[int, ...]]]:
    """Generator-subscript words of the type D chains X_1, ..., X_{n-1}, Y_n.

    X_k holds the prefixes of s_k ... s_1, then s_k ... s_3 s_0 s_2 s_1, then
    that word extended by s_3, ..., s_k one letter at a time (2k words);
    Y_n holds the prefixes of s_0 s_2 s_3 ... s_{n-1} (n words).
    """
    chains = []
    for k in range(1, n):
        down = tuple(range(k, 0, -1))
        words = [down[:i] for i in range(k + 1)]
        if k >= 2:
            bent = tuple(range(k, 2, -1)) + (0, 2, 1)
            words += [bent + tuple(range(3, j)) for j in range(3, k + 2)]
        chains.append(words)
    y = (0, *range(2, n))
    chains.append([y[:i] for i in range(n)])
    return chains


def d_word_table(n: int) -> list:
    """The type D table: each chain of `d_chain_words` a factor of its own."""
    return [[words] for words in d_chain_words(n)]


# The H3 table: the twelve-element generalized quotient by the long chain X,
# split into chains Y and Z (Z starts at length 1), then X, the prefixes of
# s3 s2 s3 s2 s1 s2 s3 s2 s3.
H3_WORDS = [[[(), (2,), (2, 1), (3, 2, 1), (2, 3, 2, 1), (1, 2, 3, 2, 1)],
             [(1,), (1, 2), (1, 2, 1), (1, 3, 2, 1), (2, 1, 3, 2, 1), (1, 2, 1, 3, 2, 1)]],
            [list(_prefixes((3, 2, 3, 2, 1, 2, 3, 2, 3)))]]


# ---------------------------------------------------------------------------
# quotient-factorization codes (types I2, A, B)


def _system(poset: BruhatPoset, label: str):
    """The poset's Coxeter system, refused unless it has type `label`."""
    system = poset.system
    if system.label != label:
        kind = "a dihedral system" if label == "I2" else f"type {label}"
        raise ValueError(f"expected {kind}, got {system.describe()}")
    return system


def quotient_chain_code(poset: BruhatPoset, words, name: str) -> LehmerCode:
    """Code w -> lengths of the factors along a chain of parabolics.

    Factor i is the quotient of W_{J_i} by W_{J_{i-1}}, J_i the first i
    generators of the chain, given as the generator-subscript word whose
    prefixes are its elements (Bjorner-Brenti, GTM 231, 2.4).
    """
    return _table_code(poset, name, [[_prefixes(word)] for word in words])


def code_i2(poset: BruhatPoset) -> LehmerCode:
    """The I2(m) code: s1, then m - 1 letters alternating from s2."""
    m = _system(poset, "I2").dihedral_m
    return quotient_chain_code(poset, [(1,), tuple(2 - k % 2 for k in range(m - 1))],
                               f"LI2({m})")


def code_a(poset: BruhatPoset) -> LehmerCode:
    """The type A code: factor i is a prefix of s_i ... s_1."""
    n = _system(poset, "A").rank
    return quotient_chain_code(poset, [tuple(range(i, 0, -1)) for i in range(1, n + 1)],
                               f"LA{n}")


def code_b(poset: BruhatPoset, variant: bool = False) -> LehmerCode:
    """The type B code, factor i a prefix of s_i ... s_2 s_1 s_2 ... s_i, or
    (variant) the one from the reordered generator chain s2, s1, s3, ...,
    s_n, whose first two words are s2 and s1 s2 s1.  The variant exists for
    counterexample hunting and is otherwise untuned.
    """
    n = _system(poset, "B").rank
    words = [(*range(i, 1, -1), 1, *range(2, i + 1)) for i in range(1, n + 1)]
    if variant:
        return quotient_chain_code(poset, [(2,), (1, 2, 1), *words[2:]], f"LB{n}~")
    return quotient_chain_code(poset, words, f"LB{n}")


# ---------------------------------------------------------------------------
# chain-product codes (types D, H3)


def code_d(poset: BruhatPoset) -> LehmerCode:
    """Type D code: w = x_1 ... x_{n-1} y with x_k in X_k and y in Y_n,
    coded by the lengths of the factors."""
    n = _system(poset, "D").rank
    return _table_code(poset, f"LD{n}", d_word_table(n))


def code_h3(poset: BruhatPoset) -> LehmerCode:
    """The H3 code: factor w = u x with x in the long chain X and u in the
    twelve-element generalized quotient Y + Z."""
    _system(poset, "H3")
    return _table_code(poset, "LH3", H3_WORDS)


def shared_standard_code(label: str, rank: int | None = None,
                         m: int | None = None, variant: bool = False) -> LehmerCode:
    """The process-wide standard (or type B variant) code over the shared
    poset, built once per system however its arguments are spelled."""
    return _shared_code(*system_key(label, rank, m), "variant" if variant else "standard")


@lru_cache(maxsize=None)
def _shared_code(label, rank, m, name) -> LehmerCode:
    """The code the CLI's --code `name` selects for a system_key, built once:
    "standard", "variant" (type B) or "dual" (of the shared standard code)."""
    if name == "dual":  # looked up per call, so a rebound dual_code is the one called
        return dual_code(_shared_code(label, rank, m, "standard"))
    poset = shared_poset(label, rank, m)
    return code_b(poset, variant=True) if name == "variant" else standard_code(poset)


def standard_code(poset: BruhatPoset) -> LehmerCode:
    """The shipped code for the poset's type."""
    # read per call, so a builder rebound under its module name is the one called
    build = {"A": code_a, "B": code_b, "D": code_d, "H3": code_h3,
             "I2": code_i2}.get(poset.system.label)
    if build is None:
        raise ValueError(f"no standard code for {poset.system.describe()}")
    return build(poset)


# ---------------------------------------------------------------------------
# derived codes


def dual_code(code: LehmerCode) -> LehmerCode:
    """The code w -> L(w^{-1})."""
    # w's vector is w^-1's in `code`, so the element at each box point is
    # the inverse of code's: inversion is a bijection, and so is the result
    inverse, step = code.poset.inverse, code.flat.itemsize * len(code.bounds)
    raw = code.flat.tobytes()
    flat = array("H")
    flat.frombytes(b"".join([raw[step * u:step * u + step] for u in inverse]))
    return LehmerCode(f"dual({code.name})", code.poset, code.bounds, flat,
                      array("I", map(inverse.__getitem__, code.lookup)))


# ---------------------------------------------------------------------------
# verification


def verify_code(code: LehmerCode) -> Report:
    """Re-check the defining properties from the tables alone.

    (a) the table is a bijection onto the product of chains over the
    exponents; (b) coordinates of L(w) sum to the length of w; (c) the
    inverse maps every cover of the product of chains to a Bruhat relation.
    Covers suffice for (c) by transitivity.
    """
    poset, bounds, lookup = code.poset, code.bounds, code.lookup
    rep = Report(f"code {code.name}")

    rep.check(len(code.vectors) == poset.size, "table misses elements")
    rep.check(sorted(bounds) == sorted(poset.exponents()),
              f"bounds {bounds} are not the exponents")
    # a vector in the box is at a new position, where `lookup` gives w back
    steps, seen = strides(code.dims), bytearray(code.box_size())
    for w, v in enumerate(code.vectors):
        ok = all(0 <= x <= b for x, b in zip(v, bounds))
        if ok:
            q = sum(map(mul, v, steps))
            ok = not seen[q] and lookup[q] == w
            seen[q] = 1
        rep.check(ok, lambda: f"bijectivity fails at {poset.render(w)} -> {v}")
        rep.check(sum(v) == poset.length[w],
                  lambda: f"rank mismatch at {poset.render(w)}: {v} vs length {poset.length[w]}")
    rep.check(0 not in seen, "table does not cover the codomain")

    if rep.passed:
        # lookup inverts the vectors; y's lower cover in coordinate i is at q - s_i
        for q, y in enumerate(product(*map(range, code.dims))):
            wy = lookup[q]
            # ranks add, so x -> y maps to a relation only as a Bruhat cover
            covers = poset.covers_down[wy]
            for x, s in zip(y, steps):
                if x:
                    rep.check(lookup[q - s] in covers,
                              lambda: f"cover {code.of(lookup[q - s])} -> {y} maps to incomparable "
                                      f"{poset.render(lookup[q - s])}, {poset.render(wy)}")
    return rep


def enumerate_dihedral_codes(poset: BruhatPoset) -> list[LehmerCode]:
    """All rank-compatible bijections onto {0,1} x {0..m-1} whose inverse is
    a poset morphism, found by exhausting the per-level choices."""
    m = _system(poset, "I2").dihedral_m
    if m > DIHEDRAL_MAX_M:
        raise ValueError(f"exhaustive search supports m <= {DIHEDRAL_MAX_M}, got {m}")
    levels = [sorted(w for w in range(poset.size) if poset.length[w] == l)
              for l in range(m + 1)]
    found = []
    for mask in range(2 ** (m - 1)):
        vectors = [None] * poset.size
        vectors[levels[0][0]] = (0, 0)
        vectors[levels[m][0]] = (1, m - 1)
        for l in range(1, m):
            a, b = levels[l]
            if mask >> (l - 1) & 1:
                a, b = b, a
            vectors[a] = (0, l)
            vectors[b] = (1, l - 1)
        candidate = _make_code(f"LI2({m})#{mask}", poset, vectors)
        if verify_code(candidate).passed:
            found.append(candidate)
    return found


# ---------------------------------------------------------------------------
# structure checks behind the D and H3 codes


def verify_d_factorization(poset: BruhatPoset) -> Report:
    """The quotient recursion behind the type D chains: multiplying Y_{n-1}
    into the maximal quotient gives exactly X_{n-1} Y_n."""
    n = poset.system.rank
    rep = Report(f"D{n} quotient recursion")
    *_, [x_last], [y_n] = _walk(poset, f"LD{n}", d_word_table(n))
    y_prev = y_n[: n - 1]
    quot = poset.minimal_coset_reps(range(n - 1))
    rep.check(len(quot) == 2 * n, f"maximal quotient has {len(quot)} elements")

    left = {poset.mult(y, u) for y in y_prev for u in quot}
    right = {poset.mult(x, y) for x in x_last for y in y_n}
    rep.check(len(left) == (n - 1) * 2 * n, f"left side has {len(left)} elements")
    rep.check(len(right) == 2 * (n - 1) * n, f"right side has {len(right)} elements")
    if not rep.check(left == right, "set equality fails"):
        for w in sorted(left ^ right)[:5]:
            side = "left" if w in left else "right"
            rep.witnesses.append(f"{poset.render(w)} only on the {side}")
    return rep


def verify_h3_quotients(poset: BruhatPoset) -> Report:
    """The five descriptions of the twelve-element set behind the H3 code,
    and the chain factorization of the whole group."""
    rep = Report("H3 quotients")
    walked = _walk(poset, "LH3", H3_WORDS)
    [[Y, Z], [X]] = walked
    x0, z0 = X[-1], Z[-1]
    s321 = Y[3]  # the word s3 s2 s1

    rep.check(not set(Y) & set(Z), "Y and Z overlap")
    yz = set(Y) | set(Z)
    rep.check(len(yz) == 12, f"|Y + Z| = {len(yz)}")

    weak = set(poset.weak_left_interval(z0))
    rep.check(yz == weak, "Y + Z is not the left weak interval below max Z")

    # W_{s1, s2}: every reduced word of its elements uses only s1 and s2
    par = [w for w, wd in enumerate(poset.word) if set(wd) <= {0, 1}]
    cosets = {poset.mult(u, v) for u in par for v in (0, s321)}
    rep.check(yz == cosets, "Y + Z does not match the parabolic times {e, s3s2s1}")

    rep.check(yz == set(poset.generalized_quotient([x0])),
              "Y + Z is not the generalized quotient by max X")
    rep.check(yz == set(poset.generalized_quotient(X)),
              "Y + Z is not the generalized quotient by X")

    quot = poset.minimal_coset_reps((0, 1))
    rep.check(len(quot) == 20, f"maximal quotient has {len(quot)} elements")
    rep.check({poset.mult(u, x) for u in (0, s321) for x in X} == set(quot),
              "{e, s3s2s1} X is not the maximal quotient")

    rep.check(poset.mult(z0, x0) == poset.w0, "max Z times max X is not the top element")

    rep.check(len(yz) * len(X) == poset.size, f"|Y + Z| |X| = {len(yz) * len(X)}")
    try:
        _product_code("LH3", poset, _factors(poset, walked))
        failure = None
    except CodeBuildError as err:
        failure = err
    rep.check(failure is None, f"(Y+Z) X does not factor the group: {failure}")
    return rep
