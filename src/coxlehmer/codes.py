"""Lehmer codes: rank-compatible bijections from a finite Coxeter group onto
a product of chains whose inverse is monotone into Bruhat order.

Explicit codes are built for every implemented type.  Types A, B and I2(m)
use the lengths of the quotient factorization along the generator chain;
type D multiplies out a family of saturated Bruhat chains; H3 combines a
generalized quotient with one long chain.  Codes are materialized as full
two-way lookup tables, and `verify_code` re-checks bijectivity, rank
compatibility and the cover-morphism property from the tables alone.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from math import prod

from .coxeter import BruhatPoset, shared_poset, system_key
from .report import Report


class ChainVerificationError(RuntimeError):
    """A set expected to be a saturated Bruhat chain is not one."""


class CodeBuildError(RuntimeError):
    """A code construction failed its built-in bijectivity or length checks."""


@dataclass
class LehmerCode:
    """A materialized code: element index -> vector and back."""

    name: str
    poset: BruhatPoset
    bounds: tuple[int, ...]
    vectors: list[tuple[int, ...]]
    lookup: dict[tuple[int, ...], int]

    def of(self, w: int) -> tuple[int, ...]:
        return self.vectors[w]

    def element(self, vec: tuple[int, ...]) -> int:
        return self.lookup[vec]

    def box_size(self) -> int:
        return prod(b + 1 for b in self.bounds)

    def box_points(self):
        return itertools.product(*(range(b + 1) for b in self.bounds))

    def to_json(self) -> dict:
        return {self.poset.render(w): list(v) for w, v in enumerate(self.vectors)}


def _make_code(name: str, poset: BruhatPoset, bounds, vectors) -> LehmerCode:
    lookup = {}
    for w, v in enumerate(vectors):
        if v in lookup:
            raise CodeBuildError(
                f"{name}: elements {poset.render(lookup[v])} and {poset.render(w)} "
                f"both map to {v}")
        lookup[v] = w
    code = LehmerCode(name, poset, tuple(bounds), list(vectors), lookup)
    if len(lookup) != code.box_size():
        raise CodeBuildError(f"{name}: table covers {len(lookup)} of "
                             f"{code.box_size()} codomain points")
    return code


# ---------------------------------------------------------------------------
# chains


def _assert_saturated_chain(poset: BruhatPoset, elems, what: str) -> None:
    for k, w in enumerate(elems):
        if poset.length[w] != k:
            raise ChainVerificationError(
                f"{what}: element {poset.render(w)} at position {k} has length "
                f"{poset.length[w]}")
    for a, b in zip(elems, elems[1:]):
        if not poset.leq(a, b):
            raise ChainVerificationError(
                f"{what}: {poset.render(a)} not below {poset.render(b)}")


@lru_cache(maxsize=1)
def _chain_data() -> dict:
    return json.loads(resources.files("coxlehmer").joinpath("chains.json").read_text())


def chain_words(key: str) -> dict:
    """Raw generator-subscript words of the stored chains for D4..D6 and H3."""
    data = _chain_data()
    if key not in data:
        raise KeyError(f"no stored chains for {key}; have {sorted(data)}")
    return data[key]


def _words_to_elements(poset: BruhatPoset, words, what: str):
    sys = poset.system
    elems = []
    for word in words:
        w = poset.apply_word([sys.gen_index(sub) for sub in word])
        if poset.length[w] != len(word):
            raise ChainVerificationError(f"{what}: word {word} is not reduced")
        elems.append(w)
    return elems


# ---------------------------------------------------------------------------
# quotient-factorization codes (types I2, A, B)


def quotient_chain_code(poset: BruhatPoset, gen_order=None, name: str = "L") -> LehmerCode:
    """Code w -> lengths of the factors along a chain of parabolics.

    Valid whenever every one-step parabolic quotient is a Bruhat chain;
    each quotient is verified during construction.
    """
    order = tuple(gen_order) if gen_order is not None else tuple(range(poset.system.rank))
    bounds = []
    for i in range(1, len(order) + 1):
        prev = frozenset(order[: i - 1])
        par = poset.parabolic_elements(order[:i])
        quot = [w for w in par if not (poset.descents_left(w) & prev)]
        quot.sort(key=poset.length.__getitem__)
        _assert_saturated_chain(poset, quot, f"{name}: quotient step {i}")
        bounds.append(len(quot) - 1)
    vectors = [tuple(poset.length[x] for x in poset.quotient_factorization(w, order))
               for w in range(poset.size)]
    return _make_code(name, poset, bounds, vectors)


def code_i2(poset: BruhatPoset) -> LehmerCode:
    if poset.system.label != "I2":
        raise ValueError(f"expected a dihedral system, got {poset.system.describe()}")
    return quotient_chain_code(poset, name=f"LI2({poset.system.dihedral_m})")


def code_a(poset: BruhatPoset) -> LehmerCode:
    if poset.system.label != "A":
        raise ValueError(f"expected type A, got {poset.system.describe()}")
    return quotient_chain_code(poset, name=f"LA{poset.system.rank}")


def code_b(poset: BruhatPoset, variant: bool = False) -> LehmerCode:
    """The type B code, or (variant) the one from the reordered generator
    chain s2, s1, s3, ..., s_n.  The variant exists for counterexample
    hunting and is otherwise untuned.
    """
    if poset.system.label != "B":
        raise ValueError(f"expected type B, got {poset.system.describe()}")
    n = poset.system.rank
    if variant:
        order = (1, 0) + tuple(range(2, n))
        code = quotient_chain_code(poset, order, name=f"LB{n}~")
    else:
        code = quotient_chain_code(poset, name=f"LB{n}")
    if code.bounds[-1] != 2 * n - 1:
        raise ChainVerificationError(
            f"{code.name}: maximal quotient has {code.bounds[-1] + 1} elements, expected {2 * n}")
    return code


# ---------------------------------------------------------------------------
# permutation-level codes


def inversion_code(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Entry k counts the values i < k placed to the right of k in one-line
    notation.  Entry 1 is always 0; the tail reproduces the type A code of
    the permutation.
    """
    n = len(perm)
    pos = [0] * (n + 1)
    for i, v in enumerate(perm):
        pos[v] = i
    return tuple(sum(1 for i in range(1, k) if pos[i] > pos[k]) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# chain-product codes (types D, H3)


def code_d(poset: BruhatPoset) -> LehmerCode:
    """Type D code from the stored factorization chains X_1..X_{n-1}, Y_n.

    The factorization is multiplied out in full; the build aborts unless it
    is bijective with additive lengths, since neither is assumed.
    """
    if poset.system.label != "D":
        raise ValueError(f"expected type D, got {poset.system.describe()}")
    n = poset.system.rank
    raw = chain_words(f"D{n}")["chains"]
    chains = [_words_to_elements(poset, words, f"LD{n} chain {k}")
              for k, words in enumerate(raw)]
    for k, chain in enumerate(chains[:-1], start=1):
        if len(chain) != 2 * k:
            raise ChainVerificationError(f"LD{n}: |X_{k}| = {len(chain)}, expected {2 * k}")
        _assert_saturated_chain(poset, chain, f"LD{n}: X_{k}")
    if len(chains[-1]) != n:
        raise ChainVerificationError(f"LD{n}: |Y_{n}| = {len(chains[-1])}, expected {n}")
    _assert_saturated_chain(poset, chains[-1], f"LD{n}: Y_{n}")

    vectors = [None] * poset.size
    for combo in itertools.product(*chains):
        w = 0
        for x in combo:
            w = poset.mult(w, x)
        vec = tuple(poset.length[x] for x in combo)
        if sum(vec) != poset.length[w]:
            raise CodeBuildError(f"LD{n}: factor lengths {vec} do not add up for "
                                 f"{poset.render(w)}")
        if vectors[w] is not None:
            raise CodeBuildError(f"LD{n}: {poset.render(w)} factors twice")
        vectors[w] = vec
    bounds = tuple(len(c) - 1 for c in chains)
    return _make_code(f"LD{n}", poset, bounds, vectors)


def _h3_chains(poset: BruhatPoset):
    raw = chain_words("H3")
    X = _words_to_elements(poset, raw["X"], "LH3: X")
    Y = _words_to_elements(poset, raw["Y"], "LH3: Y")
    Z = _words_to_elements(poset, raw["Z"], "LH3: Z")
    _assert_saturated_chain(poset, X, "LH3: X")
    _assert_saturated_chain(poset, Y, "LH3: Y")
    # Z starts at length 1; e lies below its first element
    _assert_saturated_chain(poset, [0, *Z], "LH3: Z")
    return X, Y, Z


def code_h3(poset: BruhatPoset) -> LehmerCode:
    """The H3 code: factor w = u x with x in the long chain X and u in the
    twelve-element generalized quotient Y + Z."""
    if poset.system.label != "H3":
        raise ValueError(f"expected type H3, got {poset.system.describe()}")
    X, Y, Z = _h3_chains(poset)
    vectors = [None] * poset.size
    for u in Y + Z:
        head = ((0, poset.length[u]) if u in Y else (1, poset.length[u] - 1))
        for x in X:
            w = poset.mult(u, x)
            if poset.length[w] != poset.length[u] + poset.length[x]:
                raise CodeBuildError(f"LH3: lengths do not add at {poset.render(w)}")
            if vectors[w] is not None:
                raise CodeBuildError(f"LH3: {poset.render(w)} factors twice")
            vectors[w] = head + (poset.length[x],)
    return _make_code("LH3", poset, (1, 5, 9), vectors)


def shared_standard_code(label: str, rank: int | None = None,
                         m: int | None = None, variant: bool = False) -> LehmerCode:
    """The process-wide standard (or type B variant) code over the shared
    poset, built once per system however its arguments are spelled."""
    return _shared_code(*system_key(label, rank, m), bool(variant))


@lru_cache(maxsize=None)
def _shared_code(label, rank, m, variant) -> LehmerCode:
    poset = shared_poset(label, rank, m)
    if variant:
        if label != "B":
            raise ValueError("only type B has a variant code")
        return code_b(poset, variant=True)
    return standard_code(poset)


def standard_code(poset: BruhatPoset) -> LehmerCode:
    """The shipped code for the poset's type."""
    label = poset.system.label
    if label == "A":
        return code_a(poset)
    if label == "B":
        return code_b(poset)
    if label == "D":
        return code_d(poset)
    if label == "H3":
        return code_h3(poset)
    if label == "I2":
        return code_i2(poset)
    raise ValueError(f"no standard code for {poset.system.describe()}")


# ---------------------------------------------------------------------------
# derived codes


def dual_code(code: LehmerCode) -> LehmerCode:
    """The code w -> L(w^{-1})."""
    poset = code.poset
    vectors = [code.vectors[poset.inverse[w]] for w in range(poset.size)]
    return _make_code(f"dual({code.name})", poset, code.bounds, vectors)


# ---------------------------------------------------------------------------
# verification


def verify_code(code: LehmerCode) -> Report:
    """Re-check the defining properties from the tables alone.

    (a) the table is a bijection onto the product of chains over the
    exponents; (b) coordinates of L(w) sum to the length of w; (c) the
    inverse maps every cover of the product of chains to a Bruhat relation.
    Covers suffice for (c) by transitivity.
    """
    poset = code.poset
    rep = Report(f"code {code.name}")

    rep.check(len(code.vectors) == poset.size, "table misses elements")
    rep.check(sorted(code.bounds) == sorted(poset.exponents()),
              f"bounds {code.bounds} are not the exponents")
    seen = set()
    for w, v in enumerate(code.vectors):
        ok = (len(v) == len(code.bounds)
              and all(0 <= x <= b for x, b in zip(v, code.bounds))
              and v not in seen)
        seen.add(v)
        rep.check(ok, f"bijectivity fails at {poset.render(w)} -> {v}")
        rep.check(sum(v) == poset.length[w],
                  f"rank mismatch at {poset.render(w)}: {v} vs length {poset.length[w]}")
    rep.check(len(seen) == code.box_size(), "table does not cover the codomain")

    if rep.passed:
        lookup = {v: w for w, v in enumerate(code.vectors)}
        for y in code.box_points():
            wy = lookup[y]
            for i, yi in enumerate(y):
                if yi:
                    x = y[:i] + (yi - 1,) + y[i + 1 :]
                    rep.check(poset.leq(lookup[x], wy),
                              f"cover {x} -> {y} maps to incomparable "
                              f"{poset.render(lookup[x])}, {poset.render(wy)}")
    return rep


def enumerate_dihedral_codes(poset: BruhatPoset, max_m: int = 8) -> list[LehmerCode]:
    """All rank-compatible bijections onto {0,1} x {0..m-1} whose inverse is
    a poset morphism, found by exhausting the per-level choices."""
    sys = poset.system
    if sys.label != "I2":
        raise ValueError(f"expected a dihedral system, got {sys.describe()}")
    m = sys.dihedral_m
    if m > max_m:
        raise ValueError(f"exhaustive search supports m <= {max_m}, got {m}")
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
        candidate = _make_code(f"LI2({m})#{mask}", poset, (1, m - 1), vectors)
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
    raw = chain_words(f"D{n}")["chains"]
    x_last = _words_to_elements(poset, raw[n - 2], "X_{n-1}")
    y_n = _words_to_elements(poset, raw[n - 1], "Y_n")
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
    X, Y, Z = _h3_chains(poset)
    x0, z0 = X[-1], Z[-1]

    rep.check(not set(Y) & set(Z), "Y and Z overlap")
    yz = set(Y) | set(Z)
    rep.check(len(yz) == 12, f"|Y + Z| = {len(yz)}")

    weak = set(poset.weak_left_interval(z0))
    rep.check(yz == weak, "Y + Z is not the left weak interval below max Z")

    par = poset.parabolic_elements((0, 1))
    s321 = poset.apply_word([2, 1, 0])
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

    products = {}
    additive = True
    for u in yz:
        for x in X:
            w = poset.mult(u, x)
            additive &= poset.length[w] == poset.length[u] + poset.length[x]
            products.setdefault(w, 0)
            products[w] += 1
    rep.check(additive, "lengths do not add in (Y+Z) X")
    rep.check(len(products) == poset.size and all(c == 1 for c in products.values()),
              "(Y+Z) X does not factor the group bijectively")
    return rep
