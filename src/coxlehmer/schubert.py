"""Smooth permutations and the combinatorics of their Poincare polynomials.

Everything here speaks plain one-line permutations (tuples over 1..n).
`inversion_code` reads a permutation's code, whose tail is the type A
Lehmer code.  `avoids` is the definition of pattern avoidance, a scan of
every k-subsequence; `avoiders` lists a class level by level, inserting n
into the avoiders of 1..n-1 and testing only the occurrences that use n,
and serves the smooth and unimodal permutations and the catalan suite's
312-avoiders.
A permutation w gives a poset on [n] whose comparability graph is the
permutation graph of w; for smooth w (avoiding 3412 and 4231) the counts of
saturated chains by rank assemble into a partition whose dual lists the
factorization exponents of the interval below w.  Unimodal permutations,
lazy Fubini words and partitions into distinct parts tie the classes
together.  Nothing here checks a claim and nothing here imports the rest
of the package: the catalan, unimodal and smooth suites in `verify` check
the equivalences against the enumerated Bruhat order, and the unimodal
suite checks the tail partitions and the forest chain counts.
"""

from __future__ import annotations

import itertools
from math import comb

SMOOTH_PATTERNS = ((3, 4, 1, 2), (4, 2, 3, 1))
# a permutation rises to n and then falls exactly when it avoids 213 and 312
UNIMODAL_PATTERNS = ((2, 1, 3), (3, 1, 2))


def identity_perm(n):
    return tuple(range(1, n + 1))


def inversion_code(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Entry k counts the values i < k placed to the right of k in one-line
    notation.  Entry 1 is always 0; the tail reproduces the type A code of
    the permutation.  One right-to-left scan: entry v is the popcount, below
    bit v, of the mask of values already passed.
    """
    code = [0] * len(perm)
    passed = 0
    for v in reversed(perm):
        code[v - 1] = (passed & ((1 << v) - 1)).bit_count()
        passed |= 1 << v
    return tuple(code)


def _argsort(seq) -> list[int]:
    return sorted(range(len(seq)), key=seq.__getitem__)


def avoids(w, pattern) -> bool:
    """Whether no subsequence of w is order-isomorphic to the pattern: no
    k values of w, taken in w's order, sort by the pattern's argsort."""
    order = _argsort(pattern)
    return not any(_argsort(sub) == order
                   for sub in itertools.combinations(w, len(pattern)))


def is_smooth(w) -> bool:
    return all(avoids(w, p) for p in SMOOTH_PATTERNS)


def avoiders(n, patterns) -> list[tuple[int, ...]]:
    """The permutations of 1..n that avoid every pattern, in lex order.

    Deleting m from an avoider of 1..m leaves an avoider of 1..m-1, so each
    level inserts m at every position of each avoider below it and tests
    only the occurrences that use m.  Being the largest value, m can only
    play a pattern's largest entry k: with j = pattern.index(k), that is j
    values left of m and k-1-j right of it standardizing like the pattern
    with k deleted.
    """
    cuts = []
    for p in patterns:
        j = p.index(len(p))
        cuts.append((j, len(p) - 1 - j, _argsort(p[:j] + p[j + 1:])))
    level = [()]
    for m in range(1, n + 1):
        level = [w[:i] + (m,) + w[i:] for w in level for i in range(m)
                 if not any(_argsort(a + b) == order
                            for j, r, order in cuts
                            for a in itertools.combinations(w[:i], j)
                            for b in itertools.combinations(w[i:], r))]
    return sorted(level)


def smooth_permutations(n):
    return avoiders(n, SMOOTH_PATTERNS)


# ---------------------------------------------------------------------------
# the permutation poset's Hasse covers and their chain statistics


def hasse_covers(w) -> dict[int, list[int]]:
    """Upper covers of the poset on [n] where i is below j when i < j but j
    comes first in w: j covers i when no value i < z < j sits between
    them in w."""
    n = len(w)
    pos = [0] * (n + 1)
    for i, v in enumerate(w):
        pos[v] = i
    return {i: [j for j in range(i + 1, n + 1) if pos[j] < pos[i]
                and not any(pos[j] < pos[z] < pos[i] for z in range(i + 1, j))]
            for i in range(1, n + 1)}


def hasse_is_forest(covers: dict) -> bool:
    """Whether the underlying undirected Hasse graph is acyclic."""
    parent = list(range(len(covers) + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, ups in covers.items():
        for b in ups:
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
    return True


def chain_counts(covers: dict) -> tuple[int, ...]:
    """Counts of saturated chains by rank in the poset on 1..n with these
    upper covers: entry r counts chains of r+1 elements walking cover
    edges; entry 0 is the number of elements.  `paths` holds, per element,
    the chains of the current rank that end at it; a chain has at most n
    elements, so anything left after n ranks is a cycle (ValueError)."""
    counts: list[int] = []
    paths = dict.fromkeys(covers, 1)
    while paths:
        if len(counts) == len(covers):
            raise ValueError(f"the covers have a cycle: {covers}")
        counts.append(sum(paths.values()))
        step: dict = {}
        for x, c in paths.items():
            for y in covers[x]:
                step[y] = step.get(y, 0) + c
        paths = step
    return tuple(counts)


def chain_partition(w) -> tuple[int, ...]:
    """The partition of the length of a smooth permutation read off the
    chain counts, highest rank first; (0,) for the identity."""
    if not is_smooth(w):
        raise ValueError(f"{w} contains 3412 or 4231; the chain partition needs smoothness")
    if w == identity_perm(len(w)):
        return (0,)
    rho = chain_counts(hasse_covers(w))
    lam = tuple(rho[r] for r in range(len(rho) - 1, 0, -1))
    if any(a > b for a, b in zip(lam, lam[1:])):
        raise AssertionError(f"chain counts of {w} are not strictly decreasing: {rho}")
    if sum(lam) != sum(inversion_code(w)):
        raise AssertionError(f"chain counts of {w} do not partition its length")
    return lam


def dual_partition(lam) -> tuple[int, ...]:
    """Conjugate partition, in weakly increasing (French) order."""
    lam = tuple(lam)
    if lam == (0,):
        return (0,)
    if any(x <= 0 for x in lam) or any(a > b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"{lam} is not a partition in weakly increasing order")
    return tuple(sum(1 for x in lam if x >= j) for j in range(lam[-1], 0, -1))


def smooth_exponents(w) -> tuple[int, ...]:
    """Exponents of a smooth permutation: the dual of its chain partition."""
    return dual_partition(chain_partition(w))


# ---------------------------------------------------------------------------
# Fubini words


def is_fubini_word(x) -> bool:
    x = tuple(x)
    if not x or min(x) < 0:
        return False
    return set(x) == set(range(max(x) + 1))


def is_lazy_fubini_word(x) -> bool:
    x = tuple(x)
    return bool(x) and x[0] == 0 and all(b - a <= 1 for a, b in zip(x, x[1:])) and min(x) >= 0


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# unimodal permutations and partitions into distinct parts


def is_unimodal_permutation(w) -> bool:
    n = len(w)
    peak = w.index(n)
    return (all(w[i] < w[i + 1] for i in range(peak))
            and all(w[i] > w[i + 1] for i in range(peak, n - 1)))


def unimodal_permutations(n) -> list[tuple[int, ...]]:
    return avoiders(n, UNIMODAL_PATTERNS)


def unimodal_to_partition(u) -> tuple[int, ...]:
    """The partition with distinct parts n - u(j+1), ..., n - u(n) read off
    the falling tail of a unimodal permutation."""
    if not is_unimodal_permutation(u):
        raise ValueError(f"{u} is not unimodal")
    n = len(u)
    if u == identity_perm(n):
        return (0,)
    peak = u.index(n)
    return tuple(n - u[i] for i in range(peak + 1, n))


def partition_to_unimodal(lam, n) -> tuple[int, ...]:
    lam = tuple(lam)
    if lam == (0,):
        return identity_perm(n)
    if (any(x <= 0 for x in lam) or lam[-1] > n - 1
            or any(a >= b for a, b in zip(lam, lam[1:]))):
        raise ValueError(f"{lam} is not a partition into distinct parts at most {n - 1}")
    tail = [n - x for x in lam]
    head = sorted(set(range(1, n + 1)) - set(tail))
    return tuple(head + tail)

