"""Verification suites: each re-checks one family of structural claims at
desk scale and returns a Report.  Each suite's reach is stated once, in
`SYSTEMS` (the systems it reads) or `N_RANGES` (the n of a Schubert suite,
which reads each enumerated S_k up to n against `schubert`).  `run_suite`,
which the CLI's `verify` and the tests call, alone reads --max-rank and --n.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, permutations, product
from math import prod

from . import codes as codes_mod
from . import intervals, schubert
from .coxeter import shared_poset
from .multicomplex import all_order_ideals, box_table, is_m_sequence, random_order_ideals
from .qpoly import IntPolynomial, q_analog_product
from .report import Report
from .simplicial import (
    ShellingFailure,
    box_shelling_steps,
    complex_of_ideal,
    f_vector,
    h_from_f,
    is_flag,
    is_flag_ideal,
    is_vertex_decomposable,
    join_certificate,
)

H3_UNIMODAL_TRIPLES = frozenset({
    (1, 5, 9), (1, 5, 4), (1, 4, 4), (1, 3, 4), (1, 2, 4), (1, 1, 4), (1, 2, 3),
    (0, 1, 4), (1, 1, 3), (1, 2, 2), (0, 1, 3), (1, 1, 2), (0, 1, 2), (1, 1, 1),
    (0, 1, 1), (0, 0, 1), (0, 0, 0),
})

CODE_SYSTEMS = (
    [("A", n, None) for n in range(1, 6)]
    + [("B", n, None) for n in range(2, 5)]
    + [("D", n, None) for n in (4, 5)]
    + [("H3", None, None)]
    + [("I2", None, m) for m in range(3, 11)]
)


def suite_codes(*, systems, **_) -> Report:
    """Validity of every shipped code and its dual, plus the dihedral count."""
    rep = Report("codes")
    for label, rank, m in systems:
        code = codes_mod.shared_standard_code(label, rank, m)
        sub = codes_mod.verify_code(code)
        sub.merge(codes_mod.verify_code(codes_mod.dual_code(code)))
        rep.merge(sub)
    dihedral = [m for label, _, m in systems if label == "I2" and m <= 5]
    for m in dihedral:
        found = codes_mod.enumerate_dihedral_codes(shared_poset("I2", None, m))
        rep.check(len(found) == 2 ** (m - 1),
                  f"I2({m}): found {len(found)} codes, expected {2 ** (m - 1)}")
    counts = "; dihedral counts at m=3,4,5" if dihedral else ""
    rep.note(f"{len(systems)} systems with duals{counts}")
    return rep


def _code_boxes(systems) -> set[tuple[int, ...]]:
    """The distinct boxes of the systems' standard codes."""
    return {codes_mod.shared_standard_code(label, rank, m).dims
            for label, rank, m in systems}


RANDOM_IDEAL_COUNT = 100
# the vd suite checks every ideal of each box up to this volume
VD_MAX_VOLUME = 16


def suite_shellings(*, systems, seed: int, **_) -> Report:
    """Every linear extension of every order ideal of a box shells its
    complex, with the ideal's rank counts for h-vector, and the f/h
    transform agrees.  The step at a point x minimal outside an ideal does
    not depend on the ideal (`box_shelling_steps`), so one check per point
    certifies both: l(G(x)) = x and |G(x)| = |x|.  The two facts pin G(x)
    to its closed form, the top x_i vertices of each class i: l(G(x)) = x
    puts those in G(x), and |G(x)| = |x| leaves room for nothing else.
    That runs on each distinct box of the systems' standard codes, whose lower
    intervals are order ideals of it, and on the boxes of the f/h ideals,
    stopping at a box's first failing point; the seed draws only the
    random ideals."""
    rep = Report("shellings")
    boxes = _code_boxes(systems) | {(2, 3), (2, 2, 2), (3, 3, 4)}
    points = 0
    for dims in sorted(boxes):
        for x, least_is_x, g in box_shelling_steps(dims):
            points += 1
            if not rep.check(least_is_x and g == sum(x),
                             lambda: f"box {dims}: point {x} has " + (
                                 f"|G(x)| = {g}, not {sum(x)}" if least_is_x else "l(G(x)) < x")):
                break
    ideals = [*all_order_ideals(box_table((2, 3))), *all_order_ideals(box_table((2, 2, 2))),
              *random_order_ideals(box_table((3, 3, 4)), RANDOM_IDEAL_COUNT, seed)]
    for ideal in ideals:
        sc = complex_of_ideal(ideal)
        rep.check(IntPolynomial(h_from_f(f_vector(sc), sc.dimension)) == ideal.f_polynomial(),
                  f"{ideal.to_json()}: f/h transform disagrees with the ideal ranks")
    rep.note(f"G(I, x) = G(x) whenever x is minimal outside I, so l(G(x)) = x and "
             f"|G(x)| = |x| at {points} points of {len(boxes)} boxes certify every "
             f"linear extension of every ideal of them; f/h on {len(ideals)} ideals")
    return rep


def _boxes_up_to(volume: int) -> list[tuple[int, ...]]:
    """Every box with sides of at least 2, as sorted dims, up to `volume`."""
    return sorted(b for k in range(1, volume.bit_length())
                  for b in combinations_with_replacement(range(2, volume + 1), k)
                  if prod(b) <= volume)


def suite_vd(*, systems, **_) -> Report:
    """The join-lemma certificate on every ideal of the boxes up to
    VD_MAX_VOLUME and at every point of the systems' code boxes, which
    certifies their every ideal, each lower interval of each code among them."""
    rep = Report("vertex decomposability")
    boxes = _boxes_up_to(VD_MAX_VOLUME)
    for dims in boxes:
        for ideal in all_order_ideals(box_table(dims)):
            rep.check(is_vertex_decomposable(ideal),
                      lambda: f"box {dims}: ideal {ideal.to_json()} not vertex decomposable")
    box_ideals, code_boxes = rep.instances, sorted(_code_boxes(systems))
    for dims in code_boxes:
        points = list(product(*map(range, dims)))
        for x, ok in zip(points, join_certificate(dims, points)):
            rep.check(ok, lambda: f"box {dims}: point {x} fails the join lemma")
    rep.note(f"each facet is the join of one chain facet per class, and each chain's top vertex "
             f"sheds: certified at every point of {box_ideals} ideals of {len(boxes)} boxes up "
             f"to volume {VD_MAX_VOLUME} and at the {rep.instances - box_ideals} points of the "
             f"{len(code_boxes)} boxes of {len(systems)} code systems, which hold every lower "
             f"interval of them")
    return rep


def suite_flag(**_) -> Report:
    """Flagness of the complex matches flagness of the ideal on 0/1 boxes."""
    rep = Report("flag equivalence")
    for dims in [(2, 2, 2), (2, 2, 2, 2)]:
        for ideal in all_order_ideals(box_table(dims)):
            rep.check(is_flag(complex_of_ideal(ideal)) == is_flag_ideal(ideal),
                      f"box {dims}: ideal {ideal.to_json()} breaks the equivalence")
    return rep


ROUTE_SYSTEMS = (
    [("A", n, None) for n in range(1, 5)]
    + [("B", 3, None), ("D", 4, None), ("H3", None, None)]
    + [("I2", None, m) for m in range(3, 9)]
)


def suite_routes(*, systems, **_) -> Report:
    """The three interval Poincare routes agree everywhere, including the
    worked S4 example with its maxima and meets when A3 is in `systems`."""
    rep = Report("route agreement")

    if ("A", 3, None) in systems:  # the worked S4 example
        a3 = shared_poset("A", 3)
        la3 = codes_mod.shared_standard_code("A", 3)
        w = a3.index[(3, 4, 1, 2)]
        expected = IntPolynomial([1, 3, 5, 4, 1])
        for route in intervals.ROUTES:
            _check_route(rep, w, la3, route, expected)
        ideal = intervals.interval_ideal(w, la3)
        maxima_elems = {a3.elements[la3.element(v)] for v in ideal.maxima()}
        rep.check(maxima_elems == {(2, 4, 1, 3), (3, 2, 1, 4), (3, 4, 1, 2)},
                  f"3412 maxima are {sorted(maxima_elems)}")
        u, v = a3.index[(2, 4, 1, 3)], a3.index[(3, 2, 1, 4)]
        meets = {
            a3.elements[intervals.code_meet(u, v, la3)],
            a3.elements[intervals.code_meet(u, w, la3)],
            a3.elements[intervals.code_meet(v, w, la3)],
            a3.elements[intervals.code_meet(intervals.code_meet(u, v, la3), w, la3)],
        }
        rep.check(meets == {(2, 1, 3, 4), (1, 4, 2, 3), (3, 1, 2, 4), (1, 2, 3, 4)},
                  f"3412 meets are {sorted(meets)}")

    for label, rank, m in systems:
        code = codes_mod.shared_standard_code(label, rank, m)
        sub = Report(f"routes {code.name}")
        for x in range(code.poset.size):
            direct = intervals.interval_poincare(x, code, "direct")
            for route in ("complex", "maxima"):
                _check_route(sub, x, code, route, direct)
        rep.merge(sub)
    return rep


def _check_route(rep: Report, w: int, code, route: str, expected: IntPolynomial) -> None:
    """One check that a route gives `expected`; a failed shelling fails it
    with a witness naming the system and the element."""
    try:
        got, why = intervals.interval_poincare(w, code, route), "differs"
    except ShellingFailure as exc:
        got, why = None, f"failed: {exc}"
    rep.check(got == expected, lambda: f"{code.poset.system.describe()} {code.poset.render(w)}: "
                                       f"{route} route {why}")


def suite_catalan(*, n: int, **_) -> Report:
    """Principal = lazy-Fubini code = 312-avoiding, element by element in
    each S_k, and each principal interval factors over its code."""
    rep = Report("catalan classification")
    for k in range(2, n + 1):
        poset = shared_poset("A", k - 1)
        avoiders312 = set(schubert.avoiders(k, ((3, 1, 2),)))
        count = 0
        for perm in permutations(range(1, k + 1)):
            w, code = poset.index[perm], schubert.inversion_code(perm)
            principal = intervals.is_principal(poset, w, code)
            lazy = schubert.is_lazy_fubini_word(code)
            av312 = perm in avoiders312
            rep.check(principal == lazy == av312,
                      lambda: f"{perm}: principal={principal} lazy={lazy} 312-avoiding={av312}")
            if principal:
                count += 1
                rep.check(IntPolynomial(poset.interval_poincare_coeffs(w))
                          == q_analog_product(x + 1 for x in code),
                          lambda: f"{perm}: interval does not factor over its code")
        rep.check(count == schubert.catalan(k),
                  f"S_{k}: found {count} principal elements, expected C_{k}")
        rep.note(f"catalan classification in S_{k}: {count} principal elements")
    return rep


# the seeded rooted forests the unimodal suite draws, beyond the smooth
# permutations' Hasse diagrams
FOREST_SAMPLES = 50


def random_forest_covers(size: int, rng: random.Random) -> dict:
    """Random forest on 1..size with each component oriented consistently
    toward or away from its root.

    Arbitrary acyclic orientations do not keep the chain counts monotone (a
    node with several lower covers and several upper covers multiplies the
    paths through it); consistently rooted components do.
    """
    parent = {}
    for child in range(2, size + 1):
        if rng.random() < 0.85:
            parent[child] = rng.randrange(1, child)

    def rep_of(x):
        while x in parent:
            x = parent[x]
        return x

    flip = {}
    covers: dict = {i: [] for i in range(1, size + 1)}
    for child, par in parent.items():
        root = rep_of(child)
        if root not in flip:
            flip[root] = rng.random() < 0.5
        if flip[root]:
            covers[par].append(child)
        else:
            covers[child].append(par)
    return covers


def suite_unimodal(*, n: int, seed: int, **_) -> Report:
    """Lex-minimal principal = weakly increasing Fubini code = unimodal in
    each S_k.  Then each unimodal u of S_min(n+1,6) has its tail partition
    as chain partition, mapping back to u, and its code is that partition's
    dual padded with zeros; and the chain counts decrease strictly on the
    Hasse forest of each smooth permutation of S_min(n,5) and on
    FOREST_SAMPLES rooted forests drawn from the seed."""
    rep = Report("unimodal classification")
    for k in range(2, n + 1):
        code = codes_mod.shared_standard_code("A", k - 1)
        lexmins = set(intervals.unimodal_set(code))
        count = 0
        for perm in permutations(range(1, k + 1)):
            w = code.poset.index[perm]
            lexmin = w in lexmins
            # the inversion code of perm: a leading 0, then the type A code
            vec = (0,) + code.of(w)
            increasing_fubini = (schubert.is_fubini_word(vec)
                                 and all(a <= b for a, b in zip(vec, vec[1:])))
            unimodal = schubert.is_unimodal_permutation(perm)
            rep.check(lexmin == increasing_fubini == unimodal,
                      lambda: f"{perm}: lexmin={lexmin} incr-fubini={increasing_fubini} "
                              f"unimodal={unimodal}")
            count += unimodal
        rep.check(count == 2 ** (k - 1), f"S_{k}: found {count} unimodal permutations")

    tail = min(n + 1, 6)
    for u in schubert.unimodal_permutations(tail):
        lam, chain = schubert.unimodal_to_partition(u), schubert.chain_partition(u)
        rep.check(lam == chain, lambda: f"{u}: tail partition {lam} != chain partition {chain}")
        back = schubert.partition_to_unimodal(lam, tail)
        rep.check(back == u, lambda: f"{u}: partition {lam} maps back to {back}")
        inversions = schubert.inversion_code(u)
        padded = (0,) * tail if lam == (0,) else (0,) * u[-1] + schubert.dual_partition(lam)
        rep.check(inversions == padded,
                  lambda: f"{u}: code {inversions} != zero-padded dual {padded}")

    for perm in schubert.smooth_permutations(min(n, 5)):
        covers = schubert.hasse_covers(perm)
        if rep.check(schubert.hasse_is_forest(covers),
                     lambda: f"{perm}: Hasse diagram is not a forest"):
            rho = schubert.chain_counts(covers)
            rep.check(all(a > b for a, b in zip(rho, rho[1:])),
                      lambda: f"{perm}: counts {rho} not strictly decreasing")
    rng = random.Random(seed)
    for _ in range(FOREST_SAMPLES):
        covers = random_forest_covers(rng.randint(2, 12), rng)
        rho = schubert.chain_counts(covers)
        rep.check(all(a > b for a, b in zip(rho, rho[1:])),
                  lambda: f"random rooted forest {covers}: counts {rho}")
    return rep


EXPECTED_SMOOTH_POLYS_S4 = (
    (1,), (2,), (2, 2), (2, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (2, 3, 4),
)


def suite_smooth(*, n: int, **_) -> Report:
    """Poincare polynomials of smooth and of unimodal permutations coincide
    as sets of 2^(k-1) in each S_k, and the intervals below the smooth
    permutations of S_min(n,5) factor over the exponents of their chain
    partitions."""
    rep = Report("smooth classification")
    for k in range(3, n + 1):
        poset = shared_poset("A", k - 1)
        smooth_polys = intervals.interval_polynomials(
            poset, (poset.index[p] for p in schubert.smooth_permutations(k)))
        unimodal_polys = intervals.interval_polynomials(
            poset, (poset.index[u] for u in schubert.unimodal_permutations(k)))
        size = len(smooth_polys)
        rep.check(smooth_polys == unimodal_polys,
                  f"S_{k}: {size} smooth vs {len(unimodal_polys)} unimodal polynomials")
        rep.check(size == 2 ** (k - 1),
                  f"S_{k}: {size} distinct polynomials, expected {2 ** (k - 1)}")
        if k == 4:
            expected = {q_analog_product(f) for f in EXPECTED_SMOOTH_POLYS_S4}
            rep.check(smooth_polys == expected, "explicit S_4 polynomial list differs")
        rep.note(f"smooth Poincare classification in S_{k}: {size} polynomials")
    poset = shared_poset("A", min(n, 5) - 1)
    for perm in schubert.smooth_permutations(min(n, 5)):
        exps = schubert.smooth_exponents(perm)
        rep.check(IntPolynomial(poset.interval_poincare_coeffs(poset.index[perm]))
                  == q_analog_product(e + 1 for e in exps),
                  lambda: f"{perm}: interval poly differs from exponent product {exps}")
    return rep


def suite_h3_unimodal(*, systems, **_) -> Report:
    """The 17 unimodal code triples and the palindromic classification."""
    rep = Report("H3 unimodal classification")
    for label, rank, m in systems:
        poset = shared_poset(label, rank, m)
        code = codes_mod.shared_standard_code(label, rank, m)
        uni = intervals.unimodal_set(code)
        rep.check(len(uni) == 17, f"|unimodal| = {len(uni)}")
        triples = {code.of(w) for w in uni}
        rep.check(triples == H3_UNIMODAL_TRIPLES,
                  f"triples differ: extra {sorted(triples - H3_UNIMODAL_TRIPLES)}, "
                  f"missing {sorted(H3_UNIMODAL_TRIPLES - triples)}")
        pal = intervals.palindromic_intervals(poset)
        uni_polys = intervals.interval_polynomials(poset, uni)
        pr_polys = intervals.interval_polynomials(poset, intervals.principal_set(code))
        rep.check(pal == uni_polys, "palindromic set differs from unimodal polynomials")
        rep.check(uni_polys == pr_polys, "unimodal and principal polynomials differ")
        rep.note(f"{len(uni)} unimodal code triples; {len(pal)} palindromic polynomials")
    return rep


def suite_d_factorization(*, systems, **_) -> Report:
    """Type D chain structure: quotient recursion and bijective factorization."""
    rep = Report("D factorization")
    for _, n, _ in systems:
        poset = shared_poset("D", n)
        rep.merge(codes_mod.verify_d_factorization(poset))
        code = codes_mod.shared_standard_code("D", n)  # build aborts on failure
        rep.check(code.box_size() == poset.size, f"D{n} code table size")
        chains = codes_mod.d_chain_words(n)
        sizes = [len(c) for c in chains]
        rep.check(sizes == [2 * i for i in range(1, n)] + [n],
                  f"D{n} chain sizes are {sizes}")
    return rep


def suite_h3_quotients(*, systems, **_) -> Report:
    rep = Report("H3 quotients")
    for label, rank, m in systems:  # H3 itself, or nothing below rank 3
        rep.merge(codes_mod.verify_h3_quotients(shared_poset(label, rank, m)))
    return rep


# (type, rank, whether the type B variant code is used, whether |Pal| > |U|
# or |Pal| = |U| is expected)
STRICT_INCLUSIONS = (("B", 3, False, True), ("B", 3, True, False), ("B", 4, True, True),
                     ("D", 4, False, False), ("D", 5, False, True))


def suite_strict_inclusions(*, systems, **_) -> Report:
    """Palindromic counts against unimodal counts for both B codes and D;
    a row runs only if its system is among `systems`."""
    rep = Report("palindromic strict inclusions")
    pal: dict[tuple[str, int], int] = {}
    for label, rank, variant, strict in STRICT_INCLUSIONS:
        if (label, rank, None) not in systems:
            continue
        if (label, rank) not in pal:
            pal[label, rank] = len(intervals.palindromic_intervals(shared_poset(label, rank)))
        got, uni = pal[label, rank], len(intervals.unimodal_set(
            codes_mod.shared_standard_code(label, rank, variant=variant)))
        rep.check(got > uni if strict else got == uni,
                  f"expected |Pal({label}{rank})| {'>' if strict else '='} "
                  f"|U(L{label}{rank}{'~' if variant else ''})|")
    return rep


def suite_msequence(*, systems, **_) -> Report:
    """Interval rank counts satisfy the Macaulay growth bound everywhere."""
    rep = Report("interval M-sequences")
    for label, rank, m in systems:
        poset = shared_poset(label, rank, m)
        for w in range(poset.size):
            rep.check(is_m_sequence(poset.interval_poincare_coeffs(w)),
                      lambda: f"{poset.system.describe()}: interval below {poset.render(w)}")
    return rep


def suite_exponents(*, systems, **_) -> Report:
    """The group Poincare polynomial factors over the standard exponents,
    each type's invariant degrees minus one, exactly."""
    rep = Report("exponent products")
    for label, rank, m in systems:
        if label == "A":
            exps = tuple(range(1, rank + 1))
        elif label == "B":
            exps = tuple(range(1, 2 * rank, 2))
        elif label == "D":
            exps = tuple(sorted([*range(1, 2 * rank - 2, 2), rank - 1]))
        else:
            exps = (1, 5, 9) if label == "H3" else (1, m - 1)
        poset = shared_poset(label, rank, m)
        got = poset.exponents()
        rep.check(got == exps, f"{poset.system.describe()}: exponents {got} != {exps}")
        rep.check(poset.group_poincare() == q_analog_product(e + 1 for e in got),
                  f"{poset.system.describe()}: Poincare product mismatch")
    return rep


SUITES = {
    "codes": suite_codes,
    "shellings": suite_shellings,
    "vd": suite_vd,
    "flag": suite_flag,
    "routes": suite_routes,
    "catalan": suite_catalan,
    "unimodal": suite_unimodal,
    "smooth": suite_smooth,
    "h3-unimodal": suite_h3_unimodal,
    "d-factorization": suite_d_factorization,
    "h3-quotients": suite_h3_quotients,
    "strict-inclusions": suite_strict_inclusions,
    "msequence": suite_msequence,
    "exponents": suite_exponents,
}


# suite -> the (label, rank, m) systems it reads; flag reads boxes only
SYSTEMS = {
    **dict.fromkeys(("codes", "shellings", "vd", "exponents"), CODE_SYSTEMS),
    "flag": (),
    "routes": ROUTE_SYSTEMS,
    "h3-unimodal": (("H3", None, None),),
    "h3-quotients": (("H3", None, None),),
    "d-factorization": (("D", 4, None), ("D", 5, None)),
    "strict-inclusions": tuple(dict.fromkeys((t, r, None) for t, r, _, _ in STRICT_INCLUSIONS)),
    "msequence": (("A", 4, None), ("B", 3, None), ("D", 4, None), ("H3", None, None),
                  ("I2", None, 8)),
}

# suite -> the (least, default, greatest) n it runs at.  S_9 (362,880
# elements) lies above coxeter.ENUMERATION_LIMIT; smooth stays at S_6, where
# its checks have always stopped, and reads S_2 at least; catalan below 2
# runs nothing, which the CLI refuses as a report with 0 checks
N_RANGES = {"catalan": (None, 7, 8), "unimodal": (0, 5, 8), "smooth": (2, 6, 6)}


def _scope(key: str, n: int | None, max_rank: int | None) -> dict:
    """The arguments suite `key` runs with: its systems up to max_rank (H3
    counts as rank 3 and I2(m) as rank 2), or its n, the default if None,
    lowered to max_rank + 1 and refused outside its range."""
    if key in SYSTEMS:
        return {"systems": [(label, rank, m) for label, rank, m in SYSTEMS[key]
                            if max_rank is None
                            or (rank or (3 if label == "H3" else 2)) <= max_rank]}
    least, default, greatest = N_RANGES[key]
    got = default if n is None else n
    if max_rank is not None:
        got = min(got, max_rank + 1)
    if got > greatest or least is not None and got < least:
        span = f"up to {greatest}" if least is None else f"from {least} to {greatest}"
        capped = f" (--n {n} capped by --max-rank {max_rank})" if got != n else ""
        raise ValueError(f"suite {key} takes --n {span}, got {got}{capped}")
    return {"n": got}


def run_suite(name: str, n: int | None = None, max_rank: int | None = None,
              seed: int = 2024) -> Report:
    """Run suite `name`, or every suite for "all", in one report.  A bad
    max_rank, name or n raises ValueError before any suite runs, and so
    does a report of 0 checks after, since it verified nothing."""
    if max_rank is not None and max_rank < 1:
        raise ValueError(f"--max-rank takes a rank of at least 1, got {max_rank}")
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; valid: {', '.join([*SUITES, 'all'])}")
    if n is not None and name in SYSTEMS:
        raise ValueError(f"suite {name} takes no --n")
    scopes = {key: _scope(key, n, max_rank) for key in (SUITES if name == "all" else [name])}
    if name != "all":
        rep = SUITES[name](seed=seed, **scopes[name])
    else:
        rep = Report("all")
        for key, scope in scopes.items():
            rep.merge(SUITES[key](seed=seed, **scope))
    if not rep.instances:
        raise ValueError(f"suite {name} ran 0 checks, so it verified nothing")
    return rep
