"""Reference implementations the tests compare the library against.

Nothing in `coxlehmer` calls these; each is the slow or definitional
version of something the library does another way.

Ledger, one line per oracle: the `src/` path it checks; the test that
compares them; the groups or boxes covered.

- downsets_whole_group: coxeter `_downsets` and `BruhatPoset.downset`, which store the
  even-length downsets and rebuild an odd-length one from its lower covers;
  test_coxeter::test_downsets_match_the_whole_group_oracle; A1-A5, B2-B5, D4, D5, H3,
  I2(3..10); test_coxeter::test_even_length_downsets_take_half_the_bytes; A5, B5, D5.
- tuple_poset_tables, tuple_code_tables: coxeter `BruhatPoset`'s last-letter store, its
  `word` view, tuple rows and covers and `inverse`, and codes `LehmerCode`'s flat
  vectors and array lookup, `_product_code` and `dual_code`;
  test_codes::test_flat_tables_match_the_tuple_tables; A1-A5, B2-B5 (both codes), D4, D5,
  H3, I2(3..10); test_codes::test_flat_tables_take_under_0_6_of_the_tuple_bytes; D5.
- reflections, left_mult: coxeter `CoxeterSystem.reflections`, the BFS covers, and
  `descents_left` and `weak_left_interval`, which left-multiply through `inverse`;
  test_coxeter::test_tables_match_compose_oracle; A1-A5, B2-B5, D4, D5, H3, I2(3..10).
- product_code_by_combinations: codes `_product_code`, fed by the one word-table walker
  `_walk`; test_codes::test_product_code_matches_the_combination_oracle; A1-A5, B2-B5,
  D4, D5, H3, I2(3..10), and its three build errors on D4's walked table.
- code_leq: intervals `code_meet`, and Bruhat order through the code;
  test_intervals::test_code_order_refines_bruhat; A3 and H3.
- is_order_ideal: multicomplex `OrderIdeal` closure and intervals `interval_ideal`;
  test_multicomplex::test_closure_check_matches_the_tuple_oracle_on_every_subset;
  every subset of (2, 3) and (2, 2, 2); every interval of A4, B3, D4, H3.
- is_linear_extension: multicomplex `sample_linear_extensions`;
  test_multicomplex::test_sampled_extensions_are_extensions_and_deterministic; (3, 3).
- order_from_extension, extension_shellings: simplicial `verify_shelling`;
  test_simplicial::test_walk_matches_verify_shelling_on_every_ideal; every ideal of
  (2, 3), (2, 2, 2), (2, 2, 3), (3, 3), seeded ideals of (3, 3, 4) up to 9 points.
- shellings_by_extension: no `src/` path; it checks the lattice pass, oracle against
  oracle, in test_simplicial::test_lattice_matches_the_extension_walk_on_every_ideal;
  the same four boxes and 38 of the 100 seed-2024 ideals of (3, 3, 4).
- LatticeShellings, shelling_lattice: simplicial `box_shelling_steps`;
  test_simplicial::test_lattice_verdict_is_the_per_point_verdict; the 159 ideals of
  LEMMA_BOXES, every A3 interval and the B3 intervals up to 24 points.
- maximalize, pure, vertex_decomposable_by_search: simplicial `join_certificate`;
  test_simplicial::test_vd_certificate_matches_the_search; 877 ideals up to 64 facets.
- vertex_decomposable_by_shedding (`_shed`, `_failing`): simplicial `join_certificate`;
  test_simplicial::test_vd_certificate_matches_the_shedding_recursion; the 805 ideals
  of the boxes up to volume 16 and the 578 intervals of the route systems.
- facet_of, facet_vertices, complex_from_sets: simplicial `_facet_masks`;
  test_simplicial::test_facet_rule_masks_unpack_to_facet_of; (2, 3), (2, 2, 2), (3, 3, 4),
  (1, 3).
- omitted_bits: simplicial `_classes`, the omitted-vertex rule;
  test_simplicial::test_facet_rule_masks_unpack_to_facet_of; the same four boxes.
- least_container: simplicial `_shelling_step`'s least container;
  test_simplicial::test_least_container_matches_brute_force; every face of (2, 3),
  (2, 2, 2), (3, 3), (1, 3).
- interval_ideal_by_walk: intervals `interval_ideal`;
  test_intervals::test_interval_ideal_matches_the_walk_on_every_element; every element of
  the 19 code systems.
- sum_of_products: no `src/` path; the schoolbook products and sums that the four
  polynomial oracles below and test_qpoly's and test_intervals' hand expansions share.
- q_analog_product_by_multiplying: qpoly `q_analog_product`;
  test_properties::test_running_sums_match_repeated_products; Hypothesis lists of n.
- transform_by_powers: simplicial `_transform` behind `h_from_f` and `f_from_h`, the
  powers of (x + c) it once multiplied out;
  test_properties::test_fh_transforms_match_the_powers_of_x_plus_c; Hypothesis vectors
  of length 1-12, dim from len - 3 (at least -1) to len + 1.
- maxima_by_subsets: intervals `_maxima_polynomial`;
  test_intervals::test_maxima_table_matches_the_subset_oracle; A1-A5, B2-B4, D4, H3,
  I2(3..10), and seeded ideals of (3, 3, 4) in test_fuzz.
- parabolic_decompose: coxeter `descents_left`, `minimal_coset_reps`;
  test_coxeter::test_parabolic_lengths_add_everywhere; A3 and B3.
- parabolic_elements, the parabolic search the quotient codes once ran: codes
  `d_chain_words`' first parts, the one-step quotients each chain of D's word table opens
  with; test_codes::test_chain_first_parts_are_parabolic_quotients; D4.
- quotient_factorization: codes `quotient_chain_code`, the A, B and I2 word tables (the
  prefixes of one word per factor) read by `_walk`;
  test_codes::test_quotient_codes_match_the_factorization_oracle; A1-A6, B2-B5 (both
  codes), I2(3..10).
- palindromic_intervals_unfiltered: intervals `palindromic_intervals`;
  test_intervals::test_palindromic_scan_matches_the_unfiltered_oracle; A1-A6, B2-B5,
  D4-D6, H3, I2(3..10).
- principal_set_by_popcount: intervals `principal_set`;
  test_intervals::test_principal_set_matches_the_popcount_oracle; the 19 code systems,
  the B3 and B4 variant codes and D6.
- unimodal_set_by_orbits: intervals `unimodal_set`;
  test_intervals::test_unimodal_set_matches_the_orbit_oracle; the same codes.
- avoids_by_standardizing: schubert `avoids`;
  test_schubert::test_avoids_matches_the_standardizing_oracle; six patterns up to 25314.
- avoiders_by_scan: schubert `avoiders`, the insertion generator behind
  `smooth_permutations` and the catalan suite's 312-avoiders;
  test_schubert::test_avoiders_match_the_scan_oracle; 312 and SMOOTH_PATTERNS on S_0..S_7,
  the six `avoids` patterns, 1 and {21, 3412} on S_0..S_6.
- kernel_tables, mat3_compose, reflection_matrix, BOND_VALUES, matrix_h3_tables,
  affine_dihedral_tables: coxeter `_root_permutations` and the BFS through `_compose`;
  the old H3 and I2 kernels run through `kernel_tables`, the BFS with compose(e, g);
  test_coxeter::test_root_permutations_match_the_old_kernels; H3, I2(3..10).
- upper_covers, maxima_by_covers: multicomplex `_BoxTable` and `OrderIdeal.maxima`;
  test_multicomplex::test_ideal_views_match_the_tuple_definitions; (2, 3), (2, 2, 2),
  (3, 3), (1, 3), (2, 2, 3).
- all_order_ideals_by_sets: multicomplex `all_order_ideals`;
  test_multicomplex::test_all_order_ideals_match_the_set_oracle; eleven boxes, (2,) to
  (2, 2, 2, 2), (4, 4) and (2, 8).
- is_flag_ideal_by_scan: simplicial `is_flag_ideal`;
  test_simplicial::test_flag_ideal_matches_the_point_scan_on_every_ideal; (2, 2, 2),
  (2, 2, 2, 2).
- maxima_polynomial_by_sums: intervals `_maxima_polynomial`, the tuple meets and
  coefficient-list sums the unary codes and packed box polynomials replaced;
  test_intervals::test_bitmask_paths_match_the_tuple_paths_on_route_systems, every
  element of the route systems, 40 sampled ones of A5, B4, D5;
  test_intervals::test_maxima_route_matches_the_tuple_sums_on_every_small_ideal, the
  805 ideals of the boxes up to volume 16 and every ideal of (1, 3) and (2, 1, 3).
- ShellingState, pushed, rank_lex, push_all: simplicial `_walk` and the complex route;
  test_simplicial::test_step_memo_route_fails_where_the_state_fails; every ideal of
  (2, 3), (3, 3), (2, 2, 2), (3, 2, 2), (2, 2, 3), true and corrupted facet rules.
- shelling_step_by_lookups, LookupShellingState: simplicial `_shelling_step`;
  test_intervals::test_bitmask_paths_match_the_tuple_paths_on_route_systems; as above.
- one_facet_per_column, facet_rule, step_rule: planted faults, not oracles; the
  corrupted-rule tests in test_simplicial, test_intervals and test_cli.
- planted_code: a planted fault, not an oracle; the corrupted-code tests in test_codes
  and test_intervals.
"""

import itertools
from array import array
from contextlib import contextmanager
from math import prod

from coxlehmer import simplicial
from coxlehmer.codes import _NO_ELEMENT, CodeBuildError, LehmerCode, _product_code
from coxlehmer.coxeter import SizeLimitError, _compose, _right_actions, build_system
from coxlehmer.intervals import InvalidCodeImage
from coxlehmer.multicomplex import (
    OrderIdeal,
    _bits,
    _BoxTable,
    box_table,
    linear_extensions,
    lower_covers,
    meet,
)
from coxlehmer.qpoly import IntPolynomial
from coxlehmer.schubert import avoids
from coxlehmer.simplicial import (
    SimplicialComplex,
    _classes,
    _put_on_lines,
    _shelling_step,
    complex_of_ideal,
)


def downsets_whole_group(covers_down) -> list[int]:
    """Every element's reachability bitset, one |W|-bit int each, the store
    `BruhatPoset` held before it kept even lengths only: indices are
    length-graded, so every lower cover of w is built before w."""
    down: list[int] = []
    for w, lows in enumerate(covers_down):
        m = 1 << w
        for u in lows:
            m |= down[u]
        down.append(m)
    return down


def tuple_poset_tables(system):
    """(elements, index, length, word, right_mult, covers_down) as
    `BruhatPoset` stored them before it kept one last letter per element and
    tuple rows: the same BFS and lifting step, with a word tuple per element
    and lists for the multiplication rows and the lower covers."""
    actions = list(enumerate(_right_actions(system)))
    elements, index = [system.identity], {system.identity: 0}
    length, word, right_mult = [0], [()], []
    for u, eu in enumerate(elements):  # grows as new elements are found
        row = []
        for gi, act in actions:
            v = act(eu)
            j = index.get(v)
            if j is None:
                j = index[v] = len(elements)
                elements.append(v)
                length.append(length[u] + 1)
                word.append(word[u] + (gi,))
            row.append(j)
        right_mult.append(row)
    covers_down = [[]]
    for w in range(1, len(elements)):
        s = word[w][-1]
        ws = right_mult[w][s]
        lows = [ws]
        for v in covers_down[ws]:
            vs = right_mult[v][s]
            if length[vs] > length[v]:
                lows.append(vs)
        covers_down.append(lows)
    return elements, index, length, word, right_mult, covers_down


def tuple_code_tables(tables, factors):
    """(vectors, lookup, dual vectors) as `LehmerCode` stored them before the
    flat arrays: a list of vector tuples and a dict back, built by the
    product walk with each factor element multiplied in through its word
    tuple, and the dual's vectors read through inverses that apply each word
    reversed; `tables` are `tuple_poset_tables`."""
    _, _, length, word, right_mult, _ = tables

    def apply(u, letters):
        for gi in letters:
            u = right_mult[u][gi]
        return u

    *head, last = factors
    vectors = [None] * len(word)
    stack = [(0, 0, ())]
    while stack:
        k, u, vec = stack.pop()
        if k < len(head):
            stack.extend((k + 1, apply(u, word[x]), vec + coords)
                         for coords, x in reversed(head[k]))
            continue
        for coords, x in last:
            vectors[apply(u, word[x])] = vec + coords
    lookup = {v: w for w, v in enumerate(vectors)}
    return vectors, lookup, [vectors[apply(0, wd[::-1])] for wd in word]


def left_mult(poset, g, u: int) -> int:
    """The index of g u, g a generator's one-line tuple, through the kernel."""
    return poset.index[_compose(g, poset.elements[u])]


def reflections(poset) -> list[int]:
    """Every conjugate of a simple reflection, closed under s t s."""
    gens = poset.system.generators
    seen = set(poset.index[g] for g in gens)
    frontier = list(seen)
    while frontier:
        t = frontier.pop()
        for gi, g in enumerate(gens):
            u = left_mult(poset, g, poset.right_mult[t][gi])
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return sorted(seen)


def product_code_by_combinations(name, poset, factors):
    """`codes._product_code` one itertools.product combination at a time,
    each product multiplied out from the identity, with the same checks
    and messages; the vectors are then made a code as `_make_code` makes
    one, the product code of one factor.  `_product_code` is the function
    bound here at import, since the tests put this oracle in its place."""
    length = poset.length
    vectors = [None] * poset.size
    for combo in itertools.product(*factors):
        w = total = 0
        vec = ()
        for coords, x in combo:
            w = poset.mult(w, x)
            total += length[x]
            vec += coords
        if total != length[w]:
            raise CodeBuildError(f"{name}: factor lengths do not add up for "
                                 f"{poset.render(w)}")
        if vectors[w] is not None:
            raise CodeBuildError(f"{name}: {poset.render(w)} factors twice")
        vectors[w] = vec
    if None in vectors:
        raise CodeBuildError(f"{name}: no product reaches "
                             f"{poset.render(vectors.index(None))}")
    return _product_code(name, poset, [list(zip(vectors, range(poset.size)))])


def code_leq(u: int, v: int, code) -> bool:
    """The componentwise order on code vectors, pulled back to the group."""
    return all(a <= b for a, b in zip(code.of(u), code.of(v)))


def is_order_ideal(box, points) -> bool:
    """Whether the points lie in the box and hold each other's lower covers."""
    pts = frozenset(tuple(p) for p in points)
    dims = box.dims
    return (all(len(p) == len(dims) and all(0 <= x < d for x, d in zip(p, dims)) for p in pts)
            and all(q in pts for p in pts for q in lower_covers(p)))


def is_linear_extension(ideal, order) -> bool:
    """Whether `order` lists the ideal's points, each after its lower covers."""
    seen = set()
    for p in order:
        if any(q not in seen for q in lower_covers(p)):
            return False
        seen.add(p)
    return seen == set(ideal)


def order_from_extension(sc, extension) -> list[int]:
    """Facet order induced by a linear extension of zero-based ideal points."""
    idx = {lab: i for i, lab in enumerate(sc.labels)}
    return [idx[tuple(x + 1 for x in p)] for p in extension]


def extension_shellings(ideal):
    """(extension, shells, h-vector or None) for every linear extension of
    the ideal, in `linear_extensions` order.

    The check is `verify_shelling`'s: G_j holds the vertices v of F_j with
    F_j - v inside an earlier facet, and no earlier facet may contain G_j.
    Each extension replays only the steps after its common prefix with the
    last prefix that shelled, so the walk costs one step per trie node."""
    sc = complex_of_ideal(ideal)
    facet = {tuple(x - 1 for x in lab): m for lab, m in zip(sc.labels, sc.facets)}
    size = sc.dimension + 2
    done = []  # (point, facet, codim-1 subfaces, |G_j|) of the prefix that shelled
    seen = {}  # subface -> how many prefix facets hold it
    for ext in linear_extensions(ideal):
        k = 0
        while k < len(done) and done[k][0] == ext[k]:
            k += 1
        for _, _, subs, _ in done[k:]:
            for sub in subs:
                seen[sub] -= 1
        del done[k:]
        ok = True
        for p in ext[k:]:
            fj = facet[p]
            subs = [fj ^ 1 << b for b in range(fj.bit_length()) if fj >> b & 1]
            gj = 0
            for sub in subs:
                if seen.get(sub):
                    gj |= fj ^ sub
            if any(gj & ~fi == 0 for _, fi, _, _ in done):
                ok = False
                break
            for sub in subs:
                seen[sub] = seen.get(sub, 0) + 1
            done.append((p, fj, subs, gj.bit_count()))
        h = None
        if ok:
            h = [0] * size
            for *_, g in done:
                h[g] += 1
            h = tuple(h)
        yield ext, ok, h


def shellings_by_extension(ideal):
    """(True, the set of h-vectors, the number of extensions) if every
    extension shells, else (False, None, None), from `extension_shellings`:
    what `shelling_lattice` must find."""
    h_vectors, count = set(), 0
    for _, shells, h in extension_shellings(ideal):
        if not shells:
            return False, None, None
        h_vectors.add(h)
        count += 1
    return True, h_vectors, count


class LatticeShellings:
    """What `shelling_lattice` found for one ideal: whether every edge
    passed, else (the earlier point whose facet contains G, the new point)
    at the first failing edge; on success the set of h-vectors of all linear
    extensions and their number; and the sub-ideals and edges visited."""

    def __init__(self, ok, violation, h_vectors, extensions, sub_ideals, edges):
        self.ok, self.violation, self.h_vectors = ok, violation, h_vectors
        self.extensions, self.sub_ideals, self.edges = extensions, sub_ideals, edges


def shelling_lattice(ideal) -> LatticeShellings:
    """Check every linear extension of the ideal's complex at once, without
    the per-point lemma that `simplicial.box_shelling_steps` rests on.

    The shelling condition at a step depends only on the set of earlier
    facets and the new one, so an extension shells iff each of its steps,
    an edge (I, x) of the lattice of sub-ideals with x minimal outside I,
    passes `_shelling_step` (Bjorner & Wachs, Trans. AMS 348 (1996)).  The
    pass goes level by level over the sub-ideals, bitmasks over the points
    in rank-then-lex order, checks each edge once and stops at the first
    failure.  It carries to each sub-ideal the number of its extensions and
    the set of their h-vectors, packed one count per `width` bits."""
    table = ideal.box
    dims, classes = table.dims, _classes(table.dims)
    lex = ideal.rank_order()
    pts = [table.points[j] for j in lex]
    index = {j: i for i, j in enumerate(lex)}  # lex index -> position in pts
    below = [sum(1 << index[table.index[q]] for q in lower_covers(p)) for p in pts]
    above: list[list[int]] = [[] for _ in pts]
    for y, m in enumerate(below):
        for x in _bits(m):
            above[x].append(y)
    facets = simplicial._facet_masks(dims, pts)
    # G(I, x) reads I only through the facets holding a codim-1 subface of F_x
    rim = facets[0].bit_count() - 1
    near = [sum(1 << j for j, e in enumerate(facets) if (f & e).bit_count() >= rim)
            for f in facets]
    steps: list[dict[int, tuple[int, int]]] = [{} for _ in pts]
    width = len(pts).bit_length()
    # sub-ideal -> [extensions of it, packed h-vectors, its minimal outside points]
    level = {0: [1, {0}, sum(1 << i for i, m in enumerate(below) if not m)]}
    sub_ideals = edges = 0
    for _ in pts:
        sub_ideals += len(level)
        nxt: dict[int, list] = {}
        for done, (paths, hs, minimal) in level.items():
            for x in _bits(minimal):
                bit = 1 << x
                edges += 1
                key = done & near[x]
                step = steps[x].get(key)
                if step is None:
                    lines: dict[int, int] = {}
                    for j in _bits(key):
                        _put_on_lines(classes, lines, facets[j])
                    g, least = _shelling_step(classes, lines, facets[x])
                    step = steps[x][key] = (1 << width * g.bit_count(), 1 << index[least])
                inc, least_bit = step
                if done & least_bit:
                    violation = (pts[least_bit.bit_length() - 1], pts[x])
                    return LatticeShellings(False, violation, None, None, sub_ideals, edges)
                grown = done | bit
                entry = nxt.get(grown)
                if entry is None:
                    outside = minimal ^ bit
                    for y in above[x]:
                        if not below[y] & ~grown:
                            outside |= 1 << y
                    nxt[grown] = [paths, {h + inc for h in hs}, outside]
                else:
                    entry[0] += paths
                    entry[1].update([h + inc for h in hs])
        level = nxt
    ((paths, hs, _),) = level.values()
    mask = (1 << width) - 1
    h_vectors = {tuple(h >> width * k & mask for k in range(facets[0].bit_count() + 1))
                 for h in hs}
    return LatticeShellings(True, None, h_vectors, paths, sub_ideals + 1, edges)


# The generic vertex-decomposability search the library ran before it
# certified ideal complexes by the shedding lemma: any pure complex, every
# vertex tried as a shedding vertex, the verdicts kept in one process-wide
# cache, and a facet limit in place of a bound on the search.

_VD_CACHE: dict[tuple[int, ...], bool] = {}


def maximalize(masks) -> list[int]:
    """The distinct maximal masks, largest first."""
    out = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(m & ~k == 0 for k in out):
            out.append(m)
    return out


def pure(masks) -> bool:
    """Whether the masks all have one size."""
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
        deletion = maximalize([m & ~bit for m in facets])
        if not pure(deletion):
            continue  # not a shedding vertex
        link = maximalize([m & ~bit for m in facets if m & bit])
        if _vd(tuple(link)) and _vd(tuple(deletion)):
            result = True
            break
    _VD_CACHE[key] = result
    return result


def vertex_decomposable_by_search(sc, max_facets: int = 20) -> bool:
    """Recursive shedding-vertex search over a pure complex's facets, with
    memoization.  Raises SizeLimitError beyond `max_facets` rather than
    running an unbounded search."""
    if not sc.is_pure():
        raise ValueError("vertex decomposability here applies to pure complexes")
    if sc.facet_count > max_facets:
        raise SizeLimitError(
            f"{sc.facet_count} facets exceeds the limit {max_facets}; raise max_facets")
    return _vd(sc.facets)


# The vertex-decomposability certificate the library ran before it checked
# the join lemma at each box point: the shedding lemma's recursion over the
# ideal's deletions and links, with the facet identities checked per box and
# class at every node.


def vertex_decomposable_by_shedding(ideal, memo: dict | None = None) -> bool:
    """Certify that a nonempty ideal's complex is vertex decomposable by the
    shedding lemma (Provan & Billera, Math. Oper. Res. 5 (1980); Bjorner &
    Wachs, Trans. AMS 348 (1996), 11): if I moves in class i, (d_i, i)
    sheds, with deletion the complex of {x in I : x_i = 0} and link that of
    {x - e_i : x_i >= 1} in the box d - e_i.  Share `memo` across calls."""
    if not ideal.mask:
        raise ValueError("the empty ideal has no complex")
    return _shed(ideal.box.dims, ideal.mask, {} if memo is None else memo)


def _shed(dims: tuple[int, ...], mask: int, memo: dict) -> bool:
    """The certificate at the point set `mask` of the box `dims`, for i the
    first class it moves in: it holds x - e_i for each x with x_i >= 1, the
    link and the deletion pass, and no point of it is `_failing`.
    `memo` maps dims to the box's own table (not `box_table`'s, so it is
    freed with the memo), its facets from `simplicial._facet_masks`, its
    verdicts by mask and `_failing` by class."""
    # the origin alone, mask 1, is a simplex
    entry = memo.get(dims)
    if entry is None:
        table = _BoxTable(dims)
        entry = memo[dims] = (table, simplicial._facet_masks(dims, table.points), {1: True}, {})
    table, facets, verdicts, bad = entry
    if mask in verdicts:
        return verdicts[mask]
    i = next(i for i, z in enumerate(table.nonzero) if mask & z)
    z, s, sub = table.nonzero[i], table.strides[i], dims[:i] + (dims[i] - 1,) + dims[i + 1:]
    ok = (not (mask & z) >> s & ~mask and _shed(sub, mask >> s, memo)
          and _shed(dims, mask & (1 << s) - 1, memo))
    if ok and i not in bad:  # the link's call made the entry of its box
        bad[i] = _failing(table, facets, i, memo[sub][1])
    verdicts[mask] = ok = ok and not mask & bad[i]
    return ok


def _failing(table, facets: list[int], i: int, sub_facets: list[int]) -> int:
    """The points x with x_k = 0 for k < i (bits j < d_i stride) where the
    lemma fails for v = (d_i, i), the class-i vertex the facets at x_i = 0
    omit: v in F_x iff x_i >= 1, and then F_x - v in F_y, y = x - x_i e_i
    (bit j % stride), |F_y| = |F_x|, and F_x - v, bits above v shifted down,
    is the facet of x - e_i (bit j - stride) in d - e_i."""
    v, s, out = omitted_bits(table.dims)[i][0], table.strides[i], 0
    for j in range(table.dims[i] * s):
        f, g = facets[j], facets[j % s]
        holds = (f & v and not f & ~v & ~g and (g & ~f).bit_count() == 1
                 and f & v - 1 | f >> 1 & ~(v - 1) == sub_facets[j - s]) if j >= s else not f & v
        out |= (not holds) << j
    return out


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


def complex_from_sets(facets, universe=None) -> SimplicialComplex:
    """A complex from its facets as vertex sets, over `universe` or else the
    sorted union of the facets."""
    facet_sets = [frozenset(f) for f in facets]
    if universe is None:
        universe = sorted(frozenset().union(*facet_sets))
    index = {v: b for b, v in enumerate(universe)}
    return SimplicialComplex([sum(1 << index[v] for v in f) for f in facet_sets], universe)


def interval_ideal_by_walk(w: int, code) -> OrderIdeal:
    """`intervals.interval_ideal` by walking the downset bit by bit and
    OR-ing in each element's box position, quadratic in the mask's size."""
    poset = code.poset
    box = box_table(tuple(b + 1 for b in code.bounds))
    position, mask = code.box_index, 0
    for v in _bits(poset.downset(w)):
        mask |= 1 << position[v]
    try:
        return OrderIdeal(box, mask)
    except ValueError:
        raise InvalidCodeImage(f"{code.name}: image of the interval below "
                               f"{poset.render(w)} is not an order ideal") from None


def sum_of_products(terms) -> IntPolynomial:
    """sum c * p_1 * ... * p_k over the terms (c, [p_1, ..., p_k]), each p a
    coefficient list from the constant term up, multiplied out schoolbook."""
    total = []
    for c, factors in terms:
        term = [c]
        for p in factors:
            out = [0] * (len(term) + len(p) - 1)
            for i, a in enumerate(term):
                for j, b in enumerate(p):
                    out[i + j] += a * b
            term = out
        total += [0] * (len(term) - len(total))
        for i, a in enumerate(term):
            total[i] += a
    return IntPolynomial(total)


def q_analog_product_by_multiplying(ns) -> IntPolynomial:
    """`qpoly.q_analog_product` as repeated products with
    [n]_q = 1 + q + ... + q^(n-1), one coefficient list per factor."""
    ns = list(ns)
    for n in ns:
        if n < 1:
            raise ValueError(f"q-analog is defined for n >= 1, got {n}")
    return sum_of_products([(1, [[1] * n for n in ns])])


def transform_by_powers(v, dim: int, c: int) -> tuple[int, ...]:
    """simplicial `_transform` as the polynomial it reads: sum_i v_i (x + c)^(d+1-i),
    each power multiplied out, its coefficients from x^(d+1) down; entries of
    v past d + 1 are ignored."""
    d1 = dim + 1
    cs = sum_of_products((v[i] if i < len(v) else 0, [[c, 1]] * (d1 - i))
                         for i in range(d1 + 1)).coeffs
    return tuple(cs[d1 - j] if d1 - j < len(cs) else 0 for j in range(d1 + 1))


def maxima_by_subsets(ideal) -> IntPolynomial:
    """Inclusion-exclusion over every nonempty subset of the ideal's maxima,
    2^k - 1 terms, each the signed box below the subset's meet.  The signs
    are summed per meet before the q-analog products are taken, which keeps
    the 65,535 subsets of a 16-maxima ideal cheap."""
    maxs = sorted(ideal.maxima())
    k = len(maxs)
    signs = {}

    def rec(start, current, size):
        for j in range(start, k):
            m = meet(current, maxs[j]) if size else maxs[j]
            signs[m] = signs.get(m, 0) + (1 if size % 2 == 0 else -1)
            rec(j + 1, m, size + 1)

    rec(0, None, 0)
    return sum_of_products((c, [[1] * (x + 1) for x in m]) for m, c in signs.items())


def facet_vertices(sc, i: int) -> frozenset:
    """The vertices of facet i, unpacked from its bitmask."""
    return frozenset(v for b, v in enumerate(sc.vertices) if sc.facets[i] >> b & 1)


def parabolic_decompose(poset, w: int, J) -> tuple[int, int]:
    """Split w = w_J * u with u the minimal coset representative: u has no
    left descent in J and lengths add."""
    gens = [poset.system.generators[gi] for gi in J]
    u = w
    moved = True
    while moved:
        moved = False
        for g in gens:
            v = left_mult(poset, g, u)
            if poset.length[v] < poset.length[u]:
                u = v
                moved = True
    wj = poset.mult(w, poset.inverse[u])
    assert poset.length[wj] + poset.length[u] == poset.length[w]
    return wj, u


def parabolic_elements(poset, J) -> list[int]:
    """The parabolic subgroup W_J, in index order: a search from e along
    right multiplication by the generators in J."""
    Jt = tuple(J)
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for gi in Jt:
            v = poset.right_mult[u][gi]
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return sorted(seen)


def quotient_factorization(poset, w: int, gen_order=None) -> tuple[int, ...]:
    """Factor w = w(1) w(2) ... w(n) along a chain of parabolics, peeling
    one parabolic decomposition at a time from the top.

    Factor i lies in the quotient of W_{J_i} by W_{J_{i-1}} where J_i is
    the set of the first i generators of `gen_order`; lengths add.
    """
    order = tuple(gen_order) if gen_order is not None else tuple(range(poset.system.rank))
    factors = [0] * len(order)
    cur = w
    for i in range(len(order) - 1, -1, -1):
        cur, factors[i] = parabolic_decompose(poset, cur, order[:i])
    assert cur == 0
    return tuple(factors)


def palindromic_intervals_unfiltered(poset) -> set:
    """Every element's interval polynomial read off its downset, the
    palindromic ones kept: the scan without the rank-1/corank-1 pre-filter."""
    out = set()
    for w in range(poset.size):
        cs = poset.interval_poincare_coeffs(w)
        if cs == cs[::-1]:
            out.add(IntPolynomial(cs))
    return out


def principal_set_by_popcount(code) -> list[int]:
    """Every element whose downset has its code box's volume: the principal
    scan that popcounts every downset, without the lower-cover pre-filter."""
    poset = code.poset
    return [w for w in range(poset.size)
            if poset.downset(w).bit_count() == prod(x + 1 for x in code.of(w))]


def unimodal_set_by_orbits(code) -> list[int]:
    """Principal elements whose code is the least of its coordinate orbit's
    principal codes, the orbit built from all n! permutations of L(w)."""
    pr = principal_set_by_popcount(code)
    pr_vecs = frozenset(code.of(u) for u in pr)
    return [w for w in pr
            if code.of(w) == min(set(itertools.permutations(code.of(w))) & pr_vecs)]


def avoids_by_standardizing(w, pattern) -> bool:
    """Pattern avoidance by standardizing the values at every index subset."""
    k = len(pattern)
    if k > len(w):
        return True
    for idx in itertools.combinations(range(len(w)), k):
        vals = [w[i] for i in idx]
        order = sorted(vals)
        if tuple(order.index(v) + 1 for v in vals) == tuple(pattern):
            return False
    return True


def avoiders_by_scan(n, patterns) -> list[tuple[int, ...]]:
    """The permutations of 1..n, in lex order, that `avoids` clears of every
    pattern: each one scanned over all its k-subsequences."""
    return [w for w in itertools.permutations(range(1, n + 1))
            if all(avoids(w, p) for p in patterns)]


# The element kernels H3 and I2(m) had before they permuted their roots:
# the geometric representation of H3 as 3x3 matrices over Z[phi], entries
# a + b phi stored as (a, b), and I2(m) as the affine maps x -> e x + c of Z_m.


def mat3_compose(m1, m2):
    out = []
    for i in (0, 3, 6):
        row = m1[i : i + 3]
        for j in range(3):
            s0 = s1 = 0
            for k in range(3):
                a, b = row[k]
                c, d = m2[3 * k + j]
                s0 += a * c + b * d
                s1 += a * d + b * c + b * d
            out.append((s0, s1))
    return tuple(out)


BOND_VALUES = {2: (0, 0), 3: (1, 0), 5: (0, 1)}


def reflection_matrix(matrix_row, i):
    # sigma_i maps alpha_j to alpha_j + 2cos(pi/m(i,j)) alpha_i, alpha_i to -alpha_i
    rank = len(matrix_row)
    cols = []
    for j in range(rank):
        col = [(0, 0)] * rank
        if j == i:
            col[i] = (-1, 0)
        else:
            col[j] = (1, 0)
            col[i] = BOND_VALUES[matrix_row[j]]
        cols.append(col)
    return tuple(cols[j][i] for i in range(rank) for j in range(rank))


def kernel_tables(identity, generators, compose):
    """(elements, length, word, right_mult) of the group the generators
    make under `compose`, by the BFS that `BruhatPoset` runs: e g is
    compose(e, g), and indices are assigned in the order they are found."""
    elements, index = [identity], {identity: 0}
    length, word, right_mult = [0], [()], []
    for u, eu in enumerate(elements):  # grows as new elements are found
        row = []
        for gi, g in enumerate(generators):
            v = compose(eu, g)
            j = index.get(v)
            if j is None:
                j = index[v] = len(elements)
                elements.append(v)
                length.append(length[u] + 1)
                word.append(word[u] + (gi,))
            row.append(j)
        right_mult.append(row)
    return elements, length, word, right_mult


def matrix_h3_tables():
    """H3's tables with 3x3 matrices over Z[phi] for elements."""
    mat = build_system("H3").coxeter_matrix
    ident = tuple((1, 0) if i == j else (0, 0) for i in range(3) for j in range(3))
    return kernel_tables(ident, [reflection_matrix(mat[i], i) for i in range(3)], mat3_compose)


def affine_dihedral_tables(m: int):
    """I2(m)'s tables with affine maps (e, c): x -> e x + c of Z_m for elements."""

    def compose(a, b):
        e1, c1 = a
        e2, c2 = b
        return (e1 * e2, (e1 * c2 + c1) % m)

    return kernel_tables((1, 0), [(-1, 0), (-1, 1)], compose)


# The tuple paths that order ideals and shelling states took before they
# became bitmasks over the box table: maxima by upper-cover lookups, the
# enumeration of a box's ideals and the flag test of a 0/1-box ideal over
# point sets, the maxima polynomial as a sum of coefficient lists, and the
# shelling step that looks each codim-1 subface of the new facet up among
# the earlier facets.  `is_order_ideal` above is the tuple closure check.


def upper_covers(point, dims):
    for i, x in enumerate(point):
        if x + 1 < dims[i]:
            yield point[:i] + (x + 1,) + point[i + 1 :]


def maxima_by_covers(ideal) -> set:
    """The points of the ideal none of whose upper covers is in it."""
    pts, dims = set(ideal), ideal.box.dims
    return {p for p in pts if not any(q in pts for q in upper_covers(p, dims))}


def all_order_ideals_by_sets(box):
    """Every nonempty order ideal of the box, as `all_order_ideals` gives
    them: each point in rank-then-lex order is taken (first) or left, and
    taken only if the chosen set holds its lower covers."""
    order = sorted(box.points, key=lambda p: (sum(p), p))
    chosen: set = set()

    def rec(i):
        if i == len(order):
            if chosen:
                yield OrderIdeal(box, box.mask_of(chosen))
            return
        p = order[i]
        if all(q in chosen for q in lower_covers(p)):
            chosen.add(p)
            yield from rec(i + 1)
            chosen.remove(p)
        yield from rec(i + 1)

    yield from rec(0)


def is_flag_ideal_by_scan(ideal) -> bool:
    """`simplicial.is_flag_ideal` one box point at a time: no point outside
    the ideal with all its lower covers inside has rank above two."""
    dims = ideal.box.dims
    if any(d != 2 for d in dims):
        raise ValueError(f"flag ideals live in products of 2-chains, got {dims}")
    for p in ideal.box.points:
        if p not in ideal:
            if all(q in ideal for q in lower_covers(p)) and sum(p) > 2:
                return False
    return True


def maxima_polynomial_by_sums(ideal) -> IntPolynomial:
    """`intervals._maxima_polynomial` over `maxima_by_covers`, the boxes'
    q-analog products multiplied out and summed as coefficient lists."""
    table = {}
    for x in maxima_by_covers(ideal):
        for m, c in list(table.items()):
            y = meet(m, x)
            table[y] = table.get(y, 0) - c
        table[x] = table.get(x, 0) + 1
    return sum_of_products((c, [[1] * (v + 1) for v in m]) for m, c in table.items())


def omitted_bits(dims) -> tuple[tuple[int, ...], ...]:
    """Entry [i][x]: the bit of the vertex that the facets with x_i = x omit
    (zero-based x), by the class rule, which omits (d_i - x, i), bits
    numbered along the vertex tuple (v, i), v = 1..d_i, class by class."""
    vertices = [(v, i) for i, d in enumerate(dims) for v in range(1, d + 1)]
    return tuple(tuple(1 << vertices.index((d - x, i)) for x in range(d))
                 for i, d in enumerate(dims))


def least_container(omitted, face: int) -> tuple[int, ...]:
    """The least zero-based box point whose facet contains the face mask,
    for `omitted` the box's `omitted_bits`: per class, the least
    coordinate whose omitted vertex avoids `face`."""
    least = []
    for bits in omitted:
        x = 0
        while bits[x] & face:
            x += 1
        least.append(x)
    return tuple(least)


def shelling_step_by_lookups(omitted, point, facet: int, earlier) -> tuple[int, tuple[int, ...]]:
    """G and its least container for appending the facet of `point` after
    the set `earlier` of facet masks: v of class i is in G iff the facet
    that trades v for the vertex `facet` omits in class i is earlier."""
    g = 0
    for bits, x in zip(omitted, point):
        hole = bits[x]
        for v in bits:
            if v != hole and facet ^ v ^ hole in earlier:
                g |= v
    return g, least_container(omitted, g)


class ShellingState:
    """The shelling condition checked one facet at a time along a growing
    order ideal of a box complex: the complex route before its steps were
    kept per box, the reference its step memo is compared against.

    `ShellingState(ideal)` reads strides from the ideal's box table and each
    pushed point's facet mask from `simplicial._facet_masks`.
    `push(point)` appends the facet of a zero-based point of the ideal and
    returns whether the order so far still shells, by
    `simplicial._shelling_step` (looked up at each push, so a planted rule
    reaches it); it refuses a point whose lower covers are not all pushed,
    so the prefix stays an order ideal.  The state keeps the prefix as one
    flag per box point, the facets pushed by line and the h-vector counts."""

    def __init__(self, ideal):
        self._table = ideal.box
        dims = self._table.dims
        self._classes = _classes(dims)
        self._lines = {}
        self._mask = ideal.mask
        self._done = bytearray(len(self._table.points))
        self._h = [0] * (sum(dims) - len(dims) + 1)
        self.violation = None

    @property
    def h_vector(self):
        return tuple(self._h)

    def push(self, point) -> bool:
        """Append the facet of `point`.  On failure the state is unchanged
        and `violation` names the earlier point whose facet contains G."""
        table, done = self._table, self._done
        j = table.index.get(point)
        if j is None or not self._mask >> j & 1:
            raise ValueError(f"point {point} has no facet in this complex")
        if done[j] or not all(done[j - s] for x, s in zip(point, table.strides) if x):
            raise ValueError(f"point {point} is not minimal outside the prefix")
        facet = simplicial._facet_masks(table.dims, [point])[0]
        g, least = simplicial._shelling_step(self._classes, self._lines, facet)
        if done[least]:
            self.violation = (table.points[least], point)
            return False
        simplicial._put_on_lines(self._classes, self._lines, facet)
        self._h[g.bit_count()] += 1
        done[j] = 1
        return True


class LookupShellingState:
    """`ShellingState` with the prefix as a set of points and the earlier
    facets as a set of masks; facets from `simplicial._facet_masks`."""

    def __init__(self, ideal):
        self._table = ideal.box
        dims = self._table.dims
        self._omitted = omitted_bits(dims)
        self._points = set(ideal)
        self._facets = set()
        self._h = [0] * (sum(dims) - len(dims) + 1)
        self.prefix = set()
        self.violation = None

    @property
    def h_vector(self):
        return tuple(self._h)

    def push(self, point) -> bool:
        if point not in self._points:
            raise ValueError(f"point {point} has no facet in this complex")
        facet = simplicial._facet_masks(self._table.dims, [point])[0]
        if point in self.prefix or not self.prefix.issuperset(lower_covers(point)):
            raise ValueError(f"point {point} is not minimal outside the prefix")
        g, least = shelling_step_by_lookups(self._omitted, point, facet, self._facets)
        if least in self.prefix:
            self.violation = (least, point)
            return False
        self._facets.add(facet)
        self._h[g.bit_count()] += 1
        self.prefix.add(point)
        return True


def pushed(state) -> set:
    """The points a `ShellingState` has pushed so far."""
    pts = state._table.points
    return {pts[j] for j, done in enumerate(state._done) if done}


def rank_lex(ideal) -> list:
    """The ideal's points sorted by rank, then lexicographically."""
    return sorted(ideal, key=lambda p: (sum(p), p))


def push_all(state, order):
    """Push `order` until a step fails: (steps that passed, the violation)."""
    passed = 0
    for p in order:
        if not state.push(p):
            break
        passed += 1
    return passed, state.violation


_true_facet_masks = simplicial._facet_masks


def planted_code(name, poset, bounds, vectors):
    """A `LehmerCode` with the given vectors and none of `_product_code`'s
    checks, for planted faults: a vector off the box gets no lookup entry,
    and of two equal vectors the later element is looked up."""
    dims = [b + 1 for b in bounds]
    lookup = array("I", [_NO_ELEMENT]) * prod(dims)
    for w, v in enumerate(vectors):
        if len(v) == len(dims) and all(0 <= x < d for x, d in zip(v, dims)):
            p = 0
            for x, d in zip(v, dims):
                p = p * d + x
            lookup[p] = w
    return LehmerCode(name, poset, tuple(bounds),
                      array("H", itertools.chain.from_iterable(vectors)), lookup)


def one_facet_per_column(dims, points):
    """A corrupted facet rule: every point gets the facet of its column's
    lowest point, so points differing in the first coordinate share one."""
    return _true_facet_masks(dims, [(0, *p[1:]) for p in points])


@contextmanager
def facet_rule(rule):
    """Run with `rule` as the box complex's facet rule.  Box tables keep
    the shelling steps walked from the facets, not the facets, so the block
    starts from fresh tables, and the tables whose steps `rule` gave are
    dropped when it ends."""
    saved = simplicial._facet_masks
    simplicial._facet_masks = rule
    box_table.cache_clear()
    try:
        yield
    finally:
        simplicial._facet_masks = saved
        box_table.cache_clear()


@contextmanager
def step_rule(rule):
    """Run with `rule` as the box complex's shelling step rule.  Box tables
    keep the steps the complex route walks, so the block starts from fresh
    tables, and the tables whose steps `rule` gave are dropped when it ends."""
    saved = simplicial._shelling_step
    simplicial._shelling_step = rule
    box_table.cache_clear()
    try:
        yield
    finally:
        simplicial._shelling_step = saved
        box_table.cache_clear()
