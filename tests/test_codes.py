import gc
import hashlib
import re
import sys
import tracemalloc
from array import array

import pytest

from coxlehmer import codes as codes_mod
from coxlehmer.codes import (
    ChainVerificationError,
    CodeBuildError,
    LehmerCode,
    d_chain_words,
    shared_standard_code,
    code_a,
    code_b,
    code_d,
    code_h3,
    code_i2,
    dual_code,
    enumerate_dihedral_codes,
    quotient_chain_code,
    standard_code,
    verify_code,
    verify_d_factorization,
    verify_h3_quotients,
)
from coxlehmer.coxeter import BruhatPoset, build_system, shared_poset
from coxlehmer.multicomplex import box_table
from coxlehmer.schubert import inversion_code
from coxlehmer.verify import CODE_SYSTEMS
from oracles import (
    box_index_by_table,
    parabolic_elements,
    planted_code,
    product_code_by_combinations,
    quotient_factorization,
    tuple_code_tables,
    tuple_poset_tables,
    verify_code_by_tuples,
)


@pytest.fixture(scope="module")
def a3():
    return BruhatPoset(build_system("A", 3))


@pytest.fixture(scope="module")
def a4():
    return BruhatPoset(build_system("A", 4))


@pytest.fixture(scope="module")
def b3():
    return BruhatPoset(build_system("B", 3))


@pytest.fixture(scope="module")
def d4():
    return BruhatPoset(build_system("D", 4))


@pytest.fixture(scope="module")
def h3():
    return BruhatPoset(build_system("H3"))


# -- dihedral


def test_code_i2_basics():
    p = BruhatPoset(build_system("I2", m=4))
    code = code_i2(p)
    assert code.of(0) == (0, 0)
    assert code.of(p.w0) == (1, 3)
    assert code.bounds == (1, 3)
    assert verify_code(code).passed


def test_code_i2_rejects_wrong_type(a3):
    with pytest.raises(ValueError, match="dihedral"):
        code_i2(a3)


@pytest.mark.parametrize("m,count", [(3, 4), (4, 8), (5, 16)])
def test_enumerate_dihedral_codes_count(m, count):
    p = BruhatPoset(build_system("I2", m=m))
    assert len(enumerate_dihedral_codes(p)) == count


def test_enumerate_dihedral_codes_limit():
    p = BruhatPoset(build_system("I2", m=9))
    with pytest.raises(ValueError, match="m <= 8"):
        enumerate_dihedral_codes(p)


def test_dihedral_codes_are_automorphism_twists():
    # brute-force the rank-preserving poset automorphisms and compose
    for m in (3, 4, 5):
        p = BruhatPoset(build_system("I2", m=m))
        base = code_i2(p)
        levels = [[w for w in range(p.size) if p.length[w] == l] for l in range(m + 1)]
        autos = []
        for mask in range(2 ** (m - 1)):
            f = list(range(p.size))
            for l in range(1, m):
                if mask >> (l - 1) & 1:
                    a, b = levels[l]
                    f[a], f[b] = b, a
            if all((p.downset(w) >> u & 1) == (p.downset(f[w]) >> f[u] & 1)
                   for u in range(p.size) for w in range(p.size)):
                autos.append(f)
        assert len(autos) == 2 ** (m - 1)
        twisted = {tuple(base.vectors[f[w]] for w in range(p.size)) for f in autos}
        found = {tuple(c.vectors) for c in enumerate_dihedral_codes(p)}
        assert twisted == found


# -- type A


def test_code_a_known_values(a3):
    code = code_a(a3)
    w = a3.index[(3, 4, 1, 2)]
    assert code.of(w) == (0, 2, 2)
    assert code.of(0) == (0, 0, 0)
    assert code.of(a3.w0) == (1, 2, 3)
    assert code.bounds == (1, 2, 3)


def test_code_a_valid_on_a4(a4):
    assert verify_code(code_a(a4)).passed


def test_inversion_code_examples():
    assert inversion_code((1, 2, 3, 4)) == (0, 0, 0, 0)
    assert inversion_code((3, 4, 1, 2)) == (0, 0, 2, 2)


def test_inversion_code_matches_code_a_up_to_s6():
    for n in (5, 6):
        p = BruhatPoset(build_system("A", n - 1))
        code = code_a(p)
        for w, perm in enumerate(p.elements):
            assert inversion_code(perm) == (0,) + code.of(w)


def test_code_b_examples(b3):
    code = code_b(b3)
    assert code.of(0) == (0, 0, 0)
    assert code.bounds == (1, 3, 5)
    assert verify_code(code).passed


def test_code_b2_quotient_word():
    p = BruhatPoset(build_system("B", 2))
    code = code_b(p)
    w = p.apply_word([1, 0, 1])  # s2 s1 s2
    assert code.of(w) == (0, 3)


def test_code_b_max_quotient_is_chain(b3):
    # the quotient by the parabolic missing the last generator has 2n elements
    quot = b3.minimal_coset_reps((0, 1))
    assert len(quot) == 6
    lens = sorted(b3.length[w] for w in quot)
    assert lens == list(range(6))


@pytest.mark.parametrize("label,rank,m",
                         [("A", n, None) for n in range(1, 7)]
                         + [("B", n, None) for n in range(2, 6)]
                         + [("I2", None, m) for m in range(3, 11)])
def test_quotient_codes_match_the_factorization_oracle(label, rank, m):
    # the product builder against peeling parabolic decompositions off w
    poset = shared_poset(label, rank, m)
    builds = [(standard_code(poset), None)]
    if label == "B":
        builds.append((code_b(poset, variant=True), (1, 0, *range(2, rank))))
    for code, order in builds:
        for w in range(poset.size):
            lengths = tuple(poset.length[x]
                            for x in quotient_factorization(poset, w, order))
            assert code.of(w) == lengths, (code.name, poset.render(w))


@pytest.mark.parametrize("label, rank, words, message", [
    ("A", 3, [(1,), (1, 1)], "bad: factor 2: word (1, 1) is not reduced at letter 2, s1"),
    ("B", 2, [(1,), (1, 2, 1, 2, 1)],
     "bad: factor 2: word (1, 2, 1, 2, 1) is not reduced at letter 5, s1")],
    ids=["A3", "B2"])
def test_quotient_chain_code_refuses_a_word_that_is_not_reduced(label, rank, words, message):
    with pytest.raises(ChainVerificationError, match=re.escape(message)):
        quotient_chain_code(shared_poset(label, rank), words, "bad")


def test_code_d_refuses_a_chain_word_that_is_not_reduced(monkeypatch, d4):
    chains = d_chain_words(4)
    chains[1][2] = (2, 2)  # X_2: e, s2, s2 s2, ...
    monkeypatch.setattr(codes_mod, "d_chain_words", lambda n: chains)
    with pytest.raises(ChainVerificationError, match=re.escape(
            "LD4: factor 2: word (2, 2) is not reduced at letter 2, s2")):
        code_d(d4)


def test_code_h3_refuses_a_chain_word_that_is_not_reduced(monkeypatch, h3):
    (y, z), (x,) = codes_mod.H3_WORDS
    z = [(1, 3, 3, 1) if w == (1, 3, 2, 1) else w for w in z]
    monkeypatch.setattr(codes_mod, "H3_WORDS", [[y, z], [x]])
    with pytest.raises(ChainVerificationError, match=re.escape(
            "LH3: factor 1: word (1, 3, 3, 1) is not reduced at letter 3, s3")):
        code_h3(h3)


@pytest.mark.parametrize("words, message", [
    ([(), (2,), (0, 2, 1)], "LD4: factor 2: element 3 -2 -1 4 has length 3, expected 2"),
    ([(), (2,), (0, 1)], "LD4: factor 2: 1 3 2 4 not below -1 -2 3 4")],
    ids=["gap", "not a cover"])
def test_code_d_refuses_a_chain_that_is_not_saturated(monkeypatch, d4, words, message):
    chains = d_chain_words(4)
    chains[1] = words
    monkeypatch.setattr(codes_mod, "d_chain_words", lambda n: chains)
    with pytest.raises(ChainVerificationError, match=re.escape(message)):
        code_d(d4)


PRODUCT_GROUPS = ([("A", n, None) for n in range(1, 6)]
                  + [("B", n, None) for n in range(2, 6)]
                  + [("D", 4, None), ("D", 5, None), ("H3", None, None)]
                  + [("I2", None, m) for m in range(3, 11)])


@pytest.mark.parametrize("label,rank,m", PRODUCT_GROUPS)
def test_product_code_matches_the_combination_oracle(monkeypatch, label, rank, m):
    # shared prefixes against multiplying out every combination from e
    poset = shared_poset(label, rank, m)

    def build():
        built = [standard_code(poset)]
        if label == "B":
            built.append(code_b(poset, variant=True))
        return built + [dual_code(code) for code in built]

    fast = build()
    calls = []

    def oracle(*args):
        calls.append(args[0])
        return product_code_by_combinations(*args)

    monkeypatch.setattr(codes_mod, "_product_code", oracle)
    slow = build()
    assert len(calls) == (2 if label == "B" else 1)
    for a, b in zip(fast, slow, strict=True):
        assert (a.name, a.bounds, list(a.vectors)) == (b.name, b.bounds, list(b.vectors))


def _corrupted(poset, factors, how):
    first, second, *rest = factors
    if how == "factors twice":  # the first element of the last factor, again
        return factors[:-1] + [factors[-1] + factors[-1][:1]]
    if how == "do not add up":  # s s = e, first among the products
        s = ((1,), poset.apply_word([0]))
        return [[s] + first, [s] + second] + rest
    if how == "no product reaches":  # the longest element of the last factor dropped
        return factors[:-1] + [factors[-1][:-1]]
    raise ValueError(how)


@pytest.mark.parametrize("how", ["factors twice", "do not add up", "no product reaches"])
def test_product_code_errors_match_the_combination_oracle(d4, how):
    walked = codes_mod._walk(d4, "LD4", codes_mod.d_word_table(4))
    factors = _corrupted(d4, codes_mod._factors(d4, walked), how)
    messages = []
    for build in (codes_mod._product_code, product_code_by_combinations):
        with pytest.raises(CodeBuildError, match=how) as err:
            build("LD4", d4, factors)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("label,rank,m", PRODUCT_GROUPS)
def test_flat_tables_match_the_tuple_tables(monkeypatch, label, rank, m):
    # the last-letter store, the tuple rows and the flat code arrays against
    # the tuple tables they replaced, from the same BFS and the same factors
    poset = BruhatPoset(build_system(label, rank, m))
    tables = tuple_poset_tables(poset.system)
    *_, word, right_mult, covers_down = tables
    assert list(poset.word) == word
    assert list(map(list, poset.right_mult)) == right_mult
    assert list(map(list, poset.covers_down)) == covers_down
    factors = []
    product_code = codes_mod._product_code

    def recording(name, p, fs):
        factors.append(fs)
        return product_code(name, p, fs)

    monkeypatch.setattr(codes_mod, "_product_code", recording)
    built = [standard_code(poset)] + ([code_b(poset, variant=True)] if label == "B" else [])
    everyone = list(range(poset.size))
    for code, fs in zip(built, factors, strict=True):
        vectors, lookup, dual_vectors = tuple_code_tables(tables, fs)
        assert {v: code.element(v) for v in lookup} == lookup
        for new, old in ((code, vectors), (dual_code(code), dual_vectors)):
            assert list(new.vectors) == old
            assert [new.element(new.of(w)) for w in everyone] == everyone


def _traced_bytes(build):
    """What `build` returns and the bytes tracemalloc sees it hold.  A full
    collection empties the interpreter's free lists before and after, so
    every object counted is a traced allocation still alive."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        gc.collect()
        return kept, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def _alike_bytes(elements, index, length, *_):
    return (sys.getsizeof(elements) + sum(map(sys.getsizeof, elements))
            + sys.getsizeof(index) + sys.getsizeof(length))


def test_flat_tables_take_under_0_6_of_the_tuple_bytes():
    # D5's poset and code against the tuple tables, both without what they
    # hold alike (the elements, the index and the lengths) and the poset
    # without its downsets; the ratio reads 0.47, and 0.73 with the word
    # tuples back or 0.76 with a dict from vector tuples back
    system = build_system("D", 5)
    (poset, code), new = _traced_bytes(lambda: (p := BruhatPoset(system), standard_code(p)))
    vectors = list(code.vectors)
    (tables, *_), old = _traced_bytes(lambda: (tuple_poset_tables(system), list(vectors),
                                               {v: w for w, v in enumerate(vectors)}))
    downsets = sum(map(sys.getsizeof, [poset._down, poset.by_length, *poset.by_length]))
    downsets += sum(sys.getsizeof(d) for d in poset._down if d)
    new -= _alike_bytes(poset.elements, poset.index, poset.length) + downsets
    old -= _alike_bytes(*tables)
    assert new <= 0.6 * old, (new, old)


def test_a_shared_vector_or_an_uncovered_box_point_is_refused(a3):
    # the lookup is one element per box point: two on one point, or a box
    # (2, 3, 5) of 30 points over 24 elements, fails the build
    vectors = list(code_a(a3).vectors)
    s1, s3 = a3.index[(2, 1, 3, 4)], a3.index[(1, 2, 4, 3)]
    shared = vectors[:s3] + [vectors[s1]] + vectors[s3 + 1:]
    with pytest.raises(CodeBuildError,
                       match=re.escape("LA3: elements 2134 and 1243 both map to (1, 0, 0)")):
        codes_mod._make_code("LA3", a3, shared)
    with pytest.raises(CodeBuildError, match="LA3: table covers 24 of 30 codomain points"):
        codes_mod._make_code("LA3", a3, vectors[:a3.w0] + [(1, 2, 4)])


@pytest.mark.parametrize("vec", [(0, -1, 0), (0, 3, 0), (0, 0), (0, 0, 0, 0)],
                         ids=["negative", "past-its-bound", "too-short", "too-long"])
def test_a_vector_off_the_box_names_no_element(a3, vec):
    # LA3's box is {0,1} x {0,1,2} x {0,...,3}: read as a box position,
    # (0, 3, 0) would alias (1, 0, 0) and (0, 0, 0, 0) the identity
    code = code_a(a3)
    assert code.element((1, 0, 0)) == a3.index[(2, 1, 3, 4)]
    with pytest.raises(KeyError):
        code.element(vec)


def test_code_b_variant(b3):
    code = code_b(b3, variant=True)
    assert code.name.endswith("~")
    assert code.bounds == (1, 3, 5)
    assert verify_code(code).passed
    assert list(code.vectors) != list(code_b(b3).vectors)


# -- type D


# the generator-subscript words the D4-D6 chains were stored as before the
# rule generated them, "e" the empty word
STORED_D_CHAINS = {
    4: ["e 1", "e 2 21 021", "e 3 32 321 3021 30213", "e 0 02 023"],
    5: ["e 1", "e 2 21 021", "e 3 32 321 3021 30213",
        "e 4 43 432 4321 43021 430213 4302134", "e 0 02 023 0234"],
    6: ["e 1", "e 2 21 021", "e 3 32 321 3021 30213",
        "e 4 43 432 4321 43021 430213 4302134",
        "e 5 54 543 5432 54321 543021 5430213 54302134 543021345",
        "e 0 02 023 0234 02345"],
}


def test_d_chain_rule_reproduces_the_stored_words():
    for n, chains in STORED_D_CHAINS.items():
        stored = [[tuple(map(int, w.lstrip("e"))) for w in chain.split()]
                  for chain in chains]
        assert d_chain_words(n) == stored, n


def test_chain_data_shapes():
    # D7 and D8 lie above the enumeration limit; their words need no poset
    for n in range(4, 9):
        chains = d_chain_words(n)
        assert [len(c) for c in chains[:-1]] == [2 * i for i in range(1, n)]
        assert len(chains[-1]) == n
        for chain in chains:
            assert [len(w) for w in chain] == list(range(len(chain)))
            assert all(set(w) <= set(range(n)) for w in chain)


def test_chain_first_parts_are_parabolic_quotients(d4):
    # the low half of each X_i is the one-step parabolic quotient
    n = 4
    chains = d_chain_words(n)
    for i in range(2, n):
        words = chains[i - 1][: i + 1]
        got = {d4.apply_word([d4.system.gen_index(s) for s in w]) for w in words}
        par = parabolic_elements(d4, [d4.system.gen_index(s) for s in range(1, i + 1)])
        quot = {w for w in par
                if not (d4.descents_left(w)
                        & {d4.system.gen_index(s) for s in range(1, i)})}
        assert got == quot


def test_code_d_valid(d4):
    code = code_d(d4)
    assert code.of(0) == (0, 0, 0, 0)
    assert code.bounds == (1, 3, 5, 3)
    assert verify_code(code).passed


def test_verify_d_factorization():
    p4 = BruhatPoset(build_system("D", 4))
    rep = verify_d_factorization(p4)
    assert rep.passed, rep.witnesses
    p5 = BruhatPoset(build_system("D", 5))
    rep5 = verify_d_factorization(p5)
    assert rep5.passed, rep5.witnesses


def test_code_d6_supported():
    # the upper end of the default type D support range
    from coxlehmer.coxeter import shared_poset

    p6 = shared_poset("D", 6)
    code = code_d(p6)
    assert code.bounds == (1, 3, 5, 7, 9, 5)
    assert code.dims == (2, 4, 6, 8, 10, 6) and code.box_size() == p6.size
    assert p6.exponents() == (1, 3, 5, 5, 7, 9)
    assert verify_code(code).passed


# -- type H3


def test_code_h3(h3):
    code = code_h3(h3)
    assert code.of(0) == (0, 0, 0)
    assert code.of(h3.w0) == (1, 5, 9)
    assert code.bounds == (1, 5, 9)
    assert verify_code(code).passed


def test_verify_h3_quotients(h3):
    rep = verify_h3_quotients(h3)
    assert rep.passed, rep.witnesses


# -- duals, dispatch, shared codes


def test_dual_is_involution(a3):
    code = code_a(a3)
    assert list(dual_code(dual_code(code)).vectors) == list(code.vectors)


def test_dual_code_valid(a3, b3):
    assert verify_code(dual_code(code_a(a3))).passed
    assert verify_code(dual_code(code_b(b3))).passed


def test_dual_fixes_longest_element(a3, b3, h3):
    for poset, code in ((a3, code_a(a3)), (b3, code_b(b3)), (h3, code_h3(h3))):
        assert poset.mult(poset.w0, poset.w0) == 0  # w0 is an involution
        assert dual_code(code).of(poset.w0) == code.of(poset.w0)


def test_standard_code_dispatch(a3, b3, d4, h3):
    assert standard_code(a3).name == "LA3"
    assert standard_code(b3).name == "LB3"
    assert standard_code(d4).name == "LD4"
    assert standard_code(h3).name == "LH3"
    p = BruhatPoset(build_system("I2", m=5))
    assert standard_code(p).name == "LI2(5)"


def test_one_shared_poset_and_code_per_system():
    assert (shared_poset("A", 3) is shared_poset("A", 3, None)
            is shared_poset("a", 3, 7) is shared_standard_code("A", 3).poset)
    assert shared_standard_code("A", 3) is shared_standard_code("A", 3, None, variant=False)
    assert (shared_poset("H3") is shared_poset("H3", None, None) is shared_poset("H3", 3)
            is shared_standard_code("H3", 3).poset)
    assert shared_poset("I2", None, 5) is shared_poset("I2", 2, 5)
    assert shared_standard_code("B", 3, variant=True).poset is shared_poset("B", 3)
    assert shared_standard_code("B", 3, variant=True) is not shared_standard_code("B", 3)


def test_a_variant_code_outside_type_b_is_refused():
    with pytest.raises(ValueError, match="expected type B, got A3"):
        shared_standard_code("A", 3, variant=True)


# sha256 of repr((name, bounds, vectors)) and of repr(dual vectors) for each
# (type, rank, m, variant); D5, D6 and the variant codes are pinned nowhere else
CODE_DIGESTS = {
    ("A", 1, None, False): ("c8dc402d4f09fa336a1a907a7268d073a6fb37a7d7f48c6c49e90c2c38ff2fed",
                            "cde8a43d1e27e69a0ef66e61fcbfe02dec4893775b4d36e679382ff36d7b9ed6"),
    ("A", 2, None, False): ("8ef1ca82ae942576b2b86ff732ed9541eced0d8075326087092cb5d9dbef212f",
                            "d1924808b0219817fcf6c4565cb5fe100f137ef8cb21cac057783ad98568108b"),
    ("A", 3, None, False): ("9ea5f7f581272594a1d93422f2e2b3489304a9253668f3cac5cd2eb47dd37f19",
                            "00b82af71dc20ee5690e90edc172a2627abcd26e695010f7380d54738f02cd79"),
    ("A", 4, None, False): ("518bdb543c912116afe6b74c1bee6fc368e9e46d8e7f2daf80fff2977d379cc5",
                            "394971b0c2ec0f07a1211db7b7527aebadf645a336f206b6a44009d626623f98"),
    ("A", 5, None, False): ("74cc86a78cf63039e851c796b9af8e8c51938b969467cadb558bffbdb0e3201e",
                            "65dbbd28ca376c294c5e10d265203306ada442e9524cba511ccc88709bb62343"),
    ("B", 2, None, False): ("999d804de62dcde5d197f59fba32b820b6a4a179dd446fe7d3a3cff7248fc3b9",
                            "da6d6fc3561baf275b97253253999442cdbb648d51863a328192711eeed42009"),
    ("B", 3, None, False): ("23f58adecd95a335f02c9bc3d06ac4508f7c5a2ea090cec98153fbc73dccc1fc",
                            "b8fa3fffee53e860e95f7228b1dcaf091cc408ce72a99a1247210bc9a485b47c"),
    ("B", 4, None, False): ("67d888935bfe928e2c4cfb8b5d6c8e6a4a6a40e7f941b367a904651626d63692",
                            "5be30f9704f60a569c576565d2fc5425b3b8034832e2390ebf32087b92e827d9"),
    ("D", 4, None, False): ("fd6fef5b30ff1174379069803612c2c2039c9a55175685f950d5eca201af78cb",
                            "5067b7203cf349f5be859e320770c8eaa75e8ba5c3e04a35a5158c0ed1612279"),
    ("D", 5, None, False): ("fa124def2174134c642bfe60983cd5740ff0868f35643638e09735d89f9f38c8",
                            "000707126481fac3b5e3834eef3963fe1364754e6b2fe29e2ea690a6318c8ebd"),
    ("H3", None, None, False): ("bc8c14046eacda12b70bc2760cc55bf61f417885eef4ede6ba2825bffa249cae",
                                "90715268907824829ec4d7c79f5f64a7ced6caf52fa144543d1eff577aa136b0"),
    ("I2", None, 3, False): ("15f913df42af6b2b46aaee04cdb8cfde813b382d16eecee7e9d5c47ff4d13d00",
                             "d1924808b0219817fcf6c4565cb5fe100f137ef8cb21cac057783ad98568108b"),
    ("I2", None, 4, False): ("ac3e21ec65c33e52aafbd0f05d2af2cd11d38708564ea40a5e6a46b8535bc488",
                             "da6d6fc3561baf275b97253253999442cdbb648d51863a328192711eeed42009"),
    ("I2", None, 5, False): ("03d4edd904fea0418bc91b918a2a0a6228344c4f5359ed33f965c4ad0b40c18e",
                             "6aea866428f8b093cb9038bf2d611f9df496a5fe4de794bb1ff31cf1c843db2e"),
    ("I2", None, 6, False): ("dc90303093d78e35458f70426405ef5ede4c381b79a240b7d07ca828753f6bf7",
                             "59a8a6d71be01dea0d0ada20f63a9cf5c1eaf6a465ceb0a50eabd900ede0e1c3"),
    ("I2", None, 7, False): ("d596af16cec761584988c61b2d7d092b5aeb9ffc66d7af2739d102496ef4c108",
                             "b9ac5f0fe28287b857cfb5923f756e52441b04ed9b5219cb57f9baea15893e50"),
    ("I2", None, 8, False): ("f43a5edd9ed83f701653bdbde8717a038afc2886f7db68513e1d4e079bffd2ed",
                             "c88c6559bd2ccb0365ee6822dbc789747a4416eb8ef2f4505f38ccf212048c46"),
    ("I2", None, 9, False): ("ffe870f2bad94f28d686da052b25fcec8f368a2045fffe3fb05ac521825916dc",
                             "1f51bb102f4869507e231f6b73a4219204ba0cb172e5821257ed141643c7d651"),
    ("I2", None, 10, False): ("ca7cb0333e93be84222889f1da20833c21922ee06338ba0ba0770dbf964044be",
                              "4fc8c3287b29729ffd9b06320907b2a20a67d678ee8c6a51f2875c28d30c2447"),
    ("B", 2, None, True): ("8399e3153a49da79594aa0e7226cf9f501a223bf44508039390bb049d504d30d",
                           "d9975685cc1fc0ca4186d421139ef95612e0c8945912f267bd006e3da3c4f51a"),
    ("B", 3, None, True): ("a085a36f0bb25f0839d63521b88e2e0c4f354d6832fb0251b5b91bae2f7ee4cf",
                           "9f4d7f6f27b50fc76c22bc9596ec40c15b4370fa6521dff521c69ba33dda176c"),
    ("B", 4, None, True): ("bae52da473a447ec4b8e03995caa466664ae1f313075c67cde39dbffac6659b5",
                           "aa44b6900f9a710c594dcb63710909511d40e8d878f2d7f86fb1dd52fcff535e"),
    ("A", 6, None, False): ("da0617659381db9699bd8c997e5b73985662bdad83260225aef187444596db96",
                            "8f65fcdfa22a729e2c88bac1c85dbb8e1578bb29e840f7e72a7e64739f3aa036"),
    ("B", 5, None, False): ("b14fe20184ac31c0e92963864d3ac96d58e3295f39ebdb9424e7bdcd6918be44",
                            "3a3e5400c360ad8ea53f7cb2b66175942d75ba61154c4f140dacb1edf80aac5c"),
    ("B", 5, None, True): ("9f511e3b3bca6fb38d251c0f909a2c4ea1e1d123c3f1586bcf5fd75082a88b7f",
                           "adc58b6619c0cf4ea1400a222f280d8f8246937ec09dfbd23f6b3c738ed53ed3"),
    ("D", 6, None, False): ("e80715b2e262849368bec4bf32717d2a06ca57f2dc13be1bc692d32339c58f14",
                            "57308731690dfc90b84f6395509716f67f9a357e279f8764abb3af56148a435d"),
}
# the codes the verify suites check, the B variants with them: up to D5
SHIPPED_CODES = ([(label, rank, m, False) for label, rank, m in CODE_SYSTEMS]
                 + [("B", rank, None, True) for label, rank, _ in CODE_SYSTEMS if label == "B"])
PINNED_CODES = SHIPPED_CODES + [("A", 6, None, False), ("B", 5, None, False),
                                ("B", 5, None, True), ("D", 6, None, False)]


def _code_ids(codes):
    return [f"{label}{rank or ''}{f'({m})' if m else ''}{'~' * variant}"
            for label, rank, m, variant in codes]


@pytest.mark.parametrize("label,rank,m,variant", PINNED_CODES, ids=_code_ids(PINNED_CODES))
def test_code_tables_match_their_pinned_digests(label, rank, m, variant):
    code = shared_standard_code(label, rank, m, variant=variant)
    got = tuple(hashlib.sha256(repr(table).encode()).hexdigest()
                for table in ((code.name, code.bounds, list(code.vectors)),
                              list(dual_code(code).vectors)))
    assert got == CODE_DIGESTS[label, rank, m, variant]


# -- verification behaviour


def _same_verdicts(code):
    """verify_code's report, checked against the tuple oracle's, and
    box_index checked against the tuple dict's."""
    new, old = verify_code(code), verify_code_by_tuples(code)
    assert (new.instances, new.failures, new.witnesses) == (old.instances, old.failures,
                                                            old.witnesses)
    assert code.box_index == box_index_by_table(code)
    return new


def test_verify_code_negative_control(a3):
    code = code_a(a3)
    s1 = a3.index[(2, 1, 3, 4)]
    s3 = a3.index[(1, 2, 4, 3)]
    vectors = list(code.vectors)
    vectors[s1], vectors[s3] = vectors[s3], vectors[s1]
    bad = planted_code("corrupted", a3, code.bounds, vectors)
    rep = _same_verdicts(bad)
    assert not rep.passed
    assert rep.failures > 0
    assert rep.witnesses


def test_verify_code_renders_its_witnesses_on_failure(a3):
    # e <-> s1 breaks the rank check at both; s1 <-> s3 (equal lengths)
    # passes it and breaks a box cover, whose witness names both elements
    code = code_a(a3)
    e, s1, s3 = 0, a3.index[(2, 1, 3, 4)], a3.index[(1, 2, 4, 3)]
    for a, b, expected in [(e, s1, "rank mismatch at 2134: (0, 0, 0) vs length 1"),
                           (s1, s3, "maps to incomparable")]:
        vectors = list(code.vectors)
        vectors[a], vectors[b] = vectors[b], vectors[a]
        bad = planted_code("corrupted", a3, code.bounds, vectors)
        rep = _same_verdicts(bad)
        assert any(expected in w for w in rep.witnesses), rep.witnesses


def test_verify_code_checks_every_box_cover(a3):
    # three table-wide checks, two per element, and one per cover of the
    # box {0,1} x {0,1,2} x {0,...,3}: 1*3*4 + 2*2*4 + 3*2*3 = 46
    assert verify_code(code_a(a3)).instances == 3 + 2 * a3.size + 46


def test_verify_code_reads_the_lookup(a3):
    # LA3 with the lookup entries of s1 and s3 swapped and the vectors left
    # intact: element(of(s1)) is s3, so the tables are no bijection.  The
    # tuple check reads the vectors alone and passes them with all 97 of
    # its checks; the lookup test sits in the bijectivity check, which fails
    # at s1 and s3 and adds no check: 3 + 2|W| checks, as on any table that
    # fails before the box covers
    code = code_a(a3)
    s1, s3 = a3.index[(2, 1, 3, 4)], a3.index[(1, 2, 4, 3)]
    lookup = array("I", code.lookup)
    p1, p3 = lookup.index(s1), lookup.index(s3)
    lookup[p1], lookup[p3] = s3, s1
    bad = LehmerCode("corrupted", a3, code.bounds, code.flat, lookup)
    assert bad.element(bad.of(s1)) == s3 and bad.element(bad.of(s3)) == s1
    old = verify_code_by_tuples(bad)
    assert old.passed and old.instances == 3 + 2 * a3.size + 46
    rep = verify_code(bad)
    assert (rep.instances, rep.failures) == (3 + 2 * a3.size, 2)
    assert sorted(rep.witnesses) == ["bijectivity fails at 1243 -> (0, 0, 1)",
                                     "bijectivity fails at 2134 -> (1, 0, 0)"]


@pytest.mark.parametrize("label,rank,m,variant", SHIPPED_CODES, ids=_code_ids(SHIPPED_CODES))
def test_the_box_table_and_the_code_share_one_numbering(label, rank, m, variant):
    # position j is one point for the box table and for the code's lookup,
    # box_index is lookup inverted, and both it and verify_code, which read
    # positions, agree with the tuple set and dicts they replaced
    code = shared_standard_code(label, rank, m, variant=variant)
    for c in (code, dual_code(code)):
        points, lookup, index = box_table(c.dims).points, c.lookup, c.box_index
        assert all(points[j] == c.of(w) for j, w in enumerate(lookup))
        assert all(index[w] == j for j, w in enumerate(lookup))
        assert len(index) == len(lookup) == c.poset.size
        assert _same_verdicts(c).passed


def test_sum_of_code_is_length_everywhere(a4, b3, d4, h3):
    for poset, build in ((a4, code_a), (b3, code_b), (d4, code_d), (h3, code_h3)):
        code = build(poset)
        for w in range(poset.size):
            assert sum(code.of(w)) == poset.length[w]


def test_code_json_table(a3):
    table = code_a(a3).to_json()
    assert table["3412"] == [0, 2, 2]
    assert table["1234"] == [0, 0, 0]
    assert len(table) == 24
