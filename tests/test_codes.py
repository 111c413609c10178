import re

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
    inversion_code,
    quotient_chain_code,
    standard_code,
    verify_code,
    verify_d_factorization,
    verify_h3_quotients,
)
from coxlehmer.coxeter import BruhatPoset, build_system, shared_poset
from oracles import parabolic_elements, product_code_by_combinations, quotient_factorization


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
    ("A", 3, [(1,), (1, 1)], "bad: quotient step 2: word (1, 1) is not reduced at letter 2, s1"),
    ("B", 2, [(1,), (1, 2, 1, 2, 1)],
     "bad: quotient step 2: word (1, 2, 1, 2, 1) is not reduced at letter 5, s1")],
    ids=["A3", "B2"])
def test_quotient_chain_code_refuses_a_word_that_is_not_reduced(label, rank, words, message):
    with pytest.raises(ChainVerificationError, match=re.escape(message)):
        quotient_chain_code(shared_poset(label, rank), words, "bad")


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
        assert (a.name, a.bounds, a.vectors) == (b.name, b.bounds, b.vectors)


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
    factors = _corrupted(d4, [codes_mod._length_factor(d4, chain)
                              for chain in codes_mod._d_chains(d4)], how)
    messages = []
    for build in (codes_mod._product_code, product_code_by_combinations):
        with pytest.raises(CodeBuildError, match=how) as err:
            build("LD4", d4, factors)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_code_b_variant(b3):
    code = code_b(b3, variant=True)
    assert code.name.endswith("~")
    assert code.bounds == (1, 3, 5)
    assert verify_code(code).passed
    assert code.vectors != code_b(b3).vectors


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
    assert dual_code(dual_code(code)).vectors == code.vectors


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


# -- verification behaviour


def test_verify_code_negative_control(a3):
    code = code_a(a3)
    s1 = a3.index[(2, 1, 3, 4)]
    s3 = a3.index[(1, 2, 4, 3)]
    vectors = list(code.vectors)
    vectors[s1], vectors[s3] = vectors[s3], vectors[s1]
    bad = LehmerCode("corrupted", a3, code.bounds, vectors,
                     {v: w for w, v in enumerate(vectors)})
    rep = verify_code(bad)
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
        bad = LehmerCode("corrupted", a3, code.bounds, vectors,
                         {v: w for w, v in enumerate(vectors)})
        rep = verify_code(bad)
        assert any(expected in w for w in rep.witnesses), rep.witnesses


def test_verify_code_checks_every_box_cover(a3):
    # three table-wide checks, two per element, and one per cover of the
    # box {0,1} x {0,1,2} x {0,...,3}: 1*3*4 + 2*2*4 + 3*2*3 = 46
    assert verify_code(code_a(a3)).instances == 3 + 2 * a3.size + 46


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
