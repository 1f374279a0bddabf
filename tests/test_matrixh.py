"""Exact dyadic matrix arithmetic and the defining relation checks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from griglab import matrixh as M
from griglab import words as W
from griglab.family import separation_witness


def frac_entries(m: M.ProjectiveMat) -> list:
    """The four entries as (re, im) Fraction pairs, read off the key."""
    e, *ints = m._key
    return [(Fraction(ints[j], 2**e), Fraction(ints[j + 1], 2**e)) for j in range(0, 8, 2)]


# ------------------------------------------------------- projective layer


def test_canonical_sign():
    m = M.ProjectiveMat.from_ints([[-1, 2], [2, -5]])
    assert m._key == (0, 1, 0, -2, 0, -2, 0, 5, 0)
    n = M.ProjectiveMat.from_ints([[1, -2], [-2, 5]])
    assert m == n
    assert hash(m) == hash(n)


def test_determinant_guard():
    with pytest.raises(ValueError, match=r"determinant must be one, got \(2\+0i\)$"):
        M.ProjectiveMat.from_ints([[1, 0], [0, 2]])
    with pytest.raises(ValueError, match="zero matrix"):
        M.ProjectiveMat(0, (0,) * 8)
    with pytest.raises(ValueError, match="exp must be >= 0"):
        M.ProjectiveMat(-1, (1, 0, 0, 0, 0, 0, 1, 0))


def test_canonicaliser_rejects_a_non_unit_determinant():
    # a product of determinant 1 and determinant 4 reaches the canonical form
    # with determinant 4 and is refused there, not only at the constructor
    doubled = M.ProjectiveMat.__new__(M.ProjectiveMat)
    doubled._key = (0, 2, 0, 0, 0, 0, 0, 2, 0)
    with pytest.raises(ValueError, match="determinant must be one"):
        M.MAT_A @ doubled
    with pytest.raises(ValueError, match="determinant must be one"):
        doubled.inverse()
    # the determinant prints with its smallest exponent
    with pytest.raises(ValueError, match=r"got \(1\+0i\)/2\^2$"):
        M._canonical(1, (1, 0, 0, 0, 0, 0, 1, 0))
    with pytest.raises(ValueError, match=r"got \(1\+3i\)/2\^5$"):
        M._canonical(3, (2, 6, 0, 0, 0, 0, 1, 0))


# the printed forms below reach users through describe_element and the
# witness report, so they are pinned byte for byte
PRINTED = {
    "a": "[(0+1i) (0+1i)/2^2; (0+0i) (0-1i)]",
    "b": "[(0+0i) (0+1i); (0+1i) (0+0i)]",
    "c": "[(0+0i) (1+0i); (-1+0i) (0+0i)]",
    "d": "[(0+1i) (0+0i); (0+0i) (0-1i)]",
    "adadadad": "[(1+0i) (-1+0i); (0+0i) (1+0i)]",
    "ab": "[(1+0i)/2^2 (1+0i); (-1+0i) (0+0i)]",
    "": "[(1+0i) (0+0i); (0+0i) (1+0i)]",
}

WITNESS_LEAVES = {
    1: (
        "1",
        "[(9869084189172817+0i)/2^52 (1238573844314433+0i)/2^50; "
        "(-1238573844314433+0i)/2^50 (-26994862186289+0i)/2^48]",
    ),
    2: (
        "11",
        "[(576281830673830207+0i)/2^59 (-46454770363801167+0i)/2^61; "
        "(4439814895922385+0i)/2^57 (576281830673830207+0i)/2^59]",
    ),
}


def test_printed_forms_pinned():
    gens = M.generator_matrices()
    for w, text in PRINTED.items():
        assert repr(M.word_to_matrix(w)) == text, w
    for s in "abcd":
        assert repr(gens[s]) == PRINTED[s]


@pytest.mark.parametrize("i", sorted(WITNESS_LEAVES))
def test_witness_leaf_printed_form_pinned(i):
    rep = separation_witness(W.parse_omega("(012)*"), (), (i,), i)
    (got,) = rep["witness_leaves"]
    assert (got["address"], got["leaf"]) == WITNESS_LEAVES[i]


# ------------------------------------------------------- fraction oracle


def frac_product(x: list, y: list) -> list:
    def mul(p, q):
        return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    def add(p, q):
        return (p[0] + q[0], p[1] + q[1])

    (a, b, c, d), (e, f, g, h) = x, y
    return [
        add(mul(a, e), mul(b, g)),
        add(mul(a, f), mul(b, h)),
        add(mul(c, e), mul(d, g)),
        add(mul(c, f), mul(d, h)),
    ]


def same_up_to_sign(x: list, y: list) -> bool:
    neg = [(-re, -im) for re, im in y]
    return x == y or x == neg


def test_products_against_fraction_oracle():
    rng = random.Random(14)
    gens = M.generator_matrices()
    for _ in range(150):
        w = "".join(rng.choices(W.LETTERS, k=rng.randrange(0, 41)))
        want = frac_entries(M.MAT_ID)
        for ch in w:
            want = frac_product(want, frac_entries(gens[ch]))
        m = M.word_to_matrix(w)
        assert same_up_to_sign(frac_entries(m), want), w
        assert m.inverse() @ m == M.MAT_ID
        assert m @ m.inverse() == M.MAT_ID
        e, *ints = m._key
        rebuilt = M.ProjectiveMat(e, ints)
        assert rebuilt._key == m._key
        assert hash(rebuilt) == hash(m)
        assert repr(rebuilt) == repr(m)
        # a spare factor of two and the opposite sign canonicalise away
        scaled = M.ProjectiveMat(e + 1, [-2 * x for x in ints])
        assert scaled._key == m._key


def test_matrix_inverse_and_products():
    rng = random.Random(21)
    gens = M.generator_matrices()
    for _ in range(60):
        w = "".join(rng.choices(W.LETTERS, k=rng.randrange(0, 12)))
        m = M.word_to_matrix(w)
        assert (m @ m.inverse()).is_identity
        assert (m.inverse() @ m).is_identity
        # generator letters are involutions, so reversal inverts words
        assert m.inverse() == M.word_to_matrix(w[::-1])
        u = "".join(rng.choices(W.LETTERS, k=rng.randrange(0, 8)))
        assert M.word_to_matrix(w + u) == M.word_to_matrix(w) @ M.word_to_matrix(u)
    assert gens["a"] @ gens["a"] == M.MAT_ID


def test_word_evaluation_respects_normal_form():
    rng = random.Random(35)
    for _ in range(120):
        w = "".join(rng.choices(W.LETTERS, k=rng.randrange(0, 16)))
        assert M.word_to_matrix(w) == M.word_to_matrix(W.reduce(w))


# ------------------------------------------------------- defining relations


def test_verify_relations_pass():
    rep = M.verify_relations(M.generator_matrices())
    assert rep == {"a^2": True, "b^2": True, "c^2": True, "d^2": True, "bcd": True}


def test_verify_relations_negative_control():
    gens = dict(M.generator_matrices())
    # a deliberate corruption that keeps determinant one
    gens["b"] = M.ProjectiveMat(0, (1, 0, 0, 1, 0, 1, 0, 0))
    rep = M.verify_relations(gens)
    assert rep["b^2"] is False
    assert rep["bcd"] is False
    assert rep["a^2"] is True


def test_ad_has_infinite_order_certificate():
    ad = M.MAT_A @ M.MAT_D
    p = M.MAT_ID
    for _ in range(64):
        p = p @ ad
        assert not p.is_identity


def test_ad_fourth_power_exact():
    m = M.word_to_matrix("adadadad")
    assert m == M.ProjectiveMat.from_ints([[1, -1], [0, 1]])
    assert m.is_real


def test_nested_commutator_exact():
    h = M.word_to_matrix(W.base_relator())
    assert h == M.ProjectiveMat.from_ints([[-1, 2], [2, -5]])
    assert h.is_real
    assert not h.is_identity


def test_real_subgroup_sampled():
    rng = random.Random(77)
    c = M.MAT_C
    ad = M.MAT_A @ M.MAT_D
    for _ in range(100):
        m = M.MAT_ID
        for _ in range(rng.randrange(0, 12)):
            m = m @ rng.choice([c, ad, ad.inverse()])
        assert m.is_real


def test_relation_report_all_green():
    rep = M.relation_report()
    assert all(rep.values()), rep
