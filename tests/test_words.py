"""Word calculus: normal forms, twists, substitutions, separating words."""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from griglab import words as W

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def rand_word(rng, n):
    return "".join(rng.choices(W.LETTERS, k=n))


# ---------------------------------------------------------------- reduce


def test_reduce_frozen_examples():
    assert W.reduce("bcd") == ()
    assert W.reduce("aa") == ()
    assert W.reduce("bc") == ("d",)
    assert W.reduce("cb") == ("d",)
    assert W.reduce("bd") == ("c",)
    assert W.reduce("dc") == ("b",)
    assert W.reduce("abab") == tuple("abab")
    assert W.word_str(W.reduce("")) == "e"
    assert W.reduce("e") == ()


def test_reduce_rejects_bad_letters():
    with pytest.raises(ValueError):
        W.reduce("abx")


def test_reduce_idempotent_and_normal():
    rng = random.Random(11)
    for _ in range(300):
        w = W.reduce(rand_word(rng, rng.randrange(0, 40)))
        assert W.reduce(w) == w
        for i in range(len(w) - 1):
            assert w[i] != w[i + 1]
            # never two torsion letters adjacent
            assert "a" in (w[i], w[i + 1])


def test_reduce_is_congruence():
    # inserting a relator anywhere must not change the normal form
    rng = random.Random(23)
    relators = ["aa", "bb", "cc", "dd", "bcd", "dbc", "cdb", "bcbc"]
    for _ in range(200):
        base = rand_word(rng, rng.randrange(0, 25))
        cut = rng.randrange(0, len(base) + 1)
        noisy = base[:cut] + rng.choice(relators) + base[cut:]
        assert W.reduce(noisy) == W.reduce(base)


def test_group_axioms_on_words():
    rng = random.Random(5)
    for _ in range(150):
        u = rand_word(rng, rng.randrange(0, 15))
        v = rand_word(rng, rng.randrange(0, 15))
        t = rand_word(rng, rng.randrange(0, 15))
        assert W.mul(W.mul(u, v), t) == W.mul(u, W.mul(v, t))
        assert W.mul(u, W.inverse(u)) == ()
        assert W.mul(W.inverse(u), u) == ()


# ---------------------------------------------------------------- twists


def test_phi_twist_generator_table():
    assert W.phi_twist("a", 1) == ("a",)
    assert W.phi_twist("b", 1) == ("c",)
    assert W.phi_twist("c", 1) == ("d",)
    assert W.phi_twist("d", 1) == ("b",)
    assert W.phi_twist("b", 2) == ("d",)
    assert W.phi_twist("b", -1) == ("d",)


def test_phi_twist_is_order_three_automorphism():
    rng = random.Random(7)
    for _ in range(100):
        u = rand_word(rng, rng.randrange(0, 20))
        v = rand_word(rng, rng.randrange(0, 20))
        for x in (0, 1, 2):
            assert W.phi_twist(W.mul(u, v), x) == W.mul(
                W.phi_twist(u, x), W.phi_twist(v, x)
            )
        assert W.phi_twist(W.phi_twist(W.phi_twist(u, 1), 1), 1) == W.reduce(u)


def test_substitutions_frozen_examples():
    assert W.sigma_sub("a") == tuple("aca")
    assert W.sigma_sub("b") == ("b",)
    assert W.tau_sub("a") == ("c",)
    assert W.tau_sub("b") == ("a",)
    assert W.tau_sub("c") == ("a",)
    assert W.tau_sub("d") == ()
    assert W.sigma_twisted("a", 1) == tuple("ada")
    assert W.sigma_twisted("a", 2) == tuple("aba")
    assert W.sigma_twisted("a", 0) == tuple("aca")
    assert W.sigma_twisted("b", 1) == ("b",)


def test_substitutions_are_homomorphisms():
    rng = random.Random(13)
    for _ in range(100):
        u = rand_word(rng, rng.randrange(0, 12))
        v = rand_word(rng, rng.randrange(0, 12))
        for f in (
            W.sigma_sub,
            W.tau_sub,
            lambda w: W.sigma_twisted(w, 1),
            lambda w: W.sigma_twisted(w, 2),
            lambda w: W.tau_twisted(w, 1),
            lambda w: W.tau_twisted(w, 2),
        ):
            assert f(W.mul(u, v)) == W.mul(f(u), f(v))


def test_twisted_at_zero_matches_plain():
    rng = random.Random(17)
    for _ in range(50):
        u = rand_word(rng, rng.randrange(0, 15))
        assert W.sigma_twisted(u, 0) == W.sigma_sub(u)
        assert W.tau_twisted(u, 0) == W.tau_sub(u)


# ---------------------------------------------------------------- relator and eta


def test_base_relator_shape():
    r = W.base_relator()
    assert r, "relator must be nontrivial as a word"
    assert W.reduce(r) == r
    u = W.reduce("adadadad")
    assert W.commutator("c", W.commutator("d", W.commutator("b", u))) == r


def test_every_tau_variant_kills_the_relator():
    # each collapsing substitution deletes one torsion letter, and the
    # relator is framed by all three, so every variant sends it to e
    for x in (0, 1, 2):
        for y in (0, 1, 2):
            assert W.tau_twisted(W.phi_twist(W.base_relator(), y), x) == ()


def test_eta_level_zero_is_twisted_relator():
    om = W.FIRST_OMEGA  # first letter is 0, so the twist is trivial
    assert W.eta_word(om, 0) == W.base_relator()
    om2 = W.OmegaWord("", "120")
    assert W.eta_word(om2, 0) == W.phi_twist(W.base_relator(), -1)


def test_eta_lengths_match_fixture_and_bound():
    om = W.FIRST_OMEGA
    r = W.base_relator()
    a_count = sum(1 for ch in r if ch == "a")
    got = [len(W.eta_word(om, k)) for k in range(11)]
    with open(FIXTURES / "eta_lengths.json") as fh:
        expected = json.load(fh)["lengths"]
    assert got == expected
    for k, n in enumerate(got):
        assert n <= len(r) + 2 * a_count * (2**k - 1)


def test_eta_words_are_nontrivial_and_reduced():
    om = W.OmegaWord("2", "01")
    for k in range(6):
        w = W.eta_word(om, k)
        assert w
        assert W.reduce(w) == w


# ---------------------------------------------------------------- omega words


def test_omega_letters_are_one_based():
    om = W.FIRST_OMEGA
    assert [om.letter(i) for i in range(1, 8)] == [0, 1, 2, 0, 1, 2, 0]
    with pytest.raises(ValueError):
        om.letter(0)


def test_omega_with_preperiod():
    om = W.OmegaWord("21", "0")
    assert [om.letter(i) for i in range(1, 6)] == [2, 1, 0, 0, 0]
    assert om.is_stabilizing
    assert not W.FIRST_OMEGA.is_stabilizing


def test_omega_shift():
    om = W.OmegaWord("21", "012")
    assert om.shift(1) == W.OmegaWord("1", "012")
    assert om.shift(2) == W.OmegaWord("", "012")
    assert om.shift(4) == W.OmegaWord("", "201")
    assert W.FIRST_OMEGA.shift(3) == W.FIRST_OMEGA


def test_parse_omega():
    assert W.parse_omega("(012)*") == W.OmegaWord("", "012")
    assert W.parse_omega("21|0") == W.OmegaWord("21", "0")
    assert W.parse_omega("|012") == W.OmegaWord("", "012")
    assert W.parse_omega("012") == W.OmegaWord("", "012")
    assert str(W.OmegaWord("", "012")) == "(012)*"
    assert str(W.OmegaWord("1", "02")) == "1|02"
    with pytest.raises(ValueError):
        W.parse_omega("(013)*")
    with pytest.raises(ValueError):
        W.parse_omega("abc")
