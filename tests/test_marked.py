"""Marked-group protocol and the group zoo."""

from __future__ import annotations

import random

import pytest

from griglab import marked as M
from griglab import words as W
from griglab.cayley import bfs_ball
from griglab.family import build_GJ
from griglab.wreath import grig


ZOO = [
    M.TrivialGroup(),
    M.GammaFree(),
    M.MatrixHGroup(),
    M.FreeGroup(2),
    M.CyclicGroup(6),
    M.GridGroup(2),
]


def inverse_word(g, w):
    """The word for w^-1: w reversed, each symbol mapped to its inverse."""
    inverse = bfs_ball(g, 0).inverse
    return [inverse[s] for s in reversed(g.parse(w))]


def test_group_axioms_sampled():
    rng = random.Random(41)
    for g in ZOO:
        e = g.identity()
        for _ in range(40):
            w1 = [rng.randrange(g.k) for _ in range(rng.randrange(0, 8))]
            w2 = [rng.randrange(g.k) for _ in range(rng.randrange(0, 8))]
            x, y = g.evaluate(w1), g.evaluate(w2)
            assert g.mul(g.mul(x, y), g.evaluate(inverse_word(g, w2))) == x
            assert g.mul(x, e) == x
            assert g.mul(e, x) == x
            assert g.mul(x, g.evaluate(inverse_word(g, w1))) == e


def test_evaluate_concatenation():
    rng = random.Random(42)
    for g in ZOO:
        for _ in range(30):
            w1 = [rng.randrange(g.k) for _ in range(rng.randrange(0, 6))]
            w2 = [rng.randrange(g.k) for _ in range(rng.randrange(0, 6))]
            assert g.evaluate(list(w1) + list(w2)) == g.mul(
                g.evaluate(w1), g.evaluate(w2)
            )


def test_gamma_free_seam_product_is_the_reduced_concatenation():
    g = M.GammaFree()
    rng = random.Random(43)
    deep = folds = 0
    for _ in range(600):
        x = W.reduce("".join(rng.choices(W.LETTERS, k=rng.randrange(0, 16))))
        # y opens with x's last j letters reversed, so the seam cancels them
        j = rng.randrange(0, len(x) + 1)
        tail = "".join(rng.choices(W.LETTERS, k=rng.randrange(0, 6)))
        y = W.reduce(x[len(x) - j:][::-1] + tail)
        xy = g.mul(x, y)
        assert xy == W.reduce(x + y)
        x_inv = g.evaluate(inverse_word(g, x))
        assert g.mul(x, x_inv) == g.mul(x_inv, x) == ""
        assert W.reduce(x_inv) == x_inv == x[::-1]
        lost = len(x) + len(y) - len(xy)
        deep += lost >= 4
        folds += lost % 2  # cancelling drops two letters, folding b/c/d one
    assert deep > 100 and folds > 100, (deep, folds)


def test_inverse_symbol_index():
    assert bfs_ball(M.FreeGroup(2), 0).inverse == (1, 0, 3, 2)
    assert bfs_ball(M.GammaFree(), 0).inverse == (0, 1, 2, 3)
    assert bfs_ball(M.CyclicGroup(5), 0).inverse == (1, 0)


def test_string_words():
    gamma = M.GammaFree()
    assert gamma.evaluate("bc") == gamma.evaluate("d")
    assert gamma.is_trivial_word("bcd")
    assert gamma.is_trivial_word("e")
    f = M.FreeGroup(2)
    assert f.evaluate("xX") == f.identity()
    assert f.evaluate("xy") == (1, 2)
    with pytest.raises(ValueError):
        f.evaluate("q")
    z = M.GridGroup(2)
    assert z.evaluate("xxyX") == (1, 1)


def test_cycle_group_small():
    c = M.CyclicGroup(4)
    assert c.evaluate("sss") == 3
    assert c.evaluate("ssss") == 0
    assert c.evaluate("S") == 3


def test_product_componentwise():
    p = M.product([M.CyclicGroup(4), M.CyclicGroup(6)])
    x = p.evaluate("ss")
    assert x == (2, 2)
    assert p.evaluate("SS") == (2, 4)
    assert p.component_triviality(p.evaluate("ssss")) == [True, False]
    with pytest.raises(ValueError):
        M.product([M.CyclicGroup(2), M.FreeGroup(1)])


def test_product_evaluates_the_word_in_each_factor():
    groups = [
        M.product([M.MatrixHGroup(), M.GammaFree(), grig(W.FIRST_OMEGA, 3)]),
        build_GJ(W.parse_omega("(021)*"), (1, 3), 3),
    ]
    rng = random.Random(5)
    for p in groups:
        for _ in range(40):
            w = "".join(rng.choices("abcd", k=rng.randrange(0, 30)))
            x = p.identity()
            for i in p.parse(w):
                x = p.mul(x, p.generator(i))
            got = p.evaluate(w)
            assert got == x
            assert p.evaluate(p.parse(w)) == got


def test_product_of_one_behaves_like_factor():
    g = M.GammaFree()
    p = M.product([g])
    for w in ("abab", "bcd", "adad"):
        assert (p.evaluate(w) == p.identity()) == (g.evaluate(w) == g.identity())


def test_product_with_trivial_factor_adds_nothing():
    g = M.MatrixHGroup()
    p = M.product([g, M.TrivialGroup()])
    rng = random.Random(7)
    for _ in range(50):
        w = "".join(rng.choices("abcd", k=rng.randrange(0, 10)))
        assert (p.evaluate(w) == p.identity()) == (g.evaluate(w) == g.identity())


def test_klein_marking_detection():
    assert M.has_involutive_klein_marking(M.GammaFree())
    assert M.has_involutive_klein_marking(M.MatrixHGroup())
    assert M.has_involutive_klein_marking(M.TrivialGroup())
    assert not M.has_involutive_klein_marking(M.FreeGroup(2))
    assert not M.has_involutive_klein_marking(M.CyclicGroup(4))
    assert M.has_involutive_klein_marking(
        M.product([M.GammaFree(), M.MatrixHGroup()])
    )


def test_bad_constructions():
    with pytest.raises(ValueError):
        M.FreeGroup(0)
    with pytest.raises(ValueError):
        M.GridGroup(9)
    with pytest.raises(ValueError):
        M.CyclicGroup(0)
    with pytest.raises(ValueError):
        M.product([])
