"""Decorated tree elements, the level functor, and ball agreement."""

from __future__ import annotations

import gc
import itertools
import random
import weakref

import numpy as np
import pytest

from griglab import words as W
from griglab import wreath as Wr
from griglab.cayley import bfs_ball
from griglab.family import build_GJ
from griglab.marked import (
    CyclicGroup,
    FreeGroup,
    GammaFree,
    GridGroup,
    MarkedGroup,
    MatrixHGroup,
    TrivialGroup,
    product,
)

OM = W.FIRST_OMEGA


def closure(g, cap=100000):
    seen = {g.identity()}
    frontier = [g.identity()]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(g.k):
                y = g.mul(x, g.generator(i))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
        assert len(seen) <= cap, "closure larger than expected"
    return seen


def rand_word(rng, n=10):
    return [rng.randrange(4) for _ in range(rng.randrange(0, n))]


def rand_elem(rng, g, n=10):
    return g.evaluate(rand_word(rng, n))


# ------------------------------------------------------------ raw elements


def test_interning_makes_equal_words_identical():
    # trees compare by identity, so equal values must be one object
    g = Wr.grig(OM, 3)
    x = g.evaluate("abab")
    y = g.evaluate("abab")
    assert x is y
    assert g.evaluate("bc") is g.evaluate("d")
    assert g.evaluate("aa") is g.identity()
    for build in (
        lambda: Wr.grig(OM, 3),
        lambda: Wr.iterate_functor(OM, 2, MatrixHGroup()),
    ):
        g1, g2 = build(), build()
        assert g1.identity() is g2.identity()
        for w in ("abab", "bc", "d", "adacab", "bcbcdada"):
            assert g1.evaluate(w) is g2.evaluate(w), w


def test_group_axioms_on_decorated_elements():
    rng = random.Random(3)
    for g in (Wr.grig(OM, 3), Wr.iterate_functor(OM, 2, MatrixHGroup())):
        e = g.identity()
        inverse = bfs_ball(g, 0).inverse
        for _ in range(60):
            w = rand_word(rng)
            x, y, z = g.evaluate(w), rand_elem(rng, g), rand_elem(rng, g)
            # the word for x^-1: w reversed, each symbol mapped to its inverse
            x_inv = g.evaluate([inverse[s] for s in reversed(w)])
            assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))
            assert g.mul(x, x_inv) == e
            assert g.mul(x_inv, x) == e
            assert g.mul(x, e) == x


def test_generators_are_involutions_with_klein_relation():
    for base in (TrivialGroup(), MatrixHGroup(), GammaFree()):
        for x in (0, 1, 2):
            g = Wr.apply_functor(x, base)
            e = g.identity()
            for i in range(4):
                s = g.generator(i)
                assert g.mul(s, s) == e
            assert g.evaluate("bcd") == e
            assert g.mul(g.generator(1), g.generator(2)) == g.generator(3)


def test_functor_rejects_wrong_marking():
    with pytest.raises(ValueError):
        Wr.apply_functor(0, FreeGroup(2))
    with pytest.raises(ValueError):
        Wr.apply_functor(3, TrivialGroup())


def test_depth_and_letters_track_base():
    H = MatrixHGroup()
    g1 = Wr.apply_functor(2, H)
    assert g1.identity().depth == 1 and (g1.letter, g1.base) == (2, H)
    g2 = Wr.apply_functor(0, g1)
    assert g2.identity().depth == 2 and (g2.letter, g2.base) == (0, g1)
    t = Wr.iterate_functor(OM, 3, H)
    assert t.identity().depth == 3
    assert (t.letter, t.base.letter, t.base.base.letter, t.base.base.base) == (0, 1, 2, H)


# ------------------------------------------------------------ composition


def reference_compose(g, h, base_mul):
    """The product g h by the plain wreath recursion over both whole trees."""
    if g.depth == 0:
        return Wr.leaf(base_mul(g.leaf, h.leaf))
    if h.swap == 0:
        l = reference_compose(g.left, h.left, base_mul)
        r = reference_compose(g.right, h.right, base_mul)
    else:
        l = reference_compose(g.right, h.left, base_mul)
        r = reference_compose(g.left, h.right, base_mul)
    return Wr.node(g.swap ^ h.swap, l, r)


@pytest.mark.parametrize(
    "g",
    [
        Wr.grig(OM, 4),
        Wr.iterate_functor(OM, 3, MatrixHGroup()),
        *(Wr.apply_functor(x, GammaFree()) for x in (0, 1, 2)),
        *(
            Wr.apply_functor(x, product([MatrixHGroup(), Wr.grig(OM, 1)]))
            for x in (0, 1, 2)
        ),
    ],
    ids=lambda g: g.label,
)
def test_memoised_product_is_the_reference_product(g):
    rng = random.Random(17)
    for _ in range(150):
        x, y = rand_elem(rng, g, 20), rand_elem(rng, g, 20)
        assert g.mul(x, y) is reference_compose(x, y, g.leaf_base.mul)


class CountingMatrixH(MatrixHGroup):
    """matrix_h() recording every pair it multiplies."""

    def __init__(self):
        super().__init__()
        self.pairs = []

    def mul(self, x, y):
        self.pairs.append((x, y))
        return super().mul(x, y)


def test_tower_multiplies_each_leaf_pair_once_and_frees_its_memo():
    H = CountingMatrixH()

    def ball_pairs(tower):
        H.pairs.clear()  # the marking check multiplies generators directly
        bfs_ball(tower, 8)
        return list(H.pairs)

    tower = Wr.iterate_functor(OM, 3, H)
    first = ball_pairs(tower)
    assert first and len(set(first)) == len(first)
    # a second tower on the same leaf group starts with an empty memo
    assert ball_pairs(Wr.iterate_functor(OM, 3, H)) == first
    ref = weakref.ref(tower)
    del tower
    gc.collect()
    assert ref() is None


# ------------------------------------------------------------ inverse symbols


def test_ball_inverse_symbols_on_the_zoo():
    H = MatrixHGroup()
    klein = [
        TrivialGroup(), GammaFree(), H, Wr.grig(OM, 2), Wr.grig(OM, 5),
        Wr.iterate_functor(OM, 3, H), Wr.iterate_functor(OM, 2, product([H, Wr.grig(OM, 1)])),
        build_GJ(OM, (1,), 2),
    ]
    pinned = [(g, (0, 1, 2, 3)) for g in klein] + [
        (FreeGroup(1), (1, 0)),
        (FreeGroup(2), (1, 0, 3, 2)),
        (FreeGroup(4), (1, 0, 3, 2, 5, 4, 7, 6)),
        (GridGroup(3), (1, 0, 3, 2, 5, 4)),
        (CyclicGroup(1), (0, 1)),
        (CyclicGroup(2), (0, 1)),  # s and S name one involution
        (CyclicGroup(6), (1, 0)),
        (product([CyclicGroup(4), CyclicGroup(6)]), (1, 0)),
    ]
    for g, want in pinned:
        inverse = bfs_ball(g, 0).inverse
        assert inverse == want, g.label
        e, gens = g.identity(), g.generators()
        for s, t in enumerate(inverse):
            assert g.mul(gens[s], gens[t]) == g.mul(gens[t], gens[s]) == e


def test_inverse_symbols_of_a_tower_visit_each_subtree_once(monkeypatch):
    calls = 0
    node = Wr.node

    def counting_node(*args):
        nonlocal calls
        calls += 1
        return node(*args)

    monkeypatch.setattr(Wr, "node", counting_node)
    towers = [Wr.grig(OM, 12), Wr.grig(OM, 16), Wr.iterate_functor(OM, 16, MatrixHGroup())]
    for g in towers:
        g._memo.clear()  # cold: the marking check of each level filled it
        calls = 0
        assert bfs_ball(g, 0).inverse == (0, 1, 2, 3)
        # the generator products walk a DAG of about two nodes per level,
        # not trees of 2^depth leaves
        assert calls <= 9 * g.identity().depth, (g.label, calls)
    monkeypatch.undo()
    assert bfs_ball(Wr.grig(OM, 8), 3).layer_sizes() == [1, 4, 6, 12]


# ------------------------------------------------------------ evaluation


@pytest.mark.parametrize("om", ["(012)*", "(021)*", "0112", "2|01"])
def test_section_evaluation_returns_the_folded_tree(om):
    # split gives the root swap bit of the tree a word folds to, and its
    # sections fold in the base to the tree's two children
    omega = W.parse_omega(om)
    H = MatrixHGroup()
    towers = [
        Wr.iterate_functor(omega, 3, H),
        Wr.grig(omega, 5),
        Wr.iterate_functor(omega, 2, product([H, Wr.grig(omega, 1)])),
    ]
    rng = random.Random(11)
    words = ["", "e", "a", "b", "c", "d"]
    words += ["".join(rng.choices("abcd", k=rng.randrange(65))) for _ in range(40)]
    words += [W.eta_word(omega, k) for k in (1, 2, 3)]
    for g in towers:
        child = (lambda x: x) if isinstance(g.base, Wr.WreathGroup) else Wr.leaf
        for w in words:
            letters = "".join(g.symbols[i] for i in g.parse(w))
            x = g.evaluate(letters)
            swap, s0, s1 = Wr.split(letters, g.letter)
            assert x.swap == swap, (g.label, w)
            assert x.left is child(g.base.evaluate(s0)), (g.label, w)
            assert x.right is child(g.base.evaluate(s1)), (g.label, w)
            assert (s0, s1) == tuple(map(W.reduce, (s0, s1)))


# ------------------------------------------------------------ the action


def act(g, address):
    """Image of a tree address (tuple of bits) under the element."""
    if not address:
        return ()
    x, rest = address[0], address[1:]
    return (x ^ g.swap,) + act(g.left if x == 0 else g.right, rest)


def leaf_permutation(g, depth):
    """Permutation induced on the 2^depth leaf addresses, in binary order."""
    assert depth <= g.depth
    out = []
    for v in range(1 << depth):
        bits = tuple((v >> (depth - 1 - j)) & 1 for j in range(depth))
        out.append(sum(b << (depth - 1 - j) for j, b in enumerate(act(g, bits))))
    return tuple(out)


def test_action_of_the_swap_generator():
    g = Wr.grig(OM, 3)
    a = g.generator(0)
    assert act(a, (0, 1, 1)) == (1, 1, 1)
    assert act(a, (1, 0, 0)) == (0, 0, 0)
    assert leaf_permutation(a, 1) == (1, 0)


def test_action_is_a_homomorphism_to_permutations():
    rng = random.Random(9)
    g = Wr.grig(OM, 3)
    for _ in range(40):
        x, y = rand_elem(rng, g), rand_elem(rng, g)
        px = leaf_permutation(x, 3)
        py = leaf_permutation(y, 3)
        pxy = leaf_permutation(g.mul(x, y), 3)
        # left action: (xy) acts as: apply y, then x
        composed = tuple(px[py[v]] for v in range(8))
        assert pxy == composed


def test_level_three_action_is_transitive():
    g = Wr.grig(OM, 3)
    perms = [leaf_permutation(g.generator(i), 3) for i in range(4)]
    orbit = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for p in perms:
                if p[v] not in orbit:
                    orbit.add(p[v])
                    nxt.append(p[v])
        frontier = nxt
    assert orbit == set(range(8))


# ------------------------------------------------------------ portraits


def test_portrait_bits():
    g = Wr.grig(OM, 2)
    assert Wr.portrait(g.identity()) == 0
    assert Wr.portrait(g.generator(0)) == 1  # a swaps at the root only


def test_portrait_group_sizes():
    # the first four portrait groups have known orders
    for lvl, size in ((1, 2), (2, 8), (3, 128), (4, 4096)):
        assert len(closure(Wr.grig(OM, lvl))) == size


def test_generator_collapse_at_low_levels():
    g2 = Wr.grig(OM, 2)
    assert g2.generator(3) == g2.identity()  # d dies two levels down
    assert g2.generator(1) == g2.generator(2)
    g3 = Wr.grig(OM, 3)
    gens = g3.generators()
    assert len(set(gens)) == 4
    assert g3.identity() not in gens


def test_truncation_is_a_quotient():
    # triviality at a deeper level forces triviality at a shallower one
    rng = random.Random(31)
    g4, g3 = Wr.grig(OM, 4), Wr.grig(OM, 3)
    for _ in range(200):
        w = [rng.randrange(4) for _ in range(rng.randrange(0, 14))]
        if g4.evaluate(w) == g4.identity():
            assert g3.evaluate(w) == g3.identity()
    assert g3.evaluate("d") != g3.identity()


# ------------------------------------------------------------ eta words


def test_eta_trivial_one_level_deeper_and_in_portrait_groups():
    H = MatrixHGroup()
    for k in range(3):
        w = W.eta_word(OM, k)
        deeper = Wr.iterate_functor(OM, k + 1, H)
        assert deeper.evaluate(w) == deeper.identity()
        for j in (k, k + 1, k + 3):
            gj = Wr.grig(OM, max(j, 1))
            assert gj.evaluate(w) == gj.identity()


def test_eta_survives_at_its_own_level_with_single_leaf():
    H = MatrixHGroup()
    for k in (1, 2):
        w = W.eta_word(OM, k)
        gk = Wr.iterate_functor(OM, k, H)
        v = gk.evaluate(w)
        assert v != gk.identity()
        assert Wr.portrait(v) == 0
        nt = Wr.nontrivial_leaves(v, H.identity())
        assert len(nt) == 1
        addr, leafval = nt[0]
        assert addr == (1,) * k
        expected = H.evaluate(W.phi_twist(W.base_relator(), -OM.letter(k + 1)))
        assert leafval == expected


def test_eta_level_zero_in_matrix_group():
    H = MatrixHGroup()
    w = W.eta_word(OM, 0)
    assert H.evaluate(w) != H.identity()


# ------------------------------------------------------------ agreement


def test_agreement_radius_identical_groups():
    g = Wr.grig(OM, 3)
    assert Wr.ball_agreement_radius(g, g, 5) == 5


def test_agreement_radius_detects_generator_collapse():
    # d is trivial in grig(omega, 2): a loop at the root, so even the
    # radius-0 balls differ
    assert Wr.ball_agreement_radius(Wr.grig(OM, 2), Wr.grig(OM, 7), 4) == -1


class Relabelled(MarkedGroup):
    """The same group with its generators listed in another order."""

    def __init__(self, g, order):
        self.g, self.order = g, order
        self.symbols = tuple(g.symbols[i] for i in order)
        self.label = f"{g.label}{order}"

    def identity(self):
        return self.g.identity()

    def generator(self, i):
        return self.g.generator(self.order[i])

    def mul(self, x, y):
        return self.g.mul(x, y)


class Z3xZ(MarkedGroup):
    """Z/3 x Z on grid(2)'s symbols: an odd relation (a^3) and an even
    one (abAB) both first show at radius 2."""

    symbols = GridGroup(2).symbols
    label = "Z/3 x Z"

    def identity(self):
        return (0, 0)

    def generator(self, i):
        return ((1, 0), (2, 0), (0, 1), (0, -1))[i]

    def mul(self, x, y):
        return ((x[0] + y[0]) % 3, x[1] + y[1])


def oracle_agreement_radius(g1, g2, n_max):
    """Largest r <= n_max whose bfs_ball adjacencies are equal, or -1."""
    r = -1
    while r < n_max:
        b1, b2 = bfs_ball(g1, r + 1), bfs_ball(g2, r + 1)
        if b1.size != b2.size or not all(
            np.array_equal(x, y) for x, y in zip(b1.adjacency, b2.adjacency)
        ):
            break
        r += 1
    return r


@pytest.mark.parametrize(
    "g1, g2, n_max, expected",
    [
        (Wr.grig(OM, 2), Wr.grig(OM, 7), 4, -1),
        (Wr.grig(W.parse_omega("(2)*"), 3), Wr.grig(OM, 3), 4, -1),
        (Wr.grig(OM, 1), Wr.grig(OM, 4), 3, -1),
        (Z3xZ(), FreeGroup(2), 3, 0),
        (Z3xZ(), GridGroup(2), 3, 0),
        (FreeGroup(2), GridGroup(2), 4, 1),
        (CyclicGroup(4), CyclicGroup(8), 5, 1),
        (GammaFree(), Wr.grig(OM, 7), 4, 3),
        (Wr.grig(W.parse_omega("(01)*"), 4), Wr.grig(OM, 4), 4, 4),
    ],
    ids=lambda v: getattr(v, "label", None),
)
def test_agreement_radius_matches_ball_oracle_under_relabelling(g1, g2, n_max, expected):
    for order in itertools.permutations(range(g1.k)):
        a, b = Relabelled(g1, order), Relabelled(g2, order)
        assert oracle_agreement_radius(a, b, n_max) == expected
        assert Wr.ball_agreement_radius(a, b, n_max) == expected, order


def test_agreement_radius_of_a_divergent_family_pair():
    # G_{} and G_{1} on (012)* first differ at radius 8
    g1 = build_GJ(OM, (), 8)
    g2 = build_GJ(OM, (1,), 8)
    assert Wr.ball_agreement_radius(g1, g2, 8) == 7
    assert oracle_agreement_radius(g1, g2, 8) == 7


def test_agreement_radius_on_cyclic_groups():
    assert Wr.ball_agreement_radius(CyclicGroup(4), CyclicGroup(8), 5) == 1
    assert Wr.ball_agreement_radius(CyclicGroup(9), CyclicGroup(9), 6) == 6


def test_agreement_radius_rejects_mismatched_markings():
    with pytest.raises(ValueError):
        Wr.ball_agreement_radius(GammaFree(), FreeGroup(2), 2)


def test_contraction_at_small_depth():
    H = MatrixHGroup()
    for m, M in ((1, 5), (2, 6)):
        n = 2**m - 1
        r = Wr.ball_agreement_radius(
            Wr.iterate_functor(OM, m, H), Wr.grig(OM, M), n
        )
        assert r == n


def test_agreement_with_deep_portrait_group_nondecreasing_in_tower():
    H = MatrixHGroup()
    gm = Wr.grig(OM, 7)
    prev = -1
    for i in range(4):
        t = Wr.iterate_functor(OM, i, H) if i else H
        r = Wr.ball_agreement_radius(t, gm, 4)
        assert r >= prev
        prev = r
    assert prev == 4


def test_gamma_free_matches_small_balls():
    # the involutive base covers every pattern until the first relation
    r = Wr.ball_agreement_radius(GammaFree(), Wr.grig(OM, 7), 4)
    assert r == 3


def test_product_compatibility_of_the_functor():
    H = MatrixHGroup()
    G2 = Wr.grig(OM, 2)
    for x in (0, 1, 2):
        lhs = Wr.apply_functor(x, product([H, G2]))
        rhs = product([Wr.apply_functor(x, H), Wr.apply_functor(x, G2)])
        assert Wr.ball_agreement_radius(lhs, rhs, 3) == 3
