"""Truncated family members, separation witnesses, kernel sections."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from griglab import cli
from griglab import family as F
from griglab import wreath as Wr
from griglab.cayley import OUTSIDE, bfs_ball
from griglab.marked import MatrixHGroup, product
from griglab.words import FIRST_OMEGA as OM
from griglab.words import OmegaWord, eta_word, parse_omega, reduce, word_str
from griglab.wreath import ball_agreement_radius, grig, iterate_functor


def test_activation_margin():
    assert F.activation_margin(OM) == 3
    # a sequence that starves d for three letters from some shift
    assert F.activation_margin(OmegaWord("", "0001")) >= 4
    # constant sequences starve forever; the starved letter needs no margin
    assert F.activation_margin(OmegaWord("", "0")) == 2


def test_truncation_level_values():
    assert [F.truncation_level(n, OM) for n in (1, 3, 7, 8)] == [5, 6, 7, 8]
    assert F.truncation_level(0, OM) == 3  # the margin alone: depth 1 kills b, c, d
    with pytest.raises(ValueError):
        F.truncation_level(-1, OM)


# per letter of omega, the torsion generator whose section at input 0 is
# trivial; the other two have the swap generator there
WEAK = {0: "d", 1: "c", 2: "b"}


def trivial_in_limit(w, omega):
    """Whether ``w`` is trivial in G_omega, by Grigorchuk's contraction."""
    w = reduce(w)
    if not w:
        return True
    if len(w) == 1 or w.count("a") % 2:
        return False
    weak = WEAK[omega.letter(1)]
    sections, swap = ([], []), 0
    for ch in w:
        if ch == "a":
            swap ^= 1
            continue
        sections[1 ^ swap].append(ch)
        if ch != weak:
            sections[swap].append("a")
    # sections are at most (len(w) + 1) // 2 long, so this ends
    return all(trivial_in_limit(p, omega.shift(1)) for p in sections)


def reduced_words(length):
    """Every normal form of the given length: a alternates with b, c, d."""
    out = []
    for first_a in (True, False):
        pattern = [(j % 2 == 0) == first_a for j in range(length)]
        for torsion in itertools.product("bcd", repeat=pattern.count(False)):
            it = iter(torsion)
            out.append("".join("a" if is_a else next(it) for is_a in pattern))
    return out


@pytest.mark.parametrize("om", ["(012)*", "(021)*", "(0112)*", "2|01"])
def test_truncation_level_decides_short_words_as_the_limit_does(om):
    omega = parse_omega(om)
    rng = random.Random(23)
    ws = [w for length in range(8) for w in reduced_words(length)]  # n <= 3
    for n in range(9):
        ws += ["".join(rng.choices("abcd", k=2 * n + 1)) for _ in range(60)]
    relators = ["".join(("a", s)) * m for s in "bcd" for m in (2, 4, 8, 16)]
    for r in relators:
        for _ in range(8):
            u = "".join(rng.choices("abcd", k=rng.randrange(1, 7)))
            ws.append(u + r + u[::-1])  # u^-1 is u reversed
    ws += [word_str(eta_word(omega, k)) for k in (1, 2, 3)]
    towers = {}
    for w in ws:
        n = len(w) // 2  # the least n with len(w) <= 2n + 1
        N = F.truncation_level(n, omega)
        G = towers.setdefault(N, grig(omega, N))
        assert G.is_trivial_word(w) == trivial_in_limit(w, omega), (w, n)


def test_radius_zero_members_keep_their_generators():
    # at query radius 0 a member still tells every generator from the identity
    empty, one = (F.build_GJ(F.GJSpec(OM, J, 0)) for J in ((), (1,)))
    assert (bfs_ball(empty, 0).within(0) == OUTSIDE).all()
    assert ball_agreement_radius(empty, one, 0) == 0


def test_gjspec_normalization():
    s = F.GJSpec(OM, (3, 1, 3), 8)
    assert s.J == (1, 3)
    with pytest.raises(ValueError):
        F.GJSpec(OM, (0, 2), 4)


def test_build_structure():
    g = F.build_GJ(F.GJSpec(OM, (1, 3), 3))
    assert g.truncation == 6
    assert len(g.factors) == 3
    assert g.component_labels == ["level 1 decorated", "level 3 decorated", "tail"]
    with pytest.raises(ValueError):
        F.build_GJ(F.GJSpec(OmegaWord("", "1"), (), 2))


def test_balls_stop_at_the_query_radius():
    g = F.build_GJ(F.GJSpec(OM, (1, 3), 5))
    assert g.faithful_radius == 5
    assert bfs_ball(g, 5).radius == 5
    with pytest.raises(ValueError, match="exceeds the query radius 5"):
        bfs_ball(g, 6)
    assert grig(OM, 4).faithful_radius is None


def test_products_and_functors_inherit_the_query_radius():
    g3, g5 = (F.build_GJ(F.GJSpec(OM, (1,), n)) for n in (3, 5))
    H = MatrixHGroup()
    assert product([g5, H, g3]).faithful_radius == 3
    assert product([H, grig(OM, 2)]).faithful_radius is None
    assert iterate_functor(OM, 2, g3).faithful_radius == 3
    for g in (product([g3, H]), iterate_functor(OM, 1, g3)):
        assert bfs_ball(g, 3).radius == 3
        with pytest.raises(ValueError, match="exceeds the query radius 3"):
            bfs_ball(g, 4)


def full_gj(spec):
    """Reference member with every level 1..N as a factor, plain ones too."""
    N = F.truncation_level(spec.query_radius, spec.omega)
    H = MatrixHGroup()
    factors = [
        iterate_functor(spec.omega, i, H) if i in spec.J else grig(spec.omega, i)
        for i in range(1, N + 1)
    ]
    return product(factors + [grig(spec.omega, N)])


@pytest.mark.parametrize("J", [(), (1,), (2,), (1, 3), (1, 2, 3)])
@pytest.mark.parametrize("n", [3, 4])
def test_plain_levels_are_quotients_of_the_tail(J, n):
    spec = F.GJSpec(OM, J, n)
    lean, full = F.build_GJ(spec), full_gj(spec)
    assert ball_agreement_radius(lean, full, n) == n
    a, b = bfs_ball(lean, n), bfs_ball(full, n)
    assert len(a.adjacency) == len(b.adjacency)
    for col_a, col_b in zip(a.adjacency, b.adjacency):
        assert np.array_equal(col_a, col_b)
    assert np.array_equal(a.dist, b.dist)


def test_continuity_probe():
    # levels outside the truncation window cannot affect radius-n balls
    for J, Jcut, n in (((1, 30), (1,), 3), ((9, 40), (), 2)):
        ga = F.build_GJ(F.GJSpec(OM, J, n))
        gb = F.build_GJ(F.GJSpec(OM, Jcut, n))
        assert ball_agreement_radius(ga, gb, n) == n


def test_empty_family_member_matches_tail():
    n = 3
    g = F.build_GJ(F.GJSpec(OM, (), n))
    tail = grig(OM, g.truncation)
    assert ball_agreement_radius(g, tail, n) == n


def test_monotone_surjection_structure():
    rng = random.Random(17)
    small = F.build_GJ(F.GJSpec(OM, (1,), 2))
    big = F.build_GJ(F.GJSpec(OM, (1, 2), 2))
    for _ in range(120):
        w = [rng.randrange(4) for _ in range(rng.randrange(0, 12))]
        if big.evaluate(w) == big.identity():
            assert small.evaluate(w) == small.identity()


def test_chabauty_floor():
    # dropping a deeper level perturbs balls only beyond radius 2^m - 1
    prev = -1
    for m, n in ((1, 1), (2, 3)):
        ga = F.build_GJ(F.GJSpec(OM, (m,), n))
        gb = F.build_GJ(F.GJSpec(OM, (), n))
        r = ball_agreement_radius(ga, gb, n)
        assert r >= min(2**m - 1, n)
        assert r >= prev
        prev = r


def test_witness_reports():
    rep = F.separation_witness(OM, (), (1,), 1)
    assert rep["ok"]
    assert rep["word_length"] == 128
    assert rep["nontrivial_at_level_i"]
    assert rep["portrait_trivial_at_level_i"]
    assert rep["trivial_one_level_deeper"]
    assert len(rep["witness_leaves"]) == 1
    assert rep["witness_leaves"][0]["address"] == "1"

    rep = F.separation_witness(OM, (1,), (1, 2), 2)
    assert rep["ok"]
    assert rep["lower_decorated_nontrivial_info"] == {1: True}
    assert rep["leaf_matches_twisted_relator"]

    rep = F.separation_witness(OM, (), (2,), 2)
    assert rep["ok"]
    assert all(rep["plain_components_trivial"].values())


def test_witness_preconditions():
    with pytest.raises(ValueError):
        F.separation_witness(OM, (1,), (1,), 1)
    with pytest.raises(ValueError):
        F.separation_witness(OM, (1,), (1, 2), 1)
    for stabilizing in ("000", "1|2"):
        with pytest.raises(ValueError, match="must not stabilize"):
            F.separation_witness(parse_omega(stabilizing), (), (1,), 1)


@pytest.mark.parametrize("J, Jp, i", [((), (0,), 0), ((), (0, 1), 1), ((0,), (0, 1), 1)])
def test_witness_refuses_level_zero(J, Jp, i):
    # F^0(H) is H itself, with no portrait to read the witness off
    with pytest.raises(ValueError, match="levels in J must be positive"):
        F.separation_witness(OM, J, Jp, i)


@pytest.fixture
def tower_builds(monkeypatch):
    """Every grig and iterate_functor call, in family and in wreath, by depth."""
    built = []

    def counting(f):
        def counted(omega, k, *base):
            built.append(k)
            return f(omega, k, *base)

        return counted

    for module in (F, Wr):
        monkeypatch.setattr(module, "grig", counting(grig))
        monkeypatch.setattr(module, "iterate_functor", counting(iterate_functor))
    return built


@pytest.mark.parametrize("J, Jp, i", [((), (1, 2), 1), ((1,), (1, 2), 2)])
def test_a_witness_builds_no_tree(tower_builds, J, Jp, i):
    # the report is read off section words: no tower, no interned node
    pool = Wr.pool_size()
    assert F.separation_witness(OM, J, Jp, i)["ok"]
    assert tower_builds == []
    assert Wr.pool_size() == pool


SUBSETS = [J for r in range(4) for J in itertools.combinations((1, 2, 3), r)]
WITNESS_QUERIES = [
    (J, Jp, i)
    for J in SUBSETS
    for Jp in SUBSETS
    if set(J) < set(Jp)
    for i in sorted(set(Jp) - set(J))
]


@pytest.mark.parametrize("omega", ["(012)*", "(021)*", "(0112)*", "2|01"])
def test_a_shared_witness_table_answers_as_a_fresh_witness(omega):
    # every query first in reverse order, so each answer below comes out of
    # a table that already holds the entries of all the others
    om = parse_omega(omega)
    assert len(WITNESS_QUERIES) == 27
    table = F.WitnessTable(om)
    for query in reversed(WITNESS_QUERIES):
        table.report(*query)
    for J, Jp, i in WITNESS_QUERIES:
        assert table.report(J, Jp, i) == F.separation_witness(om, J, Jp, i)


def test_a_sweep_builds_each_word_once_and_no_tree(monkeypatch, tower_builds):
    words = []

    def counted(omega, k):
        words.append(k)
        return eta_word(omega, k)

    monkeypatch.setattr(F, "eta_word", counted)
    sets = ["{" + ",".join(map(str, J)) + "}" for J in SUBSETS]
    pool = Wr.pool_size()
    assert cli.main(["sweep", "eta-witness", *sets]) == 0
    assert sorted(words) == [1, 2, 3]
    assert tower_builds == []
    assert Wr.pool_size() == pool


def as_tree(x, j):
    """A depth-j tower element as a tree: F^0(H) is H, whose values are leaves."""
    return x if j else Wr.leaf(x)


@pytest.mark.parametrize("omega", ["(012)*", "(021)*", "2|01"])
def test_the_section_ladder_reads_what_the_trees_hold(omega):
    # the folded trees of grig(omega, j) and F^j(H) are the oracle; eta
    # words never swap, so random words check the swap bits
    om = parse_omega(omega)
    table = F.WitnessTable(om)
    H = table.H
    rng = random.Random(5)
    randoms = [reduce("".join(rng.choices("abcd", k=rng.randrange(1, 40)))) for _ in range(12)]
    for j in range(6):
        plain, tower = grig(om, j), iterate_functor(om, j, H)
        for i in (1, 2, 3):
            w = table.word(i)
            x = tower.evaluate(w)
            assert table.trivial(i, j) == (x == tower.identity())
            assert table.trivial(i, j, False) == (plain.evaluate(w) == plain.identity())
            if j == i:
                assert table.level(i) == (
                    x != tower.identity(), Wr.portrait(x) == 0, Wr.nontrivial_leaves(x, H.identity())
                )
        for w in randoms:
            x = as_tree(tower.evaluate(w), j)
            swapped = table.sections(w, j)[0]
            assert swapped == (Wr.portrait(x) != 0) == (plain.evaluate(w) != plain.identity())
            assert table.leaves(w, j) == Wr.nontrivial_leaves(x, H.identity())


def test_kernel_section_small_cases():
    gam = product([grig(OM, 3), grig(OM, 1)], ["finite", "tail"])
    ks = F.finite_kernel_section(gam, 2)
    assert gam.evaluate("d") in ks
    for x in ks:
        assert F.is_kernel_section_element(gam, x)

    g0 = F.build_GJ(F.GJSpec(OM, (), 2))
    assert F.finite_kernel_section(g0, 2) == set()


def test_trivial_tail_section_is_all_nontrivial_elements():
    from griglab.marked import TrivialGroup
    from griglab.cayley import OUTSIDE, bfs_ball

    gam = product([grig(OM, 2), TrivialGroup()], ["finite", "tail"])
    ks = F.finite_kernel_section(gam, 3)
    ball = bfs_ball(gam, 3)
    nontrivial = {x for x in ball.vertices if x != gam.identity()}
    assert ks == nontrivial


def test_eta_element_is_kernel_section_member():
    g1 = F.build_GJ(F.GJSpec(OM, (1,), 2))
    x = g1.evaluate(eta_word(OM, 1))
    assert F.is_kernel_section_element(g1, x)
