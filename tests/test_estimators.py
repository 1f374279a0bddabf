"""Estimator benchmarks against exactly known values and each other."""

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from operator import mul
from pathlib import Path

import numpy as np
import pytest

from griglab import cayley, estimators
from griglab.cayley import bfs_ball, cheeger_upper, cogrowth, saw_count
from griglab.cli import parse_group_expr
from griglab.estimators import (
    EstimateReport,
    _invasion_pstar,
    _site_pstar,
    _walk_laws,
    cheeger_report,
    connective_constant,
    entropy,
    radial_point_counts,
    growth_report,
    percolation,
    percolation_pstars,
    spectral_radius,
    speed,
    tree_return_counts,
    walk_distribution,
)
from griglab.marked import CyclicGroup, FreeGroup, GammaFree, GridGroup
from griglab.words import FIRST_OMEGA
from griglab.wreath import grig

ALPHA_4 = math.sqrt(3) / 2  # spectral radius of the 4-regular tree
H_FREE_2 = 0.5 * math.log(3)  # entropy rate, rank 2, standard marking


# ------------------------------------------------------------ oracles themselves

def test_tree_oracle_rank_one_is_central_binomial():
    c = tree_return_counts(1, 10)
    for n in range(0, 11, 2):
        assert c[n] == comb(n, n // 2)


def test_tree_oracle_rows_sum_to_powers():
    """Each point of sphere d (S_d = k(k-1)^(d-1) of them) is reached by
    c_t(d) of the k^t words of length t."""
    for rank in (1, 2, 3, 4):
        k = 2 * rank
        rows = [row for row, in radial_point_counts(FreeGroup(rank), 12)]
        assert len(rows) == 13
        for t, row in enumerate(rows):
            sizes = [1] + [k * (k - 1) ** (d - 1) for d in range(1, t + 1)]
            assert len(row) == t + 1
            assert sum(s * c for s, c in zip(sizes, row)) == k**t


def test_radial_point_counts_keep_one_row_at_a_time():
    # a billion steps would never finish if the rows were built up front
    rows = list(itertools.islice(radial_point_counts(FreeGroup(2), 10**9), 5))
    assert rows == [[[1]], [[0, 1]], [[4, 0, 1]], [[0, 7, 0, 1]], [[28, 0, 10, 0, 1]]]


def test_tree_oracle_matches_ball_dp():
    assert cogrowth(FreeGroup(2), 12).values == tree_return_counts(2, 12)


def test_gamma_chain_per_point_counts_equal_the_ball_dp():
    """A point of gamma_free() is typed by its normal form's last letter:
    type 0 ends in a, type 1 in b, c or d."""
    ball = bfs_ball(GammaFree(), 8)
    dist = ball.dist.tolist()
    kind = [0 if x[-1:] == ("a",) else 1 for x in ball.vertices]
    chain = radial_point_counts(GammaFree(), 8)
    for t, (rows, vec) in enumerate(zip(chain, cayley.walk_counts(ball, 8))):
        want = [rows[i][d] if d <= t else 0 for i, d in zip(kind, dist)]
        assert vec.tolist() == want, t
        assert t < 8 or all(vec.tolist())  # every point is reached by t = 8


def test_gamma_chain_return_counts_equal_cogrowth():
    counts = [rows[0][0] for rows in radial_point_counts(GammaFree(), 32)]
    assert counts == cogrowth(GammaFree(), 32).values
    assert counts[:5] == [1, 0, 4, 6, 34]  # b c d is the identity


# --------------------------------------------------------------- spectral radius

def test_rho_certified_bounds_nondecreasing_and_exact():
    rep = spectral_radius(FreeGroup(2), 12)
    seq = rep.series["certified_lower"]
    assert seq == sorted(seq)
    c = tree_return_counts(2, 12)
    for n, r in zip(rep.series["n"], rep.series["return_count"]):
        assert r == c[n]


def test_rho_amenable_group_certifies_one():
    # both generators of the 2-element group close every even word, so
    # the bound c(n)^(1/n)/k is exactly 1 at every even n
    rep = spectral_radius(CyclicGroup(2), 8)
    assert rep.certified["value"] == pytest.approx(1.0, abs=1e-12)


def test_rho_line_bound_formula():
    rep = spectral_radius(GridGroup(1), 12)
    for n, b in zip(rep.series["n"], rep.series["return_count"]):
        assert b == comb(n, n // 2)


def test_rho_free_extrapolation_close_even_at_modest_n():
    rep = spectral_radius(FreeGroup(2), 16)
    assert abs(rep.estimate - ALPHA_4) < 0.05
    assert rep.certified["value"] < ALPHA_4  # lower bound never crosses


def test_rho_radial_equals_ball():
    for g in (FreeGroup(2), GammaFree()):
        ball = spectral_radius(g, 16, ball=bfs_ball(g, 8))
        assert spectral_radius(g, 16).to_json() == ball.to_json()


def test_rho_auto_counts_on_a_passed_ball_else_radially(monkeypatch):
    def no_ball(*a, **k):
        raise AssertionError("ball built for a radial group")

    g = GammaFree()
    ball = bfs_ball(g, 8)
    monkeypatch.setattr(cayley, "bfs_ball", no_ball)
    rep = spectral_radius(g, 32)
    assert rep.series["return_count"][:2] == [4, 34]

    def no_chain(*a, **k):
        raise AssertionError("radial counts read with a ball passed")

    monkeypatch.setattr(estimators, "radial_point_counts", no_chain)
    small = spectral_radius(g, 16, ball=ball)
    assert small.series["return_count"] == rep.series["return_count"][:8]


def test_rho_past_the_float_range():
    # c_1000 has over 1024 bits: its root is taken through the logarithm
    rep = spectral_radius(GammaFree(), 1000)
    assert 0.9694 <= rep.certified["value"] <= 1
    assert rep.series["return_count"][-1].bit_length() > 1024


def test_rho_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        spectral_radius(FreeGroup(2), 7)
    with pytest.raises(ValueError):
        spectral_radius(FreeGroup(2), 2)


# ----------------------------------------------------------------------- entropy

def test_entropy_first_step_is_log_k():
    rep = entropy(FreeGroup(2), 3)
    assert rep.series["H"][0] == pytest.approx(math.log(4), abs=1e-12)
    rep2 = entropy(GammaFree(), 3)
    assert rep2.series["H"][0] == pytest.approx(math.log(4), abs=1e-12)


def test_entropy_radial_equals_ball_dp():
    er = entropy(FreeGroup(2), 8, method="radial")
    eb = entropy(FreeGroup(2), 8, method="ball")
    for a, b in zip(er.series["H"], eb.series["H"]):
        assert a == pytest.approx(b, abs=1e-10)


@pytest.mark.parametrize("rank", [1, 2, 3], ids=lambda r: f"free({r})")
def test_radial_laws_equal_the_ball_laws(rank):
    """The recursion's sphere classes and the ball DP's vertices are two
    independent count sources for one walk law."""
    g = FreeGroup(rank)
    radial = list(_walk_laws(g, 8, None, "radial"))
    ball = list(_walk_laws(g, 8, None, "ball"))
    assert len(radial) == len(ball) == 9
    for r, b in zip(radial, ball):
        assert r.mean_distance() == b.mean_distance()
        assert r.entropy() == pytest.approx(b.entropy(), abs=1e-12)
    assert speed(g, 8).series["mean_distance"] == [
        float(law.mean_distance()) for law in radial[1:]
    ]
    for method in ("radial", "ball"):
        hs = entropy(g, 8, method=method).series["H"]
        assert hs == pytest.approx([law.entropy() for law in radial[1:]], abs=1e-12)


def test_gamma_radial_laws_equal_the_ball_laws():
    g = GammaFree()
    radial = list(_walk_laws(g, 16, None, "radial"))
    ball = list(_walk_laws(g, 16, None, "ball"))
    assert len(radial) == len(ball) == 17
    for r, b in zip(radial, ball):
        assert sum(map(mul, r.sizes, r.counts)) == 4**r.n
        assert r.mean_distance() == b.mean_distance()
    for r, b in zip(radial[:13], ball[:13]):
        assert r.entropy() == pytest.approx(b.entropy(), abs=1e-12)
    layers = [0] * 17
    for d, size in zip(radial[-1].distances, radial[-1].sizes):
        layers[d] += size
    assert layers == bfs_ball(g, 16).layer_sizes()


def test_radial_entropy_and_speed_past_float_range():
    # 4^600 > 2^1024: the radial laws drop the same low bits from the
    # weights and from k^n; the pinned values come from the per-term
    # Fraction sum that the radial entropy used before
    assert entropy(FreeGroup(2), 600, method="radial").estimate == pytest.approx(
        0.5574547445946986, abs=1e-15
    )
    assert speed(FreeGroup(2), 600).estimate == 0.50125


def test_entropy_rates_nonincreasing_free():
    rep = entropy(FreeGroup(2), 40)
    rates = rep.series["rate"]
    assert all(x >= y - 1e-12 for x, y in zip(rates, rates[1:]))
    assert rep.certified["direction"] == "upper"
    assert rep.certified["value"] >= H_FREE_2


def test_entropy_subadditive_pairs():
    rep = entropy(GammaFree(), 8, method="ball")
    H = [0.0] + rep.series["H"]
    for n in range(1, 5):
        for m in range(1, 5):
            assert H[n + m] <= H[n] + H[m] + 1e-9


def test_entropy_finite_group_rate_decays():
    rep = entropy(CyclicGroup(3), 24, method="ball")
    assert rep.series["rate"][-1] < 0.06  # H bounded by log 3


def test_entropy_method_validation():
    with pytest.raises(ValueError, match="radial entropy needs"):
        entropy(parse_group_expr("matrix_h()"), 4, method="radial")
    with pytest.raises(ValueError):
        entropy(FreeGroup(2), 4, method="nope")


def test_ball_entropy_range_check_precedes_ball_build(monkeypatch):
    def no_ball(*a, **k):
        raise AssertionError("ball built before the range check")

    monkeypatch.setattr(cayley, "bfs_ball", no_ball)
    with pytest.raises(ValueError, match=r"4\^600 exceeds e\^700") as ei:
        entropy(parse_group_expr("matrix_h()"), 600, method="ball")
    assert "radial" not in str(ei.value)  # radial refuses matrix_h()
    for g in (FreeGroup(2), GammaFree()):
        with pytest.raises(ValueError, match="use method radial"):
            entropy(g, 600, method="ball")


# ------------------------------------------------------------------------- speed

def test_speed_free_exact_small_means():
    rep = speed(FreeGroup(2), 4)
    # hand values: walk on the 4-regular tree, outward bias 3/4
    assert rep.series["mean_distance"][0] == pytest.approx(1.0)
    assert rep.series["mean_distance"][1] == pytest.approx(1.5)
    assert rep.series["mean_distance"][2] == pytest.approx(2.125)


def test_speed_free_converges_to_half():
    rep = speed(FreeGroup(2), 50)
    assert abs(rep.estimate - 0.5) < 0.02
    rates = rep.series["rate"]
    assert all(x >= y - 1e-12 for x, y in zip(rates, rates[1:]))


def test_speed_ball_exact_matches_radial():
    a = walk_distribution(FreeGroup(2), 6).mean_distance() / 6
    b = speed(FreeGroup(2), 6)
    assert b.parameters["method"] == "radial"
    assert float(a) == pytest.approx(b.estimate, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 13))
def test_speed_ball_is_the_closed_form_on_the_line(n):
    # a walk on Z with j steps right ends at |2j - n|
    exact = Fraction(sum(abs(2 * j - n) * comb(n, j) for j in range(n + 1)), 2**n)
    assert walk_distribution(GridGroup(1), n).mean_distance() == exact
    rep = speed(GridGroup(1), n)
    assert rep.parameters["method"] == "ball"
    assert rep.estimate == float(exact) / n
    assert rep.series["n"] == list(range(1, n + 1))


def test_speed_gamma_free_is_pinned():
    assert walk_distribution(GammaFree(), 16).mean_distance() == Fraction(70183425, 2**24)
    assert speed(GammaFree(), 16).estimate == 70183425 / 2**28


def test_speed_finite_group_slow():
    rep = speed(CyclicGroup(4), 24)
    assert rep.estimate < 0.15


def test_speed_without_oracle_is_exact_on_the_ball():
    g = grig(FIRST_OMEGA, 4)
    rep = speed(g, 8)
    assert rep.parameters["method"] == "ball" and rep.ci is None
    assert rep.estimate == float(walk_distribution(g, 8).mean_distance()) / 8


def test_speed_reports_only_the_inputs_that_act():
    radial = speed(FreeGroup(2), 6)
    ball = speed(grig(FIRST_OMEGA, 4), 6)
    assert radial.parameters == {"n": 6, "method": "radial"}
    assert ball.parameters == {"n": 6, "method": "ball"}


def test_ball_estimators_refuse_a_ball_of_another_group():
    grid_ball = bfs_ball(GridGroup(2), 4)
    free = FreeGroup(2)
    for call in (
        lambda: spectral_radius(free, 8, ball=grid_ball),
        lambda: entropy(free, 4, method="ball", ball=grid_ball),
        lambda: entropy(free, 4, ball=grid_ball),
        lambda: entropy(free, 4, method="radial", ball=grid_ball),
    ):
        with pytest.raises(ValueError, match="ball of grid"):
            call()
    assert spectral_radius(free, 8).series["return_count"] == [4, 28, 232, 2092]


def test_ball_estimators_multiply_only_inside_bfs_ball(monkeypatch):
    """Cheeger balls and percolation read one closed bfs_ball, ball speed
    and SAW counts one left open, greedy Cheeger only the closed balls it
    grows, and none multiplies anything beyond them; Cheeger boxes multiply
    nothing at all."""
    calls = [0]

    def counting(group):
        mul = group.mul

        def counted(x, y):
            calls[0] += 1
            return mul(x, y)

        group.mul = counted
        return group

    g = counting(grig(FIRST_OMEGA, 5))

    def muls(run):
        calls[0] = 0
        run()
        return calls[0]

    assert muls(lambda: cheeger_upper(g, "balls", 6)) == muls(lambda: bfs_ball(g, 6).adjacency)
    assert muls(lambda: speed(g, 8)) == muls(lambda: bfs_ball(g, 8))
    assert muls(lambda: saw_count(g, 6)) == muls(lambda: bfs_ball(g, 6))
    for mode in ("bond", "site"):
        assert muls(lambda: percolation_pstars(g, mode, 5, 3)) == muls(
            lambda: bfs_ball(g, 5).adjacency
        )

    radii = []

    def recorded(group, n):
        radii.append(n)
        return bfs_ball(group, n)

    monkeypatch.setattr(cayley, "bfs_ball", recorded)
    greedy = muls(lambda: cheeger_upper(g, "greedy", 20))
    monkeypatch.undo()
    assert radii and greedy <= sum(muls(lambda: bfs_ball(g, r).adjacency) for r in radii)
    assert muls(lambda: cheeger_upper(counting(GridGroup(2)), "boxes", 8)) == 0


# ------------------------------------------------------------------- percolation

def test_percolation_curve_endpoints_and_monotone():
    rep = percolation(GridGroup(2), "bond", radius=8, trials=60, seed=2)
    curve = rep.series["curve"]
    assert curve[0][1] == 0.0  # theta(0) = 0
    assert curve[-1][1] == 1.0  # theta(1) = 1
    thetas = [row[1] for row in curve]
    assert all(x <= y for x, y in zip(thetas, thetas[1:]))


def test_percolation_per_trial_monotone_exactly():
    ps = percolation_pstars(GridGroup(2), "site", radius=6, trials=40, seed=9)
    grid = [i / 20 for i in range(21)]
    for pstar in ps:
        ind = [pstar < p for p in grid]
        assert ind == sorted(ind)  # nondecreasing indicator per trial


def test_percolation_trials_are_independent_streams():
    a = percolation_pstars(GridGroup(2), "bond", radius=6, trials=30, seed=4)
    b = percolation_pstars(GridGroup(2), "bond", radius=6, trials=50, seed=4)
    assert np.array_equal(a, b[:30])  # extending trials never rewrites history


class _DSU:
    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def reference_pstars(g, mode, R, trials, seed):
    """The sort + union-find trials, kept as a reference: open the uniforms
    in increasing order until the root's cluster joins the radius-R sphere."""
    ball = bfs_ball(g, R)
    boundary = list(ball.sphere_indices(R))
    if not boundary:
        return np.array([])
    V = ball.size
    edges = ball.edges()
    neighbors = ball.neighbors()
    out = []
    for t in range(trials):
        rng = np.random.Generator(np.random.Philox(key=[seed, t]))
        u = rng.random(len(edges) if mode == "bond" else V)
        dsu = _DSU(V + 1)  # vertex V stands for the sphere
        open_ = bytearray(V)
        if mode == "bond":
            for b in boundary:
                dsu.union(b, V)
        for i in np.argsort(u, kind="stable"):
            i = int(i)
            if mode == "bond":
                dsu.union(*edges[i])
            else:
                open_[i] = 1
                for w in neighbors[i]:
                    if open_[w]:
                        dsu.union(i, w)
                if ball.dist[i] == R:
                    dsu.union(i, V)
            if (mode == "bond" or open_[0]) and dsu.find(0) == dsu.find(V):
                out.append(float(u[i]))
                break
    return np.array(out)


@pytest.mark.parametrize("mode", ["bond", "site"])
@pytest.mark.parametrize(
    "expr, R",
    [
        ("grid(1)", 8),
        ("grid(2)", 6),
        ("grid(2)", 16),  # the flood crosses many layers at once
        ("grid(3)", 5),
        ("free(2)", 4),
        ("gamma_free()", 5),
        ("cycle(2)", 1),  # parallel generator edges; the sphere at R = 1
        ("cycle(6)", 4),  # the ball closes at radius 3: no sphere
        ("grig((012)*, 4)", 4),
        ("gj((012)*, {1}, 4)", 4),
        ("matrix_h()", 3),
    ],
)
def test_invasion_matches_sort_and_union_find(expr, R, mode):
    g = parse_group_expr(expr)
    for seed in (0, 7):
        got = percolation_pstars(g, mode, R, 25, seed)
        assert np.array_equal(got, reference_pstars(g, mode, R, 25, seed))


def _links(n, weighted_edges):
    """Link table of an n-vertex graph: one uniform per (a, b, weight) edge."""
    links = [[] for _ in range(n)]
    for e, (a, b, _) in enumerate(weighted_edges):
        links[a].append((e, b))
        links[b].append((e, a))
    return links, [x for _, _, x in weighted_edges]


def test_invasion_water_level_on_hand_built_tables():
    # ties with worst join at once and leave the answer at the tied level
    links, u = _links(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.7)])
    assert _invasion_pstar(links, 3, u) == 0.5
    # a sphere vertex beside the root; its own links (here to a vertex past
    # the table) are never read
    links, u = _links(3, [(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.3)])
    links[2].append((len(u), 99))
    assert _invasion_pstar(links, 2, u) == 0.2
    assert _invasion_pstar(links, 1, u) == 0.1
    # site mode: a root weight above every other weight is the answer
    assert _site_pstar([[1], [0, 2], [1]], 2, [0.9, 0.4, 0.6]) == 0.9
    # a long flood below the level never lowers or raises it, and the
    # cheaper exit found late beats the dearer one found first
    chain = [(v, v + 1, 0.5 - v / 100) for v in range(1, 40)]
    links, u = _links(42, [(0, 1, 0.6), (1, 41, 0.8)] + chain + [(40, 41, 0.7)])
    assert _invasion_pstar(links, 41, u) == 0.7
    links, u = _links(42, [(0, 1, 0.6), (1, 41, 0.8)] + chain + [(40, 41, 0.3)])
    assert _invasion_pstar(links, 41, u) == 0.6


# percolation draws one uniform per edges() entry (bond) or vertex (site), so
# these lists pin the edge order and the random stream across versions
PINNED_PSTARS = [
    ("grid(2)", "bond", 6, 8, [
        0.4612002667617283, 0.507077272525767, 0.4657954161580178,
        0.3204462748395699, 0.4523999460497795, 0.4240734472277604]),
    ("grid(2)", "site", 6, 8, [
        0.9956763359513338, 0.6343819505396351, 0.6058445478575856,
        0.5696480352831346, 0.6576688070239939, 0.4837303578594021]),
    ("cycle(2)", "bond", 1, 0, [
        0.011546754286331562, 0.7513314251083365, 0.4396808049627232,
        0.47515916035519756, 0.4291563450602872, 0.5616174265538065]),
    ("gamma_free()", "bond", 3, 0, [
        0.30465221566830103, 0.5546945352002267, 0.4396808049627232,
        0.47515916035519756, 0.43459881495776, 0.5728438367844632]),
    ("grig((012)*, 2)", "bond", 3, 0, [
        0.5023796042735054, 0.7513314251083365, 0.653205474836149,
        0.48792174538598776, 0.4839306937685306, 0.5616174265538065]),
]


@pytest.mark.parametrize("expr, mode, R, seed, want", PINNED_PSTARS)
def test_percolation_stream_is_pinned(expr, mode, R, seed, want):
    got = percolation_pstars(parse_group_expr(expr), mode, R, len(want), seed)
    assert got.tolist() == want


def test_percolation_site_dominated_by_bond():
    # crossing by open sites is harder than by open bonds on the same ball
    bond = percolation(GridGroup(2), "bond", radius=12, trials=250, seed=6)
    site = percolation(GridGroup(2), "site", radius=12, trials=250, seed=6)
    for (p, tb, tb_lo, tb_hi), (_, ts, ts_lo, ts_hi) in zip(
        bond.series["curve"], site.series["curve"]
    ):
        assert ts_lo <= tb_hi  # statistical: site curve below bond curve
    assert site.estimate > bond.estimate


def test_percolation_line_threshold_near_one():
    rep = percolation(GridGroup(1), "bond", radius=24, trials=120, seed=1)
    assert rep.estimate > 0.85  # 1d: crossing needs a full open ray


def test_percolation_finite_group_degenerate():
    rep = percolation(CyclicGroup(6), "bond", radius=12, trials=10, seed=0)
    assert rep.estimate is None
    assert any("finite" in n for n in rep.notes)


def test_percolation_validation():
    with pytest.raises(ValueError):
        percolation_pstars(GridGroup(2), "face", 4, 10)
    with pytest.raises(ValueError):
        percolation_pstars(GridGroup(2), "bond", 0, 10)
    with pytest.raises(ValueError):
        percolation_pstars(GridGroup(2), "bond", 4, 0)
    # the Philox key holds a seed in [0, 2^63); past it numpy made a float key
    for seed in (-1, 2**63):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^63\)"):
            percolation_pstars(GridGroup(2), "bond", 4, 10, seed)


def test_percolation_report_deterministic_json():
    a = percolation(GridGroup(2), "bond", radius=6, trials=25, seed=8).to_json()
    b = percolation(GridGroup(2), "bond", radius=6, trials=25, seed=8).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 199, 200, 400, 401])
def test_sorted_statistics_equal_numpy_bit_for_bit(n):
    # magnitudes far apart, where a lerp and a mean round differently, and ties
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3, n)
    x[rng.integers(0, n, n // 3)] = x[rng.integers(0, n, n // 3)]
    s = np.sort(x)
    assert float(estimators._median(s)).hex() == float(np.median(x)).hex()
    for q in (0.025, 0.25, 0.5, 0.75, 0.975):
        assert estimators._quantile(s, q).hex() == float(np.quantile(x, q)).hex(), q
    rows = rng.standard_normal((7, n)) * 10.0 ** rng.integers(-3, 3, (7, n))
    want = np.median(rows, axis=1)
    rows.partition([(n - 1) // 2, n // 2], axis=1)
    assert estimators._median(rows).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 3, 2**63 - 1])
def test_rekeyed_philox_is_the_keyed_stream(seed):
    gen = np.random.Generator(np.random.Philox(0))
    for t in (0, 1, 399, 2**32):
        fresh = np.random.Generator(np.random.Philox(key=[seed, t]))
        want = fresh.random(7).tolist() + fresh.integers(0, 401, size=(3, 5)).ravel().tolist()
        got = estimators._rekeyed(gen, seed, t)
        assert got is gen
        assert gen.random(7).tolist() + gen.integers(0, 401, size=(3, 5)).ravel().tolist() == want
        estimators._rekeyed(gen, seed, t + 1).random(3)  # a stream part-read, then re-keyed
        assert estimators._rekeyed(gen, seed, t).random(7).tolist() == want[:7]


def test_cli_runs_never_import_numpy_ma():
    # np.median, np.quantile and np.unique import numpy.ma on their first
    # call, and only a CSV report needs csv; one interpreter runs every
    # verify suite, the eta-witness sweep and every estimate parameter
    code = """if True:
        import contextlib, io, sys
        from griglab.cli import main
        from griglab.estimators import percolation
        from griglab.marked import GridGroup
        for m in ("bond", "site"):
            percolation(GridGroup(2), m, radius=8, trials=57, seed=1)
        G = "grig((012)*, 4)"
        runs = [["verify", "all"], ["sweep", "eta-witness", "{}", "{1}"]]
        runs += [["estimate", G, p, "--n", "4"]
                 for p in ("rho", "entropy", "speed", "mu", "growth")]
        runs += [["estimate", g, "cheeger", "--n", "3", "--candidates", c]
                 for g, c in ((G, "balls"), ("grid(2)", "boxes"), (G, "greedy"))]
        runs += [["estimate", G, p, "--R", "4", "--trials", "20", "--seed", "1"]
                 for p in ("pc-site", "pc-bond")]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        print("numpy.ma" in sys.modules, "csv" in sys.modules)
    """
    assert _fresh_interpreter(code) == "False False"


def test_importing_the_cli_loads_no_numpy_random_and_builds_no_parser():
    # numpy.random takes about 12 ms to import and the parser about 3.5 ms
    # to build (2-core x86-64 VM); a process that only imports the CLI pays
    # for neither
    code = """if True:
        import sys
        import griglab.cli
        print("numpy.random" in sys.modules, griglab.cli._parser.cache_info().currsize)
    """
    assert _fresh_interpreter(code) == "False 0"


def _fresh_interpreter(code: str) -> str:
    """The stdout of ``code`` run in a new interpreter on this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_report_json_is_deterministic():
    a = spectral_radius(FreeGroup(2), 8).to_json()
    b = spectral_radius(FreeGroup(2), 8).to_json()
    assert a == b
    assert a["runtime_seconds"] is None


# ------------------------------------------------------------ connective constant

def test_connective_free_exact():
    rep = connective_constant(FreeGroup(2), 8)
    assert rep.estimate == 3.0  # ratio is exactly 3 on the tree
    assert rep.certified["value"] > 3.0
    seq = rep.series["certified_upper"]
    assert all(x >= y for x, y in zip(seq, seq[1:]))


def test_connective_grid_window():
    rep = connective_constant(GridGroup(2), 12)
    assert 2.5 < rep.estimate < 2.85  # mu(Z^2) ~ 2.638
    ratios = [
        a / b
        for a, b in zip(rep.series["saw"][1:], rep.series["saw"][:-1])
        if b > 0
    ]
    assert max(abs(r - rep.estimate) for r in ratios[-3:]) < 0.15


def test_connective_finite_degenerate():
    rep = connective_constant(CyclicGroup(4), 8)
    assert rep.estimate is None
    assert rep.certified is None


# ----------------------------------------------------------------- report wrappers

def test_walk_counts_past_int64_match_binomial_sums():
    # cycle(4) with k = 2: a word with j steps s lands on (2j - n) mod 4, and
    # 2^n >= 2^62 here, so the Python-int path runs
    g = CyclicGroup(4)

    def landing(n, x):
        return sum(comb(n, j) for j in range(n + 1) if (2 * j - n) % 4 == x)

    assert cogrowth(g, 64).values == [landing(n, 0) for n in range(65)]
    w = walk_distribution(g, 70)
    assert w.counts == [landing(70, x) for x in bfs_ball(g, 70).vertices]
    assert sum(w.counts) == 2**70


def per_vertex_law(ball, n):
    """H(t) and E|walk at t| for t = 1..n from the ball's per-vertex counts,
    summed in Python over every vertex, zeros included."""
    k, dist = ball.group.k, ball.dist.tolist()
    hs, means = [], []
    for t, counts in enumerate(cayley.walk_counts(ball, n)):
        counts = counts.tolist()
        acc = math.fsum(c * math.log(c) for c in counts if c > 1)
        hs.append(t * math.log(k) - acc / float(k**t))
        means.append(Fraction(sum(c * d for c, d in zip(counts, dist)), k**t))
    return hs[1:], means[1:]


@pytest.mark.parametrize("expr, n", [
    ("free(2)", 9),
    ("gamma_free()", 8),
    ("gj((012)*, {1,3}, 8)", 8),
    ("cycle(4)", 70),  # 2^70: the counts are Python ints in object arrays
])
def test_ball_walk_laws_are_bit_identical_to_the_per_vertex_sums(expr, n):
    g = parse_group_expr(expr)
    ball = bfs_ball(g, n)
    hs, means = per_vertex_law(ball, n)
    assert entropy(g, n, method="ball", ball=ball).series["H"] == hs
    laws = list(_walk_laws(g, n, ball, "ball"))[1:]
    assert [law.mean_distance() for law in laws] == means
    if estimators._radial_chain(g) is None:  # speed counts on the ball
        assert speed(g, n).series["mean_distance"] == [float(m) for m in means]


def test_ball_mean_distance_past_int64():
    # sum c * d passes 2^63 while every count fits int64: exact Python ints
    g = GridGroup(1)
    w = walk_distribution(g, 62)
    assert max(w.counts) < 2**63 <= sum(c * d for c, d in zip(w.counts, w.distances))
    law = list(_walk_laws(g, 62, None, "ball"))[-1]
    assert law.counts.dtype == np.int64
    assert law.mean_distance() == w.mean_distance() == Fraction(
        sum(c * d for c, d in zip(w.counts, w.distances)), 2**62)


def test_entropy_ball_matches_walk_distribution_per_step():
    for g in (GammaFree(), GridGroup(2)):
        b = bfs_ball(g, 6)
        hs = entropy(g, 6, method="ball", ball=b).series["H"]
        assert hs == [walk_distribution(g, t).entropy() for t in range(1, 7)]


def test_point_estimates_respect_hard_bounds_over_zoo():
    zoo = ["cycle(2)", "cycle(4)", "grid(1)", "grid(2)", "free(2)", "gamma_free()",
           "grig((012)*, 4)", "gj((012)*, {1}, 6)", "matrix_h()"]
    for expr in zoo:
        g = parse_group_expr(expr)
        ball = bfs_ball(g, 6)
        for n_max, b in ((12, None), (4, None), (12, ball), (4, ball)):
            rho = spectral_radius(g, n_max, ball=b)
            assert isinstance(rho.estimate, float), (expr, n_max)
            assert rho.certified["value"] <= rho.estimate <= 1.0, (expr, n_max)
        pc = percolation(g, "bond", radius=3, trials=40, seed=2)
        assert pc.estimate is None or 0.0 <= pc.estimate <= 1.0, expr
    clamped = spectral_radius(GridGroup(1), 12)
    assert clamped.estimate == 1.0
    assert any("clamped" in n for n in clamped.notes)
    assert not any("clamped" in n for n in spectral_radius(FreeGroup(2), 12).notes)


def test_walk_distribution_probabilities_sum_to_one():
    w = walk_distribution(GammaFree(), 5)
    assert sum(w.counts) == w.total


def test_cheeger_report_frozen_free():
    rep = cheeger_report(FreeGroup(2), "balls", 3)
    assert rep.series["bound"] == ["1", "3/5", "9/17", "27/53"]
    assert rep.certified["direction"] == "upper"


def test_growth_report_values():
    rep = growth_report(GammaFree(), 6)
    assert rep.series["ball_size"] == [1, 5, 11, 23, 41, 77, 131]
    assert rep.parameter == "growth"


def test_report_json_schema():
    rep = spectral_radius(FreeGroup(2), 8)
    blob = rep.to_json()
    assert blob["schema"] == "griglab/estimate/1"
    assert set(blob) >= {
        "parameter",
        "group",
        "estimate",
        "certified",
        "ci",
        "parameters",
        "series",
        "notes",
        "runtime_seconds",
    }
    json.dumps(blob)  # serializable
