"""Exit criteria for the whole laboratory, one test per criterion.

Each test prints a single pass/fail line (visible with -s), then asserts.
Criterion 7 is expected red: the exact entropy rate of the rank-2 free
group at n = 50 sits 0.0723 above the limit, outside the asserted 0.05
window; the assertion states the measured number rather than hiding it.
"""

import itertools
import json
import math
import time
from pathlib import Path

from griglab.cayley import bfs_ball, cheeger_upper, cogrowth, saw_count
from griglab.estimators import (
    entropy,
    percolation_pstars,
    spectral_radius,
    tree_return_counts,
)
from griglab.family import GJSpec, build_GJ, separation_witness, truncation_level
from griglab.marked import FreeGroup, GammaFree, GridGroup, MatrixHGroup
from griglab.matrixh import relation_report
from griglab.words import FIRST_OMEGA, eta_word
from griglab.wreath import (
    ball_agreement_radius,
    grig,
    iterate_functor,
    nontrivial_leaves,
    portrait,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _report(num: int, label: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    line = f"criterion {num} {mark}: {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_matrix_relations():
    t0 = time.time()
    rep = relation_report()
    needed = ["a^2", "b^2", "c^2", "d^2", "bcd", "(ad)^4 exact", "nested commutator exact"]
    ok = all(rep[name] for name in needed) and all(rep.values())
    elapsed = time.time() - t0
    _report(1, "exact projective relations and the two pinned matrices",
            ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_contraction():
    t0 = time.time()
    ok = True
    details = []
    for m in (1, 2, 3):
        n = 2**m - 1
        M = truncation_level(n, FIRST_OMEGA)
        F = iterate_functor(FIRST_OMEGA, m, MatrixHGroup())
        G = grig(FIRST_OMEGA, M)
        r = ball_agreement_radius(F, G, n)
        ok = ok and r == n
        details.append(f"m={m}: radius {r}/{n} at truncation {M}")
    elapsed = time.time() - t0
    _report(2, "functor towers over the matrix group agree with plain truncations",
            ok and elapsed < 300, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_3_separating_words():
    t0 = time.time()
    fixture = json.loads((FIXTURES / "eta_lengths.json").read_text())
    ratio_cap = fixture["lengths"][0]
    H = MatrixHGroup()
    ok = True
    for k in range(4):
        w = eta_word(FIRST_OMEGA, k)
        ok = ok and len(w) == fixture["lengths"][k]
        ok = ok and len(w) / 2**k <= ratio_cap
        deeper = iterate_functor(FIRST_OMEGA, k + 1, H)
        ok = ok and deeper.is_trivial_word(w)
        ok = ok and grig(FIRST_OMEGA, k).is_trivial_word(w)
        if k == 0:
            ok = ok and not H.is_trivial_word(w)
        else:
            Fk = iterate_functor(FIRST_OMEGA, k, H)
            x = Fk.evaluate(Fk.parse(w))
            leaves = nontrivial_leaves(x, Fk.leaf_base.identity())
            ok = ok and x != Fk.identity()
            ok = ok and portrait(x) == 0 and len(leaves) == 1
    elapsed = time.time() - t0
    _report(3, "separating words vanish one level deeper and survive in place",
            ok and elapsed < 600, f"k=0..3; {elapsed:.1f}s")


def test_criterion_4_family_separation():
    t0 = time.time()
    subsets = []
    for r in range(4):
        subsets += [tuple(sorted(c)) for c in itertools.combinations((1, 2, 3), r)]
    ok = True
    pairs = 0
    for J in subsets:
        for Jp in subsets:
            if not (set(J) < set(Jp)):
                continue
            pairs += 1
            found = any(
                separation_witness(FIRST_OMEGA, J, Jp, i)["ok"]
                for i in sorted(set(Jp) - set(J))
            )
            ok = ok and found
    # continuity: identical truncations force exact ball agreement
    for J_a, J_b, n in (((1, 30), (1,), 3), ((9, 40), (), 2)):
        assert truncation_level(n, FIRST_OMEGA) < min(x for x in J_a if x > 3)
        ga = build_GJ(GJSpec(FIRST_OMEGA, J_a, n))
        gb = build_GJ(GJSpec(FIRST_OMEGA, J_b, n))
        ok = ok and ball_agreement_radius(ga, gb, n) == n
    elapsed = time.time() - t0
    _report(4, "every proper subfamily inclusion is separated by a witness word",
            ok and elapsed < 600, f"{pairs} subset pairs; {elapsed:.1f}s")


def test_criterion_5_spectral_radius_benchmark():
    t0 = time.time()
    g = FreeGroup(2)
    rep = spectral_radius(g, 24, ball=bfs_ball(g, 12))
    target = math.sqrt(3) / 2
    seq = rep.series["certified_lower"]
    ok = rep.certified["value"] >= 0.70
    ok = ok and seq == sorted(seq)
    ok = ok and abs(rep.estimate - target) < 0.02
    ok = ok and rep.series["return_count"] == [
        tree_return_counts(2, 24)[n] for n in rep.series["n"]
    ]
    elapsed = time.time() - t0
    _report(5, "free-group walk bound certified and extrapolated",
            ok and elapsed < 120,
            f"cert {rep.certified['value']:.4f}, est {rep.estimate:.5f}, "
            f"target {target:.5f}; {elapsed:.1f}s")


def test_criterion_6_percolation_benchmarks():
    t0 = time.time()
    g = GridGroup(2)
    grid = [i / 50 for i in range(51)]
    results = {}
    ok = True
    for mode, target in (("bond", 0.50), ("site", 0.593)):
        ps = percolation_pstars(g, mode, 64, 2000, seed=0)
        est = float(sorted(ps)[len(ps) // 2])
        results[mode] = est
        ok = ok and abs(est - target) <= 0.05
        for pstar in ps:  # exact per-trial monotone coupling
            ind = [pstar < p for p in grid]
            ok = ok and ind == sorted(ind)
    elapsed = time.time() - t0
    _report(6, "square-grid thresholds at radius 64 with exact monotone trials",
            ok and elapsed < 600,
            f"bond {results['bond']:.4f} (target 0.50), "
            f"site {results['site']:.4f} (target 0.593); {elapsed:.1f}s")


def test_criterion_7_entropy_benchmark():
    t0 = time.time()
    h_limit = 0.5 * math.log(3)
    rep = entropy(FreeGroup(2), 50, method="radial")
    rates = rep.series["rate"]
    nonincreasing = all(x >= y - 1e-12 for x, y in zip(rates, rates[1:]))
    excess = rates[-1] - h_limit
    # the exact rate at n=50 is 0.0723 above the limit; the 0.05 window
    # asserted here is not attainable at this n (first n that passes: 77)
    ok = nonincreasing and 0 <= excess <= 0.05
    elapsed = time.time() - t0
    _report(7, "free-group entropy rate window at n=50",
            ok and elapsed < 120,
            f"H(50)/50 = {rates[-1]:.6f}, limit {h_limit:.6f}, "
            f"excess {excess:.6f} vs allowed 0.05; {elapsed:.1f}s")


def test_criterion_8_cheeger_bounds():
    t0 = time.time()
    from fractions import Fraction

    free_vals = cheeger_upper(FreeGroup(2), candidates="balls", n_max=6)
    ok = free_vals == [Fraction(3**r, 2 * 3**r - 1) for r in range(7)]
    ok = ok and all(x > y for x, y in zip(free_vals, free_vals[1:]))
    ok = ok and all(v > Fraction(1, 2) for v in free_vals)
    grid_vals = cheeger_upper(GridGroup(2), candidates="boxes", n_max=32)
    ok = ok and grid_vals[-1] < Fraction(5, 100)
    ok = ok and all(x >= y for x, y in zip(grid_vals, grid_vals[1:]))
    elapsed = time.time() - t0
    _report(8, "tree ratios exact and decreasing; grid boxes amenable-small",
            ok and elapsed < 60,
            f"tree last {free_vals[-1]}, grid last {grid_vals[-1]}; {elapsed:.1f}s")


def _brute_cogrowth(g, n_max):
    gens = g.generators()
    e = g.identity()
    counts = [1]
    for n in range(1, n_max + 1):
        c = 0
        for w in itertools.product(gens, repeat=n):
            x = e
            for s in w:
                x = g.mul(x, s)
            if x == e:
                c += 1
        counts.append(c)
    return counts


def _brute_saw_grid(n_max):
    g = GridGroup(2)
    gens = g.generators()
    counts = []
    for n in range(1, n_max + 1):
        paths = set()
        for w in itertools.product(range(g.k), repeat=n):
            path = [g.identity()]
            for s in w:
                path.append(g.mul(path[-1], gens[s]))
            if len(set(path)) == len(path):
                paths.add(tuple(path))
        counts.append(len(paths))
    return counts


def test_criterion_9_counter_cross_checks():
    t0 = time.time()
    ok = True
    for g in (FreeGroup(2), GammaFree(), grig(FIRST_OMEGA, 2), GridGroup(2)):
        dp = cogrowth(g, 8).values
        ok = ok and dp == _brute_cogrowth(g, 8)
        for n in range(2, 5, 2):
            for m in range(2, 5, 2):
                ok = ok and dp[n + m] >= dp[n] * dp[m]
    ok = ok and saw_count(GridGroup(2), 3).values[1:] == [4, 12, 36]
    ok = ok and _brute_saw_grid(3) == [4, 12, 36]
    v = saw_count(GridGroup(2), 8).values
    for n in range(1, 5):
        for m in range(1, 5):
            ok = ok and v[n + m] <= v[n] * v[m]
    elapsed = time.time() - t0
    _report(9, "walk counters agree with brute force and bracket correctly",
            ok and elapsed < 300, f"{elapsed:.1f}s")
