"""Ball construction, walk counting, SAW counts, isoperimetric search."""

import copy
import itertools
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from griglab import cayley
from griglab.cayley import (
    OUTSIDE,
    UNKNOWN,
    BallBudgetError,
    bfs_ball,
    cheeger_upper,
    cogrowth,
    ensure_ball,
    growth,
    saw_count,
    walk_counts,
)
from griglab.cli import parse_group_expr
from griglab.estimators import entropy, spectral_radius
from griglab.marked import (
    CyclicGroup,
    FreeGroup,
    GammaFree,
    GridGroup,
    MarkedGroup,
)
from griglab.words import FIRST_OMEGA
from griglab.wreath import grig


def brute_force_cogrowth(g, n_max):
    """Count identity-evaluating words by enumerating all k^n of them."""
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


def reference_return_counts(g, ball, n_max):
    """The plain per-vertex Python-int walk-count DP, kept as a reference."""
    rev = [ball.adjacency[ball.inverse[s]].tolist() for s in range(g.k)]
    cur = [1] + [0] * (ball.size - 1)
    counts = [1]
    for _ in range(n_max):
        new = [0] * ball.size
        for idx in rev:
            for v, u in enumerate(idx):
                if u >= 0:
                    new[v] += cur[u]
        cur = new
        counts.append(cur[0])
    return counts


def test_ball_sizes_free():
    b = bfs_ball(FreeGroup(2), 3)
    assert b.layer_sizes() == [1, 4, 12, 36]
    assert b.size == 53
    assert b.ball_size(2) == 17


def test_ball_sizes_gamma():
    b = bfs_ball(GammaFree(), 3)
    assert b.layer_sizes() == [1, 4, 6, 12]


def test_ball_dist_and_adjacency_consistent():
    g = GridGroup(2)
    b = bfs_ball(g, 4)
    gens = g.generators()
    rng = random.Random(7)
    for _ in range(200):
        u = rng.randrange(b.size)
        s = rng.randrange(g.k)
        y = g.mul(b.vertices[u], gens[s])
        j = int(b.adjacency[s][u])
        if j == OUTSIDE:
            assert y not in b.vertices
        else:
            assert b.vertices[j] == y
            assert abs(int(b.dist[j]) - int(b.dist[u])) <= 1


def test_ball_outside_only_on_surface():
    b = bfs_ball(FreeGroup(2), 3)
    inner = int(b.layer_offsets[3])
    for col in b.adjacency:
        assert (col[:inner] != OUTSIDE).all()
        assert (col[inner:] == OUTSIDE).any()


def test_ball_budget_error(monkeypatch):
    monkeypatch.setattr(cayley, "DEFAULT_VERTEX_BUDGET", 50)
    with pytest.raises(BallBudgetError) as ei:
        bfs_ball(FreeGroup(2), 8)
    assert ei.value.achieved_radius == 2
    assert ei.value.budget == 50


def test_ball_budget_error_survives_a_pickle_round_trip():
    # a forked child sends its exception back pickled
    got = pickle.loads(pickle.dumps(BallBudgetError(3, 10)))
    assert type(got) is BallBudgetError
    assert (got.achieved_radius, got.budget) == (3, 10)
    assert str(got) == "vertex budget 10 exceeded; completed radius 3"


def test_ball_closes_on_finite_group():
    b = bfs_ball(CyclicGroup(5), 10)
    assert b.size == 5
    assert max(b.layer_sizes()) <= 2


def reference_bfs_ball(g, n):
    """The builder that multiplies every (vertex, generator) pair, kept as a
    reference: each edge inside the ball costs two products."""
    e = g.identity()
    vertices, index, dist, offsets = [e], {e: 0}, [0], [0, 1]
    gens = g.generators()
    adjacency = [[] for _ in range(g.k)]
    frontier = [0]
    for layer in range(1, n + 1):
        nxt = []
        for u in frontier:
            for s in range(g.k):
                y = g.mul(vertices[u], gens[s])
                j = index.get(y)
                if j is None:
                    if len(vertices) >= cayley.DEFAULT_VERTEX_BUDGET:
                        raise BallBudgetError(layer - 1, cayley.DEFAULT_VERTEX_BUDGET)
                    j = len(vertices)
                    index[y] = j
                    vertices.append(y)
                    dist.append(layer)
                    nxt.append(j)
                adjacency[s].append(j)
        frontier = nxt
        offsets.append(len(vertices))
    for u in frontier:
        for s in range(g.k):
            adjacency[s].append(index.get(g.mul(vertices[u], gens[s]), OUTSIDE))
    return vertices, index, dist, offsets, adjacency


# grig((012)*, 2) has generators with equal images; cycle(1) has parallel
# self-loops; free groups and gamma_free() take the keyed path, free(1) at
# radius 45 past where a base-3 digit key would pass int64
BUILDER_CASES = [
    ("free(1)", 45),
    ("free(2)", 4),
    ("free(3)", 3),
    ("free(4)", 3),
    ("gamma_free()", 6),
    ("grid(2)", 5),
    ("cycle(1)", 3),
    ("cycle(2)", 3),
    ("matrix_h()", 4),
    ("grig((012)*, 2)", 4),
    ("gj((012)*, {1,3}, 6)", 5),
    ("product(grig((012)*, 3), matrix_h())", 4),
    ("functor((012)*, 1, gj((012)*, {1}, 4))", 4),
]


@pytest.mark.parametrize("expr, n", BUILDER_CASES)
def test_ball_matches_the_two_product_builder(expr, n):
    g = parse_group_expr(expr)
    b = bfs_ball(g, n)
    vertices, _, dist, offsets, adjacency = reference_bfs_ball(g, n)
    assert b.vertices == vertices
    assert b.dist.dtype == np.int64 and b.dist.tolist() == dist
    assert b.layer_offsets == offsets
    assert b.adjacency.dtype == np.int64 and b.adjacency.shape == (g.k, b.size)
    assert b.adjacency.tolist() == adjacency
    assert not (b.adjacency == UNKNOWN).any()
    # s times its inverse symbol is e, and an involution inverts itself
    e, gens = g.identity(), g.generators()
    for s, t in enumerate(b.inverse):
        assert g.mul(gens[s], gens[t]) == e
        assert (t == s) == (g.mul(gens[s], gens[s]) == e)


KEYED_CASES = [
    ("free(1)", 45), ("free(2)", 6), ("free(3)", 4), ("free(4)", 3), ("gamma_free()", 10),
    ("grid(1)", 40), ("grid(2)", 12), ("grid(3)", 6), ("grid(4)", 4),
]


def object_loop_ball(g, n):
    """bfs_ball(g, n) built by the object loop, as for a group without keys."""
    unkeyed = copy.copy(g)
    unkeyed.key_step = None
    return bfs_ball(unkeyed, n)


@pytest.mark.parametrize("expr, n", KEYED_CASES)
def test_keyed_ball_is_the_object_loop_ball(monkeypatch, expr, n):
    g = parse_group_expr(expr)
    calls, symbol_map = counted_products(monkeypatch, g)
    keyed = bfs_ball(g, n)
    open_cells = keyed.cells.tobytes()
    closed_cells = keyed.adjacency.tobytes()
    # no product beyond bfs_ball(g, 0)'s, building or closing
    assert len(calls) == symbol_map and keyed.vertices
    want = object_loop_ball(g, n)
    assert keyed.keys is not None and want.keys is None
    assert open_cells == want.cells.tobytes()
    assert keyed.layer_offsets == want.layer_offsets
    assert keyed.dist.tobytes() == want.dist.tobytes()
    assert closed_cells == want.adjacency.tobytes()
    assert keyed.cells.base is not None  # still the one buffer, closed in place
    assert keyed.vertices == want.vertices
    assert [g.key_element(x) for x in keyed.keys.tolist()] == keyed.vertices


@pytest.mark.parametrize("expr, n", [("free(2)", 3), ("gamma_free()", 5)])
def test_keyed_ball_reads_without_decoding(monkeypatch, expr, n):
    g = parse_group_expr(expr)

    def decode(key):
        raise AssertionError("a keyed ball decoded a vertex")

    monkeypatch.setattr(g, "key_element", decode)
    ball = bfs_ball(g, n)
    spectral_radius(g, 2 * n, ball=ball)
    entropy(g, n, method="ball", ball=ball)
    assert growth(g, n, ball=ball).values[-1] == ball.size
    assert ball.within(n - 1).shape == (g.k, ball.ball_size(n - 1))
    assert len(ball.edges()) == len(object_loop_ball(g, n).edges())
    ball.neighbors()
    assert ball._vertices is None


def stepped_key(g, word):
    key = np.zeros(1, np.int64)
    for s in word:
        key = g.key_step(key, s)
    return key


def grid_key(g, x):
    """The key of grid element x: balanced base-2^(63 // d) digits."""
    return np.array([sum(c << (63 // g.dim * i) for i, c in enumerate(x))], np.int64)


# int64 keys hold 27 base-5 letters, 22 base-7 and 19 base-9; a grid(d)
# coordinate stays below 2^(63 // d - 1) in absolute value, and a grid's
# word is its element, reached by grid_key rather than by 2^62 steps
@pytest.mark.parametrize(
    "expr, word, grow, shrink, keep",
    [
        ("free(2)", [0] * 27, 2, 1, None),
        ("free(3)", [0] * 22, 0, 1, None),
        ("free(4)", [7] * 19, 0, 6, None),
        ("gamma_free()", [0, 1] * 13 + [0], 1, 0, None),
        ("gamma_free()", [1, 0] * 13 + [1], 0, 1, 2),  # c merges onto the last b
        ("grid(1)", (2**62 - 1,), 0, 1, None),
        ("grid(1)", (1 - 2**62,), 1, 0, None),
        ("grid(2)", (-5, 2**30 - 1), 2, 3, 1),
        ("grid(2)", (1 - 2**30, -(2**30 - 1)), 1, 0, 2),  # borrows from digit 1
        ("grid(3)", (2**20 - 1, -7, 1 - 2**20), 0, 1, 3),
        ("grid(3)", (3, 1 - 2**20, 2**20 - 1), 4, 5, 2),
        ("grid(4)", (2**14 - 1, -1, 1 - 2**14, 2**14 - 1), 6, 7, 2),
    ],
)
def test_keys_never_wrap(expr, word, grow, shrink, keep):
    g = parse_group_expr(expr)
    if isinstance(g, GridGroup):
        full, x = grid_key(g, word), word
    else:
        full, x = stepped_key(g, word), g.evaluate(word)
        assert len(x) == len(word)
    assert g.key_element(int(full[0])) == x
    with pytest.raises(OverflowError):
        g.key_step(full, grow)
    for s in (shrink, keep) if keep is not None else (shrink,):
        assert g.key_element(int(g.key_step(full, s)[0])) == g.mul(x, g.generator(s))


def test_free_one_keys_are_signed_exponents():
    g = FreeGroup(1)
    keys = np.array([-3, 0, 5], np.int64)
    assert g.key_step(keys, 0).tolist() == [-2, 1, 6]
    assert g.key_step(keys, 1).tolist() == [-4, -1, 4]
    assert [g.key_element(x) for x in (-2, 0, 3)] == [(-1, -1), (), (1, 1, 1)]
    with pytest.raises(OverflowError):
        g.key_step(np.array([2**63 - 1], np.int64), 0)
    with pytest.raises(OverflowError):
        g.key_step(np.array([-(2**63 - 1)], np.int64), 1)


@pytest.mark.parametrize(
    "expr", ["free(2)", "free(3)", "free(4)", "gamma_free()", "grid(1)", "grid(2)", "grid(3)", "grid(4)"]
)
def test_key_step_is_right_multiplication_past_the_balls(expr):
    g = parse_group_expr(expr)
    rng = random.Random(5)
    for _ in range(50):
        w = [rng.randrange(g.k) for _ in range(rng.randrange(19))]
        assert g.key_element(int(stepped_key(g, w)[0])) == g.evaluate(w)


# cycle(6) closes at radius 3; cycle(2) and grig((012)*, 2) have parallel
# edges; every generator of gamma_free() is an involution
GRAPH_CASES = [
    ("free(1)", 45),
    ("free(2)", 5),
    ("free(3)", 4),
    ("free(4)", 3),
    ("gamma_free()", 6),
    ("grid(2)", 6),
    ("cycle(6)", 6),
    ("cycle(2)", 2),
    ("cycle(5)", 3),
    ("cycle(1)", 2),  # both symbols are the identity: self-loops only
    ("grig((012)*, 2)", 3),
    ("matrix_h()", 4),
    ("grig((012)*, 4)", 6),
    ("gj((012)*, {1,3}, 6)", 5),
    ("product(grig((012)*, 3), matrix_h())", 4),
]


@pytest.mark.parametrize("expr, n", GRAPH_CASES)
def test_within_is_the_smaller_ball(expr, n):
    g = parse_group_expr(expr)
    b = bfs_ball(g, n)
    for r in range(n + 1):
        assert np.array_equal(b.within(r), bfs_ball(g, r).adjacency)


@pytest.mark.parametrize("expr, n", GRAPH_CASES)
def test_edges_and_neighbors_match_the_adjacency(expr, n):
    b = bfs_ball(parse_group_expr(expr), n)
    # the per-vertex derivation neighbors() once had, kept as the reference
    rows = b.adjacency.tolist()
    assert b.neighbors() == [
        tuple(sorted({row[u] for row in rows} - {u, OUTSIDE})) for u in range(b.size)
    ]
    # inverse is an involutive permutation, so each in-ball non-loop edge
    # is seen once from each end
    assert sorted(b.inverse) == list(range(b.group.k))
    assert all(b.inverse[si] == s for s, si in enumerate(b.inverse))
    directed = sum(v not in (OUTSIDE, u) for row in rows for u, v in enumerate(row))
    edges = b.edges()
    assert 2 * len(edges) == directed
    assert all(u != v for u, v in edges)
    assert all(any(row[u] == v for row in rows) for u, v in edges)


def counted_products(monkeypatch, g):
    """A list that gains one entry per g.mul call from now on, and the
    products of a bare bfs_ball(g, 0): the at most k^2 generator products
    that read off its inverse symbols, which every ball of g makes first."""
    calls = []
    mul = g.mul
    monkeypatch.setattr(g, "mul", lambda x, y: calls.append(1) or mul(x, y))
    bfs_ball(g, 0)
    symbol_map = len(calls)
    assert symbol_map <= g.k**2
    calls.clear()
    return calls, symbol_map


@pytest.mark.parametrize(
    "g, n, products",
    [
        # one product per edge: 212 and 92 when every pair was multiplied
        (FreeGroup(2), 3, 160),
        (parse_group_expr("matrix_h()"), 3, 55),
    ],
)
def test_ball_costs_one_product_per_edge(monkeypatch, g, n, products):
    monkeypatch.setattr(g, "key_step", None)  # the object loop's products
    calls, symbol_map = counted_products(monkeypatch, g)
    bfs_ball(g, n).adjacency
    assert len(calls) - symbol_map == products


@pytest.mark.parametrize(
    "g, n, products",
    [
        # the products that fill the rows of B_2, and with them the inward
        # cells of sphere 3; closing adds the other 108 and 27
        (FreeGroup(2), 3, 52),
        (parse_group_expr("matrix_h()"), 3, 28),
    ],
)
def test_open_ball_multiplies_only_the_rows_inside(monkeypatch, g, n, products):
    monkeypatch.setattr(g, "key_step", None)  # the object loop's products
    calls, symbol_map = counted_products(monkeypatch, g)
    ball = bfs_ball(g, n)
    assert len(calls) - symbol_map == products and not ball.closed
    assert (ball.cells == UNKNOWN).any()


# the last sphere of each has cells that stay on it, which only closing
# finds; free(2) is bipartite, the control whose closing finds none
LEAN_CASES = [
    ("cycle(5)", 2),
    ("gamma_free()", 4),
    ("matrix_h()", 5),
    ("grig((012)*, 5)", 5),
    ("gj((012)*, {1,3}, 6)", 6),
    ("free(2)", 4),
]


@pytest.mark.parametrize("expr, r", LEAN_CASES)
def test_open_ball_reads_like_a_closed_one(monkeypatch, expr, r):
    g = parse_group_expr(expr)

    def reads(ball):
        return (
            cogrowth(g, 2 * r, ball=ball).values,
            entropy(g, r, method="ball", ball=ball).series["H"],
            growth(g, r, ball=ball).values,
            [ball.within(q).tolist() for q in range(r)],
        )

    calls, _ = counted_products(monkeypatch, g)
    lean = bfs_ball(g, r)
    built = len(calls)
    got = reads(lean)
    assert len(calls) == built and not lean.closed
    closed = bfs_ball(g, r)
    start = closed.sphere_indices(r).start
    stays = bool((closed.adjacency[:, start:] >= start).any())
    assert stays == (expr != "free(2)")
    assert reads(closed) == got


@pytest.mark.parametrize("budget", [1, 2, 5, 17, 50, 53, 54, 160])
def test_ball_budget_error_radius_is_unchanged(monkeypatch, budget):
    monkeypatch.setattr(cayley, "DEFAULT_VERTEX_BUDGET", budget)
    # grig has no element keys, so it runs the object loop
    for g, n in ((FreeGroup(2), 4), (GammaFree(), 10), (grig(FIRST_OMEGA, 6), 10)):
        with pytest.raises(BallBudgetError) as want:
            reference_bfs_ball(g, n)
        with pytest.raises(BallBudgetError) as got:
            bfs_ball(g, n)
        assert got.value.achieved_radius == want.value.achieved_radius
        assert got.value.budget == budget


class _Successor(MarkedGroup):
    """Z marked by +1 alone: no symbol inverts the generator."""

    symbols = ("s",)
    label = "successor"

    def identity(self):
        return 0

    def generator(self, i):
        return 1

    def mul(self, x, y):
        return x + y


def test_ball_needs_a_symmetric_marking():
    with pytest.raises(ValueError, match="not symmetric"):
        bfs_ball(_Successor(), 2)


class _DoubledSuccessor(_Successor):
    """Z marked by +1 twice and -1: "S" inverts "s" and "t" but only "s"
    inverts "S", so on radius n discovery never fills the cell of -n for
    "t", which leads back inward, and closing could not place it."""

    symbols = ("s", "t", "S")

    def generator(self, i):
        return -1 if i == 2 else 1


def test_ball_needs_paired_inverse_symbols():
    with pytest.raises(ValueError, match="not paired"):
        bfs_ball(_DoubledSuccessor(), 2)


def test_cogrowth_free_frozen():
    assert cogrowth(FreeGroup(2), 6).values == [1, 0, 4, 0, 28, 0, 232]


def test_cogrowth_line_is_central_binomial():
    c = cogrowth(GridGroup(1), 10).values
    for n in range(0, 11, 2):
        assert c[n] == math.comb(n, n // 2)
    assert all(c[n] == 0 for n in range(1, 11, 2))


def test_cogrowth_finite_cyclic_two():
    # both generators are the involution, so even words all close
    c = cogrowth(CyclicGroup(2), 8).values
    assert c == [1, 0, 4, 0, 16, 0, 64, 0, 256]


def test_cogrowth_matches_brute_force():
    groups = [FreeGroup(2), GammaFree(), grig(FIRST_OMEGA, 2), GridGroup(2)]
    for g in groups:
        series = cogrowth(g, 6)
        assert series.values == brute_force_cogrowth(g, 6), g.label


def test_cogrowth_supermultiplicative():
    for g in (GammaFree(), GridGroup(2)):
        c = cogrowth(g, 12).values
        for n in range(2, 7, 2):
            for m in range(2, 7, 2):
                assert c[n + m] >= c[n] * c[m]


def test_cogrowth_rejects_odd():
    with pytest.raises(ValueError):
        cogrowth(FreeGroup(2), 5)


def test_cogrowth_bigint_path_matches_numpy_path():
    # counts widen to Python ints only before a step whose max(c_t) * k
    # reaches 2^63: on Z^2 that is never up to n = 32 (4^32 >= 2^63 though),
    # and somewhere past t = 32 up to n = 40
    g = GridGroup(2)
    ball = bfs_ball(g, 16)
    assert ball.size == 545
    exact = cogrowth(g, 32, ball=ball).values
    fast = cogrowth(g, 30, ball=ball).values
    assert exact == reference_return_counts(g, ball, 32)
    assert exact[:31] == fast
    assert exact[32] == math.comb(32, 16) ** 2  # returns on Z^2
    assert {c.dtype for c in walk_counts(ball, 32)} == {np.dtype(np.int64)}

    ball = bfs_ball(g, 20)
    dtypes = [c.dtype for c in walk_counts(ball, 40)]
    assert dtypes[32] == np.int64 and dtypes[40] == object
    assert dtypes == sorted(dtypes, key=lambda d: d == object)  # widened once
    wide = cogrowth(g, 40, ball=ball).values
    assert wide == reference_return_counts(g, ball, 40)
    assert wide[40] == math.comb(40, 20) ** 2


def full_sweep_walk_counts(ball, n_max):
    """walk_counts as it was before the pruning: every step sweeps every
    vertex of the ball, kept as the reference for the pruned prefixes."""
    V, k = ball.size, ball.group.k
    preds = np.where(ball.cells >= 0, ball.cells, V)[list(ball.inverse)]
    cur = np.zeros(V + 1, dtype=np.int64)
    cur[0] = 1
    yield cur[:V]
    for t in range(n_max):
        if cur.dtype != object and k ** (t + 1) >= 2**63 and int(cur.max()) * k >= 2**63:
            cur = cur.astype(object)
        new = np.zeros(V + 1, dtype=cur.dtype)
        for idx in preds:
            new[:V] += cur[idx]
        cur = new
        yield cur[:V]


@pytest.mark.parametrize("expr, radius", [
    ("free(2)", 5),
    ("gamma_free()", 6),
    ("grid(2)", 6),
    ("cycle(5)", 5),
    ("cycle(2)", 3),
    ("matrix_h()", 5),
    ("grig((012)*, 5)", 6),
    ("gj((012)*, {1,3}, 6)", 6),
    ("product(grig((012)*, 3), matrix_h())", 4),
    ("grid(2)", 20),  # the returns widen to Python ints past t = 32
])
def test_pruned_walk_counts_equal_the_full_sweep(expr, radius):
    ball = bfs_ball(parse_group_expr(expr), radius)
    full = [c.tolist() for c in full_sweep_walk_counts(ball, 2 * radius)]
    for n_max in range(radius + 1):  # every count at every vertex
        got = [c.tolist() for c in walk_counts(ball, n_max)]
        assert got == full[: n_max + 1], n_max
    for n_max in range(radius + 1, 2 * radius + 1):  # only the returns are read
        got = [c[0] for c in walk_counts(ball, n_max)]
        assert got == [c[0] for c in full[: n_max + 1]], n_max
        assert all(len(c) == ball.size for c in walk_counts(ball, n_max))


@pytest.mark.parametrize("radius", [5, 9, 10, 12])
def test_cogrowth_on_a_larger_passed_ball(radius):
    # step t fills B_min(t, 10 - t) of a radius-9 ball, and B_t of a ball of
    # radius >= 10, whose every count is read
    g = GridGroup(2)
    ball = bfs_ball(g, radius)
    values = cogrowth(g, 10, ball=ball).values
    assert values == [int(c[0]) for c in full_sweep_walk_counts(ball, 10)]
    assert values == [math.comb(n, n // 2) ** 2 * (n % 2 == 0) for n in range(11)]


def test_gamma_free_sphere_sizes_follow_the_closed_form():
    # s(0) = 1, s(2m+1) = 4 * 3^m, s(2m) = 6 * 3^(m-1)
    sizes = bfs_ball(GammaFree(), 16).layer_sizes()
    assert sizes[0] == 1
    for r in range(1, 17):
        m = r // 2
        assert sizes[r] == (4 * 3**m if r % 2 else 6 * 3 ** (m - 1)), r


def test_ball_of_another_group_is_refused():
    g, other = FreeGroup(2), GridGroup(2)
    ball = bfs_ball(other, 4)
    assert ensure_ball(other, 3, ball) is ball
    for f in (cogrowth, growth):
        with pytest.raises(ValueError, match="ball of grid"):
            f(g, 8, ball=ball)


def test_growth_saturates_on_finite_truncation():
    g = grig(FIRST_OMEGA, 3)
    v = growth(g, 14).values
    assert v[0] == 1 and v[1] == 5
    assert v[-1] == 128 and v[-2] == 128
    assert all(x <= y for x, y in zip(v, v[1:]))


def test_growth_submultiplicative():
    b = growth(GammaFree(), 10).values
    for n in range(1, 6):
        for m in range(1, 5):
            assert b[n + m] <= b[n] * b[m]


def test_saw_grid_frozen():
    assert saw_count(GridGroup(2), 5).values == [1, 4, 12, 36, 100, 284]


def test_saw_free_is_exact_power():
    v = saw_count(FreeGroup(2), 6).values
    assert v == [1] + [4 * 3 ** (n - 1) for n in range(1, 7)]


def test_saw_submultiplicative_and_finite_death():
    v = saw_count(GammaFree(), 7).values
    for n in range(1, 4):
        for m in range(1, 4):
            assert v[n + m] <= v[n] * v[m]
    w = saw_count(CyclicGroup(4), 6).values
    assert w == [1, 2, 2, 2, 0, 0, 0]


def reference_saw_count(g, n_max):
    """The depth-first search that descends into every walk, leaves included."""
    neigh = bfs_ball(g, n_max).neighbors()
    counts = [1] + [0] * n_max
    visited = bytearray(len(neigh))
    visited[0] = 1
    path = [0]
    todo = [iter(neigh[0])] if n_max else []
    while todo:
        for v in todo[-1]:
            if not visited[v]:
                break
        else:
            todo.pop()
            visited[path.pop()] = 0
            continue
        counts[len(path)] += 1
        if len(path) < n_max:
            visited[v] = 1
            path.append(v)
            todo.append(iter(neigh[v]))
    return counts


@pytest.mark.parametrize(
    "expr, n_max",
    [
        ("grid(2)", 0),
        ("grid(2)", 1),
        ("grid(2)", 2),
        ("grid(2)", 12),
        ("free(2)", 7),
        ("gamma_free()", 10),
        ("grid(3)", 6),
        ("cycle(6)", 8),
        ("grig((012)*, 6)", 10),
        # parallel edges and duplicate symbols: one walk per neighbour
        ("cycle(2)", 4),
        ("grig((012)*, 2)", 6),
        ("matrix_h()", 10),
        ("gj((012)*, {1,3}, 8)", 8),
    ],
)
def test_saw_count_matches_the_full_search(expr, n_max):
    g = parse_group_expr(expr)
    assert saw_count(g, n_max).values == reference_saw_count(g, n_max)


def one_step_saw_count(g, n_max):
    """The frontier search that builds every walk of length n_max - 1 and
    counts its one-step extensions, kept as the reference for the gather of
    the last two steps."""

    def children(nb, paths, counts):
        cand = nb[paths[:, -1]]
        ok = cand >= 0
        for col in paths.T:
            ok &= cand != col[:, None]
        counts[paths.shape[1]] += int(np.count_nonzero(ok))
        if paths.shape[1] < n_max:
            rows, cols = np.nonzero(ok)
            for i in range(0, rows.size, cayley._SAW_CHUNK):
                r, c = rows[i:i + cayley._SAW_CHUNK], cols[i:i + cayley._SAW_CHUNK]
                yield np.column_stack((paths[r], cand[r, c]))

    nb = cayley._neighbor_table(bfs_ball(g, n_max).cells)
    counts = [1] + [0] * n_max
    todo = [children(nb, np.zeros((1, 1), np.int64), counts)] if n_max else []
    while todo:
        for paths in todo[-1]:
            todo.append(children(nb, paths, counts))
            break
        else:
            todo.pop()
    return counts


@pytest.mark.parametrize(
    "expr",
    ["grid(1)", "grid(2)", "grid(3)", "free(2)", "gamma_free()", "cycle(1)", "cycle(2)",
     "cycle(5)", "grig((012)*, 2)"],
)
def test_two_step_saw_counts_match_the_one_step_search(expr):
    g = parse_group_expr(expr)
    for n_max in range(7):
        assert saw_count(g, n_max).values == one_step_saw_count(g, n_max), n_max


def test_saw_frontier_is_bounded_and_exact_deeper():
    # OEIS A001411 through n = 13; an unchunked frontier peaks near 95 MiB
    tracemalloc.start()
    try:
        v = saw_count(GridGroup(2), 13).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v == [1, 4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100,
                 120292, 324932, 881500]
    assert peak < 8 * 2**20


def test_saw_first_term_counts_distinct_neighbors():
    assert saw_count(CyclicGroup(2), 2).values[1] == 1
    # s and S both reach the other vertex: two parallel edges, one neighbour
    assert bfs_ball(CyclicGroup(2), 1).neighbors() == [(1,), (0,)]
    assert saw_count(GammaFree(), 1).values[1] == 4


@pytest.mark.parametrize("d, n", [(1, 9), (2, 8), (3, 5), (4, 3)])
def test_cheeger_boxes_match_multiplied_out_boxes(d, n):
    g = GridGroup(d)
    assert cheeger_upper(g, "boxes", n) == reference_cheeger(reference_box_candidates, g, n)


def test_cheeger_free_balls_formula():
    vals = cheeger_upper(FreeGroup(2), candidates="balls", n_max=4)
    assert vals == [Fraction(3**r, 2 * 3**r - 1) for r in range(0, 5)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_cheeger_grid_boxes():
    vals = cheeger_upper(GridGroup(2), candidates="boxes", n_max=8)
    assert vals[-1] == Fraction(1, 8)
    assert all(x >= y for x, y in zip(vals, vals[1:]))


def test_cheeger_greedy_improves_on_balls_for_gamma():
    ball_best = cheeger_upper(GammaFree(), candidates="balls", n_max=5)[-1]
    greedy_best = cheeger_upper(GammaFree(), candidates="greedy", n_max=40)[-1]
    assert greedy_best <= ball_best
    assert greedy_best <= Fraction(2, 7)


def test_cheeger_running_minimum():
    vals = cheeger_upper(GridGroup(2), candidates="greedy", n_max=25)
    assert all(x >= y for x, y in zip(vals, vals[1:]))


def test_cheeger_n_max_zero_is_the_identity_alone():
    for strategy in ("balls", "greedy"):
        assert cheeger_upper(GridGroup(2), strategy, 0) == [1]
        with pytest.raises(ValueError):
            cheeger_upper(GridGroup(2), strategy, -1)
    with pytest.raises(ValueError):  # the smallest box has side 1
        cheeger_upper(GridGroup(2), "boxes", 0)


def boundary_ratio(g, X):
    """|edge boundary| / (k |X|) for a finite set X of elements, exact, by
    multiplying every element of X by every generator."""
    X = set(X)
    gens = g.generators()
    out = sum(g.mul(x, gens[s]) not in X for x in X for s in range(g.k))
    return Fraction(out, g.k * len(X))


def reference_box_candidates(g, n_max):
    """The boxes [0, s)^d, s = 1..n_max, as element lists."""
    for s in range(1, n_max + 1):
        yield list(itertools.product(range(s), repeat=g.dim))


def reference_ball_candidates(g, n_max):
    """Balls as element lists (the pre-adjacency candidate generator)."""
    ball = bfs_ball(g, n_max)
    for r in range(n_max + 1):
        yield [ball.vertices[i] for i in range(ball.ball_size(r))]


def reference_greedy_candidates(g, n_max):
    """Greedy growth that multiplies every candidate set out again."""
    ball = bfs_ball(g, max(2, min(n_max, 12)))
    index = {x: i for i, x in enumerate(ball.vertices)}
    gens = g.generators()
    X = {g.identity()}
    yield list(X)
    for _ in range(n_max):
        boundary = set()
        for x in X:
            for s in range(g.k):
                y = g.mul(x, gens[s])
                if y not in X and y in index:
                    boundary.add(y)
        if not boundary:
            return
        best = None
        for y in sorted(boundary, key=lambda e: index[e]):
            r = boundary_ratio(g, X | {y})
            if best is None or r < best[0]:
                best = (r, y)
        X.add(best[1])
        yield list(X)


def reference_cheeger(candidates, g, n_max):
    out = []
    for X in candidates(g, n_max):
        r = boundary_ratio(g, X)
        out.append(r if not out or r < out[-1] else out[-1])
    return out


@pytest.mark.parametrize(
    "expr, n_ball, n_greedy",
    [
        ("free(2)", 4, 8),
        ("gamma_free()", 4, 12),
        ("grid(2)", 4, 12),
        ("cycle(6)", 4, 12),
        ("grig((012)*, 5)", 5, 12),
        ("gj((012)*, {1}, 4)", 4, 4),  # greedy's ball radius stays <= 4
        ("matrix_h()", 4, 10),
    ],
)
def test_cheeger_adjacency_counts_match_multiplied_sets(expr, n_ball, n_greedy):
    g = parse_group_expr(expr)
    assert cheeger_upper(g, "balls", n_ball) == reference_cheeger(
        reference_ball_candidates, g, n_ball
    )
    assert cheeger_upper(g, "greedy", n_greedy) == reference_cheeger(
        reference_greedy_candidates, g, n_greedy
    )


def test_cheeger_greedy_reads_only_the_radius_n_max_ball():
    # after t steps the greedy set lies in B_t, so n_max = 1 needs only B_1
    gj = parse_group_expr("gj((012)*, {1}, 1)")
    assert cheeger_upper(gj, "greedy", 1) == [1, Fraction(3, 4)]
    for expr in ("free(2)", "gamma_free()", "grid(2)", "cycle(6)", "grig((012)*, 4)"):
        g = parse_group_expr(expr)
        for n in (0, 1, 2):
            assert cheeger_upper(g, "greedy", n) == reference_cheeger(
                reference_greedy_candidates, g, n
            )


def test_cheeger_greedy_grows_only_the_ball_its_set_reaches(monkeypatch):
    radii = []
    build = cayley.bfs_ball

    def recorded(g, n):
        radii.append(n)
        return build(g, n)

    monkeypatch.setattr(cayley, "bfs_ball", recorded)
    assert len(cheeger_upper(FreeGroup(2), "greedy", 12)) == 13
    assert max(radii) <= 3  # a 13-vertex set, not the 1M-vertex B_12
    # n 20 exceeds the query radius 6, but the set stays inside it
    gj = parse_group_expr("gj((012)*, {1,3}, 6)")
    vals = cheeger_upper(gj, "greedy", 20)
    assert vals[:7] == cheeger_upper(gj, "greedy", 6)


def test_dot_draws_every_labelled_edge():
    b = bfs_ball(GammaFree(), 1)
    dot = b.to_dot()
    assert dot.startswith("digraph ball")
    assert dot.count("->") == 4 * b.size
    assert dot.count("-> outside") == int(np.count_nonzero(b.adjacency == OUTSIDE))
