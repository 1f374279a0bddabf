"""Ball enumeration and exact combinatorial counters on marked groups.

Everything here is exact: balls are breadth-first enumerations with full
adjacency among ball vertices (and an explicit "outside" marker), and the
counters (cogrowth, growth, self-avoiding walks, Cheeger ratios) return
integers or rationals, never floats.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .marked import GridGroup, MarkedGroup

OUTSIDE = -1
UNKNOWN = -2  # a cell not yet filled; none survives bfs_ball

DEFAULT_VERTEX_BUDGET = 5_000_000


class BallBudgetError(RuntimeError):
    """Raised when a ball exceeds the vertex budget.

    ``achieved_radius`` is the last radius whose layer completed.
    """

    def __init__(self, achieved_radius: int, budget: int):
        self.achieved_radius = achieved_radius
        self.budget = budget
        super().__init__(
            f"vertex budget {budget} exceeded; completed radius {achieved_radius}"
        )


@dataclass
class CayleyBall:
    radius: int
    vertices: list
    dist: np.ndarray
    adjacency: np.ndarray  # (k, V) int64: adjacency[s, u] is u * s's index, or OUTSIDE
    inverse: tuple  # inverse[s] is the symbol index of s^-1
    layer_offsets: list  # vertices[layer_offsets[r]:layer_offsets[r+1]] is sphere r
    group: MarkedGroup

    @property
    def size(self) -> int:
        return len(self.vertices)

    def layer_sizes(self) -> list:
        return [
            self.layer_offsets[r + 1] - self.layer_offsets[r]
            for r in range(self.radius + 1)
        ]

    def sphere_indices(self, r: int) -> range:
        return range(self.layer_offsets[r], self.layer_offsets[r + 1])

    def ball_size(self, r: int) -> int:
        return self.layer_offsets[r + 1]

    def within(self, r: int) -> np.ndarray:
        """(k, ball_size(r)) adjacency of the radius-r sub-ball.

        BFS order is prefix-stable, so this equals bfs_ball(group, r).adjacency:
        the first ball_size(r) columns, every target past them read as OUTSIDE.
        """
        size = self.ball_size(r)
        sub = self.adjacency[:, :size]
        return np.where(sub < size, sub, OUTSIDE)

    def edges(self) -> list:
        """Each undirected in-ball edge once, as (u, v) pairs.

        Ordered by symbol (the lower index of each inverse pair), then by u
        ascending: percolation draws one uniform per edge in this order.
        Self-loops are dropped.  Each inverse pair of symbols, and each
        involution, adds its own edges, so parallel edges stay distinct.
        """
        u = np.arange(self.size)
        out = []
        for s, col in enumerate(self.adjacency):
            si = self.inverse[s]
            if si < s:
                continue  # partner symbol already emitted these
            # an involution sees each edge from both ends: keep v > u
            keep = col > u if si == s else (col != OUTSIDE) & (col != u)
            out.extend(zip(u[keep].tolist(), col[keep].tolist()))
        return out

    def neighbors(self) -> list:
        """Sorted distinct neighbours of each vertex, the other ends of its
        edges(); parallel generator edges give one neighbour."""
        sets = [set() for _ in range(self.size)]
        for u, v in self.edges():
            sets[u].add(v)
            sets[v].add(u)
        return [tuple(sorted(n)) for n in sets]

    def to_dot(self) -> str:
        lines = ["digraph ball {"]
        for u in range(self.size):
            lbl = self.group.describe_element(self.vertices[u]).replace('"', "'")
            lines.append(f'  v{u} [label="{lbl}"];')
        lines.append("  outside [label=\"...\", shape=plaintext];")
        for sym, row in zip(self.group.symbols, self.adjacency.tolist()):
            for u, v in enumerate(row):
                tgt = f"v{v}" if v != OUTSIDE else "outside"
                lines.append(f'  v{u} -> {tgt} [label="{sym}"];')
        lines.append("}")
        return "\n".join(lines)


def bfs_ball(g: MarkedGroup, n: int) -> CayleyBall:
    """Complete radius-n ball with adjacency for every ball vertex.

    One group product per edge inside the ball: when u * s lands on a
    ball vertex v, v's cell for the inverse symbol is filled with u, and a
    filled cell is never multiplied out again.  So the marking must be
    symmetric (ValueError otherwise).  Refuses a radius past
    ``g.faithful_radius``: that ball would describe the truncation, not the
    group it stands in for.  Raises BallBudgetError past
    DEFAULT_VERTEX_BUDGET vertices.
    """
    if n < 0:
        raise ValueError("radius must be >= 0")
    if g.faithful_radius is not None and n > g.faithful_radius:
        raise ValueError(
            f"radius {n} exceeds the query radius {g.faithful_radius} "
            f"to which {g.label} is faithful"
        )
    k = g.k
    inverse = tuple(g.inverse_symbol_index(s) for s in range(k))
    gens = g.generators()
    e = g.identity()
    vertices = [e]
    index = {e: 0}
    offsets = [0, 1]
    unknown_row = array("q", [UNKNOWN]) * k
    cells = array("q", unknown_row)  # row-major: cells[u * k + s] = u * s
    budget = DEFAULT_VERTEX_BUDGET
    # pass r fills the rows of sphere r - 1 and finds sphere r; pass n + 1
    # finds nothing and marks the products that leave the ball OUTSIDE
    for layer in range(1, n + 2):
        for u in range(offsets[layer - 1], offsets[layer]):
            x = vertices[u]
            row = u * k
            for s in range(k):
                if cells[row + s] != UNKNOWN:
                    continue  # filled from the inverse edge v * s^-1 = u
                y = g.mul(x, gens[s])
                j = index.get(y)
                if j is None:
                    if layer > n:
                        cells[row + s] = OUTSIDE
                        continue
                    if len(vertices) >= budget:
                        raise BallBudgetError(layer - 1, budget)
                    j = len(vertices)
                    index[y] = j
                    vertices.append(y)
                    cells.extend(unknown_row)
                cells[row + s] = j
                cells[j * k + inverse[s]] = u
        if layer <= n:
            offsets.append(len(vertices))
    rows = np.frombuffer(cells, dtype=np.int64).reshape(-1, k)
    return CayleyBall(
        radius=n,
        vertices=vertices,
        dist=np.repeat(np.arange(n + 1, dtype=np.int64), np.diff(offsets)),
        adjacency=rows.T.copy(),
        inverse=inverse,
        layer_offsets=offsets,
        group=g,
    )


def ensure_ball(g: MarkedGroup, radius: int, ball: CayleyBall | None = None) -> CayleyBall:
    """``ball`` if it is a ball of g of radius >= radius, else bfs_ball(g, radius).

    A ball of another group is refused, not replaced: its counts would be
    reported under g's label.
    """
    if ball is not None and ball.group is not g:
        raise ValueError(f"ball of {ball.group.label} passed for {g.label}")
    if ball is None or ball.radius < radius:
        ball = bfs_ball(g, radius)
    return ball


def running_bound(values: Iterable, direction: str) -> list:
    """Each prefix's best certified bound on a monotone parameter: the
    running max of lower bounds ("lower") or running min of upper ones
    ("upper")."""
    return list(itertools.accumulate(values, {"lower": max, "upper": min}[direction]))


@dataclass
class CountSeries:
    kind: str  # cogrowth | growth | saw
    values: list  # exact ints, index = n

    def __post_init__(self):
        assert self.kind in ("cogrowth", "growth", "saw")


def walk_counts(ball: CayleyBall, n_max: int) -> Iterator[np.ndarray]:
    """Yield c_t for t = 0..n_max: c_t[v] counts the length-t symbol words
    from the identity that evaluate to ball vertex v without leaving the ball.

    Counts start as int64 and become Python ints in an object array before
    the first step t -> t+1 with max(c_t) * k >= 2^63: a new count sums k old
    ones, so below that bound int64 is exact.  Each step is a fresh array.
    """
    V, k = ball.size, ball.group.k
    # predecessors of v through s are v * s^{-1}; OUTSIDE reads the zero cell V
    preds = np.where(ball.adjacency >= 0, ball.adjacency, V)[list(ball.inverse)]
    cur = np.zeros(V + 1, dtype=np.int64)
    cur[0] = 1
    yield cur[:V]
    for t in range(n_max):
        # k^(t+1) bounds every new count, so the max is read only past 2^63
        if cur.dtype != object and k ** (t + 1) >= 2**63 and int(cur.max()) * k >= 2**63:
            cur = cur.astype(object)
        new = np.zeros(V + 1, dtype=cur.dtype)
        for idx in preds:
            new[:V] += cur[idx]
        cur = new
        yield cur[:V]


def cogrowth(g: MarkedGroup, n_max: int, ball: CayleyBall | None = None) -> CountSeries:
    """Exact counts of length-n words over the symbols equal to identity.

    Backtracking allowed; a returning walk of length n stays within
    radius n/2, so the dynamic program runs on bfs_ball(g, n_max/2).
    """
    if n_max < 0 or n_max % 2 != 0:
        raise ValueError("n_max must be an even nonnegative integer")
    ball = ensure_ball(g, n_max // 2, ball)
    values = [int(c[0]) for c in walk_counts(ball, n_max)]
    return CountSeries("cogrowth", values)


def growth(g: MarkedGroup, n_max: int, ball: CayleyBall | None = None) -> CountSeries:
    """Exact ball sizes b(0..n_max)."""
    ball = ensure_ball(g, n_max, ball)
    return CountSeries("growth", [ball.ball_size(r) for r in range(n_max + 1)])


def saw_count(g: MarkedGroup, n_max: int) -> CountSeries:
    """Exact self-avoiding walk counts v(0..n_max) from the identity.

    Walks are counted as vertex paths: parallel generator edges to the
    same neighbor contribute one walk (so v(1) is the number of distinct
    nontrivial generator images).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    ball = bfs_ball(g, n_max)
    neigh = ball.neighbors()
    counts = [0] * (n_max + 1)
    counts[0] = 1
    visited = {0}
    # depth-first over self-avoiding paths; each level keeps its neighbour
    # iterator, and a walk one step short of n_max counts its last steps
    # (the unvisited neighbours of its end) without descending
    path = [0]
    todo = [iter(neigh[0])] if n_max else []
    while todo:
        for v in todo[-1]:
            if v not in visited:
                break
        else:  # level exhausted: backtrack
            todo.pop()
            visited.discard(path.pop())
            continue
        depth = len(path)
        counts[depth] += 1
        if depth == n_max - 1:
            counts[n_max] += len(neigh[v]) - len(visited.intersection(neigh[v]))
        elif depth < n_max:
            visited.add(v)
            path.append(v)
            todo.append(iter(neigh[v]))
    return CountSeries("saw", counts)


# --------------------------------------------------------------- cheeger


def boundary_ratio(g: MarkedGroup, X: Iterable) -> Fraction:
    """|edge boundary| / (k |X|) for a finite set X of elements, exact."""
    X = set(X)
    if not X:
        raise ValueError("need a nonempty set")
    gens = g.generators()
    out = 0
    for x in X:
        for s in range(g.k):
            if g.mul(x, gens[s]) not in X:
                out += 1
    return Fraction(out, g.k * len(X))


def _boundary(rows: list, X: set) -> int:
    """Number of (vertex, generator) pairs leaving the ball-index set X."""
    return sum(row[x] not in X for row in rows for x in X)


def _ball_ratios(g, n_max):
    # B_r's boundary edges are the OUTSIDE cells of its sub-ball adjacency
    ball = bfs_ball(g, n_max)
    for r in range(n_max + 1):
        sub = ball.within(r)
        yield Fraction(int(np.count_nonzero(sub == OUTSIDE)), sub.size)


def _box_ratios(g, n_max):
    # axis-aligned boxes for grid groups; elements are integer tuples
    if not isinstance(g, GridGroup):
        raise ValueError("boxes strategy needs a grid group")
    if n_max < 1:
        raise ValueError("boxes strategy needs n_max >= 1")
    for s in range(1, n_max + 1):
        yield boundary_ratio(g, itertools.product(range(s), repeat=g.dim))


def _greedy_ratios(g, n_max):
    # grow from the identity, always absorbing the neighbour that minimizes
    # the resulting ratio (the first index on a tie).  After t steps the set
    # lies in B_t, so the ball grows one layer whenever the set reaches its
    # last sphere; BFS order is prefix-stable, so indices never change
    ball = bfs_ball(g, 0)
    rows = ball.adjacency.tolist()
    X = {0}
    yield Fraction(_boundary(rows, X), g.k)
    for _ in range(n_max):
        if max(X) >= ball.layer_offsets[-2]:
            ball = bfs_ball(g, ball.radius + 1)
            rows = ball.adjacency.tolist()
        frontier = sorted({row[x] for row in rows for x in X} - X - {OUTSIDE})
        if not frontier:
            return
        X.add(min(frontier, key=lambda y: _boundary(rows, X | {y})))
        yield Fraction(_boundary(rows, X), g.k * len(X))


# the candidate-set families of cheeger_upper, by name
STRATEGIES = {"balls": _ball_ratios, "boxes": _box_ratios, "greedy": _greedy_ratios}


def cheeger_upper(
    g: MarkedGroup, candidates: str = "balls", n_max: int = 6
) -> list:
    """Decreasing certified upper bounds on the isoperimetric constant.

    Evaluates the exact boundary ratio over a family of candidate sets
    and returns the running minimum, so every prefix is a valid certified
    upper-bound sequence.  "balls" counts boundary edges on one bfs_ball's
    adjacency, "greedy" on a ball grown with its set; "boxes" multiplies
    out via boundary_ratio.
    """
    if candidates not in STRATEGIES:
        raise ValueError(f"unknown strategy {candidates!r}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return running_bound(STRATEGIES[candidates](g, n_max), "upper")
