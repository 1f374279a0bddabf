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
UNKNOWN = -2  # a cell not yet filled; only a ball's last sphere keeps some

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


class SettingError(ValueError):
    """A setting out of its range whatever the group (a length, a radius, a
    seed), unlike a refusal that names the group, such as a radius past its
    faithful radius."""


@dataclass
class CayleyBall:
    radius: int
    dist: np.ndarray
    # (k, V) int64 view of bfs_ball's row-major buffer: cells[s, u] is u * s's
    # index or OUTSIDE.  Until the ball is closed, a last-sphere cell whose
    # product leads back to sphere radius - 1 is filled, every other UNKNOWN
    cells: np.ndarray
    inverse: tuple  # inverse[s] is the symbol index of s^-1
    layer_offsets: list  # vertices[layer_offsets[r]:layer_offsets[r+1]] is sphere r
    group: MarkedGroup
    # a keyed ball's int64 element keys, in vertex order; None when the
    # object loop built the ball and filled _vertices
    keys: np.ndarray | None = None
    _vertices: list | None = None
    closed: bool = False

    @property
    def vertices(self) -> list:
        """The elements in vertex order; a keyed ball decodes its keys on the
        first read."""
        if self._vertices is None:
            self._vertices = [self.group.key_element(x) for x in self.keys.tolist()]
        return self._vertices

    @property
    def size(self) -> int:
        return self.layer_offsets[-1]

    @property
    def adjacency(self) -> np.ndarray:
        """Complete (k, V) adjacency: adjacency[s, u] is u * s's index, or
        OUTSIDE.

        The first read closes the ball, in place, in the buffer under cells:
        it multiplies out the last sphere's UNKNOWN cells, by the pass loop of
        bfs_ball or, on a keyed ball, by key_step a symbol at a time.  Those
        products lead to the last sphere or out of the ball, so an index of
        the last sphere alone places them.
        """
        if not self.closed:
            last = self.sphere_indices(self.radius)
            if self.keys is not None:
                rows, keys = self.cells.T[last.start:], self.keys[last.start:]
                order = np.argsort(keys)
                ordered = keys[order]
                for s in range(self.group.k):
                    u = np.flatnonzero(rows[:, s] == UNKNOWN)
                    y = self.group.key_step(keys[u], s)
                    pos = np.searchsorted(ordered, y).clip(max=ordered.size - 1)
                    rows[u, s] = np.where(ordered[pos] == y, last.start + order[pos], OUTSIDE)
            else:
                index = {self.vertices[u]: u for u in last}
                flat = memoryview(self.cells.T).cast("B").cast("q")
                _multiply_rows(
                    self.group, flat, last, self.vertices, index, self.inverse,
                    lambda y: OUTSIDE,
                )
            self.closed = True
        return self.cells

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
        Only r = radius needs the last sphere's rows, so only it closes the ball.
        """
        size = self.ball_size(r)
        sub = (self.cells if r < self.radius else self.adjacency)[:, :size]
        return np.where(sub < size, sub, OUTSIDE)

    def edges(self) -> list:
        """Each undirected edge of the ball once, as (u, v) pairs; read
        through adjacency, so the ball is closed.

        Ordered by symbol (the lower index of each inverse pair), then by u
        ascending: percolation draws one uniform per edge in this order.
        Self-loops are dropped.  Each inverse pair of symbols, and each
        involution, adds its own edges, so parallel edges stay distinct.
        """
        adj = self.adjacency
        u = np.arange(self.size)
        out = []
        for s, col in enumerate(adj):
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
        table = _neighbor_table(self.adjacency).tolist()
        return [tuple(v for v in row if v >= 0) for row in table]

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


def _multiply_rows(g, cells, rows, vertices, index, inverse, place) -> None:
    """The pass loop of bfs_ball: multiply out the UNKNOWN cells in the rows
    of the vertices ``rows``, where cells[u * k + s] is u * s.

    A product found in ``index`` fills its cell and the inverse cell of its
    target, so that edge is never multiplied from the other end; any other
    product y gets ``place(y)``: the index of a new vertex, or OUTSIDE.
    """
    k = g.k
    gens = g.generators()
    for u in rows:
        x = vertices[u]
        row = u * k
        for s in range(k):
            if cells[row + s] != UNKNOWN:
                continue  # filled from the inverse edge v * s^-1 = u
            y = g.mul(x, gens[s])
            j = index.get(y)
            if j is None:
                j = place(y)
                if j == OUTSIDE:
                    cells[row + s] = OUTSIDE
                    continue
            cells[row + s] = j
            cells[j * k + inverse[s]] = u


def _object_spheres(g, n, inverse):
    """The object loop of bfs_ball: element values in a dict, one group
    product per edge inside the ball.  Returns (cells, offsets, vertices)."""
    k = g.k
    e = g.identity()
    vertices = [e]
    index = {e: 0}
    offsets = [0, 1]
    unknown_row = array("q", [UNKNOWN]) * k
    cells = array("q", unknown_row)  # row-major: cells[u * k + s] = u * s
    budget = DEFAULT_VERTEX_BUDGET

    def place(y):
        if len(vertices) >= budget:
            raise BallBudgetError(len(offsets) - 2, budget)
        j = index[y] = len(vertices)
        vertices.append(y)
        cells.extend(unknown_row)
        return j

    for _ in range(n):
        sphere = range(offsets[-2], offsets[-1])
        _multiply_rows(g, cells, sphere, vertices, index, inverse, place)
        offsets.append(len(vertices))
    return cells, offsets, vertices


def _keyed_spheres(g, n, inverse):
    """The keyed loop of bfs_ball: a sphere at a time in numpy over int64
    element keys.  Returns (cells, offsets, keys).

    Pass r multiplies sphere r by every symbol into an (m, k) array of keys
    in (u, s) order, and looks the products up among the keys of spheres
    r - 1 and r.  The products found in neither are sphere r + 1, numbered
    by first occurrence: the order in which the object loop places them, so
    cells, offsets and numbering are the object loop's.  The last sphere's
    rows get only their cells back to sphere n - 1, each read off the row of
    sphere n - 1 that leads to it (u * s = v is v * s^-1 = u).
    """
    k = g.k
    spheres = [np.zeros(1, np.int64)]  # key 0 is the identity
    offsets = [0, 1]
    cells = array("q")
    for r in range(n):
        lo, hi = offsets[max(r - 1, 0)], offsets[-1]
        # [keys of the vertices lo .. hi - 1; products of sphere r]
        known = hi - lo
        both = np.empty(known + spheres[-1].size * k, np.int64)
        np.concatenate(spheres[-2:], out=both[:known])
        prods = both[known:].reshape(-1, k)
        for s in range(k):
            prods[:, s] = g.key_step(spheres[-1], s)
        # one stable sort: a run of equal keys starts at its known vertex, or
        # else at the product's first occurrence
        order = np.argsort(both, kind="stable")
        ranked = both[order]
        head = np.empty(both.size, bool)
        head[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
        del ranked
        first = order[head]
        new = first >= known
        fresh = first[new]
        if hi + fresh.size > DEFAULT_VERTEX_BUDGET:
            raise BallBudgetError(r, DEFAULT_VERTEX_BUDGET)
        by_first = np.argsort(fresh)
        spheres.append(both[fresh[by_first]])
        del both  # each temporary is freed as it dies, which bounds the peak
        run_ids = lo + first
        run_ids[np.flatnonzero(new)[by_first]] = np.arange(hi, hi + fresh.size)
        del first, new, fresh, by_first
        run = np.cumsum(head)
        del head
        run -= 1
        # in place, unbuffered under mode="clip": element i reads run[i] before writing it
        np.take(run_ids, run, out=run, mode="clip")
        del run_ids
        ids = np.empty(order.size, np.int64)
        ids[order] = run
        del order, run
        rows = ids[known:].reshape(-1, k)
        cells.frombytes(memoryview(rows).cast("B"))
        offsets.append(hi + spheres[-1].size)
    last = np.full((spheres[-1].size, k), UNKNOWN, np.int64)
    if n:
        u, s = np.nonzero(rows >= offsets[n])
        last[rows[u, s] - offsets[n], np.array(inverse)[s]] = offsets[n - 1] + u
        del ids, rows, u, s
    cells.frombytes(memoryview(last).cast("B"))
    del last
    return cells, offsets, np.concatenate(spheres)


def _inverse_symbols(g: MarkedGroup) -> tuple:
    """inverse[s], the symbol whose image is the inverse of generator s: the
    first t with s t = e, trying t = s first, so that the map is a
    permutation even where two symbols name one involution (cycle(2)'s s and
    S).  At most k^2 generator products.  ValueError unless the marking is
    symmetric with paired inverse symbols."""
    k = g.k
    e = g.identity()
    gens = g.generators()
    inverse = []
    for s in range(k):
        for t in (s, *range(s), *range(s + 1, k)):
            if g.mul(gens[s], gens[t]) == e:
                inverse.append(t)
                break
        else:
            raise ValueError(f"generating set of {g.label} is not symmetric")
    if any(inverse[t] != s for s, t in enumerate(inverse)):
        raise ValueError(f"inverse symbols of {g.label} are not paired")
    return tuple(inverse)


def bfs_ball(g: MarkedGroup, n: int) -> CayleyBall:
    """Radius-n ball, left open: every row of B_{n-1} is complete.

    A group with int64 element keys (``key_step``) is built a sphere at a
    time in numpy, and its ball decodes ``vertices`` only when they are
    read; any other group by the object loop, with one group product per
    edge inside the ball: when u * s lands on a ball vertex v, v's cell for
    the inverse symbol is filled with u, and a filled cell is never
    multiplied out again.  Both give the same ball.  The marking must be
    symmetric, with an inverse symbol map that is its own inverse
    (ValueError otherwise).  Pass r fills the rows of sphere r - 1 and finds
    sphere r; the last sphere's rows then hold only the edges back to
    sphere n - 1, and reading ``adjacency`` closes them.  Refuses a radius
    past ``g.faithful_radius``: that ball would describe the truncation, not
    the group it stands in for.  Raises BallBudgetError past
    DEFAULT_VERTEX_BUDGET vertices.
    """
    if n < 0:
        raise SettingError("radius must be >= 0")
    if g.faithful_radius is not None and n > g.faithful_radius:
        raise ValueError(
            f"radius {n} exceeds the query radius {g.faithful_radius} "
            f"to which {g.label} is faithful"
        )
    k = g.k
    inverse = _inverse_symbols(g)
    if g.key_step is not None:
        cells, offsets, keys = _keyed_spheres(g, n, inverse)
        vertices = None
    else:
        cells, offsets, vertices = _object_spheres(g, n, inverse)
        keys = None
    # numpy reads the buffer from here on, so it must never be resized again
    return CayleyBall(
        radius=n,
        dist=np.repeat(np.arange(n + 1, dtype=np.int64), np.diff(offsets)),
        cells=np.frombuffer(cells, dtype=np.int64).reshape(-1, k).T,
        inverse=inverse,
        layer_offsets=offsets,
        group=g,
        keys=keys,
        _vertices=vertices,
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

    Only the counts a caller can read are computed; each c_t is zero past
    the BFS prefix that step t fills.  If n_max <= radius, every c_t is the
    group's count at every vertex: a walk of length t lies in B_t, so step
    t fills B_t.  If n_max > radius, only the returns c_t[0] are the group's
    counts, for t <= min(n_max, 2 * radius): a walk at time t that is back
    at the identity by n_max lies in B_{n_max - t}, so step t fills
    B_{min(t, n_max - t, radius)}.  The dynamic program reads the ball's
    cells and never closes it: a walk of length t <= radius enters the last
    sphere only on its last step, and a closed walk of length <= 2 * radius
    reaches it only at its midpoint, from where it must step straight back
    to sphere radius - 1.  The cells still UNKNOWN lead within the last
    sphere or out of the ball, so neither kind of walk reads them, and the
    counts are the same whether or not the ball was closed.

    Counts start as int64 and become Python ints in an object array before
    the first step t -> t+1 with max(c_t) * k >= 2^63: a new count sums k old
    ones, so below that bound int64 is exact.  Each step is a fresh array.
    """
    V, k, radius, offsets = ball.size, ball.group.k, ball.radius, ball.layer_offsets
    returns_only = n_max > radius
    top = offsets[(min(n_max // 2, radius) if returns_only else n_max) + 1]
    # predecessors of v through s are v * s^{-1}; OUTSIDE and UNKNOWN read
    # the zero cell V
    cells = ball.cells[:, :top]
    preds = np.where(cells >= 0, cells, V)[list(ball.inverse)]
    cur = np.zeros(V + 1, dtype=np.int64)
    cur[0] = 1
    yield cur[:V]
    for t in range(1, n_max + 1):
        # k^t bounds every new count, so the max is read only past 2^63
        if cur.dtype != object and k**t >= 2**63 and int(cur.max()) * k >= 2**63:
            cur = cur.astype(object)
        size = offsets[(min(t, n_max - t, radius) if returns_only else t) + 1]
        new = np.zeros(V + 1, dtype=cur.dtype)
        prefix = new[:size]
        for idx in preds[:, :size]:
            prefix += cur[idx]
        cur = new
        yield cur[:V]


def cogrowth(g: MarkedGroup, n_max: int, ball: CayleyBall | None = None) -> CountSeries:
    """Exact counts of length-n words over the symbols equal to identity.

    Backtracking allowed; a returning walk of length n stays within
    radius n/2, so the dynamic program runs on bfs_ball(g, n_max/2).
    """
    if n_max < 0 or n_max % 2 != 0:
        raise SettingError("n_max must be an even nonnegative integer")
    ball = ensure_ball(g, n_max // 2, ball)
    values = [int(c[0]) for c in walk_counts(ball, n_max)]
    return CountSeries("cogrowth", values)


def growth(g: MarkedGroup, n_max: int, ball: CayleyBall | None = None) -> CountSeries:
    """Exact ball sizes b(0..n_max)."""
    ball = ensure_ball(g, n_max, ball)
    return CountSeries("growth", [ball.ball_size(r) for r in range(n_max + 1)])


_SAW_CHUNK = 1024  # walks extended together: bounds the frontier's memory


def _neighbor_table(cells: np.ndarray) -> np.ndarray:
    """(V, k) distinct neighbours of each vertex read off (k, V) cells, each
    row sorted: a repeated neighbour (parallel edges) and the vertex itself
    (a self-loop) read -1, and OUTSIDE and UNKNOWN are negative too, so an
    entry is a neighbour exactly when it is >= 0."""
    nb = np.sort(cells.T, axis=1)
    nb[:, 1:][nb[:, 1:] == nb[:, :-1]] = -1
    nb[nb == np.arange(nb.shape[0])[:, None]] = -1
    return nb


def _saw_children(nb, paths, counts, n_max):
    """Count the one-step self-avoiding extensions of the walks ``paths``, an
    (m, d) array of vertex ids, into counts[d]; at d = n_max - 1, count theirs
    into counts[n_max] by an (m, k, k) gather of the table rows at their ends
    (a row never holds its own vertex), and below it, yield the extensions
    in chunks of _SAW_CHUNK rows."""
    cand = nb[paths[:, -1]]
    ok = cand >= 0
    for col in paths.T:
        ok &= cand != col[:, None]
    d = paths.shape[1]
    counts[d] += int(np.count_nonzero(ok))
    if d == n_max - 1:
        grand = nb[cand]
        ok = ok[:, :, None] & (grand >= 0)
        for col in paths.T:
            ok &= grand != col[:, None, None]
        counts[n_max] += int(np.count_nonzero(ok))
    elif d < n_max:
        rows, cols = np.nonzero(ok)
        for i in range(0, rows.size, _SAW_CHUNK):
            r, c = rows[i:i + _SAW_CHUNK], cols[i:i + _SAW_CHUNK]
            yield np.column_stack((paths[r], cand[r, c]))


def saw_count(g: MarkedGroup, n_max: int) -> CountSeries:
    """Exact self-avoiding walk counts v(0..n_max) from the identity.

    Walks are counted as vertex paths: parallel generator edges to the
    same neighbor contribute one walk (so v(1) is the number of distinct
    nontrivial generator images).  A frontier search on the open
    bfs_ball(g, n_max), which it never closes: a walk of length < n_max ends
    in B_{n_max-1}, whose rows are complete.  Each chunk of walks of one
    length is extended by one step at once and its extensions are searched
    depth-first, chunk by chunk, so memory stays bounded; the walks of
    length n_max - 1 and n_max are counted, never built.
    """
    if n_max < 0:
        raise SettingError("n_max must be >= 0")
    nb = _neighbor_table(bfs_ball(g, n_max).cells)
    counts = [1] + [0] * n_max
    todo = [_saw_children(nb, np.zeros((1, 1), np.int64), counts, n_max)] if n_max else []
    while todo:
        for paths in todo[-1]:
            todo.append(_saw_children(nb, paths, counts, n_max))
            break
        else:  # level exhausted: backtrack
            todo.pop()
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


def cheeger_settings(candidates: str, n_max: int) -> None:
    """cheeger_upper's refusals that hold whatever the group (SettingError)."""
    if candidates not in STRATEGIES:
        raise SettingError(f"unknown strategy {candidates!r}")
    if n_max < 0:
        raise SettingError("n_max must be >= 0")
    if candidates == "boxes" and n_max < 1:
        raise SettingError("boxes strategy needs n_max >= 1")  # the smallest box has side 1


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
    cheeger_settings(candidates, n_max)
    return running_bound(STRATEGIES[candidates](g, n_max), "upper")
