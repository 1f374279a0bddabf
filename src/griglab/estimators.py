"""Monotone-parameter estimators with certified bounds where exactness allows.

Every public estimator returns an EstimateReport carrying the point
estimate, any one-sided certified bound (exact arithmetic up to final
float rounding), confidence data for the Monte Carlo ones, and the full
series/curve so callers can render CSV without recomputation.
"""

import heapq
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, repeat
from operator import add, mul

import numpy as np

from .cayley import (
    CayleyBall,
    _forked_map,
    bfs_ball,
    cheeger_settings,
    cheeger_upper,
    cogrowth,
    ensure_ball,
    growth,
    running_bound,
    saw_count,
    walk_counts,
)
from .marked import FreeGroup, GammaFree, MarkedGroup

SCHEMA = "griglab/estimate/1"


@dataclass
class EstimateReport:
    parameter: str
    group: str
    estimate: float | None
    certified: dict | None = None  # {"value": float, "direction": "lower"|"upper"}
    ci: tuple | None = None  # (lo, hi), 95%
    parameters: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        # the fields in order, not copied (asdict would deep-copy every
        # series cell); wall time goes to stderr, not the report
        return {"schema": SCHEMA, **vars(self), "runtime_seconds": None}


# ---------------------------------------------------------------- radial chains

# Groups whose walk law is uniform on each class (distance d >= 1, type),
# each mapping k to (root, moves): root[i] counts the identity's neighbours
# of type i, and moves[i] lists the neighbours of a point of type i as
# (distance step, type, multiplicity).  Every point past the identity has
# exactly one neighbour nearer to it.
_RADIAL_CHAINS = {
    # the k-regular tree: one type, one step in and k - 1 out
    FreeGroup: lambda k: ((k,), (((-1, 0, 1), (1, 0, k - 1)),)),
    # a tree of K4 blocks {x, xb, xc, xd} joined by a-edges: type 0 ends
    # in a, type 1 in b, c or d, whose other two letters stay in its block
    GammaFree: lambda k: ((1, 3), (((-1, 1, 1), (1, 1, 3)), ((-1, 0, 1), (1, 0, 1), (0, 1, 2)))),
}


def _radial_chain(g: MarkedGroup):
    """g's row of the radial-chain table as (root, moves), or None."""
    chain = _RADIAL_CHAINS.get(type(g))
    return chain(g.k) if chain else None


def radial_point_counts(g: MarkedGroup, n_max: int):
    """Yield, for t = 0..n_max, one list per type of g's radial chain:
    rows[i][d] is the exact number of length-t generator words whose
    product is a given point of type i at distance d >= 1, and rows[i][0]
    the number returning to the identity.  One row is kept alive:
    c_{t+1}(i, d) = sum of m * c_t(j, d + step) over the moves of type i,
    a step to distance 0 reading c_t(0), and c_{t+1}(0) sums the root's
    multiplicities times c_t(j, 1)."""
    root, moves = _radial_chain(g)
    rows = [[1] for _ in root]
    yield rows
    for t in range(n_max):
        padded = [row + [0, 0] for row in rows]  # c_t(j, d) for d = 0..t + 2
        identity = sum(m * row[1] for m, row in zip(root, padded))
        new = []
        for type_moves in moves:
            acc = None
            for step, j, m in type_moves:
                part = padded[j][1 + step : t + 2 + step]  # c_t(j, d + step), d = 1..t + 1
                if m != 1:
                    part = map(mul, part, repeat(m))
                acc = part if acc is None else map(add, acc, part)
            new.append([identity, *acc])
        rows = new
        yield rows


def tree_return_counts(rank: int, n_max: int) -> list:
    """Exact closed-walk counts on the 2*rank-regular tree (independent
    of the ball construction; cross-check oracle for the cogrowth DP)."""
    return [rows[0][0] for rows in radial_point_counts(FreeGroup(rank), n_max)]


# ------------------------------------------------------------- walk distribution

@dataclass
class WalkDistribution:
    """Exact law of the simple random walk at time n, by classes of points
    it reaches equally often: counts[i] length-n symbol words end at each
    point of class i (a distance and type of a radial chain, or one vertex
    of the radius-n ball when sizes is None), at distance distances[i]; the
    class has sizes[i] points.  The total is k^n, so the mean distance is an
    exact Fraction.  A ball law's counts and distances may be the numpy
    arrays of walk_counts and ball.dist; its sums then read only the
    vertices the walk reaches.
    """

    group: MarkedGroup
    n: int
    counts: list
    distances: list
    sizes: list | None = None

    @property
    def total(self) -> int:
        return self.group.k ** self.n

    def _ball_counts(self) -> np.ndarray:
        # a list of counts past int64 must not become float64
        return np.asarray(self.counts, getattr(self.counts, "dtype", object))

    def mean_distance(self) -> Fraction:
        if self.sizes is None:  # Python ints: sum c * d can pass 2^63
            c = self._ball_counts()
            hit = np.flatnonzero(c)
            terms = map(mul, c[hit].tolist(), np.asarray(self.distances)[hit].tolist())
        else:
            terms = map(mul, map(mul, self.sizes, self.counts), self.distances)
        return Fraction(sum(terms), self.total)

    def entropy(self) -> float:
        """H = n log k - (1/k^n) sum size * c log c, compensated summation.
        Past k^n = 2^1010 the same low bits leave each weight size * c and
        k^n, so both fit a float; a ball (k^n <= e^700) keeps every bit and
        selects its counts c > 1 in numpy, then sums the same Python terms."""
        log, total = math.log, self.total
        shift = max(0, total.bit_length() - 1010)
        if self.sizes is None:
            c = self._ball_counts()
            cs = c[c > 1].tolist()
            acc = math.fsum(map(mul, cs, map(log, cs)))
        else:
            pairs = zip(self.sizes, self.counts)
            acc = math.fsum((s * c >> shift) * log(c) for s, c in pairs if c > 1)
        return self.n * log(self.group.k) - acc / float(total >> shift)


def _classes(rows: list, t: int) -> list:
    """Flatten per-type rows to the identity, then each type at d = 1..t."""
    return list(chain(rows[0][: t + 1], *(row[1 : t + 1] for row in rows[1:])))


def _walk_laws(g: MarkedGroup, n: int, ball: CayleyBall | None, method: str):
    """Yield the exact walk laws at t = 0..n.  "radial": the identity and
    one class per (distance, type) of g's radial chain, on which the law is
    uniform, counted by radial_point_counts; "ball": one class per vertex
    of one ball of radius >= n, whose float range is checked before it is
    built."""
    if method == "radial":
        root, moves = _radial_chain(g)
        # sizes[i][d]: points of type i at distance d, each reached by one step out
        sizes = [[1, m] for m in root]
        for d in range(1, n):
            for i, row in enumerate(sizes):
                row.append(sum(sizes[j][d] * m for j, type_moves in enumerate(moves)
                               for step, to, m in type_moves if (step, to) == (1, i)))
        dist = [range(n + 1)] * len(root)
        for t, rows in enumerate(radial_point_counts(g, n)):
            yield WalkDistribution(
                g, t, _classes(rows, t), _classes(dist, t), _classes(sizes, t)
            )
        return
    if n * math.log(g.k) > 700:
        hint = "; use method radial" if _radial_chain(g) else ""
        raise ValueError(f"k^n = {g.k}^{n} exceeds e^700, the float range of the ball method{hint}")
    ball = ensure_ball(g, n, ball)
    for t, counts in enumerate(walk_counts(ball, n)):
        yield WalkDistribution(g, t, counts, ball.dist)


def walk_distribution(g: MarkedGroup, n: int) -> WalkDistribution:
    if n < 0:
        raise ValueError("n must be >= 0")
    for law in _walk_laws(g, n, None, "ball"):
        pass  # keep the last step
    return replace(law, counts=law.counts.tolist(), distances=law.distances.tolist())


def _walk_method(g: MarkedGroup, method: str, parameter: str, ball: CayleyBall | None) -> str:
    """Resolve a walk method: an explicit one wins; "auto" counts on a
    passed ball, else takes "radial" where g has a radial chain and "ball"
    elsewhere.  "radial" needs a chain, and either method refuses a ball
    of another group."""
    if ball is not None:
        ensure_ball(g, 0, ball)  # only refuses a ball of another group
    if method == "auto":
        return "radial" if ball is None and _radial_chain(g) else "ball"
    if method not in ("radial", "ball"):
        raise ValueError(f"unknown {parameter} method: {method}")
    if method == "radial" and not _radial_chain(g):
        raise ValueError(f"radial {parameter} needs a group with a radial chain")
    return method


# --------------------------------------------------------------- spectral radius

def _root(c: int, n: int) -> float:
    """c^(1/n), through the logarithm for a count past the float range."""
    try:
        return c ** (1.0 / n)
    except OverflowError:
        return math.exp(math.log(c) / n)


def _rho_settings(n_max):
    if n_max < 4 or n_max % 2 != 0:
        raise ValueError("n_max must be an even integer >= 4")


def spectral_radius(
    g: MarkedGroup, n_max: int = 12, ball: CayleyBall | None = None
) -> EstimateReport:
    """Random walk spectral radius from exact return counts.

    c(n)^(1/n)/k is a lower bound for every even n (running max is the
    certified value); the point estimate removes the polynomial factor
    n^(-3/2) in c(2n) ~ A n^(-3/2) (k rho)^(2n) using the last two even
    terms, clamped into [certified value, 1] (the correction overshoots at
    small n, on amenable groups and on finite truncations).
    The counts are the identity column of radial_point_counts where g
    has a radial chain and no ball is passed, else the cogrowth DP on the
    ball (passed, or of radius n_max/2); both give the same integers.
    """
    _rho_settings(n_max)
    if _walk_method(g, "auto", "rho", ball) == "radial":
        values = [rows[0][0] for rows in radial_point_counts(g, n_max)]
    else:
        values = cogrowth(g, n_max, ball=ball).values
    k = g.k
    evens = list(range(2, n_max + 1, 2))
    roots = [_root(values[n], n) / k for n in evens]
    certified_seq = running_bound(roots, "lower")
    best = certified_seq[-1]
    notes = ["certified lower bounds use exact integer return counts"]
    # every even count is >= 1: the marking is symmetric, so (s s^-1)^(n/2) returns
    m = n_max // 2
    delta = math.log(values[n_max]) - math.log(values[n_max - 2])
    log_krho = (delta + 1.5 * math.log(m / (m - 1))) / 2.0
    raw = math.exp(log_krho) / k
    estimate = min(max(raw, best), 1.0)
    if estimate != raw:
        notes.append(f"extrapolated {raw:.6g} clamped into [certified lower bound, 1]")
    return EstimateReport(
        parameter="rho",
        group=g.label,
        estimate=estimate,
        certified={"value": best, "direction": "lower"},
        parameters={"n_max": n_max, "k": k},
        series={
            "n": evens,
            "return_count": [values[n] for n in evens],
            "certified_lower": certified_seq,
        },
        notes=notes,
    )


# ---------------------------------------------------------------------- entropy

def _entropy_settings(n_max):
    if n_max < 1:
        raise ValueError("n_max must be >= 1")


def entropy(
    g: MarkedGroup,
    n_max: int = 16,
    method: str = "auto",
    ball: CayleyBall | None = None,
) -> EstimateReport:
    """Asymptotic entropy h = lim H(walk at n)/n.

    Exact H(n) for each n; by subadditivity every H(n)/n is an upper
    bound for h, so the certified value is the running minimum.
    method: "ball" (any group, needs the full radius-n ball) or
    "radial" (free groups and gamma_free(): the radial chain, no ball);
    "auto" counts on a passed ball, else takes radial where it can.
    """
    _entropy_settings(n_max)
    method = _walk_method(g, method, "entropy", ball)
    hs = [law.entropy() for law in _walk_laws(g, n_max, ball, method)][1:]
    rates = [h / t for t, h in zip(range(1, n_max + 1), hs)]
    certified_seq = running_bound(rates, "upper")
    return EstimateReport(
        parameter="entropy",
        group=g.label,
        estimate=rates[-1],
        certified={"value": certified_seq[-1], "direction": "upper"},
        parameters={"n_max": n_max, "method": method, "k": g.k},
        series={
            "n": list(range(1, n_max + 1)),
            "H": hs,
            "rate": rates,
            "certified_upper": certified_seq,
        },
        notes=["H(n)/n upper-bounds the limit by subadditivity"],
    )


# ------------------------------------------------------------------------ speed

_LAW_SOURCES = {"radial": "the distance recursion", "ball": "the walk distributions on the ball"}


def _speed_settings(n):
    if n < 1:
        raise ValueError("n must be >= 1")


def speed(g: MarkedGroup, n: int = 16) -> EstimateReport:
    """Mean displacement rate E|walk at t| / t for t = 1..n, exact.

    The means are those of the walk laws, by the auto rule of
    spectral_radius: "radial" (free groups and gamma_free(): the distance
    recursion, no ball) where g has a radial chain, else "ball" (the walk
    distributions on the radius-n ball).  The estimate is the rate at t = n.
    """
    _speed_settings(n)
    method = _walk_method(g, "auto", "speed", None)
    means = [float(law.mean_distance()) for law in _walk_laws(g, n, None, method)][1:]
    rates = [m / t for t, m in zip(range(1, n + 1), means)]
    return EstimateReport(
        parameter="speed",
        group=g.label,
        estimate=rates[-1],
        parameters={"n": n, "method": method},
        series={"n": list(range(1, n + 1)), "mean_distance": means, "rate": rates},
        notes=[f"exact finite-time means from {_LAW_SOURCES[method]}"],
    )


# ------------------------------------------------------------------- percolation

def _invasion_pstar(links, sphere_start, u) -> float:
    """Minimax edge weight of a path from vertex 0 to the sphere.

    links[v] lists (uniform index, neighbour) pairs, u holds the weights,
    and the vertices >= sphere_start are the sphere.  Invasion at a water
    level: worst is the largest weight opened so far.  A frontier link of
    weight <= worst cannot raise it, so its end joins the cluster at once
    through a plain stack; only links above worst enter the heap.  When the
    stack runs dry, the cluster is the root's component below worst, it
    holds no sphere vertex, and every link leaving it is in the heap, so
    every path to the sphere crosses a link at or above the least unseen
    heap key.  Raising worst to that key and flooding again keeps worst a
    lower bound on the minimax value; the cluster joins the root to each of
    its vertices by links <= worst, so worst is the minimax value once a
    sphere vertex is reached.  A vertex returns as it leaves the stack,
    before its links are read, so no vertex past the sphere is reached.
    The sphere is nonempty and the ball connected, so the heap never runs
    dry first.
    """
    seen = bytearray(len(links))
    seen[0] = 1
    worst = 0.0
    stack = [0]
    push, pop = stack.append, stack.pop
    heap = []
    while True:
        while stack:
            v = pop()
            if v >= sphere_start:
                return worst
            for i, w in links[v]:
                if not seen[w]:
                    x = u[i]
                    if x <= worst:
                        seen[w] = 1
                        push(w)
                    else:
                        heapq.heappush(heap, (x, w))
        # keys are pushed above worst, so they leave in nondecreasing order
        worst, v = heapq.heappop(heap)
        while seen[v]:
            worst, v = heapq.heappop(heap)
        seen[v] = 1
        push(v)


def _site_pstar(nbrs, sphere_start, u) -> float:
    """_invasion_pstar over sites, root included: v weighs u[v] whichever
    neighbour reaches it, so it is seen when first reached and enters the
    stack or the heap once."""
    seen = bytearray(len(nbrs))
    seen[0] = 1
    worst = u[0]
    stack = [0]
    push, pop = stack.append, stack.pop
    heap = []
    while True:
        while stack:
            v = pop()
            if v >= sphere_start:
                return worst
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = 1
                    x = u[w]
                    if x <= worst:
                        push(w)
                    else:
                        heapq.heappush(heap, (x, w))
        worst, v = heapq.heappop(heap)
        push(v)


def _rekeyed(gen, seed: int, t: int):
    """gen, a Philox Generator, reset to where Philox(key=[seed, t]) starts;
    building a Philox draws a SeedSequence from OS entropy, about 20 us."""
    gen.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [seed, t]},
        "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen


def _percolation_settings(mode, radius, trials, seed):
    if mode not in ("site", "bond"):
        raise ValueError("mode must be 'site' or 'bond'")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= seed < 2**63:
        raise ValueError("seed must be in [0, 2^63)")


def percolation_pstars(
    g: MarkedGroup, mode: str, radius: int, trials: int, seed: int = 0
) -> np.ndarray:
    """Per-trial bottleneck values: trial t connects root to the radius-R
    sphere at occupation p exactly when pstars[t] < p.  Each p* is the
    minimax path weight from the root to the sphere (over edges in bond
    mode, over sites, root included, in site mode), found by water-level
    invasion from the root (_invasion_pstar, _site_pstar).  Trial t draws
    one uniform per edge of bfs_ball(g, R).edges() (bond) or per vertex of
    that ball (site) from a Philox stream keyed by (seed, t), so it does not
    depend on the trial count; the trials re-key one Philox (_rekeyed).
    The key takes a seed in [0, 2^63).

    The trials run in contiguous slices, one per CPU this process may run
    on, in forked children (_forked_map); they run in this process alone
    where there is no fork, another thread is alive, one CPU is available,
    or trials * (uniforms per trial) is below the fork floor.  Each trial
    keeps its (seed, t) stream, so the array is the same byte for byte
    however the trials are split.
    """
    _percolation_settings(mode, radius, trials, seed)
    ball = bfs_ball(g, radius)
    if not ball.sphere_indices(radius):
        return np.array([])  # ball closed before R: no sphere to reach
    if mode == "bond":
        edges = ball.edges()
        links = [[] for _ in range(ball.size)]
        for e, (a, b) in enumerate(edges):
            links[a].append((e, b))
            links[b].append((e, a))
        n, invade = len(edges), _invasion_pstar
    else:
        links = ball.neighbors()
        n, invade = len(links), _site_pstar
    sphere_start = ball.layer_offsets[radius]
    gen = np.random.Generator(np.random.Philox(0))  # numpy.random loads lazily

    def run(ts):
        # a memoryview makes a float only for each uniform the invasion reads
        return np.array([
            invade(links, sphere_start, memoryview(_rekeyed(gen, seed, t).random(n)))
            for t in ts
        ])

    return np.concatenate(_forked_map(run, range(trials), trials * n))


def _wilson_ci(hits: int, n: int) -> tuple:
    z = 1.96  # the normal quantile of a 95% two-sided interval
    phat = hits / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


_BOOTSTRAP = 200  # resamples for the p_c confidence interval


def _median(part):
    """np.median along the last axis of an array whose middle positions hold
    their sorted values: the middle one, or the mean of the middle two."""
    m = part.shape[-1] // 2
    return part[..., m] if part.shape[-1] % 2 else (part[..., m - 1] + part[..., m]) / 2


def _quantile(s, q: float) -> float:
    """np.quantile(s, q) of an ascending array s: numpy's linear lerp."""
    h = (s.size - 1) * q
    lo = math.floor(h)
    a, b = s[lo], s[min(lo + 1, s.size - 1)]
    t, d = h - lo, b - a
    return float(b - d * (1 - t) if t >= 0.5 else a + d * t)


def percolation(
    g: MarkedGroup, mode: str, radius: int = 32, trials: int = 500, seed: int = 0
) -> EstimateReport:
    """Critical density estimate on the radius-R ball with an absorbing
    sphere: the crossing event is 'root cluster touches the sphere'.

    theta_hat(p) = fraction of trials with bottleneck below p is exactly
    nondecreasing in p by construction.  p_c estimate is the median
    bottleneck (the 0.5 crossing); CI by bootstrap over trials keyed by
    (seed, 2^32).  Median, quartiles and CI are read off the sorted p*:
    np.median and np.quantile bit for bit, without importing numpy.ma.
    """
    pstars = percolation_pstars(g, mode, radius, trials, seed)
    param = {"mode": mode, "radius": radius, "trials": trials, "seed": seed}
    if pstars.size == 0:
        return EstimateReport(
            parameter=f"pc-{mode}",
            group=g.label,
            estimate=None,
            parameters=param,
            series={"curve": []},
            notes=["ball closed before the requested radius: finite group, no threshold"],
        )
    sorted_p = np.sort(pstars)
    curve = []
    for p in (round(0.02 * i, 2) for i in range(51)):
        hits = int(np.searchsorted(sorted_p, p, side="left"))
        lo, hi = _wilson_ci(hits, trials)
        curve.append((float(p), hits / trials, lo, hi))
    est = float(_median(sorted_p))
    brng = np.random.Generator(np.random.Philox(key=[seed, 1 << 32]))
    resamples = pstars[brng.integers(0, trials, size=(_BOOTSTRAP, trials))]
    resamples.partition([(trials - 1) // 2, trials // 2], axis=1)
    medians = np.sort(_median(resamples))
    ci = (_quantile(medians, 0.025), _quantile(medians, 0.975))
    return EstimateReport(
        parameter=f"pc-{mode}",
        group=g.label,
        estimate=est,
        ci=ci,
        parameters=param,
        series={
            "curve": curve,
            "p_star_quartiles": [_quantile(sorted_p, q) for q in (0.25, 0.5, 0.75)],
        },
        notes=[
            "finite-radius proxy: crossing to the sphere of the stated radius",
            f"bootstrap over {_BOOTSTRAP} resamples",
        ],
    )


# --------------------------------------------------------- connective constant

def _mu_settings(n_max):
    if n_max < 2:
        raise ValueError("n_max must be >= 2")


def connective_constant(g: MarkedGroup, n_max: int = 10) -> EstimateReport:
    """Growth rate of self-avoiding walks.  v(n)^(1/n) upper-bounds the
    limit (submultiplicativity), running minimum is certified; the
    point estimate is the last ratio v(n)/v(n-1)."""
    _mu_settings(n_max)
    series = saw_count(g, n_max)
    v = series.values
    ns = list(range(1, n_max + 1))
    # a zero count bounds nothing: it reads as inf, and a sequence still
    # without a bound shows 0.0
    bounds = [v[n] ** (1.0 / n) if v[n] > 0 else math.inf for n in ns]
    certified_seq = [b if b < math.inf else 0.0 for b in running_bound(bounds, "upper")]
    notes = []
    if v[n_max] > 0:  # so is v[n_max - 1]: a prefix of a self-avoiding walk is one
        estimate = v[n_max] / v[n_max - 1]
        certified = {"value": certified_seq[-1], "direction": "upper"}
    else:
        estimate = None
        certified = None
        notes.append("self-avoiding walks die out: finite geometry")
    return EstimateReport(
        parameter="mu",
        group=g.label,
        estimate=estimate,
        certified=certified,
        parameters={"n_max": n_max},
        series={"n": ns, "saw": [v[n] for n in ns], "certified_upper": certified_seq},
        notes=notes,
    )


# --------------------------------------------------- wrappers for cayley series

def cheeger_report(g: MarkedGroup, candidates: str = "balls", n_max: int = 6) -> EstimateReport:
    vals = cheeger_upper(g, candidates=candidates, n_max=n_max)
    return EstimateReport(
        parameter="cheeger",
        group=g.label,
        estimate=float(vals[-1]),
        certified={"value": float(vals[-1]), "direction": "upper"},
        parameters={"candidates": candidates, "n_max": n_max},
        series={
            "step": list(range(1, len(vals) + 1)),
            "bound": [str(x) for x in vals],
            "bound_float": [float(x) for x in vals],
        },
        notes=["exact rational edge-boundary ratios; running minimum"],
    )


def _growth_settings(n_max):
    if n_max < 0:
        raise ValueError("radius must be >= 0")  # bfs_ball's refusal


def growth_report(g: MarkedGroup, n_max: int = 8) -> EstimateReport:
    _growth_settings(n_max)
    series = growth(g, n_max)
    v = series.values
    return EstimateReport(
        parameter="growth",
        group=g.label,
        estimate=math.log(v[-1]) / n_max if v[-1] > 1 else 0.0,
        parameters={"n_max": n_max},
        series={
            "n": list(range(n_max + 1)),
            "ball_size": v,
            "log_rate": [None] + [math.log(v[n]) / n for n in range(1, n_max + 1)],
        },
        notes=["exact ball sizes; estimate is log b(n)/n at the last n"],
    )


# each estimator's refusals of settings that no group accepts (ValueError),
# by name: the estimator runs them first, and sweep runs them once before any
# row, on the estimator's keyword settings
SETTING_CHECKS = {
    "spectral_radius": _rho_settings,
    "entropy": _entropy_settings,
    "speed": _speed_settings,
    "percolation": _percolation_settings,
    "connective_constant": _mu_settings,
    "cheeger_report": cheeger_settings,
    "growth_report": _growth_settings,
}
