"""The four benchmark workloads: inputs drawn from a seed, operations, checks.

A workload is a plan: the group expressions griglab parses during set-up,
and an ordered list of operations.  Each operation is timed on its own and
then checked; a check returns a list of problems, empty when the output is
right.  Checks use an independent oracle where one exists (tree return
counts, radial entropy, OEIS A001411, the known percolation thresholds)
and otherwise the exact integers in ``pinned.json``.  An operation whose
output is pinned names its key there and how to read the integers off its
result; ``pin.py`` runs the same plans to regenerate the file.

This module imports nothing from griglab at import time: the worker times
``import griglab`` as part of set-up, so plans are pure data plus closures
that receive the imported modules through the context.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

PINNED_PATH = Path(__file__).with_name("pinned.json")

# the six period-3 defining words; they differ by a relabelling of b, c, d
OMEGAS = ["(012)*", "(021)*", "(102)*", "(120)*", "(201)*", "(210)*"]
LEVELS = (1, 2, 3)
ALL_J = [c for k in range(4) for c in combinations(LEVELS, k)]
PROPER_J = [J for J in ALL_J if 0 < len(J) < 3]

# OEIS A001411: self-avoiding walks on the square lattice
A001411 = [1, 4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100, 120292,
           324932, 881500, 2374444]

PC_TARGET = {"bond": 0.50, "site": 0.593}
PC_TOLERANCE = 0.05

# Sizes are scaled so that an operation takes 0.01-0.8 s and a
# fresh-interpreter pass about 1-2 s on a 2-core machine, so that a 30 s run
# holds many passes to take medians over.  "tiny" is the smoke-test scale.
SIZES = {
    "full": {
        "tower-balls": {"radius": 5, "grig_level": 8, "grig_n": 12},
        "free-walks": {"radius": 9, "gamma_n": 32},
        "grid-lattice": {"R": 32, "trials": 400, "saw_n": 12},
        "family-witness": {"levels": (1, 2), "eta_k": 3, "contraction_m": 3},
    },
    "tiny": {
        "tower-balls": {"radius": 3, "grig_level": 4, "grig_n": 8},
        "free-walks": {"radius": 4, "gamma_n": 8},
        "grid-lattice": {"R": 24, "trials": 400, "saw_n": 6},
        "family-witness": {"levels": (1,), "eta_k": 1, "contraction_m": 2},
    },
}


@dataclass
class Op:
    """One timed operation and the check of its output."""

    name: str
    run: Callable  # (ctx) -> result
    check: Callable  # (ctx, result) -> list of problems
    pin: tuple | None = None  # (key in pinned.json, result -> {field: integers})


@dataclass
class Plan:
    inputs: dict
    expressions: list
    ops: list


def gj_expr(omega: str, J: tuple, radius: int) -> str:
    return f"gj({omega}, {{{','.join(map(str, J))}}}, {radius})"


def gj_key(omega: str, J: tuple, radius: int) -> str:
    return f"gj|{omega}|{','.join(map(str, J))}|r{radius}"


def grig_key(omega: str, level: int, n: int) -> str:
    return f"grig|{omega}|L{level}|n{n}"


def gamma_key(n: int) -> str:
    return f"gamma_free|n{n}"


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())["values"]


# ----------------------------------------------------------------- checks

def _nondecreasing(xs) -> bool:
    return all(a <= b for a, b in zip(xs, xs[1:]))


def _check_equal(what: str, got, want) -> list:
    if want is None:
        return [f"{what}: no pinned value"]
    return [] if list(got) == list(want) else [f"{what}: got {got}, want {want}"]


def _check_rho(ctx, rep, label: str, want_returns) -> list:
    """Exact return counts, and a certified sequence that is a valid lower
    bound.  The point estimate is recorded but never gated: it is known
    to exceed 1 on the tower groups."""
    ctx.estimates[f"rho {label}"] = rep.estimate
    seq = rep.series["certified_lower"]
    problems = _check_equal(f"return counts of {label}",
                            rep.series["return_count"], want_returns)
    if not _nondecreasing(seq):
        problems.append(f"certified rho of {label} decreases: {seq}")
    if seq and seq[-1] > 1.0:
        problems.append(f"certified rho of {label} exceeds 1: {seq[-1]}")
    return problems


def _cumulative(xs) -> list:
    out, acc = [], 0
    for x in xs:
        acc += x
        out.append(acc)
    return out


def _cli(ctx, argv: list):
    """Run the CLI in-process; returns (exit code, first JSON object)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = ctx.lab.cli.main(argv)
    text = out.getvalue()
    try:
        blob = json.JSONDecoder().raw_decode(text)[0]
    except ValueError:
        blob = None
    return rc, blob


def _cli_problems(label: str, rc, blob) -> list:
    if rc != 0:
        return [f"{label}: exit code {rc}"]
    if blob is None:
        return [f"{label}: no JSON report"]
    return []


# --------------------------------------------------------------- workloads

def tower_balls(seed: int, size: dict, pinned: dict) -> Plan:
    rng = random.Random(seed)
    omega = rng.choice(OMEGAS)
    return tower_plan(omega, rng.choice(PROPER_J), size, pinned)


def _layers(ball) -> dict:
    return {"layers": ball.layer_sizes()}


def _returns(rep) -> dict:
    return {"returns": rep.series["return_count"]}


def tower_plan(omega: str, J1: tuple, size: dict, pinned: dict) -> Plan:
    # J and its complement: every decorated level is used the same number
    # of times whatever the seed, so the amount of work does not depend on
    # the draw while the groups do
    J2 = tuple(i for i in LEVELS if i not in J1)
    members = [(), J1, J2, LEVELS]
    r = size["radius"]
    L, n = size["grig_level"], size["grig_n"]
    grig_expr = f"grig({omega}, {L})"
    exprs = [gj_expr(omega, J, r) for J in members] + [grig_expr]
    ops = []

    def ball_op(expr, radius, key):
        def run(ctx):
            ctx.ball = None  # a later operation must not see a stale ball
            ctx.ball = ctx.lab.cayley.bfs_ball(ctx.groups[expr], radius)
            return ctx.ball

        def check(ctx, ball):
            want = pinned.get(key, {}).get("layers")
            return _check_equal(f"layer sizes of {expr}", ball.layer_sizes(), want)

        return Op(f"bfs_ball {expr}", run, check, (key, _layers))

    def rho_op(expr, steps, key):
        def run(ctx):
            return ctx.lab.estimators.spectral_radius(
                ctx.groups[expr], steps, ball=ctx.ball
            )

        def check(ctx, rep):
            return _check_rho(ctx, rep, expr, pinned.get(key, {}).get("returns"))

        return Op(f"spectral_radius {expr}", run, check, (key, _returns))

    for J, expr in zip(members, exprs):
        key = gj_key(omega, J, r)
        ops.append(ball_op(expr, r, key))

        def growth_run(ctx, expr=expr):
            return ctx.lab.cayley.growth(ctx.groups[expr], r, ball=ctx.ball)

        def growth_check(ctx, series, expr=expr, key=key):
            layers = pinned.get(key, {}).get("layers")
            want = _cumulative(layers) if layers else None
            return _check_equal(f"growth of {expr}", series.values, want)

        ops.append(Op(f"growth {expr}", growth_run, growth_check))
        ops.append(rho_op(expr, 2 * r, key))

    key = grig_key(omega, L, n)
    ops.append(ball_op(grig_expr, n // 2, key))
    ops.append(rho_op(grig_expr, n, key))
    inputs = {"omega": omega, "J": [list(J) for J in members], "radius": r,
              "grig": [L, n]}
    return Plan(inputs, exprs, ops)


def free_walks(seed: int, size: dict, pinned: dict) -> Plan:
    # no randomness: the seed is only recorded
    r, m = size["radius"], size["gamma_n"]
    free_expr, gamma_expr = "free(2)", "gamma_free()"

    def ball_run(ctx):
        ctx.ball = ctx.lab.cayley.bfs_ball(ctx.groups[free_expr], r)
        return ctx.ball

    def ball_check(ctx, ball):
        want = [1] + [4 * 3 ** (d - 1) for d in range(1, r + 1)]
        return _check_equal("free(2) sphere sizes", ball.layer_sizes(), want)

    def rho_check(ctx, rep):
        tree = ctx.lab.estimators.tree_return_counts(2, 2 * r)
        return _check_rho(ctx, rep, free_expr, tree[2::2])

    def entropy_check(ctx, rep):
        ctx.estimates[f"entropy {free_expr}"] = rep.estimate
        radial = ctx.lab.estimators.entropy(ctx.groups[free_expr], r, method="radial")
        worst = max(abs(a - b) for a, b in zip(rep.series["H"], radial.series["H"]))
        if len(rep.series["H"]) != r or not worst <= 1e-9:
            return [f"ball entropy differs from radial by {worst}"]
        return []

    ops = [
        Op(f"bfs_ball {free_expr}", ball_run, ball_check),
        Op(f"spectral_radius {free_expr}",
           lambda ctx: ctx.lab.estimators.spectral_radius(
               ctx.groups[free_expr], 2 * r, ball=ctx.ball),
           rho_check),
        Op(f"entropy {free_expr} ball",
           lambda ctx: ctx.lab.estimators.entropy(
               ctx.groups[free_expr], r, method="ball", ball=ctx.ball),
           entropy_check),
        Op(f"spectral_radius {gamma_expr}",
           lambda ctx: ctx.lab.estimators.spectral_radius(ctx.groups[gamma_expr], m),
           lambda ctx, rep: _check_rho(
               ctx, rep, gamma_expr, pinned.get(gamma_key(m), {}).get("returns")),
           (gamma_key(m), _returns)),
    ]
    inputs = {"radius": r, "gamma_n": m}
    return Plan(inputs, [free_expr, gamma_expr], ops)


def grid_lattice(seed: int, size: dict, pinned: dict) -> Plan:
    R, trials, n = size["R"], size["trials"], size["saw_n"]
    expr = "grid(2)"
    ops = []
    for mode in ("bond", "site"):
        argv = ["estimate", expr, f"pc-{mode}", "--R", str(R), "--trials",
                str(trials), "--seed", str(seed), "--threads", "2", "--json", "-"]

        def check(ctx, out, mode=mode):
            rc, blob = out
            problems = _cli_problems(f"pc-{mode}", rc, blob)
            if problems:
                return problems
            est = blob["estimate"]
            ctx.estimates[f"pc-{mode} {expr}"] = est
            if est is None or abs(est - PC_TARGET[mode]) > PC_TOLERANCE:
                problems.append(f"pc-{mode} median {est} not within "
                                f"{PC_TOLERANCE} of {PC_TARGET[mode]}")
            theta = [row[1] for row in blob["series"]["curve"]]
            if not theta or not _nondecreasing(theta):
                problems.append(f"pc-{mode} crossing curve is not nondecreasing")
            return problems

        ops.append(Op(" ".join(argv[:3]), lambda ctx, argv=argv: _cli(ctx, argv), check))

    argv = ["estimate", expr, "mu", "--n", str(n), "--json", "-"]

    def saw_check(ctx, out):
        rc, blob = out
        problems = _cli_problems("mu", rc, blob)
        if problems:
            return problems
        ctx.estimates[f"mu {expr}"] = blob["estimate"]
        return _check_equal("grid SAW counts", blob["series"]["saw"], A001411[1:n + 1])

    ops.append(Op(" ".join(argv[:3]), lambda ctx: _cli(ctx, argv), saw_check))
    inputs = {"R": R, "trials": trials, "saw_n": n, "percolation_seed": seed}
    return Plan(inputs, [expr], ops)


def family_witness(seed: int, size: dict, pinned: dict) -> Plan:
    omega = random.Random(seed).choice(OMEGAS)
    levels = size["levels"]
    subsets = [J for k in range(len(levels) + 1) for J in combinations(levels, k)]
    sets = ["{" + ",".join(map(str, J)) + "}" for J in subsets]
    pairs = sum(1 for A in subsets for B in subsets if set(A) < set(B))
    k, m = size["eta_k"], size["contraction_m"]

    def verify_check(label):
        def check(ctx, out):
            rc, blob = out
            problems = _cli_problems(label, rc, blob)
            if problems:
                return problems
            bad = [c["name"] for c in blob["checks"] if not c["ok"]]
            if not blob["ok"] or bad or not blob["checks"]:
                problems.append(f"{label}: failing checks {bad}")
            return problems

        return check

    def sweep_check(ctx, out):
        rc, blob = out
        problems = _cli_problems("sweep eta-witness", rc, blob)
        if problems:
            return problems
        rows = blob["rows"]
        bad = [(r["J"], r["J_prime"]) for r in rows if not r["ok"]]
        if len(rows) != pairs or bad:
            problems.append(f"witness rows: {len(rows)} of {pairs}, not ok: {bad}")
        return problems

    sweep = ["sweep", "eta-witness", *sets, "--omega", omega, "--json", "-"]
    eta = ["verify", "eta", "--k", str(k), "--omega", omega, "--json", "-"]
    contraction = ["verify", "contraction", "--m", str(m), "--omega", omega,
                   "--json", "-"]
    ops = [
        Op("sweep eta-witness", lambda ctx: _cli(ctx, sweep), sweep_check),
        Op(f"verify eta --k {k}", lambda ctx: _cli(ctx, eta), verify_check("eta")),
        Op(f"verify contraction --m {m}", lambda ctx: _cli(ctx, contraction),
           verify_check("contraction")),
    ]
    inputs = {"omega": omega, "subsets": sets, "eta_k": k, "contraction_m": m}
    return Plan(inputs, [], ops)


PLAN_MAKERS = {
    "tower-balls": tower_balls,
    "free-walks": free_walks,
    "grid-lattice": grid_lattice,
    "family-witness": family_witness,
}


def make_plan(workload: str, seed: int, scale: str = "full") -> Plan:
    if workload not in PLAN_MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    return PLAN_MAKERS[workload](seed, SIZES[scale][workload], load_pinned())
