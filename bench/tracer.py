"""Spans around griglab's public functions, installed from outside the package.

The tracer wraps public names only, so refactors of private helpers do not
break it.  A module-level function is wrapped in every griglab module
namespace that holds it (``griglab.estimators.bfs_ball`` is the object
``griglab.cayley.bfs_ball``, imported by name, and both are patched).
Group ``mul`` methods are wrapped on their classes.

Every wrapped call of an ordinary function records a span: id, operation
id, name, parent span, start, end, and the time covered by its children.
Group multiplications run up to millions of times per operation, so they
record no spans; each is added to a per-(enclosing span, name, caller)
aggregate of call count, total time and child time.  Self time is a
span's duration minus the time of its children; calls nest and run on one
thread, so that sum is exactly the covered part of the interval.

Left unwrapped on purpose: the per-node tree recursion in ``wreath``
(``compose``, ``node``, ``leaf``, ``invert``) and ``TrivialGroup.mul``,
which run once per tree node; their time is the self time of
``WreathGroup.mul``.  ``words.reduce``/``words.mul`` run once per
``GammaFree.mul`` and count as its self time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# module -> public functions wrapped with one span per call
SPAN_FUNCTIONS = {
    "cli": ("main", "parse_group_expr", "run_verify", "run_estimate",
            "run_sweep", "suite_matrix_relations", "suite_contraction",
            "suite_eta", "suite_product_compat"),
    "estimators": ("spectral_radius", "entropy", "walk_distribution",
                   "percolation", "percolation_pstars", "speed",
                   "connective_constant", "cheeger_report", "growth_report"),
    "cayley": ("bfs_ball", "cogrowth", "growth", "saw_count", "cheeger_upper"),
    "family": ("build_GJ", "separation_witness", "truncation_level",
               "finite_kernel_section"),
    "wreath": ("iterate_functor", "apply_functor", "grig",
               "ball_agreement_radius"),
    "words": ("eta_word", "parse_omega"),
    "matrixh": ("relation_report", "word_to_matrix"),
    "marked": ("product",),
}

# span name -> (module, class, method) for methods with one span per call
SPAN_METHODS = {
    "marked.MarkedGroup.evaluate": ("marked", "MarkedGroup", "evaluate"),
    "marked.GammaFree.evaluate": ("marked", "GammaFree", "evaluate"),
    "marked.MarkedGroup.is_trivial_word": ("marked", "MarkedGroup", "is_trivial_word"),
}

# aggregate name -> (module, class); the name carries the layer, which for
# MatrixHGroup (defined in marked) is matrixh
HOT_MULS = {
    "marked.ProductGroup.mul": ("marked", "ProductGroup"),
    "marked.FreeGroup.mul": ("marked", "FreeGroup"),
    "marked.GammaFree.mul": ("marked", "GammaFree"),
    "marked.GridGroup.mul": ("marked", "GridGroup"),
    "marked.CyclicGroup.mul": ("marked", "CyclicGroup"),
    "matrixh.MatrixHGroup.mul": ("marked", "MatrixHGroup"),
    "wreath.WreathGroup.mul": ("wreath", "WreathGroup"),
}


class Tracer:
    """Holds spans and aggregates in memory until the run ends."""

    def __init__(self):
        self.spans = []  # (id, op, name, parent id, start, end, child_s, error)
        self.calls = {}  # (span id, name, caller name) -> [count, total_s, child_s]
        self.counters = defaultdict(int)
        self.op = 0  # operation id: 0 is set-up
        self.active = True
        self._ids = itertools.count(1)
        self._stack = [[0, "root", 0.0]]  # frames: [span id, name, child_s]
        self._thread = threading.get_ident()
        self._last_ball_size = 0

    # ------------------------------------------------------------ install

    def install(self, modules: dict):
        """Wrap the targets in ``modules`` (short name -> griglab module)."""
        for mod, names in SPAN_FUNCTIONS.items():
            for name in names:
                original = getattr(modules[mod], name)
                wrapper = self._span(f"{mod}.{name}", original)
                for m in modules.values():
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
        for span_name, (mod, cls_name, meth) in SPAN_METHODS.items():
            cls = getattr(modules[mod], cls_name)
            setattr(cls, meth, self._span(span_name, vars(cls)[meth]))
        for name, (mod, cls_name) in HOT_MULS.items():
            cls = getattr(modules[mod], cls_name)
            setattr(cls, "mul", self._hot(name, vars(cls)["mul"]))

    @contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # ----------------------------------------------------------- wrappers

    def _span(self, name: str, f):
        tracer = self
        stack = self._stack
        hook = _HOOKS.get(name)
        sig = inspect.signature(f) if hook else None

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if not tracer.active or threading.get_ident() != tracer._thread:
                return f(*args, **kwargs)
            parent = stack[-1]
            frame = [next(tracer._ids), name, 0.0]
            stack.append(frame)
            error = None
            start = time.perf_counter()
            try:
                result = f(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                parent[2] += end - start
                tracer.spans.append(
                    (frame[0], tracer.op, name, parent[0], start, end, frame[2], error)
                )
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
            return result

        return wrapper

    def _hot(self, name: str, f):
        tracer = self
        stack = self._stack
        calls = self.calls
        counters = self.counters
        perf = time.perf_counter
        fan_out = name == "marked.ProductGroup.mul"

        @functools.wraps(f)
        def wrapper(obj, x, y):
            if not tracer.active or threading.get_ident() != tracer._thread:
                return f(obj, x, y)
            parent = stack[-1]
            frame = [parent[0], name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return f(obj, x, y)
            finally:
                dt = perf() - start
                stack.pop()
                parent[2] += dt
                key = (parent[0], name, parent[1])
                rec = calls.get(key)
                if rec is None:
                    calls[key] = [1, dt, frame[2]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += frame[2]
                if fan_out:
                    counters["marked.factor_mul_calls"] += len(obj.factors)

        return wrapper

    # ------------------------------------------------------------- output

    def write(self, path, header: dict):
        """Write the spans, aggregates and counters, after ``header``."""
        keys = ("id", "op", "name", "parent", "start", "end", "child_s", "error")
        blob = dict(
            header,
            spans=[dict(zip(keys, s)) for s in sorted(self.spans)],
            aggregates=[
                {"span": sid, "name": name, "caller": caller, "count": n,
                 "total_s": t, "child_s": c}
                for (sid, name, caller), (n, t, c) in sorted(self.calls.items())
            ],
            counters=dict(self.counters),
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(blob) + "\n")

    def layer_metrics(self, pool_entries: int) -> dict:
        """The per-layer metrics of one traced pass (set-up included)."""
        total = defaultdict(float)
        self_s = defaultdict(float)
        count = defaultdict(int)
        budget_errors = 0
        for _, _, name, _, start, end, child, error in self.spans:
            total[name] += end - start
            self_s[name] += end - start - child
            count[name] += 1
            budget_errors += name == "cayley.bfs_ball" and error == "BallBudgetError"
        top_calls, top_s = 0, 0.0
        for (_, name, caller), (n, t, child) in self.calls.items():
            total[name] += t
            self_s[name] += t - child
            count[name] += n
            if caller not in HOT_MULS:
                top_calls += n
                top_s += t
        c = self.counters
        wreath_muls = count["wreath.WreathGroup.mul"]
        pstars_self = self_s["estimators.percolation_pstars"]
        return {
            "words.eta_word_s": total["words.eta_word"],
            "words.letters_evaluated": c["words.letters_evaluated"],
            "matrixh.mul_calls": count["matrixh.MatrixHGroup.mul"],
            "matrixh.mul_s": total["matrixh.MatrixHGroup.mul"],
            "marked.mul_calls": top_calls,
            "marked.mul_us": _rate(top_s, top_calls) * 1e6,
            "marked.factor_mul_calls": c["marked.factor_mul_calls"],
            "wreath.mul_calls": wreath_muls,
            "wreath.mul_self_s": self_s["wreath.WreathGroup.mul"],
            "wreath.pool_entries": pool_entries,
            "wreath.pool_growth_per_mul": _rate(pool_entries, wreath_muls),
            "wreath.agreement_s": total["wreath.ball_agreement_radius"],
            "family.build_s": total["family.build_GJ"],
            "family.truncation_level": c["family.truncation_level"],
            "family.factors": c["family.factors"],
            "family.witness_calls": count["family.separation_witness"],
            "family.witness_s": total["family.separation_witness"],
            "cayley.ball_s": total["cayley.bfs_ball"],
            "cayley.ball_self_s": self_s["cayley.bfs_ball"],
            "cayley.ball_vertices": c["cayley.ball_vertices"],
            "cayley.ball_kvps": _rate(c["cayley.ball_vertices"], total["cayley.bfs_ball"]) / 1e3,
            "cayley.budget_errors": budget_errors,
            "cayley.cogrowth_s": total["cayley.cogrowth"],
            "cayley.dp_cell_updates": c["cayley.dp_cell_updates"],
            "cayley.dp_mcells_per_s": _rate(c["cayley.dp_cell_updates"], self_s["cayley.cogrowth"]) / 1e6,
            "cayley.saw_s": total["cayley.saw_count"],
            "cayley.saw_walks": c["cayley.saw_walks"],
            "estimators.rho_self_s": self_s["estimators.spectral_radius"],
            "estimators.walkdist_s": total["estimators.walk_distribution"],
            "estimators.entropy_self_s": self_s["estimators.entropy"],
            "estimators.pstars_s": pstars_self,
            "estimators.trials": c["estimators.trials"],
            "estimators.trials_per_s": _rate(c["estimators.trials"], pstars_self),
            "estimators.summary_s": self_s["estimators.percolation"],
            "cli.parse_s": self_s["cli.parse_group_expr"],
            "cli.self_s": self_s["cli.main"],
        }


def _rate(num, den) -> float:
    return num / den if den > 0 else 0.0


# ---------------------------------------------------------------- hooks
# Counters read from a finished call's arguments and result.

def _ball_hook(tr, args, ball):
    tr.counters["cayley.ball_vertices"] += ball.size
    tr._last_ball_size = ball.size


def _cogrowth_hook(tr, args, series):
    # the DP runs on the ball passed in, or on the one cogrowth just built
    ball, n_max = args["ball"], args["n_max"]
    built = ball is None or ball.radius < n_max // 2
    V = tr._last_ball_size if built else ball.size
    tr.counters["cayley.dp_cell_updates"] += V * args["g"].k * n_max


def _saw_hook(tr, args, series):
    tr.counters["cayley.saw_walks"] += sum(series.values)


def _pstars_hook(tr, args, pstars):
    tr.counters["estimators.trials"] += len(pstars)


def _build_hook(tr, args, g):
    tr.counters["family.truncation_level"] = max(
        tr.counters["family.truncation_level"], g.truncation)
    tr.counters["family.factors"] = max(tr.counters["family.factors"], len(g.factors))


def _evaluate_hook(tr, args, value):
    w = args["w"]
    tr.counters["words.letters_evaluated"] += 0 if w in ("e", "1") else len(w)


_HOOKS = {
    "cayley.bfs_ball": _ball_hook,
    "cayley.cogrowth": _cogrowth_hook,
    "cayley.saw_count": _saw_hook,
    "estimators.percolation_pstars": _pstars_hook,
    "family.build_GJ": _build_hook,
    "marked.MarkedGroup.evaluate": _evaluate_hook,
    "marked.GammaFree.evaluate": _evaluate_hook,
}

