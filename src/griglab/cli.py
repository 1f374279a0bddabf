"""Command line front end.

Subcommands: verify (exact invariant suites), estimate (single-group
parameter runs), sweep (one report row per family member).  Group
arguments use a small constructor language, e.g.

    free(2)   grig((012)*, 4)   gj((012)*, {1,3}, 8)
    functor((012)*, 2, matrix_h())   product(grig((012)*, 3), matrix_h())

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 resource
exhaustion.  Outputs pin to (expression, seed, version): emitted reports
carry runtime as null, the wall-clock number goes to stderr.
"""

import argparse
import functools
import inspect
import io
import json
import re
import sys
import time

from . import __version__
from .cayley import STRATEGIES, BallBudgetError
from .estimators import (
    SETTING_CHECKS,
    cheeger_report,
    connective_constant,
    entropy,
    growth_report,
    percolation,
    spectral_radius,
    speed,
)
from .family import GJSpec, WitnessTable, build_GJ, truncation_level
from .marked import (
    CyclicGroup,
    FreeGroup,
    GammaFree,
    GridGroup,
    MarkedGroup,
    MatrixHGroup,
    product,
)
from .matrixh import relation_report
from .words import FIRST_OMEGA, OMEGA, OmegaWord, parse_omega
from .wreath import apply_functor, ball_agreement_radius, grig, iterate_functor

VERIFY_SCHEMA = "griglab/verify/1"
SWEEP_SCHEMA = "griglab/sweep/1"


# ------------------------------------------------------------ expression parser

class ExprError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"at position {pos}: {msg}")
        self.pos = pos


_NAME = re.compile(r"[a-z_]+")
_INT = re.compile(r"\d+")


class _Parser:
    """Recursive descent over the constructor mini-language."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, msg: str):
        raise ExprError(msg, self.pos)

    def ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def accept(self, ch: str) -> bool:
        """Step over ``ch`` if it comes next, after any blanks."""
        self.ws()
        if self.text.startswith(ch, self.pos):
            self.pos += 1
            return True
        return False

    def take(self, ch: str):
        if not self.accept(ch):
            self.fail(f"expected '{ch}'")

    def match(self, rx):
        self.ws()
        m = rx.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m

    def parse_int(self) -> int:
        m = self.match(_INT)
        if not m:
            self.fail("expected an integer")
        return int(m.group())

    def parse_omega_word(self) -> OmegaWord:
        m = self.match(OMEGA)
        if not m:
            self.fail("expected an omega word like (012)*, pre|period or 012")
        return parse_omega(m.group())

    def parse_set(self) -> tuple:
        self.take("{")
        vals = []
        if not self.accept("}"):
            while not vals or self.accept(","):
                vals.append(self.parse_int())
                if vals[-1] < 1:
                    self.fail("levels must be positive")
            self.take("}")
        return tuple(sorted(set(vals)))  # as GJSpec keeps J

    def parse_expr(self) -> MarkedGroup:
        m = self.match(_NAME)
        if not m:
            self.fail("expected a constructor name")
        name = m.group()
        self.take("(")
        try:
            g = self._build(name)
        except ExprError:
            raise
        except (ValueError, TypeError) as exc:
            raise ExprError(str(exc), self.pos) from exc
        self.take(")")
        return g

    def _build(self, name: str) -> MarkedGroup:
        if name == "free":
            return FreeGroup(self.parse_int())
        if name == "cycle":
            return CyclicGroup(self.parse_int())
        if name == "grid":
            return GridGroup(self.parse_int())
        if name == "gamma_free":
            return GammaFree()
        if name == "matrix_h":
            return MatrixHGroup()
        if name == "grig":
            om = self.parse_omega_word()
            self.take(",")
            return grig(om, self.parse_int())
        if name == "functor":
            om = self.parse_omega_word()
            self.take(",")
            k = self.parse_int()
            self.take(",")
            base = self.parse_expr()
            return iterate_functor(om, k, base)
        if name == "gj":
            om = self.parse_omega_word()
            self.take(",")
            J = self.parse_set()
            self.take(",")
            radius = self.parse_int()
            return build_GJ(GJSpec(om, J, radius))
        if name == "product":
            factors = [self.parse_expr()]
            while self.accept(","):
                factors.append(self.parse_expr())
            return product(factors)
        self.fail(f"unknown constructor '{name}'")


def _parse_whole(text: str, parse):
    p = _Parser(text)
    out = parse(p)
    p.ws()
    if p.pos != len(text):
        p.fail("trailing input")
    return out


def parse_group_expr(text: str) -> MarkedGroup:
    return _parse_whole(text, _Parser.parse_expr)


# -------------------------------------------------------------- verify suites

def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def suite_matrix_relations() -> list:
    rep = relation_report()
    return [_check(name, ok) for name, ok in rep.items()]


def suite_contraction(m: int = 2, omega: OmegaWord = FIRST_OMEGA) -> list:
    if m < 1:  # F^0(H) is H itself, which no plain truncation matches
        raise ValueError("m must be >= 1")
    n = 2**m - 1
    M = truncation_level(n, omega)
    F = iterate_functor(omega, m, MatrixHGroup())
    G = grig(omega, M)
    r = ball_agreement_radius(F, G, n)
    return [
        _check(
            f"balls agree to radius {n} (m={m}, truncation {M})",
            r == n,
            f"agreement radius {r}",
        )
    ]


def suite_eta(k: int = 1, omega: OmegaWord = FIRST_OMEGA) -> list:
    table = WitnessTable(omega)
    checks = [
        _check(f"eta_{k} trivial one functor level deeper", table.trivial(k, k + 1)),
        _check(f"eta_{k} trivial in the level-{k} plain group", table.trivial(k, k, False)),
    ]
    if k == 0:  # level 0 of the tower, F^0(H), is the matrix group H
        return checks + [_check("eta_0 nontrivial in the matrix group", not table.trivial(0, 0))]
    nontrivial, portrait_trivial, leaves = table.level(k)
    return checks + [
        _check(f"eta_{k} nontrivial at level {k}", nontrivial),
        _check(f"eta_{k} has identity portrait with {len(leaves)} decorated leaf",
               portrait_trivial and len(leaves) == 1),
    ]


def suite_product_compat(omega: OmegaWord = FIRST_OMEGA) -> list:
    checks = []
    H1, H2 = MatrixHGroup(), grig(omega, 1)
    both = product([H1, H2])
    for x in (0, 1, 2):
        lhs = apply_functor(x, both)
        rhs = product([apply_functor(x, H1), apply_functor(x, H2)])
        r = ball_agreement_radius(lhs, rhs, 3)
        checks.append(
            _check(f"functor letter {x} distributes over the product (radius 3)", r == 3)
        )
    return checks


# ---------------------------------------------------------------- sweep command

def _witness_matrix(specs: list, omega: OmegaWord = FIRST_OMEGA) -> list:
    """Rows for every ordered proper-subset pair of the listed J sets."""
    for J in specs:
        if specs.count(J) > 1:
            raise ValueError(f"the set {{{','.join(map(str, J))}}} is given twice")
    table, rows = WitnessTable(omega), []  # one table answers every row
    for J in specs:
        for Jp in (Jp for Jp in specs if set(J) < set(Jp)):
            diff = sorted(set(Jp) - set(J))
            i = next((i for i in diff if table.report(J, Jp, i)["ok"]), None)
            rows.append({"J": list(J), "J_prime": list(Jp), "witness_i": i, "ok": i is not None})
    return rows


# ------------------------------------------------------------ the command table

# command -> name -> (function, fixed arguments, flag dest -> keyword).  The
# function is named, not held: it is looked up when it runs, so a patched
# module global is the one called.  A flag left unset is not passed, so the
# function's signature default is the only default.  "verify all" runs every
# suite row in this order and reads the union of their flags.
_PERCOLATION = {"R": "radius", "trials": "trials", "seed": "seed"}
_ESTIMATES = {
    "rho": ("spectral_radius", {}, {"n": "n_max"}),
    "pc-site": ("percolation", {"mode": "site"}, _PERCOLATION),
    "pc-bond": ("percolation", {"mode": "bond"}, _PERCOLATION),
    "entropy": ("entropy", {}, {"n": "n_max"}),
    "speed": ("speed", {}, {"n": "n"}),
    "mu": ("connective_constant", {}, {"n": "n_max"}),
    "cheeger": ("cheeger_report", {}, {"n": "n_max", "candidates": "candidates"}),
    "growth": ("growth_report", {}, {"n": "n_max"}),
}
_COMMANDS = {
    "verify": {
        "matrix-relations": ("suite_matrix_relations", {}, {}),
        "contraction": ("suite_contraction", {}, {"m": "m", "omega": "omega"}),
        "eta": ("suite_eta", {}, {"k": "k", "omega": "omega"}),
        "product-compat": ("suite_product_compat", {}, {"omega": "omega"}),
    },
    "estimate": _ESTIMATES,
    # eta-witness is an exact search, so it reads no seed
    "sweep": {**_ESTIMATES, "eta-witness": ("_witness_matrix", {}, {"omega": "omega"})},
}
# every flag some row reads, in the order a usage error names them
_FLAGS = ("n", "R", "trials", "candidates", "seed", "m", "k", "omega")
# (name, flag dest) -> what an unset flag runs at, read once from the signatures
_DEFAULTS = {
    (name, d): inspect.signature(globals()[fn]).parameters[kw].default
    for rows in _COMMANDS.values()
    for name, (fn, _, reads) in rows.items()
    for d, kw in reads.items()
}


def _call(row, *args, flags):
    """Run a table row's function on ``args`` and the row's flags that are set."""
    fn, fixed, reads = row
    given = {kw: getattr(flags, d) for d, kw in reads.items() if getattr(flags, d) is not None}
    return globals()[fn](*args, **fixed, **given)


def _check_settings(name: str, flags) -> None:
    """Raise ValueError when the flags hold a value that the estimator row
    ``name`` refuses whatever the group; unset flags are at their defaults."""
    fn, fixed, reads = _ESTIMATES[name]
    settings = {
        kw: _DEFAULTS[name, d] if getattr(flags, d) is None else getattr(flags, d)
        for d, kw in reads.items()
    }
    SETTING_CHECKS[fn](**fixed, **settings)


def run_verify(args) -> dict:
    rows = _COMMANDS["verify"]
    checks = []
    for suite in rows if args.suite == "all" else [args.suite]:
        checks += _call(rows[suite], flags=args)
    ok = all(c["ok"] for c in checks)
    return {"schema": VERIFY_SCHEMA, "suite": args.suite, "ok": ok, "checks": checks}


def run_estimate(args) -> dict:
    g = parse_group_expr(args.group)
    t0 = time.perf_counter()
    rep = _call(_COMMANDS["estimate"][args.parameter], g, flags=args)
    print(f"runtime: {round(time.perf_counter() - t0, 6)} s", file=sys.stderr)
    return rep.to_json()


def _budget_text(exc: BallBudgetError) -> str:
    return f"resource limit: ball budget {exc.budget} reached at radius {exc.achieved_radius}"


def run_sweep(args) -> dict:
    rows = []
    if args.parameter == "eta-witness":
        sets = [_parse_whole(text, _Parser.parse_set) for text in args.groups]
        rows = _call(_COMMANDS["sweep"]["eta-witness"], sets, flags=args)
    else:
        _check_settings(args.parameter, args)  # a usage error before any row
        for text in args.groups:
            row = {"group": text}
            try:
                sub = argparse.Namespace(**vars(args))
                sub.group = text
                blob = run_estimate(sub)
                row.update(
                    {
                        "parameter": blob["parameter"],
                        "estimate": blob["estimate"],
                        "certified": (blob["certified"] or {}).get("value"),
                    }
                )
            except (ExprError, ValueError) as exc:
                row["error"] = str(exc)  # record and continue
            except BallBudgetError as exc:
                row["error"] = _budget_text(exc)
            rows.append(row)
    # the seed the rows used: null where the parameter reads none
    seed = _DEFAULTS.get((args.parameter, "seed")) if args.seed is None else args.seed
    return {"schema": SWEEP_SCHEMA, "parameter": args.parameter, "seed": seed, "rows": rows}


# -------------------------------------------------------------------- emission

def _rows_to_csv(header: list, rows) -> str:
    import csv  # only a CSV report needs it

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def to_csv(blob: dict) -> str:
    if blob["schema"] == VERIFY_SCHEMA:
        return _rows_to_csv(
            ["name", "ok", "detail"],
            [(c["name"], int(c["ok"]), c["detail"]) for c in blob["checks"]],
        )
    if blob["schema"] == SWEEP_SCHEMA:
        keys = sorted({k for row in blob["rows"] for k in row}) or (
            ["J", "J_prime", "ok", "witness_i"] if blob["parameter"] == "eta-witness"
            else ["certified", "estimate", "group", "parameter"])  # no rows: the header alone
        return _rows_to_csv(keys, [[row.get(k) for k in keys] for row in blob["rows"]])
    series = blob.get("series", {})
    if "curve" in series:
        return _rows_to_csv(["p", "theta_hat", "ci_lo", "ci_hi"], series["curve"])
    if "n" in series:
        cols = [k for k in series if k != "n" and isinstance(series[k], list)]
        rows = [
            [n] + [series[c][i] for c in cols] for i, n in enumerate(series["n"])
        ]
        return _rows_to_csv(["n"] + cols, rows)
    # the one series left, cheeger's, counts steps
    return _rows_to_csv(["step", "bound"], zip(series["step"], series["bound"]))


def _emit(blob: dict, args):
    for path, render in (
        (args.json, lambda: json.dumps(blob, indent=2, sort_keys=True) + "\n"),
        (args.csv, lambda: to_csv(blob)),
    ):
        if path == "-":
            sys.stdout.write(render())
        elif path:
            with open(path, "w") as f:
                f.write(render())


def _summary(command: str, blob: dict):
    """The human-readable lines of a report."""
    if command == "verify":
        for c in blob["checks"]:
            mark = "ok " if c["ok"] else "FAIL"
            yield f"[{mark}] {c['name']}" + (f" ({c['detail']})" if c["detail"] else "")
    elif command == "estimate":
        cert = blob.get("certified")
        extra = f"  certified {cert['direction']} bound {cert['value']:.6f}" if cert else ""
        est = blob["estimate"]
        shown = "n/a" if est is None else f"{est:.6f}"
        yield f"{blob['parameter']} on {blob['group']}: {shown}{extra}"
    else:
        for row in blob["rows"]:
            yield json.dumps(row, sort_keys=True)


# ------------------------------------------------------------------ config file

def load_config(path: str) -> dict:
    out = {}
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            out[key] = value  # argparse converts a string default by the flag's type
    return out


# ------------------------------------------------------------------- arg parser

def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="griglab",
        description="exact checks and parameter estimates for decorated Grigorchuk groups",
    )
    ap.add_argument("--version", action="version", version=f"griglab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads; a parameter's flags
    # default to None, which leaves the estimator's own default in force
    def common(p):
        p.add_argument("--json", metavar="PATH", help="write JSON report ('-' = stdout)")
        p.add_argument("--csv", metavar="PATH", help="write CSV table ('-' = stdout)")
        p.add_argument("--config", metavar="FILE", help="flat key=value defaults; flags win")
        p.set_defaults(**(defaults or {}))

    def omega(p):
        p.add_argument("--omega", help=f"defining word for functor towers (default {FIRST_OMEGA})")

    def estimate_options(p):
        shown = ", ".join(f"{name} {v}" for (name, d), v in _DEFAULTS.items() if d == "n")
        p.add_argument("--n", type=int, help=f"series length (default: {shown})")
        p.add_argument("--R", type=int, help="percolation ball radius")
        p.add_argument("--trials", type=int)
        p.add_argument("--candidates", choices=list(STRATEGIES))
        p.add_argument("--seed", type=int, help="random stream key")

    v = sub.add_parser("verify", help="run an exact invariant suite")
    v.add_argument("suite", choices=[*_COMMANDS["verify"], "all"])
    m, k = _DEFAULTS["contraction", "m"], _DEFAULTS["eta", "k"]
    v.add_argument("--m", type=int, help=f"contraction depth (default {m})")
    v.add_argument("--k", type=int, help=f"separating word index (default {k})")
    omega(v)
    common(v)

    e = sub.add_parser("estimate", help="estimate one parameter on one group")
    e.add_argument("group", help="group expression, e.g. 'grig((012)*, 4)'")
    e.add_argument("parameter", choices=list(_COMMANDS["estimate"]))
    estimate_options(e)
    e.add_argument(
        "--threads", type=int, default=0,
        help="accepted for compatibility and ignored: percolation trials and "
        "the SAW search split across forked children, one per available CPU",
    )
    common(e)

    s = sub.add_parser("sweep", help="one report row per family member")
    s.add_argument("parameter", choices=list(_COMMANDS["sweep"]))
    s.add_argument("groups", nargs="*", help="group expressions (J sets for eta-witness)")
    estimate_options(s)
    omega(s)
    common(s)
    return ap


# one parser per interpreter, built by the first main(); a --config run builds its own
_parser = functools.cache(build_parser)


def _flag_dests(ap: argparse.ArgumentParser, command: str) -> set:
    """Dests of the flags ``command`` takes: the only keys a config may set,
    since positionals and the subcommand itself come from argv alone."""
    (sub,) = (a for a in ap._actions if a.dest == "command")
    return {a.dest for a in sub.choices[command]._actions if a.option_strings} - {"help"}


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if args.config:
        try:
            conf = load_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        bad = set(conf) - _flag_dests(ap, args.command)
        if bad:
            print(f"config error: unknown keys {sorted(bad)}", file=sys.stderr)
            return 2
        # the config only moves defaults, so argparse lets any flag win
        args = build_parser(conf).parse_args(argv)
    if args.json == args.csv == "-":
        print("usage error: --json - and --csv - would both write stdout", file=sys.stderr)
        return 2
    # a flag given in argv or the config is exactly one that is not None
    rows = _COMMANDS[args.command]
    name = args.suite if args.command == "verify" else args.parameter
    reads = set().union(*(r[2] for r in rows.values())) if name == "all" else rows[name][2]
    unread = [f"--{d}" for d in _FLAGS if d not in reads and getattr(args, d, None) is not None]
    if unread:
        print(f"usage error: {name} does not read {', '.join(unread)}", file=sys.stderr)
        return 2
    try:
        if getattr(args, "omega", None) is not None:
            args.omega = parse_omega(args.omega)
        blob = globals()[f"run_{args.command}"](args)
        try:
            _emit(blob, args)
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return 2
        if "-" not in (args.json, args.csv):  # else stdout carries the report alone
            for line in _summary(args.command, blob):
                print(line)
        return 0 if blob.get("ok", True) else 1  # only verify reports carry ok
    except ExprError as exc:
        print(f"expression error {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BallBudgetError as exc:
        print(_budget_text(exc), file=sys.stderr)
        return 3
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
