"""One pass of one workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 [--scale full|tiny]

Times set-up (``import griglab`` plus parsing and building every group the
workload names), then runs each operation in order, timing it and then
checking its output with tracing paused.  A fixed reference loop is timed
before set-up and right after set-up and after each operation, so every
timed interval has a gauge of the host's speed on either side of it
(``reference_s``).  Prints one JSON line.  With
``--trace 1`` the public griglab functions are wrapped first, and the
spans are written to ``.bench_out/`` in the checkout when the pass ends.
``run.py`` starts this script once per pass, so the process-global intern
pool and the peak RSS belong to one pass of one workload.
"""

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer
from workloads import SIZES, make_plan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_ITERATIONS = 60_000


def import_griglab() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    import griglab
    import griglab.cli  # imports every other module

    if Path(griglab.__file__).resolve().parent != SRC / "griglab":
        raise ImportError(f"griglab imported from {griglab.__file__}, not {SRC}")
    mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("griglab.")}
    return SimpleNamespace(**mods)


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop of tuple hashing and dict updates
    takes now.  The collector is off meanwhile, so that the size of the
    program's heap does not change the loop's time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts = {}
        for i in range(REFERENCE_ITERATIONS):
            key = (i % 997, i % 13, i >> 3)
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SIZES), default="full")
    args = ap.parse_args()
    plan = make_plan(args.workload, args.seed, args.scale)

    reference_loop()  # the first call in a fresh process also pays page faults
    reference_s = [reference_loop()]
    t0 = time.perf_counter()
    lab = import_griglab()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(vars(lab))
    groups = {expr: lab.cli.parse_group_expr(expr) for expr in plan.expressions}
    setup_s = time.perf_counter() - t0
    reference_s.append(reference_loop())

    ctx = SimpleNamespace(lab=lab, groups=groups, ball=None, estimates={})
    ops = []
    for i, op in enumerate(plan.ops, start=1):
        if tracer is not None:
            tracer.op = i
        problems = []
        start = time.perf_counter()
        try:
            result = op.run(ctx)
        except Exception as exc:  # an operation that raises counts as failed
            seconds = time.perf_counter() - start
            reference_s.append(reference_loop())
            problems.append(f"raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        else:
            seconds = time.perf_counter() - start
            reference_s.append(reference_loop())
            try:
                with tracer.paused() if tracer is not None else nullcontext():
                    problems += op.check(ctx, result)
            except Exception as exc:  # a malformed output fails its check
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        ops.append({"name": op.name, "seconds": seconds, "problems": problems})

    out = {
        "setup_s": setup_s,
        "ops": ops,
        "reference_s": reference_s,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "estimates": ctx.estimates,
        "inputs": plan.inputs,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(lab.wreath.pool_size())
        tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "inputs": plan.inputs})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
