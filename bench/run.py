"""griglab benchmark: one workload, closed loop, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--scale full|tiny]

Run from the root of a checkout.  Each pass is one fresh interpreter
(``worker.py``) that sets up the workload and runs its operations one after
another, so there is one caller and every operation starts only after the
previous one returned.  Passes repeat until ``--seconds`` is used up.

Every timed interval is scaled to a reference host speed: the worker times
a fixed reference loop on either side of set-up and of each operation, and
an interval of t seconds between loops that took r1 and r2 seconds counts
as t * REFERENCE_S / ((r1 + r2) / 2).  On a shared virtual machine whose
speed drifts by tens of percent within minutes, this removes most of the
drift that no estimator over a single run can.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over the untraced passes: ``wall_s`` (the scaled sum of the
operations), ``setup_s`` (scaled set-up) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus ``trace.overhead_ratio``.
The last stdout line is the result object; the line before it carries
the environment, the inputs, every pass with its measured and scaled
times, and every failure.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import PLAN_MAKERS, SIZES, make_plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC_PACKAGE = ROOT / "src" / "griglab"

MIN_PASSES = 3  # untraced passes of a --trace 0 run
MIN_TRACED_PASSES = 4  # trace 1 needs at least two of each kind
# about the fastest time of worker.reference_loop on a shared 2-core x86-64
# virtual machine with CPython 3.11, so that scaled times read roughly as
# seconds on that machine when it is quiet
REFERENCE_S = 0.015
HARD_LIMIT_S = 165.0  # a run must end within 180 s whatever --seconds says

# Pinned thread counts keep every workload within 2 threads on any machine;
# a fixed hash seed gives every pass the same dict layout for str keys.
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def environment() -> dict:
    commit = None  # stays None when run from a plain export of the tree
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True, timeout=10,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC_PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "ru_maxrss_unit": "bytes" if sys.platform == "darwin" else "KiB",
    }


def run_pass(args, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--scale", args.scale]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout, env=dict(os.environ, **WORKER_ENV))
    except subprocess.TimeoutExpired:
        return {"traced": traced, "duration_s": time.perf_counter() - start,
                "error": f"pass timed out after {timeout:.0f} s"}
    out = {"traced": traced, "duration_s": time.perf_counter() - start}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        out["error"] = f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"
        return out
    out.update(json.loads(lines[-1]))
    return out


def scaled(seconds: float, before: float, after: float) -> float:
    return seconds * REFERENCE_S * 2 / (before + after)


def summarize(pass_: dict) -> dict:
    ref = pass_["reference_s"]  # before set-up, then after set-up and each op
    ops = [scaled(op["seconds"], ref[i], ref[i + 1])
           for i, op in enumerate(pass_["ops"], start=1)]
    return {
        "traced": pass_["traced"],
        "wall_s": sum(ops),
        "setup_s": scaled(pass_["setup_s"], ref[0], ref[1]),
        "peak_rss_mb": pass_["rss_kib"] / 1024,
        "measured_wall_s": sum(op["seconds"] for op in pass_["ops"]),
        "measured_setup_s": pass_["setup_s"],
        "reference_s": ref,
        "op_seconds": {op["name"]: op["seconds"] for op in pass_["ops"]},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PLAN_MAKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=sorted(SIZES), default="full")
    args = ap.parse_args()
    if not (SRC_PACKAGE / "__init__.py").is_file():
        print(f"griglab sources not found under {SRC_PACKAGE}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment()
    n_ops = len(make_plan(args.workload, args.seed, args.scale).ops)

    passes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        longest = max((p["duration_s"] for p in passes), default=0.0)
        enough = len(passes) >= (MIN_TRACED_PASSES if args.trace else MIN_PASSES)
        if enough and elapsed + longest > args.seconds:
            break
        if passes and elapsed + longest > HARD_LIMIT_S:
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(args, traced, HARD_LIMIT_S - elapsed))

    attempted = failed = 0
    failures = []
    for i, p in enumerate(passes):
        attempted += n_ops
        if "error" in p:
            failed += n_ops
            failures.append({"pass": i, "error": p["error"]})
            continue
        for op in p["ops"]:
            if op["problems"]:
                failed += 1
                failures.append({"pass": i, "op": op["name"], "problems": op["problems"]})
    ok = [summarize(p) | {"layers": p.get("layers")}
          for p in passes if "error" not in p]
    untraced = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    if not untraced or (args.trace and not traced):
        print(json.dumps({"failures": failures}), file=sys.stderr)
        return 1
    if args.trace:
        values = {
            key: median(p["layers"][key] for p in traced)
            for key in traced[0]["layers"]
        }
        values["trace.overhead_ratio"] = (median(p["wall_s"] for p in traced)
                                          / median(p["wall_s"] for p in untraced) - 1)
    else:
        values = {key: median(p[key] for p in untraced)
                  for key in ("wall_s", "setup_s", "peak_rss_mb")}
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: {sorted(values)}")
    last = next(p for p in reversed(passes) if "error" not in p)
    env["numpy"] = last["numpy"]
    detail = {
        "benchmark": "griglab",
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "loop": "closed, one caller, one fresh interpreter per pass",
        "environment": env,
        "inputs": last["inputs"],
        "samples": {"untraced": len(untraced), "traced": len(traced)},
        "reference_s": REFERENCE_S,
        "median_measured_wall_s": median(p["measured_wall_s"] for p in untraced),
        "median_measured_setup_s": median(p["measured_setup_s"] for p in untraced),
        "failed_ratio": failed / attempted,
        "estimates": last["estimates"],
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in ok],
        "failures": failures,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
