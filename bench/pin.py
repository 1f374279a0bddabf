"""Regenerate ``pinned.json``: exact integers that have no independent oracle.

    python3 bench/pin.py

Runs the workload plans themselves, at every scale in ``workloads.SIZES``,
for every input the seed can draw: each defining word with each J ⊂ {1,2,3}
for ``tower-balls`` (a J and its complement share one plan), and the
``free-walks`` plan.  Each operation that names a pin stores what it read
off its own result (ball layer sizes, even return counts).  Run it on a
commit whose outputs are trusted; a later change that alters any of these
integers is a behaviour change, and the benchmark counts it as failed
operations.
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from worker import import_griglab
from workloads import OMEGAS, PINNED_PATH, SIZES, free_walks, tower_plan

ROOT = Path(__file__).resolve().parent.parent


def record_pins(lab, plan, values: dict) -> None:
    groups = {expr: lab.cli.parse_group_expr(expr) for expr in plan.expressions}
    ctx = SimpleNamespace(lab=lab, groups=groups, ball=None, estimates={})
    for op in plan.ops:
        result = op.run(ctx)
        if op.pin is not None:
            key, read = op.pin
            values.setdefault(key, {}).update(read(result))


def main():
    lab = import_griglab()
    values = {}
    for sizes in SIZES.values():
        for omega in OMEGAS:
            for J1 in ((1,), (2,), (3,)):  # with their complements: every J
                record_pins(lab, tower_plan(omega, J1, sizes["tower-balls"], {}), values)
            print(omega, "done", file=sys.stderr, flush=True)
        record_pins(lab, free_walks(0, sizes["free-walks"], {}), values)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    blob = {"computed_at_commit": commit, "values": dict(sorted(values.items()))}
    PINNED_PATH.write_text(json.dumps(blob, indent=1) + "\n")


if __name__ == "__main__":
    main()
