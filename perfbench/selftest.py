"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute per workload.  For
each workload it makes two traced runs with the same seed and one short
untraced run, and checks that

- every run is correct, and every operation's output digest is the same in
  the traced pass as in the untraced pass;
- every count metric is identical across the two traced runs;
- every untraced metric is positive;
- every per-layer span metric is non-zero on at least one workload.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.pycache_prefix = str(HERE / "out" / "pycache")

from run import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7

# Not spans: measured by the harness around whole processes.
NOT_SPANS = {"cli.startup_s", "cli.overhead_s", "trace.overhead_s"}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (its result line, its full record)."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    record = HERE / "out" / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(done.stdout.splitlines()[-1]), json.loads(record.read_text())


def main() -> int:
    problems: list[str] = []
    nonzero: set[str] = set()
    for workload in sorted(WORKLOADS):
        first, record = run(workload, trace=1)
        second, _ = run(workload, trace=1)
        plain, _ = run(workload, trace=0)
        for label, result in (("traced", first), ("traced again", second), ("untraced", plain)):
            if not result["correct"]:
                problems.append(f"{workload}: {label} run is not correct")
        digests: dict[str, set[str]] = {}
        for execution in record["executions"]:
            digests.setdefault(execution["op"], set()).add(execution["sha256"])
        for op, seen in digests.items():
            if len(seen) != 1:
                problems.append(f"{workload}: {op} output differs traced vs untraced")
        for name, metric in first["metrics"].items():
            again = second["metrics"][name]["value"]
            if metric["unit"] == "count" and metric["value"] != again:
                problems.append(f"{workload}: {name} = {metric['value']} then {again}")
            if metric["value"]:
                nonzero.add(name)
        for name, metric in plain["metrics"].items():
            if not metric["value"] > 0:
                problems.append(f"{workload}: {name} is {metric['value']}")
        print(f"{workload}: checked", flush=True)
    for name in sorted(set(PER_LAYER) - NOT_SPANS - nonzero):
        problems.append(f"{name} is zero on every workload")

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
