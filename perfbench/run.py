"""Benchmark harness for plesken.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The harness measures the code in `src/`
of that checkout: children run with `sys.executable` and
`PYTHONPATH=<checkout>/src`, from a scratch directory under
`perfbench/out/` that is removed at exit.  It is a closed loop with one
client: one operation in flight, each in a fresh process.

`--trace 0` sets up five times (setup_s is the median), then runs the
workload's operations in seeded order, pass after pass, starting an
operation only while it is expected to finish within `--seconds` (the first
two passes always complete).  wall_s and cpu_s are the sums over operations
of each operation's median, i.e. the time of one median pass.

All times in the result are in reference seconds: each stretch of a child's
run, about SLICE_S long, is scaled by REFERENCE_S over the reference loop's
time around it (see launcher.py).  The measured times are printed and
recorded as well.

`--trace 1` ignores `--seconds`: it runs one untraced pass and one traced
pass in the same order, and prints the per-layer metrics of the traced pass.
Every output is checked against the expected verdicts, and the digest of
every output must repeat across passes, traced or not.

The last line of stdout is the JSON result; the full record, with each
operation's SHA-256 and the run context, goes to perfbench/out/results/.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.pycache_prefix = str(OUT / "pycache")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from tracer import span_stats  # noqa: E402
from workloads import WORKLOADS, Op, mismatch  # noqa: E402

CHILD = HERE / "child.py"
SETUP_REPEATS = 5
MIN_SAMPLES = 2  # every op is timed, and its digest compared, at least twice
STARTUP_PROBES = 5
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s allowed
# Reported times are measured times scaled by REFERENCE_S / (the launcher's
# reference loop time around the same stretch of the child's run): times on a
# machine that runs the reference loop in REFERENCE_S seconds, whatever this
# one's speed is at the time.  The speed changes within seconds, so a child is
# stopped every SLICE_S seconds to time the loop again.
REFERENCE_S = 0.1
SLICE_S = 0.5

# Metric names and units, as BENCHMARK.json declares them.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}


@dataclass
class Execution:
    op: Op
    traced: bool
    wall_s: float  # the operation's time: the child's wall, or a lib child's timed section
    cpu_s: float
    scale: float  # reference seconds per measured second, over the operation's time
    process_s: float  # the child's whole wall time
    rss_mb: float
    exit_code: int
    sha256: str
    failure: str | None
    trace: dict | None = None

    def record(self) -> dict:
        return {
            "op": self.op.name, "traced": self.traced, "wall_s": self.wall_s,
            "cpu_s": self.cpu_s, "scale": self.scale, "process_s": self.process_s,
            "rss_mb": self.rss_mb, "exit": self.exit_code, "sha256": self.sha256,
            "failure": self.failure,
        }


def timed(slices: list, window=(float("-inf"), float("inf"))) -> tuple[float, float]:
    """(measured, reference) seconds of the launcher's slices within `window`."""
    measured = scaled = 0.0
    for start, end, ref_s in slices:
        part = max(0.0, min(end, window[1]) - max(start, window[0]))
        measured += part
        scaled += part * REFERENCE_S / ref_s
    return measured, scaled


class Runner:
    """Spawns the operations of one run, through the launcher, and checks them."""

    def __init__(self, workdir: Path, started: float, slice_s: float | None):
        self.workdir = workdir
        self.slice_s = slice_s
        self.deadline = started + RUN_LIMIT_S
        self.digests: dict[str, str] = {}
        self.executions: list[Execution] = []
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def spawn(self, argv: list[str], stdout: Path) -> dict:
        """Run one child: {"exit", "cpu_s", "maxrss_kb", "slices"}."""
        request = {
            "argv": argv, "cwd": str(self.workdir), "stdout": str(stdout),
            "stderr": str(self.workdir / "stderr.txt"),
            "limit": max(1.0, self.deadline - time.perf_counter()),
            "slice_s": self.slice_s,
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        return json.loads(reply)

    def execute(self, op: Op, traced: bool) -> Execution:
        trace_path = self.workdir / "trace.json"
        prefix = [sys.executable, str(CHILD)]
        if traced:
            prefix += ["--trace", str(trace_path)]
        if op.kind == "lib":
            argv = prefix + ["lib", *op.args]
        elif traced:
            argv = prefix + ["cli", *op.args]
        else:
            argv = [sys.executable, "-m", "plesken", *op.args]
        output = self.workdir / (op.output or "stdout.txt")
        for stale in (output, trace_path):
            stale.unlink(missing_ok=True)
        usage = self.spawn(argv, self.workdir / "stdout.txt")
        code = usage["exit"]
        wall, scaled = timed(usage["slices"])
        process_s = wall
        cpu = usage["cpu_s"]
        data = output.read_bytes() if output.exists() else b""
        payload, failure = None, None
        try:
            payload = json.loads(data)
        except ValueError:
            failure = f"exit {code}; output is not JSON: {data[:200]!r}"
        if op.kind == "lib" and payload is not None:
            wall, scaled = timed(usage["slices"], payload["work"])
            cpu, payload = payload["work_cpu_s"], payload["result"]
            data = json.dumps(payload, sort_keys=True).encode()
        if failure is None:
            failure = mismatch(op, code, payload)
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(op.name, digest)
        if failure is None and digest != first:
            failure = f"output digest {digest[:12]} differs from earlier {first[:12]}"
        trace = None
        if traced and trace_path.exists():
            header, body = trace_path.read_text().split("\n", 1)
            trace = {**json.loads(header), **json.loads(body)}
        elif traced and failure is None:
            failure = "traced child wrote no trace"
        scale = scaled / wall if wall else 1.0
        execution = Execution(
            op, traced, wall, cpu, scale, process_s, usage["maxrss_kb"] / 1024,
            code, digest, failure, trace,
        )
        self.executions.append(execution)
        return execution

    def startup_s(self) -> float:
        """Median wall time of a child that imports the CLI and exits."""
        argv = [sys.executable, "-c", "import plesken.cli"]
        return statistics.median(
            timed(self.spawn(argv, Path(os.devnull))["slices"])[0] for _ in range(STARTUP_PROBES)
        )


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "PLESKEN_OUT_DIR"}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
        PYTHONHASHSEED="0",
    )
    return env


def setup(runner: Runner, workload: str, base: Path, repeats: int) -> tuple[Path, list]:
    """Write the inputs `repeats` times, each in a child that also warms the
    bytecode cache; (the last input directory, each set-up's (measured,
    reference) seconds)."""
    times, directory = [], base
    for rep in range(repeats):
        directory = base / f"inputs{rep}"
        directory.mkdir()
        argv = [sys.executable, str(CHILD), "setup", workload, str(directory)]
        usage = runner.spawn(argv, Path(os.devnull))
        if usage["exit"] != 0:
            raise RuntimeError(f"set-up of {workload} failed with exit {usage['exit']}")
        times.append(timed(usage["slices"]))
    return directory, times


def measure(runner: Runner, ops: list[Op], rng: random.Random, seconds: float) -> None:
    """Closed loop: passes in seeded order until the next op would overrun,
    each op running at least MIN_SAMPLES times."""
    end = time.perf_counter() + seconds
    last: dict[str, float] = {}
    samples: dict[str, int] = dict.fromkeys((op.name for op in ops), 0)
    while True:
        order = list(ops)
        rng.shuffle(order)
        ran = False
        for op in order:
            if samples[op.name] >= MIN_SAMPLES and time.perf_counter() + last[op.name] > end:
                continue
            if time.perf_counter() > runner.deadline - 30:
                return
            last[op.name] = runner.execute(op, traced=False).process_s
            samples[op.name] += 1
            ran = True
        if not ran:
            return


def end_to_end(runner: Runner, setups: list, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics, in reference seconds or, unscaled, as measured."""
    by_op: dict[str, list[Execution]] = {}
    for ex in runner.executions:
        by_op.setdefault(ex.op.name, []).append(ex)

    def pass_time(field: str) -> float:
        return sum(
            statistics.median(getattr(e, field) * (e.scale if scaled else 1) for e in exs)
            for exs in by_op.values()
        )

    return {
        "wall_s": pass_time("wall_s"),
        "cpu_s": pass_time("cpu_s"),
        "peak_rss_mb": max(e.rss_mb for e in runner.executions),
        "setup_s": statistics.median(times[scaled] for times in setups),
    }


def per_layer(untraced: list[Execution], traced: list[Execution], startup_s: float) -> dict:
    totals: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    cli_overhead = 0.0
    for ex in traced:
        if ex.trace is None:
            continue
        stats = span_stats(ex.trace["spans"])
        for span, entry in stats.items():
            layer = "builders" if span.startswith("builders.") else span
            for field, value in entry.items():
                if f"{layer}.{field}" in totals:
                    totals[f"{layer}.{field}"] += value
        for key, value in ex.trace["counts"].items():
            totals[key] += value
        if "cli.main" in stats:
            cli_overhead += (
                ex.process_s - stats["cli.main"]["total_s"]
                - ex.trace["install_s"] - ex.trace["dump_s"]
            )
    totals["cli.startup_s"] = startup_s
    totals["cli.overhead_s"] = cli_overhead
    totals["trace.overhead_s"] = (
        sum(e.wall_s * e.scale for e in traced) - sum(e.wall_s * e.scale for e in untraced)
    )
    return {k: int(v) if PER_LAYER[k] == "count" else v for k, v in totals.items()}


def run_context() -> dict:
    return {
        "commit": git_head(),
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": os.getloadavg(),
    }


def git_head() -> str:
    """The checked-out commit, read without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "plesken" / "__init__.py").is_file():
        print(f"error: no plesken package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    context = run_context()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        with Runner(scratch, started, None if args.trace else SLICE_S) as runner:
            runner.workdir, setups = setup(
                runner, args.workload, scratch, 1 if args.trace else SETUP_REPEATS
            )
            rng = random.Random(args.seed)
            ops = WORKLOADS[args.workload].ops(args.seed)
            if args.trace:
                order = list(ops)
                rng.shuffle(order)
                untraced = [runner.execute(op, traced=False) for op in order]
                traced = [runner.execute(op, traced=True) for op in order]
                metrics = per_layer(untraced, traced, runner.startup_s())
            else:
                measure(runner, ops, rng, args.seconds)
                metrics = end_to_end(runner, setups)
                measured = end_to_end(runner, setups, scaled=False)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    context["loadavg_after"] = os.getloadavg()

    units = PER_LAYER if args.trace else END_TO_END
    executions = runner.executions
    failed = sum(1 for e in executions if e.failure)
    result = {
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": context, "setups": setups,
        "executions": [e.record() for e in executions], "result": result,
    }
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"plesken benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced pass' if args.trace else f'{args.seconds:g} s'}")
    print("context: " + json.dumps(context))
    for ex in executions:
        if ex.failure:
            print(f"FAILED {ex.op.name}: {ex.failure}")
    for name in units:
        line = f"  {name:<42} {metrics[name]:>14.6g} {units[name]}"
        if not args.trace and units[name] == "s":
            line += f"  (measured {measured[name]:.6g} s)"
        print(line)
    print(f"  {'fail_ratio':<42} {failed / max(1, len(executions)):>14.6g} "
          f"({failed} of {len(executions)} operations)")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
