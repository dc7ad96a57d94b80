"""Spawns the benchmark's children and reports their wall time and usage.

A child's max-RSS counts the pages of the process that forked it, up to the
child's exec.  The harness's memory grows with what it records, so it does
not fork the children itself: this small process does, and stays small.

The speed of the virtual machines this benchmark runs on drifts by tens of
percent within seconds.  So this process measures the machine's current
speed with a fixed reference loop just before a child starts, just after it
ends and, when the request gives a `slice_s`, every `slice_s` seconds in
between, while the child is stopped with SIGSTOP.  It pins itself, and so
its children, to one CPU, so that the loop and the child run on the same
CPU and a stopped child cannot run while the loop does.

One JSON request per stdin line: {"argv", "cwd", "stdout", "stderr",
"limit", "slice_s"}.  One JSON reply per stdout line: {"exit", "cpu_s",
"maxrss_kb", "slices"}.  Each slice is [start, end, ref_s]: an interval of
`time.perf_counter()` in which the child ran, and the mean of the reference
loop times at its two ends.  Children inherit this process's environment.
A child still running after `limit` seconds is killed.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_TERMS = 20000


def reference() -> float:
    """Wall time of a fixed loop of the Fraction arithmetic plesken runs on."""
    started = time.perf_counter()
    step, total = Fraction(1, 3), Fraction(0)
    for i in range(REFERENCE_TERMS):
        total += step * i
    return time.perf_counter() - started


def run(request: dict) -> dict:
    slices = []
    ref = reference()
    with open(request["stdout"], "wb") as stdout, open(request["stderr"], "wb") as stderr:
        started = start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"],
            stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr,
        )
        exited = os.pidfd_open(proc.pid)
        try:
            while not select.select([exited], [], [], request["slice_s"] or request["limit"])[0]:
                if not request["slice_s"] or time.perf_counter() - started > request["limit"]:
                    proc.kill()
                    break
                os.kill(proc.pid, signal.SIGSTOP)
                end = time.perf_counter()
                previous, ref = ref, reference()
                slices.append([start, end, (previous + ref) / 2])
                os.kill(proc.pid, signal.SIGCONT)
                start = time.perf_counter()
            end = time.perf_counter()
        finally:
            os.close(exited)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    previous, ref = ref, reference()
    slices.append([start, end, (previous + ref) / 2])
    return {
        "exit": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "slices": slices,
    }


def main() -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
