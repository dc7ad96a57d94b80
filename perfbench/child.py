"""One benchmark operation in a fresh process.

    child.py setup WORKLOAD DIR          write the workload's inputs into DIR
    child.py [--trace OUT] cli ARGS...   run `plesken ARGS...`, traced into OUT
    child.py [--trace OUT] lib CASE      build CASE, then time the Lie pipeline

Untraced CLI operations do not come here: the harness runs
`python -m plesken` itself.  A `lib` operation builds its algebra and cell
datum first, then times plesken_lie_algebra -> fingerprint -> verify_theorem
and prints one JSON line: the library's results, the timed section's start
and end on `time.perf_counter()` (the clock the launcher uses) and its CPU
time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

LIB_CASES = {
    "TL_3(6)": ("temperley_lieb", (6, 3), "cell_datum_temperley_lieb", 6),
    "PR(4)": ("planar_rook", (4,), "cell_datum_planar_rook", 4),
}


def run_lib(case: str) -> int:
    import plesken

    builder, args, datum_builder, n = LIB_CASES[case]
    algebra, sigma = getattr(plesken, builder)(*args)
    datum = getattr(plesken, datum_builder)(n, sigma)
    start, cpu = time.perf_counter(), time.process_time()
    lie = plesken.plesken_lie_algebra(algebra, sigma)
    fp = plesken.fingerprint(lie)
    outcome = plesken.verify_theorem(algebra, sigma, datum)
    end, cpu = time.perf_counter(), time.process_time() - cpu
    result = {
        "algebra_dim": algebra.dim,
        "fingerprint": fp.as_dict(),
        "theorem": outcome.as_dict(),
    }
    print(json.dumps({"result": result, "work": [start, end], "work_cpu_s": cpu}))
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        # Importing what the operations import also warms the bytecode cache.
        import plesken.cli  # noqa: F401
        import plesken.suite  # noqa: F401
        import tracer  # noqa: F401
        from workloads import WORKLOADS

        WORKLOADS[argv[1]].setup(Path(argv[2]))
        return 0
    trace_out = None
    if argv[0] == "--trace":
        trace_out, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    import plesken.cli

    tracer = None
    install_s = 0.0
    if trace_out is not None:
        from tracer import Tracer

        tracer = Tracer()
        started = time.perf_counter()
        tracer.install()
        install_s = time.perf_counter() - started
    if mode == "cli":
        code = plesken.cli.main(rest)
    elif mode == "lib":
        code = run_lib(rest[0])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_out, install_s=install_s)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
