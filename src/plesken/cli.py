"""Command-line surface.

Subcommands:

    build            construct a family member and emit a .plesken.json document
    analyze          skew-part structure report for a document
    verify-cellular  full cellularity verification and certificate
    paper-suite      run the whole verification battery

Exit codes: 0 success or certificate, 1 refutation or failed battery item
(a mathematically meaningful negative outcome), 2 input or validation
error, 3 internal inconsistency or any other unexpected failure.  The only
environment variable honored is PLESKEN_OUT_DIR, an output-directory
override for relative --out paths.  The --seed is only echoed into the
report or payload, by `_emit_report`; no verdict is randomized.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .algebra import InternalConsistencyError
from .builders import (
    GroupTable,
    group_algebra,
    matrix_algebra,
    matrix_over_algebra,
    planar_rook,
    quaternions,
    temperley_lieb,
)
from .cellular import (
    cell_datum_matrix,
    cell_datum_planar_rook,
    cell_datum_temperley_lieb,
)
from .interchange import FILE_SUFFIX, AlgebraDocument, document_from_algebra, emit, load
from .report import (
    DocumentInvalid,
    analysis_report,
    cellular_report,
    dumps,
    render_markdown,
    validate_algebra,
)
from .suite import run_suite

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3

# The build flags each family needs: the one place that says so.
FAMILIES = {
    "quaternions": (),
    "matrix": ("n",),
    "matrix-conj": ("n",),
    "group": ("table",),
    "matrix-over": ("n", "inner"),
    "planar-rook": ("n",),
    "temperley-lieb": ("n", "delta"),
}


def _out_path(out: str | None, name: str | None) -> Path | None:
    """`out`, else the default file for document `name`, else None (stdout)."""
    if out is None:
        if name is None:
            return None
        if "\0" in name:
            raise DocumentInvalid("document name holds a NUL character")
        # The name is file content: it makes one file in the output directory.
        out = name.replace("/", "_").replace("\\", "_") + FILE_SUFFIX
    target = Path(out)
    base = os.environ.get("PLESKEN_OUT_DIR")
    if base and not target.is_absolute():
        target = Path(base) / target
    return target


def _write_or_print(write, path: Path | None):
    """Call `write` on stdout, or on `path` opened for text."""
    if path is None:
        write(sys.stdout)
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as file:
            write(file)
    except OSError as exc:
        raise DocumentInvalid(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path}")


def _sanitize(text: str) -> str:
    return text.replace("/", "_").replace("+", "p").replace("-", "m")


def _family_member(args):
    """(name, algebra, sigma, cell datum or None) that the build arguments name."""
    family, n = args.family, args.n
    missing = [f"--{flag}" for flag in FAMILIES[family] if getattr(args, flag) is None]
    if missing:
        verb = "is" if len(missing) == 1 else "are"
        raise DocumentInvalid(f"{' and '.join(missing)} {verb} required for {family}")
    if family == "quaternions":
        return "quaternions", *quaternions(), None
    if family in ("matrix", "matrix-conj"):
        algebra, sigma = matrix_algebra(n, "transpose" if family == "matrix" else "conj_transpose")
        cell = cell_datum_matrix(n, sigma) if family == "matrix" else None
        return f"{family}-n{n}", algebra, sigma, cell
    if family == "matrix-over":
        inner = _load(args.inner)
        algebra, sigma = matrix_over_algebra(n, inner.algebra, inner.sigma)
        return f"matrix-over-{inner.name}-n{n}", algebra, sigma, None
    if family == "planar-rook":
        algebra, sigma = planar_rook(n)
        return f"planar-rook-n{n}", algebra, sigma, cell_datum_planar_rook(n, sigma)
    if family == "temperley-lieb":
        algebra, sigma = temperley_lieb(n, args.delta)
        name = f"temperley-lieb-n{n}-delta{_sanitize(args.delta)}"
        return name, algebra, sigma, cell_datum_temperley_lieb(n, sigma)
    try:  # the group family is what is left
        raw = json.loads(Path(args.table).read_text())
    except OSError as exc:
        raise DocumentInvalid(f"cannot read {args.table}: {exc}") from exc
    except RecursionError as exc:  # nesting deeper than the JSON decoder's stack
        raise DocumentInvalid(f"cannot parse {args.table}: {exc}") from exc
    try:
        product = raw["product"]
    except (KeyError, TypeError) as exc:
        raise DocumentInvalid(f"malformed group table: {exc}") from exc
    name, labels = raw.get("name", Path(args.table).stem), raw.get("labels", [])
    if not isinstance(name, str):
        raise DocumentInvalid("group table name must be a JSON string")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise DocumentInvalid("group table labels must be a JSON list of strings")
    try:
        table = GroupTable(product, labels=raw.get("labels"))
    except TypeError as exc:
        raise DocumentInvalid(f"malformed group table: {exc}") from exc
    return name, *group_algebra(table), None


def _build(args) -> int:
    try:
        name, algebra, sigma, cell = _family_member(args)
    except ValueError as exc:  # the builders refuse their arguments with ValueError
        raise DocumentInvalid(str(exc)) from exc
    validate_algebra(algebra, sigma)  # refuse to emit invalid documents
    doc = document_from_algebra(name, algebra, sigma, cell=cell)
    path = _out_path(args.out, doc.name)
    _write_or_print(lambda file: emit(doc, file), path)
    return EXIT_OK


def _load(path: str) -> AlgebraDocument:
    try:
        return load(path)
    except OSError as exc:
        raise DocumentInvalid(f"cannot read {path}: {exc}") from exc
    except (ValueError, TypeError, RecursionError) as exc:
        raise DocumentInvalid(f"cannot parse {path}: {exc}") from exc
    except KeyError as exc:
        raise DocumentInvalid(f"cannot parse {path}: missing field {exc}") from exc


def _emit_report(report: dict, args) -> None:
    report["seed"] = args.seed
    if args.timing:
        report["timing_ms"] = int((time.monotonic() - args.started) * 1000)
    text = render_markdown(report) if getattr(args, "format", None) == "md" else dumps(report)
    _write_or_print(lambda file: file.write(text), _out_path(args.out, None))


def _analyze(args) -> int:
    doc = _load(args.document)
    report = analysis_report(doc.name, doc.algebra, doc.sigma)
    _emit_report(report, args)
    return EXIT_OK


def _verify_cellular(args) -> int:
    doc = _load(args.document)
    if doc.cell is None:
        raise DocumentInvalid("document has no cell section")
    report = cellular_report(doc.name, doc.algebra, doc.sigma, doc.cell)
    _emit_report(report, args)
    if not report["cellularity"]["valid"]:
        return EXIT_INVALID
    return EXIT_OK if report["theorem"]["certified"] else EXIT_REFUTED


def _paper_suite(args) -> int:
    results = run_suite()
    failed = sorted(k for k, v in results.items() if v["status"] == "fail")
    # Nothing is skipped; the key stays because the benchmark and CI read it.
    _emit_report({"results": results, "failed": failed, "skipped": []}, args)
    return EXIT_REFUTED if failed else EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plesken",
        description="Exact verification of skew-part Lie structure for algebras "
        "with anti-involution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a family member")
    build.add_argument("--family", required=True, choices=FAMILIES)
    build.add_argument("--n", type=int)
    build.add_argument("--delta", help="exact scalar string, e.g. 0, 3, 1/2")
    build.add_argument("--table", help="group multiplication table (JSON)")
    build.add_argument("--inner", help="inner algebra document for matrix-over")
    build.add_argument("--out")
    build.set_defaults(func=_build)

    for key, func in (("analyze", _analyze), ("verify-cellular", _verify_cellular)):
        cmd = sub.add_parser(key)
        cmd.add_argument("document")
        cmd.add_argument("--format", choices=("json", "md"), default="json")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--out")
        cmd.add_argument("--timing", action="store_true")
        cmd.set_defaults(func=func)

    suite = sub.add_parser("paper-suite", help="run the verification battery")
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--out")
    suite.add_argument("--timing", action="store_true")
    suite.set_defaults(func=_paper_suite)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    args.started = time.monotonic()
    try:
        return args.func(args)
    except DocumentInvalid as exc:
        _report_error(args, "invalid-input", str(exc))
        return EXIT_INVALID
    except InternalConsistencyError as exc:
        _report_error(args, "internal-inconsistency", str(exc))
        return EXIT_INTERNAL
    except Exception as exc:  # never let a crash read as exit 1, "refutation"
        import traceback  # only a crash needs it
        traceback.print_exc()
        _report_error(args, "internal-error", f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def _report_error(args, kind: str, message: str):
    if getattr(args, "format", None) == "json":
        sys.stdout.write(dumps({"error": {"kind": kind, "message": message}}))
    print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
