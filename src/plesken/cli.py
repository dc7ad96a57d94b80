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
override for relative --out paths.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .algebra import InternalConsistencyError
from .builders import (
    DEFAULT_DIAGRAM_CAP,
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
    DEFAULT_BRACKET_CAP,
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

FAMILIES = (
    "quaternions",
    "matrix",
    "matrix-conj",
    "group",
    "matrix-over",
    "planar-rook",
    "temperley-lieb",
)


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
    family = args.family
    cell = None
    if family == "quaternions":
        name = "quaternions"
        algebra, sigma = quaternions()
    elif family in ("matrix", "matrix-conj"):
        if args.n is None:
            raise DocumentInvalid("--n is required for matrix families")
        involution = "transpose" if family == "matrix" else "conj_transpose"
        algebra, sigma = matrix_algebra(args.n, involution)
        if family == "matrix":
            cell = cell_datum_matrix(args.n, sigma)
        name = f"{family}-n{args.n}"
    elif family == "group":
        if args.table is None:
            raise DocumentInvalid("--table is required for the group family")
        import json

        try:
            raw = json.loads(Path(args.table).read_text())
        except OSError as exc:
            raise DocumentInvalid(f"cannot read {args.table}: {exc}") from exc
        except RecursionError as exc:  # nesting deeper than the JSON decoder's stack
            raise DocumentInvalid(f"cannot parse {args.table}: {exc}") from exc
        try:
            table = GroupTable(raw["product"], labels=raw.get("labels"))
        except (KeyError, TypeError) as exc:
            raise DocumentInvalid(f"malformed group table: {exc}") from exc
        name, labels = raw.get("name", Path(args.table).stem), raw.get("labels", [])
        if not isinstance(name, str):
            raise DocumentInvalid("group table name must be a JSON string")
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise DocumentInvalid("group table labels must be a JSON list of strings")
        algebra, sigma = group_algebra(table)
    elif family == "matrix-over":
        if args.n is None or args.inner is None:
            raise DocumentInvalid("--n and --inner are required for matrix-over")
        inner = _load_validated(args.inner)
        algebra, sigma = matrix_over_algebra(args.n, inner.algebra, inner.sigma)
        name = f"matrix-over-{inner.name}-n{args.n}"
    elif family == "planar-rook":
        if args.n is None:
            raise DocumentInvalid("--n is required for planar-rook")
        algebra, sigma = planar_rook(args.n, cap=args.cap)
        cell = cell_datum_planar_rook(args.n, sigma)
        name = f"planar-rook-n{args.n}"
    elif family == "temperley-lieb":
        if args.n is None or args.delta is None:
            raise DocumentInvalid("--n and --delta are required for temperley-lieb")
        algebra, sigma = temperley_lieb(args.n, args.delta, cap=args.cap)
        cell = cell_datum_temperley_lieb(args.n, sigma)
        name = f"temperley-lieb-n{args.n}-delta{_sanitize(args.delta)}"
    else:
        raise DocumentInvalid(f"unknown family {family!r}")
    return name, algebra, sigma, cell


def _build(args) -> int:
    try:
        name, algebra, sigma, cell = _family_member(args)
    except ValueError as exc:  # the builders refuse their arguments with ValueError
        raise DocumentInvalid(str(exc)) from exc
    validate_algebra(algebra, sigma)  # refuse to emit invalid documents
    doc = document_from_algebra(args.name or name, algebra, sigma, cell=cell)
    path = _out_path(args.out, doc.name)
    _write_or_print(lambda file: emit(doc, file), path)
    return EXIT_OK


def _load_validated(path: str) -> AlgebraDocument:
    try:
        return load(path)
    except OSError as exc:
        raise DocumentInvalid(f"cannot read {path}: {exc}") from exc
    except (ValueError, TypeError, RecursionError) as exc:
        raise DocumentInvalid(f"cannot parse {path}: {exc}") from exc
    except KeyError as exc:
        raise DocumentInvalid(f"cannot parse {path}: missing field {exc}") from exc


def _emit_report(report: dict, args) -> None:
    if args.timing:
        report["timing_ms"] = int((time.monotonic() - args.started) * 1000)
    text = render_markdown(report) if getattr(args, "format", None) == "md" else dumps(report)
    _write_or_print(lambda file: file.write(text), _out_path(args.out, None))


def _analyze(args) -> int:
    doc = _load_validated(args.document)
    report = analysis_report(
        doc.name, doc.algebra, doc.sigma, bracket_cap=args.bracket_cap, seed=args.seed
    )
    _emit_report(report, args)
    return EXIT_OK


def _verify_cellular(args) -> int:
    doc = _load_validated(args.document)
    if doc.cell is None:
        raise DocumentInvalid("document has no cell section")
    report = cellular_report(
        doc.name, doc.algebra, doc.sigma, doc.cell, bracket_cap=args.bracket_cap, seed=args.seed
    )
    _emit_report(report, args)
    if not report["cellularity"]["valid"]:
        return EXIT_INVALID
    return EXIT_OK if report["theorem"]["certified"] else EXIT_REFUTED


def _paper_suite(args) -> int:
    results = run_suite(cap=args.cap)
    statuses = {info["status"] for info in results.values()}
    payload = {
        "cap": args.cap,
        "seed": args.seed,
        "results": results,
        "failed": sorted(k for k, v in results.items() if v["status"] == "fail"),
        "skipped": sorted(k for k, v in results.items() if v["status"] == "skip"),
    }
    _emit_report(payload, args)
    refuted = "fail" in statuses or ("skip" in statuses and not args.allow_skips)
    return EXIT_REFUTED if refuted else EXIT_OK


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
    build.add_argument("--cap", type=int, default=DEFAULT_DIAGRAM_CAP)
    build.add_argument("--name")
    build.add_argument("--out")
    build.set_defaults(func=_build)

    for key, func in (("analyze", _analyze), ("verify-cellular", _verify_cellular)):
        cmd = sub.add_parser(key)
        cmd.add_argument("document")
        cmd.add_argument("--format", choices=("json", "md"), default="json")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--bracket-cap", type=int, default=DEFAULT_BRACKET_CAP)
        cmd.add_argument("--out")
        cmd.add_argument("--timing", action="store_true")
        cmd.set_defaults(func=func)

    suite = sub.add_parser("paper-suite", help="run the verification battery")
    suite.add_argument("--cap", type=int, default=DEFAULT_DIAGRAM_CAP)
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--allow-skips", action="store_true")
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
