"""The four workloads: their inputs, operations and expected outcomes.

Each operation is one fresh process.  `expect` maps a dotted path into the
operation's JSON output to the value it must have; `*` maps over a list or
over a dict's values, a trailing `#` takes a length, and `exit` is the exit
code.  The expected values are facts about the mathematics (certificates,
refutations, dimensions), so they hold on every correct commit.  A `build`
operation also expects `algebra_sha256`, the digest of the algebra its
document holds (see `algebra_digest`).

The workload seed is passed as `--seed` to `analyze`, `verify-cellular` and
`paper-suite`, and (in the harness) orders the operations within each pass.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ALL_PASS = ["pass"] * 4  # associativity, bracket_closure, involution, unit


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # "cli": `python -m plesken ARGS`; "lib": child.py lib CASE
    args: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    output: str | None = None  # file the operation writes; else its stdout


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Path], None]  # writes the inputs into a directory
    ops: Callable[[int], list[Op]]  # seed -> operations of one pass


# -- inputs -----------------------------------------------------------------


def _documents():
    """(file, name, algebra, sigma, cell datum) as `plesken build` makes them."""
    from plesken import (
        cell_datum_matrix,
        cell_datum_planar_rook,
        cell_datum_temperley_lieb,
        group_algebra,
        matrix_algebra,
        matrix_over_algebra,
        planar_rook,
        quaternions,
        temperley_lieb,
    )
    from plesken.suite import symmetric_3_table

    def with_datum(algebra_sigma, datum_builder, n):
        algebra, sigma = algebra_sigma
        return algebra, sigma, datum_builder(n, sigma)

    return [
        ("tl35", "temperley-lieb-n5-delta3",
         *with_datum(temperley_lieb(5, "3"), cell_datum_temperley_lieb, 5)),
        ("tl04", "temperley-lieb-n4-delta0",
         *with_datum(temperley_lieb(4, "0"), cell_datum_temperley_lieb, 4)),
        ("pr3", "planar-rook-n3", *with_datum(planar_rook(3), cell_datum_planar_rook, 3)),
        ("m5", "matrix-n5", *with_datum(matrix_algebra(5), cell_datum_matrix, 5)),
        ("q", "quaternions", *quaternions(), None),
        ("m3c", "matrix-conj-n3", *matrix_algebra(3, "conj_transpose"), None),
        ("mq2", "matrix-over-quaternions-n2", *matrix_over_algebra(2, *quaternions()), None),
        ("s3", "S3", *group_algebra(symmetric_3_table()), None),
    ]


def _write_document(directory: Path, stem: str, name, algebra, sigma, datum) -> None:
    from plesken import document_from_algebra, emit

    doc = document_from_algebra(name, algebra, sigma, cell=datum)
    (directory / f"{stem}.plesken.json").write_text(emit(doc))


def setup_verify(directory: Path) -> None:
    for stem, name, algebra, sigma, datum in _documents():
        _write_document(directory, stem, name, algebra, sigma, datum)


def setup_build(directory: Path) -> None:
    from plesken import quaternions
    from plesken.suite import symmetric_3_table

    table = symmetric_3_table()
    payload = {"name": "S3", "product": [list(row) for row in table.product],
               "labels": list(table.labels)}
    (directory / "s3-table.json").write_text(json.dumps(payload))
    _write_document(directory, "q-inner", "quaternions", *quaternions(), None)


def setup_suite(directory: Path) -> None:
    pass


def setup_lie(directory: Path) -> None:
    """The algebras and cell data that each lib-lie child builds before timing."""
    from plesken import (
        cell_datum_planar_rook,
        cell_datum_temperley_lieb,
        planar_rook,
        temperley_lieb,
    )

    _, sigma = temperley_lieb(6, 3)
    cell_datum_temperley_lieb(6, sigma)
    _, sigma = planar_rook(4)
    cell_datum_planar_rook(4, sigma)


# -- operations ---------------------------------------------------------------


def ops_verify(seed: int) -> list[Op]:
    def op(kind, stem, label, expect):
        args = (kind, f"{stem}.plesken.json", "--seed", str(seed))
        return Op(f"{kind}:{label}", "cli", args, {"checks.*": ALL_PASS, **expect})

    certified = {"exit": 0, "theorem.certified": True}
    return [
        op("verify-cellular", "tl35", "TL_3(5)",
           {**certified, "theorem.lie_dim": 16, "theorem.blocks.*.size": [5, 4, 1]}),
        op("verify-cellular", "tl04", "TL_0(4)", {
            "exit": 1,
            "theorem.certified": False,
            "theorem.failed_check": "representation_injective",
            "fingerprint.derived_dims": [4, 3, 1, 0],
        }),
        op("verify-cellular", "pr3", "PR(3)", {**certified, "theorem.blocks.*.size": [1, 3, 3, 1]}),
        op("verify-cellular", "m5", "M(5)", {**certified, "theorem.blocks.*.size": [5]}),
        op("analyze", "q", "H", {"exit": 0, "plesken.dim": 3, "fingerprint.solvable": False}),
        op("analyze", "m3c", "M(3)*", {"exit": 0, "plesken.dim": 9, "fingerprint.center_dim": 1}),
        op("analyze", "mq2", "M(2,H)", {"exit": 0, "plesken.dim": 10, "fingerprint.killing_rank": 10}),
        op("analyze", "s3", "QS3", {"exit": 0, "plesken.dim": 1, "fingerprint.nilpotent": True}),
    ]


def ops_build(seed: int) -> list[Op]:
    def op(label, family, stem, dim, digest, *extra):
        out = f"{stem}.plesken.json"
        args = ("build", "--family", family, *extra, "--out", out)
        expect = {"exit": 0, "basis#": dim, "algebra_sha256": digest}
        return Op(f"build:{label}", "cli", args, expect, output=out)

    return [
        op("TL_3(5)", "temperley-lieb", "tl35", 42,
           "3118603be026b7c64d8b580100bea3319d4727af2a77675dc4c29da3664b307f",
           "--n", "5", "--delta", "3"),
        op("TL_0(5)", "temperley-lieb", "tl05", 42,
           "29b84994e47040da690dfd64077d6383a3fd9f0f7461003c384036c083d87d97",
           "--n", "5", "--delta", "0"),
        op("PR(3)", "planar-rook", "pr3", 20,
           "c80f9dcf3e566a25e3026f7686cf4e31ab15a20145732efdf7bcb2f843ff3e08", "--n", "3"),
        op("M(5)", "matrix", "m5", 25,
           "6594e5b7de721ddfaf70e72d6714c9daff9e090ed5674a939c7465e9a6d0d46c", "--n", "5"),
        op("M(3)*", "matrix-conj", "m3c", 9,
           "e4942ee892c5e05fd03e1718aeaa7ed66856cbb514e16fc6de7cca0e0ea41804", "--n", "3"),
        op("H", "quaternions", "q", 4,
           "9c1892024ea7945e1fd721c6080b648cc013c679695145489c12597389e00dcb"),
        op("QS3", "group", "s3", 6,
           "507c8545c4c535befc0b0756465144d1db790e87bbf5c2bc88d5405c900756dc",
           "--table", "s3-table.json"),
        op("M(2,H)", "matrix-over", "mq2", 16,
           "3a863790b5488e90c9c6b3a87f65c0c5af4720429df56964600926f03f95cc23",
           "--n", "2", "--inner", "q-inner.plesken.json"),
    ]


def ops_suite(seed: int) -> list[Op]:
    expect = {"exit": 0, "results#": 26, "results.*.status": ["pass"] * 26,
              "failed": [], "skipped": []}
    return [Op("paper-suite", "cli", ("paper-suite", "--seed", str(seed)), expect)]


def ops_lie(seed: int) -> list[Op]:
    return [
        Op("lib:TL_3(6)", "lib", ("TL_3(6)",), {
            "theorem.certified": True,
            "theorem.lie_dim": 56,
            "fingerprint.killing_rank": 56,
            "fingerprint.center_dim": 0,
        }),
        Op("lib:PR(4)", "lib", ("PR(4)",), {
            "theorem.certified": True,
            "theorem.blocks.*.size": [1, 4, 6, 4, 1],
            "fingerprint.killing_rank": 27,
        }),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-verify", setup_verify, ops_verify),
        Workload("cli-build", setup_build, ops_build),
        Workload("paper-suite", setup_suite, ops_suite),
        Workload("lib-lie", setup_lie, ops_lie),
    )
}


# -- checking -----------------------------------------------------------------


def lookup(payload, path: str):
    """Follow a dotted path; `*` maps over a list or dict, `#` takes a length."""
    values, many = [payload], False
    for part in path.split("."):
        count = part.endswith("#")
        part = part.rstrip("#")
        if part == "*":
            values = [v for value in values
                      for v in (value.values() if isinstance(value, dict) else value)]
            many = True
        else:
            values = [value[part] for value in values]
        if count:
            values = [len(value) for value in values]
    return values if many else values[0]


def algebra_digest(doc: dict) -> str:
    """SHA-256 of the algebra in a plesken document: its basis, structure
    constants (in any order), unit and involution.  The name, metadata and
    layout do not count, so only a different algebra changes it."""
    content = {key: doc[key] for key in ("basis", "unit", "involution")}
    content["structure"] = sorted(doc["structure"])
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()


def mismatch(op: Op, exit_code: int, payload) -> str | None:
    """The first expectation the outcome breaks, or None."""
    for path, expected in op.expect.items():
        if path == "exit":
            actual = exit_code
        elif path == "algebra_sha256":
            try:
                actual = algebra_digest(payload)
            except (KeyError, TypeError):
                return f"{path}: output is not a plesken document"
        else:
            try:
                actual = lookup(payload, path)
            except (KeyError, TypeError, IndexError):
                return f"{path}: missing from output"
        if actual != expected:
            return f"{path}: expected {expected!r}, got {actual!r}"
    return None
