"""JSON interchange for algebras, involutions and cell data.

Document layout (format_version "1", the only one):

    {
      "format_version": "1",
      "name": "...",
      "basis": ["label", ...],
      "structure": [[i, j, k, "scalar"], ...],       # e_i e_j has k-term
      "unit": ["scalar", ...],
      "involution": {"permutation": [...], "signs": [...],
                     "conjugates_scalars": false}
                 or {"matrix": [["scalar", ...], ...],
                     "conjugates_scalars": false},
      "cell": {"lambdas": [...], "order": [[a, b], ...],
               "index_sets": [[lam, [label, ...]], ...],
               "triples": [[lam, s, t, index], ...]}   # optional
      "metadata": {...}
    }

In memory a document is the `Algebra`, `AntiInvolution` and `CellDatum`
it describes.  `parse` builds them directly, the structure quads going to
`Algebra` as read, so their constructors' checks (distinct labels,
structure indices that are ints in range, a strict order on known cells,
one index set per known cell with no member twice) refuse a document in
`parse`, with ValueError, as `parse` itself refuses a cell given two index
sets or a cell triple listed twice.  The involution is
read into the sparse images sigma(e_j): from the permutation and signs, or
from the columns of the matrix.  `emit` writes straight from them, the
shorthand whenever sigma is a signed permutation.

Scalars are exact strings, never decimals.  Cell labels may be integers,
strings or (nested) lists of them; lists are converted to tuples on parse,
so parse(emit(doc)) == doc.  Emission sorts keys, and order pairs by
`_label_key`, and uses a fixed layout, making output byte-deterministic:
that of json.dumps(..., indent=2, sort_keys=True).  The keys sorting
before "structure", and "unit" after it, go through json.dumps; the
structure quads are written row by row from `Algebra.rows`, so no JSON
object per quad and, with an open `file`, no whole-document string is held.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import Optional, TextIO

from .algebra import Algebra, AntiInvolution
from .cellular import CellDatum

FORMAT_VERSION = "1"
FILE_SUFFIX = ".plesken.json"


def _freeze_label(value):
    if isinstance(value, list):
        return tuple(_freeze_label(v) for v in value)
    if type(value) in (int, str):  # JSON true and false are not labels
        return value
    raise ValueError(f"unsupported cell label {value!r}")


def _list(value, what: str) -> list:
    """`value` if it is a JSON list; a string is not read as one."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list")
    return value


def _rows(value, what: str) -> list[list]:
    """`value` if it is a JSON list of JSON lists, checked in one pass."""
    if not set(map(type, _list(value, what))) <= {list}:
        raise ValueError(f"each entry of {what} must be a JSON list")
    return value


def _thaw_label(value):
    if isinstance(value, tuple):
        return [_thaw_label(v) for v in value]
    return value


def _label_key(value):
    """Sort key on labels of mixed kinds: ints, then strings, then tuples."""
    if isinstance(value, tuple):
        return 2, tuple(map(_label_key, value))
    return int(isinstance(value, str)), value


class AlgebraDocument:
    """A named algebra with its anti-involution and, optionally, cell datum."""

    def __init__(self, name, algebra, sigma, cell=None, metadata=None):
        self.name, self.algebra, self.sigma, self.cell = name, algebra, sigma, cell
        self.metadata = {} if metadata is None else metadata

    def __eq__(self, other):
        return isinstance(other, AlgebraDocument) and all(
            getattr(self, key) == getattr(other, key)
            for key in ("name", "algebra", "sigma", "cell", "metadata")
        )

    __hash__ = None

    def __repr__(self):
        return f"AlgebraDocument(name={self.name!r}, dim={self.algebra.dim})"


def document_from_algebra(
    name: str,
    algebra: Algebra,
    sigma: AntiInvolution,
    cell: Optional[CellDatum] = None,
    metadata: Optional[dict] = None,
) -> AlgebraDocument:
    return AlgebraDocument(name, algebra, sigma, cell, dict(metadata or {}))


def _involution_payload(sigma: AntiInvolution) -> dict:
    payload: dict = {"conjugates_scalars": sigma.conjugates_scalars}
    shorthand = sigma._signed_permutation
    if shorthand is None:
        images = sigma.images
        payload["matrix"] = [[str(im.get(i, 0)) for im in images] for i in range(len(images))]
    else:
        perm, signs = shorthand
        payload["permutation"] = list(perm)
        payload["signs"] = list(signs)
    return payload


def emit(doc: AlgebraDocument, file: Optional[TextIO] = None) -> Optional[str]:
    """The document's text; with an open text `file`, None once it is written there."""
    out = io.StringIO() if file is None else file
    algebra, cell = doc.algebra, doc.cell
    # The top-level keys that sort before "structure", and the one after it.
    before = {
        "basis": list(algebra.labels),
        "format_version": FORMAT_VERSION,
        "involution": _involution_payload(doc.sigma),
        "metadata": doc.metadata,
        "name": doc.name,
    }
    if cell is not None:
        before["cell"] = {
            "lambdas": [_thaw_label(lam) for lam in cell.lambdas],
            "order": [_thaw_label(pair) for pair in sorted(cell.less, key=_label_key)],
            "index_sets": [_thaw_label((lam, cell.index_sets[lam])) for lam in cell.lambdas],
            "triples": [
                [*_thaw_label(triple), idx]
                for triple, idx in sorted(cell.basis_map.items(), key=lambda item: item[1])
            ],
        }
    head = json.dumps(before, indent=2, sort_keys=True)
    tail = json.dumps({"unit": [str(c) for c in algebra.unit]}, indent=2)
    out.write(head[: -len("\n}")] + ',\n  "structure": [')
    # Rows in order, each by j, and each term tuple sorted by target: the
    # (i, j, k) order, one row at a time, each coefficient encoded once.
    codes: dict = {}
    sep = ""
    for i, row in enumerate(algebra.rows):
        quads = ",".join(
            f"\n    [\n      {i},\n      {j},\n      {k},\n      "
            f"{codes.get(c) or codes.setdefault(c, json.dumps(str(c)))}\n    ]"
            for j in sorted(row)
            for k, c in row[j]
        )
        if quads:
            out.write(sep + quads)
            sep = ","
    out.write(("\n  ]," if sep else "],") + tail[len("{"):] + "\n")
    return out.getvalue() if file is None else None


def _parse_involution(payload: dict, dim: int) -> AntiInvolution:
    if not isinstance(payload, dict):
        raise ValueError("involution must be a JSON object")
    conj = payload.get("conjugates_scalars", False)
    if not isinstance(conj, bool):
        raise ValueError("involution conjugates_scalars must be true or false")
    if "matrix" in payload:
        rows = _rows(payload["matrix"], "involution matrix")
        if len(rows) != dim or any(len(row) != dim for row in rows):
            raise ValueError("involution matrix has wrong shape")
        return AntiInvolution(tuple(dict(enumerate(column)) for column in zip(*rows)), conj)
    perm = _list(payload["permutation"], "involution permutation")
    if not all(type(p) is int for p in perm) or sorted(perm) != list(range(dim)):
        raise ValueError("involution permutation is not a permutation")
    signs = payload.get("signs")
    if "signs" in payload and not (isinstance(signs, list) and len(signs) == dim):
        raise ValueError("involution signs must be a list of length dim")
    return AntiInvolution.signed_permutation(perm, signs, conj)


def _parse_cell(raw: dict, dim: int, sigma: AntiInvolution) -> CellDatum:
    lambdas = [_freeze_label(v) for v in _list(raw["lambdas"], "cell lambdas")]
    order = [(_freeze_label(a), _freeze_label(b)) for a, b in _rows(raw["order"], "cell order")]
    index_sets = {}
    for lam, members in _rows(raw["index_sets"], "cell index_sets"):
        lam = _freeze_label(lam)
        if lam in index_sets:
            raise ValueError(f"cell {lam!r} has two index sets")
        index_sets[lam] = tuple(map(_freeze_label, _list(members, "an index set")))
    basis_map = {}
    for lam, s, t, idx in _rows(raw["triples"], "cell triples"):
        if type(idx) is not int or not 0 <= idx < dim:
            raise ValueError(f"cell triple index out of range: {idx}")
        triple = (_freeze_label(lam), _freeze_label(s), _freeze_label(t))
        if triple in basis_map:
            raise ValueError(f"cell triple {triple!r} is listed twice")
        basis_map[triple] = idx
    return CellDatum(lambdas, order, index_sets, basis_map, sigma)


def parse(text: str) -> AlgebraDocument:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("document must be a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    basis = payload["basis"]
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise ValueError("basis must be a list of strings")
    dim = len(basis)
    algebra = Algebra(basis, _rows(payload["structure"], "structure"), _list(payload["unit"], "unit"))
    sigma = _parse_involution(payload["involution"], dim)
    cell = _parse_cell(payload["cell"], dim, sigma) if "cell" in payload else None
    if not isinstance(payload["name"], str):
        raise ValueError("name must be a JSON string")
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError("metadata must be a JSON object")
    return AlgebraDocument(payload["name"], algebra, sigma, cell, metadata)


def save(doc: AlgebraDocument, path) -> Path:
    """Write the document to a temporary file beside `path`, then put it in
    place: a failed write leaves an existing file as it was."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temporary.open("w") as file:
            emit(doc, file)
        temporary.replace(path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return path


def load(path) -> AlgebraDocument:
    return parse(Path(path).read_text())
