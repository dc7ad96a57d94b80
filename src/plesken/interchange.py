"""JSON interchange for algebras, involutions and cell data.

Document layout (format_version "1"):

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

Scalars are exact strings, never decimals.  Cell index labels may be
integers or (nested) lists of integers; they are converted to tuples on
parse, so parse(emit(doc)) == doc.  Emission sorts keys and uses a fixed
layout, making output byte-deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .algebra import Algebra, AntiInvolution
from .builders import signed_permutation_matrix
from .cellular import CellDatum
from .linalg import Matrix
from .scalars import ONE, GaussianRational, scalar

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
    """`value` if it is a JSON list of JSON lists."""
    return [_list(row, f"each entry of {what}") for row in _list(value, what)]


def _thaw_label(value):
    if isinstance(value, tuple):
        return [_thaw_label(v) for v in value]
    return value


@dataclass(frozen=True)
class CellSection:
    lambdas: tuple
    order: tuple[tuple, ...]  # pairs (a, b) with a < b in the cell order
    index_sets: tuple[tuple, ...]  # (lam, (label, ...)) in lambda order
    triples: tuple[tuple, ...]  # (lam, s, t, basis index)

    @classmethod
    def from_datum(cls, cd: CellDatum) -> CellSection:
        return cls(
            lambdas=tuple(cd.lambdas),
            order=tuple(sorted(cd.less)),
            index_sets=tuple((lam, cd.index_sets[lam]) for lam in cd.lambdas),
            triples=tuple(
                sorted(((lam, s, t, idx) for (lam, s, t), idx in cd.basis_map.items()),
                       key=lambda item: item[3])
            ),
        )

    def to_datum(self, involution: AntiInvolution) -> CellDatum:
        return CellDatum(
            self.lambdas,
            self.order,
            dict(self.index_sets),
            {(lam, s, t): idx for lam, s, t, idx in self.triples},
            involution,
        )


@dataclass
class AlgebraDocument:
    name: str
    basis: tuple[str, ...]
    structure: tuple[tuple[int, int, int, GaussianRational], ...]
    unit: tuple[GaussianRational, ...]
    involution_matrix: Matrix
    conjugates_scalars: bool = False
    cell: Optional[CellSection] = None
    metadata: dict = field(default_factory=dict)
    format_version: str = FORMAT_VERSION

    def __post_init__(self):
        self.basis = tuple(self.basis)
        self.structure = tuple(
            sorted((i, j, k, scalar(c)) for i, j, k, c in self.structure)
        )
        self.unit = tuple(scalar(c) for c in self.unit)

    def to_algebra(self) -> tuple[Algebra, AntiInvolution, Optional[CellDatum]]:
        table: dict[tuple[int, int], list] = {}
        for i, j, k, c in self.structure:
            table.setdefault((i, j), []).append((k, c))
        algebra = Algebra(self.basis, table, self.unit)
        sigma = AntiInvolution(self.involution_matrix, self.conjugates_scalars)
        datum = self.cell.to_datum(sigma) if self.cell is not None else None
        return algebra, sigma, datum


def document_from_algebra(
    name: str,
    algebra: Algebra,
    sigma: AntiInvolution,
    cell: Optional[CellDatum] = None,
    metadata: Optional[dict] = None,
) -> AlgebraDocument:
    structure = tuple(
        (i, j, k, c)
        for (i, j), terms in algebra.structure.items()
        for k, c in terms
    )
    return AlgebraDocument(
        name=name,
        basis=algebra.labels,
        structure=structure,
        unit=algebra.unit,
        involution_matrix=sigma.matrix,
        conjugates_scalars=sigma.conjugates_scalars,
        cell=CellSection.from_datum(cell) if cell is not None else None,
        metadata=dict(metadata or {}),
    )


def _involution_payload(doc: AlgebraDocument) -> dict:
    shorthand = AntiInvolution(doc.involution_matrix)._signed_permutation
    if shorthand is not None:
        perm, signs = shorthand
        return {
            "permutation": list(perm),
            "signs": [1 if sign == ONE else -1 for sign in signs],
            "conjugates_scalars": doc.conjugates_scalars,
        }
    return {
        "matrix": [[str(v) for v in row] for row in doc.involution_matrix.data],
        "conjugates_scalars": doc.conjugates_scalars,
    }


def document_to_jsonable(doc: AlgebraDocument) -> dict:
    payload: dict = {
        "format_version": doc.format_version,
        "name": doc.name,
        "basis": list(doc.basis),
        "structure": [[i, j, k, str(c)] for i, j, k, c in doc.structure],
        "unit": [str(c) for c in doc.unit],
        "involution": _involution_payload(doc),
        "metadata": doc.metadata,
    }
    if doc.cell is not None:
        payload["cell"] = {
            "lambdas": [_thaw_label(lam) for lam in doc.cell.lambdas],
            "order": [[_thaw_label(a), _thaw_label(b)] for a, b in doc.cell.order],
            "index_sets": [
                [_thaw_label(lam), [_thaw_label(s) for s in members]]
                for lam, members in doc.cell.index_sets
            ],
            "triples": [
                [_thaw_label(lam), _thaw_label(s), _thaw_label(t), idx]
                for lam, s, t, idx in doc.cell.triples
            ],
        }
    return payload


def emit(doc: AlgebraDocument) -> str:
    return json.dumps(document_to_jsonable(doc), indent=2, sort_keys=True) + "\n"


def _parse_involution(payload: dict, dim: int) -> tuple[Matrix, bool]:
    conj = payload.get("conjugates_scalars", False)
    if not isinstance(conj, bool):
        raise ValueError("involution conjugates_scalars must be true or false")
    if "matrix" in payload:
        rows = [[scalar(v) for v in row] for row in _rows(payload["matrix"], "involution matrix")]
        matrix = Matrix(rows)
        if matrix.rows != dim or matrix.cols != dim:
            raise ValueError("involution matrix has wrong shape")
        return matrix, conj
    perm = _list(payload["permutation"], "involution permutation")
    if not all(type(p) is int for p in perm) or sorted(perm) != list(range(dim)):
        raise ValueError("involution permutation is not a permutation")
    signs = payload.get("signs")
    if "signs" in payload and not (isinstance(signs, list) and len(signs) == dim):
        raise ValueError("involution signs must be a list of length dim")
    return signed_permutation_matrix(dim, perm, signs), conj


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
    structure = []
    for quad in _rows(payload["structure"], "structure"):
        i, j, k, c = quad
        # type(v) is int: JSON true and false are not indices.
        if not all(type(v) is int and 0 <= v < dim for v in (i, j, k)):
            raise ValueError(f"structure indices out of range: {quad}")
        structure.append((i, j, k, scalar(c)))
    unit = [scalar(c) for c in _list(payload["unit"], "unit")]
    if len(unit) != dim:
        raise ValueError("unit vector has wrong length")
    involution = payload["involution"]
    if not isinstance(involution, dict):
        raise ValueError("involution must be a JSON object")
    matrix, conj = _parse_involution(involution, dim)
    cell = None
    if "cell" in payload:
        raw = payload["cell"]
        lambdas = tuple(_freeze_label(v) for v in _list(raw["lambdas"], "cell lambdas"))
        order = tuple(
            (_freeze_label(a), _freeze_label(b)) for a, b in _rows(raw["order"], "cell order")
        )
        index_sets = tuple(
            (_freeze_label(lam), tuple(_freeze_label(s) for s in _list(members, "an index set")))
            for lam, members in _rows(raw["index_sets"], "cell index_sets")
        )
        triples = []
        for lam, s, t, idx in _rows(raw["triples"], "cell triples"):
            if type(idx) is not int or not 0 <= idx < dim:
                raise ValueError(f"cell triple index out of range: {idx}")
            triples.append(
                (_freeze_label(lam), _freeze_label(s), _freeze_label(t), idx)
            )
        cell = CellSection(lambdas, order, index_sets, tuple(triples))
    if not isinstance(payload["name"], str):
        raise ValueError("name must be a JSON string")
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError("metadata must be a JSON object")
    return AlgebraDocument(
        name=payload["name"],
        basis=tuple(basis),
        structure=tuple(structure),
        unit=tuple(unit),
        involution_matrix=matrix,
        conjugates_scalars=conj,
        cell=cell,
        metadata=metadata,
    )


def save(doc: AlgebraDocument, path) -> Path:
    path = Path(path)
    path.write_text(emit(doc))
    return path


def load(path) -> AlgebraDocument:
    return parse(Path(path).read_text())
