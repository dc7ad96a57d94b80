"""The public surface of the package is pinned: a name is added to or
removed from `plesken.__all__` on purpose, with this list, not by accident."""

import plesken

PUBLIC_NAMES = [
    "Algebra", "AlgebraDocument", "AntiInvolution", "CellDatum", "CellForms",
    "CellModule", "Fingerprint", "GaussianRational", "GramForm", "GroupTable",
    "InternalConsistencyError", "LieAlgebra", "Matrix", "PlanarRookDiagram",
    "Subspace", "TLDiagram", "bracket_closure_check", "bracket_span",
    "cell_datum_matrix", "cell_datum_planar_rook", "cell_datum_temperley_lieb",
    "cell_module", "center", "check_gram_properties", "derived_series",
    "document_from_algebra", "emit", "fingerprint", "gram_matrix",
    "group_algebra", "is_semisimple", "killing_form", "load",
    "lower_central_series", "matrix_algebra", "matrix_over_algebra",
    "orthogonal_model", "parse", "planar_rook", "planar_rook_diagrams",
    "plesken_lie_algebra", "quaternions", "rank",
    "rref", "save", "scalar", "temperley_lieb",
    "temperley_lieb_diagrams", "validate_associativity", "validate_cell_datum",
    "validate_involution", "validate_unit", "verify_theorem",
]


def test_public_names_are_pinned():
    assert sorted(plesken.__all__) == PUBLIC_NAMES


# The public members of the two containers, pinned the same way: `Matrix`
# has no arithmetic and no views (its transpose is `transpose(m)` in
# tests/oracles.py), and a `LieAlgebra` holds its bracket table once.
MATRIX_MEMBERS = ["cols", "data", "rows"]
LIE_ALGEBRA_MEMBERS = ["bracket", "bracket_terms"]
LIE_ALGEBRA_FIELDS = ["dim", "labels", "table"]


def test_container_members_are_pinned():
    def public(names):
        return sorted(name for name in names if not name.startswith("_"))

    assert public(dir(plesken.Matrix)) == MATRIX_MEMBERS
    assert public(dir(plesken.LieAlgebra)) == LIE_ALGEBRA_MEMBERS
    assert sorted(vars(plesken.orthogonal_model([3]))) == LIE_ALGEBRA_FIELDS
