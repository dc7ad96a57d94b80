"""The public surface of the package is pinned: a name is added to or
removed from `plesken.__all__` on purpose, with this list, not by accident."""

import inspect

import pytest

import plesken
from plesken import cli

PUBLIC_NAMES = [
    "Algebra", "AlgebraDocument", "AntiInvolution", "CellDatum", "CellModule", "Fingerprint", "GaussianRational", "GramForm", "GroupTable",
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


# The optional and keyword-only parameters of every public callable, and of
# the public methods its classes define, pinned the same way: a knob such as
# an argument only tests pass is added or removed on purpose.
OPTIONAL_PARAMETERS = {
    "AlgebraDocument": ["cell", "metadata"],
    "AntiInvolution": ["conjugates_scalars"],
    "AntiInvolution.signed_permutation": ["signs", "conjugates_scalars"],
    "GaussianRational": ["re", "im"],
    "GroupTable": ["labels"],
    "bracket_closure_check": ["seed"],
    "document_from_algebra": ["cell", "metadata"],
    "emit": ["file"],
    "matrix_algebra": ["involution"],
}


def _public_callables():
    for name in plesken.__all__:
        obj = getattr(plesken, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue  # the builtin constructor has no signature
        if callable(obj):
            yield name, obj
        if isinstance(obj, type):
            for member in vars(obj):
                if not member.startswith("_") and callable(method := getattr(obj, member)):
                    yield f"{name}.{member}", method


def test_optional_parameters_are_pinned():
    optional = {}
    for name, obj in _public_callables():
        parameters = inspect.signature(obj).parameters.values()
        names = [p.name for p in parameters if p.default is not p.empty
                 or p.kind not in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        if names:
            optional[name] = names
    assert optional == OPTIONAL_PARAMETERS


# The options of each subcommand, pinned the same way: a flag is added to or
# removed from the command line on purpose.
CLI_OPTIONS = {
    ("build", "--family", "quaternions"): [
        "command", "delta", "family", "inner", "n", "out", "table"],
    ("analyze", "x"): ["command", "document", "format", "out", "seed", "timing"],
    ("verify-cellular", "x"): ["command", "document", "format", "out", "seed", "timing"],
    ("paper-suite",): ["command", "out", "seed", "timing"],
}


@pytest.mark.parametrize("argv", CLI_OPTIONS)
def test_cli_options_are_pinned(argv):
    options = vars(cli._parser().parse_args(argv))
    assert sorted(options.keys() - {"func"}) == CLI_OPTIONS[argv]
