"""Value semantics of the record and value classes, on the builders' objects.

The records are `NamedTuple`s: equal field by field, hashable when their
fields are.  `AntiInvolution`, `Subspace` and `AlgebraDocument` compare by
their fields and are not hashable; the diagrams compare and hash by their
fields and cannot be changed after `__init__` has validated them.
"""

import pytest
from oracles import involution_all_pairs

from plesken.algebra import (
    AntiInvolution,
    ClosureCounterexample,
    InvolutionFailure,
    plesken_lie_algebra,
    plesken_subspace,
    validate_involution,
)
from plesken.builders import (
    PlanarRookDiagram,
    TLDiagram,
    matrix_algebra,
    planar_rook,
    planar_rook_diagrams,
    temperley_lieb,
    temperley_lieb_diagrams,
)
from plesken.cellular import (
    CellValidationFailure,
    GramPropertyFailure,
    cell_datum_planar_rook,
    cell_datum_temperley_lieb,
    cell_module,
    gram_matrix,
    is_semisimple,
    verify_theorem,
)
from plesken.interchange import document_from_algebra, emit, parse
from plesken.lie import Fingerprint, fingerprint
from plesken.linalg import Matrix, Subspace
from plesken.scalars import GaussianRational

FINGERPRINT_FIELDS = (
    "dim", "derived_dims", "lower_central_dims", "center_dim",
    "killing_rank", "solvable", "derived_length", "nilpotent",
)


class Other:
    """Equal to nothing but itself: stands in for a changed field."""


def _records():
    """One record of every kind, each built twice from the same input."""
    for _ in range(2):
        A, sigma = temperley_lieb(4, 0)
        cd = cell_datum_temperley_lieb(4, sigma)
        lam = cd.lambdas[0]
        m2, _ = matrix_algebra(2)
        L = plesken_lie_algebra(A, sigma)
        yield [
            validate_involution(m2, AntiInvolution.signed_permutation(range(4))),
            ClosureCounterexample(3, (1, 0), (0, 1), "four-term identity failed"),
            CellValidationFailure("C2", (lam, 1, 2), "involution does not send C[s,t] to C[t,s]"),
            GramPropertyFailure(lam, "symmetry", ()),
            cell_module(A, cd, lam),
            gram_matrix(A, cd, lam),
            is_semisimple(A, cd),
            verify_theorem(A, sigma, cd),
            fingerprint(L),
            fingerprint(L).compare(Fingerprint.orthogonal([1, 3, 2])),
        ]


def test_records_are_equal_field_by_field():
    first, second = _records()
    for a, b in zip(first, second):
        assert a is not b and a == b and not a != b
        assert type(a)(*a) == a
        for field in a._fields:
            changed = a._replace(**{field: Other()})
            assert changed != a and a != changed, (type(a).__name__, field)


def test_records_hash_when_their_fields_do():
    first, second = _records()
    unhashable = set()
    for a, b in zip(first, second):
        try:
            assert hash(a) == hash(b)
        except TypeError:
            unhashable.add(type(a).__name__)
    # A cell module holds its action as dicts.
    assert unhashable == {"CellModule"}


def test_the_involution_failure_is_the_one_pinned():
    m2, _ = matrix_algebra(2)
    sigma = AntiInvolution.signed_permutation(range(4))
    failure = validate_involution(m2, sigma)
    assert failure == InvolutionFailure("antihomomorphism", (1, 0))  # (0, 1) while G held 0
    assert failure != InvolutionFailure("square", (1, 0))
    assert involution_all_pairs(m2, sigma, m2.generators) == failure
    assert involution_all_pairs(m2, sigma, [1]) == failure  # the dense check fails there


def test_fingerprint_compare_lists_diffs_in_field_order():
    assert Fingerprint._fields == FINGERPRINT_FIELDS
    A, sigma = temperley_lieb(4, 0)
    fp = fingerprint(plesken_lie_algebra(A, sigma))
    model = Fingerprint.orthogonal([1, 3, 2])
    comparison = fp.compare(model)
    fields = [field for field, _, _ in comparison.diffs]
    assert not comparison.matches and len(fields) > 1
    assert fields == [f for f in FINGERPRINT_FIELDS if getattr(fp, f) != getattr(model, f)]
    for field, actual, expected in comparison.diffs:
        assert (actual, expected) == (getattr(fp, field), getattr(model, field))
    assert fp.compare(fp) == (True, ())
    plain = {f: list(v) if isinstance(v, tuple) else v for f, v in fp._asdict().items()}
    assert fp.as_dict() == plain


def test_involution_compares_by_images_and_conjugation():
    _, sigma = planar_rook(3)
    _, again = planar_rook(3)
    assert sigma == again and not sigma != again
    assert sigma != AntiInvolution(sigma.images, conjugates_scalars=True)
    assert sigma != AntiInvolution.signed_permutation(range(len(sigma.images)))
    assert sigma != sigma.images
    with pytest.raises(TypeError):
        hash(sigma)


def test_subspace_compares_by_ambient_and_rows():
    A, sigma = planar_rook(3)
    sub = plesken_subspace(A, sigma)
    assert sub == Subspace(sub.ambient, dict(sub.rows))
    assert sub == Subspace.from_vectors(A.dim, sub.basis)
    assert sub != Subspace(sub.ambient + 1, sub.rows)
    assert sub != Subspace.full(A.dim) and Subspace(2, {}) != Subspace(3, {})
    with pytest.raises(TypeError):
        hash(sub)


def test_document_round_trip_and_field_equality():
    A, sigma = planar_rook(3)
    doc = document_from_algebra("pr3", A, sigma, cell_datum_planar_rook(3, sigma), {"n": 3})
    assert parse(emit(doc)) == doc
    for changed in (
        document_from_algebra("other", A, sigma, doc.cell, doc.metadata),
        document_from_algebra("pr3", *matrix_algebra(2), doc.cell, doc.metadata),
        document_from_algebra("pr3", A, AntiInvolution(sigma.images, True), doc.cell, doc.metadata),
        document_from_algebra("pr3", A, sigma, None, doc.metadata),
        document_from_algebra("pr3", A, sigma, doc.cell, {}),
    ):
        assert changed != doc
    assert document_from_algebra("pr3", A, sigma).metadata == {}
    with pytest.raises(TypeError):
        hash(doc)


@pytest.mark.parametrize("diagrams", [planar_rook_diagrams(3), temperley_lieb_diagrams(3)])
def test_diagrams_compare_and_hash_by_their_fields(diagrams):
    fields = type(diagrams[0])._fields
    copies = [type(d)(*(getattr(d, f) for f in fields)) for d in diagrams]
    assert copies == list(diagrams)
    assert [hash(c) for c in copies] == [hash(d) for d in diagrams]
    assert len(set(copies) | set(diagrams)) == len(diagrams)
    assert all(a != b for a in diagrams for b in diagrams if a is not b)
    assert repr(diagrams[0]).startswith(f"{type(diagrams[0]).__name__}(n=3, ")
    with pytest.raises(AttributeError):
        diagrams[0].n = 4
    with pytest.raises(TypeError):
        diagrams[0] < diagrams[1]  # noqa: B015  (diagrams have no order)


def test_diagram_kinds_differ():
    assert PlanarRookDiagram(2, (1,), (1,)) != TLDiagram.identity(2)
    assert PlanarRookDiagram(2, (1,), (1,)) != (2, (1,), (1,))
    assert TLDiagram.identity(2) == TLDiagram(2, ((1, 3), (2, 4)))


@pytest.mark.parametrize("value, field", [
    (GaussianRational(1, 1), "re"),
    (Matrix([[1, 0], [0, 1]]), "rows"),
])
def test_values_are_immutable(value, field):
    with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
        setattr(value, field, 0)


@pytest.mark.parametrize("operation", [
    lambda g: g - "x",
    lambda g: "x" - g,
    lambda g: g / "x",
    lambda g: "x" / g,
])
def test_scalar_arithmetic_refuses_a_string(operation):
    # The message is the interpreter's own: only the type is pinned.
    with pytest.raises(TypeError):
        operation(GaussianRational(1, 1))
