"""Exact computation with Plesken Lie algebras.

Given a finite-dimensional associative algebra with an anti-involution
sigma, the span of all a - sigma(a) is closed under the commutator and is
therefore a Lie algebra.  This package constructs that Lie algebra for
quaternions, matrix algebras, group algebras, planar rook algebras and
Temperley-Lieb algebras, analyses its structure (series, center, Killing
form), and -- for cellular algebras -- certifies by exact computation that
in the semisimple case it decomposes into orthogonal Lie algebras whose
sizes are the cell module dimensions.

All arithmetic is exact over the Gaussian rationals Q(i).
"""

from .scalars import GaussianRational, scalar
from .linalg import Matrix, Subspace, rank, rref
from .algebra import (
    Algebra,
    AntiInvolution,
    InternalConsistencyError,
    bracket_closure_check,
    plesken_lie_algebra,
    validate_associativity,
    validate_involution,
    validate_unit,
)
from .builders import (
    GroupTable,
    PlanarRookDiagram,
    TLDiagram,
    group_algebra,
    matrix_algebra,
    matrix_over_algebra,
    planar_rook,
    planar_rook_diagrams,
    quaternions,
    temperley_lieb,
    temperley_lieb_diagrams,
)
from .cellular import (
    CellDatum,
    CellModule,
    GramForm,
    cell_datum_matrix,
    cell_datum_planar_rook,
    cell_datum_temperley_lieb,
    cell_module,
    check_gram_properties,
    gram_matrix,
    is_semisimple,
    validate_cell_datum,
    verify_theorem,
)
from .lie import (
    Fingerprint,
    LieAlgebra,
    bracket_span,
    center,
    derived_series,
    fingerprint,
    killing_form,
    lower_central_series,
    orthogonal_model,
)
from .interchange import AlgebraDocument, document_from_algebra, emit, load, parse, save

from types import ModuleType as _ModuleType

__all__ = [n for n in dir() if not (n.startswith("_") or isinstance(globals()[n], _ModuleType))]
