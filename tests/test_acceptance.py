"""Acceptance suite: every criterion below is exact (zero tolerance).

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see them.  The whole module is expected to finish well under a minute.
"""

import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import plesken
from plesken.algebra import (
    bracket_closure_check,
    plesken_lie_algebra,
    plesken_subspace,
    validate_involution,
)
from plesken.builders import (
    TLDiagram,
    group_algebra,
    matrix_algebra,
    matrix_over_algebra,
    planar_rook,
    quaternions,
    temperley_lieb,
    temperley_lieb_diagrams,
)
from plesken.cellular import (
    cell_datum_matrix,
    cell_datum_planar_rook,
    cell_datum_temperley_lieb,
    check_gram_properties,
    gram_matrix,
    is_semisimple,
    validate_cell_datum,
    verify_theorem,
)
from plesken.lie import (
    Fingerprint,
    derived_series,
    fingerprint,
    killing_form,
    orthogonal_model,
)
from plesken.linalg import Matrix, Subspace, dense, unit_vector, vector
from plesken.scalars import scalar
from plesken.suite import cyclic_table, symmetric_3_table
from oracles import (
    bracket_dense,
    commutator_dense,
    identity_matrix,
    jacobi_failure,
    skew_part_dense,
    solve_gauss_jordan,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


def test_criterion_1_quaternions():
    with criterion(1, "quaternion brackets"):
        A, sigma = quaternions()
        L = plesken_lie_algebra(A, sigma)
        assert L.dim == 3
        assert L.bracket_terms(0, 1) == ((2, scalar(2)),)   # [i, j] = 2k
        assert L.bracket_terms(0, 2) == ((1, scalar(-2)),)  # [i, k] = -2j
        assert L.bracket_terms(1, 2) == ((0, scalar(2)),)   # [j, k] = 2i
        half = scalar(Fraction(1, 2))
        e = [tuple(half * c for c in unit_vector(A.dim, n)) for n in (1, 2, 3)]
        assert commutator_dense(A, e[0], e[1]) == e[2]
        assert commutator_dense(A, e[0], e[2]) == tuple(-c for c in e[1])
        assert commutator_dense(A, e[1], e[2]) == e[0]


def test_criterion_2_matrix_algebras():
    with criterion(2, "matrix algebras, both involutions"):
        for n in range(1, 5):
            A, sigma = matrix_algebra(n, "transpose")
            L = plesken_lie_algebra(A, sigma)
            assert L.dim == n * (n - 1) // 2
            assert fingerprint(L).compare(Fingerprint.orthogonal([n])).matches
        for n in range(1, 5):
            A, sigma = matrix_algebra(n, "conj_transpose")
            assert plesken_subspace(A, sigma).dim == n * n


def test_criterion_3_matrices_over_quaternions():
    with criterion(3, "matrices over the quaternions"):
        inner, inner_sigma = quaternions()
        A, sigma = matrix_over_algebra(2, inner, inner_sigma)
        assert validate_involution(A, sigma) is None
        B, _ = matrix_over_algebra(1, inner, inner_sigma)
        assert B.structure == inner.structure


def test_criterion_4_planar_rook():
    with criterion(4, "planar rook tower"):
        expected_dims = {1: 2, 2: 6, 3: 20, 4: 70}
        for n in range(1, 5):
            A, sigma = planar_rook(n)
            assert A.dim == math.comb(2 * n, n) == expected_dims[n]
            cd = cell_datum_planar_rook(n, sigma)
            assert validate_cell_datum(A, sigma, cd) is None
            for lam in cd.lambdas:
                form = gram_matrix(A, cd, lam)
                assert form.gram == identity_matrix(len(cd.members(lam)))
            outcome = verify_theorem(A, sigma, cd)
            assert outcome.certified
            closed_form = sum(
                math.comb(n, k) * (math.comb(n, k) - 1) // 2 for k in range(n + 1)
            )
            assert outcome.lie_dim == closed_form
            if n == 3:
                assert outcome.lie_dim == 6
            if n == 4:
                assert outcome.lie_dim == 27 == 0 + 6 + 15 + 6 + 0
            L = plesken_lie_algebra(A, sigma)
            sizes = [math.comb(n, k) for k in range(n + 1)]
            assert fingerprint(L).compare(Fingerprint.orthogonal(sizes)).matches


def test_criterion_5_temperley_lieb_semisimple():
    with criterion(5, "Temperley-Lieb tower at delta=3"):
        catalan = {2: 2, 3: 5, 4: 14, 5: 42}
        for n in range(2, 6):
            A, sigma = temperley_lieb(n, 3)
            assert A.dim == catalan[n]
            cd = cell_datum_temperley_lieb(n, sigma)
            assert validate_cell_datum(A, sigma, cd) is None
            assert is_semisimple(A, cd).semisimple
            hook = {
                n - 2 * p: math.comb(n, p) - (math.comb(n, p - 1) if p else 0)
                for p in range(n // 2 + 1)
            }
            assert {lam: len(cd.members(lam)) for lam in cd.lambdas} == hook
            outcome = verify_theorem(A, sigma, cd)
            assert outcome.certified
            assert outcome.lie_dim == sum(
                d * (d - 1) // 2 for d in hook.values()
            )
            if n == 4:
                assert outcome.lie_dim == 4


def tl0_basis_elements(A, sigma):
    """The four flip-differences spanning the skew part of TL_0(4)."""
    diagrams = temperley_lieb_diagrams(4)
    index = {d: i for i, d in enumerate(diagrams)}

    def hat(pairs):
        v = [scalar(0)] * A.dim
        v[index[TLDiagram.from_pairs(4, pairs)]] = scalar(1)
        return skew_part_dense(sigma, v)

    return [
        hat([(1, 2), (3, 5), (4, 8), (6, 7)]),
        hat([(1, 5), (2, 3), (4, 6), (7, 8)]),
        hat([(1, 2), (3, 5), (4, 6), (7, 8)]),
        hat([(1, 2), (3, 4), (5, 8), (6, 7)]),
    ]


def test_criterion_6_tl0_counterexample():
    with criterion(6, "TL_0(4) counterexample"):
        A, sigma = temperley_lieb(4, 0)
        cd = cell_datum_temperley_lieb(4, sigma)
        assert not is_semisimple(A, cd).semisimple
        L = plesken_lie_algebra(A, sigma)
        assert L.dim == 4
        b = tl0_basis_elements(A, sigma)
        assert Subspace.from_vectors(A.dim, b) == plesken_subspace(A, sigma)
        basis_matrix = Matrix(b).transpose()
        expected = {
            (0, 1): [-1, -1, 0, 0],
            (0, 2): [0, 0, 1, -1],
            (0, 3): [0, 0, 0, 0],
            (1, 2): [0, 0, -1, -1],
            (1, 3): [0, 0, 0, 0],
            (2, 3): [0, 0, 0, 0],
        }
        for (i, j), coeffs in expected.items():
            z = commutator_dense(A, b[i], b[j])
            assert solve_gauss_jordan(basis_matrix, z) == vector(coeffs)
        assert [s.dim for s in derived_series(L)] == [4, 3, 1, 0]
        fp = fingerprint(L)
        assert fp.solvable and fp.derived_length == 3
        assert not fp.compare(Fingerprint.orthogonal([1, 3, 2])).matches


def test_criterion_7_group_algebras():
    with criterion(7, "group algebras from multiplication tables"):
        A, sigma = group_algebra(symmetric_3_table())
        L = plesken_lie_algebra(A, sigma)
        assert L.dim == 1 and not L.table  # abelian
        specht = [1, 2, 1]
        assert L.dim == sum(d * (d - 1) // 2 for d in specht)
        A2, s2 = group_algebra(cyclic_table(2))
        assert plesken_subspace(A2, s2).dim == 0
        A5, s5 = group_algebra(cyclic_table(5))
        L5 = plesken_lie_algebra(A5, s5)
        assert L5.dim == 2 and not L5.table


def test_criterion_8_property_suites():
    with criterion(8, "randomized and exhaustive property suites"):
        # Bracket closure: at least 100 seeded random pairs per family.
        closure_targets = [
            (quaternions(), 101),
            (matrix_algebra(3, "transpose"), 100),
            (matrix_algebra(2, "conj_transpose"), 100),
            (matrix_over_algebra(2, *quaternions()), 100),
            (group_algebra(symmetric_3_table()), 100),
            (planar_rook(3), 100),
            (temperley_lieb(4, 3), 100),
            (temperley_lieb(4, 0), 100),
        ]
        for seed, ((A, sigma), samples) in enumerate(closure_targets):
            assert bracket_closure_check(A, sigma, samples, seed=seed) is None

        # Jacobi and antisymmetry on all basis triples of every Lie algebra
        # constructed across the criteria.
        lie_algebras = [
            plesken_lie_algebra(*quaternions()),
            *(plesken_lie_algebra(*matrix_algebra(n)) for n in range(1, 5)),
            *(
                plesken_lie_algebra(*matrix_algebra(n, "conj_transpose"))
                for n in (1, 2)
            ),
            plesken_lie_algebra(*matrix_over_algebra(2, *quaternions())),
            *(plesken_lie_algebra(*planar_rook(n)) for n in range(1, 5)),
            *(plesken_lie_algebra(*temperley_lieb(n, 3)) for n in range(2, 6)),
            plesken_lie_algebra(*temperley_lieb(4, 0)),
            plesken_lie_algebra(*group_algebra(symmetric_3_table())),
            plesken_lie_algebra(*group_algebra(cyclic_table(5))),
            orthogonal_model([3]),
            orthogonal_model([1, 3, 2]),
            orthogonal_model([1, 3, 3, 1]),
        ]
        for L in lie_algebras:
            assert jacobi_failure(L) is None
            for i in range(L.dim):
                assert L.bracket_terms(i, i) == ()
                for j in range(L.dim):
                    negated = tuple((k, -c) for k, c in L.bracket_terms(j, i))
                    assert L.bracket_terms(i, j) == negated

        # Gram symmetry and involution-adjointness on every cell datum built.
        data = [
            (*planar_rook(1), cell_datum_planar_rook, 1),
            (*planar_rook(2), cell_datum_planar_rook, 2),
            (*planar_rook(3), cell_datum_planar_rook, 3),
            (*planar_rook(4), cell_datum_planar_rook, 4),
            (*temperley_lieb(2, 3), cell_datum_temperley_lieb, 2),
            (*temperley_lieb(3, 3), cell_datum_temperley_lieb, 3),
            (*temperley_lieb(4, 3), cell_datum_temperley_lieb, 4),
            (*temperley_lieb(5, 3), cell_datum_temperley_lieb, 5),
            (*temperley_lieb(4, 0), cell_datum_temperley_lieb, 4),
            (*matrix_algebra(3), cell_datum_matrix, 3),
        ]
        for A, sigma, factory, n in data:
            cd = factory(n, sigma)
            for lam in cd.lambdas:
                assert check_gram_properties(A, sigma, cd, lam) is None

        # Killing ad-invariance on all basis triples, small algebras.
        for L in lie_algebras:
            if L.dim > 12:
                continue
            K = killing_form(L)
            basis = [Subspace.full(L.dim).basis[i] for i in range(L.dim)]

            def pairing(x, y):
                acc = scalar(0)
                for a, xa in enumerate(x):
                    if not xa:
                        continue
                    for bb, yb in enumerate(y):
                        if yb and K.data[a][bb]:
                            acc = acc + xa * yb * K.data[a][bb]
                return acc

            brackets = {}
            for a, x in enumerate(basis):
                for b, y in enumerate(basis):
                    brackets[a, b] = dense(L.dim, L.bracket({a: 1}, {b: 1}))
                    assert brackets[a, b] == bracket_dense(L, x, y)
            for a, x in enumerate(basis):
                for b in range(L.dim):
                    for c, z in enumerate(basis):
                        assert pairing(brackets[a, b], z) == pairing(x, brackets[b, c])


def test_criterion_9_paper_suite_cli(tmp_path):
    # The subprocess runs the plesken package this module imported, also
    # when it is importable only through pytest's `pythonpath` setting.
    src = str(Path(plesken.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with criterion(9, "verification battery via the CLI"):
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"suite{run}.json"
            result = subprocess.run(
                [sys.executable, "-m", "plesken", "paper-suite",
                 "--seed", "0", "--out", str(out)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["failed"] == []
        assert all(
            item["status"] == "pass" for item in payload["results"].values()
        )
