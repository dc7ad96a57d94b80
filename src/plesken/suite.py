"""One-shot verification battery over every built-in family.

Each item builds an algebra and checks the paper's closed forms for it
with the pipeline the CLI ships.  Items with a cell datum (planar rook,
Temperley-Lieb, matrix algebras with transposition) read the fields of
`cellular_report`, the `verify-cellular` report; the others run
`validate_algebra`, which proves the skew part closed under the bracket
(the `report` docstring has the proof), and build the Lie table where they
check it.  So every item is validated exactly, no check is randomized, and
each cell Gram form is built once.  Exceptions are contained per item so
one corrupted construction cannot take down the rest of the battery, and
items above the configured diagram cap are skipped with a reason.

Group algebras enter through explicit multiplication tables only; the
tables for the cyclic groups and for the symmetric group on three letters
are constructed here as fixtures (modular addition, and composition of the
six permutations in a fixed order).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

from .algebra import plesken_lie_algebra
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
from .report import cellular_report, validate_algebra


def cyclic_table(k: int) -> GroupTable:
    return GroupTable(
        [[(i + j) % k for j in range(k)] for i in range(k)],
        labels=[f"c{i}" for i in range(k)],
    )


def symmetric_3_table() -> GroupTable:
    perms = [
        (0, 1, 2),
        (0, 2, 1),
        (1, 0, 2),
        (1, 2, 0),
        (2, 0, 1),
        (2, 1, 0),
    ]
    index = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return GroupTable(table, labels=["e", "s1", "s2", "r1", "r2", "s3"])


class SkipItem(Exception):
    pass


def _check(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def _lie(algebra, sigma):
    """Validate exactly, then build the Lie table."""
    validate_algebra(algebra, sigma)
    return plesken_lie_algebra(algebra, sigma)


def _verified(name: str, algebra, sigma, datum) -> dict:
    """The `verify-cellular` report, with a valid datum."""
    report = cellular_report(name, algebra, sigma, datum)
    cellularity = report["cellularity"]
    _check(cellularity["valid"], f"cell datum invalid: {cellularity.get('failure')}")
    return report


def _orthogonal_sum(report: dict, sizes: list[int]) -> int:
    """Check that the report certifies the skew part as the direct sum of
    o(d) for d in `sizes`; returns its dimension."""
    theorem = report["theorem"]
    _check(theorem["certified"], f"no certificate: {theorem['failed_check']}")
    _check(
        sorted(block["size"] for block in theorem["blocks"]) == sorted(sizes),
        "cell dimensions disagree with the closed form",
    )
    _check(
        theorem["lie_dim"] == sum(d * (d - 1) // 2 for d in sizes),
        "skew-part dimension != sum d(d-1)/2",
    )
    return theorem["lie_dim"]


def _item_quaternions() -> dict:
    lie = _lie(*quaternions())
    _check(lie.dim == 3, "skew part should be 3-dimensional")
    i, j, k = 0, 1, 2
    _check(lie.bracket_terms(i, j) == ((k, 2),), "[i,j] != 2k")
    _check(lie.bracket_terms(i, k) == ((j, -2),), "[i,k] != -2j")
    _check(lie.bracket_terms(j, k) == ((i, 2),), "[j,k] != 2i")
    return {"lie_dim": lie.dim}


def _item_matrix_transpose(n: int) -> dict:
    algebra, sigma = matrix_algebra(n, "transpose")
    report = _verified(f"matrix-n{n}", algebra, sigma, cell_datum_matrix(n, sigma))
    return {"lie_dim": _orthogonal_sum(report, [n])}


def _item_matrix_conj_transpose(n: int) -> dict:
    lie = _lie(*matrix_algebra(n, "conj_transpose"))
    _check(lie.dim == n * n, "skew-part dimension wrong")
    return {"lie_dim": lie.dim}


def _item_matrix_over(n: int) -> dict:
    inner, inner_sigma = quaternions()
    algebra, sigma = matrix_over_algebra(n, inner, inner_sigma)
    validate_algebra(algebra, sigma)
    if n == 1:
        _check(
            algebra.rows == inner.rows,
            "M(1, A) should reproduce A's structure constants",
        )
    return {"dim": algebra.dim}


def _item_planar_rook(n: int, cap: int) -> dict:
    if n > cap:
        raise SkipItem(f"n={n} exceeds cap {cap}")
    algebra, sigma = planar_rook(n, cap=cap)
    _check(algebra.dim == math.comb(2 * n, n), "dimension != C(2n, n)")
    report = _verified(
        f"planar-rook-n{n}", algebra, sigma, cell_datum_planar_rook(n, sigma)
    )
    _check(report["semisimplicity"]["semisimple"], "PR(n) should be semisimple")
    lie_dim = _orthogonal_sum(report, [math.comb(n, k) for k in range(n + 1)])
    return {"dim": algebra.dim, "lie_dim": lie_dim}


def _item_temperley_lieb(n: int, delta_text: str, cap: int) -> dict:
    if n > cap:
        raise SkipItem(f"n={n} exceeds cap {cap}")
    algebra, sigma = temperley_lieb(n, delta_text, cap=cap)
    catalan = math.comb(2 * n, n) // (n + 1)
    _check(algebra.dim == catalan, "dimension != Catalan(n)")
    report = _verified(
        f"temperley-lieb-n{n}-delta{delta_text}",
        algebra,
        sigma,
        cell_datum_temperley_lieb(n, sigma),
    )
    semisimple = report["semisimplicity"]["semisimple"]
    _check(
        report["theorem"]["certified"] == semisimple,
        "certificate must appear exactly for semisimple instances",
    )
    detail: dict = {"dim": algebra.dim, "semisimple": semisimple}
    if delta_text == "3":
        _check(semisimple, "TL at delta=3 should be semisimple")
        hooks = [
            math.comb(n, p) - (math.comb(n, p - 1) if p else 0)
            for p in range(n // 2 + 1)
        ]
        detail["lie_dim"] = _orthogonal_sum(report, hooks)
    if delta_text == "0" and n == 4:
        _check(not semisimple, "TL_0(4) should not be semisimple")
        _check(
            report["theorem"]["failed_check"] == "representation_injective",
            "wrong refutation",
        )
        fp = report["fingerprint"]
        dims = fp["derived_dims"]
        _check(dims == [4, 3, 1, 0], f"derived series dims {dims}")
        _check(
            fp["solvable"] and fp["derived_length"] == 3,
            "should be solvable, length 3",
        )
        comparison = report["fingerprint_comparison"]
        _check(
            sorted(comparison["model_sizes"]) == [1, 2, 3],
            f"model sizes {comparison['model_sizes']}",
        )
        _check(
            not comparison["matches"],
            "fingerprint should not match the orthogonal model",
        )
        detail["derived_dims"] = dims
    return detail


def _item_group(table_factory: Callable[[], GroupTable], expected_dim: int) -> dict:
    table = table_factory()
    lie = _lie(*group_algebra(table))
    _check(lie.dim == expected_dim, f"skew-part dim {lie.dim} != {expected_dim}")
    non_involutive = sum(1 for g in range(table.order) if table.inverse[g] != g)
    _check(lie.dim == non_involutive // 2, "dimension formula violated")
    return {"lie_dim": lie.dim, "abelian": not lie.table}


def suite_items(cap: int) -> list[tuple[str, Callable[[], dict]]]:
    items: list[tuple[str, Callable[[], dict]]] = [("quaternions", _item_quaternions)]
    items += [(f"matrix-transpose-n{n}", partial(_item_matrix_transpose, n)) for n in range(1, 5)]
    items += [
        (f"matrix-conj-transpose-n{n}", partial(_item_matrix_conj_transpose, n))
        for n in range(1, 4)
    ]
    items += [(f"matrix-over-quaternions-n{n}", partial(_item_matrix_over, n)) for n in (1, 2)]
    items += [(f"planar-rook-n{n}", partial(_item_planar_rook, n, cap)) for n in range(1, 5)]
    items += [
        (f"temperley-lieb-n{n}-delta{delta}", partial(_item_temperley_lieb, n, delta, cap))
        for n in range(2, 6)
        for delta in ("3", "0")
    ]
    items.append(("group-S3", partial(_item_group, symmetric_3_table, 1)))
    items += [
        (f"group-C{k}", partial(_item_group, partial(cyclic_table, k), expected))
        for k, expected in ((2, 0), (3, 1), (5, 2))
    ]
    return items


def run_suite(cap: int = DEFAULT_DIAGRAM_CAP) -> dict:
    """Run the whole battery; returns {key: {"status": ..., ...}}."""
    results: dict[str, dict] = {}
    for key, runner in suite_items(cap):
        try:
            detail = runner()
        except SkipItem as exc:
            results[key] = {"status": "skip", "reason": str(exc)}
        except Exception as exc:  # isolation: one bad item never stops the rest
            results[key] = {"status": "fail", "reason": f"{type(exc).__name__}: {exc}"}
        else:
            results[key] = {"status": "pass", **detail}
    return results
