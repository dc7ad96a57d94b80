"""Verification reports: deterministic JSON, optional Markdown rendering.

Every verdict in a report is computed in the invocation that emits it,
each artifact once; nothing is cached between runs.  Reports are rendered
byte-identically for identical inputs, flags and seed; wall-clock timing is
therefore only included when explicitly requested.

The `bracket_closure` check reports the exact closure proof made while the
Lie table is built: the bracket of every pair of skew-part basis vectors
must lie in the skew part, or `plesken_lie_algebra` raises
`InternalConsistencyError`, and bilinearity extends this to the whole skew
part.  The seed is only echoed into the report; no report verdict is
randomized.
"""

from __future__ import annotations

import json

from .algebra import (
    Algebra,
    AntiInvolution,
    describe_vector,
    plesken_lie_algebra,
    plesken_subspace,
    validate_associativity,
    validate_involution,
    validate_unit,
)
from .cellular import (
    CellDatum,
    CellForms,
    PredictedDecomposition,
    SemisimplicityReport,
    check_gram_properties,
    validate_cell_datum,
    verify_theorem,
)
from .lie import Fingerprint, fingerprint, orthogonal_model
from .scalars import ZERO

DEFAULT_BRACKET_CAP = 12


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class DocumentInvalid(ValueError):
    """An input document failed structural validation."""


def validate_algebra(algebra: Algebra, sigma: AntiInvolution) -> dict:
    """Run the structural checks, raising DocumentInvalid on failure."""
    triple = validate_associativity(algebra)
    if triple is not None:
        raise DocumentInvalid(f"associativity fails at basis triple {triple}")
    bad_unit = validate_unit(algebra)
    if bad_unit is not None:
        raise DocumentInvalid(f"unit axiom fails at basis index {bad_unit}")
    failure = validate_involution(algebra, sigma)
    if failure is not None:
        raise DocumentInvalid(f"involution invalid: {failure}")
    return {"associativity": "pass", "unit": "pass", "involution": "pass"}


def analysis_report(
    name: str,
    algebra: Algebra,
    sigma: AntiInvolution,
    *,
    bracket_cap: int = DEFAULT_BRACKET_CAP,
    seed: int = 0,
) -> dict:
    """Skew-part structure of one algebra: basis, brackets, fingerprint."""
    return _analysis(name, algebra, sigma, bracket_cap, seed)[0]


def _analysis(
    name: str, algebra: Algebra, sigma: AntiInvolution, bracket_cap: int, seed: int
) -> tuple[dict, Fingerprint]:
    checks = validate_algebra(algebra, sigma)
    # Raises InternalConsistencyError if a basis bracket leaves the skew part.
    lie = plesken_lie_algebra(algebra, sigma)
    checks["bracket_closure"] = "pass"
    basis = plesken_subspace(algebra, sigma).basis
    fp = fingerprint(lie)
    report = {
        "input": {
            "name": name,
            "dim": algebra.dim,
            "involution_conjugates_scalars": sigma.conjugates_scalars,
        },
        "checks": checks,
        "plesken": {
            "dim": lie.dim,
            "basis": [
                {"label": label, "element": describe_vector(algebra.labels, v)}
                for label, v in zip(lie.labels, basis)
            ],
        },
        "fingerprint": fp.as_dict(),
        "seed": seed,
    }
    if lie.dim <= bracket_cap:
        table = []
        for a in range(lie.dim):
            for b in range(a + 1, lie.dim):
                coeffs = [ZERO] * lie.dim
                for k, c in lie.bracket_terms(a, b):
                    coeffs[k] = c
                table.append(
                    [lie.labels[a], lie.labels[b], describe_vector(lie.labels, coeffs)]
                )
        report["plesken"]["bracket_table"] = table
    else:
        report["plesken"]["bracket_table"] = None
    return report, fp


def cellular_report(
    name: str,
    algebra: Algebra,
    sigma: AntiInvolution,
    datum: CellDatum,
    *,
    bracket_cap: int = DEFAULT_BRACKET_CAP,
    seed: int = 0,
) -> dict:
    """Full cellularity verification on top of the analysis report."""
    report, fp = _analysis(name, algebra, sigma, bracket_cap, seed)
    failure = validate_cell_datum(algebra, sigma, datum)
    if failure is not None:
        report["cellularity"] = {"valid": False, "failure": str(failure)}
        return report
    report["cellularity"] = {"valid": True}
    forms = CellForms.build(algebra, datum)
    gram_issues = [
        str(problem)
        for lam in datum.lambdas
        if (problem := check_gram_properties(algebra, sigma, datum, lam, forms=forms))
        is not None
    ]
    report["gram_properties"] = {"pass": not gram_issues, "failures": gram_issues}
    outcome = verify_theorem(algebra, sigma, datum, forms=forms)
    verdict = SemisimplicityReport.from_ranks(outcome.gram_ranks)
    report["semisimplicity"] = verdict.as_dict()
    report["predicted_decomposition"] = (
        PredictedDecomposition(outcome.block_sizes, outcome.predicted_lie_dim).as_dict()
        if verdict.semisimple
        else None
    )
    report["theorem"] = outcome.as_dict()
    sizes = [d for _, d in outcome.block_sizes]
    report["fingerprint_comparison"] = {
        "model_sizes": sizes,
        **fp.compare(fingerprint(orthogonal_model(sizes))).as_dict(),
    }
    return report


def _md_table(headers: list[str], rows: list[list]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return lines


def render_markdown(report: dict) -> str:
    lines = [f"# Report: {report['input']['name']}", ""]
    lines.append(f"- algebra dimension: {report['input']['dim']}")
    lines.append(f"- skew-part dimension: {report['plesken']['dim']}")
    for check, verdict in sorted(report["checks"].items()):
        lines.append(f"- {check}: {verdict}")
    lines.append("")
    if report["plesken"].get("bracket_table"):
        lines.append("## Bracket table")
        lines.append("")
        lines.extend(
            _md_table(["x", "y", "[x, y]"], report["plesken"]["bracket_table"])
        )
        lines.append("")
    lines.append("## Fingerprint")
    lines.append("")
    for key, value in sorted(report["fingerprint"].items()):
        lines.append(f"- {key}: {value}")
    lines.append("")
    if "cellularity" in report:
        lines.append("## Cellular structure")
        lines.append("")
        lines.append(f"- cell datum valid: {report['cellularity']['valid']}")
        if not report["cellularity"]["valid"]:
            lines.append(f"- failure: {report['cellularity']['failure']}")
        else:
            lines.append(
                f"- semisimple: {report['semisimplicity']['semisimple']}"
            )
            lines.extend(
                _md_table(
                    ["cell", "size", "rank"],
                    [
                        [c["cell"], c["size"], c["rank"]]
                        for c in report["semisimplicity"]["cells"]
                    ],
                )
            )
            lines.append("")
            lines.append(f"- certificate: {report['theorem']['certified']}")
            if report["theorem"]["failed_check"]:
                lines.append(f"- failed check: {report['theorem']['failed_check']}")
            comparison = report.get("fingerprint_comparison")
            if comparison:
                lines.append(
                    f"- fingerprint matches model {comparison['model_sizes']}: "
                    f"{comparison['matches']}"
                )
    lines.append("")
    return "\n".join(lines)
