"""Verification reports: deterministic JSON, optional Markdown rendering.

Every verdict in a report is computed in the invocation that emits it,
each artifact once; nothing is cached between runs.  `validate_algebra` and
then `validate_cell_datum` prove their checks over the same generating set,
`algebra.generators`, kept on the algebra with the columns `algebra.cols`.  Reports are rendered
byte-identically for identical inputs and flags; wall-clock timing is
therefore only included when explicitly requested.

The `bracket_closure` check rests on `validate_algebra`, which proves that
sigma squares to the identity and reverses products.  With a^ = a - sigma(a)
these alone (sigma additive, also when semilinear) turn b^ a^ into
sigma(ab) - sigma(a sigma(b)) - sigma(sigma(a) b) + sigma(sigma(a) sigma(b)),
so [a^, b^] = (ab)^ - (a sigma(b))^ - (sigma(a) b)^ + (sigma(a) sigma(b))^
lies in the skew part, and by bilinearity so does every bracket in it.

The `gram_properties` entry passes without a check, as for every datum
that passes `validate_cell_datum`: by C2, sigma sends C[s,t] C[u,v] =
phi(t,u) C[s,v] mod J(<lam) to C[v,u] C[t,s] = bar(phi(t,u)) C[v,s], so
phi(u,t) = bar(phi(t,u)), bar conjugating scalars when sigma does, and
adjointness is proved in `verify_theorem`.

A skew part of dimension at most `BRACKET_CAP`, 12, has its table printed.
The fingerprint is computed from the Lie table, built only then or to be
printed, unless the certificate decides it.  A certified `verify_theorem`
maps the skew part by the injective Lie homomorphism (+) rho_lam onto the
sum of the o(G_lam), of equal dimension, each G_lam symmetric and
nondegenerate (sigma is linear: a semilinear one makes the skew part the
whole algebra, too large to certify).  Over C each
o(G_lam) is o(d_lam), and field extension keeps the ranks that make up the
fingerprint, so it is `Fingerprint.orthogonal` of the block sizes (Graham
and Lehrer, Cellular algebras, 1996, section 3).
"""

from __future__ import annotations

import json

from .algebra import (
    Algebra,
    AntiInvolution,
    describe_vector,
    lie_labels,
    plesken_lie_algebra,
    plesken_subspace,
    validate_associativity,
    validate_involution,
    validate_unit,
)
from .cellular import (
    CellDatum,
    SemisimplicityReport,
    validate_cell_datum,
    verify_theorem,
)
from .lie import Fingerprint, LieAlgebra, fingerprint

BRACKET_CAP = 12


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


def analysis_report(name: str, algebra: Algebra, sigma: AntiInvolution) -> dict:
    """Skew-part structure of one algebra: basis, brackets, fingerprint."""
    checks = validate_algebra(algebra, sigma)
    return _analysis(name, algebra, sigma, checks, None)[0]


def _analysis(
    name: str, algebra: Algebra, sigma: AntiInvolution, checks: dict, fp: Fingerprint | None
) -> tuple[dict, Fingerprint]:
    """The shared fields after validation; `fp` is None unless the certificate decided it."""
    sub = plesken_subspace(algebra, sigma)
    printed = sub.dim <= BRACKET_CAP
    lie = plesken_lie_algebra(algebra, sigma) if fp is None or printed else None
    fp = fingerprint(lie) if fp is None else fp
    labels = lie_labels(algebra.labels, sub.rows.values()) if lie is None else lie.labels
    report = {
        "input": {
            "name": name,
            "dim": algebra.dim,
            "involution_conjugates_scalars": sigma.conjugates_scalars,
        },
        "checks": {**checks, "bracket_closure": "pass"},
        "plesken": {
            "dim": sub.dim,
            "basis": [
                {"label": label, "element": describe_vector(algebra.labels, row.items())}
                for label, row in zip(labels, sub.rows.values())
            ],
            "bracket_table": _bracket_table(lie) if printed else None,
        },
        "fingerprint": fp.as_dict(),
    }
    return report, fp


def _bracket_table(lie: LieAlgebra) -> list[list[str]]:
    n, labels = lie.dim, lie.labels
    return [
        [labels[a], labels[b], describe_vector(labels, lie.bracket_terms(a, b))]
        for a in range(n) for b in range(a + 1, n)
    ]


def cellular_report(name: str, algebra: Algebra, sigma: AntiInvolution, datum: CellDatum) -> dict:
    """Full cellularity verification on top of the analysis report."""
    checks = validate_algebra(algebra, sigma)
    failure = validate_cell_datum(algebra, sigma, datum)
    if failure is not None:
        report = _analysis(name, algebra, sigma, checks, None)[0]
        report["cellularity"] = {"valid": False, "failure": str(failure)}
        return report
    outcome = verify_theorem(algebra, sigma, datum)
    sizes = [d for _, d in outcome.block_sizes]
    model = Fingerprint.orthogonal(sizes)
    decided = model if outcome.certified else None
    report, fp = _analysis(name, algebra, sigma, checks, decided)
    report["cellularity"] = {"valid": True}
    report["gram_properties"] = {"pass": True, "failures": []}  # proved above
    verdict = SemisimplicityReport.from_ranks(outcome.gram_ranks)
    report["semisimplicity"] = verdict.as_dict()
    report["theorem"] = theorem = outcome.as_dict()
    report["predicted_decomposition"] = (
        {"blocks": theorem["blocks"], "lie_dim": theorem["predicted_lie_dim"]}
        if verdict.semisimple
        else None
    )
    report["fingerprint_comparison"] = {"model_sizes": sizes, **fp.compare(model).as_dict()}
    return report


def _md_table(headers: list[str], rows: list[list]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return lines


def render_markdown(report: dict) -> str:
    plesken = report["plesken"]
    lines = [
        f"# Report: {report['input']['name']}",
        "",
        f"- algebra dimension: {report['input']['dim']}",
        f"- skew-part dimension: {plesken['dim']}",
        *(f"- {check}: {verdict}" for check, verdict in sorted(report["checks"].items())),
        *([f"- timing_ms: {report['timing_ms']}"] if "timing_ms" in report else []),
        "",
    ]
    if plesken["bracket_table"]:
        table = _md_table(["x", "y", "[x, y]"], plesken["bracket_table"])
        lines += ["## Bracket table", "", *table, ""]
    fingerprint_lines = (f"- {k}: {v}" for k, v in sorted(report["fingerprint"].items()))
    lines += ["## Fingerprint", "", *fingerprint_lines, ""]
    if "cellularity" in report:
        cellularity = report["cellularity"]
        lines += ["## Cellular structure", "", f"- cell datum valid: {cellularity['valid']}"]
        if not cellularity["valid"]:
            lines.append(f"- failure: {cellularity['failure']}")
        else:
            semisimplicity, theorem = report["semisimplicity"], report["theorem"]
            cells = [[c["cell"], c["size"], c["rank"]] for c in semisimplicity["cells"]]
            lines += [
                f"- semisimple: {semisimplicity['semisimple']}",
                *_md_table(["cell", "size", "rank"], cells),
                "",
                f"- certificate: {theorem['certified']}",
            ]
            if theorem["failed_check"]:
                lines.append(f"- failed check: {theorem['failed_check']}")
            comparison = report["fingerprint_comparison"]
            lines.append(
                f"- fingerprint matches model {comparison['model_sizes']}: {comparison['matches']}"
            )
    lines.append("")
    return "\n".join(lines)
