import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    associativity_all_triples,
    bidiagonal_basis,
    emit_dumps,
    involution_from_matrix,
    pairs,
    quads,
    signed_permutation_matrix,
)

from plesken import cli
from plesken.algebra import Algebra, AntiInvolution, InternalConsistencyError
from plesken.builders import (
    group_algebra,
    matrix_algebra,
    matrix_over_algebra,
    planar_rook,
    quaternions,
    temperley_lieb,
)
from plesken.cellular import (
    CellDatum,
    cell_datum_matrix,
    cell_datum_planar_rook,
    cell_datum_temperley_lieb,
)
from plesken.interchange import (
    AlgebraDocument,
    document_from_algebra,
    emit,
    load,
    parse,
    save,
)
from plesken.linalg import Matrix, unit_vector
from plesken.report import DocumentInvalid, analysis_report, cellular_report, validate_algebra
from plesken.scalars import GaussianRational
from plesken.suite import run_suite, symmetric_3_table


@pytest.mark.parametrize(
    "name, build",
    [
        ("quaternions", lambda: (*quaternions(), None)),
        ("matrix3", lambda: _with_cell(matrix_algebra(3), cell_datum_matrix, 3)),
        ("matrix2c", lambda: (*matrix_algebra(2, "conj_transpose"), None)),
        ("m2h", lambda: (*matrix_over_algebra(2, *quaternions()), None)),
        ("s3", lambda: (*group_algebra(symmetric_3_table()), None)),
        ("pr3", lambda: _with_cell(planar_rook(3), cell_datum_planar_rook, 3)),
        ("tl40", lambda: _with_cell(temperley_lieb(4, 0), cell_datum_temperley_lieb, 4)),
        ("tl43", lambda: _with_cell(temperley_lieb(4, 3), cell_datum_temperley_lieb, 4)),
    ],
)
def test_document_round_trip(name, build):
    algebra, sigma, cell = build()
    doc = document_from_algebra(name, algebra, sigma, cell=cell)
    assert parse(emit(doc)) == doc
    parsed = parse(emit(doc))
    algebra2, sigma2, cell2 = parsed.algebra, parsed.sigma, parsed.cell
    assert algebra2 == algebra
    assert sigma2.images == sigma.images
    assert sigma2.conjugates_scalars == sigma.conjugates_scalars
    if cell is not None:
        assert cell2.basis_map == cell.basis_map
        assert cell2.lambdas == cell.lambdas
        assert cell2.index_sets == cell.index_sets


fractions = st.fractions(min_value=-2, max_value=2, max_denominator=4)
coefficients = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["-3/4", "1/2+i", "i", "-2-3/2i"]),
    fractions,
    st.builds(GaussianRational, fractions, fractions),
)
cell_labels = st.recursive(
    st.integers(-2, 2) | st.text("ab", max_size=2),
    lambda inner: st.lists(inner, max_size=2).map(tuple),
    max_leaves=3,
)


@st.composite
def documents(draw):
    """Small documents that no builder makes: any structure table (associative
    or not) over int, fractional and non-real coefficients, sigma as a signed
    permutation or a full matrix, and an optional cell section."""
    n = draw(st.integers(1, 4))
    labels = draw(st.lists(st.text("xyz", min_size=1, max_size=3), min_size=n, max_size=n,
                           unique=True))
    index = st.integers(0, n - 1)
    structure = draw(st.lists(st.tuples(index, index, index, coefficients), max_size=12))
    algebra = Algebra(labels, structure, draw(st.lists(coefficients, min_size=n, max_size=n)))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        matrix = signed_permutation_matrix(n, perm, signs)
    else:
        matrix = Matrix(draw(st.lists(st.lists(coefficients, min_size=n, max_size=n),
                                      min_size=n, max_size=n)))
    sigma = involution_from_matrix(matrix, draw(st.booleans()))
    cell = None
    if draw(st.booleans()):
        lambdas = draw(st.lists(cell_labels, min_size=1, max_size=3, unique=True))
        height = {lam: draw(st.integers(0, 2)) for lam in lambdas}
        less = [(a, b) for a in lambdas for b in lambdas if height[a] < height[b]]
        index_sets = {
            lam: draw(st.lists(cell_labels, max_size=2, unique=True)) for lam in lambdas
        }
        triples = draw(st.lists(
            st.sampled_from(lambdas).flatmap(lambda lam: st.tuples(
                st.just(lam),
                st.sampled_from(index_sets[lam] or [0]),
                st.sampled_from(index_sets[lam] or [0]),
            )),
            max_size=4,
        ))
        basis_map = {triple: draw(index) for triple in triples}
        cell = CellDatum(lambdas, less, index_sets, basis_map, sigma)
    metadata = draw(st.dictionaries(st.text("mn", max_size=2), st.integers(-9, 9), max_size=2))
    return AlgebraDocument(draw(st.text(max_size=4)), algebra, sigma, cell, metadata)


@settings(max_examples=150, deadline=None)
@given(documents())
def test_document_round_trip_on_tables_no_builder_makes(doc):
    text = emit(doc)
    assert text == emit_dumps(doc)
    assert parse(text) == doc
    assert emit(parse(text)) == text


def _cell_documents():
    """Cell sections, labels of every kind, odd metadata and the zero algebra."""
    algebra, sigma = temperley_lieb(3, "1/2")
    yield document_from_algebra("tl3half", algebra, sigma, cell_datum_temperley_lieb(3, sigma))
    algebra, sigma = planar_rook(2)
    yield document_from_algebra("pr2", algebra, sigma, cell_datum_planar_rook(2, sigma))
    algebra, sigma = matrix_algebra(2)
    yield document_from_algebra("m2", algebra, sigma, cell_datum_matrix(2, sigma),
                                {"note": "a\u0000b", "\u00e9": ["\u221e", {"z": 1, "a": None}]})
    algebra = Algebra(["\u00e9", "\u221e"], [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1])
    sigma = AntiInvolution.signed_permutation([0, 1])
    nested = CellDatum([(1, ("a", (2,))), "b"], [((1, ("a", (2,))), "b")],
                       {(1, ("a", (2,))): [((0, "x"),)], "b": [1]},
                       {((1, ("a", (2,))), ((0, "x"),), ((0, "x"),)): 0, ("b", 1, 1): 1}, sigma)
    yield AlgebraDocument("\u00e9\u0000/..", algebra, sigma, nested, {"\u0000": "\u221e"})
    yield AlgebraDocument("zero", Algebra([], [], []), AntiInvolution(()))


def test_emit_matches_json_dumps_on_cells_labels_and_metadata(tmp_path):
    docs = list(_cell_documents())
    assert '"structure": [],' in emit(docs[-1])  # the zero algebra
    for doc in docs:
        text = emit_dumps(doc)
        assert emit(doc) == text and parse(text) == doc
        file = io.StringIO()
        assert emit(doc, file) is None and file.getvalue() == text
        assert save(doc, tmp_path / "doc.plesken.json").read_bytes() == text.encode()


def _with_cell(pair, datum_factory, n):
    algebra, sigma = pair
    return algebra, sigma, datum_factory(n, sigma)


def test_emit_is_deterministic():
    doc1 = document_from_algebra("q", *quaternions())
    doc2 = document_from_algebra("q", *quaternions())
    assert emit(doc1) == emit(doc2)


def test_scalars_serialized_exactly():
    algebra, sigma = temperley_lieb(2, "1/2")
    doc = document_from_algebra("tl", algebra, sigma)
    text = emit(doc)
    assert "1/2" in text
    assert "0.5" not in text


def test_parse_rejects_bad_documents():
    doc = document_from_algebra("q", *quaternions())
    payload = json.loads(emit(doc))
    payload["structure"][0][0] = 99
    with pytest.raises(ValueError):
        parse(json.dumps(payload))
    payload = json.loads(emit(doc))
    payload["format_version"] = "2"
    with pytest.raises(ValueError):
        parse(json.dumps(payload))


def test_algebra_checks_every_structure_index():
    # bool is a subclass of int, so True must be refused as an index too.
    for structure in ([(True, 0, 0, 1)], [(0, 0, True, 1)], [(0, 2, 0, 1)]):
        with pytest.raises(ValueError, match="out of range"):
            Algebra(["a", "b"], structure, [1, 0])
    # In a document, `true` is refused also where it equals an earlier pair:
    # [1, 0, ...] comes before the appended [true, 0, ...].
    payload = json.loads(emit(document_from_algebra("q", *quaternions())))
    payload["structure"].append([True, 0, 1, "1"])
    with pytest.raises(ValueError, match="out of range"):
        parse(json.dumps(payload))
    # A pair may recur among the quads; its terms are summed.
    structure = [(0, 0, 0, "1/2"), (0, 1, 1, 1), (0, 0, 0, "1/2"), (0, 0, 1, 1), (0, 1, 1, -1)]
    assert Algebra(["a", "b"], structure, [1, 0]).rows == [{0: ((0, 1), (1, 1))}, {}]


# -- CLI ----------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _unpacking_message(entry) -> str:
    """The interpreter's own refusal to unpack `entry` into four names."""
    try:
        i, j, k, c = entry
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{entry!r} unpacks into four names")


@pytest.mark.parametrize(
    "entry, error, message",
    [
        ("5", ValueError, "each entry of structure must be a JSON list"),
        ("null", ValueError, "each entry of structure must be a JSON list"),
        ('"0011"', ValueError, "each entry of structure must be a JSON list"),
        ('{"a": 1}', ValueError, "each entry of structure must be a JSON list"),
        ("[0, 0, 0]", ValueError, _unpacking_message([0, 0, 0])),
        ('[0, 0, 0, "1", 0]', ValueError, _unpacking_message([0, 0, 0, "1", 0])),
        ('[true, 0, 0, "1"]', ValueError, "structure index out of range: (True, 0)"),
        ('[0, 0, 9, "1"]', ValueError, "structure target out of range: 9"),
        ("[0, 0, 0, 1.5]", TypeError, "cannot interpret 1.5 as a scalar"),
    ],
)
def test_malformed_structure_entries_are_refused(entry, error, message, tmp_path, capsys):
    # One malformed entry after the quaternions' quads: `parse` refuses it
    # with this exception and message, the CLI as invalid input, exit 2.
    payload = json.loads(emit(document_from_algebra("q", *quaternions())))
    payload["structure"].append(json.loads(entry))
    path = tmp_path / "q.plesken.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(error) as info:
        parse(path.read_text())
    assert str(info.value) == message
    code, out = run_cli(capsys, "verify-cellular", str(path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "invalid-input"


def test_cli_build_families(tmp_path, capsys):
    out = tmp_path / "tl.plesken.json"
    code, _ = run_cli(
        capsys,
        "build", "--family", "temperley-lieb", "--n", "4", "--delta", "0",
        "--out", str(out),
    )
    assert code == 0
    doc = load(out)
    assert doc.algebra.dim == 14
    assert doc.cell is not None

    out2 = tmp_path / "pr.plesken.json"
    code, _ = run_cli(
        capsys, "build", "--family", "planar-rook", "--n", "3", "--out", str(out2)
    )
    assert code == 0
    assert load(out2).algebra.dim == 20

    out3 = tmp_path / "m1.plesken.json"
    code, _ = run_cli(
        capsys, "build", "--family", "matrix", "--n", "1", "--out", str(out3)
    )
    assert code == 0
    doc3 = load(out3)
    assert doc3.algebra.dim == 1
    assert doc3.sigma.images == ({0: 1},)


def test_cli_build_group_and_matrix_over(tmp_path, capsys):
    table = symmetric_3_table()
    table_file = tmp_path / "s3.json"
    table_file.write_text(
        json.dumps({"name": "S3", "product": [list(r) for r in table.product]})
    )
    out = tmp_path / "s3.plesken.json"
    code, _ = run_cli(
        capsys, "build", "--family", "group", "--table", str(table_file),
        "--out", str(out),
    )
    assert code == 0
    assert load(out).algebra.dim == 6

    # The name is a JSON string and the labels a JSON list of strings: a
    # number is not formatted into a path, integer labels do not make a
    # document that analyze refuses, and a string is not read as its
    # characters.
    c2 = {"product": [[0, 1], [1, 0]]}
    for bad in ({"name": 7}, {"labels": [0, 1]}, {"labels": "ab"}, {"labels": None}):
        table_file.write_text(json.dumps({**c2, **bad}))
        code = cli.main([
            "build", "--family", "group", "--table", str(table_file),
            "--out", str(tmp_path / "c2.plesken.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: group table ")
    # Table entries are JSON integers: booleans are not read as 0 and 1 and
    # floats are not refused by a Python error.
    for product in ([[False, True], [True, False]], [[0.0, 1], [1, 0]]):
        table_file.write_text(json.dumps({"product": product, "labels": ["a", "b"]}))
        code = cli.main([
            "build", "--family", "group", "--table", str(table_file),
            "--out", str(tmp_path / "c2.plesken.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: closure: product table entry out of range\n"
        )
    assert not (tmp_path / "c2.plesken.json").exists()
    table_file.write_text(json.dumps({**c2, "name": "C2", "labels": ["e", "g"]}))
    code, _ = run_cli(
        capsys, "build", "--family", "group", "--table", str(table_file),
        "--out", str(tmp_path / "c2.plesken.json"),
    )
    assert code == 0
    assert load(tmp_path / "c2.plesken.json").algebra.labels == ("e", "g")

    q = tmp_path / "q.plesken.json"
    code, _ = run_cli(
        capsys, "build", "--family", "quaternions", "--out", str(q)
    )
    assert code == 0
    out2 = tmp_path / "m2h.plesken.json"
    code, _ = run_cli(
        capsys, "build", "--family", "matrix-over", "--n", "2",
        "--inner", str(q), "--out", str(out2),
    )
    assert code == 0
    assert load(out2).algebra.dim == 16


def test_cli_build_rejects(capsys, tmp_path):
    code, _ = run_cli(capsys, "build", "--family", "planar-rook", "--n", "9")
    assert code == 2
    code, _ = run_cli(capsys, "build", "--family", "matrix")
    assert code == 2


# The flags each family's build needs, as `cli.FAMILIES` declares them.
BUILD_FLAGS = {
    "quaternions": (),
    "matrix": ("n",),
    "matrix-conj": ("n",),
    "group": ("table",),
    "matrix-over": ("n", "inner"),
    "planar-rook": ("n",),
    "temperley-lieb": ("n", "delta"),
}


@pytest.mark.parametrize(
    "family, missing, message",
    [
        *((family, (), None) for family in BUILD_FLAGS),
        ("matrix", ("n",), "--n is required for matrix"),
        ("matrix-conj", ("n",), "--n is required for matrix-conj"),
        ("group", ("table",), "--table is required for group"),
        ("matrix-over", ("n",), "--n is required for matrix-over"),
        ("matrix-over", ("inner",), "--inner is required for matrix-over"),
        ("matrix-over", ("n", "inner"), "--n and --inner are required for matrix-over"),
        ("planar-rook", ("n",), "--n is required for planar-rook"),
        ("temperley-lieb", ("n",), "--n is required for temperley-lieb"),
        ("temperley-lieb", ("delta",), "--delta is required for temperley-lieb"),
        ("temperley-lieb", ("n", "delta"), "--n and --delta are required for temperley-lieb"),
    ],
)
def test_cli_build_names_the_missing_flags(family, missing, message, tmp_path, capsys):
    # One error line, no traceback, naming only the flags left out; with
    # none left out the family builds.
    assert cli.FAMILIES == BUILD_FLAGS
    table, inner = tmp_path / "c2.json", tmp_path / "q.plesken.json"
    table.write_text(json.dumps({"product": [[0, 1], [1, 0]]}))
    save(document_from_algebra("q", *quaternions()), inner)
    values = {"n": "2", "delta": "0", "table": str(table), "inner": str(inner)}
    out = tmp_path / "x.plesken.json"
    argv = ["build", "--family", family, "--out", str(out)]
    for flag in BUILD_FLAGS[family]:
        if flag not in missing:
            argv += [f"--{flag}", values[flag]]
    code = cli.main(argv)
    err = capsys.readouterr().err
    if message is None:
        assert (code, err, out.exists()) == (0, "", True)
    else:
        assert (code, err, out.exists()) == (2, f"error: {message}\n", False)


def test_the_cli_alone_echoes_the_seed(tmp_path, capsys):
    # analyze, verify-cellular and paper-suite add the key; the report
    # library takes no seed, and Markdown does not print it.
    doc = tmp_path / "pr2.plesken.json"
    run_cli(capsys, "build", "--family", "planar-rook", "--n", "2", "--out", str(doc))
    for argv in (("analyze", str(doc)), ("verify-cellular", str(doc)),
                 ("paper-suite",)):
        code, out = run_cli(capsys, *argv, "--seed", "5")
        assert code == 0
        assert '\n  "seed": 5' in out and json.loads(out)["seed"] == 5
    for command in ("analyze", "verify-cellular"):
        argv = (command, str(doc), "--format", "md", "--seed")
        assert run_cli(capsys, *argv, "0") == run_cli(capsys, *argv, "5")
    algebra, sigma = planar_rook(2)
    assert "seed" not in analysis_report("pr2", algebra, sigma)
    assert "seed" not in cellular_report("pr2", algebra, sigma, cell_datum_planar_rook(2, sigma))


def test_cli_names_the_involution_witness(tmp_path, capsys):
    # M(2) with sigma a permutation that does not square to the identity,
    # then with sigma the identity, which does not reverse products.
    m2 = tmp_path / "m2.plesken.json"
    run_cli(capsys, "build", "--family", "matrix", "--n", "2", "--out", str(m2))
    payload = json.loads(m2.read_text())
    for permutation, message in (
        ([1, 2, 3, 0], "sigma^2 != id at basis index 0"),
        ([0, 1, 2, 3], "sigma(ei ej) != sigma(ej) sigma(ei) at basis pair (1, 0)"),
    ):
        payload["involution"]["permutation"] = permutation
        m2.write_text(json.dumps(payload))
        code, out = run_cli(capsys, "analyze", str(m2))
        assert code == 2
        assert json.loads(out)["error"] == {
            "kind": "invalid-input", "message": f"involution invalid: {message}"}


def test_a_sigma_of_the_wrong_size_is_refused(tmp_path, capsys):
    algebra, sigma = matrix_algebra(2)
    with pytest.raises(DocumentInvalid) as info:
        validate_algebra(algebra, AntiInvolution(sigma.images[:3]))
    assert str(info.value) == (
        "involution invalid: involution matrix shape does not match the algebra")
    # In a document, parse refuses it first.
    m2 = tmp_path / "m2.plesken.json"
    run_cli(capsys, "build", "--family", "matrix", "--n", "2", "--out", str(m2))
    payload = json.loads(m2.read_text())
    payload["involution"] = {"matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    m2.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "analyze", str(m2))
    assert code == 2
    assert json.loads(out)["error"]["message"] == (
        f"cannot parse {m2}: involution matrix has wrong shape")


def test_cli_names_a_cell_triple_map_that_is_not_a_bijection(tmp_path, capsys):
    m2 = tmp_path / "m2.plesken.json"
    run_cli(capsys, "build", "--family", "matrix", "--n", "2", "--out", str(m2))
    payload = json.loads(m2.read_text())
    assert payload["cell"]["triples"][1] == [1, 1, 2, 1]
    payload["cell"]["triples"][1][3] = 0  # basis index 0 twice, 1 never
    m2.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "verify-cellular", str(m2))
    assert code == 2
    assert json.loads(out)["cellularity"]["failure"] == (
        "C1 fails: triple map is not a bijection onto the basis (witness ((0,),))")


def test_cli_refuses_a_missing_document(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "analyze", "missing.json")
    assert code == 2
    assert json.loads(out)["error"]["message"].startswith("cannot read missing.json:")


@pytest.mark.parametrize(
    "table, message",
    [
        ({"product": [[0, 1], [1]]}, "product table must be square"),
        ({"product": [[0, 1], [1, 0]], "labels": ["a", "b", "c"]}, "wrong number of labels"),
        # A string is refused as labels whatever its length.
        ({"product": [[0, 1], [1, 0]], "labels": "ab"},
         "group table labels must be a JSON list of strings"),
        ({"product": [[0, 1], [1, 0]], "labels": "abc"},
         "group table labels must be a JSON list of strings"),
    ],
)
def test_cli_build_refuses_a_malformed_group_table(table, message, tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    out = tmp_path / "x.plesken.json"
    code = cli.main(["build", "--family", "group", "--table", str(path), "--out", str(out)])
    assert (code, capsys.readouterr().err, out.exists()) == (2, f"error: {message}\n", False)


def test_cli_build_refuses_an_unreadable_group_table(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    errors = []
    monkeypatch.setattr(cli, "_report_error", lambda args, *error: errors.append(error))
    assert cli.main(["build", "--family", "group", "--table", "missing.json"]) == 2
    ((kind, message),) = errors
    assert kind == "invalid-input" and message.startswith("cannot read missing.json: ")


# The message ends in the interpreter's own text for the failed lookup, such
# as "'product'" or "'int' object is not iterable", so only its start is pinned.
@pytest.mark.parametrize("table", [{"name": "x"}, [1, 2], {"product": [1, 2]}])
def test_cli_build_refuses_a_group_table_without_rows(table, tmp_path, monkeypatch):
    errors = []
    monkeypatch.setattr(cli, "_report_error", lambda args, *error: errors.append(error))
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    out = tmp_path / "x.plesken.json"
    assert cli.main(["build", "--family", "group", "--table", str(path), "--out", str(out)]) == 2
    ((kind, message),) = errors
    assert kind == "invalid-input" and message.startswith("malformed group table: ")
    assert not out.exists()


@pytest.mark.parametrize("family, flags", [
    ("planar-rook", ()),
    ("temperley-lieb", ("--delta", "1")),
    ("matrix-over", ("--inner", "{inner}")),
])
def test_cli_build_refuses_n_0(family, flags, tmp_path, capsys):
    inner = tmp_path / "q.plesken.json"
    save(document_from_algebra("q", *quaternions()), inner)
    flags = [flag.format(inner=inner) for flag in flags]
    out = tmp_path / "x.plesken.json"
    code = cli.main(["build", "--family", family, "--n", "0", *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert (code, err, out.exists()) == (2, "error: n must be at least 1\n", False)


def test_cli_build_refuses_bad_arguments_as_input(tmp_path, capsys, monkeypatch):
    kinds = []
    monkeypatch.setattr(cli, "_report_error", lambda args, kind, message: kinds.append(kind))
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"product": [[0, 1], [0, 1]]}))  # no identity
    for argv in (
        ["--family", "matrix", "--n", "0"],
        ["--family", "temperley-lieb", "--n", "7", "--delta", "0"],
        ["--family", "temperley-lieb", "--n", "3", "--delta", "abc"],
        ["--family", "group", "--table", str(table)],
    ):
        assert cli.main(["build", *argv, "--out", str(tmp_path / "x.plesken.json")]) == 2
    assert kinds == ["invalid-input"] * 4
    assert not (tmp_path / "x.plesken.json").exists()


@pytest.mark.parametrize(
    "product, message",
    [
        # not associative
        ([[0, 1, 2], [1, 1, 0], [2, 0, 2]], "associativity fails at basis triple (1, 1, 2)"),
        # row 0 is a left identity but not a right one
        ([[0, 1], [0, 1]], "unit axiom fails at basis index 1"),
        # every row holds the identity, so every element has a right inverse
        ([[0, 1, 2], [1, 0, 1], [2, 0, 1]], "associativity fails at basis triple (1, 2, 1)"),
    ],
)
def test_cli_build_refuses_non_group_tables_by_validation(tmp_path, monkeypatch, product, message):
    # GroupTable reads the identity and inverses; validate_algebra names the
    # law that fails.
    errors = []
    monkeypatch.setattr(cli, "_report_error", lambda args, *error: errors.append(error))
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"product": product}))
    out = tmp_path / "x.plesken.json"
    assert cli.main(["build", "--family", "group", "--table", str(table), "--out", str(out)]) == 2
    assert errors == [("invalid-input", message)]
    assert not out.exists()


def test_cli_refuses_an_order_that_is_not_transitive(tmp_path, capsys):
    # PR(2) has the cells 0 < 1 < 2; dropping the pair (0, 2) leaves an
    # order that is not transitively closed.
    algebra, sigma = planar_rook(2)
    doc = json.loads(
        emit(document_from_algebra("pr2", algebra, sigma, cell=cell_datum_planar_rook(2, sigma)))
    )
    assert doc["cell"]["order"] == [[0, 1], [0, 2], [1, 2]]
    doc["cell"]["order"] = [[0, 1], [1, 2]]
    path = tmp_path / "pr2.plesken.json"
    path.write_text(json.dumps(doc))
    for command in ("analyze", "verify-cellular"):
        code, out = run_cli(capsys, command, str(path))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "invalid-input"
        assert error["message"].endswith("order pairs are not transitively closed")


def test_cli_refuses_a_cell_triple_listed_twice(tmp_path, capsys):
    # A repeated triple was read once: with its own index the document
    # certified, and with another index it overwrote the first, so that C1
    # named the index instead of the triple.
    path = tmp_path / "m2.plesken.json"
    run_cli(capsys, "build", "--family", "matrix", "--n", "2", "--out", str(path))
    valid = path.read_text()
    for extra in ([1, 1, 1, 0], [1, 1, 1, 3]):
        doc = json.loads(valid)
        doc["cell"]["triples"].append(extra)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"^cell triple \(1, 1, 1\) is listed twice$"):
            parse(path.read_text())
        for command in ("analyze", "verify-cellular"):
            code, out = run_cli(capsys, command, str(path))
            assert code == 2
            error = json.loads(out)["error"]
            assert error["kind"] == "invalid-input"
            assert error["message"].endswith("cell triple (1, 1, 1) is listed twice")


def test_cli_build_and_verify_m11(tmp_path, capsys):
    # M(11) has both E_{1,11} and E_{11,1}; PR(6)'s certificate compares
    # against o(15) and o(20), built from M(15) and M(20).
    out = tmp_path / "m11.plesken.json"
    assert run_cli(capsys, "build", "--family", "matrix", "--n", "11", "--out", str(out))[0] == 0
    code, report = run_cli(capsys, "verify-cellular", str(out))
    assert code == 0
    assert json.loads(report)["theorem"]["certified"] is True


def test_cli_analyze_tl0(tmp_path, capsys):
    doc_path = tmp_path / "tl.plesken.json"
    run_cli(
        capsys,
        "build", "--family", "temperley-lieb", "--n", "4", "--delta", "0",
        "--out", str(doc_path),
    )
    code, out = run_cli(capsys, "analyze", str(doc_path))
    assert code == 0
    report = json.loads(out)
    assert report["plesken"]["dim"] == 4
    assert report["fingerprint"]["solvable"] is True
    assert report["fingerprint"]["derived_length"] == 3
    assert len(report["plesken"]["bracket_table"]) == 6


def test_cli_analyze_quaternions(tmp_path, capsys):
    doc_path = tmp_path / "q.plesken.json"
    run_cli(capsys, "build", "--family", "quaternions", "--out", str(doc_path))
    code, out = run_cli(capsys, "analyze", str(doc_path))
    report = json.loads(out)
    assert code == 0
    assert report["plesken"]["dim"] == 3
    table = {(row[0], row[1]): row[2] for row in report["plesken"]["bracket_table"]}
    assert table[("i", "j")] == "2*k"
    assert table[("i", "k")] == "-2*j"
    assert table[("j", "k")] == "2*i"


def test_cli_analyze_bracket_cap(tmp_path, capsys):
    doc_path = tmp_path / "q.plesken.json"
    run_cli(capsys, "build", "--family", "quaternions", "--out", str(doc_path))
    code, out = run_cli(capsys, "analyze", str(doc_path), "--bracket-cap", "2")
    assert code == 0
    assert json.loads(out)["plesken"]["bracket_table"] is None


def test_cli_analyze_markdown(tmp_path, capsys):
    doc_path = tmp_path / "q.plesken.json"
    run_cli(capsys, "build", "--family", "quaternions", "--out", str(doc_path))
    code, out = run_cli(capsys, "analyze", str(doc_path), "--format", "md")
    assert code == 0
    assert out.startswith("# Report: quaternions")
    assert "Bracket table" in out


def test_cli_analyze_is_deterministic(tmp_path, capsys):
    doc_path = tmp_path / "pr.plesken.json"
    run_cli(capsys, "build", "--family", "planar-rook", "--n", "2",
            "--out", str(doc_path))
    _, out1 = run_cli(capsys, "analyze", str(doc_path), "--seed", "5")
    _, out2 = run_cli(capsys, "analyze", str(doc_path), "--seed", "5")
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("analyze", "{doc}"),
    ("analyze", "{doc}", "--format", "md"),
    ("verify-cellular", "{doc}"),
    ("verify-cellular", "{doc}", "--format", "md"),
    ("paper-suite",),
])
def test_timing_adds_one_field_and_nothing_else(tmp_path, capsys, argv):
    # Without --timing no report names it; with it the JSON gains the int key
    # timing_ms, and the Markdown the one line "- timing_ms: N".
    doc = tmp_path / "pr2.plesken.json"
    run_cli(capsys, "build", "--family", "planar-rook", "--n", "2", "--out", str(doc))
    argv = [arg.format(doc=doc) for arg in argv]
    code, plain = run_cli(capsys, *argv)
    assert code == 0 and "timing_ms" not in plain
    assert run_cli(capsys, *argv) == (code, plain)
    timed_code, timed = run_cli(capsys, *argv, "--timing")
    assert timed_code == code
    if "md" in argv:
        (line,) = [line for line in timed.splitlines(keepends=True) if "timing_ms" in line]
        assert re.fullmatch(r"- timing_ms: \d+\n", line)
        assert timed.replace(line, "", 1) == plain
    else:
        report = json.loads(timed)
        assert type(report.pop("timing_ms")) is int
        assert json.dumps(report, indent=2, sort_keys=True) + "\n" == plain


def test_cli_verify_cellular_exit_codes(tmp_path, capsys):
    pr = tmp_path / "pr.plesken.json"
    run_cli(capsys, "build", "--family", "planar-rook", "--n", "3", "--out", str(pr))
    code, out = run_cli(capsys, "verify-cellular", str(pr))
    assert code == 0
    report = json.loads(out)
    assert report["theorem"]["certified"] is True
    assert report["predicted_decomposition"]["lie_dim"] == 6

    tl3 = tmp_path / "tl43.plesken.json"
    run_cli(capsys, "build", "--family", "temperley-lieb", "--n", "4",
            "--delta", "3", "--out", str(tl3))
    code, out = run_cli(capsys, "verify-cellular", str(tl3))
    assert code == 0

    tl0 = tmp_path / "tl40.plesken.json"
    run_cli(capsys, "build", "--family", "temperley-lieb", "--n", "4",
            "--delta", "0", "--out", str(tl0))
    code, out = run_cli(capsys, "verify-cellular", str(tl0))
    assert code == 1
    report = json.loads(out)
    assert report["semisimplicity"]["semisimple"] is False
    assert report["theorem"]["failed_check"] == "representation_injective"
    assert report["fingerprint_comparison"]["matches"] is False


def test_cli_certifies_the_zero_dimensional_algebra(tmp_path, capsys):
    # A map from the zero space is injective and 0 is the empty sum of o(d),
    # so both commands succeed on an empty basis with an empty cell datum.
    zero = tmp_path / "zero.plesken.json"
    zero.write_text(json.dumps({
        "format_version": "1", "name": "zero", "basis": [], "structure": [], "unit": [],
        "involution": {"permutation": [], "signs": []},
        "cell": {"lambdas": [], "order": [], "index_sets": [], "triples": []},
    }))
    code, out = run_cli(capsys, "analyze", str(zero))
    assert code == 0
    assert json.loads(out)["fingerprint"]["dim"] == 0
    code, out = run_cli(capsys, "verify-cellular", str(zero))
    assert code == 0
    theorem = json.loads(out)["theorem"]
    assert theorem["certified"] is True and theorem["failed_check"] is None
    assert theorem["checks"] == dict.fromkeys(
        ("dimension_match", "form_skewness", "representation_injective"), True)
    assert (theorem["lie_dim"], theorem["blocks"], theorem["gram_ranks"]) == (0, [], [])


def test_cli_verify_needs_cell_section(tmp_path, capsys):
    q = tmp_path / "q.plesken.json"
    run_cli(capsys, "build", "--family", "quaternions", "--out", str(q))
    code, _ = run_cli(capsys, "verify-cellular", str(q))
    assert code == 2


def test_cli_markdown_names_the_cell_datum_failure(tmp_path, capsys):
    # M(2) with the basis indices of its first two cell triples swapped
    # fails C2; the Markdown report must say so, as the JSON one does.
    m2 = tmp_path / "m2.plesken.json"
    run_cli(capsys, "build", "--family", "matrix", "--n", "2", "--out", str(m2))
    payload = json.loads(m2.read_text())
    triples = payload["cell"]["triples"]
    triples[0][3], triples[1][3] = triples[1][3], triples[0][3]
    m2.write_text(json.dumps(payload))
    failure = (
        "C2 fails: involution does not send C[s,t] to C[t,s] (witness (1, 1, 1))"
    )
    code, out = run_cli(capsys, "verify-cellular", str(m2))
    assert code == 2
    assert json.loads(out)["cellularity"] == {"valid": False, "failure": failure}
    code, out = run_cli(capsys, "verify-cellular", str(m2), "--format", "md")
    assert code == 2
    assert out.endswith(
        "## Cellular structure\n\n- cell datum valid: False\n"
        f"- failure: {failure}\n"
    )


def test_cli_rejects_corrupted_document(tmp_path, capsys, monkeypatch):
    q = tmp_path / "q.plesken.json"
    run_cli(capsys, "build", "--family", "quaternions", "--out", str(q))
    payload = json.loads(q.read_text())
    payload["structure"] = [
        [i, j, k, "2" if (i, j, k) == (1, 1, 0) else c]
        for i, j, k, c in payload["structure"]
    ]
    q.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "analyze", str(q))
    assert code == 2
    error = json.loads(out)
    assert error["error"]["kind"] == "invalid-input"

    # A missing field, a float scalar, an involution that is not an object
    # and a conjugation flag that is not a boolean are malformed input, not
    # exit 1 or 3 (nor a string "false" read as true).
    valid = json.loads(emit(document_from_algebra("q", *quaternions())))
    no_unit = {key: value for key, value in valid.items() if key != "unit"}
    float_scalar = json.loads(json.dumps(valid))
    float_scalar["structure"][0][3] = 1.5
    involution_list = {**valid, "involution": []}
    involution_text = {**valid, "involution": "x"}
    flag_text = {**valid, "involution": {**valid["involution"], "conjugates_scalars": "false"}}
    # Signs must give one sign per basis element: an extra sign is not
    # ignored and a short list is not truncated.
    long_signs = {**valid, "involution": {**valid["involution"], "signs": [1, -1, -1, -1, 1]}}
    short_signs = {**valid, "involution": {**valid["involution"], "signs": [1, -1, -1]}}
    # The name is a JSON string, not a list or a number to be formatted.
    name_list = {**valid, "name": ["x"]}
    name_int = {**valid, "name": 7}
    # The metadata is a JSON object.
    metadata = [{**valid, "metadata": value} for value in (5, [1], "x")]
    for payload in (
        *metadata,
        no_unit,
        float_scalar,
        involution_list,
        involution_text,
        flag_text,
        long_signs,
        short_signs,
        name_list,
        name_int,
    ):
        q.write_text(json.dumps(payload))
        code, out = run_cli(capsys, "analyze", str(q))
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "invalid-input"
    # build names its default output after the inner document's name.
    q.write_text(json.dumps(name_list))
    monkeypatch.setenv("PLESKEN_OUT_DIR", str(tmp_path))
    code, _ = run_cli(capsys, "build", "--family", "matrix-over", "--n", "2", "--inner", str(q))
    assert code == 2 and not list(tmp_path.glob("matrix-over-*"))

    # A string where a list is required is not iterated character by
    # character: "1001" is not the unit [1, 0, 0, 1] of M(2).
    algebra, sigma = matrix_algebra(2)
    valid = json.loads(
        emit(document_from_algebra("m2", algebra, sigma, cell=cell_datum_matrix(2, sigma)))
    )
    cell = valid["cell"]
    transpose = [list(row) for row in ("1000", "0010", "0100", "0001")]
    q.write_text(json.dumps({**valid, "involution": {"matrix": transpose}}))
    assert run_cli(capsys, "verify-cellular", str(q))[0] == 0
    for payload in (
        {**valid, "unit": "1001"},
        {**valid, "structure": "[]"},
        {**valid, "structure": [[0, 0, 0, "1"], "0011"] + valid["structure"]},
        {**valid, "involution": {"matrix": "1000"}},
        {**valid, "involution": {"matrix": ["".join(row) for row in transpose]}},
        {**valid, "cell": {**cell, "lambdas": "1"}},
        {**valid, "cell": {**cell, "order": "12"}},
        {**valid, "cell": {**cell, "index_sets": "12"}},
        {**valid, "cell": {**cell, "index_sets": [[1, "12"]]}},
        {**valid, "cell": {**cell, "index_sets": ["1[]"]}},
        {**valid, "cell": {**cell, "triples": "1110"}},
        {**valid, "cell": {**cell, "triples": ["1110", *cell["triples"][1:]]}},
        {**valid, "metadata": 5},
        {**valid, "metadata": [1]},
        {**valid, "metadata": "x"},
    ):
        q.write_text(json.dumps(payload))
        code, out = run_cli(capsys, "verify-cellular", str(q))
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "invalid-input"

    # The algebra and the cell datum refuse these as the document is read,
    # whichever command reads it.  A repeated index-set member would pass C1,
    # which compares sets of triples, and give a degenerate 3x3 Gram form.
    for payload in (
        {**valid, "basis": ["E11", "E12", "E12", "E22"]},
        {**valid, "cell": {**cell, "lambdas": [1, 1]}},
        {**valid, "cell": {**cell, "order": [[1, 1]]}},
        {**valid, "cell": {**cell, "order": [[1, 7]]}},
        {**valid, "cell": {**cell, "index_sets": [[1, [1, 2, 2]]]}},
        {**valid, "cell": {**cell, "index_sets": [[1, [1, 2]], [1, [1, 2]]]}},
        {**valid, "cell": {**cell, "index_sets": [[1, [1, 2]], [7, [1]]]}},
    ):
        q.write_text(json.dumps(payload))
        for command in ("analyze", "verify-cellular"):
            code, out = run_cli(capsys, command, str(q))
            assert code == 2
            assert json.loads(out)["error"]["kind"] == "invalid-input"

    # JSON true is neither the index 1 nor the scalar 1, wherever it stands.
    involution = valid["involution"]
    true_one = [[True if v == "1" else v for v in row] for row in transpose]

    def structure(old, new):
        return [new if entry == old else entry for entry in valid["structure"]]

    for payload in (
        {**valid, "structure": structure([1, 2, 0, "1"], [True, 2, 0, "1"])},
        {**valid, "structure": structure([0, 0, 0, "1"], [0, 0, 0, True])},
        {**valid, "unit": [True, "0", "0", "1"]},
        {**valid, "involution": {**involution, "permutation": [0, 2, True, 3]}},
        {**valid, "involution": {**involution, "signs": [True, 1, 1, 1]}},
        {**valid, "involution": {"matrix": true_one}},
        {**valid, "cell": {**cell, "triples": [
            [*triple[:3], True if triple[3] == 1 else triple[3]] for triple in cell["triples"]
        ]}},
    ):
        q.write_text(json.dumps(payload))
        code, out = run_cli(capsys, "verify-cellular", str(q))
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "invalid-input"

    # Nor is it the cell label 1, in any label position.  The first triple
    # of M(2) is [1, 1, 1, 0]; PR(2) has the cells 0 < 1 < 2.
    first, *rest = cell["triples"]
    assert first == [1, 1, 1, 0]
    algebra, sigma = planar_rook(2)
    rook = json.loads(
        emit(document_from_algebra("pr2", algebra, sigma, cell=cell_datum_planar_rook(2, sigma)))
    )
    for payload in (
        {**valid, "cell": {**cell, "lambdas": [True]}},
        {**rook, "cell": {**rook["cell"], "order": [[0, True], [0, 2], [True, 2]]}},
        {**valid, "cell": {**cell, "index_sets": [[True, [1, 2]]]}},
        {**valid, "cell": {**cell, "index_sets": [[1, [True, 2]]]}},
        {**valid, "cell": {**cell, "triples": [[True, 1, 1, 0], *rest]}},
        {**valid, "cell": {**cell, "triples": [[1, True, 1, 0], *rest]}},
        {**valid, "cell": {**cell, "triples": [[1, 1, True, 0], *rest]}},
    ):
        q.write_text(json.dumps(payload))
        code, out = run_cli(capsys, "verify-cellular", str(q))
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "invalid-input"


def test_cli_names_the_associativity_witness(tmp_path, capsys):
    # TL_3(4) has one term per product; a changed coefficient (integral or
    # not) or target must be refused at the triple the restricted full scan
    # finds first.
    q = tmp_path / "tl.plesken.json"
    valid = json.loads(emit(document_from_algebra("tl", *temperley_lieb(4, 3))))
    quad = [0, 7, 0, "1"]
    assert quad in valid["structure"]
    for corrupted in ([0, 7, 0, "2"], [0, 7, 0, "1/2"], [0, 7, 1, "1"]):
        structure = [corrupted if entry == quad else entry for entry in valid["structure"]]
        q.write_text(json.dumps({**valid, "structure": structure}))
        algebra = load(q).algebra
        triple = associativity_all_triples(algebra, algebra.generators)
        assert triple is not None
        code, out = run_cli(capsys, "analyze", str(q))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "invalid-input"
        assert error["message"] == f"associativity fails at basis triple {triple}"


def test_cli_analyzes_a_multi_term_document(tmp_path, capsys):
    # TL_3(4) in the basis b_i = e_i + e_{i+1}: most products have several
    # terms, and sigma is not a signed permutation, so the document holds it
    # as a matrix.  The table goes through parse, validation, the Lie table
    # and the fingerprint, an isomorphism invariant.
    monomial, summed = tmp_path / "tl.plesken.json", tmp_path / "tlb.plesken.json"
    save(document_from_algebra("tl", *temperley_lieb(4, 3)), monomial)
    algebra, sigma = bidiagonal_basis(*temperley_lieb(4, 3))
    assert sum(len(terms) > 1 for terms in pairs(algebra).values()) > algebra.dim
    save(document_from_algebra("tlb", algebra, sigma), summed)
    assert "matrix" in json.loads(summed.read_text())["involution"]
    reports = []
    for path in (monomial, summed):
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 0
        reports.append(json.loads(out))
    assert set(reports[1]["checks"].values()) == {"pass"}
    assert reports[1]["fingerprint"] == reports[0]["fingerprint"]


def test_cli_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    q = tmp_path / "q.plesken.json"
    run_cli(capsys, "build", "--family", "quaternions", "--out", str(q))

    for error, kind in (
        (InternalConsistencyError("forced"), "internal-inconsistency"),
        (ZeroDivisionError("unexpected"), "internal-error"),
        # Every input error is refused while the document is read; a
        # ValueError after that is the program's fault, not the input's.
        (ValueError("unexpected"), "internal-error"),
    ):
        def boom(*args, error=error, **kwargs):
            raise error

        monkeypatch.setattr(cli, "analysis_report", boom)
        code = cli.main(["analyze", str(q)])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out)["error"]["kind"] == kind
        # A crash, and only a crash, prints its traceback before the error line.
        crashed = kind == "internal-error"
        assert ("Traceback (most recent call last)" in captured.err) == crashed
        assert (f"\n{type(error).__name__}: unexpected\n" in captured.err) == crashed


def test_cli_paper_suite_passes_and_is_reproducible(tmp_path, capsys):
    out1 = tmp_path / "suite1.json"
    out2 = tmp_path / "suite2.json"
    code, _ = run_cli(capsys, "paper-suite", "--out", str(out1))
    assert code == 0
    code, _ = run_cli(capsys, "paper-suite", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["failed"] == [] and payload["skipped"] == []
    assert all(item["status"] == "pass" for item in payload["results"].values())


def test_cli_paper_suite_exits_1_on_a_failed_item(capsys, monkeypatch):
    # M(2) in place of the quaternions has a one-dimensional skew part, so
    # that item fails its check and the battery refutes; nothing is skipped.
    import plesken.suite as suite_module

    monkeypatch.setattr(suite_module, "quaternions", lambda: matrix_algebra(2))
    code, out = run_cli(capsys, "paper-suite", "--seed", "3")
    assert code == 1
    payload = json.loads(out)
    assert sorted(payload) == ["failed", "results", "seed", "skipped"]
    assert (payload["failed"], payload["skipped"]) == (["quaternions"], [])
    assert payload["results"]["quaternions"] == {
        "status": "fail", "reason": "AssertionError: skew part should be 3-dimensional"}
    with pytest.raises(SystemExit) as refused:
        cli.main(["paper-suite", "--cap", "3"])
    assert refused.value.code == 2


def test_suite_isolates_failing_items(monkeypatch):
    import plesken.suite as suite_module

    def boom():
        raise RuntimeError("corrupted")

    monkeypatch.setattr(suite_module, "quaternions", boom)
    results = run_suite()
    assert results["quaternions"]["status"] == "fail"
    assert results["planar-rook-n1"]["status"] == "pass"
    assert results["group-S3"]["status"] == "pass"


def test_suite_validates_every_item(monkeypatch):
    # The largest planar rook item is validated like the small ones: a wrong
    # unit fails it.
    import plesken.suite as suite_module

    def planar_rook_wrong_unit(n, **kwargs):
        algebra, sigma = planar_rook(n, **kwargs)
        if n == 4:
            unit = unit_vector(algebra.dim, 0)
            algebra = Algebra(algebra.labels, quads(pairs(algebra)), unit)
        return algebra, sigma

    monkeypatch.setattr(suite_module, "planar_rook", planar_rook_wrong_unit)
    results = run_suite()
    assert results["planar-rook-n4"]["status"] == "fail"
    assert "unit axiom fails" in results["planar-rook-n4"]["reason"]
    assert results["planar-rook-n3"]["status"] == "pass"


def test_suite_builds_each_gram_form_once(monkeypatch):
    # Every cellular item has a linear sigma, so the certificate reads the
    # Gram forms alone and builds no cell module.
    import plesken.cellular as cellular

    calls = {"cell_module": 0, "gram_matrix": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(cellular, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(cellular, name, counted)
    results = run_suite()
    assert all(item["status"] == "pass" for item in results.values())
    assert calls == {"cell_module": 0, "gram_matrix": 38}


def test_out_dir_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PLESKEN_OUT_DIR", str(tmp_path))
    code, _ = run_cli(
        capsys, "build", "--family", "quaternions", "--out", "sub/q.plesken.json"
    )
    assert code == 0
    assert (tmp_path / "sub" / "q.plesken.json").exists()


def _build_from_table(capsys, tmp_path, name):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"name": name, "product": [[0, 1], [1, 0]]}))
    return run_cli(capsys, "build", "--family", "group", "--table", str(table))


@pytest.mark.parametrize("out_dir", [False, True])
def test_default_output_stays_in_the_output_directory(tmp_path, capsys, monkeypatch, out_dir):
    # The default file is named after the document, whose name is file
    # content: its separators become "_", so it is one file in the output
    # directory, whatever the name.  The document keeps its name.
    work = tmp_path / "a" / "b"
    work.mkdir(parents=True)
    monkeypatch.chdir(work)
    target = tmp_path / "out" if out_dir else work
    if out_dir:
        monkeypatch.setenv("PLESKEN_OUT_DIR", str(target))
    absolute = str(tmp_path / "abs")
    for name in ("../../x", absolute, "..\\y"):
        assert _build_from_table(capsys, tmp_path, name)[0] == 0
        written = target / (name.replace("/", "_").replace("\\", "_") + ".plesken.json")
        assert load(written).name == name
    inner = tmp_path / "inner.plesken.json"
    save(document_from_algebra("../../q", *quaternions()), inner)
    code, _ = run_cli(capsys, "build", "--family", "matrix-over", "--n", "1", "--inner", str(inner))
    assert code == 0
    assert load(target / "matrix-over-.._.._q-n1.plesken.json").name == "matrix-over-../../q-n1"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["a", "inner.plesken.json", "table.json", *(["out"] if out_dir else [])]
    )
    assert len(list(target.iterdir())) == 4


def test_default_output_refuses_a_nul_in_the_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"name": "x\u0000y", "product": [[0]]}))
    assert cli.main(["build", "--family", "group", "--table", str(table)]) == 2
    assert capsys.readouterr().err == "error: document name holds a NUL character\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.json"]
    # With --out the name is only content, written escaped.
    code, _ = run_cli(capsys, "build", "--family", "group", "--table", str(table), "--out", "g.json")
    assert code == 0 and load(tmp_path / "g.json").name == "x\u0000y"


def test_cli_unwritable_out_is_invalid_input(tmp_path, capsys, monkeypatch):
    # An --out naming a directory, or a path under a file, cannot be written:
    # the command refuses its input with exit 2 and prints no traceback.
    q, m2 = tmp_path / "q.plesken.json", tmp_path / "m2.plesken.json"
    run_cli(capsys, "build", "--family", "quaternions", "--out", str(q))
    run_cli(capsys, "build", "--family", "matrix", "--n", "2", "--out", str(m2))
    afile = tmp_path / "afile"
    afile.write_text("")
    for argv in (
        ["build", "--family", "quaternions", "--out", str(tmp_path)],
        ["analyze", str(q), "--out", str(tmp_path)],
        ["analyze", str(q), "--out", str(afile / "x.json")],
        ["verify-cellular", str(m2), "--out", str(tmp_path)],
        ["paper-suite", "--out", str(tmp_path)],
    ):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err.startswith("error: cannot write "), argv
        assert "Traceback" not in captured.err
        if argv[0] in ("analyze", "verify-cellular"):
            assert json.loads(captured.out)["error"]["kind"] == "invalid-input"
    monkeypatch.setenv("PLESKEN_OUT_DIR", str(afile))
    code = cli.main(["analyze", str(q), "--out", "x.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot write {afile / 'x.json'}: ")
    assert json.loads(captured.out)["error"]["kind"] == "invalid-input"


def test_save_and_load(tmp_path):
    doc = document_from_algebra("q", *quaternions())
    path = save(doc, tmp_path / "q.plesken.json")
    assert load(path) == doc


def test_failed_save_leaves_the_file_as_it_was(tmp_path):
    # `emit` refuses the metadata only after it has begun to write, so the
    # document goes to a temporary file first.
    path = save(document_from_algebra("q", *quaternions()), tmp_path / "q.plesken.json")
    old = path.read_bytes()
    bad = document_from_algebra("q", *quaternions(), metadata={"when": object()})
    for target in (path, tmp_path / "new.plesken.json"):
        with pytest.raises(TypeError):
            save(bad, target)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]
    doc = document_from_algebra("m2", *matrix_algebra(2))
    assert save(doc, path).read_bytes() == emit(doc).encode()
    assert list(tmp_path.iterdir()) == [path]


def test_permutation_documents_and_diagram_builds_make_no_dense_matrix(monkeypatch):
    # sigma is held as its sparse images: reading a permutation-form
    # document, building PR(3) with its cell datum, validating and emitting
    # construct no n x n Matrix.  Nor do reading and writing sigma in matrix
    # form: the rows are written from the images.
    algebra, sigma = planar_rook(3)
    text = emit(document_from_algebra("pr3", algebra, sigma, cell_datum_planar_rook(3, sigma)))
    matrix_doc = AlgebraDocument("tlb", *bidiagonal_basis(*temperley_lieb(3, 3)))
    matrix_text = emit(matrix_doc)
    assert "matrix" in json.loads(matrix_text)["involution"]

    def refuse(self, rows):
        raise AssertionError("a dense Matrix was constructed")

    monkeypatch.setattr(Matrix, "__init__", refuse)
    doc = parse(text)
    built, built_sigma = planar_rook(3)
    assert doc.algebra == built and doc.sigma == built_sigma
    assert doc.cell == cell_datum_planar_rook(3, built_sigma)
    validate_algebra(doc.algebra, doc.sigma)
    assert emit(doc) == text
    assert parse(matrix_text) == matrix_doc and emit(matrix_doc) == matrix_text
    with pytest.raises(AssertionError, match="dense Matrix"):
        Matrix([[1]])


def test_dense_involution_matrix_document(tmp_path, capsys):
    # Twisted transposition M -> S^-1 M^T S with S = [[1,1],[1,2]]: a genuine
    # anti-involution whose matrix is not a signed permutation, exercising
    # the full-matrix serialization and the generic apply path end to end.
    from oracles import matmul, transpose

    from plesken.algebra import validate_involution
    from plesken.linalg import Matrix

    algebra, _ = matrix_algebra(2)
    s = Matrix([[1, 1], [1, 2]])
    s_inv = Matrix([[2, -1], [-1, 1]])
    columns = []
    for r in range(2):
        for c in range(2):
            unit = Matrix([[1 if (i, j) == (r, c) else 0 for j in range(2)]
                           for i in range(2)])
            image = matmul(matmul(s_inv, transpose(unit)), s)
            columns.append([image.data[i][j] for i in range(2) for j in range(2)])
    sigma = involution_from_matrix(transpose(Matrix(columns)))
    assert sigma._signed_permutation is None
    assert validate_involution(algebra, sigma) is None

    doc = document_from_algebra("twisted-m2", algebra, sigma)
    assert "matrix" in json.loads(emit(doc))["involution"]
    assert parse(emit(doc)) == doc

    path = tmp_path / "twisted.plesken.json"
    path.write_text(emit(doc))
    code, out = run_cli(capsys, "analyze", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["plesken"]["dim"] == 1  # o(S) with S symmetric, n = 2
    assert report["checks"]["involution"] == "pass"
    assert report["checks"]["bracket_closure"] == "pass"
