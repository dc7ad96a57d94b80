"""Fuzz test of the CLI exit-code contract on mutated documents.

Valid documents made by `plesken build` are mutated at one place (a value
replaced by another JSON value, or removed) and run through `analyze` and
`verify-cellular` in-process.  Whatever the input, the exit code must be
0, 1, 2 or 3; no exception may surface as `internal-error`; and exit 1,
"refutation", may only come from `verify-cellular` with a valid cell datum
whose certificate fails.  A second test replaces one JSON integer (an
index, a sign or a cell label) with `true` or `false`, which both commands
must refuse as invalid input.  Documents and group tables nested deeper
than the JSON decoder's stack are refused as invalid input too.
"""

import contextlib
import io
import json
import operator
from functools import reduce

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from plesken import cli

BUILDS = {
    "quaternions": ["--family", "quaternions"],
    "matrix-n2": ["--family", "matrix", "--n", "2"],
    "matrix-conj-n2": ["--family", "matrix-conj", "--n", "2"],
    "planar-rook-n2": ["--family", "planar-rook", "--n", "2"],
    "temperley-lieb-n3": ["--family", "temperley-lieb", "--n", "3", "--delta", "0"],
}

KEYS = ("matrix", "permutation", "signs", "conjugates_scalars", "unit", "cell", "lambdas")

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.text("01-/i[]", max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), children, max_size=2),
    max_leaves=6,
)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for name, args in BUILDS.items():
        path = folder / f"{name}.plesken.json"
        assert _run(["build", *args, "--out", str(path)])[0] == 0
        docs[name] = json.loads(path.read_text())
    return folder, docs


def _paths(node, prefix=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, (*prefix, key))


def _mutated(doc, path, value, remove):
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if remove:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_documents_keep_the_exit_code_contract(documents, data):
    folder, docs = documents
    name = data.draw(st.sampled_from(sorted(docs)))
    doc = docs[name]
    path = data.draw(st.sampled_from(list(_paths(doc))))
    remove = bool(path) and data.draw(st.booleans())
    value = None if remove else data.draw(json_values)
    target = folder / "mutated.plesken.json"
    target.write_text(json.dumps(_mutated(doc, path, value, remove)))
    for command in ("analyze", "verify-cellular"):
        code, out = _run([command, str(target)])
        assert code in (0, 1, 2, 3)
        payload = json.loads(out)
        if "error" in payload:
            assert payload["error"]["kind"] != "internal-error", payload["error"]
        if code == 1:
            assert command == "verify-cellular"
            assert payload["cellularity"]["valid"]
            assert payload["theorem"]["certified"] is False


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_booleans_are_refused_at_every_integer_position(documents, data):
    # bool is a subclass of int, so JSON true and false must be refused
    # explicitly wherever the format asks for an integer.
    folder, docs = documents
    doc = docs[data.draw(st.sampled_from(sorted(docs)))]
    positions = [path for path in _paths(doc) if type(reduce(operator.getitem, path, doc)) is int]
    path = data.draw(st.sampled_from(positions))
    target = folder / "boolean.plesken.json"
    target.write_text(json.dumps(_mutated(doc, path, data.draw(st.booleans()), False)))
    for command in ("analyze", "verify-cellular"):
        code, out = _run([command, str(target)])
        assert code == 2, (path, command)
        assert json.loads(out)["error"]["kind"] == "invalid-input"


def _deep_label_document(folder, depth):
    """M(1) whose one cell label is a list nested `depth` deep."""
    path = folder / "m1.plesken.json"
    assert _run(["build", "--family", "matrix", "--n", "1", "--out", str(path)])[0] == 0
    doc = json.loads(path.read_text())
    doc["cell"].update(lambdas=["DEEP"], index_sets=[["DEEP", [1]]], triples=[["DEEP", 1, 1, 0]])
    return json.dumps(doc).replace('"DEEP"', "[" * (depth - 1) + "1" + "]" * (depth - 1))


@pytest.mark.parametrize(
    "command, text",
    [
        (["analyze"], lambda folder: "[" * 100_000 + "]" * 100_000),
        (["verify-cellular"], lambda folder: _deep_label_document(folder, 985)),
        (["build", "--family", "group", "--table"],
         lambda folder: '{"product": ' + "[" * 5_000 + "]" * 5_000 + "}"),
    ],
    ids=["document", "cell-label", "group-table"],
)
def test_hostile_nesting_is_invalid_input(tmp_path, command, text):
    path = tmp_path / "nested.json"
    path.write_text(text(tmp_path))
    code, out = _run([*command, str(path)])
    assert code == 2
    if command[0] != "build":  # build writes no JSON error
        assert json.loads(out)["error"]["kind"] == "invalid-input"
