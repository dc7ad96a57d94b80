"""Byte identity of CLI reports, documents and demo output.

Each document is written by `plesken build`, or by `emit` for those in
EMITTED, and each report is produced with default flags; the SHA-256 of the report bytes, of the document
bytes listed in DOCUMENTS and of each demo's stdout must not change.  A
change that alters a report on purpose has to say why and re-record the
digest here.
"""

import hashlib
import runpy
from pathlib import Path

import pytest
from oracles import bidiagonal_basis

from plesken import cli
from plesken.builders import matrix_algebra, temperley_lieb
from plesken.interchange import AlgebraDocument, emit

BUILDS = {
    "h": ("--family", "quaternions"),
    "m2c": ("--family", "matrix-conj", "--n", "2"),
    "pr3": ("--family", "planar-rook", "--n", "3"),
    "tl0": ("--family", "temperley-lieb", "--n", "4", "--delta", "0"),
    "tl3": ("--family", "temperley-lieb", "--n", "4", "--delta", "3"),
    "tl35": ("--family", "temperley-lieb", "--n", "5", "--delta", "3"),
    "m5": ("--family", "matrix", "--n", "5"),
    "m3c": ("--family", "matrix-conj", "--n", "3"),
    # M(2, H) over the quaternion document "h" built above.
    "m2h": ("--family", "matrix-over", "--n", "2", "--inner", "{h}"),
    # Non-integral structure constants: delta 1/2 and delta i.
    "tlhalf": ("--family", "temperley-lieb", "--n", "3", "--delta", "1/2"),
    "tli": ("--family", "temperley-lieb", "--n", "3", "--delta", "i"),
    # Larger diagram tables, pinned by their document bytes only.
    "tl36": ("--family", "temperley-lieb", "--n", "6", "--delta", "3"),
    "tl05": ("--family", "temperley-lieb", "--n", "5", "--delta", "0"),
    "pr4": ("--family", "planar-rook", "--n", "4"),
    "pr5": ("--family", "planar-rook", "--n", "5"),
}

REPORTS = [
    ("analyze", "h", (), 0,
     "ffbab67097865470c3525586379a10f59ea14485e55eeef3f7a7a4ed8ac00b5f"),
    ("analyze", "m2c", (), 0,
     "2eae69dcb168b611cd34564f5efb73b0090a83a44e875b5c20b227d692d1f8d1"),
    ("verify-cellular", "pr3", (), 0,
     "dc2524faf4d7452ac841f5d3b8ccbfe17e584092ce966a211480a96473ab777d"),
    ("verify-cellular", "tl0", (), 1,
     "7eb092da4c7ef7aa4c352f7e7b11e5f638a83d46bc5107eaeca89637b949fe0a"),
    ("verify-cellular", "tl3", (), 0,
     "d44c4e029a4c955b72e00bea4cf095265eea2b845591d6fda11606a84957869e"),
    ("verify-cellular", "tl0", ("--format", "md"), 1,
     "c3873a44b1702b6614094a706280fddce5695caf0490d52c21d6a4f3a654c0de"),
    # Lie dimension 16 is over the default bracket cap: no table is printed.
    ("verify-cellular", "tl35", (), 0,
     "7faeaa216630a07be04176b0f40d5f134a8bf7ad220ae271c2388a965cda2b72"),
    ("verify-cellular", "tl35", ("--format", "md"), 0,
     "ac867fc53c4c57f970c6ada262b2101007cf13cbdcbdb8a7b4e9dde6db05811a"),
    # Certified, with its 10-dimensional bracket table printed.
    ("verify-cellular", "m5", (), 0,
     "d9bcfbd39cc09cf05ce91e37d89939c489c14263aaad36fa2ceb44b69ce3837e"),
    ("analyze", "tlhalf", (), 0,
     "25878ed6a5938e5eed4282185990ec784a838550b6365d4d6ba6151c831cb2dd"),
    ("verify-cellular", "tlhalf", (), 0,
     "322c8df1af47b06c6f00d38b8f7fb3c5dc6efd506a2fcf83f10953b16f79883a"),
    ("analyze", "tli", (), 0,
     "d1b5b5fb6d042c436c6352e06a9038114791ea82ce5963ebf8e6f76fe3af0f43"),
    ("verify-cellular", "tli", (), 0,
     "d79271eec29c83889c9de9e89d5e53cff58cb28239c552ea2ee198dd5ca76af3"),
    ("analyze", "m2h", (), 0,
     "ef95d4b327e02f6957409974975868ee0e78d73ad13199e5dc5905ae8cd4d89b"),
    ("analyze", "m3c", (), 0,
     "38942c766c7e2a93854def61d1c20822ee84bc40b18b78d0c725d2d79a87fd33"),
    # Multi-term products and sigma in matrix form: products, images and
    # reductions sum terms with scales other than 1.
    ("analyze", "tl34bidiag", (), 0,
     "bf59c19c7c32782bebaccc04341acffcb866695b6319b75852fddc1e4ed5785b"),
    # The same with a semilinear sigma in matrix form.
    ("analyze", "m2cbidiag", (), 0,
     "8c17e5d4a7da93d3e48bc78706aee12bd049c03fdaea9a145432561d3d4b854b"),
]

# Documents emitted in Python, for inputs no `build` family gives.
EMITTED = {
    "tl34bidiag": lambda: AlgebraDocument(
        "temperley-lieb-n4-delta3-bidiagonal", *bidiagonal_basis(*temperley_lieb(4, 3))
    ),
    "m2cbidiag": lambda: AlgebraDocument(
        "matrix-n2-conj-transpose-bidiagonal",
        *bidiagonal_basis(*matrix_algebra(2, "conj_transpose")),
    ),
}

# The bytes of `plesken build` documents, and of the emitted documents,
# whose sigma is written in matrix form.
DOCUMENTS = {
    "tl34bidiag": "59f904355072a024bf40f11bf9dcd7daaea71d08f4cc6c8b8640386f5e3afe37",
    "m2cbidiag": "7b63c008fc6046d19c88ba01387898996f51f8d6d448499120b80e01271e2c95",
    "tlhalf": "6436f63de3cd08eae2ece142aff5d2d2ac3bf5dcd292827e3a4b063feb81da69",
    "tl36": "13653c107741a0fbc232274335d46e626d76963e460f37a942ef905b6c3dcd1b",
    "tl05": "36136243e565cc796930adb2907e71ed51900c9766d1610692795f901fa5a35e",
    "tli": "1566aa2adc84c7d7144e0f3445b2c180e0db1038547fc90a6c06875296c8515c",
    "pr4": "50d05302363530bb4156b128db9928e2aa14f8481d4122fbeb59ea8b4870d956",
    "pr5": "c8886b3526f8b8023c04a35b4730fa6bee6628e1130e333e2af9d954d1aadfcd",
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    paths = {}
    for key, argv in BUILDS.items():
        paths[key] = directory / f"{key}.plesken.json"
        argv = [a.format_map(paths) for a in argv]
        assert cli.main(["build", *argv, "--out", str(paths[key])]) == 0
    for key, make in EMITTED.items():
        paths[key] = directory / f"{key}.plesken.json"
        paths[key].write_text(emit(make()))
    return paths


@pytest.mark.parametrize(
    "command, key, flags, exit_code, digest",
    REPORTS,
    ids=[f"{c}-{k}{'-md' if f else ''}" for c, k, f, _, _ in REPORTS],
)
def test_report_bytes_unchanged(documents, capsys, command, key, flags, exit_code,
                                digest):
    capsys.readouterr()
    assert cli.main([command, str(documents[key]), *flags]) == exit_code
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize("key, digest", sorted(DOCUMENTS.items()))
def test_document_bytes_unchanged(documents, key, digest):
    assert hashlib.sha256(documents[key].read_bytes()).hexdigest() == digest


# The stdout of each script in demos/, run in this process.
DEMOS = {
    "01_quaternions": "1b366b6ccfaecdf5c646421f3e53b8bc8fc6f0f57d01753f73ae9b4f3a52f23b",
    "02_matrix_algebras": "38b967270c93c1f4b3a82380e3e5e53ae8dbd30fc244ca796a032656999d645a",
    "03_diagram_algebras": "2820f088756ef58ff2d8dd0514d1c43bcf25356e9a3b4722dfb9b6b56c09afb0",
    "04_cellular_certificates":
        "9ea77c1405f7f9e35380d42b73269c51583053520db471904504e19a6426e948",
    "05_nonsemisimple_counterexample":
        "96dd3cfd529d2211886372a7fd2b6a1f884568dc13d3d93ee63f4f599198a06e",
    "06_group_algebras": "6a0fce899c5cbb18cb959ac96cca125ee15c59dd83517a439058179dcf25cd79",
}
DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("stem, digest", sorted(DEMOS.items()), ids=sorted(DEMOS))
def test_demo_output_unchanged(capsys, stem, digest):
    capsys.readouterr()
    runpy.run_path(str(DEMO_DIR / f"{stem}.py"), run_name="__main__")
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in DEMO_DIR.glob("*.py")) == sorted(DEMOS)
