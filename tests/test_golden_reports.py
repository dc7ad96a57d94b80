"""Byte identity of CLI reports and documents.

Each document is written by `plesken build` and each report is produced
with default flags; the SHA-256 of the report bytes, and of the document
bytes listed in DOCUMENTS, must not change.  A
change that alters a report on purpose has to say why and re-record the
digest here.
"""

import hashlib

import pytest

from plesken import cli

BUILDS = {
    "h": ("--family", "quaternions"),
    "m2c": ("--family", "matrix-conj", "--n", "2"),
    "pr3": ("--family", "planar-rook", "--n", "3"),
    "tl0": ("--family", "temperley-lieb", "--n", "4", "--delta", "0"),
    "tl3": ("--family", "temperley-lieb", "--n", "4", "--delta", "3"),
    "tl35": ("--family", "temperley-lieb", "--n", "5", "--delta", "3"),
    "m5": ("--family", "matrix", "--n", "5"),
    # Non-integral structure constants: delta 1/2 and delta i.
    "tlhalf": ("--family", "temperley-lieb", "--n", "3", "--delta", "1/2"),
    "tli": ("--family", "temperley-lieb", "--n", "3", "--delta", "i"),
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
]

# The bytes of `plesken build` documents.
DOCUMENTS = {
    "tlhalf": "6436f63de3cd08eae2ece142aff5d2d2ac3bf5dcd292827e3a4b063feb81da69",
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    paths = {}
    for key, argv in BUILDS.items():
        paths[key] = directory / f"{key}.plesken.json"
        assert cli.main(["build", *argv, "--out", str(paths[key])]) == 0
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
