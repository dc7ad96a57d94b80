"""Importing the CLI stays cheap: every command is a fresh process, so what
`import plesken.cli` loads is paid on each one.  The records are
`NamedTuple`s or plain classes, not dataclasses, and `traceback` is imported
only when a command crashes, so none of the modules below is loaded."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
NOT_LOADED = {"dataclasses", "inspect", "traceback"}


def _loaded(code: str) -> set[str]:
    """The modules a fresh interpreter (no -X dev) has loaded after `code`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDEVMODE"}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return set(out.split())


def test_cli_import_loads_no_dataclasses_inspect_or_traceback():
    added = _loaded("import plesken.cli") - _loaded("pass")
    assert "plesken.cli" in added
    assert sorted(added & NOT_LOADED) == []
