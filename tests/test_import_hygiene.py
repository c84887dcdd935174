"""The package runs on the standard library alone.

Every CLI command pays for its imports, so `import k3lax.cli` must not
pull in mpmath (gone as a dependency) or `concurrent.futures` (the
thread pool behind --jobs is gone), and the commands that turn exact
numbers into floats must work with mpmath unavailable.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import mass_table_entries
from k3lax.cli import main

ROOT = Path(__file__).resolve().parents[1]
R1D1 = str(ROOT / "lattices" / "rho1_d1.json")
R1D2 = str(ROOT / "lattices" / "rho1_d2.json")
R2D1 = str(ROOT / "lattices" / "rho2_d1.json")

_PROBE = """
import json, sys
import k3lax.cli
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] == "mpmath" or name.startswith("concurrent.futures")
)))
"""


def test_cli_import_leaves_out_mpmath_and_futures():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert json.loads(out) == []


def _mass_table(tmp_path):
    path = tmp_path / "masses.json"
    path.write_text(json.dumps({"masses": mass_table_entries()}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "kind",
    ["pair", "chamber", "reconstruct-table", "reconstruct-float"],
)
def test_commands_run_without_mpmath(kind, tmp_path, monkeypatch, capsys):
    # a None entry makes any `import mpmath` raise ImportError
    monkeypatch.setitem(sys.modules, "mpmath", None)
    argv = {
        "pair": ["pair", "--lattice", R1D1, "--u", "1,0,1", "--v", "2,1,1"],
        "chamber": [
            "chamber", "--lattice", R2D1, "--B", "1/2,0", "--alpha", "3/2",
            "--box", "2,2,8", "--mode", "float",
        ],
        "reconstruct-table": [
            "reconstruct", "--lattice", R1D1, "--mass-table", _mass_table(tmp_path),
        ],
        "reconstruct-float": [
            "reconstruct", "--lattice", R1D2, "--B", "1/2", "--alpha", "3/2",
            "--mode", "float",
        ],
    }[kind]
    assert main(argv) == 0
    assert "results" in json.loads(capsys.readouterr().out)
