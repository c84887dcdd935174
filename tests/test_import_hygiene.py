"""The package runs on the standard library alone, and imports only what
it uses.

Every CLI command pays for its imports, so `import k3lax.cli` must not
pull in mpmath (gone as a dependency) or `concurrent.futures` (the
thread pool behind --jobs is gone), and the commands that turn exact
numbers into floats must work with mpmath unavailable.  No module of the
package imports a name it never references.
"""

import ast
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


def _unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never loaded as a name or as
    the base of an attribute; `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_detector():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\nos.sep\nd()\n"
    assert _unused_imports(source) == ["sys (line 2)", "c (line 3)"]


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in (ROOT / "src" / "k3lax").glob("*.py") if p.name != "__init__.py"),
)
def test_no_unused_imports(module):
    # __init__.py imports only to re-export, so it is not checked
    source = (ROOT / "src" / "k3lax" / module).read_text(encoding="utf-8")
    assert _unused_imports(source) == []
