"""Hypothesis fuzzing of the command line against its exit-code contract.

Each example builds a well-formed argv for one subcommand, then replaces
up to three flag values with junk or drops the flags, and may point
--lattice or --mass-table at a mutated JSON file.  The run goes
in-process through `cli.main`.  The contract: `main` returns 0, 2 or
3, and prints a JSON error body on stdout whenever the exit is non-zero,
argparse's own usage errors (unknown choices, non-integer --jobs and the
like) included.

Sizes stay small on purpose: --box is never dropped and its well-formed
values have entries of at most 4, so no example runs a long search.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from conftest import mass_table_entries
from k3lax.cli import main

LATTICE_DIR = Path(__file__).resolve().parents[1] / "lattices"
BUNDLED = [str(LATTICE_DIR / f"{name}.json") for name in ("rho1_d1", "rho1_d2", "rho2_d1")]

# junk spelled without digits other than 0, so no junk value can ask
# for a large search
JUNK = st.one_of(
    st.sampled_from(
        ["", "0", "-0", "1/0", "0/0", "abc", "1e400", "nan", "inf", "-inf",
         "1,,2", ",", "/", "2/-3", " 1", "true", "null", "١", "--", "--box"]
    ),
    st.text(alphabet="-+/,.eaxn 0", max_size=5),
)
SMALL_INT = st.integers(-3, 4)
FRACTION = st.builds(
    lambda p, q: f"{p}/{q}" if q != 1 else str(p),
    st.integers(-6, 6),
    st.integers(1, 6),
)
POSITIVE = st.builds(lambda p, q: f"{p}/{q}", st.integers(1, 6), st.integers(1, 6))


def _joined(element, min_size=1, max_size=4):
    return st.lists(element, min_size=min_size, max_size=max_size).map(
        lambda parts: ",".join(map(str, parts))
    )


VECTOR = _joined(SMALL_INT)
B_FIELD = _joined(FRACTION, max_size=3)
INT = SMALL_INT.map(str)

# values argparse accepts for every flag, some of them out of range;
# junk replaces some of them below
VALUES = {
    "--box": _joined(st.integers(0, 4), min_size=3, max_size=3),
    "--mode": st.sampled_from(["exact", "float"]),
    "--out": st.sampled_from(["json", "json", "csv"]),
    "--tol": st.sampled_from(["1e-9", "1e-3", "0", "-1", "1e300", "nan", "inf"]),
    "--jobs": st.integers(1, 3).map(str),
    "--u": VECTOR,
    "--v": VECTOR,
    "--mu": FRACTION,
    "--B": B_FIELD,
    "--alpha": POSITIVE,
    "--delta": VECTOR,
    "--alpha-min": POSITIVE,
    "--l-min": INT,
    "--l-max": INT,
    "--search-limit": st.integers(-1, 50).map(str),
}
COMMON = ["--mode", "--out", "--tol", "--jobs"]
# per command: flags always given, and groups of which one is given
FLAGS = {
    "pair": (["--u", "--v"], [[]]),
    "enum": ([], [[], ["--mu"]]),
    "basis": ([], [[]]),
    "chamber": (["--B", "--alpha"], [[]]),
    "walls": ([], [["--mu"], ["--B", "--delta", "--alpha-min"]]),
    "reconstruct": ([], [["--B", "--alpha"], ["--mass-table"], ["--mass-table"]]),
    "lax": (["--mu"], [[], ["--l-min", "--l-max"]]),
    "separate": (["--mu"], [[], ["--search-limit"]]),
}

JSON_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
)
MATRIX = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
    )
)
LATTICE = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "name": JSON_JUNK,
            "gram": st.one_of(
                st.sampled_from([[[2]], [[4]], [[2, 0], [0, -4]], [[2, 1], [1, -2]]]),
                MATRIX,
                JSON_JUNK,
                st.lists(JSON_JUNK, max_size=2),
            ),
            "H": st.one_of(st.lists(st.integers(-2, 2), min_size=1, max_size=3), JSON_JUNK),
        },
    ),
    JSON_JUNK,
)


GOOD_TABLE = mass_table_entries()
GOOD_MASSES = {e["mass_sq"] for e in GOOD_TABLE}


@st.composite
def mass_tables(draw):
    """The valid rho1_d1 table with one to three entries or fields mutated."""
    entries = [dict(e) for e in GOOD_TABLE]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(entries) - 1))
        action = draw(st.sampled_from(["set", "set", "drop-key", "drop-entry", "float"]))
        key = draw(st.sampled_from(["r", "D", "s", "mass_sq", "mass_sq"]))
        if action == "set":
            entries[i][key] = draw(st.one_of(JUNK, JUNK, JSON_JUNK))
        elif action == "drop-key":
            entries[i].pop(key, None)
        elif action == "drop-entry" and len(entries) > 1:
            entries.pop(i)
        elif action == "float" and str(entries[i].get("mass_sq")) in GOOD_MASSES:
            entries[i]["mass_sq"] = float(Fraction(entries[i]["mass_sq"]))
    shape = draw(st.sampled_from(["object"] * 4 + ["list", "junk"]))
    if shape == "object":
        return {"masses": entries}
    return entries if shape == "list" else draw(JSON_JUNK)


def _write(tmp_dir, name, payload):
    path = tmp_dir / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@st.composite
def invocations(draw, tmp_dir, lattice_sources):
    """A well-formed argv for one command, then up to three mutations."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    required, groups = FLAGS[command]
    flags = ["--box"] + required + draw(st.sampled_from(groups))
    flags += [f for f in COMMON if draw(st.booleans())]
    values = {f: draw(VALUES[f]) for f in flags if f != "--mass-table"}
    if "--mass-table" in flags:
        values["--mass-table"] = _write(tmp_dir, "masses.json", {"masses": GOOD_TABLE})
    mutations = st.tuples(st.sampled_from(flags), st.sampled_from(["junk", "drop"]))
    for flag, action in draw(st.lists(mutations, max_size=3)):
        if action == "junk":
            values[flag] = draw(JUNK)
        elif flag != "--box":
            values.pop(flag, None)
    # "--flag=value", so that values such as -1,2 stay values
    argv = [command] + [f"{flag}={value}" for flag, value in values.items()]
    source = draw(st.sampled_from(lattice_sources))
    if source == "bundled":
        argv.append("--lattice=" + draw(st.sampled_from(BUNDLED)))
    elif source == "mutated":
        argv.append("--lattice=" + _write(tmp_dir, "lattice.json", draw(LATTICE)))
    elif source == "missing":
        argv.append(f"--lattice={tmp_dir / 'absent.json'}")
    return argv


@st.composite
def table_invocations(draw, tmp_dir):
    path = _write(tmp_dir, "masses.json", draw(mass_tables()))
    mode = draw(st.sampled_from(["exact", "float"]))
    return ["reconstruct", f"--lattice={BUNDLED[0]}", f"--mass-table={path}", f"--mode={mode}"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _check_contract(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    event(f"exit {code}")
    assert code in (0, 2, 3), (argv, out)
    if code != 0:
        payload = json.loads(out)
        assert set(payload) == {"error"}, argv
        assert set(payload["error"]) == {"type", "message"}, argv
        event(payload["error"]["type"])


def _fuzz(max_examples):
    return settings(
        max_examples=max_examples,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )


@_fuzz(150)
@given(data=st.data())
def test_argv(fuzz_dir, capsys, data):
    sources = ["bundled"] * 6 + ["missing", "none"]
    _check_contract(data.draw(invocations(fuzz_dir, sources), label="argv"), capsys)


@_fuzz(100)
@given(data=st.data())
def test_lattice_files(fuzz_dir, capsys, data):
    _check_contract(data.draw(invocations(fuzz_dir, ["mutated"]), label="argv"), capsys)


@_fuzz(150)
@given(data=st.data())
def test_mass_tables(fuzz_dir, capsys, data):
    _check_contract(data.draw(table_invocations(fuzz_dir), label="argv"), capsys)
