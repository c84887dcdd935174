import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import parser_options
from k3lax import (
    BWParams,
    MassOracle,
    SearchBox,
    companion_classes,
    good_basis,
    omega_from_bw,
)
from k3lax import cli, selftest
from k3lax.cli import RunConfig, load_lattice, main, render_report, run
from k3lax.errors import ConfigError, LatticeError

LATTICE_DIR = Path(__file__).resolve().parents[1] / "lattices"
R1D1 = str(LATTICE_DIR / "rho1_d1.json")
R1D2 = str(LATTICE_DIR / "rho1_d2.json")
R2D1 = str(LATTICE_DIR / "rho2_d1.json")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadLattice:
    def test_bundled_files(self):
        assert load_lattice(R1D1).degree == 1
        assert load_lattice(R1D2).degree == 2
        assert load_lattice(R2D1).rank == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_lattice(str(tmp_path / "nope.json"))

    def test_parse_error_carries_position(self, tmp_path):
        path = _write(tmp_path, "bad.json", '{"gram": [[2]],\n "H": }')
        with pytest.raises(ConfigError) as info:
            load_lattice(path)
        assert "line 2" in str(info.value)
        assert "column" in str(info.value)

    def test_invalid_lattice_is_config_error(self, tmp_path):
        asym = _write(
            tmp_path, "asym.json", '{"gram": [[2, 1], [0, 2]], "H": [1, 0]}'
        )
        with pytest.raises(ConfigError):
            load_lattice(asym)
        no_h = _write(tmp_path, "noh.json", '{"gram": [[2]]}')
        with pytest.raises(ConfigError):
            load_lattice(no_h)


    @pytest.mark.parametrize(
        "text",
        [
            '{"gram": [[2, true], [true, -4]], "H": [1, 0]}',
            '{"gram": [[2]], "H": [true]}',
        ],
        ids=["gram", "H"],
    )
    def test_json_booleans_rejected(self, tmp_path, capsys, text):
        path = _write(tmp_path, "bool.json", text)
        with pytest.raises(LatticeError):
            load_lattice(path)
        code = main(["pair", "--lattice", path, "--u", "1,0,1", "--v", "1,0,1"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "LatticeError"


class TestRun:
    def test_pair(self):
        report = run(
            RunConfig(command="pair", lattice_path=R1D1, u=(1, 0, 1), v=(1, 0, 1))
        )
        assert report.results["pairing"] == -2
        assert report.results["u_spherical"] is True
        assert report.inputs["lattice"] == R1D1

    def test_enum_with_slope(self):
        report = run(
            RunConfig(command="enum", lattice_path=R1D1, mu=Fraction(1), box=(4, 4, 20))
        )
        assert report.results["r0"] == 2
        assert report.results["count"] == len(report.results["classes"])
        assert {"r": 2, "D": [1], "s": 1} in report.results["classes"]

    def test_basis(self):
        report = run(RunConfig(command="basis", lattice_path=R1D1))
        assert len(report.results["vectors"]) == 3
        assert len(report.results["companions"]) == 3
        assert report.results["pair_matrix"][0] == [-2, -3, -6]

    def test_chamber(self):
        report = run(
            RunConfig(
                command="chamber",
                lattice_path=R1D1,
                b_field=(Fraction(0),),
                alpha=Fraction(2),
                box=(4, 4, 20),
            )
        )
        assert report.results["in_p_plus"] is True
        assert report.results["wall_hit_count"] == 0

    def test_chamber_on_wall(self):
        report = run(
            RunConfig(
                command="chamber",
                lattice_path=R1D1,
                b_field=(Fraction(0),),
                alpha=Fraction(1),
                box=(4, 4, 20),
            )
        )
        assert {"r": 1, "D": [0], "s": 1} in report.results["wall_hits"]

    def test_walls_from_slope(self):
        report = run(
            RunConfig(command="walls", lattice_path=R1D1, mu=Fraction(0), box=(6, 6, 40))
        )
        assert report.results["hit_count"] == 0
        assert report.results["base"]["B"] == ["0"]
        assert report.results["aligned"]

    def test_walls_explicit(self):
        report = run(
            RunConfig(
                command="walls",
                lattice_path=R1D1,
                b_field=(Fraction(0),),
                delta=(1, 1, 2),
                alpha_min=Fraction(1),
                box=(4, 4, 20),
            )
        )
        assert report.results["hit_count"] >= 1
        for hit in report.results["hits"]:
            assert hit["witnesses"]

    def test_reconstruct_hidden_charge(self):
        report = run(
            RunConfig(
                command="reconstruct",
                lattice_path=R1D1,
                b_field=(Fraction(0),),
                alpha=Fraction(2),
            )
        )
        assert report.results["residual"] == {"a": "0", "b": "0", "d": 1}
        assert report.results["branch"] == "principal"
        assert report.results["coefficients"][0]["a"]["a"] == "1"

    def test_lax(self):
        report = run(
            RunConfig(command="lax", lattice_path=R1D1, mu=Fraction(0), l_min=0, l_max=2)
        )
        assert report.results["delta0"] == {"r": 1, "D": [0], "s": 1}
        assert report.results["r0"] == 1
        assert report.results["family"] == [
            {"l": 0, "mass_sq": "0"},
            {"l": 1, "mass_sq": "5"},
            {"l": 2, "mass_sq": "32"},
        ]

    def test_separate(self):
        report = run(
            RunConfig(command="separate", lattice_path=R1D1, mu=Fraction(0))
        )
        assert report.results["certificate"]["p"] == 5
        assert report.results["ratio_valuation"] == 1
        assert report.results["mass_sq_l1"] == 5

    def test_selftest_clean(self):
        report = run(RunConfig(command="selftest"))
        assert report.results["failed"] == 0
        assert len(report.results["checks"]) == 12
        assert all(check["passed"] for check in report.results["checks"])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            run(RunConfig(command="frobnicate"))
        with pytest.raises(ConfigError):
            run(RunConfig(command="chamber", lattice_path=R1D1, mode="interval"))
        with pytest.raises(ConfigError):
            run(RunConfig(command="enum", lattice_path=R1D1, output="yaml"))
        with pytest.raises(ConfigError):
            run(RunConfig(command="pair", lattice_path=R1D1, output="csv"))
        with pytest.raises(ConfigError):
            run(RunConfig(command="enum", lattice_path=R1D1, jobs=0))
        with pytest.raises(ConfigError):
            run(RunConfig(command="enum"))
        with pytest.raises(ConfigError):
            run(RunConfig(command="pair", lattice_path=R1D1, u=(1, 0, 1)))
        with pytest.raises(ConfigError):
            run(
                RunConfig(
                    command="pair", lattice_path=R1D1, u=(1, 0, 1), v=(1, 1, 1, 1)
                )
            )

    @pytest.mark.parametrize(
        "fields",
        [
            {"command": "pair", "u": (True, 0, 1), "v": (1, 0, 1)},
            {"command": "pair", "u": (1, 0, 1), "v": (1, False, 1)},
            {
                "command": "walls",
                "b_field": (Fraction(0),),
                "delta": (1, 0, True),
                "alpha_min": Fraction(1),
            },
        ],
        ids=["u", "v", "delta"],
    )
    def test_boolean_vector_fields_rejected(self, fields):
        with pytest.raises(ConfigError):
            run(RunConfig(lattice_path=R1D1, **fields))

    @pytest.mark.parametrize(
        "fields, flag",
        [
            ({"command": "lax", "mu": Fraction(0), "l_min": False, "l_max": True}, "--l-min"),
            ({"command": "lax", "mu": Fraction(0), "l_max": 2.0}, "--l-max"),
            ({"command": "enum", "jobs": True}, "--jobs"),
            ({"command": "separate", "mu": Fraction(0), "search_limit": True}, "--search-limit"),
            ({"command": "selftest", "lattice_path": None, "seed": True}, "--seed"),
            ({"command": "pair", "u": (1, 0, 1), "v": (1, 0, 1), "seed": False}, "--seed"),
        ],
        ids=["l-min-l-max", "l-max-float", "jobs", "search-limit", "seed", "unread-seed"],
    )
    def test_integer_flags_reject_other_values(self, fields, flag):
        # bool is an int, so True and False would otherwise run as 1 and 0
        with pytest.raises(ConfigError, match=f"^{flag} must be an integer, got "):
            run(RunConfig(**{"lattice_path": R1D1, **fields}))


class TestRender:
    def test_json_roundtrip(self):
        config = RunConfig(command="pair", lattice_path=R1D1, u=(1, 0, 1), v=(0, 0, 1))
        report, table = cli._execute(config)
        text = render_report(report, config, table)
        assert text.endswith("\n")
        payload = json.loads(text)
        assert payload["command"] == "pair"
        assert payload["results"]["pairing"] == -1
        assert payload["provenance"]["mode"] == "exact"
        assert "jobs" not in json.dumps(payload)

    def test_csv_enum(self):
        config = RunConfig(
            command="enum", lattice_path=R1D1, output="csv", box=(1, 0, 1)
        )
        report, table = cli._execute(config)
        text = render_report(report, config, table)
        assert text == "r,D0,s\n-1,0,-1\n1,0,1\n"

    def test_csv_lax(self):
        config = RunConfig(
            command="lax",
            lattice_path=R1D1,
            output="csv",
            mu=Fraction(0),
            l_min=1,
            l_max=2,
        )
        report, table = cli._execute(config)
        assert render_report(report, config, table) == "l,mass_sq\n1,5\n2,32\n"


# every flag that only some commands take, with a value it would parse,
# as typed and as its RunConfig field; and the commands that take each
OWN = {
    "--seed": ("5", "seed", 5),
    "--u": ("1,0,1", "u", (1, 0, 1)),
    "--v": ("1,0,1", "v", (1, 0, 1)),
    "--mu": ("3", "mu", Fraction(3)),
    "--B": ("0", "b_field", (Fraction(0),)),
    "--alpha": ("2", "alpha", Fraction(2)),
    "--delta": ("1,0,1", "delta", (1, 0, 1)),
    "--alpha-min": ("1", "alpha_min", Fraction(1)),
    "--l-min": ("9", "l_min", 9),
    "--l-max": ("9", "l_max", 9),
    "--mass-table": ("T", "mass_table", "T"),
    "--search-limit": ("7", "search_limit", 7),
}
TAKEN_BY = {
    "--seed": {"selftest"},
    "--u": {"pair"},
    "--v": {"pair"},
    "--mu": {"enum", "walls", "lax", "separate"},
    "--B": {"chamber", "walls", "reconstruct"},
    "--alpha": {"chamber", "reconstruct"},
    "--delta": {"walls"},
    "--alpha-min": {"walls"},
    "--l-min": {"lax"},
    "--l-max": {"lax"},
    "--mass-table": {"reconstruct"},
    "--search-limit": {"separate"},
}
# a valid run of each command, as typed and as RunConfig fields
COMMAND_ARGS = {
    "pair": (["--u", "1,0,1", "--v", "1,0,1"], dict(u=(1, 0, 1), v=(1, 0, 1))),
    "enum": ([], {}),
    "lax": (["--mu", "0"], dict(mu=Fraction(0))),
    "basis": ([], {}),
    "walls": (["--mu", "0"], dict(mu=Fraction(0))),
    "separate": (["--mu", "0"], dict(mu=Fraction(0))),
    "chamber": (["--B", "0", "--alpha", "1"], dict(b_field=(Fraction(0),), alpha=Fraction(1))),
    "reconstruct": (
        ["--B", "1/2", "--alpha", "3/2"],
        dict(b_field=(Fraction(1, 2),), alpha=Fraction(3, 2)),
    ),
    "selftest": ([], {}),
}


class TestMain:
    def _capture(self, capsys, argv):
        code = main(argv)
        return code, capsys.readouterr().out

    def test_success(self, capsys):
        code, out = self._capture(
            capsys, ["pair", "--lattice", R1D1, "--u", "1,0,1", "--v", "1,0,1"]
        )
        assert code == 0
        assert json.loads(out)["results"]["pairing"] == -2

    def test_config_errors_exit_2(self, capsys):
        cases = [
            ["pair", "--lattice", "/no/such/file", "--u", "1,0,1", "--v", "1,0,1"],
            ["enum", "--lattice", R1D1, "--box", "1,2"],
            ["enum", "--lattice", R1D1, "--box", "1,x,3"],
            ["pair", "--lattice", R1D1, "--u", "1,0,1", "--v", "1,0,1", "--out", "csv"],
            ["walls", "--lattice", R1D1],
            ["enum"],
        ]
        for argv in cases:
            code, out = self._capture(capsys, argv)
            assert code == 2, argv
            payload = json.loads(out)
            assert set(payload) == {"error"}
            assert set(payload["error"]) == {"type", "message"}

    def test_math_errors_exit_3(self, capsys):
        code, out = self._capture(
            capsys,
            ["lax", "--lattice", R1D1, "--mu", "1/3", "--box", "2,2,10"],
        )
        assert code == 3
        assert json.loads(out)["error"]["type"] == "NoSphericalClass"

        code, out = self._capture(
            capsys,
            ["reconstruct", "--lattice", R1D1, "--B", "0", "--alpha", "1"],
        )
        assert code == 3
        assert json.loads(out)["error"]["type"] == "DegenerateCharge"

    @pytest.mark.parametrize(
        "argv",
        [
            ["enum", "--lattice", R1D1, "--box=-1,2,3"],
            ["chamber", "--lattice", R1D1, "--B", "0", "--alpha", "0"],
            [
                "walls", "--lattice", R1D1,
                "--B", "0", "--delta", "1,0,1", "--alpha-min", "-1",
            ],
            [
                "walls", "--lattice", R1D1,
                "--B", "0", "--delta", "0,0,0", "--alpha-min", "1",
            ],
        ],
        ids=["negative-box", "zero-alpha", "negative-alpha-min", "zero-delta"],
    )
    def test_out_of_range_flags_exit_2(self, capsys, argv):
        code, out = self._capture(capsys, argv)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("flag", ["--box", "--jobs", "--u", "--B", "--lattice"])
    def test_double_dash_value_exits_2(self, capsys, flag):
        # argparse (Python 3.11 at least) parses --flag=-- to an empty list;
        # --B and --lattice store under other names but are reported as typed
        argv = ["pair", "--lattice", R1D1, "--u", "1,0,1", "--v", "1,0,1", f"{flag}=--"]
        if flag == "--box":
            argv = ["enum", "--lattice", R1D1, "--box=--"]
        if flag == "--B":
            argv = ["chamber", "--lattice", R1D1, "--B", "0", "--alpha", "1", "--B=--"]
        code, out = self._capture(capsys, argv)
        assert code == 2
        assert json.loads(out)["error"]["message"] == f"{flag} needs a value"

    def test_argparse_rejects_unknown(self, capsys):
        for argv in (
            ["frobnicate"],
            ["lax", "--lattice", R1D1],
            # no flag may be abbreviated
            ["enum", "--lattice", R1D1, "--bo", "1,1,2", "--ou", "csv"],
            ["separate", "--lattice", R1D1, "--mu", "0", "--search", "3"],
        ):
            code, out = self._capture(capsys, argv)
            assert code == 2, argv
            assert json.loads(out)["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["chamber", "--lattice", R1D1, "--B", "0", "--alpha", "1", "--mode", "bogus"],
                "--mode: invalid choice",
            ),
            (["selftest", "--seed", "x"], "--seed: invalid int value"),
            (["pair", "--lattice", R1D1, "--v", "1,0,1"], "required: --u"),
        ],
        ids=["bad-choice", "bad-int", "missing-required"],
    )
    def test_usage_errors_have_json_body(self, capsys, argv, message):
        code, out = self._capture(capsys, argv)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ConfigError"
        assert message in error["message"]

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["pair", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "0"])
    def test_bad_tolerance_exits_2(self, capsys, tol):
        argv = [
            "reconstruct", "--lattice", R1D1, "--B", "1/2", "--alpha", "3/2",
            "--mode", "float", f"--tol={tol}",
        ]
        code, out = self._capture(capsys, argv)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ConfigError"
        assert "--tol" in error["message"]

    @pytest.mark.parametrize("limit", ["-1", "0"])
    def test_search_limit_below_one_exits_2(self, capsys, limit):
        argv = ["separate", "--lattice", R1D1, "--mu", "0", f"--search-limit={limit}"]
        code, out = self._capture(capsys, argv)
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "ConfigError",
            "message": "--search-limit must be at least 1",
        }

    @pytest.mark.parametrize("seed", [None, 3])
    def test_selftest_report_keeps_defaults(self, capsys, seed):
        argv = ["selftest"] if seed is None else ["selftest", "--seed", str(seed)]
        code, out = self._capture(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["inputs"] == {"lattice": None}
        assert payload["provenance"] == {
            "box": [8, 8, 40],
            "mode": "exact",
            "seed": seed or 0,
            "version": cli.__version__,
        }
        assert self._capture(capsys, argv + ["--jobs", "2"]) == (0, out)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--lattice", "/nonexistent.json"),
            ("--box", "0,0,0"),
            ("--mode", "float"),
            ("--out", "csv"),
            ("--tol", "0.5"),
        ],
    )
    def test_selftest_rejects_flags_it_would_ignore(self, capsys, flag, value):
        code, out = self._capture(capsys, ["selftest", flag, value])
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "ConfigError",
            "message": f"unrecognized arguments: {flag} {value}",
        }

    def test_selftest_failure_exits_4(self, capsys, monkeypatch):
        def boom(rng, lattices):
            raise AssertionError("forced")

        monkeypatch.setattr(selftest, "CHECKS", [("forced failure", boom)])
        code, out = self._capture(capsys, ["selftest"])
        assert code == 4
        payload = json.loads(out)
        assert payload["results"]["failed"] == 1
        assert payload["results"]["checks"][0]["details"].startswith("AssertionError")

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0

    def test_jobs_determinism(self, capsys):
        cases = [
            ["enum", "--lattice", R2D1, "--box", "3,3,12"],
            ["lax", "--lattice", R1D1, "--mu", "0"],
            ["walls", "--lattice", R1D1, "--mu", "0", "--box", "4,4,12"],
        ]
        for argv in cases:
            _, first = self._capture(capsys, argv + ["--jobs", "1"])
            _, second = self._capture(capsys, argv + ["--jobs", "4"])
            assert first == second, argv
            assert "jobs" not in first


    # every shared flag a command does not read, with a value it would parse
    UNREAD = [
        ("pair", "--box", "0,0,0", "box", (0, 0, 0)),
        ("pair", "--mode", "float", "mode", "float"),
        ("pair", "--tol", "0.5", "tolerance", 0.5),
        ("pair", "--out", "json", "output", "csv"),
        ("enum", "--mode", "float", "mode", "float"),
        ("enum", "--tol", "0.5", "tolerance", 0.5),
        ("lax", "--mode", "float", "mode", "float"),
        ("lax", "--tol", "0.5", "tolerance", 0.5),
        ("basis", "--mode", "float", "mode", "float"),
        ("basis", "--tol", "0.5", "tolerance", 0.5),
        ("basis", "--out", "json", "output", "csv"),
        ("walls", "--mode", "float", "mode", "float"),
        ("walls", "--tol", "0.5", "tolerance", 0.5),
        ("walls", "--out", "json", "output", "csv"),
        ("separate", "--mode", "float", "mode", "float"),
        ("separate", "--tol", "0.5", "tolerance", 0.5),
        ("separate", "--out", "json", "output", "csv"),
        ("chamber", "--out", "json", "output", "csv"),
        ("reconstruct", "--out", "json", "output", "csv"),
    ]
    UNREAD += [
        (command, flag, *OWN[flag])
        for command in COMMAND_ARGS
        for flag in OWN
        if command not in TAKEN_BY[flag]
    ]

    @pytest.mark.parametrize(
        "command, flag, text, field, value", UNREAD, ids=[f"{c}{f}" for c, f, *_ in UNREAD]
    )
    def test_unread_shared_flag_exits_2(self, capsys, command, flag, text, field, value):
        args, fields = COMMAND_ARGS[command]
        lattice = {} if command == "selftest" else {"lattice_path": R1D1}
        argv = [command, *(["--lattice", R1D1] if lattice else []), *args, flag, text]
        code, out = self._capture(capsys, argv)
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "ConfigError",
            "message": f"unrecognized arguments: {flag} {text}",
        }
        with pytest.raises(ConfigError, match=f"{command} does not take {flag}"):
            run(RunConfig(command=command, **lattice, **fields, **{field: value}))

    def test_pair_rejects_flags_it_would_report(self, capsys):
        argv = [
            "pair", "--lattice", R1D1, "--u", "1,0,1", "--v", "1,0,1",
            "--mode", "float", "--tol", "0.5", "--box", "0,0,0",
        ]
        code, out = self._capture(capsys, argv)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ConfigError"
        config = RunConfig(
            command="pair", lattice_path=R1D1, u=(1, 0, 1), v=(1, 0, 1),
            mu=Fraction(3), l_min=9, search_limit=7, alpha=Fraction(2), seed=5,
        )
        with pytest.raises(ConfigError, match="pair does not take --seed"):
            run(config)

    def test_selftest_config_rejects_a_lattice(self):
        with pytest.raises(ConfigError, match="selftest does not take --lattice"):
            run(RunConfig(command="selftest", lattice_path=R1D1))

    @pytest.mark.parametrize(
        "argv, fields, forms",
        [
            (
                ["walls", "--mu", "0", "--B", "5", "--delta", "1,0,1", "--alpha-min", "3"],
                dict(
                    command="walls", mu=Fraction(0), b_field=(Fraction(5),),
                    delta=(1, 0, 1), alpha_min=Fraction(3),
                ),
                ("--mu", "--B, --delta, --alpha-min"),
            ),
            (
                ["walls", "--mu", "0", "--alpha-min", "3"],
                dict(command="walls", mu=Fraction(0), alpha_min=Fraction(3)),
                ("--mu", "--B, --delta, --alpha-min"),
            ),
            (
                ["reconstruct", "--mass-table", "T", "--B", "7", "--alpha", "9"],
                dict(
                    command="reconstruct", mass_table="T",
                    b_field=(Fraction(7),), alpha=Fraction(9),
                ),
                ("--mass-table", "--B and --alpha"),
            ),
            (
                ["reconstruct", "--mass-table", "T", "--alpha", "9"],
                dict(command="reconstruct", mass_table="T", alpha=Fraction(9)),
                ("--mass-table", "--B and --alpha"),
            ),
        ],
        ids=["walls-all", "walls-alpha-min", "reconstruct-all", "reconstruct-alpha"],
    )
    def test_both_input_forms_exit_2(self, capsys, argv, fields, forms):
        # the table path is never read: the conflict is found first
        code, out = self._capture(capsys, argv[:1] + ["--lattice", R1D1] + argv[1:])
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ConfigError"
        assert all(form in error["message"] for form in forms)
        with pytest.raises(ConfigError, match="not both"):
            run(RunConfig(lattice_path=R1D1, **fields))


def test_readme_flag_table_matches_parser():
    """README "Command line" lists each subcommand's flags as the parser
    accepts them, the required ones apart."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = {
        name: (set(re.findall(r"`(--[\w-]+)`", required)), set(re.findall(r"`(--[\w-]+)`", rest)))
        for name, required, rest in re.findall(r"^\| `(\w+)` \|(.*)\|(.*)\|$", section, re.M)
    }
    accepted = parser_options()
    assert set(table) == set(accepted)
    for name, options in accepted.items():
        # the parser leaves a missing --lattice to `_execute`, which names it
        required = {flag for flag, needed in options.items() if needed or flag == "--lattice"}
        assert table[name] == (required, set(options) - required), name


class TestMassTableFlow:
    def _table_payload(self, as_float=False):
        lat = load_lattice(R1D1)
        basis = good_basis(lat, SearchBox(8, 8, 40))
        omega = omega_from_bw(lat, BWParams((Fraction(1, 2),), Fraction(3, 2)))
        oracle = MassOracle.from_charge(lat, omega)
        entries = []
        targets = list(basis.vectors) + list(
            companion_classes(lat, basis).values()
        )
        for cls in targets:
            mass = oracle.query(cls).a
            entries.append(
                {
                    "r": cls.v.r,
                    "D": list(cls.v.D),
                    "s": cls.v.s,
                    "mass_sq": float(mass) if as_float else str(mass),
                }
            )
        return {"masses": entries}

    def test_exact_table(self, tmp_path, capsys):
        path = _write(tmp_path, "masses.json", json.dumps(self._table_payload()))
        code = main(["reconstruct", "--lattice", R1D1, "--mass-table", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["results"]["residual"]["a"] == "0"

    def test_float_table_rejected_in_exact_mode(self, tmp_path, capsys):
        path = _write(
            tmp_path, "masses.json", json.dumps(self._table_payload(as_float=True))
        )
        code = main(["reconstruct", "--lattice", R1D1, "--mass-table", path])
        out = capsys.readouterr().out
        assert code == 2
        assert "float" in json.loads(out)["error"]["message"]

    def test_float_table_in_float_mode(self, tmp_path, capsys):
        path = _write(
            tmp_path, "masses.json", json.dumps(self._table_payload(as_float=True))
        )
        code = main(
            [
                "reconstruct",
                "--lattice",
                R1D1,
                "--mass-table",
                path,
                "--mode",
                "float",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert float(payload["results"]["residual"]) <= 1e-9

    def test_tolerance_reaches_float_reconstruction(self, tmp_path, capsys):
        # a bump of 1e-3 in one companion mass leaves a residual near 1.4e-5
        payload = self._table_payload(as_float=True)
        payload["masses"][-1]["mass_sq"] += 1e-3
        path = _write(tmp_path, "masses.json", json.dumps(payload))
        argv = ["reconstruct", "--lattice", R1D1, "--mass-table", path, "--mode", "float"]
        code = main(argv)
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == 3
        assert error["type"] == "InconsistentMasses"
        code = main(argv + ["--tol", "1e-3"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert 1e-9 < float(report["results"]["residual"]) < 1e-3
        assert float(report["inputs"]["tolerance"]) == 1e-3

    def test_malformed_tables(self, tmp_path, capsys):
        for text in ("{}", '{"masses": [{"r": 1}]}', "not json"):
            path = _write(tmp_path, "bad.json", text)
            code = main(["reconstruct", "--lattice", R1D1, "--mass-table", path])
            capsys.readouterr()
            assert code == 2

    @pytest.mark.parametrize(
        "mode, text",
        [
            ("exact", '{"masses": [{"r": 1, "D": [0], "s": 1, "mass_sq": "abc"}]}'),
            ("exact", '{"masses": [{"r": 1, "D": [0], "s": 1, "mass_sq": null}]}'),
            ("exact", '{"masses": 5}'),
            ("exact", '{"masses": [{"r": 1, "D": [0], "s": 1, "mass_sq": true}]}'),
            ("exact", '{"masses": [{"r": true, "D": [0], "s": 1, "mass_sq": 1}]}'),
            ("float", '{"masses": [{"r": 1, "D": [0], "s": 1, "mass_sq": NaN}]}'),
            ("float", '{"masses": [{"r": 1, "D": [0], "s": 1, "mass_sq": "1e400"}]}'),
        ],
        ids=[
            "mass-abc", "mass-null", "masses-int", "mass-bool", "r-bool",
            "float-nan", "float-overflow",
        ],
    )
    def test_bad_mass_values_exit_2(self, tmp_path, capsys, mode, text):
        path = _write(tmp_path, "bad.json", text)
        argv = ["reconstruct", "--lattice", R1D1, "--mass-table", path, "--mode", mode]
        code = main(argv)
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("bad_first", [False, True], ids=["bad-last", "bad-first"])
    def test_duplicate_class_exits_2(self, tmp_path, capsys, bad_first):
        entries = self._table_payload()["masses"]
        bad = dict(entries[0], mass_sq="12345")
        entries = [bad] + entries if bad_first else entries + [bad]
        path = _write(tmp_path, "masses.json", json.dumps({"masses": entries}))
        code = main(["reconstruct", "--lattice", R1D1, "--mass-table", path])
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == 2
        assert error["type"] == "ConfigError"
        r, D, s = bad["r"], tuple(bad["D"]), bad["s"]
        assert f"MukaiVector(r={r}, D={D}, s={s})" in error["message"]
