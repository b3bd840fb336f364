"""CLI contract tests: envelopes, schema, exit codes, determinism."""

import json
import math
import re
from importlib import resources

import jsonschema
import pytest

from cyclegas import cli
from cyclegas.cli import main


def load_schema() -> dict:
    with resources.files("cyclegas").joinpath("schema/output.schema.json").open() as fh:
        return json.load(fh)


SCHEMA = load_schema()


def run_cli(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv: list[str]) -> dict:
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return doc


BETA_UNIT_STR = str(1.0 / (4.0 * math.pi))
ZETA_3_HALVES = 2.612375348685488343348567567924071


class TestCommands:
    def test_phase_fields(self, capsys):
        doc = run_json(
            capsys, ["phase", "--d", "3", "--beta", "0.0795775", "--rho", "2.6"]
        )
        data = doc["data"]
        assert set(data) == {
            "regime",
            "alpha",
            "residual_bound",
            "rho_c",
            "beta_c",
            "condensate_fraction",
        }
        assert data["regime"] == "normal"
        assert doc["config"]["tol"] == 1e-10

    def test_phase_condensed(self, capsys):
        doc = run_json(
            capsys, ["phase", "--d", "3", "--beta", BETA_UNIT_STR, "--rho", "5.3"]
        )
        assert doc["data"]["regime"] == "condensed"
        assert doc["data"]["alpha"] == 0.0
        assert doc["data"]["condensate_fraction"] > 0.5

    def test_phase_low_dimension_infinities(self, capsys):
        doc = run_json(capsys, ["phase", "--d", "2", "--beta", "1", "--rho", "1"])
        assert doc["data"]["rho_c"] == "infinity"
        assert doc["data"]["beta_c"] == "infinity"

    def test_exact_z_oracle_agreement(self, capsys):
        for n in ("8", "9"):  # 9 is the permutation cap
            doc = run_json(
                capsys,
                ["exact-z", "--d", "3", "--beta", "1", "--rho", "1", "--n", n, "--oracle"],
            )
            assert doc["data"]["oracle_abs_diff"] < 1e-12 * abs(doc["data"]["log_z"])

    def test_alpha_and_free_energy(self, capsys):
        a = run_json(capsys, ["alpha", "--d", "1", "--beta", "1", "--rho", "0.5"])
        f = run_json(capsys, ["free-energy", "--d", "1", "--beta", "1", "--rho", "0.5"])
        assert a["data"]["alpha"] == pytest.approx(f["data"]["alpha"], rel=1e-12)
        assert f["data"]["free_energy"] == pytest.approx(
            0.5 * f["data"]["chi"] / 1.0, rel=1e-12
        )

    def test_minimize(self, capsys):
        doc = run_json(
            capsys,
            ["minimize", "--d", "1", "--beta", "1", "--rho", "0.5", "--K", "500"],
        )
        assert doc["data"]["s_value"] == pytest.approx(doc["data"]["chi"], abs=1e-4)
        assert len(doc["data"]["qhat_head"]) == 10

    def test_converge_rows(self, capsys):
        doc = run_json(
            capsys,
            ["converge", "--d", "1", "--beta", "1", "--rho", "1", "--n-list", "5,10"],
        )
        assert [row["n"] for row in doc["data"]] == [5, 10]
        assert abs(doc["data"][1]["gap"]) < abs(doc["data"][0]["gap"])

    def test_sample_and_scan(self, capsys):
        doc = run_json(
            capsys,
            [
                "sample",
                "--d", "3", "--beta", BETA_UNIT_STR, "--rho", "5.3",
                "--n", "100", "--steps", "20000", "--seed", "42",
            ],
        )
        assert doc["data"]["n_samples"] > 0
        assert len(doc["data"]["shape"]) == doc["data"]["k_report"]
        scan = run_json(
            capsys,
            [
                "scan-long-cycles",
                "--d", "3", "--beta", BETA_UNIT_STR, "--rho", "5.3",
                "--n-list", "50,100", "--steps", "10000", "--seed", "1",
            ],
        )
        assert [row["n"] for row in scan["data"]] == [50, 100]


class TestDeterminism:
    def test_sample_byte_identical(self, capsys):
        argv = [
            "sample",
            "--d", "3", "--beta", BETA_UNIT_STR, "--rho", "5.2",
            "--n", "200", "--steps", "50000", "--seed", "42",
        ]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_defaults_to_zero_whatever_the_environment(self, capsys, monkeypatch):
        """Every input comes from argv: CYCLEGAS_SEED, set or not, changes nothing."""
        system = ["--d", "1", "--beta", "1", "--rho", "1", "--steps", "2000"]
        for argv in (["sample", "--n", "20"], ["scan-long-cycles", "--n-list", "10,20"]):
            outputs = []
            for env in (None, "7", "abc"):
                if env is None:
                    monkeypatch.delenv("CYCLEGAS_SEED", raising=False)
                else:
                    monkeypatch.setenv("CYCLEGAS_SEED", env)
                code, out, err = run_cli(capsys, argv + system)
                assert (code, err) == (0, ""), (argv[0], env)
                outputs.append(out)
            assert outputs[1] == outputs[2] == outputs[0], argv[0]
            doc = json.loads(outputs[0])
            assert doc["config"]["seed"] == 0
            assert run_json(capsys, argv + system + ["--seed", "0"]) == doc
            if argv[0] == "sample":
                assert doc["data"]["seed"] == 0


class TestOutputs:
    def test_csv_headers_stable(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "converge",
                "--d", "1", "--beta", "1", "--rho", "1",
                "--n-list", "5", "--format", "csv",
            ],
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "n,log_z_per_n,neg_chi,gap"
        config_lines = [ln for ln in out.splitlines() if ln.startswith("#")]
        assert any(ln.startswith("# d=") for ln in config_lines)

    def test_sample_csv_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "sample",
                "--d", "1", "--beta", "1", "--rho", "1",
                "--n", "60", "--steps", "5000", "--seed", "0",
                "--format", "csv",
            ],
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "k,mean_qhat,stderr"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, err = run_cli(
            capsys,
            ["phase", "--d", "3", "--beta", "1", "--rho", "1", "--output", str(target)],
        )
        assert code == 0
        assert out == ""  # data goes to the file, not stdout
        doc = json.loads(target.read_text())
        jsonschema.validate(doc, SCHEMA)

    def test_output_into_a_missing_directory_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.json"
        code, out, err = run_cli(
            capsys,
            ["alpha", "--d", "3", "--beta", "1", "--rho", "1", "--output", str(target)],
        )
        assert code == 2
        assert out == ""
        assert err == f"cyclegas alpha: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

    def test_every_command_validates_against_schema(self, capsys):
        # exercised individually above; this sweeps the quick ones in one go
        quick = [
            ["phase", "--d", "4", "--beta", "0.5", "--rho", "3.0"],
            ["alpha", "--d", "2", "--beta", "0.5", "--rho", "1.0"],
            ["free-energy", "--d", "3", "--beta", "1.0", "--rho", "0.01"],
            ["minimize", "--d", "2", "--beta", "0.5", "--rho", "1.0", "--K", "200"],
            ["exact-z", "--d", "2", "--beta", "1", "--rho", "2", "--n", "12"],
        ]
        for argv in quick:
            run_json(capsys, argv)


class TestExitCodes:
    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, ["not-a-command"])
        assert code == 1
        assert "usage" in err

    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys, [])
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, ["phase", "--d", "3", "--beta", "1"])
        assert code == 1

    def test_validation_error(self, capsys):
        code, _, err = run_cli(capsys, ["phase", "--d", "0", "--beta", "1", "--rho", "1"])
        assert code == 2
        assert "invalid" in err

    def test_cap_error(self, capsys):
        code, _, err = run_cli(
            capsys, ["exact-z", "--d", "3", "--beta", "1", "--rho", "1", "--n", "99"]
        )
        assert code == 3

    @pytest.mark.parametrize("flag", ["--k-report", "--threshold"])
    def test_negative_sample_size(self, capsys, flag):
        code, out, err = run_cli(
            capsys,
            ["sample", "--d", "3", "--beta", "1", "--rho", "1", "--n", "50",
             "--steps", "1000", flag, "-1"],
        )
        assert code == 2
        assert out == ""
        assert "invalid" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "1e300", "1e-20"])
    @pytest.mark.parametrize("command", ["phase", "alpha", "free-energy", "minimize"])
    def test_meaningless_tol(self, capsys, command, tol):
        code, out, err = run_cli(
            capsys, [command, "--d", "3", "--beta", "1", "--rho", "0.01", "--tol", tol]
        )
        assert code == 2
        assert out == ""
        assert "invalid" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "20", "--steps", "100"],
            ["scan-long-cycles", "--n-list", "20", "--steps", "100"],
        ],
    )
    def test_chain_commands_take_no_tol(self, capsys, argv):
        # chains certify nothing, so --tol is a usage error, not a config key
        code, out, _ = run_cli(
            capsys,
            argv[:1] + ["--d", "3", "--beta", "1", "--rho", "1"] + argv[1:]
            + ["--tol", "nan"],
        )
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            [command, "--d", "3", "--beta", beta, "--rho", "1", *extra]
            for beta in ("1e-300", "1e300")
            for command, extra in [
                ("phase", []),
                ("minimize", ["--K", "100"]),
                ("exact-z", ["--n", "8"]),
                ("sample", ["--n", "20", "--steps", "100"]),
                ("converge", ["--n-list", "10"]),
                ("scan-long-cycles", ["--n-list", "20", "--steps", "100"]),
            ]
        ]
        + [
            ["alpha", "--d", "700", "--beta", "1", "--rho", "1"],
            ["free-energy", "--d", "1", "--beta", "1e-300", "--rho", "1"],
            ["minimize", "--d", "3", "--beta", "1e-200", "--rho", "1e-300", "--K", "100"],
        ],
    )
    def test_extreme_beta_or_d(self, capsys, argv):
        # (4 pi beta)^(d/2), or that times beta or rho, leaves the float range
        code, out, err = run_cli(capsys, argv)
        assert code == 2, err
        assert out == ""
        assert "invalid" in err

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["minimize", "--d", "1", "--beta", "1", "--rho", "0.5", "--K", "1000000000000"],
             3, "K=1000000000000 exceeds the shape cap of 10000000"),
            (["sample", "--d", "1", "--beta", "1", "--rho", "1", "--n", "20",
              "--steps", "1000", "--k-report", "1000000000000"],
             2, "k_report must be in [0, n=20], got 1000000000000"),
            (["sample", "--d", "1", "--beta", "1", "--rho", "1", "--n", "20",
              "--steps", "1000", "--k-report", "21"],
             2, "k_report must be in [0, n=20], got 21"),
            (["sample", "--d", "1", "--beta", "1", "--rho", "1", "--n", "20",
              "--steps", "100", "--burn-in", "-1"],
             2, "burn_in must be in [0, steps=100], got -1"),
            (["sample", "--d", "3", "--beta", "1", "--rho", "1", "--n", "20", "--steps", "-5"],
             2, "steps must be >= 1, got -5"),
            (["phase", "--d", "1", "--beta", "1e300", "--rho", "1e300"],
             2, "rho (4 pi beta)^(d/2) overflows at d=1, rho=1e+300"),
            (["alpha", "--d", "2", "--beta", "1", "--rho", "59.3"],
             3, "alpha is not certified to 1e-10 in floats at d=2, rho=59.3"),
            (["alpha", "--d", "1", "--beta", "0.001", "--rho", "5e-324"],
             2, "rho (4 pi beta)^(d/2) = 0.0 is below the normal floats at d=1, rho=5e-324"),
            # subnormal: about 15 significant bits, too few to certify alpha
            (["alpha", "--d", "2", "--beta", "1", "--rho", "1e-320"],
             2, "rho (4 pi beta)^(d/2) = 1.2566e-319 is below the normal floats at d=2, rho=1e-320"),
            # f divides by a subnormal and overflows to -inf, which is not JSON
            (["free-energy", "--d", "3", "--beta", "1e-124", "--rho", "1e185"],
             2, "(4 pi beta)^(d/2) beta = 4.454662397465363e-309 is below the normal floats"),
        ],
        ids=["K-cap", "k-report-huge", "k-report-above-n", "burn-in", "negative-steps",
             "target-overflow", "alpha-underflow", "target-underflow", "target-subnormal",
             "f-divisor-subnormal"],
    )
    def test_edge_sizes_exit_with_a_message_naming_the_input(self, capsys, argv, code, message):
        got, out, err = run_cli(capsys, argv)
        assert got == code, err
        assert out == ""
        assert message in err

    def test_condensed_point_with_overflowing_target_is_valid(self, capsys):
        # rho (4 pi beta)^(d/2) overflows, but no root is solved when condensed
        doc = run_json(capsys, ["phase", "--d", "3", "--beta", "1", "--rho", "1e307"])
        assert doc["data"]["regime"] == "condensed"

    def test_phase_reports_a_finite_beta_c_below_the_smallest_normal_rho(self, capsys):
        # zeta(3/2) / rho overflows here, but beta_c = 7.006e205 is finite
        doc = run_json(capsys, ["phase", "--d", "3", "--beta", "1e6", "--rho", "1e-310"])
        want = math.exp((2.0 / 3.0) * (math.log(ZETA_3_HALVES) - math.log(1e-310))) / (4.0 * math.pi)
        assert doc["data"]["beta_c"] == pytest.approx(want, rel=1e-12)

    def test_minimize_with_the_dual_mass_past_the_floats(self, capsys):
        # expm1 of the log constraint mass overflows at lambda = 0
        doc = run_json(
            capsys,
            ["minimize", "--d", "1", "--beta", "1", "--rho", "1e-306", "--K", "1000000"],
        )
        assert abs(doc["data"]["constraint_residual"]) <= 1e-10
        assert doc["data"]["lam"] == pytest.approx(703.3255263326934, rel=1e-12)
        assert doc["data"]["s_value"] == pytest.approx(doc["data"]["chi"], rel=1e-13)

    def test_bad_n_list(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["converge", "--d", "1", "--beta", "1", "--rho", "1", "--n-list", "a,b"],
        )
        assert code == 2

    def test_empty_n_list(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["converge", "--d", "1", "--beta", "1", "--rho", "1", "--n-list", ","],
        )
        assert (code, out) == (2, "")
        assert "--n-list is empty" in err

    def test_converge_over_cap(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["converge", "--d", "1", "--beta", "1", "--rho", "1", "--n-list", "80"],
        )
        assert code == 3

    def test_minimize_condensed_reports_boundary_mass(self, capsys):
        doc = run_json(
            capsys,
            ["minimize", "--d", "3", "--beta", BETA_UNIT_STR, "--rho", "5.3", "--K", "500"],
        )
        assert doc["data"]["lam"] < 0.0
        assert doc["data"]["boundary_mass"] > 1e-4
        assert doc["data"]["s_value"] > doc["data"]["chi"]


CSV_HEADERS = [
    (["phase", "--d", "3", "--beta", "1", "--rho", "1"],
     "regime,alpha,residual_bound,rho_c,beta_c,condensate_fraction"),
    (["alpha", "--d", "1", "--beta", "1", "--rho", "0.5"], "alpha,regime,residual_bound"),
    (["free-energy", "--d", "3", "--beta", "1", "--rho", "0.01"], "free_energy,chi,alpha,regime"),
    (["minimize", "--d", "1", "--beta", "1", "--rho", "0.5", "--K", "500"],
     "K,lam,s_value,chi,boundary_mass,constraint_residual"),
    (["exact-z", "--d", "3", "--beta", "1", "--rho", "1", "--n", "8"],
     "n,log_z,log_z_per_n,neg_chi,log_z_confinement_lower,confinement_max_shift,"
     "log_z_brute,oracle_abs_diff"),
    (["exact-z", "--d", "3", "--beta", "1", "--rho", "1", "--n", "8", "--oracle"],
     "n,log_z,log_z_per_n,neg_chi,log_z_confinement_lower,confinement_max_shift,"
     "log_z_brute,oracle_abs_diff"),
    (["scan-long-cycles", "--d", "3", "--beta", BETA_UNIT_STR, "--rho", "5.3",
      "--n-list", "50,100", "--steps", "2000", "--seed", "1"],
     "n,fraction,stderr"),
]

# each command's one-line help and flags, in the order its usage lists them
HELP = {
    "phase": "regime, alpha, critical constants",
    "alpha": "solve the density equation for alpha",
    "free-energy": "specific free energy and chi",
    "minimize": "minimise the truncated shape functional",
    "exact-z": "exact finite-n partition sum",
    "converge": "scan (1/n) log Z_n against its limit",
    "sample": "split/merge chain cycle statistics",
    "scan-long-cycles": "long-cycle mass across sizes",
}
SYSTEM, OUTPUT = ["--d", "--beta", "--rho"], ["--format", "--output"]
FLAGS = {
    "phase": SYSTEM + ["--tol"] + OUTPUT,
    "alpha": SYSTEM + ["--tol"] + OUTPUT,
    "free-energy": SYSTEM + ["--tol"] + OUTPUT,
    "minimize": SYSTEM + ["--K", "--tol"] + OUTPUT,
    "exact-z": SYSTEM + ["--n", "--oracle", "--tol"] + OUTPUT,
    "converge": SYSTEM + ["--n-list", "--tol"] + OUTPUT,
    "sample": SYSTEM
    + ["--n", "--steps", "--burn-in", "--thin", "--k-report", "--threshold", "--seed"]
    + OUTPUT,
    "scan-long-cycles": SYSTEM + ["--n-list", "--steps", "--thin", "--seed"] + OUTPUT,
}


def long_flags(text: str) -> list[str]:
    """The --flags named in text, each once, in the order they first appear."""
    return list(dict.fromkeys(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text)))


class TestTable:
    @pytest.mark.parametrize(
        "argv, header",
        CSV_HEADERS,
        ids=["phase", "alpha", "free-energy", "minimize", "exact-z", "exact-z-oracle", "scan"],
    )
    def test_csv_header(self, capsys, argv, header):
        code, out, err = run_cli(capsys, argv + ["--format", "csv"])
        assert code == 0, err
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == header
        assert len(lines) >= 2
        assert all(len(ln.split(",")) == len(header.split(",")) for ln in lines[1:])

    def test_exact_z_without_the_oracle_leaves_its_columns_empty(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["exact-z", "--d", "3", "--beta", "1", "--rho", "1", "--n", "8", "--format", "csv"],
        )
        row = [ln for ln in out.splitlines() if not ln.startswith("#")][1]
        assert row.endswith(",,") and not row.endswith(",,,")

    def test_top_level_help_names_every_command(self, capsys):
        code, out, err = run_cli(capsys, ["-h"])
        assert code == 0 and err == ""
        text = " ".join(out.split())
        for name, help_text in HELP.items():
            assert f" {name} {help_text} " in text

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_command_help_lists_its_own_flags(self, capsys, command):
        code, out, err = run_cli(capsys, [command, "-h"])
        assert code == 0 and err == ""
        usage = out.split("\n\n")[0]
        assert usage.startswith(f"usage: cyclegas {command} [-h] ")
        assert long_flags(usage) == FLAGS[command]
        assert long_flags(out) == FLAGS[command] + ["--help"]

    @pytest.mark.parametrize("command", ["sample", "scan-long-cycles"])
    def test_chain_help_offers_no_tol(self, capsys, command):
        _, out, _ = run_cli(capsys, [command, "-h"])
        assert "--tol" not in out

    def test_schema_names_exactly_the_cli_commands(self):
        # a command added to the CLI or to the schema alone fails here
        assert set(SCHEMA["properties"]["command"]["enum"]) == set(cli._COMMANDS) == set(HELP)
