"""The lazy package namespace and the layers each CLI command loads."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import cyclegas

# every name the package exports, by home module
EXPORTS = {
    "bosefn": ["BoseEval", "bose_g", "zeta"],
    "entropy": [
        "EntropyDecomposition",
        "ExponentialShape",
        "MinimizeResult",
        "TruncatedShape",
        "entropy_decomposition",
        "functional_S",
        "minimize_S",
        "minimizing_sequence",
        "minimizing_sequence_s_closed_form",
        "qhat_star_array",
    ],
    "errors": ["CapError", "CycleGasError", "DivergenceError", "PrecisionError", "ValidationError"],
    "exactz": [
        "brute_force_log_Z",
        "confinement_log_Z_bracket",
        "convergence_scan",
        "exact_log_Z",
        "mu_N_expected_shape",
    ],
    "partitions": [
        "Partition",
        "ShapeMeasure",
        "conjugacy_class_size",
        "log_conjugacy_class_size",
        "occupations_from_shape",
        "partition_count",
        "shape_measure",
    ],
    "sampler": ["ChainState", "CycleStats", "long_cycle_fraction_scan", "run_chain"],
    "thermo": [
        "SystemParams",
        "ThermoSolution",
        "chi",
        "critical_beta",
        "critical_density",
        "free_energy",
        "optimal_shape",
        "solve_alpha",
    ],
}
NAMES = [name for names in EXPORTS.values() for name in names]
# d = 3, beta = 1/(4 pi): the normal side, 0.999 rho_c away from the transition
NEAR_CRITICAL_RHO = repr(0.999 * cyclegas.critical_density(3, 0.0795775))


class TestNamespace:
    def test_all_is_the_export_list(self):
        assert len(NAMES) == 42
        assert sorted(cyclegas.__all__) == sorted(NAMES)

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_each_name_is_its_home_object(self, module):
        home = importlib.import_module(f"cyclegas.{module}")
        for name in EXPORTS[module]:
            assert getattr(cyclegas, name) is getattr(home, name)
            assert name in vars(cyclegas)  # cached: the next lookup is a dict hit

    def test_dir_lists_exports_and_layers(self):
        assert set(NAMES) | set(EXPORTS) <= set(dir(cyclegas))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cyclegas.no_such_name
        assert not hasattr(cyclegas, "numpy")

    def test_the_cycle_weight_helpers_have_one_home(self):
        from cyclegas import exactz, sampler, thermo

        for name in ("_cycle_log_constants", "_occupation_log_weight", "_require_n"):
            home = getattr(thermo, name)
            assert home.__module__ == "cyclegas.thermo"
            assert getattr(sampler, name) is home
        # the exact engine reads the table alone, not a partition's weight
        for name in ("_cycle_log_constants", "_require_n"):
            assert getattr(exactz, name) is getattr(thermo, name)

    def test_star_import_binds_every_export(self):
        namespace: dict = {}
        exec("from cyclegas import *", namespace)
        for name in NAMES:
            assert namespace[name] is getattr(cyclegas, name)


# stdlib modules no command needs: dataclasses (which loads inspect, ast and
# dis), fractions (which loads decimal) and csv, which only --format csv uses
STDLIB = {"dataclasses", "inspect", "fractions", "csv"}


def loaded_after(code: str) -> tuple:
    """Run code in a fresh interpreter; (its value of `result`, the modules it loaded).

    The modules reported are cyclegas's, numpy and those in STDLIB.
    """
    src = os.path.dirname(os.path.dirname(cyclegas.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    watched = sorted(STDLIB | {"numpy"})
    report = (
        "print(json.dumps([result, sorted(m for m in sys.modules"
        f" if m in {watched!r} or m.split('.')[0] == 'cyclegas')]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code + "\n" + report],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    result, modules = json.loads(proc.stdout.splitlines()[-1])
    return result, set(modules)


class TestImportFootprint:
    def test_importing_the_cli_loads_no_layer(self):
        _, modules = loaded_after("import cyclegas.cli\nresult = None")
        assert modules == {"cyclegas", "cyclegas.cli", "cyclegas.errors"}

    def test_importing_the_package_loads_no_layer(self):
        result, modules = loaded_after(
            "import cyclegas\nbare = sorted(sys.modules)\n"
            "result = [m for m in bare if m.startswith('cyclegas')], cyclegas.thermo.__name__"
        )
        assert result == [["cyclegas"], "cyclegas.thermo"]
        assert "numpy" not in modules

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["free-energy", "--d", "3", "--beta", "0.0795775", "--rho", "5.3"], 0),
            (["phase", "--d", "3", "--beta", "0.0795775", "--rho", "5.3"], 0),
            (["phase", "--d", "3", "--beta", "-1", "--rho", "1"], 2),
            (["phase", "--d", "3", "--beta", "1", "--rho", "1", "--no-such-flag"], 1),
            # normal points: each density solve sums a Bose series
            (["phase", "--d", "3", "--beta", "0.0795775", "--rho", "2.6"], 0),
            (["phase", "--d", "3", "--beta", "0.0795775", "--rho", NEAR_CRITICAL_RHO], 0),
            (["alpha", "--d", "2", "--beta", "1", "--rho", "0.1"], 0),
            (["free-energy", "--d", "1", "--beta", "1", "--rho", "0.5"], 0),
        ],
    )
    def test_scalar_and_failing_commands_load_no_numpy(self, argv, code):
        result, modules = loaded_after(
            "import io, contextlib\nfrom cyclegas import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    result = cli.main({argv!r})"
        )
        assert result == code
        assert "numpy" not in modules
        assert "cyclegas.entropy" not in modules
        assert not {"cyclegas.exactz", "cyclegas.sampler"} & modules
        assert not STDLIB & modules

    # rho = 5.3 is condensed at beta = 0.0795775 (rho_c = 2.61): a dual root below 0
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["minimize", "--d", "3", "--beta", "0.0795775", "--rho", "5.3", "--K", "100000"], 0),
            (["minimize", "--d", "1", "--beta", "1", "--rho", "0.5", "--K", "5000"], 0),
            (["minimize", "--d", "1", "--beta", "1", "--rho", "0.5", "--K", "1000000000000"], 3),
        ],
        ids=["condensed", "normal", "cap"],
    )
    def test_minimize_loads_no_numpy(self, argv, code):
        result, modules = loaded_after(
            "import io, contextlib\nfrom cyclegas import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    result = cli.main({argv!r})"
        )
        assert result == code
        assert "numpy" not in modules
        assert {"cyclegas.entropy", "cyclegas.thermo", "cyclegas.bosefn"} <= modules
        assert not STDLIB & modules

    def test_a_chain_command_loads_its_layers(self):
        result, modules = loaded_after(
            "import io, contextlib\nfrom cyclegas import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    result = cli.main(['sample', '--d', '3', '--beta', '1', '--rho', '1',"
            " '--n', '10', '--steps', '100'])"
        )
        assert result == 0
        assert {"cyclegas.sampler", "cyclegas.thermo"} <= modules
        assert "numpy" not in modules
        assert "cyclegas.entropy" not in modules
        assert "cyclegas.exactz" not in modules
        assert not STDLIB & modules
        assert "cyclegas.partitions" not in modules

    # d = 3, beta = 1 is condensed at rho = 1 and normal at rho = 0.01
    # (rho_c = 0.0588), as is beta = 1/(4 pi) at rho = 1.3 (rho_c = 2.61)
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["exact-z", "--d", "3", "--beta", "1", "--rho", "1", "--n", "8", "--oracle"], 0),
            (["exact-z", "--d", "3", "--beta", "1", "--rho", "1", "--n", "80"], 3),
            (["sample", "--d", "3", "--beta", "1", "--rho", "1", "--n", "30",
              "--steps", "2000"], 0),
            (["scan-long-cycles", "--d", "3", "--beta", "1", "--rho", "1",
              "--n-list", "20,40", "--steps", "2000"], 0),
            (["exact-z", "--d", "3", "--beta", "1", "--rho", "0.01", "--n", "8"], 0),
            (["sample", "--d", "3", "--beta", "1", "--rho", "0.01", "--n", "30",
              "--steps", "2000"], 0),
            (["scan-long-cycles", "--d", "3", "--beta", "1", "--rho", "0.01",
              "--n-list", "20,40", "--steps", "2000"], 0),
            (["converge", "--d", "3", "--beta", "0.0795775", "--rho", "1.3",
              "--n-list", "10,20"], 0),
        ],
        ids=["exact-z-oracle", "exact-z-cap", "sample", "scan-long-cycles",
             "exact-z-normal", "sample-normal", "scan-long-cycles-normal", "converge-normal"],
    )
    def test_exact_and_chain_commands_load_no_numpy(self, argv, code):
        result, modules = loaded_after(
            "import io, contextlib\nfrom cyclegas import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    result = cli.main({argv!r})"
        )
        assert result == code
        assert "numpy" not in modules
        assert "cyclegas.entropy" not in modules
        assert not STDLIB & modules
        assert "cyclegas.partitions" not in modules
        # the chain reads the cycle weight from thermo, not from the exact engine
        if argv[0] in ("sample", "scan-long-cycles"):
            assert "cyclegas.exactz" not in modules

    @pytest.mark.parametrize(
        "argv",
        [
            ["phase", "--d", "3", "--beta", "0.0795775", "--rho", "2.6"],
            ["minimize", "--d", "1", "--beta", "1", "--rho", "0.5", "--K", "5000"],
            ["exact-z", "--d", "3", "--beta", "1", "--rho", "1", "--n", "8"],
            ["converge", "--d", "3", "--beta", "0.0795775", "--rho", "1.3", "--n-list", "10,20"],
            ["sample", "--d", "3", "--beta", "1", "--rho", "1", "--n", "30", "--steps", "2000"],
            ["scan-long-cycles", "--d", "3", "--beta", "1", "--rho", "1",
             "--n-list", "20,40", "--steps", "2000"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_csv_loads_only_under_format_csv(self, argv):
        for fmt, csv_loaded in (("json", False), ("csv", True)):
            result, modules = loaded_after(
                "import io, contextlib\nfrom cyclegas import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    result = cli.main({argv + ['--format', fmt]!r})"
            )
            assert result == 0
            assert ("csv" in modules) is csv_loaded
            assert not (STDLIB - {"csv"}) & modules
            assert "cyclegas.partitions" not in modules
