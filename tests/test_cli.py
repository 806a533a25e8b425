"""Command-line behavior: flows, formats, exit codes, presets."""

import csv
import json
import logging
import warnings

import pytest

from vscit.cli import EXIT_INTERNAL, EXIT_OK, EXIT_SHORTFALL, EXIT_USAGE, load_preset, main
from vscit.model import parse_config, parse_model, validate_config
from vscit.verify import read_suite


def run_cli(*argv):
    return main(list(argv))


class TestGenerate:
    def test_exact_optimum_config(self, tmp_path, capsys):
        out = tmp_path / "suite.txt"
        code = run_cli("generate", "--model", "3^3", "--t", "3", "--variant", "fpso",
                       "--seed", "1", "--out", str(out))
        assert code == EXIT_OK
        assert "size=27 seed=1 variant=fpso" in capsys.readouterr().out
        assert len(read_suite(out)) == 27

    def test_two_binary_params(self, tmp_path, capsys):
        out = tmp_path / "suite.txt"
        code = run_cli("generate", "--model", "2^2", "--t", "2", "--out", str(out))
        assert code == EXIT_OK
        assert "size=4" in capsys.readouterr().out

    def test_writes_one_json_line_per_test(self, tmp_path):
        out = tmp_path / "suite.txt"
        run_cli("generate", "--model", "3^4", "--t", "2", "--seed", "3", "--out", str(out))
        records = [json.loads(line)
                   for line in (tmp_path / "suite.txt.log").read_text().splitlines()]
        assert len(records) == len(read_suite(out))
        assert all(list(r) == ["iterations", "stop", "repaired", "covered"] for r in records)
        assert sum(r["covered"] for r in records) == 54

    def test_byte_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run_cli("generate", "--model", "3^5", "--t", "2", "--seed", "7",
                           "--out", str(out)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_patience_flag(self, tmp_path):
        def stops(*flags):
            out = tmp_path / "suite.txt"
            assert run_cli("generate", "--model", "3^5", "--t", "2", "--seed", "5",
                           *flags, "--out", str(out)) == EXIT_OK
            lines = (tmp_path / "suite.txt.log").read_text().splitlines()
            return {json.loads(line)["stop"] for line in lines}

        assert stops("--patience", "none") == {"all-covered", "budget"}
        assert stops("--patience", "3") == {"all-covered", "stalled"}
        assert stops() == {"all-covered", "stalled"}
        assert stops("--variant", "cpso") == {"all-covered", "budget"}

    def test_sub_flag(self, tmp_path):
        out = tmp_path / "suite.txt"
        code = run_cli("generate", "--model", "3^4", "--t", "2", "--sub", "0,1,2:3",
                       "--out", str(out))
        assert code == EXIT_OK
        assert read_suite(out).config.render() == "t=2; sub=0,1,2:3"

    def test_bad_model_exits_2(self, tmp_path, capsys):
        code = run_cli("generate", "--model", "3^", "--t", "2",
                       "--out", str(tmp_path / "s.txt"))
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_missing_strength_exits_2(self, tmp_path):
        assert run_cli("generate", "--model", "3^3",
                       "--out", str(tmp_path / "s.txt")) == EXIT_USAGE

    def test_strength_above_k_exits_2(self, tmp_path):
        assert run_cli("generate", "--model", "3^3", "--t", "5",
                       "--out", str(tmp_path / "s.txt")) == EXIT_USAGE

    def test_model_with_too_many_tuple_ids_exits_2(self, tmp_path, capsys):
        # 2**52 required tuples: refused by count, not by a failed allocation.
        out = tmp_path / "s.txt"
        assert run_cli("generate", "--model", "67108864^2", "--t", "2",
                       "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {2**52} required tuples")
        assert not out.exists()

    def test_output_directory_missing_exits_2(self, tmp_path, capsys):
        # Exit 1 means a coverage shortfall, so a file error must not end there.
        code = run_cli("generate", "--model", "3^4", "--t", "2",
                       "--out", str(tmp_path / "nodir" / "x.txt"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_redundant_sub_warns_once(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("generate", "--model", "3^4", "--t", "2", "--sub", "0,1:2",
                           "--out", str(tmp_path / "s.txt"))
        assert code == EXIT_OK
        redundant = [w for w in caught if "redundant" in str(w.message)]
        assert len(redundant) == 1


class TestVerifyCommand:
    def generate_suite_file(self, tmp_path, *extra):
        out = tmp_path / "suite.txt"
        assert run_cli("generate", "--model", "3^4", "--t", "2", "--seed", "2",
                       "--out", str(out), *extra) == EXIT_OK
        return out

    def test_generated_suite_verifies_clean(self, tmp_path, capsys):
        out = self.generate_suite_file(tmp_path)
        assert run_cli("verify", str(out)) == EXIT_OK
        assert "coverage: 100.00%" in capsys.readouterr().out

    def test_truncated_suite_fails(self, tmp_path, capsys):
        out = self.generate_suite_file(tmp_path)
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[:-1]) + "\n")
        assert run_cli("verify", str(out)) == EXIT_SHORTFALL
        assert "missing" in capsys.readouterr().out

    def test_header_only_suite_fails(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# model: 2^2\n# config: t=2\n")
        assert run_cli("verify", str(path)) == EXIT_SHORTFALL

    def test_malformed_suite_exits_2(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a suite\n")
        assert run_cli("verify", str(path)) == EXIT_USAGE

    def test_missing_suite_file_exits_2(self, tmp_path, capsys):
        assert run_cli("verify", str(tmp_path / "missing.txt")) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "coverage" not in captured.out

    def test_csv_report(self, tmp_path):
        path = tmp_path / "partial.txt"
        path.write_text("# model: 2^2\n# config: t=2\n0,0\n")
        csv_out = tmp_path / "report.csv"
        assert run_cli("verify", str(path), "--csv", str(csv_out)) == EXIT_SHORTFALL
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "combination,values"
        assert len(lines) == 4  # three uncovered value pairs

    @pytest.mark.parametrize("config_text", ["t=5", "t=2; sub=0,1,7:3"])
    def test_config_the_model_cannot_hold_exits_2(self, tmp_path, capsys, config_text):
        # t=5 over three parameters demands nothing, so the oracle would report
        # 100%; index 7 does not exist, so the oracle would index past the case.
        path = tmp_path / "suite.txt"
        path.write_text(f"# model: 3^3\n# config: {config_text}\n0,0,0\n")
        assert run_cli("verify", str(path)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "coverage" not in captured.out
        assert captured.err.startswith("error:") and "outside" in captured.err


class TestBenchmark:
    def read_rows(self, path):
        with open(path) as fh:
            return list(csv.reader(fh))

    def test_rows_and_summary(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli("benchmark", "--model", "3^3", "--t", "3", "--runs", "3",
                       "--seed", "5", "--out", str(out))
        assert code == EXIT_OK
        rows = self.read_rows(out)
        assert rows[0] == ["config_label", "variant", "seed", "size"]
        assert len(rows) == 1 + 3 + 2  # header + runs + best/mean
        sizes = [int(r[3]) for r in rows[1:4]]
        assert [r[2] for r in rows[1:4]] == ["5", "6", "7"]
        best_row, mean_row = rows[4], rows[5]
        assert best_row[2:] == ["best", str(min(sizes))]
        assert mean_row[2] == "mean"
        assert float(mean_row[3]) == pytest.approx(sum(sizes) / 3, abs=0.005)
        assert "best=" in capsys.readouterr().out

    def test_single_run_summary_equals_size(self, tmp_path):
        out = tmp_path / "bench.csv"
        run_cli("benchmark", "--model", "2^3", "--t", "2", "--runs", "1", "--out", str(out))
        rows = self.read_rows(out)
        assert rows[2][2:] == ["best", rows[1][3]]
        assert float(rows[3][3]) == float(rows[1][3])

    def test_byte_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("benchmark", "--model", "3^4", "--t", "2", "--runs", "2",
                           "--seed", "1", "--out", str(out)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_preset_file(self, tmp_path):
        preset = tmp_path / "tiny.txt"
        preset.write_text(
            "# comment line\n"
            "small | 2^2 | t=2\n"
            "tiny-vs | 2^3 | t=2; sub=0,1,2:3\n"
        )
        out = tmp_path / "bench.csv"
        code = run_cli("benchmark", "--preset", str(preset), "--runs", "2", "--out", str(out))
        assert code == EXIT_OK
        rows = self.read_rows(out)
        assert len(rows) == 1 + 2 * (2 + 2)
        assert {r[0] for r in rows[1:]} == {"small", "tiny-vs"}

    @pytest.mark.parametrize("bad_row", ["bad | 3^ | t=2", "big | 3^4 | t=5"],
                             ids=["unparsable-model", "strength-above-k"])
    def test_bad_preset_row_fails_before_any_run(self, tmp_path, capsys, bad_row):
        preset = tmp_path / "p.txt"
        preset.write_text(f"ok | 3^4 | t=2\n{bad_row}\n")
        out = tmp_path / "bench.csv"
        code = run_cli("benchmark", "--preset", str(preset), "--runs", "5", "--out", str(out))
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert not out.exists()

    def test_preset_conflicts_with_model(self, tmp_path):
        assert run_cli("benchmark", "--preset", "table1", "--model", "3^3", "--t", "3",
                       "--out", str(tmp_path / "b.csv")) == EXIT_USAGE

    def test_preset_conflicts_with_sub(self, tmp_path, capsys):
        preset = tmp_path / "p.txt"
        preset.write_text("small | 2^2 | t=2\n")
        out = tmp_path / "b.csv"
        assert run_cli("benchmark", "--preset", str(preset), "--sub", "0,1:2",
                       "--runs", "1", "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--sub" in err
        assert not out.exists()

    def test_unknown_preset_exits_2(self, tmp_path):
        assert run_cli("benchmark", "--preset", "nope",
                       "--out", str(tmp_path / "b.csv")) == EXIT_USAGE

    def test_preset_directory_exits_2(self, tmp_path, capsys):
        assert run_cli("benchmark", "--preset", str(tmp_path), "--runs", "1",
                       "--out", str(tmp_path / "b.csv")) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_cpso_variant(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run_cli("benchmark", "--model", "3^3", "--t", "2", "--runs", "2",
                       "--variant", "cpso", "--out", str(out))
        assert code == EXIT_OK
        assert all(r[1] == "cpso" for r in self.read_rows(out)[1:])


class TestRunOptionRefusals:
    @pytest.mark.parametrize("command,flag,value,name", [
        ("benchmark", "--runs", "0", "runs"),
        ("generate", "--swarm-size", "1", "swarm_size"),
        ("generate", "--iterations", "0", "max_iterations"),
        ("generate", "--seed", "-1", "rng_seed"),
        ("generate", "--patience", "0", "patience"),
    ], ids=["runs", "swarm-size", "iterations", "seed", "patience"])
    def test_bad_value_exits_2(self, tmp_path, capsys, command, flag, value, name):
        out = tmp_path / "out.txt"
        code = run_cli(command, "--model", "3^4", "--t", "2", flag, value, "--out", str(out))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{name} must be" in err and f"got {value}" in err
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("command", ["generate", "benchmark"])
    def test_non_integer_patience_exits_2(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--model", "3^4", "--t", "2", "--patience", "abc",
                    "--out", str(tmp_path / "out.txt"))
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err and "'abc'" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestShippedPresets:
    @pytest.mark.parametrize("name,rows", [("table1", 12), ("table2", 7), ("table3", 7)])
    def test_rows_parse_and_validate(self, name, rows):
        targets = load_preset(name)
        assert len(targets) == rows
        labels = [label for label, _, _ in targets]
        assert len(set(labels)) == len(labels)
        for _, model_spec, config_text in targets:
            model = parse_model(model_spec)
            validate_config(model, parse_config(config_text))

    def test_first_rows_are_plain_arrays(self):
        for name in ("table1", "table2", "table3"):
            label, _, config_text = load_preset(name)[0]
            assert label == "phi"
            assert parse_config(config_text).sub_configs == ()


class TestMfConfig:
    def test_override_runs(self, tmp_path):
        mf = tmp_path / "mf.json"
        mf.write_text(json.dumps({
            "w_max": 0.8,
            "inputs": {"ncf": {"low": [0, 0, 40], "medium": [20, 50, 80], "high": [40, 100, 100]}},
        }))
        out = tmp_path / "suite.txt"
        code = run_cli("generate", "--model", "3^3", "--t", "2", "--mf-config", str(mf),
                       "--out", str(out))
        assert code == EXIT_OK
        assert run_cli("verify", str(out)) == EXIT_OK

    def test_malformed_json_exits_2(self, tmp_path):
        mf = tmp_path / "mf.json"
        mf.write_text("{not json")
        assert run_cli("generate", "--model", "3^3", "--t", "2", "--mf-config", str(mf),
                       "--out", str(tmp_path / "s.txt")) == EXIT_USAGE

    @pytest.mark.parametrize("payload,bad_key", [
        ([1, 2, 3], "top level"),
        ({"output": {"low": [0, 50]}}, "output.low"),
        ({"inputs": {"ncf": [[0, 0, 50]]}}, "inputs.ncf"),
        ({"w_max": [0.9]}, "w_max"),
    ], ids=["top-level-list", "two-point-triangle", "list-valued-family", "list-valued-bound"])
    def test_mis_shaped_json_exits_2(self, tmp_path, capsys, payload, bad_key):
        mf = tmp_path / "mf.json"
        mf.write_text(json.dumps(payload))
        assert run_cli("generate", "--model", "3^3", "--t", "2", "--mf-config", str(mf),
                       "--out", str(tmp_path / "s.txt")) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and bad_key in err

    def test_zero_width_output_set_exits_2(self, tmp_path, capsys):
        # A set with no width has no area for the centroid to weigh.
        mf = tmp_path / "mf.json"
        mf.write_text(json.dumps({"output": {"low": [0, 0, 50], "high": [60, 60, 60]}}))
        out = tmp_path / "s.txt"
        assert run_cli("generate", "--model", "3^4", "--t", "2", "--seed", "1",
                       "--mf-config", str(mf), "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'high' has zero width" in err
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("generate", "--model", "3^3", "--t", "2",
                       "--mf-config", str(tmp_path / "absent.json"),
                       "--out", str(tmp_path / "s.txt")) == EXIT_USAGE

    @pytest.mark.parametrize("variant,payload", [
        ("fpso", '{"w_max": Infinity}'),
        ("fpso", '{"w_min": Infinity, "w_max": Infinity}'),
        ("cpso", '{"w_min": Infinity, "w_max": Infinity}'),
    ], ids=["fpso-w_max", "fpso-both", "cpso-both"])
    def test_non_finite_w_bound_exits_2(self, tmp_path, capsys, variant, payload):
        mf = tmp_path / "mf.json"
        mf.write_text(payload)
        out = tmp_path / "s.txt"
        code = run_cli("generate", "--model", "3^4", "--t", "2", "--variant", variant,
                       "--mf-config", str(mf), "--out", str(out))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "w_max must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "benchmark"])
    def test_mis_shaped_json_exits_2_under_cpso(self, tmp_path, capsys, command):
        # cpso never builds a controller, so the file must be checked up front.
        mf = tmp_path / "mf.json"
        mf.write_text("[]")
        out = tmp_path / "out.txt"
        code = run_cli(command, "--model", "3^4", "--t", "2", "--variant", "cpso",
                       "--mf-config", str(mf), "--out", str(out))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "top level" in err
        assert not out.exists()


class TestLogging:
    def test_trace_env_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VSCIT_LOG", "trace")
        out = tmp_path / "suite.txt"
        assert run_cli("generate", "--model", "2^3", "--t", "2", "--out", str(out)) == EXIT_OK

    @pytest.mark.parametrize("value", ["debug", "tracee"])
    def test_unknown_level_exits_2(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("VSCIT_LOG", value)
        out = tmp_path / "suite.txt"
        assert run_cli("generate", "--model", "2^3", "--t", "2", "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "off, info, trace" in err and value in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("value", ["", " Off "])
    def test_empty_or_off_level_runs_quietly(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("VSCIT_LOG", value)
        assert run_cli("generate", "--model", "2^3", "--t", "2",
                       "--out", str(tmp_path / "suite.txt")) == EXIT_OK

    def test_trace_reaches_a_handler_installed_before_main(self, tmp_path, monkeypatch,
                                                          caplog):
        # A host that configured logging first: basicConfig would do nothing here.
        monkeypatch.setattr(logging.root, "handlers", [*logging.root.handlers,
                                                      logging.NullHandler()])
        monkeypatch.setenv("VSCIT_LOG", "trace")
        assert run_cli("generate", "--model", "2^3", "--t", "2",
                       "--out", str(tmp_path / "suite.txt")) == EXIT_OK
        assert logging.getLogger("vscit").getEffectiveLevel() == logging.DEBUG
        trace = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert trace and all(line.startswith("test=") for line in trace)

    def test_repeated_runs_add_one_handler(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(logging.root, "handlers", [])
        monkeypatch.setenv("VSCIT_LOG", "info")
        for _ in range(2):
            assert run_cli("generate", "--model", "2^2", "--t", "2",
                           "--out", str(tmp_path / "suite.txt")) == EXIT_OK
        assert len(logging.getLogger("vscit").handlers) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 8 and all(line.startswith("INFO vscit: {") for line in err)

    def test_exit_code_constants(self):
        assert (EXIT_OK, EXIT_SHORTFALL, EXIT_USAGE, EXIT_INTERNAL) == (0, 1, 2, 3)


class TestInternalFailurePath:
    def test_consistency_error_exits_3(self, tmp_path, monkeypatch, capsys):
        from vscit import cli
        from vscit.pso import InternalCoverageError

        def explode(*args, **kwargs):
            raise InternalCoverageError("suite misses 1 of 90 required tuples")

        monkeypatch.setattr(cli, "generate_suite", explode)
        code = run_cli("generate", "--model", "3^3", "--t", "2",
                       "--out", str(tmp_path / "s.txt"))
        assert code == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err


class TestInstalledEntryPoints:
    def test_module_invocation(self, tmp_path):
        import os
        import subprocess
        import sys

        import vscit

        # The child imports the vscit this process imported, installed or not.
        src = os.path.dirname(os.path.dirname(vscit.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = tmp_path / "suite.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "vscit", "generate", "--model", "2^2", "--t", "2",
             "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == EXIT_OK
        assert "size=4" in proc.stdout
