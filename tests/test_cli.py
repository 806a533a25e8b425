"""Command-line behavior: flows, formats, exit codes, presets."""

import csv
import dataclasses
import json
import logging
import math
import warnings
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import vscit.cli as cli
import vscit.pso as pso
from vscit.cli import EXIT_INTERNAL, EXIT_OK, EXIT_SHORTFALL, EXIT_USAGE, load_preset, main
from vscit.model import ParseError, SutModel, VscaConfig, parse_model, validate_config
from vscit.pso import InternalCoverageError, SwarmParams, generate_suite
from vscit.verify import read_suite, verify_suite

from conftest import NOT_INTEGER_TEXT


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

    @pytest.mark.parametrize("value", ["0,1:2; sub=1,2,3:3", "0,1:2;"],
                             ids=["second-sub", "trailing-semicolon"])
    def test_one_sub_flag_is_one_sub_config(self, tmp_path, capsys, value):
        code = run_cli("generate", "--model", "3^4", "--t", "2", "--sub", value,
                       "--out", str(tmp_path / "s.txt"))
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: bad sub-config {'sub=' + value!r}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

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

    def test_a_demand_past_the_store_bound_exits_2_before_enumerating(self, tmp_path, capsys):
        # C(100, 50) combinations: the closed-form count refuses them without listing one.
        assert run_cli("generate", "--model", "2^100", "--t", "50",
                       "--out", str(tmp_path / "s.txt")) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {math.comb(100, 50) * 2**50} required tuples; ")
        assert list(tmp_path.iterdir()) == []

    def test_a_swarm_the_host_cannot_allocate_exits_2(self, tmp_path, capsys):
        # 10**15 particles of 4 floats is 28.4 PiB, beyond any user address
        # space, so numpy refuses the first position block at once.
        out = tmp_path / "s.txt"
        assert run_cli("generate", "--model", "3^4", "--t", "2",
                       "--swarm-size", str(10**15), "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: out of memory: Unable to allocate")
        assert not out.exists()

    def test_output_directory_missing_exits_2(self, tmp_path, capsys, monkeypatch):
        # Exit 1 means a coverage shortfall, so a file error must not end there;
        # and the path is refused before any search runs.
        calls = []
        monkeypatch.setattr(cli, "generate_suite", lambda *args: calls.append(args))
        code = run_cli("generate", "--model", "3^4", "--t", "2",
                       "--out", str(tmp_path / "nodir" / "x.txt"))
        captured = capsys.readouterr()
        assert (code, calls, captured.out) == (EXIT_USAGE, [], "")
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("earlier", [{}, {"x.txt": b"# an earlier suite\n",
                                              "x.txt.log": b'{"iterations": 1}\n'}],
                             ids=["no-files", "existing-files"])
    def test_failed_run_leaves_the_directory_as_it_was(self, tmp_path, monkeypatch, earlier):
        def refuse(*args):
            raise MemoryError

        for name, data in earlier.items():
            (tmp_path / name).write_bytes(data)
        monkeypatch.setattr(cli, "generate_suite", refuse)
        assert run_cli("generate", "--model", "3^4", "--t", "2",
                       "--out", str(tmp_path / "x.txt")) == EXIT_USAGE
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == earlier

    def test_redundant_sub_warns_once(self, tmp_path, capsys):
        # One "warning:" line on stderr, not Python's format with a source path,
        # for a single run, a campaign of two and the oracle on the suite written.
        # generate runs under "always", which main keeps, so a second emission
        # would show; benchmark's two runs rely on the default once-per-line.
        out = tmp_path / "s.txt"
        target = ["--model", "3^4", "--t", "2", "--sub", "0,1:2"]
        for argv in (["generate", *target, "--out", str(out)],
                     ["benchmark", *target, "--runs", "2", "--out", str(tmp_path / "b.csv")],
                     ["verify", str(out)]):
            with warnings.catch_warnings():
                if argv[0] == "generate":
                    warnings.simplefilter("always")
                assert run_cli(*argv) == EXIT_OK
            err = capsys.readouterr().err
            assert err == ("warning: sub-config (0, 1) at strength 2 is redundant: "
                           "main strength 2 already implies its coverage\n")
            assert "UserWarning" not in err


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

    def test_repeated_model_header_exits_2(self, tmp_path, capsys):
        # Read with the second header, this suite would verify against 2^3 and fail.
        path = tmp_path / "twice.txt"
        path.write_text("# model: 3^3\n# config: t=2\n# model: 2^3\n0,1,1\n")
        assert run_cli("verify", str(path)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "coverage" not in captured.out
        assert captured.err.startswith("error:") and ":3: repeated '# model:' header" in captured.err

    @pytest.mark.parametrize("text,message", [
        ("# model: 3^x\n# config: t=2\n", ":1: bad model term '3^x'"),
        ("# model: 3^3\n# config: t=x\n0,0,0\n", ":2: bad main strength 'x'"),
        ("# model: \u0663^2 3_0\n# config: t=+2\n", ":1: bad model term '\u0663^2'"),
        # No tuple store could hold the ids of a parameter with 2**52 levels or more.
        ("# model: 99999999999999999999999\n# config: t=1\n36893488147419103232\n",
         ":1: bad model term '99999999999999999999999': value count must be in 1..2**52 - 1"),
    ], ids=["model", "config", "non-ascii-digit", "level-count-past-2-52"])
    def test_bad_header_names_file_and_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        assert run_cli("verify", str(path)) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}{message}\n"

    @pytest.mark.parametrize("text,line_no", [
        ("# model: {}^2 3\n# config: t=2\n", 1),
        ("# model: 3^{} 2\n# config: t=2\n", 1),
        ("# model: 3^3\n# config: t={}\n", 2),
        ("# model: 3^3\n# config: t=1; sub={},0:2\n", 2),
        ("# model: 3^3\n# config: t=1; sub=0,1:{}\n", 2),
    ], ids=["model-value", "model-count", "t", "sub-index", "sub-strength"])
    @pytest.mark.parametrize("field", NOT_INTEGER_TEXT)
    def test_header_integers_take_the_case_value_form(self, tmp_path, capsys, text, line_no,
                                                      field):
        path = tmp_path / "bad.txt"
        path.write_text(text.format(field) + "0,0,0\n", encoding="utf-8")
        assert run_cli("verify", str(path)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}:{line_no}: ")
        assert "Traceback" not in captured.err and "coverage" not in captured.out

    def test_undecodable_suite_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "bytes.txt"
        path.write_bytes(bytes(range(256)))
        assert run_cli("verify", str(path)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {path}:")

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

    def test_csv_path_it_cannot_write_exits_2_before_the_report(self, tmp_path, capsys):
        path = self.generate_suite_file(tmp_path)
        capsys.readouterr()
        assert run_cli("verify", str(path), "--csv",
                       str(tmp_path / "nodir" / "x.csv")) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

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

    def test_a_demand_past_the_bound_exits_2_before_enumerating(self, tmp_path, capsys):
        # C(100, 50) combinations: the configuration check's closed-form count
        # refuses them as the file is read, without listing one.
        path = tmp_path / "huge.txt"
        path.write_text("# model: 2^100\n# config: t=50\n" + ",".join(["0"] * 100) + "\n")
        keep = tmp_path / "keep.csv"
        keep.write_bytes(b"old,csv\n")
        assert run_cli("verify", str(path), "--csv", str(keep)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: {math.comb(100, 50) * 2**50} required tuples; "
                                "the tuple store holds fewer than 2**52\n")
        assert keep.read_bytes() == b"old,csv\n"

    def raise_memory_error(self, suite):
        raise MemoryError("Unable to allocate 256. TiB")

    def test_an_oracle_failure_keeps_an_existing_csv(self, tmp_path, capsys, monkeypatch):
        path = self.generate_suite_file(tmp_path)
        keep = tmp_path / "keep.csv"
        keep.write_bytes(b"old,csv\n")
        monkeypatch.setattr(cli, "verify_suite", self.raise_memory_error)
        assert run_cli("verify", str(path), "--csv", str(keep)) == EXIT_USAGE
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 256. TiB\n"
        assert keep.read_bytes() == b"old,csv\n"

    def test_an_oracle_failure_creates_no_csv(self, tmp_path, monkeypatch):
        path = self.generate_suite_file(tmp_path)
        monkeypatch.setattr(cli, "verify_suite", self.raise_memory_error)
        assert run_cli("verify", str(path), "--csv", str(tmp_path / "new.csv")) == EXIT_USAGE
        assert not (tmp_path / "new.csv").exists()


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

    def test_best_and_mean_of_the_run_sizes(self, tmp_path, monkeypatch, capsys):
        sizes = iter([18, 19, 21])
        monkeypatch.setattr(cli, "generate_suite",
                            lambda *args: SimpleNamespace(suite=[()] * next(sizes)))
        out = tmp_path / "bench.csv"
        assert run_cli("benchmark", "--model", "2^2", "--t", "2", "--runs", "3",
                       "--out", str(out)) == EXIT_OK
        assert [r[2:] for r in self.read_rows(out)[1:]] == [
            ["0", "18"], ["1", "19"], ["2", "21"], ["best", "18"], ["mean", "19.33"]]
        assert capsys.readouterr().out == "2^2 t=2 variant=fpso runs=3 best=18 mean=19.33\n"

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

    @pytest.mark.parametrize("bad_row,message", [
        ("bad | 3^ | t=2", "bad model term '3^'"),
        ("big | 3^4 | t=5", "main strength 5 outside 1..4"),
        ("bad | 3^4 | t=2; sub=0,1", "bad sub-config 'sub=0,1', expected indices:strength"),
        # Only ASCII whitespace is stripped, and only "\n" ends a row.
        ("nbsp | 3^4\xa0 | t=2\xa0", "bad model term '3^4\\xa0'"),
        ("a | 3^4 | t=2\x1cb | 2^3 | t=2",
         "expected 'label | model | config', got 'a | 3^4 | t=2\\x1cb | 2^3 | t=2'"),
        ("huge | 2^100 | t=50",
         f"{math.comb(100, 50) * 2**50} required tuples; the tuple store holds fewer than 2**52"),
    ], ids=["unparsable-model", "strength-above-k", "unparsable-sub-config",
            "no-break-space", "file-separator", "uncountable-demand"])
    def test_bad_preset_row_fails_before_any_run(self, tmp_path, capsys, bad_row, message):
        preset = tmp_path / "p.txt"
        preset.write_text(f"ok | 3^4 | t=2\n{bad_row}\n")
        out = tmp_path / "bench.csv"
        code = run_cli("benchmark", "--preset", str(preset), "--runs", "5", "--out", str(out))
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: preset line 2: {message}\n"
        assert not out.exists()

    def test_sub_label_is_the_parsed_config(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run_cli("benchmark", "--model", "3^4", "--t", "2", "--sub", " 0, 1 ,2:3",
                       "--runs", "1", "--out", str(out)) == EXIT_OK
        assert {r[0] for r in self.read_rows(out)[1:]} == {"3^4 t=2; sub=0,1,2:3"}

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

    def test_preset_with_no_rows_exits_2(self, tmp_path, capsys):
        preset = tmp_path / "p.txt"
        preset.write_text("# label | model | config\n\n  # no row follows\n")
        with pytest.raises(ParseError) as err:
            load_preset(str(preset))
        assert str(err.value) == f"preset {str(preset)!r} has no benchmark rows"
        out = tmp_path / "b.csv"
        assert run_cli("benchmark", "--preset", str(preset), "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {err.value}\n"
        assert not out.exists()

    def test_unknown_preset_exits_2(self, tmp_path):
        assert run_cli("benchmark", "--preset", "nope",
                       "--out", str(tmp_path / "b.csv")) == EXIT_USAGE

    def test_preset_directory_exits_2(self, tmp_path, capsys):
        assert run_cli("benchmark", "--preset", str(tmp_path), "--runs", "1",
                       "--out", str(tmp_path / "b.csv")) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_out_path_it_cannot_write_exits_2_before_any_run(self, tmp_path, monkeypatch,
                                                              capsys):
        runs = []
        monkeypatch.setattr(cli, "generate_suite", lambda *args: runs.append(args))
        assert run_cli("benchmark", "--preset", "table1", "--runs", "2",
                       "--out", str(tmp_path / "nodir" / "t.csv")) == EXIT_USAGE
        assert runs == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    # w_max times a velocity overflows, so the first run raises.
    @pytest.mark.parametrize("earlier", [None, b"keep\n"], ids=["new-path", "existing-file"])
    def test_failed_campaign_leaves_the_out_path_as_it_was(self, tmp_path, capsys, earlier):
        mf = tmp_path / "mf.json"
        mf.write_text(json.dumps({"w_max": 1e308}))
        out = tmp_path / "keep.csv"
        if earlier is not None:
            out.write_bytes(earlier)
        assert run_cli("benchmark", "--model", "3^4", "--t", "2", "--runs", "1",
                       "--mf-config", str(mf), "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: w_max=1e+308 times a velocity")
        if earlier is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == earlier

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


    @pytest.mark.parametrize("argv", [
        ("generate", "--model", "{}^2 3", "--t", "2"),
        ("generate", "--model", "3^{} 2", "--t", "2"),
        ("generate", "--model", "3^3", "--t={}"),
        ("generate", "--model", "3^3", "--t", "1", "--sub", "{},0:2"),
        ("generate", "--model", "3^3", "--t", "1", "--sub", "0,1:{}"),
        ("generate", "--model", "3^3", "--t", "2", "--swarm-size={}"),
        ("generate", "--model", "3^3", "--t", "2", "--iterations={}"),
        ("generate", "--model", "3^3", "--t", "2", "--seed={}"),
        ("generate", "--model", "3^3", "--t", "2", "--patience={}"),
        ("benchmark", "--model", "3^3", "--t", "2", "--runs={}"),
    ], ids=["model-value", "model-count", "t", "sub-index", "sub-strength", "swarm-size",
            "iterations", "seed", "patience", "runs"])
    @pytest.mark.parametrize("field", NOT_INTEGER_TEXT)
    def test_only_the_one_integer_form_is_read(self, tmp_path, capsys, argv, field):
        argv = [arg.format(field) for arg in argv] + ["--out", str(tmp_path / "out.txt")]
        try:
            code = run_cli(*argv)
        except SystemExit as exc:  # argparse refuses a flag's value itself
            code = exc.code
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    # "none" with a no-break space is no more "none" than "5" with one is 5.
    @pytest.mark.parametrize("value", ["abc", "none\xa0"], ids=["word", "none-no-break-space"])
    @pytest.mark.parametrize("command", ["generate", "benchmark"])
    def test_non_integer_patience_exits_2(self, tmp_path, capsys, command, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--model", "3^4", "--t", "2", "--patience", value,
                    "--out", str(tmp_path / "out.txt"))
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err and repr(value) in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestHelp:
    @pytest.mark.parametrize("command", ["generate", "benchmark"])
    def test_help_states_each_variants_budget(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == EXIT_OK
        text = " ".join(capsys.readouterr().out.split())
        for name in ("swarm_size", "patience"):
            stated = ", ".join(f"{d[name] or 'none'} under {v}"
                               for v, d in pso.VARIANT_DEFAULTS.items())
            assert f"(default: {stated})" in text


class TestShippedPresets:
    @pytest.mark.parametrize("name,rows", [("table1", 12), ("table2", 7), ("table3", 7)])
    def test_rows_parse_and_validate(self, name, rows):
        targets = load_preset(name)
        assert len(targets) == rows
        labels = [label for label, _, _ in targets]
        assert len(set(labels)) == len(labels)
        for _, model, config in targets:
            assert isinstance(model, SutModel) and isinstance(config, VscaConfig)
            validate_config(model, config)

    def test_first_rows_are_plain_arrays(self):
        for name in ("table1", "table2", "table3"):
            label, _, config = load_preset(name)[0]
            assert label == "phi"
            assert config.sub_configs == ()


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
        ({"output": []}, "output"),
        ({"inputs": []}, "inputs"),
        ({"inputs": 0}, "inputs"),
        ({"w_mx": 0.5}, "'w_mx'"),
    ], ids=["top-level-list", "two-point-triangle", "list-valued-family", "list-valued-bound",
            "list-valued-output", "list-valued-inputs", "number-valued-inputs",
            "misspelt-top-level-key"])
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

    @pytest.mark.parametrize("payload,message", [
        ({"inputs": {"ncf": {"low": [0, 5e-324, 50], "medium": [25, 50, 75],
                             "high": [50, 100, 100]}}},
         "inputs.ncf.low: rising side of (0, 5e-324, 50) is too narrow: "
         "width 5e-324 makes 100 / width overflow"),
        ({"output": {"low": [0, 0, 1e-320], "high": [50, 100, 100]}},
         "output.low: falling side of (0, 0, 1e-320) is too narrow: "
         "width 1e-320 makes 100 / width overflow"),
    ], ids=["subnormal-rising-input-side", "subnormal-falling-output-side"])
    def test_side_too_narrow_to_divide_by_exits_2(self, tmp_path, capsys, payload, message):
        # 100 / width overflows, so the degrees would be inf where the side rises.
        mf = tmp_path / "mf.json"
        mf.write_text(json.dumps(payload))
        out = tmp_path / "s.txt"
        assert run_cli("generate", "--model", "3^4", "--t", "2", "--swarm-size", "4",
                       "--iterations", "5", "--mf-config", str(mf), "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert "RuntimeWarning" not in err and not out.exists()

    @pytest.mark.parametrize("payload,message", [
        ({"inputs": {"ncf": {}}}, "rule term (ncf, low) has no membership function"),
        ({"output": {}}, "rule consequent 'low' has no membership function"),
    ], ids=["empty-input-family", "empty-output-family"])
    def test_empty_family_exits_2(self, tmp_path, capsys, payload, message):
        # A family given replaces the default whole, so an empty one names no label.
        mf = tmp_path / "mf.json"
        mf.write_text(json.dumps(payload))
        out = tmp_path / "s.txt"
        assert run_cli("generate", "--model", "3^3", "--t", "2", "--mf-config", str(mf),
                       "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
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

    @pytest.mark.parametrize("name", ["w_max", "w_min"])
    def test_integer_bound_past_the_float_range_exits_2(self, tmp_path, capsys, name):
        mf = tmp_path / "mf.json"
        mf.write_text(f'{{"{name}": 1{"0" * 400}}}')
        out = tmp_path / "s.txt"
        assert run_cli("generate", "--model", "3^3", "--t", "2", "--mf-config", str(mf),
                       "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {name} is an integer too large for a float\n"
        assert not out.exists()

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        mf = tmp_path / "mf.json"
        mf.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "s.txt"
        assert run_cli("generate", "--model", "3^3", "--t", "2", "--mf-config", str(mf),
                       "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load --mf-config {str(mf)!r}: maximum recursion")
        assert not out.exists()

    # A run whose suite changes when the controller enters it at w_min.
    CAMPAIGN = ["--model", "3^4", "--t", "2", "--swarm-size", "10", "--iterations", "20",
                "--patience", "none"]

    def test_benchmark_builds_one_controller(self, tmp_path, monkeypatch):
        mf = tmp_path / "mf.json"
        mf.write_text(json.dumps({"output": {"low": [0, 10, 60], "high": [40, 90, 100]}}))
        built = []
        build = cli.controller_from_config
        monkeypatch.setattr(cli, "controller_from_config",
                            lambda cfg: built.append(cfg) or build(cfg))
        assert run_cli("benchmark", *self.CAMPAIGN, "--runs", "3", "--seed", "39",
                       "--mf-config", str(mf), "--out", str(tmp_path / "b.csv")) == EXIT_OK
        assert len(built) == 1

    def test_benchmark_sizes_are_those_of_single_runs(self, tmp_path):
        mf = tmp_path / "mf.json"
        mf.write_text(json.dumps({"w_max": 0.8, "output": {"low": [0, 10, 60],
                                                           "high": [40, 90, 100]}}))
        bench = tmp_path / "b.csv"
        assert run_cli("benchmark", *self.CAMPAIGN, "--runs", "3", "--seed", "38",
                       "--mf-config", str(mf), "--out", str(bench)) == EXIT_OK
        with open(bench) as fh:
            sizes = [int(row[3]) for row in list(csv.reader(fh))[1:4]]
        single = []
        for seed in (38, 39, 40):
            out = tmp_path / f"s{seed}.txt"
            assert run_cli("generate", *self.CAMPAIGN, "--seed", str(seed),
                           "--mf-config", str(mf), "--out", str(out)) == EXIT_OK
            single.append(len(read_suite(out)))
        assert sizes == single


# Documents for the --mf-config property test.
def mostly(likely, other):
    """Draws from likely nine times in ten, so that some documents pass every check."""
    return st.integers(0, 9).flatmap(lambda draw: likely if draw else other)


JSON_SCALARS = st.none() | st.booleans() | st.text(max_size=4)
BOUNDS = mostly(st.floats(0.1, 1),
                st.integers() | st.sampled_from([10**400, -10**400]) | st.floats()
                | JSON_SCALARS | st.lists(st.integers(), max_size=2)
                | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
# Any float in [0, 100], subnormals included. The ends and two subnormals are
# drawn often, so that some sides are too narrow to divide by: uniform draws
# almost never give two breakpoints that close.
BREAKPOINTS = (st.floats(0, 100, allow_subnormal=True)
               | st.sampled_from([0.0, 5e-324, 1e-320, 100.0]))
POINTS = (BREAKPOINTS | st.floats() | st.integers(-1, 101) | st.just(10**400) | JSON_SCALARS
          | st.lists(st.integers(), max_size=1))
TRIANGLES = mostly(st.lists(BREAKPOINTS, min_size=3, max_size=3).map(sorted),
                   st.lists(POINTS, max_size=4) | POINTS)
FAMILIES = mostly(st.fixed_dictionaries({"low": TRIANGLES, "medium": TRIANGLES,
                                         "high": TRIANGLES})
                  | st.dictionaries(st.sampled_from(["low", "medium", "high", "top"]), TRIANGLES,
                                    max_size=4),
                  st.lists(TRIANGLES, max_size=2) | JSON_SCALARS | st.integers())
INPUTS = mostly(st.dictionaries(st.sampled_from(["ncf", "d1", "d2", "speed"]), FAMILIES,
                                max_size=3),
                st.lists(FAMILIES, max_size=2) | JSON_SCALARS | st.integers())
DOCUMENTS = mostly(st.fixed_dictionaries({}, optional={"w_max": BOUNDS, "w_min": BOUNDS,
                                                       "inputs": INPUTS, "output": FAMILIES}),
                   st.lists(BOUNDS, max_size=2) | BOUNDS)


@given(DOCUMENTS)
@example({"w_max": 10**400})
@example({"w_max": 1.7976931348623157e308})  # w_max times a velocity would overflow
@example({"output": {"low": [0, 0, 1e-320], "high": [50, 100, 100]}})  # 100 / width overflows
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_controller_file_runs_or_exits_2(tmp_path, document):
    # Every file the tmp_path holds is rewritten by each example.
    mf = tmp_path / "mf.json"
    mf.write_text(json.dumps(document))
    code = run_cli("generate", "--model", "3^3", "--t", "2", "--swarm-size", "3",
                   "--iterations", "4", "--mf-config", str(mf), "--out", str(tmp_path / "s.txt"))
    assert code in (EXIT_OK, EXIT_USAGE)


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
        # fpso's default 240 particles start on a covering case of every test
        # here, so no search would iterate; 80 leave some searching.
        assert run_cli("generate", "--model", "2^3", "--t", "2", "--swarm-size", "80",
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

    def test_a_suite_the_oracle_finds_short_exits_3_and_writes_nothing(self, tmp_path,
                                                                        monkeypatch, capsys):
        def short(suite):
            report = verify_suite(suite)
            return dataclasses.replace(report, covered=report.covered - 1,
                                       missing=(((0, 1), (0, 0)),))

        monkeypatch.setattr(pso, "verify_suite", short)
        with pytest.raises(InternalCoverageError) as err:
            generate_suite(parse_model("3^3"), VscaConfig(2), SwarmParams())
        assert str(err.value) == "suite misses 1 of 27 required tuples"
        out = tmp_path / "s.txt"
        assert run_cli("generate", "--model", "3^3", "--t", "2",
                       "--out", str(out)) == EXIT_INTERNAL
        assert capsys.readouterr().err == "internal error: suite misses 1 of 27 required tuples\n"
        assert list(tmp_path.iterdir()) == []


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
