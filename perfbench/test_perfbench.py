"""The benchmark's own tests; seconds long.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import check
import run
from spans import Spans, Tracer
from workloads import BENCHMARKED, MIN_OPS, WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_metrics_printed():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, WORKLOADS[name].why) for name in BENCHMARKED]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", ["smoke", "smoke-verify"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_a_suite_missing_one_case_counts_as_failed(monkeypatch, vscit):
    write_suite = vscit.write_suite

    def drop_last_case(suite, path):
        write_suite(suite, path)
        lines = Path(path).read_text().splitlines(keepends=True)
        Path(path).write_text("".join(lines[:-1]))

    monkeypatch.setattr(vscit, "write_suite", drop_last_case)
    measured = run.measure(vscit, WORKLOADS["smoke"], seed=0, seconds=0, trace=False)
    # Every accepted case covered something new, so the last one is never redundant.
    assert measured["failed"] == len(measured["ops"]) == MIN_OPS
    assert measured["metrics"]["ok_frac"] == 0
    assert run.result_line(measured, run.END_TO_END)["correct"] is False


def test_an_operation_that_raises_counts_as_failed(monkeypatch, vscit, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("search gave up")

    monkeypatch.setattr(vscit, "generate_suite", broken)
    measured = run.measure(vscit, WORKLOADS["smoke"], seed=0, seconds=0, trace=False)
    assert measured["failed"] == len(measured["ops"]) == MIN_OPS
    assert measured["metrics"]["ok_frac"] == 0
    assert "raised RuntimeError: search gave up" in capsys.readouterr().err
    result = run.result_line(measured, run.END_TO_END)
    assert result["correct"] is False and set(result["metrics"]) == set(run.END_TO_END)


def test_a_store_that_misses_a_removal_fails_the_traced_run(monkeypatch, vscit):
    remove_covered = vscit.pso.remove_covered

    def undercounted(*args, **kwargs):
        return remove_covered(*args, **kwargs) - 1

    monkeypatch.setattr(vscit.pso, "remove_covered", undercounted)
    measured = run.measure(vscit, WORKLOADS["smoke"], seed=0, seconds=0, trace=True)
    plain, traced = measured["ops"]
    assert not plain.problems
    assert any("the store removed" in p for p in traced.problems)
    assert measured["failed"] == 1


def test_a_wrong_oracle_report_counts_as_failed(monkeypatch, vscit):
    verify_suite = vscit.cli.verify_suite

    def overstated(suite):
        report = verify_suite(suite)
        return type(report)(report.required, report.required, ())

    monkeypatch.setattr(vscit.cli, "verify_suite", overstated)
    measured = run.measure(vscit, WORKLOADS["smoke-verify"], seed=0, seconds=0, trace=False)
    assert measured["failed"] == len(measured["ops"])


def _brute_force(levels, main, subs, cases):
    required = set()
    for combo in check.required_combinations(len(levels), main, subs):
        required.update((combo, vals) for vals in itertools.product(*(range(levels[i]) for i in combo)))
    covered = {(combo, tuple(case[i] for i in combo)) for combo, _ in required for case in cases}
    return len(required), len(required & covered)


@pytest.mark.parametrize("seed", range(5))
def test_recount_agrees_with_brute_force(seed):
    rng = np.random.default_rng(seed)
    levels = [2, 3, 3, 4, 2, 3]
    subs = [((0, 1, 2), 3), ((2, 3, 4, 5), 4), ((1, 3, 5), 3)]
    cases = rng.integers(0, levels, size=(int(rng.integers(1, 40)), len(levels)))
    assert check.recount(levels, 2, subs, cases) == _brute_force(levels, 2, subs, cases.tolist())


def test_check_rejects_wrong_headers_and_values():
    text = "# model: 2^3\n# config: t=2\n0,0,0\n1,1,1\n0,1,1\n1,0,1\n1,1,0\n"
    assert check.check_suite_text(text, "2^3", "t=2") == ([], 5)
    problems, _ = check.check_suite_text(text.replace("t=2", "t=3"), "2^3", "t=2")
    assert any("config header" in p for p in problems)
    problems, _ = check.check_suite_text(text.replace("1,1,0", "1,2,0"), "2^3", "t=2")
    assert problems == ["a case value is outside its parameter's levels"]


def test_tracer_reports_missing_names_and_self_time():
    layer = types.SimpleNamespace(inner=lambda: None)
    layer.outer = lambda: layer.inner()
    original = layer.outer
    tracer = Tracer()
    tracer.span(layer, "outer", "outer")
    tracer.span(layer, "inner", "inner")
    tracer.span(layer, "deleted_name", "gone")
    assert tracer.absent == ["SimpleNamespace.deleted_name"]
    try:
        layer.outer()
    finally:
        tracer.uninstall()
    assert layer.outer is original
    spans = Spans(tracer)
    assert len(spans.indices("outer")) == len(spans.indices("inner")) == 1
    assert spans.indices("gone").size == 0
    assert spans.self_s("outer") == pytest.approx(spans.total_s("outer") - spans.total_s("inner"))
    assert spans.top_level_s() == spans.total_s("outer")


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture
def vscit():
    return run.load_vscit()
