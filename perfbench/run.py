"""vscit benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

With ``--trace 0`` a run measures the end-to-end metrics, untraced: the
fresh-interpreter set-up time, then operations with seeds N, N+1, ... until
both the workload's minimum count is done and S seconds have passed. With
``--trace 1`` it runs seed N once untraced and once with spans recorded
around the public functions ``vscit.pso`` and ``vscit.cli`` call, and
reports the per-layer metrics. Either way every operation's output is
checked by the benchmark's own recount, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every benchmarked workload, one child
process at a time, both ways, and prints one table.

Times that a metric reports are scaled to the host's reference speed (see
``hostspeed.py``), which keeps them steady on a host whose speed drifts;
span times are not. The unscaled medians are printed on a ``timing`` line.

vscit is imported from ``src/`` next to this directory and nowhere else;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported here or in any child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
from spans import Spans, Tracer  # noqa: E402
from workloads import BENCHMARKED, MIN_OPS, WORKLOADS, Runner, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
FINGERPRINTS = HERE / "fingerprints.json"
SETUP_REPEATS = 9

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "size_mean": "count",
    "size_best": "count",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "fis.infer_s": "s",
    "fis.calls": "count",
    "fis.triples": "count",
    "fis.fired_frac": "ratio",
    "pso.move_s": "s",
    "pso.moves": "count",
    "pso.search_s": "s",
    "pso.search_self_s": "s",
    "pso.tests": "count",
    "pso.iterations": "count",
    "pso.iters_per_test": "count",
    "pso.early_stop_frac": "ratio",
    "pso.evals": "count",
    "tuples.build_s": "s",
    "tuples.required": "count",
    "tuples.update_s": "s",
    "tuples.update_calls": "count",
    "tuples.removed": "count",
    "verify.oracle_s": "s",
    "verify.required": "count",
    "verify.covered": "count",
    "verify.read_s": "s",
    "cli.verify_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.top_frac": "ratio",
}


class MissingProgram(Exception):
    """The checkout has no importable vscit under src/."""


def load_vscit():
    sys.path.insert(0, str(SRC))
    try:
        import vscit
        import vscit.cli
    except ImportError as exc:
        raise MissingProgram(f"cannot import vscit from {SRC}: {exc}") from None
    if not Path(vscit.__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"vscit came from {vscit.__file__}, not from {SRC}")
    return vscit


def environment(vscit) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "vscit": vscit.__version__,
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def setup_seconds(workload: Workload) -> tuple[float, float]:
    """Fresh-interpreter set-up time: (median scaled to the reference speed, median wall).

    The clock stops when the probe reports that it is ready; the probe then
    times the reference kernel in its own process, on the host it ran on.
    """
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
            workload.model, workload.config, workload.variant]
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as probe:
            ready = probe.stdout.readline()
            wall = time.perf_counter() - start
            reference = probe.stdout.read()
        if probe.returncode or ready != "ready\n":
            raise subprocess.CalledProcessError(probe.returncode, argv)
        walls.append(wall)
        scaled.append(hostspeed.scaled(wall, float(reference)))
    return statistics.median(scaled), statistics.median(walls)


def warm_up(vscit, workload: Workload, scratch: Path) -> None:
    """Let imports, numpy dispatch and allocator pools settle before timing."""
    smoke = WORKLOADS["smoke-verify" if workload.variant == "verify" else "smoke"]
    Runner(vscit, smoke, scratch).run(0)


def load_fingerprints() -> dict:
    return json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}


def fingerprint_line(workload: Workload, op, baseline: dict) -> str:
    known = baseline.get(workload.name, {}).get(str(op.seed))
    if known is None:
        verdict = "no-baseline"
    elif known == {"size": op.size, "sha256": op.digest}:
        verdict = "match"
    else:
        verdict = f"DIFFERS (baseline size={known['size']} sha256={known['sha256'][:16]})"
    return (f"fingerprint {workload.name} seed={op.seed} size={op.size} sha256={op.digest[:16]} "
            f"{verdict} seconds={op.seconds:.3f}")


def report_problems(workload: Workload, ops) -> int:
    failed = 0
    for op in ops:
        for problem in op.problems:
            print(f"FAILED {workload.name} seed={op.seed}: {problem}", file=sys.stderr)
        failed += bool(op.problems)
    return failed


def measure_untraced(vscit, workload: Workload, seed: int, seconds: float, scratch: Path) -> dict:
    setup_s, setup_wall_s = setup_seconds(workload)
    runner = Runner(vscit, workload, scratch)
    warm_up(vscit, workload, scratch)
    ops, scaled, references = [], [], []
    before = hostspeed.reference_seconds()
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        op = runner.run(seed + len(ops))
        after = hostspeed.reference_seconds()
        ops.append(op)
        references.append((before + after) / 2)
        scaled.append(hostspeed.scaled(op.seconds, references[-1]))
        before = after
    # An operation that raised has no time and no suite; it counts only in ok_frac.
    timed = [i for i, op in enumerate(ops) if not math.isnan(op.seconds)]
    sizes = [op.size for op in ops[:MIN_OPS] if not math.isnan(op.seconds)]
    failed = report_problems(workload, ops)
    metrics = {
        "run_s": _median([scaled[i] for i in timed]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "size_mean": statistics.fmean(sizes) if sizes else math.nan,
        "size_best": min(sizes, default=math.nan),
        "ok_frac": (len(ops) - failed) / len(ops),
    }
    timing = {
        "run_wall_s": _median([ops[i].seconds for i in timed]),
        "setup_wall_s": setup_wall_s,
        "reference_s": statistics.median(references),
    }
    return {"ops": ops, "failed": failed, "metrics": metrics, "timing": timing}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def install_spans(tracer: Tracer, vscit) -> None:
    """Spans at the boundaries of the layers vscit.pso and vscit.cli call into."""
    totals = tracer.totals

    def on_build(_, args, store):
        totals["tuples.required"] += store.remaining_count

    def on_update(_, args, removed):
        totals["tuples.removed"] += int(removed)

    def on_verify(_, args, report):
        totals["verify.required"] += report.required
        totals["verify.covered"] += report.covered

    def on_infer(_, args, result):
        totals["fis.triples"] += len(args[1])
        if isinstance(result, tuple):
            selection = np.asarray(result[1])
            totals["fis.selections"] += selection.size
            totals["fis.fired"] += int(np.count_nonzero(~np.isnan(selection)))

    pso, cli = vscit.pso, vscit.cli
    tracer.span(pso, "build_tuple_store", "tuples.build", on_build)
    tracer.span(pso, "remove_covered", "tuples.update", on_update)
    tracer.span(pso, "coverage_count", "tuples.count")
    tracer.span(pso, "generate_one_test", "pso.search")
    tracer.span(pso, "velocity_update", "pso.move")
    tracer.span(pso, "position_update", "pso.move")
    tracer.count(pso, "compute_ncf", "pso.iterations")
    tracer.span(pso, "verify_suite", "verify.oracle", on_verify)
    tracer.span(vscit.fis.FisController, "infer_w_batch", "fis.infer", on_infer)
    tracer.span(cli, "cmd_verify", "cli.verify")
    tracer.span(cli, "read_suite", "verify.read")
    tracer.span(cli, "verify_suite", "verify.oracle", on_verify)


def layer_metrics(tracer: Tracer, spans: Spans, vscit) -> dict:
    totals = tracer.totals
    defaults = vscit.SwarmParams()
    searches = spans.indices("pso.search")
    per_test = tracer.counts["pso.iterations"]
    tests = len(searches)
    iterations = sum(per_test.values())
    early = sum(per_test.get(int(i), 0) < defaults.max_iterations for i in searches)
    return {
        "fis.infer_s": spans.total_s("fis.infer"),
        "fis.calls": len(spans.indices("fis.infer")),
        "fis.triples": totals["fis.triples"],
        "fis.fired_frac": totals["fis.fired"] / totals["fis.selections"] if totals["fis.selections"] else 0.0,
        "pso.move_s": spans.total_s("pso.move"),
        "pso.moves": len(spans.indices("pso.move")),
        "pso.search_s": spans.total_s("pso.search"),
        "pso.search_self_s": spans.self_s("pso.search"),
        "pso.tests": tests,
        "pso.iterations": iterations,
        "pso.iters_per_test": iterations / tests if tests else 0.0,
        "pso.early_stop_frac": early / tests if tests else 0.0,
        "pso.evals": (iterations + tests) * defaults.swarm_size,
        "tuples.build_s": spans.total_s("tuples.build"),
        "tuples.required": totals["tuples.required"],
        "tuples.update_s": spans.total_s("tuples.update"),
        "tuples.update_calls": len(spans.indices("tuples.update")),
        "tuples.removed": totals["tuples.removed"],
        "verify.oracle_s": spans.total_s("verify.oracle"),
        "verify.required": totals["verify.required"],
        "verify.covered": totals["verify.covered"],
        "verify.read_s": spans.total_s("verify.read"),
        "cli.verify_s": spans.total_s("cli.verify"),
    }


def layer_problems(workload: Workload, tracer: Tracer, metrics: dict) -> list[str]:
    """Invariants of one traced generate operation, checked where both sides are traced.

    A complete suite removes every tuple the store was built with, and the
    cpso variant never consults the fuzzy controller.
    """
    problems = []
    traced_store = {"tuples.build", "tuples.update"} <= set(tracer.names)
    if workload.variant != "verify" and traced_store and metrics["tuples.removed"] != metrics["tuples.required"]:
        problems.append(f"the store removed {metrics['tuples.removed']} tuples "
                        f"of {metrics['tuples.required']} required")
    if workload.variant == "cpso" and metrics["fis.calls"]:
        problems.append(f"cpso called the fuzzy controller {metrics['fis.calls']} times")
    return problems


def measure_traced(vscit, workload: Workload, seed: int, scratch: Path) -> dict:
    """One untraced and one traced operation on the same seed; per-layer metrics."""
    runner = Runner(vscit, workload, scratch)
    warm_up(vscit, workload, scratch)
    before = hostspeed.reference_seconds()
    plain = runner.run(seed)
    between = hostspeed.reference_seconds()
    tracer = Tracer()
    install_spans(tracer, vscit)
    try:
        traced = runner.run(seed)
    finally:
        tracer.uninstall()
    after = hostspeed.reference_seconds()
    plain_s = hostspeed.scaled(plain.seconds, (before + between) / 2)
    traced_s = hostspeed.scaled(traced.seconds, (between + after) / 2)
    if traced.digest != plain.digest:
        traced.problems.append("traced output differs from the untraced output of the same seed")
    for absent in tracer.absent:
        print(f"absent: {absent} (its layer's metrics read 0)")
    tracer.save(OUT / f"spans-{workload.name}-seed{seed}.npz")
    spans = Spans(tracer)
    metrics = layer_metrics(tracer, spans, vscit)
    metrics["trace.run_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.top_frac"] = spans.top_level_s() / traced.seconds
    traced.problems += layer_problems(workload, tracer, metrics)
    ops = [plain, traced]
    return {"ops": ops, "failed": report_problems(workload, ops), "metrics": metrics}


def measure(vscit, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if trace:
            return measure_traced(vscit, workload, seed, Path(tmp))
        return measure_untraced(vscit, workload, seed, seconds, Path(tmp))


def result_line(measured: dict, units: dict) -> dict:
    return {
        "correct": measured["failed"] == 0,
        "attempted": len(measured["ops"]),
        "failed": measured["failed"],
        "metrics": {name: {"value": measured["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def run_one(args) -> int:
    vscit = load_vscit()
    workload = WORKLOADS[args.workload]
    measured = measure(vscit, workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(environment(vscit), sort_keys=True))
    if "timing" in measured:
        print("timing " + json.dumps(measured["timing"], sort_keys=True))
    baseline = load_fingerprints()
    for op in measured["ops"]:
        print(fingerprint_line(workload, op, baseline))
    result = result_line(measured, PER_LAYER if args.trace else END_TO_END)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every benchmarked workload in its own child process, one at a time."""
    load_vscit()
    rows = {}
    status = 0
    for name in BENCHMARKED:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                    str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            for line in lines[:-1]:
                print(f"[{name} trace={trace}] {line}")
            if done.returncode != 0 or not lines:
                print(f"[{name} trace={trace}] exited with code {done.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            row = rows.setdefault(name, {})
            row.update({metric: v["value"] for metric, v in result["metrics"].items()})
            if not trace:
                row["fail_frac"] = result["failed"] / result["attempted"]
    units = {**END_TO_END, "fail_frac": "ratio", **PER_LAYER}
    print(f"{'metric':<22} {'unit':<6} " + " ".join(f"{name:>14}" for name in rows))
    for metric, unit in units.items():
        cells = " ".join(f"{_fmt(rows[name].get(metric)):>14}" for name in rows)
        print(f"{metric:<22} {unit:<6} {cells}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-seed{args.seed}.json").write_text(json.dumps(rows, indent=1, sort_keys=True))
    print(json.dumps({"correct": status == 0, "workloads": rows}))
    return status


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
