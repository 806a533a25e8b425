"""Command-line harness: seeded single runs, benchmark campaigns, verification.

Exit codes: 0 success / full coverage, 1 coverage shortfall, 2 usage,
parse or file error, 3 internal consistency failure. The VSCIT_LOG environment
variable (off, info, trace) sets the level of the ``vscit`` logger, which
writes to stderr unless a handler the caller installed already receives its
records; unset or empty, it leaves logging as the caller configured it.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import replace
from importlib import resources

from .fis import controller_from_config
from .model import ParseError, SutModel, VscaConfig, check_config, parse_config, parse_model
from .pso import (
    DEFAULT_PATIENCE,
    VARIANT_DEFAULT,
    VARIANTS,
    InternalCoverageError,
    RunResult,
    SwarmParams,
    generate_suite,
)
from .verify import (
    read_suite,
    render_report_csv,
    render_report_text,
    suite_stats,
    verify_suite,
    write_suite,
)

LOG_ENV = "VSCIT_LOG"

EXIT_OK = 0
EXIT_SHORTFALL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

Target = tuple[str, str, str]  # (label, model spec, config text)
ParsedTarget = tuple[str, SutModel, VscaConfig]  # (label, model, checked config)


def load_preset(name_or_path: str) -> list[Target]:
    """Rows of a preset file: "label | model | config", '#' starts a comment.

    Accepts a shipped preset name ("table1", "table2", "table3") or a path.
    """
    if os.path.exists(name_or_path):
        with open(name_or_path) as fh:
            text = fh.read()
    else:
        res = resources.files("vscit").joinpath(f"presets/{name_or_path}.txt")
        if not res.is_file():
            raise ParseError(f"unknown preset {name_or_path!r} (and no such file)")
        text = res.read_text()
    targets: list[Target] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3 or not all(parts):
            raise ParseError(
                f"preset line {line_no}: expected 'label | model | config', got {raw!r}"
            )
        targets.append((parts[0], parts[1], parts[2]))
    if not targets:
        raise ParseError(f"preset {name_or_path!r} has no benchmark rows")
    return targets


def _parse_targets(targets: list[Target]) -> list[ParsedTarget]:
    """Parse and check every target up front, so a bad row fails before any search."""
    parsed = []
    for label, model_spec, config_text in targets:
        model = parse_model(model_spec)
        config = parse_config(config_text)
        check_config(model, config)
        parsed.append((label, model, config))
    return parsed


def _run_one(target: ParsedTarget, params: SwarmParams, mf_config: dict | None) -> RunResult:
    _, model, config = target
    # A controller per fpso run, so its last emitted weight cannot leak into the next.
    controller = None
    if mf_config and params.variant == "fpso":
        controller = controller_from_config(mf_config)
    return generate_suite(model, config, params, controller=controller)


def cmd_generate(target: ParsedTarget, params: SwarmParams, mf_config: dict | None,
                 out: str) -> int:
    """Single run: write the suite and its per-test log, print a summary line."""
    result = _run_one(target, params, mf_config)
    write_suite(result.suite, out)
    with open(out + ".log", "w", newline="\n") as fh:
        fh.writelines(f"{rec}\n" for rec in result.tests)
    print(f"size={len(result.suite)} seed={params.rng_seed} variant={params.variant}")
    return EXIT_OK


def cmd_benchmark(targets: list[ParsedTarget], params: SwarmParams, mf_config: dict | None,
                  runs: int, out: str) -> int:
    """Seeded campaign over one or more configs; per-run sizes plus best/mean rows.

    Run r of each config uses params with the seed raised by r.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    rows: list[list[str]] = []
    for target in targets:
        label = target[0]
        results = [_run_one(target, replace(params, rng_seed=params.rng_seed + r), mf_config)
                   for r in range(runs)]
        best, mean, sizes = suite_stats(results)
        for r, size in enumerate(sizes):
            rows.append([label, params.variant, str(params.rng_seed + r), str(size)])
        rows.append([label, params.variant, "best", str(best)])
        rows.append([label, params.variant, "mean", f"{mean:.2f}"])
        print(f"{label} variant={params.variant} runs={runs} best={best} mean={mean:.2f}")
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["config_label", "variant", "seed", "size"])
        writer.writerows(rows)
    return EXIT_OK


def cmd_verify(suite_path: str, csv_path: str | None = None) -> int:
    """Re-check a suite file against the coverage oracle and print the report."""
    suite = read_suite(suite_path)
    report = verify_suite(suite)
    print(render_report_text(report))
    if csv_path:
        with open(csv_path, "w", newline="\n") as fh:
            fh.write(render_report_csv(report))
    return EXIT_OK if report.complete else EXIT_SHORTFALL


def _parse_patience(text: str) -> int | None:
    """'none' or an integer; SwarmParams checks the integer's range."""
    if text.strip().lower() == "none":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'none', got {text!r}") from None


def _add_run_options(parser: argparse.ArgumentParser, benchmark: bool) -> None:
    defaults = SwarmParams()
    parser.add_argument("--model", help="model spec, e.g. '3^15' or '4^3 5^3 6^2'")
    parser.add_argument("--t", type=int, help="main interaction strength")
    parser.add_argument("--sub", action="append", default=[], metavar="I,J,..:S",
                        help="sub-configuration 'indices:strength'; repeatable")
    parser.add_argument("--variant", choices=VARIANTS, default=defaults.variant)
    parser.add_argument("--swarm-size", type=int, default=defaults.swarm_size)
    parser.add_argument("--iterations", type=int, default=defaults.max_iterations)
    by_variant = ", ".join(f"{p or 'none'} under {v}" for v, p in DEFAULT_PATIENCE.items())
    parser.add_argument("--patience", type=_parse_patience, default=VARIANT_DEFAULT,
                        metavar="N|none",
                        help="stop a search after N iterations without a new global best; "
                             "'none' spends every iteration, as the paper does "
                             f"(default: {by_variant})")
    parser.add_argument("--seed", type=int, default=defaults.rng_seed,
                        help="base RNG seed (run r uses seed + r)")
    parser.add_argument("--out", default="", help="output path (suite or CSV)")
    parser.add_argument("--mf-config", default="",
                        help="JSON file overriding membership functions / w bounds")
    if benchmark:
        parser.add_argument("--runs", type=int, default=30)
        parser.add_argument("--preset", default="",
                            help="benchmark matrix: table1, table2, table3, or a file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vscit",
        description="Generate and verify variable-strength combinatorial test suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="one seeded run, writes a suite file")
    _add_run_options(gen, benchmark=False)

    bench = sub.add_parser("benchmark", help="seeded campaign, writes a CSV of sizes")
    _add_run_options(bench, benchmark=True)

    ver = sub.add_parser("verify", help="check a suite file for full coverage")
    ver.add_argument("suite", help="path to a suite file")
    ver.add_argument("--csv", default="", help="also write missing pairs as CSV")
    return parser


def _targets_from_args(args) -> list[Target]:
    if getattr(args, "preset", ""):
        if args.model or args.t is not None or args.sub:
            raise ParseError("--preset cannot be combined with --model/--t/--sub")
        return load_preset(args.preset)
    if not args.model or args.t is None:
        raise ParseError("--model and --t are required (or --preset for benchmarks)")
    config_text = f"t={args.t}" + "".join(f"; sub={s}" for s in args.sub)
    return [(f"{args.model} {config_text}", args.model, config_text)]


def _load_mf_config(path: str) -> dict | None:
    if not path:
        return None
    try:
        with open(path) as fh:
            mf_config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot load --mf-config {path!r}: {exc}") from None
    # Checked here, whatever the variant, so a malformed file never passes;
    # each fpso run still builds its own controller from the dict.
    controller_from_config(mf_config)
    return mf_config


def _configure_logging() -> None:
    levels = {"off": logging.WARNING, "info": logging.INFO, "trace": logging.DEBUG}
    name = os.environ.get(LOG_ENV, "").strip().lower()
    if not name:
        return
    if name not in levels:
        raise ParseError(f"{LOG_ENV}={name!r} is not one of {', '.join(levels)}")
    logger = logging.getLogger("vscit")
    logger.setLevel(levels[name])
    # One handler at most, however often main runs in one process.
    if not logger.hasHandlers():
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _configure_logging()
        if args.command == "verify":
            return cmd_verify(args.suite, args.csv or None)
        mf_config = _load_mf_config(args.mf_config)
        targets = _parse_targets(_targets_from_args(args))
        params = SwarmParams(swarm_size=args.swarm_size, max_iterations=args.iterations,
                             variant=args.variant, rng_seed=args.seed,
                             patience=args.patience)
        if args.command == "generate":
            return cmd_generate(targets[0], params, mf_config, args.out or "suite.txt")
        return cmd_benchmark(targets, params, mf_config, args.runs, args.out or "benchmark.csv")
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalCoverageError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
