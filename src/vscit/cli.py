"""Command-line harness: seeded single runs, benchmark campaigns, verification.

Exit codes: 0 success / full coverage, 1 coverage shortfall, 2 usage,
parse or file error or an allocation the host refused, 3 internal
consistency failure. The VSCIT_LOG environment variable (off, info, trace)
sets the level of the ``vscit`` logger, which writes to stderr unless a
handler the caller installed already receives its records; unset or empty,
it leaves logging as the caller configured it.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import replace
from importlib import resources
from string import whitespace

from .fis import FisController, controller_from_config
from .model import (ParseError, SutModel, VscaConfig, check_config, parse_config, parse_int,
                    parse_model, parse_sub)
from .pso import (
    VARIANT_DEFAULT,
    VARIANT_DEFAULTS,
    VARIANTS,
    InternalCoverageError,
    SwarmParams,
    generate_suite,
)
from .verify import (
    read_suite,
    render_report_csv,
    render_report_text,
    verify_suite,
    write_suite,
)

LOG_ENV = "VSCIT_LOG"

EXIT_OK = 0
EXIT_SHORTFALL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

Target = tuple[str, SutModel, VscaConfig]  # (label, model, checked config)


def load_preset(name_or_path: str) -> list[Target]:
    """Rows of a preset file: "label | model | config", '#' starts a comment.

    Accepts a shipped preset name ("table1", "table2", "table3") or a path.
    Every row is parsed and checked here, so a bad row fails before any search.
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
    # "\n" alone ends a row, and only ASCII whitespace is stripped, as in a suite file.
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip(whitespace)
        if not line or line.startswith("#"):
            continue
        parts = [p.strip(whitespace) for p in line.split("|")]
        if len(parts) != 3 or not all(parts):
            raise ParseError(
                f"preset line {line_no}: expected 'label | model | config', got {raw!r}"
            )
        try:
            model = parse_model(parts[1])
            config = parse_config(parts[2])
            check_config(model, config)
        except ValueError as exc:
            raise ParseError(f"preset line {line_no}: {exc}") from None
        targets.append((parts[0], model, config))
    if not targets:
        raise ParseError(f"preset {name_or_path!r} has no benchmark rows")
    return targets


@contextmanager
def _claimed(*paths: str):
    """Open each output path for appending before the work in the block, so a
    path that cannot be taken costs no work and an existing file keeps its
    bytes; if the block fails, remove the files this claim created."""
    created = []
    try:
        for path in paths:
            existed = os.path.exists(path)
            open(path, "a").close()
            if not existed:
                created.append(path)
        yield
    except BaseException:
        for path in created:
            os.remove(path)
        raise


def cmd_generate(target: Target, params: SwarmParams, controller: FisController | None,
                 out: str) -> int:
    """Single run: write the suite and its per-test log, print a summary line.

    Both files are claimed (_claimed) before the search and written after it.
    """
    _, model, config = target
    with _claimed(out, out + ".log"):
        result = generate_suite(model, config, params, controller)
    write_suite(result.suite, out)
    with open(out + ".log", "w", newline="\n") as fh:
        fh.writelines(f"{rec}\n" for rec in result.tests)
    print(f"size={len(result.suite)} seed={params.rng_seed} variant={params.variant}")
    return EXIT_OK


def cmd_benchmark(targets: list[Target], params: SwarmParams,
                  controller: FisController | None, runs: int, out: str) -> int:
    """Seeded campaign over one or more configs; per-run sizes plus best/mean rows.

    Run r of each config uses params with the seed raised by r. The CSV is
    claimed (_claimed) before the first run, so a path it cannot take costs
    no run, and written after the last one.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    rows = [["config_label", "variant", "seed", "size"]]
    with _claimed(out):
        for label, model, config in targets:
            sizes = [len(generate_suite(model, config, replace(params, rng_seed=seed),
                                        controller).suite)
                     for seed in range(params.rng_seed, params.rng_seed + runs)]
            best, mean = min(sizes), f"{sum(sizes) / runs:.2f}"
            for r, size in enumerate(sizes):
                rows.append([label, params.variant, str(params.rng_seed + r), str(size)])
            rows.append([label, params.variant, "best", str(best)])
            rows.append([label, params.variant, "mean", mean])
            print(f"{label} variant={params.variant} runs={runs} best={best} mean={mean}")
    with open(out, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return EXIT_OK


def cmd_verify(suite_path: str, csv_path: str | None = None) -> int:
    """Re-check a suite file against the coverage oracle and print the report.

    The CSV is claimed (_claimed) before the oracle runs, so a path it cannot
    take prints no report, and written after the report.
    """
    suite = read_suite(suite_path)
    with _claimed(*([csv_path] if csv_path else ())):
        report = verify_suite(suite)
    print(render_report_text(report))
    if csv_path:
        with open(csv_path, "w", newline="\n") as fh:
            fh.write(render_report_csv(report))
    return EXIT_OK if report.complete else EXIT_SHORTFALL


def _parse_patience(text: str) -> int | None:
    """'none' or an integer; SwarmParams checks the integer's range."""
    if text.strip(whitespace).lower() == "none":
        return None
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'none', got {text!r}") from None


def _by_variant(field: str) -> str:
    """A SwarmParams field's default under each variant, for --help."""
    return ", ".join(f"{d[field] or 'none'} under {v}" for v, d in VARIANT_DEFAULTS.items())


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    defaults = SwarmParams()
    parser.add_argument("--model", help="model spec, e.g. '3^15' or '4^3 5^3 6^2'")
    parser.add_argument("--t", type=parse_int, help="main interaction strength")
    parser.add_argument("--sub", action="append", default=[], metavar="I,J,..:S",
                        help="sub-configuration 'indices:strength'; repeatable")
    parser.add_argument("--variant", choices=VARIANTS, default=defaults.variant)
    parser.add_argument("--swarm-size", type=parse_int, default=VARIANT_DEFAULT,
                        help=f"particles per search (default: {_by_variant('swarm_size')})")
    parser.add_argument("--iterations", type=parse_int, default=defaults.max_iterations)
    parser.add_argument("--patience", type=_parse_patience, default=VARIANT_DEFAULT,
                        metavar="N|none",
                        help="stop a search after N iterations without a new global best; "
                             "'none' spends every iteration, as the paper does "
                             f"(default: {_by_variant('patience')})")
    parser.add_argument("--seed", type=parse_int, default=defaults.rng_seed,
                        help="base RNG seed (run r uses seed + r)")
    parser.add_argument("--out", default="", help="output path (suite or CSV)")
    parser.add_argument("--mf-config", default="",
                        help="JSON file overriding membership functions / w bounds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vscit",
        description="Generate and verify variable-strength combinatorial test suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="one seeded run, writes a suite file")
    _add_run_options(gen)

    bench = sub.add_parser("benchmark", help="seeded campaign, writes a CSV of sizes")
    _add_run_options(bench)
    bench.add_argument("--runs", type=parse_int, default=30)
    bench.add_argument("--preset", default="",
                       help="benchmark matrix: table1, table2, table3, or a file path")

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
    model = parse_model(args.model)
    config = VscaConfig(args.t, tuple(map(parse_sub, args.sub)))
    check_config(model, config)
    return [(f"{args.model} {config.render()}", model, config)]


def _load_mf_config(path: str) -> FisController | None:
    """The controller an --mf-config file describes, built and checked whatever the variant."""
    if not path:
        return None
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot load --mf-config {path!r}: {exc}") from None
    return controller_from_config(cfg)


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
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            _configure_logging()
            if args.command == "verify":
                return cmd_verify(args.suite, args.csv or None)
            controller = _load_mf_config(args.mf_config)
            targets = _targets_from_args(args)
            params = SwarmParams(swarm_size=args.swarm_size, max_iterations=args.iterations,
                                 variant=args.variant, rng_seed=args.seed, patience=args.patience)
            if args.command == "generate":
                return cmd_generate(targets[0], params, controller, args.out or "suite.txt")
            return cmd_benchmark(targets, params, controller, args.runs,
                                 args.out or "benchmark.csv")
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except MemoryError as exc:
            # numpy's names the array it could not allocate; a bare one is empty.
            print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
            return EXIT_USAGE
        except InternalCoverageError as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
