"""Independent coverage oracle and the suite file format.

The oracle recounts coverage from scratch and shares no enumeration or
indexing code with the tuple store, so the two act as checks on each other.
Only the configuration check is shared: check_config refuses a configuration
the model cannot hold, demands of 2**52 tuples or more in sum among its
faults, before the oracle lists any combination. The oracle then allocates
one flag array for every required (combination, value tuple) pair, visits the
combinations in sorted order, builds each one's row-major codes from those
of its (t - 1)-prefix plus one cached product per last level count, and
decodes the clear flags, the missing pairs, once at the end.

A suite file is read in one pass into the one int64 array TestSuite keeps
and the oracle reads. It is never read twice: the branch that meets a
fault words the error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from string import whitespace

import numpy as np

from .model import (
    CaseError,
    ParseError,
    SutModel,
    TestSuite,
    VscaConfig,
    check_config,
    parse_config,
    parse_int_rows,
    parse_ints,
    parse_model,
    validate_config,
)

MissingPair = tuple[tuple[int, ...], tuple[int, ...]]
REPORT_MISSING_SHOWN = 20


@dataclass(frozen=True)
class CoverageReport:
    required: int
    covered: int
    missing: tuple[MissingPair, ...]

    @property
    def coverage_pct(self) -> float:
        if self.required == 0:
            return 100.0
        return self.covered / self.required * 100.0

    @property
    def complete(self) -> bool:
        return not self.missing


def _demanded_combinations(model: SutModel, config: VscaConfig) -> list[tuple[int, ...]]:
    """Every parameter combination the configuration demands, each once, sorted:
    the main strength's over every parameter and each sub-configuration's
    over its own index pool."""
    demands = [(range(model.k), config.main_strength)]
    demands += [(sorted(sub.indices), sub.strength) for sub in config.sub_configs]
    return sorted({
        combo for pool, strength in demands
        for combo in itertools.combinations(pool, strength)
    })


def verify_suite(suite: TestSuite) -> CoverageReport:
    """Flag every value tuple each combination's projection of the suite hits.

    One boolean array holds a flag for every required (combination, value
    tuple) pair: the demanded combinations in sorted order, each one's
    block as long as the product of its parameters' level counts and
    indexed by the row-major code of the value tuple. Code order is
    lexicographic tuple order, so the array's clear flags, decoded once at
    the end, are the missing pairs sorted by (combination, value tuple).
    A configuration the model cannot hold raises ConfigError before any
    combination is listed: strength 0 would demand the empty combination,
    which every suite, even an empty one, would cover, and demands of 2**52
    tuples or more in sum would take too long to list.

    codes[d] holds every row's code over the first d + 1 parameters of the
    current combination's (t - 1)-prefix. Sorted combinations share
    prefixes, so each prefix keeps the codes of the part it shares with
    the one before and extends them one parameter at a time. Its codes
    times a last parameter's level count are computed once per distinct
    count, and each combination's codes are those plus its last column.
    The flag array is allocated before any code is computed, and it is at
    least as long as any one combination's block, so an input too large
    for it fails there.
    """
    model = suite.model
    levels = model.param_levels
    check_config(model, suite.config)
    combos = _demanded_combinations(model, suite.config)
    sizes = [math.prod(levels[i] for i in combo) for combo in combos]
    starts = list(itertools.accumulate(sizes, initial=0))
    required = starts[-1]
    hit = np.zeros(required, dtype=bool)
    columns = np.ascontiguousarray(suite.cases.T)
    codes: list[np.ndarray] = []
    prefix: tuple[int, ...] = ()
    scaled: dict[int, np.ndarray] = {}  # codes[-1] times a last parameter's level count
    for combo, start, size in zip(combos, starts, sizes):
        if combo[:-1] != prefix:
            shared = 0
            while shared < min(len(prefix), len(combo) - 1) and prefix[shared] == combo[shared]:
                shared += 1
            del codes[shared:]
            for i in combo[shared:-1]:
                codes.append(codes[-1] * levels[i] + columns[i] if codes else columns[i])
            prefix, scaled = combo[:-1], {}
        v, code = levels[combo[-1]], columns[combo[-1]]
        if codes:
            if v not in scaled:
                scaled[v] = codes[-1] * v
            code = scaled[v] + code
        hit[start:start + size][code] = True
    ids = np.flatnonzero(~hit)
    bounds = np.searchsorted(ids, starts)
    missing: list[MissingPair] = []
    for j in np.flatnonzero(np.diff(bounds)).tolist():
        combo = combos[j]
        values = np.unravel_index(ids[bounds[j]:bounds[j + 1]] - starts[j],
                                  tuple(levels[i] for i in combo))
        missing += [(combo, tup) for tup in zip(*(col.tolist() for col in values))]
    return CoverageReport(required=required, covered=required - len(ids), missing=tuple(missing))


def write_suite(suite: TestSuite, path) -> None:
    """Two header comments (model, config), then one case per line as CSV ints."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# model: {suite.model.render()}\n")
        fh.write(f"# config: {suite.config.render()}\n")
        for case in suite.cases.tolist():
            fh.write(",".join(map(str, case)) + "\n")


def read_suite(path) -> TestSuite:
    """Inverse of write_suite; raises ParseError naming the file and, where
    one is to blame, the line of the first fault, bytes that do not decode
    first wherever they stand. The configuration is validated against the
    model, so one that demands nothing (or names parameters the model
    lacks) is refused instead of passing the oracle with an empty universe.
    One pass collects the case lines for parse_int_rows; only if it fails
    does parse_ints read them one by one, to word the fault.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    parsers = {"model": parse_model, "config": parse_config}  # "# model: ..." and "# config: ..."
    headers: dict[str, SutModel | VscaConfig] = {}
    rows: dict[int, str] = {}  # case lines by line number
    fault = None
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip(whitespace)
        if not line.startswith("#"):
            if line:
                rows[line_no] = raw
            continue
        key, sep, body = line.lstrip("#").strip(whitespace).partition(":")
        if sep and key in parsers:
            try:
                if key in headers:
                    raise ParseError(f"repeated '# {key}:' header")
                headers[key] = parsers[key](body)
            except ParseError as exc:
                fault = ParseError(f"{path}:{line_no}: {exc}")
                break
    if fault is None and len(headers) < len(parsers):
        fault = ParseError(f"{path}: missing '# model:' or '# config:' header")
    try:
        values = parse_int_rows(list(rows.values())) if rows else ()
    except (ValueError, OverflowError):
        values = []  # TestSuite words any fault the lines leave
        for line_no, row in rows.items():
            try:
                values.append(parse_ints(row))
            except ValueError:
                raise ParseError(f"{path}:{line_no}: bad case line {row!r}") from None
    if fault is not None:
        raise fault
    model, config = headers["model"], headers["config"]
    try:
        validate_config(model, config)
        return TestSuite(model, config, values)
    except CaseError as exc:
        raise ParseError(f"{path}:{list(rows)[exc.index]}: {exc.reason}") from None
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def render_report_text(report: CoverageReport) -> str:
    lines = [
        f"required: {report.required}",
        f"covered: {report.covered}",
        f"missing: {len(report.missing)}",
        f"coverage: {report.coverage_pct:.2f}%",
    ]
    for combo, values in report.missing[:REPORT_MISSING_SHOWN]:
        lines.append(f"  {','.join(map(str, combo))}: {'-'.join(map(str, values))}")
    if len(report.missing) > REPORT_MISSING_SHOWN:
        lines.append(f"  ... {len(report.missing) - REPORT_MISSING_SHOWN} more")
    return "\n".join(lines)


def render_report_csv(report: CoverageReport) -> str:
    """Missing pairs only, one row each; an empty table means full coverage."""
    lines = ["combination,values"]
    lines += [
        f"{'-'.join(map(str, combo))},{'-'.join(map(str, values))}"
        for combo, values in report.missing
    ]
    return "\n".join(lines) + "\n"
