"""Independent coverage oracle and the suite file format.

The oracle recounts coverage from scratch, one combination at a time, and
shares no enumeration or indexing code with the tuple store, so the two act
as checks on each other. It visits the combinations in sorted order and
builds each one's row-major codes from those of the prefix it shares with
the previous combination, one parameter at a time.

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
    """Every parameter combination the configuration demands, each once, sorted."""
    demands = [(range(model.k), config.main_strength)]
    demands += [(sorted(sub.indices), sub.strength) for sub in config.sub_configs]
    return sorted({
        combo for pool, strength in demands
        for combo in itertools.combinations(pool, strength)
    })


def verify_suite(suite: TestSuite) -> CoverageReport:
    """Mark every value tuple each combination's projection of the suite hits.

    Each demanded combination gets one boolean hit array over the product
    of its parameters' level counts, indexed by the row-major code of the
    value tuple; its size is the combination's required count and its set
    flags are the covered ones. Combinations are visited in sorted order
    and code order is lexicographic tuple order, so the missing pairs come
    out sorted by (combination, value tuple). A configuration the model
    cannot hold raises ConfigError: strength 0 would demand the empty
    combination, which every suite, even an empty one, would cover.

    codes[d] holds every row's code over the first d + 1 parameters of the
    current combination. Sorted combinations share prefixes, so each one
    keeps the codes of the prefix it shares with the previous one and
    extends them one parameter at a time. hit is allocated first: a
    combination too large for it fails there, before any code could pass
    the int64 range.
    """
    check_config(suite.model, suite.config)
    levels = suite.model.param_levels
    columns = np.ascontiguousarray(suite.cases.T)
    required = covered = 0
    missing: list[MissingPair] = []
    codes: list[np.ndarray] = []
    previous: tuple[int, ...] = ()
    for combo in _demanded_combinations(suite.model, suite.config):
        dims = tuple(levels[i] for i in combo)
        hit = np.zeros(math.prod(dims), dtype=bool)
        shared = 0
        while shared < len(previous) and shared < len(combo) and previous[shared] == combo[shared]:
            shared += 1
        del codes[shared:]
        for i in combo[shared:]:
            codes.append(codes[-1] * levels[i] + columns[i] if codes else columns[i])
        previous = combo
        hit[codes[-1]] = True
        required += hit.size
        n_hit = int(np.count_nonzero(hit))
        covered += n_hit
        if n_hit < hit.size:
            values = np.unravel_index(np.flatnonzero(~hit), dims)
            missing += [(combo, tup) for tup in zip(*(col.tolist() for col in values))]
    return CoverageReport(required=required, covered=covered, missing=tuple(missing))


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
