"""Independent coverage oracle, suite statistics, and the suite file format.

The oracle recomputes the full required-tuple universe from scratch and
shares no enumeration code with the tuple store, so the two act as checks
on each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import (
    ParseError,
    SutModel,
    TestSuite,
    VscaConfig,
    parse_config,
    parse_model,
    validate_config,
)

MissingPair = tuple[tuple[int, ...], tuple[int, ...]]


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


def _required_universe(model: SutModel, config: VscaConfig) -> set[MissingPair]:
    """Every (combination, value tuple) pair the configuration demands."""
    universe: set[MissingPair] = set()
    demands = [(tuple(range(model.k)), config.main_strength)]
    demands += [(tuple(sorted(sub.indices)), sub.strength) for sub in config.sub_configs]
    for pool, strength in demands:
        for combo in itertools.combinations(pool, strength):
            levels = [model.param_levels[i] for i in combo]
            # Mixed-radix odometer over this combination's level counts.
            counter = [0] * len(combo)
            while True:
                universe.add((combo, tuple(counter)))
                pos = len(counter) - 1
                while pos >= 0:
                    counter[pos] += 1
                    if counter[pos] < levels[pos]:
                        break
                    counter[pos] = 0
                    pos -= 1
                if pos < 0:
                    break
    return universe


def verify_suite(suite: TestSuite) -> CoverageReport:
    """Mark every required pair hit by any case's projection; report the rest."""
    universe = _required_universe(suite.model, suite.config)
    combos = sorted({combo for combo, _ in universe})
    hit: set[MissingPair] = set()
    for case in suite.cases:
        for combo in combos:
            hit.add((combo, tuple(case[i] for i in combo)))
    missing = tuple(sorted(universe - hit))
    return CoverageReport(
        required=len(universe),
        covered=len(universe) - len(missing),
        missing=missing,
    )


def suite_stats(results) -> tuple[int, float, list[int]]:
    """Best (minimum) and mean suite size over a batch of run results.

    The mean is rounded to 2 decimals, matching the benchmark table format.
    """
    sizes = [len(r.suite.cases) for r in results]
    if not sizes:
        raise ValueError("no run results to summarize")
    return min(sizes), round(sum(sizes) / len(sizes), 2), sizes


def write_suite(suite: TestSuite, path) -> None:
    """Two header comments (model, config), then one case per line as CSV ints."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# model: {suite.model.render()}\n")
        fh.write(f"# config: {suite.config.render()}\n")
        for case in suite.cases:
            fh.write(",".join(map(str, case)) + "\n")


def read_suite(path) -> TestSuite:
    """Inverse of write_suite; raises ParseError on any malformed content.

    The configuration is validated against the model, so a file whose
    configuration demands nothing (or names parameters the model lacks)
    is refused instead of passing the oracle with an empty universe.
    """
    model: SutModel | None = None
    config: VscaConfig | None = None
    cases: list[tuple[int, ...]] = []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("model:"):
                    model = parse_model(body[len("model:"):].strip())
                elif body.startswith("config:"):
                    config = parse_config(body[len("config:"):].strip())
                continue
            try:
                cases.append(tuple(int(x) for x in line.split(",")))
            except ValueError:
                raise ParseError(f"{path}:{line_no}: bad case line {line!r}") from None
    if model is None or config is None:
        raise ParseError(f"{path}: missing '# model:' or '# config:' header")
    try:
        validate_config(model, config)
        return TestSuite(model, config, tuple(cases))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def render_report_text(report: CoverageReport, limit: int = 20) -> str:
    lines = [
        f"required: {report.required}",
        f"covered: {report.covered}",
        f"missing: {len(report.missing)}",
        f"coverage: {report.coverage_pct:.2f}%",
    ]
    for combo, values in report.missing[:limit]:
        lines.append(f"  {','.join(map(str, combo))}: {'-'.join(map(str, values))}")
    if len(report.missing) > limit:
        lines.append(f"  ... {len(report.missing) - limit} more")
    return "\n".join(lines)


def render_report_csv(report: CoverageReport) -> str:
    """Missing pairs only, one row each; an empty table means full coverage."""
    lines = ["combination,values"]
    lines += [
        f"{'-'.join(map(str, combo))},{'-'.join(map(str, values))}"
        for combo, values in report.missing
    ]
    return "\n".join(lines) + "\n"
