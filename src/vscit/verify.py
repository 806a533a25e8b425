"""Independent coverage oracle, suite statistics, and the suite file format.

The oracle recounts coverage from scratch, one combination at a time, and
shares no enumeration or indexing code with the tuple store, so the two act
as checks on each other. It visits the combinations in sorted order and
builds each one's row-major codes from those of the prefix it shares with
the previous combination, one parameter at a time.

A suite file is read in one pass into one int64 array: one parse_ints
call over every case line, validated together by TestSuite, which keeps
the array the oracle reads. Only a file that fails is read again, line by
line, to word the error.
"""

from __future__ import annotations

import itertools
import math
import re
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
    parse_ints,
    parse_model,
    validate_config,
)

# A line's ASCII whitespace, which str.strip(whitespace) removes; "\n"
# alone ends a line, as in file iteration.
_BLANK = " \t\r\v\f"
# "# model: ..." or "# config: ...", with any number of "#" and blanks.
_HEADER = re.compile(rf"^[{_BLANK}]*#+[{_BLANK}]*(model|config):(.*)", re.MULTILINE)
# A line neither blank nor a comment.
_CASE_LINE = re.compile(rf"^[{_BLANK}]*[^#{_BLANK}\n].*", re.MULTILINE)

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
    columns = np.ascontiguousarray(suite.array.T)
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
    """Inverse of write_suite; raises ParseError on any malformed content,
    a repeated header or bytes that do not decode included, naming the
    file and, where one is to blame, the line.

    Every integer in it takes the form vscit.model.parse_ints reads. A
    case of the wrong length or with a value outside its parameter's
    levels names the line of the first such case. The configuration is validated against
    the model, so a file whose configuration demands nothing (or names
    parameters the model lacks) is refused instead of passing the oracle
    with an empty universe.

    The text is read once. Regexes find the two headers and the case
    lines; a comment or blank line is neither. Every case line must hold
    k - 1 commas, and one parse_ints call reads the case lines joined by
    commas into the int64 array TestSuite validates and keeps. A file
    that fails any step is read again by _read_suite_lines, the only code
    that words the error.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        # One header of each kind, or the unpacking raises.
        headers = _HEADER.findall(text)
        (model_text,), (config_text,) = (
            [body for key, body in headers if key == name] for name in ("model", "config"))
        model = parse_model(model_text)
        lines = _CASE_LINE.findall(text)
        # k - 1 commas on every line make each line one row of the joined values.
        if set(map(str.count, lines, itertools.repeat(","))) <= {model.k - 1}:
            values = parse_ints(",".join(lines)) if lines else ()
            suite = TestSuite(model, parse_config(config_text),
                              np.array(values, dtype=np.int64).reshape(len(lines), model.k))
            validate_config(model, suite.config)
            return suite
    except (ValueError, OverflowError):
        pass
    return _read_suite_lines(path)


def _read_suite_lines(path) -> TestSuite:
    """read_suite one line at a time, naming the file and line of any error."""
    model: SutModel | None = None
    config: VscaConfig | None = None
    cases: list[tuple[int, ...]] = []
    case_lines: list[int] = []
    with open(path) as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip(whitespace)
                if not line:
                    continue
                if line.startswith("#"):
                    body = line.lstrip("#").strip(whitespace)
                    try:
                        if body.startswith("model:"):
                            if model is not None:
                                raise ParseError("repeated '# model:' header")
                            model = parse_model(body[len("model:"):])
                        elif body.startswith("config:"):
                            if config is not None:
                                raise ParseError("repeated '# config:' header")
                            config = parse_config(body[len("config:"):])
                    except ParseError as exc:
                        raise ParseError(f"{path}:{line_no}: {exc}") from None
                    continue
                try:
                    cases.append(parse_ints(line))
                except ValueError:
                    text = raw.rstrip("\n")
                    raise ParseError(f"{path}:{line_no}: bad case line {text!r}") from None
                case_lines.append(line_no)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    if model is None or config is None:
        raise ParseError(f"{path}: missing '# model:' or '# config:' header")
    try:
        validate_config(model, config)
        return TestSuite(model, config, tuple(cases))
    except CaseError as exc:
        raise ParseError(f"{path}:{case_lines[exc.index]}: {exc.reason}") from None
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
