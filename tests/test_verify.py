"""Coverage oracle, suite statistics, and suite file round-trips.

The oracle is checked against a brute-force reference kept here: a Python
set of every required (combination, value tuple) pair, from which the pairs
any case's projection hits are removed. The one-pass suite reader is checked
the same way, against a line-by-line reader kept here.
"""

import ast
import itertools
import math
import random
import warnings
from pathlib import Path
from string import whitespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import vscit
from vscit.model import (
    CaseError,
    ConfigError,
    ParseError,
    SubConfig,
    SutModel,
    VscaConfig,
    parse_config,
    parse_ints,
    parse_model,
    validate_config,
)
from vscit.pso import SwarmParams, generate_suite
from vscit.tuples import build_tuple_store
from vscit.verify import (
    CoverageReport,
    read_suite,
    render_report_csv,
    render_report_text,
    verify_suite,
    write_suite,
)

from conftest import NOT_INTEGER_TEXT


def make_suite(spec, config, cases):
    return vscit.TestSuite(parse_model(spec), config, tuple(cases))


def brute_force_report(suite):
    """Set-based reference: enumerate every demanded pair with an odometer."""
    model, config = suite.model, suite.config
    universe = set()
    demands = [(tuple(range(model.k)), config.main_strength)]
    demands += [(tuple(sorted(sub.indices)), sub.strength) for sub in config.sub_configs]
    for pool, strength in demands:
        for combo in itertools.combinations(pool, strength):
            levels = [model.param_levels[i] for i in combo]
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
    combos = {combo for combo, _ in universe}
    hit = {(combo, tuple(case[i] for i in combo)) for case in suite.cases for combo in combos}
    missing = tuple(sorted(universe - hit))
    return CoverageReport(len(universe), len(universe) - len(missing), missing)


def random_cases(n):
    """n cases drawn uniformly, each value by its own randrange, as a cases factory."""
    return lambda model, rnd: [tuple(rnd.randrange(v) for v in model.param_levels)
                               for _ in range(n)]


def first_and_last_missing(model, rnd):
    """Every 3^4 case but those holding (2, 2) at parameters 0, 1 or at 2, 3:
    at t=2 only the first and the last combination miss a pair."""
    return [case for case in itertools.product(range(3), repeat=4)
            if case[:2] != (2, 2) and case[2:] != (2, 2)]


@st.composite
def random_suites(draw):
    """Models of up to 6 parameters with 1-4 levels, variable-strength
    configurations whose sub-configurations may overlap the main strength or
    each other, and suites of 0-12 cases."""
    levels = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    k = len(levels)
    subs = draw(st.lists(
        st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True).flatmap(
            lambda idx: st.tuples(st.just(tuple(idx)), st.integers(1, len(idx)))),
        max_size=3,
    ))
    config = VscaConfig(draw(st.integers(1, k)), tuple(SubConfig(i, t) for i, t in subs))
    case = st.tuples(*(st.integers(0, v - 1) for v in levels))
    cases = draw(st.lists(case, max_size=12))
    return vscit.TestSuite(SutModel(tuple(levels)), config, tuple(cases))


def line_by_line_read_suite(path):
    """Reference reader, one line at a time with one parse_ints per case line:
    read_suite as it was before it read a file in one pass."""
    model = config = None
    cases = []
    case_lines = []
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
        return vscit.TestSuite(model, config, tuple(cases))
    except CaseError as exc:
        raise ParseError(f"{path}:{case_lines[exc.index]}: {exc.reason}") from None
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


# Fields parse_ints refuses, values past int64, and values outside every level count.
BAD_FIELDS = ["+1", "1_0", "\u0662", "1 2", "", "--1", "0x1", str(2**63), str(-2**63 - 1),
              str(2**64), "-1", "4"]
HEADER_FORMS = ["# {}: {}", "#{}:{}", "## {}:  {} ", " \t# {}: {}\f", "#\v{}: {}"]
OTHER_LINES = ["", " \t", "\f\v", "#", "# a comment", "#1,2,3", " # model 3^3", "#x model: 2"]
# Header text that does not parse, each under the header it is put in.
BAD_HEADERS = [("model", "3^x"), ("config", "t=x"), ("config", "t=1; sub=0,1")]
FILE_FAULTS = ["bad-field", "short", "long", "short-and-long", "repeated-header",
               "missing-header", "bad-header", "undecodable"]


@st.composite
def suite_files(draw):
    """The bytes of a suite file: random_suites() written with headers,
    comments and blank lines anywhere, ASCII whitespace around values, any
    line ending, and up to two faults."""
    suite = draw(random_suites())
    rows = [[str(x) for x in case] for case in suite.cases]
    headers = {"model": suite.model.render(), "config": suite.config.render()}
    faults = draw(st.lists(st.sampled_from(FILE_FAULTS), max_size=2))
    extra = []
    for fault in faults:
        filled = [row for row in rows if row]
        if fault == "bad-field" and filled:
            row = draw(st.sampled_from(filled))
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_FIELDS))
        elif fault == "short" and filled:
            draw(st.sampled_from(filled)).pop()
        elif fault == "long" and rows:
            draw(st.sampled_from(rows)).append("0")
        elif fault == "short-and-long" and filled and len(rows) > 1:
            # The file's comma count is what it would be without them.
            short = draw(st.sampled_from(filled))
            short.pop()
            draw(st.sampled_from([row for row in rows if row is not short])).append("0")
        elif fault == "repeated-header":
            key = draw(st.sampled_from(sorted(headers)))
            extra.append(draw(st.sampled_from(HEADER_FORMS)).format(key, headers[key]))
        elif fault == "missing-header":
            del headers[draw(st.sampled_from(sorted(headers)))]
        elif fault == "bad-header":
            key, text = draw(st.sampled_from(BAD_HEADERS))
            headers[key] = text
    pad = st.sampled_from(["", " ", "\t", "\v", "\f", " \t\f"])
    lines = [",".join(draw(pad) + field + draw(pad) for field in row) for row in rows]
    lines += [draw(st.sampled_from(HEADER_FORMS)).format(key, text) for key, text in headers.items()]
    lines += extra + draw(st.lists(st.sampled_from(OTHER_LINES), max_size=4))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (eol.join(draw(st.permutations(lines))) + draw(st.sampled_from(["", eol]))).encode()
    if "undecodable" in faults:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


class TestVerifySuite:
    def test_generated_pairwise_suite_covers_everything(self):
        # Five 3-level parameters need at most the classic 15 pairwise cases;
        # the engine must do at least that well and cover all 90 pairs.
        model = parse_model("3^5")
        result = generate_suite(model, VscaConfig(2), SwarmParams(rng_seed=8))
        report = verify_suite(result.suite)
        assert report.coverage_pct == 100.0
        assert report.required == 90
        assert len(result.suite) <= 15

    def test_empty_suite_covers_nothing(self):
        report = verify_suite(make_suite("3^3", VscaConfig(2), []))
        assert report.covered == 0
        assert report.required == 27
        assert not report.complete

    @pytest.mark.parametrize("config", [
        VscaConfig(0),
        VscaConfig(1, (SubConfig((0, 1), 0),)),
        VscaConfig(1, (SubConfig((0, 2), 2),)),
    ], ids=["main-strength-0", "sub-strength-0", "index-out-of-range"])
    def test_config_the_model_cannot_hold_is_refused(self, config):
        # Strength 0 demands the empty combination, which an empty suite "covers".
        with pytest.raises(ConfigError):
            verify_suite(make_suite("2^2", config, []))

    def test_exhaustive_suite_covers_any_config(self):
        model = parse_model("2^2 3")
        all_cases = list(itertools.product(*(range(v) for v in model.param_levels)))
        for config in [
            VscaConfig(1),
            VscaConfig(2),
            VscaConfig(3),
            VscaConfig(2, (SubConfig((0, 1, 2), 3),)),
        ]:
            report = verify_suite(vscit.TestSuite(model, config, tuple(all_cases)))
            assert report.coverage_pct == 100.0

    def test_missing_identifies_the_gap(self):
        suite = make_suite("2^2", VscaConfig(2), [(0, 0), (0, 1), (1, 0)])
        report = verify_suite(suite)
        assert report.missing == (((0, 1), (1, 1)),)
        assert report.covered == 3

    def test_counts_are_consistent(self):
        suite = make_suite("3^3", VscaConfig(2), [(0, 0, 0), (1, 1, 1)])
        report = verify_suite(suite)
        assert report.covered + len(report.missing) == report.required

    def test_required_matches_store_totals(self):
        cases = [
            ("3^5", VscaConfig(2)),
            ("3^5", VscaConfig(3, (SubConfig((1, 2, 3), 2),))),
            ("4^3 5^3 6^2", VscaConfig(2, (SubConfig((0, 1, 2), 3),))),
            ("2^4", VscaConfig(2, (SubConfig((0, 1, 2), 3), SubConfig((1, 2, 3), 3)))),
        ]
        for spec, config in cases:
            model = parse_model(spec)
            report = verify_suite(vscit.TestSuite(model, config, ()))
            assert report.required == build_tuple_store(model, config).remaining_count

    @given(random_suites())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_reference(self, suite):
        report = verify_suite(suite)
        expected = brute_force_report(suite)
        assert report.required == expected.required
        assert report.covered == expected.covered
        assert len(report.missing) == len(expected.missing)
        for got, want in zip(report.missing, expected.missing):
            assert got == want

    @pytest.mark.parametrize("spec,config_text,cases", [
        # (0, 1) is a prefix of (0, 1, 2), the next combination in sort order.
        ("3^4", "t=2; sub=0,1,2:3", random_cases(5)),
        ("2^6", "t=2; sub=0,2,5:3", random_cases(6)),
        ("1 3 1^2 2", "t=3; sub=0,1,2,3:4", random_cases(4)),
        ("3^3 2^2", "t=2; sub=1,2,3:3", random_cases(0)),
        ("3^7", "t=3; sub=2,3,4,5:4", random_cases(250)),
        # The last parameters after each prefix all have different level counts.
        ("2 3 4 5 6", "t=3", random_cases(40)),
        ("3^4", "t=2", first_and_last_missing),
    ], ids=["prefix-of-the-next", "non-contiguous-pool", "one-level-parameters",
            "empty-suite", "hundreds-of-rows", "mixed-last-levels", "first-and-last-missing"])
    def test_shared_prefixes_match_brute_force(self, spec, config_text, cases):
        model = parse_model(spec)
        suite = vscit.TestSuite(model, parse_config(config_text),
                                tuple(cases(model, random.Random(7))))
        assert verify_suite(suite) == brute_force_report(suite)

    def test_first_and_last_combinations_alone_miss_pairs(self):
        cases = first_and_last_missing(parse_model("3^4"), None)
        report = verify_suite(make_suite("3^4", VscaConfig(2), cases))
        assert report.missing == (((0, 1), (2, 2)), ((2, 3), (2, 2)))

    @pytest.mark.parametrize("n_cases", [0, 1, 200])
    def test_counts_are_python_ints(self, n_cases):
        rnd = random.Random(n_cases)
        cases = [tuple(rnd.randrange(3) for _ in range(4)) for _ in range(n_cases)]
        report = verify_suite(make_suite("3^4", VscaConfig(2, (SubConfig((0, 1, 2), 3),)), cases))
        assert type(report.required) is int and type(report.covered) is int

    def test_combination_too_large_to_count_is_refused(self):
        # Its codes would pass the int64 range; check_config's closed-form count refuses it first.
        suite = vscit.TestSuite(SutModel((2**32,) * 3), VscaConfig(3), ((1, 2, 3),))
        with pytest.raises(ConfigError, match=rf"^{2**96} required tuples; "
                                              r"the tuple store holds fewer than 2\*\*52$"):
            verify_suite(suite)

    def test_a_demand_past_the_bound_is_refused_before_enumeration(self):
        # C(100, 50) combinations: listing them would never end.
        suite = vscit.TestSuite(SutModel((2,) * 100), VscaConfig(50), ((0,) * 100,))
        with pytest.raises(ValueError, match=rf"^{math.comb(100, 50) * 2**50} required tuples"):
            verify_suite(suite)

    def test_the_refusal_starts_at_2_52_tuples(self, monkeypatch):
        # One tuple fewer passes on to the flag array's allocation, stubbed here.
        class Allocated(Exception):
            pass

        def zeros(size, dtype):
            raise Allocated(size)

        below = vscit.TestSuite(SutModel((2**26 - 1, 2**26 + 1)), VscaConfig(2), ((0, 0),))
        at = vscit.TestSuite(SutModel((2**26, 2**26)), VscaConfig(2), ((0, 0),))
        monkeypatch.setattr(vscit.verify.np, "zeros", zeros)
        with pytest.raises(Allocated) as allocated:
            verify_suite(below)
        assert allocated.value.args == (2**52 - 1,)
        with pytest.raises(ValueError, match=rf"^{2**52} required tuples"):
            verify_suite(at)

    def test_missing_is_sorted_across_combination_lengths(self):
        config = VscaConfig(2, (SubConfig((2, 1, 0), 3),))
        report = verify_suite(make_suite("2^3", config, [(0, 0, 0)]))
        combos = [combo for combo, _ in report.missing]
        assert combos == [(0, 1)] * 3 + [(0, 1, 2)] * 7 + [(0, 2)] * 3 + [(1, 2)] * 3


def generator_imports(source):
    """Modules of the generator (vscit.tuples, vscit.pso) that source imports;
    relative imports are read as relative to the vscit package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"vscit.{base}" if base else "vscit"
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [name for name in names
                  if name.split(".")[:2] in (["vscit", "tuples"], ["vscit", "pso"])]
    return found


class TestOracleIndependence:
    # The oracle checks the tuple store and the search; sharing their code
    # would let one bug pass both.
    def test_verify_imports_nothing_from_the_generator(self):
        assert generator_imports(Path(vscit.verify.__file__).read_text()) == []

    @pytest.mark.parametrize("source", [
        "from .tuples import TupleStore",
        "from . import pso",
        "from .pso import generate_suite as g",
        "import vscit.tuples",
        "from vscit import pso",
        "from vscit.tuples import build_tuple_store",
    ])
    def test_guard_flags_every_import_form(self, source):
        assert generator_imports(source)


class TestLowerBoundMutation:
    @pytest.mark.parametrize("spec,expected", [("3^3", 27), ("4^3", 64)])
    def test_removing_any_case_from_minimal_suite_breaks_coverage(self, spec, expected):
        model = parse_model(spec)
        result = generate_suite(model, VscaConfig(3), SwarmParams(rng_seed=2))
        cases = result.suite.cases
        assert len(cases) == expected
        for drop in range(len(cases)):
            mutated = vscit.TestSuite(model, result.suite.config, np.delete(cases, drop, axis=0))
            assert not verify_suite(mutated).complete


class TestSuiteFiles:
    def test_round_trip(self, tmp_path):
        config = VscaConfig(2, (SubConfig((0, 1, 2), 3),))
        suite = make_suite("3^5", config, [(0, 1, 2, 0, 1), (2, 2, 2, 2, 2)])
        path = tmp_path / "suite.txt"
        write_suite(suite, path)
        loaded = read_suite(path)
        assert loaded.model == suite.model
        assert loaded.config == suite.config
        assert loaded.cases.tolist() == suite.cases.tolist()

    def test_file_layout(self, tmp_path):
        suite = make_suite("2^2", VscaConfig(2), [(0, 1)])
        path = tmp_path / "suite.txt"
        write_suite(suite, path)
        assert path.read_text() == "# model: 2^2\n# config: t=2\n0,1\n"

    def test_header_only_file_reads_as_empty_suite(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# model: 3^3\n# config: t=2\n")
        suite = read_suite(path)
        assert suite.cases.shape == (0, 3)
        assert not verify_suite(suite).complete

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,1\n")
        with pytest.raises(ParseError, match="header"):
            read_suite(path)

    @pytest.mark.parametrize("text,line_no,header", [
        ("# model: 3^3\n# config: t=2\n# model: 2^3\n0,1,1\n", 3, "model"),
        ("# config: t=3\n# model: 2^3\n0,1,1\n# config: t=2\n", 4, "config"),
    ], ids=["model", "config"])
    def test_repeated_header_raises(self, tmp_path, text, line_no, header):
        # A later header would otherwise silently replace the first.
        path = tmp_path / "twice.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=f":{line_no}: repeated '# {header}:' header"):
            read_suite(path)

    @pytest.mark.parametrize("text,message", [
        ("# model: 3^x\n# config: t=2\n", ":1: bad model term '3^x'"),
        ("# model: 3^3\n\n# config: t=x\n0,0,0\n", ":3: bad main strength 'x'"),
        ("# model: 3^3\n# config: t=2; sub=0,1\n", ":2: bad sub-config 'sub=0,1', expected indices:strength"),
    ], ids=["model", "config", "sub-config"])
    def test_bad_header_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_suite(path)
        assert str(err.value) == f"{path}{message}"

    def test_an_uncountable_demand_names_the_file(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("# model: 2^100\n# config: t=50\n" + ",".join(["0"] * 100) + "\n")
        with pytest.raises(ParseError) as err:
            read_suite(path)
        assert str(err.value) == (f"{path}: {math.comb(100, 50) * 2**50} required tuples; "
                                  "the tuple store holds fewer than 2**52")

    def test_undecodable_content_names_the_file(self, tmp_path):
        # Under a UTF-8 locale the bytes fail to decode; under a one-byte
        # locale they decode and fail as a case line. Either names the file.
        path = tmp_path / "bytes.txt"
        path.write_bytes(bytes(range(256)))
        with pytest.raises(ParseError) as err:
            read_suite(path)
        assert str(err.value).startswith(f"{path}:")

    def test_undecodable_bytes_are_the_error_wherever_they_stand(self, tmp_path):
        # Read line by line, 8 KB are decoded at a time, so the \xff past the
        # first 8 KB would be met only after the bad case line on line 3.
        path = tmp_path / "big.txt"
        path.write_bytes(b"# model: 2^2\n# config: t=2\n0,x\n" + b"0,1\n" * 3000 + b"\xff")
        with pytest.raises(ParseError) as err:
            read_suite(path)
        try:
            path.read_text()
        except UnicodeDecodeError as exc:
            assert str(err.value) == f"{path}: {exc}"
        else:  # a one-byte locale decodes every byte
            assert str(err.value) == f"{path}:3: bad case line '0,x'"

    def test_bad_case_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# model: 2^2\n# config: t=2\n0,x\n")
        with pytest.raises(ParseError, match="bad case line"):
            read_suite(path)

    def test_out_of_range_value_raises(self, tmp_path):
        # The first bad case is on line 4, after a good one; a later one is not named.
        path = tmp_path / "bad.txt"
        path.write_text("# model: 2^2\n# config: t=2\n0,1\n0,5\n\n7,7\n")
        with pytest.raises(ParseError) as err:
            read_suite(path)
        assert str(err.value) == f"{path}:4: value 5 at index 1 outside 0..1"

    def test_a_bad_case_line_after_a_value_past_int64_is_the_error(self, tmp_path):
        # The int64 conversion stops at the first value it cannot hold, before
        # it reaches the bad field on line 4.
        path = tmp_path / "ovf.txt"
        path.write_text("# model: 3^2\n# config: t=2\n99999999999999999999,0\n0,--1\n")
        with pytest.raises(ParseError) as err:
            read_suite(path)
        assert str(err.value) == f"{path}:4: bad case line '0,--1'"
        path.write_text("# model: 3^2\n# config: t=2\n99999999999999999999,0\n0,1\n")
        with pytest.raises(ParseError) as err:
            read_suite(path)
        assert str(err.value) == f"{path}:3: value 99999999999999999999 at index 0 outside 0..2"

    def test_a_value_past_int64_is_named_where_loadtxt_casts_it(self, tmp_path, monkeypatch):
        # numpy 1.24's loadtxt reads a field past int64 through a float, warns
        # and casts it; this stand-in does so, and reads the rest with int().
        def loadtxt_via_float(lines, **_):
            rows = [[int(field) for field in line.split(",")] for line in lines]
            if max(map(abs, itertools.chain(*rows))) >= 2**63:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            return np.array([[v if abs(v) < 2**63 else -2**63 for v in row] for row in rows])
        monkeypatch.setattr(np, "loadtxt", loadtxt_via_float)
        path = tmp_path / "ovf.txt"
        path.write_text(f"# model: 3^2\n# config: t=2\n{2**63 - 2},0\n")
        with pytest.raises(ParseError) as err:
            read_suite(path)  # the stand-in's own read, no warning
        assert str(err.value) == f"{path}:3: value {2**63 - 2} at index 0 outside 0..2"
        path.write_text("# model: 3^2\n# config: t=2\n0,0\n99999999999999999999,0\n")
        with pytest.raises(ParseError) as err:
            read_suite(path)
        assert str(err.value) == f"{path}:4: value 99999999999999999999 at index 0 outside 0..2"

    def test_case_of_the_wrong_length_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# model: 2^2\n# config: t=2\n0,1\n\n0,1,1\n0\n")
        with pytest.raises(ParseError) as err:
            read_suite(path)
        assert str(err.value) == f"{path}:5: case has 3 values, model has 2 parameters"

    def test_lines_all_of_the_wrong_length_name_the_first(self, tmp_path):
        # The C reader reads them as one array; TestSuite words its width.
        path = tmp_path / "bad.txt"
        for body, want in [("0,1,1\n0,0,0\n", "case has 3 values"), ("0\n1\n", "case has 1 values")]:
            path.write_text(f"# model: 2^2\n# config: t=2\n\n{body}")
            with pytest.raises(ParseError) as err:
                read_suite(path)
            assert str(err.value) == f"{path}:4: {want}, model has 2 parameters"

    def test_a_well_formed_file_is_read_without_a_per_line_parse(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        suite = vscit.TestSuite(SutModel((4,) * 14), VscaConfig(4), rng.integers(0, 4, (2000, 14)))
        path = tmp_path / "suite.txt"
        write_suite(suite, path)
        calls = []
        monkeypatch.setattr(vscit.verify, "parse_ints",
                            lambda text: calls.append(text) or parse_ints(text))
        assert read_suite(path) == suite
        assert calls == []
        # The spy does see the per-line reader: one bad line sends every line through it.
        path.write_text(path.read_text() + "0,x\n")
        with pytest.raises(ParseError, match=":2003: bad case line"):
            read_suite(path)
        assert len(calls) == 2001

    @pytest.mark.parametrize("field", NOT_INTEGER_TEXT)
    def test_only_ascii_digits_with_a_minus_read_as_a_value(self, tmp_path, field):
        path = tmp_path / "bad.txt"
        path.write_text(f"# model: 2^2\n# config: t=2\n1,1\n0,{field}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r":4: bad case line "):
            read_suite(path)

    def test_ascii_whitespace_around_values_is_read(self, tmp_path):
        path = tmp_path / "spaced.txt"
        path.write_text("# model: 2^2\n# config: t=2\n 1 ,\t0\x0b\n0,\f1\r\n")
        assert read_suite(path).cases.tolist() == [[1, 0], [0, 1]]


class TestOnePassReader:
    @given(suite_files())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reads_what_the_line_by_line_reader_reads(self, tmp_path, data):
        # Every example rewrites the same file.
        path = tmp_path / "suite.txt"
        path.write_bytes(data)
        results = []
        for reader in (read_suite, line_by_line_read_suite):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # random sub-configs may be redundant
                try:
                    results.append(reader(path))
                except ParseError as exc:
                    results.append(str(exc))
        got, want = results
        assert got == want
        if not isinstance(got, str):
            assert got.cases.dtype == want.cases.dtype == np.int64

    def test_a_well_formed_file_with_crlf_comments_and_blanks_is_read(self, tmp_path):
        path = tmp_path / "suite.txt"
        path.write_bytes(b"\r\n# a comment\r\n#model: 3 2\r\n 2 ,\t1\x0b\r\n\r\n"
                         b"## config: t=2\r\n0,\f0")
        suite = read_suite(path)
        assert (suite.model, suite.config) == (SutModel((3, 2)), VscaConfig(2))
        assert suite.cases.tolist() == [[2, 1], [0, 0]]
        path.write_text("# model: 3 2\n# config: t=1\n")
        assert read_suite(path).cases.shape == (0, 2)


class TestReportRendering:
    def test_text_summary(self):
        report = verify_suite(make_suite("2^2", VscaConfig(2), [(0, 0)]))
        text = render_report_text(report)
        assert "required: 4" in text
        assert "covered: 1" in text
        assert "coverage: 25.00%" in text

    def test_text_lists_missing_pairs(self):
        report = verify_suite(make_suite("2^2", VscaConfig(2), [(0, 0)]))
        assert "0,1: 1-1" in render_report_text(report)

    def test_text_truncates_long_missing_lists(self):
        report = verify_suite(make_suite("3^5", VscaConfig(2), []))
        assert "... 70 more" in render_report_text(report)

    def test_csv_rows(self):
        report = verify_suite(make_suite("2^2", VscaConfig(2), [(0, 0), (1, 1)]))
        csv_text = render_report_csv(report)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "combination,values"
        assert set(lines[1:]) == {"0-1,0-1", "0-1,1-0"}

    def test_csv_empty_when_complete(self):
        suite = make_suite("2^2", VscaConfig(2), list(itertools.product((0, 1), repeat=2)))
        assert render_report_csv(verify_suite(suite)) == "combination,values\n"

    def test_pct_of_empty_requirement(self):
        assert CoverageReport(0, 0, ()).coverage_pct == 100.0
