"""Model parsing, rendering, and configuration validation."""

import itertools
import re
import warnings
from string import whitespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import vscit

from vscit.model import (
    CaseError,
    ConfigError,
    ParseError,
    SubConfig,
    SutModel,
    VscaConfig,
    check_case,
    check_config,
    parse_config,
    parse_int_rows,
    parse_ints,
    parse_model,
    validate_config,
)

from conftest import NOT_INTEGER_TEXT

# Values int() would read as an integer that is not the one given, or as one
# where none was meant; every integer field a library caller sets refuses them.
NOT_INTEGER_VALUES = [pytest.param(value, id=name) for value, name in [
    (1.7, "float"), (1.0, "integral-float"), (True, "bool"), ("1", "str"),
    (np.float64(1.0), "numpy-float"), (np.bool_(True), "numpy-bool"),
]]

# Each integer field a library caller sets, as a function of the value to put there.
INTEGER_FIELDS = [pytest.param(build, id=name) for build, name in [
    (lambda v: SutModel((3, v)), "level"),
    (lambda v: VscaConfig(v), "main-strength"),
    (lambda v: VscaConfig(1, (SubConfig((0, v), 2),)), "sub-index"),
    (lambda v: VscaConfig(1, (SubConfig((0, 1), v),)), "sub-strength"),
    (lambda v: vscit.SwarmParams(swarm_size=v), "swarm-size"),
    (lambda v: vscit.SwarmParams(max_iterations=v), "max-iterations"),
    (lambda v: vscit.SwarmParams(rng_seed=v), "rng-seed"),
    (lambda v: vscit.SwarmParams(patience=v), "patience"),
]]


INTEGER_TEXT = ["", "-", "--1", "- 1", "1 2", "\v7\f", "007", "-0", "7".zfill(25),
                str(2**63 - 1), str(-2**63), " 3 ,\t-4,5", "1,,2"]


# Fields the suite reader meets: digits, signs, empty and lone-sign fields,
# values past int64 and the ASCII whitespace a case line may hold.
CASE_FIELDS = st.one_of(
    st.text(alphabet="0123456789,- \t\v\f", max_size=8),
    st.sampled_from(["-", "", "--1", " -0", "\v7\f"]),
    st.tuples(st.sampled_from(["", "-", " -"]), st.text("0123456789", min_size=19, max_size=25))
    .map("".join),
    st.sampled_from([str(v) for v in (2**63 - 1, 2**63, -2**63, -2**63 - 1)]),
)
CASE_LINES = st.lists(
    st.lists(CASE_FIELDS, min_size=1, max_size=4).map(",".join)
    .filter(lambda line: line.strip(whitespace)),
    min_size=1, max_size=5)


class TestParseIntArray:
    """parse_int_rows, the array form of parse_ints, reads the same values,
    refuses the same text, and raises ValueError or OverflowError for a
    value past int64."""

    @pytest.mark.parametrize("text", INTEGER_TEXT + NOT_INTEGER_TEXT)
    def test_reads_what_parse_ints_reads(self, text):
        if not text.strip(whitespace):
            # Outside its domain: loadtxt skips the blank line parse_ints refuses.
            np.testing.assert_array_equal(parse_int_rows(["0", text]), [[0]])
            return
        try:
            want = np.array([parse_ints(text)], dtype=np.int64)
        except ValueError:
            with pytest.raises(ValueError):
                parse_int_rows([text])
        else:
            got = parse_int_rows([text])
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("value", [2**63, -2**63 - 1, 10**20])
    def test_a_value_past_int64_overflows(self, value):
        assert parse_ints(f"0,{value}") == (0, value)
        with pytest.raises((ValueError, OverflowError)):
            parse_int_rows([f"0,{value}"])

    @given(CASE_LINES)
    def test_reads_what_parse_ints_reads_line_by_line(self, lines):
        try:
            rows = [parse_ints(line) for line in lines]
            want = np.array(rows, dtype=np.int64) if len(set(map(len, rows))) == 1 else None
        except (ValueError, OverflowError):
            want = None
        if want is None:
            with pytest.raises((ValueError, OverflowError)):
                parse_int_rows(lines)
        else:
            got = parse_int_rows(lines)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_a_value_loadtxt_casts_with_a_warning_is_refused(self, monkeypatch):
        # numpy 1.24 reads a field past int64 through a float, warns, and
        # casts it; the stand-in does the same to every field.
        def loadtxt_via_float(lines, **_):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return np.full((len(lines), 2), -2**63, np.int64)
        monkeypatch.setattr(np, "loadtxt", loadtxt_via_float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # not even an ignored warning passes
            with pytest.raises(ValueError, match="via a float"):
                parse_int_rows(["0,99999999999999999999"])

    def test_a_str_is_refused_even_when_a_file_of_that_name_exists(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "1,2").write_text("1,2\n")
        for text in ("1,2", str(tmp_path / "1,2")):
            with pytest.raises(TypeError):
                parse_int_rows(text)


class TestParseModel:
    def test_uniform_exponent(self):
        m = parse_model("3^15")
        assert m.k == 15
        assert m.param_levels == (3,) * 15

    def test_bare_term_is_single_parameter(self):
        assert parse_model("5").param_levels == (5,)

    def test_mixed_levels_expand_left_to_right(self):
        assert parse_model("4^3 5^3 6^2").param_levels == (4, 4, 4, 5, 5, 5, 6, 6)

    def test_adjacent_terms_keep_order(self):
        assert parse_model("2 3^2 2").param_levels == (2, 3, 3, 2)

    @pytest.mark.parametrize("bad", ["", "   ", "3^", "^3", "x", "3^x", "3^2^2"])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ParseError):
            parse_model(bad)

    @pytest.mark.parametrize("bad", ["0^2", "-1", "3^0", "3^-1", str(2**52), f"{2**70}^2"])
    def test_out_of_range_terms_raise(self, bad):
        with pytest.raises(ParseError, match="bad model term"):
            parse_model(bad)

    def test_error_names_the_offending_term(self):
        with pytest.raises(ParseError, match="'0\\^2'"):
            parse_model("3^2 0^2")


class TestRenderRoundTrip:
    def test_render_groups_runs(self):
        assert parse_model("4^3 5^3 6^2").render() == "4^3 5^3 6^2"

    def test_render_single_is_bare(self):
        assert parse_model("5").render() == "5"

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12))
    def test_round_trip(self, levels):
        m = SutModel(tuple(levels))
        assert parse_model(m.render()) == m


class TestSutModelInvariants:
    def test_needs_a_parameter(self):
        with pytest.raises(ValueError):
            SutModel(())

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            SutModel((3, 0))

    def test_level_counts_from_2_52_on_are_refused(self):
        # Each parameter is in some combination of any t >= 1 configuration,
        # and no tuple store holds the ids of one with 2**52 levels or more.
        assert SutModel((2**52 - 1, 2)).param_levels == (2**52 - 1, 2)
        for levels in [(2**52, 2), (2**70, 2)]:
            with pytest.raises(ValueError, match=r"^every parameter needs 1 to 2\*\*52 - 1 values"):
                SutModel(levels)

    def test_check_case(self):
        m = parse_model("3^2")
        check_case(m, (0, 2))
        with pytest.raises(ValueError):
            check_case(m, (0, 3))
        with pytest.raises(ValueError):
            check_case(m, (0,))


class TestSuiteValidation:
    @pytest.mark.parametrize("value", NOT_INTEGER_VALUES)
    def test_a_value_that_is_not_an_integer_is_refused(self, value):
        # An int64 array would read each of these as 1.
        message = f"case 1: value {value!r} at index 0 is not an integer"
        with pytest.raises(CaseError, match=f"^{re.escape(message)}$"):
            vscit.TestSuite(parse_model("3^2"), VscaConfig(2), ((0, 0), (value, 2), (1.7, 0)))

    @pytest.mark.parametrize("value", NOT_INTEGER_VALUES)
    @pytest.mark.parametrize("build", INTEGER_FIELDS)
    def test_every_integer_field_refuses_a_value_that_is_not_an_integer(self, build, value):
        with pytest.raises(ValueError, match=f"must be an integer.*, got {re.escape(repr(value))}$"):
            build(value)

    def test_numpy_integers_are_read_as_python_ints(self):
        model = parse_model("3^2")
        for cases in [((np.int64(1), np.uint8(2)), np.array([0, 1])), np.array([[1, 2], [0, 1]])]:
            suite = vscit.TestSuite(model, VscaConfig(2), cases)
            assert suite.cases.tolist() == [[1, 2], [0, 1]]
            assert suite.cases.dtype == np.int64
        assert SutModel((np.int64(3), np.uint8(2))).param_levels == (3, 2)
        config = VscaConfig(np.int64(1), ((np.array([0, 1]), np.uint8(2)),))
        assert config == VscaConfig(1, (SubConfig((0, 1), 2),))
        params = vscit.SwarmParams(swarm_size=np.int64(10), max_iterations=np.int32(5),
                                   rng_seed=np.uint64(3), patience=np.int8(2))
        assert params == vscit.SwarmParams(swarm_size=10, max_iterations=5, rng_seed=3, patience=2)
        held = [*SutModel((np.int64(3),)).param_levels, config.main_strength,
                *config.sub_configs[0].indices, config.sub_configs[0].strength,
                params.swarm_size, params.max_iterations, params.rng_seed, params.patience]
        assert {type(x) for x in held} == {int}

    @pytest.mark.parametrize("bad,message", [
        ((0, 3), "value 3 at index 1 outside 0..2"),
        ((-1, 0), "value -1 at index 0 outside 0..2"),
        ((2**64, 0), f"value {2**64} at index 0 outside 0..2"),
        ((0,), "case has 1 values, model has 2 parameters"),
    ], ids=["above", "negative", "past-int64", "short"])
    def test_the_first_case_the_model_cannot_hold_is_named(self, bad, message):
        with pytest.raises(CaseError) as err:
            vscit.TestSuite(parse_model("3^2"), VscaConfig(2), ((0, 0), bad, (5, 5)))
        assert (err.value.index, err.value.reason) == (1, message)
        assert str(err.value) == f"case 1: {message}"


class TestSuiteFromAnArray:
    def test_an_int64_array_gives_the_suite_its_tuples_give(self):
        model = parse_model("3^2 2")
        rows = ((0, 2, 1), (1, 0, 0), (2, 1, 1))
        for dtype in (np.int64, np.int8, np.uint32):
            from_array = vscit.TestSuite(model, VscaConfig(2), np.array(rows, dtype=dtype))
            from_tuples = vscit.TestSuite(model, VscaConfig(2), rows)
            assert from_array == from_tuples
            assert from_array.cases.tolist() == from_tuples.cases.tolist() == list(map(list, rows))
            assert from_array.cases.dtype == from_tuples.cases.dtype == np.int64
            assert from_array != vscit.TestSuite(model, VscaConfig(2), rows[:2])
            assert from_array != vscit.TestSuite(model, VscaConfig(1), rows)
            assert from_array != rows
        empty = vscit.TestSuite(model, VscaConfig(2), np.zeros((0, 3), dtype=np.int64))
        assert empty.cases.shape == (0, 3) and empty == vscit.TestSuite(model, VscaConfig(2), ())

    @pytest.mark.parametrize("rows,message", [
        (np.array([[0, 1], [1, 0]], dtype=bool),
         f"case 0: value {np.False_!r} at index 0 is not an integer"),
        (np.array([[0.0, 1.0]]), f"case 0: value {np.float64(0.0)!r} at index 0 is not an integer"),
        (np.zeros((2, 3), dtype=np.int64), "case 0: case has 3 values, model has 2 parameters"),
        (np.array([[0, 1], [1, 3]]), "case 1: value 3 at index 1 outside 0..2"),
        (np.array([[0, 1], [1, 2**64 - 1]], dtype=np.uint64),
         f"case 1: value {2**64 - 1} at index 1 outside 0..2"),
    ], ids=["bool", "float", "wrong-width", "out-of-range", "uint64"])
    def test_an_array_it_cannot_hold_raises_what_its_rows_raise(self, rows, message):
        # The tuple of its rows is what TestSuite read an array as before arrays
        # had a path of their own.
        model = parse_model("3^2")
        for cases in (rows, tuple(rows)):
            with pytest.raises(CaseError) as err:
                vscit.TestSuite(model, VscaConfig(2), cases)
            assert str(err.value) == message

    def test_the_kept_array_is_a_read_only_copy(self):
        rows = np.array([[0, 1], [2, 0]])
        suite = vscit.TestSuite(parse_model("3^2"), VscaConfig(2), rows)
        assert not suite.cases.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            suite.cases[0, 0] = 1
        rows[0, 0] = 2
        assert rows.flags.writeable
        assert suite.cases.tolist() == [[0, 1], [2, 0]]


class TestParseConfig:
    def test_main_only(self):
        cfg = parse_config("t=2")
        assert cfg.main_strength == 2
        assert cfg.sub_configs == ()

    def test_subs(self):
        cfg = parse_config("t=2; sub=0,1,2:3; sub=3,4:2")
        assert cfg.sub_configs == (SubConfig((0, 1, 2), 3), SubConfig((3, 4), 2))

    def test_render_round_trip(self):
        text = "t=3; sub=1,2,3:4"
        assert parse_config(text).render() == text

    @pytest.mark.parametrize(
        "bad", ["", "sub=0,1:2", "t=x", "t=2; sub=0,1", "t=2; sub=a,b:2", "t=2; foo=1", "t=2; t=3"]
    )
    def test_malformed_configs_raise(self, bad):
        with pytest.raises(ParseError):
            parse_config(bad)

    def test_a_part_without_an_equals_sign_is_named(self):
        with pytest.raises(ParseError, match="^bad config part '0,1:3'$"):
            parse_config("t=2; 0,1:3")


class TestValidateConfig:
    def test_plain_pairwise_config_is_valid(self):
        m = parse_model("3^5")
        cfg = VscaConfig(2)
        assert validate_config(m, cfg) is cfg

    def test_redundant_sub_warns(self):
        m = parse_model("3^5")
        cfg = VscaConfig(3, (SubConfig((1, 2, 3), 2),))
        with pytest.warns(UserWarning, match="redundant"):
            validate_config(m, cfg)

    def test_strength_above_k_fails(self):
        with pytest.raises(ConfigError, match="main strength"):
            validate_config(parse_model("3^5"), VscaConfig(6))

    def test_strength_below_one_fails(self):
        with pytest.raises(ConfigError):
            validate_config(parse_model("3^5"), VscaConfig(0))

    def test_duplicate_sub_index_fails(self):
        cfg = VscaConfig(2, (SubConfig((1, 1, 2), 3),))
        with pytest.raises(ConfigError, match="duplicate"):
            validate_config(parse_model("3^5"), cfg)

    def test_sub_index_out_of_range_fails(self):
        cfg = VscaConfig(2, (SubConfig((3, 4, 5), 3),))
        with pytest.raises(ConfigError, match="outside"):
            validate_config(parse_model("3^5"), cfg)

    def test_sub_strength_above_pool_fails(self):
        cfg = VscaConfig(2, (SubConfig((0, 1), 3),))
        with pytest.raises(ConfigError, match="strength"):
            validate_config(parse_model("3^5"), cfg)

    def test_idempotent(self):
        m = parse_model("3^5")
        cfg = VscaConfig(2, (SubConfig((0, 1, 2), 3),))
        once = validate_config(m, cfg)
        assert validate_config(m, once) == once

    def test_overlapping_subs_are_allowed(self):
        m = parse_model("3^6")
        cfg = VscaConfig(2, (SubConfig((0, 1, 2, 3), 3), SubConfig((2, 3, 4, 5), 3)))
        assert validate_config(m, cfg) is cfg


class TestCheckConfigTupleCount:
    # Each demand's tuple count is taken in closed form; listing a
    # combination to take it would be a bug, so listing one raises here.
    @pytest.fixture(autouse=True)
    def enumerate_nothing(self, monkeypatch):
        def combinations(*args):
            raise AssertionError("combinations enumerated")

        monkeypatch.setattr(itertools, "combinations", combinations)

    # (2**26 - 1) * (2**26 + 1) = 2**52 - 1 pairs pass; 2**26 * 2**26 = 2**52 do not.
    @pytest.mark.parametrize("below,at,config", [
        ((2**26 - 1, 2**26 + 1), (2**26, 2**26), VscaConfig(2)),
        # Main strength 1 demands about 2**27 tuples; the sub's pairs meet the bound.
        ((2, 2**26 - 1, 2**26 + 1), (2, 2**26, 2**26), VscaConfig(1, (SubConfig((2, 1), 2),))),
    ], ids=["main-strength", "sub-config"])
    def test_a_demand_is_refused_from_2_52_tuples(self, below, at, config):
        check_config(SutModel(below), config)
        with pytest.raises(ConfigError) as err:
            check_config(SutModel(at), config)
        assert str(err.value) == f"{2**52} required tuples; the tuple store holds fewer than 2**52"
