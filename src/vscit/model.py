"""System-under-test models, variable-strength configurations, test suites.

Parameters are indexed 0..k-1 and values 0..v_i-1 everywhere, including in
file formats. Models use exponent notation ("3^15", "4^3 5^3 6^2"),
configurations the text form "t=2; sub=0,1,2:3; sub=3,4:2".
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass
from string import whitespace
from typing import NamedTuple

import numpy as np


class ParseError(ValueError):
    """A model spec, configuration string, or suite file failed to parse."""


class ConfigError(ValueError):
    """A variable-strength configuration violates its bounds."""


# Any character but ASCII digits, "-", "," and ASCII whitespace.
_NOT_INTEGER_TEXT = re.compile(r"[^0-9,\- \t\n\r\v\f]")
# No tuple store holds this many ids: those of a parameter with this many
# levels, or of a demand with this many tuples.
_LEVEL_BOUND = 2**52


def parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated ASCII digits, each after an optional "-", with ASCII
    whitespace around; int() would also read "+1", "0_1" or "\u0662"."""
    if _NOT_INTEGER_TEXT.search(text):
        raise ValueError(f"not an integer: {text!r}")
    return tuple(map(int, text.split(",")))


def parse_int_rows(lines: list[str]) -> np.ndarray:
    """parse_ints' values of non-blank lines (loadtxt skips a blank one) as an
    (n, fields) int64 array, read by numpy's C reader, no comment character.
    Ragged lines or a value past int64 raise ValueError (or OverflowError);
    numpy 1.24 warns as it casts the latter, so a warning raises too."""
    if isinstance(lines, str):
        raise TypeError("parse_int_rows takes a list of lines; loadtxt would open a str as a path")
    if _NOT_INTEGER_TEXT.search(",".join(lines)):
        raise ValueError(f"not an integer: {lines!r}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = np.loadtxt(lines, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
    if caught:
        raise ValueError(f"not read exactly: {caught[0].message}")
    return rows


def parse_int(text: str) -> int:
    """One integer in the form parse_ints reads."""
    (value,) = parse_ints(text)
    return value


def is_integer_type(kind: type) -> bool:
    """An int or a numpy integer; never a bool, which int() reads as 0 or 1."""
    return kind is int or issubclass(kind, np.integer)


def _as_int(value, what: str) -> int:
    if not is_integer_type(type(value)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SutModel:
    """The system under test: one entry per parameter giving its value count."""

    param_levels: tuple[int, ...]

    def __post_init__(self):
        levels = tuple(_as_int(v, "a level count") for v in self.param_levels)
        if not levels:
            raise ValueError("a model needs at least one parameter")
        if any(not 1 <= v < _LEVEL_BOUND for v in levels):
            raise ValueError(f"every parameter needs 1 to 2**52 - 1 values, got {levels}")
        object.__setattr__(self, "param_levels", levels)

    @property
    def k(self) -> int:
        return len(self.param_levels)

    def render(self) -> str:
        """Exponent notation, runs of equal counts grouped left to right."""
        terms = []
        for value, group in itertools.groupby(self.param_levels):
            n = len(list(group))
            terms.append(f"{value}^{n}" if n > 1 else str(value))
        return " ".join(terms)


class SubConfig(NamedTuple):
    indices: tuple[int, ...]
    strength: int


@dataclass(frozen=True)
class VscaConfig:
    """Main interaction strength plus optional higher-strength sub-configurations."""

    main_strength: int
    sub_configs: tuple[SubConfig, ...] = ()

    def __post_init__(self):
        subs = tuple(
            SubConfig(tuple(_as_int(i, "sub index") for i in indices), _as_int(s, "sub strength"))
            for indices, s in self.sub_configs
        )
        object.__setattr__(self, "main_strength", _as_int(self.main_strength, "main strength"))
        object.__setattr__(self, "sub_configs", subs)

    def render(self) -> str:
        parts = [f"t={self.main_strength}"]
        parts += [
            f"sub={','.join(map(str, sub.indices))}:{sub.strength}"
            for sub in self.sub_configs
        ]
        return "; ".join(parts)


TestCase = tuple[int, ...]


def check_case(model: SutModel, case: TestCase) -> None:
    """Raise ValueError unless the case holds one integer (is_integer_type)
    per parameter, each a legal level index for the model."""
    if len(case) != model.k:
        raise ValueError(f"case has {len(case)} values, model has {model.k} parameters")
    for i, (x, v) in enumerate(zip(case, model.param_levels)):
        if not is_integer_type(type(x)):
            raise ValueError(f"value {x!r} at index {i} is not an integer")
        if not 0 <= x < v:
            raise ValueError(f"value {x} at index {i} outside 0..{v - 1}")


class CaseError(ValueError):
    """A suite case the model cannot hold, at position index in the suite."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"case {index}: {reason}")
        self.index = index
        self.reason = reason


@dataclass(frozen=True, eq=False)
class TestSuite:
    """A generated array: every case validated against the owning model.

    The cases, integer sequences or a 2-D integer ndarray, are checked all
    at once as one int64 array against the level counts; only a suite that
    fails is scanned case by case with check_case, which raises CaseError
    for the first case at fault. An ndarray has its dtype checked once, not
    each value's type. cases keeps them as one read-only (n, k) int64 array.
    """

    model: SutModel
    config: VscaConfig
    cases: np.ndarray

    def __post_init__(self):
        cases = self.cases
        k = self.model.k
        values = None
        if (isinstance(cases, np.ndarray) and cases.ndim == 2 and cases.shape[1] == k
                and cases.dtype.kind in "iu" and np.can_cast(cases.dtype, np.int64)):
            values = cases.astype(np.int64)
        else:
            cases = tuple(cases)
            # The types are checked first: the int64 array alone would read
            # 1.7, True and "1" all as 1.
            if set(map(len, cases)) <= {k} and all(
                    map(is_integer_type, set(map(type, itertools.chain.from_iterable(cases))))):
                try:
                    values = np.array(cases, dtype=np.int64).reshape(len(cases), k)
                except OverflowError:
                    pass
        if values is None or ((values < 0) | (values >= self.model.param_levels)).any():
            # Some case fails here: a value past int64 is past every level count.
            for index, case in enumerate(cases):
                try:
                    check_case(self.model, case)
                except ValueError as exc:
                    raise CaseError(index, str(exc)) from None
        values.flags.writeable = False
        object.__setattr__(self, "cases", values)

    def __eq__(self, other):
        # A dataclass __eq__ would ask numpy for the truth value of an array.
        if not isinstance(other, TestSuite):
            return NotImplemented
        return ((self.model, self.config) == (other.model, other.config)
                and np.array_equal(self.cases, other.cases))

    def __len__(self) -> int:
        return len(self.cases)


def parse_model(spec: str) -> SutModel:
    """Parse exponent notation: "3^15" means fifteen 3-level parameters.

    Terms are ASCII-whitespace separated; a bare integer is a single
    parameter. "4^3 5^3 6^2" expands left to right to [4,4,4,5,5,5,6,6].
    """
    terms = re.findall(r"[^ \t\n\r\v\f]+", spec)  # str.split() also splits at "\xa0"
    if not terms:
        raise ParseError("empty model spec")
    levels: list[int] = []
    for term in terms:
        head, sep, tail = term.partition("^")
        try:
            value = parse_int(head)
            count = parse_int(tail) if sep else 1
        except ValueError:
            raise ParseError(f"bad model term {term!r}") from None
        if not 1 <= value < _LEVEL_BOUND:
            raise ParseError(f"bad model term {term!r}: value count must be in 1..2**52 - 1")
        if count < 1:
            raise ParseError(f"bad model term {term!r}: repeat count must be >= 1")
        levels.extend([value] * count)
    return SutModel(tuple(levels))


def parse_sub(text: str) -> SubConfig:
    """Parse one sub-configuration "0,1,2:3": parameter indices, then strength."""
    idx_text, sep, s_text = text.partition(":")
    if not sep:
        raise ParseError(f"bad sub-config {'sub=' + text!r}, expected indices:strength")
    try:
        return SubConfig(parse_ints(idx_text), parse_int(s_text))
    except ValueError:
        raise ParseError(f"bad sub-config {'sub=' + text!r}") from None


def parse_config(text: str) -> VscaConfig:
    """Parse "t=2; sub=0,1,2:3; sub=3,4:2" into a VscaConfig."""
    main: int | None = None
    subs: list[SubConfig] = []
    for raw in text.split(";"):
        part = raw.strip(whitespace)
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip(whitespace)
        if not sep:
            raise ParseError(f"bad config part {part!r}")
        if key == "t":
            if main is not None:
                raise ParseError("duplicate 't=' in config")
            try:
                main = parse_int(value)
            except ValueError:
                raise ParseError(f"bad main strength {value!r}") from None
        elif key == "sub":
            subs.append(parse_sub(value))
        else:
            raise ParseError(f"unknown config key {key!r}")
    if main is None:
        raise ParseError("config must set the main strength, e.g. 't=2'")
    return VscaConfig(main, tuple(subs))


def check_config(model: SutModel, config: VscaConfig) -> None:
    """Raise ConfigError unless the model can hold every combination the
    configuration demands: strengths in range, indices distinct and in range,
    and fewer than 2**52 tuples, the tuple store's bound, summed over the demands.

    A demand is the main strength over every parameter or one
    sub-configuration. Its tuple count is the elementary symmetric sum of
    its pool's level counts at its strength, so no combination is listed to
    take it. The sum counts a combination once per demand that holds it, so
    it bounds the union the store would hold from above.
    """
    k = model.k
    t = config.main_strength
    if not 1 <= t <= k:
        raise ConfigError(f"main strength {t} outside 1..{k}")
    for sub in config.sub_configs:
        if len(set(sub.indices)) != len(sub.indices):
            raise ConfigError(f"duplicate parameter index in sub-config {sub.indices}")
        for i in sub.indices:
            if not 0 <= i < k:
                raise ConfigError(f"sub-config index {i} outside 0..{k - 1}")
        if not 0 < sub.strength <= len(sub.indices):
            raise ConfigError(
                f"sub-config strength {sub.strength} outside 1..{len(sub.indices)}"
            )
    total = 0
    for pool, strength in [(range(k), t), *config.sub_configs]:
        sums = [1] + [0] * strength
        for i in pool:
            for j in range(strength, 0, -1):
                sums[j] += sums[j - 1] * model.param_levels[i]
        total += sums[-1]
    if total >= _LEVEL_BOUND:
        raise ConfigError(f"{total} required tuples; the tuple store holds fewer than 2**52")


def validate_config(model: SutModel, config: VscaConfig) -> VscaConfig:
    """Check a configuration against a model; returns it unchanged when legal.

    A sub-configuration whose strength does not exceed the main strength is
    legal but adds nothing the main strength does not already imply, so it
    warns instead of failing.
    """
    check_config(model, config)
    t = config.main_strength
    for sub in config.sub_configs:
        if sub.strength <= t:
            warnings.warn(
                f"sub-config {sub.indices} at strength {sub.strength} is redundant: "
                f"main strength {t} already implies its coverage",
                stacklevel=2,
            )
    return config
