"""The benchmark's own output check.

It parses suite files and recounts their coverage with numpy, sharing no
code with ``vscit.tuples`` or ``vscit.verify``: a defect in the program's
store or oracle cannot hide itself here.
"""

from __future__ import annotations

import itertools

import numpy as np

# Upper bound on the entries of one gathered (cases, combos, length) block,
# so that the recount of a large suite adds a few MB to the process's peak
# memory, far below what the oracle itself needs.
_CHUNK_ENTRIES = 200_000


def parse_model_spec(spec: str) -> list[int]:
    """Exponent notation ("3^15", "4^3 5^3 6^2") to a list of level counts."""
    levels: list[int] = []
    for term in spec.split():
        value, _, count = term.partition("^")
        levels += [int(value)] * int(count or 1)
    return levels


def parse_config_spec(text: str) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """"t=2; sub=0,1,2:3" to (main strength, [(indices, strength), ...])."""
    main = 0
    subs = []
    for part in filter(None, (p.strip() for p in text.split(";"))):
        key, _, value = part.partition("=")
        if key.strip() == "t":
            main = int(value)
        else:
            indices, _, strength = value.partition(":")
            subs.append((tuple(int(i) for i in indices.split(",")), int(strength)))
    return main, subs


def required_combinations(k: int, main: int, subs) -> list[tuple[int, ...]]:
    """Every distinct parameter combination the configuration demands."""
    combos = set(itertools.combinations(range(k), main))
    for indices, strength in subs:
        combos.update(itertools.combinations(sorted(indices), strength))
    return sorted(combos)


def recount(levels, main: int, subs, cases: np.ndarray) -> tuple[int, int]:
    """(required, covered) tuple counts of ``cases`` under the configuration.

    Each required tuple gets a mixed-radix id, offset per combination; a
    case covers the ids of its projections, marked in one boolean mask per
    combination length.
    """
    levels = np.asarray(levels, dtype=np.int64)
    cases = np.asarray(cases, dtype=np.int64).reshape(-1, len(levels))
    by_length: dict[int, list] = {}
    for combo in required_combinations(len(levels), main, subs):
        by_length.setdefault(len(combo), []).append(combo)
    required = covered = 0
    for length, group in by_length.items():
        combos = np.array(group, dtype=np.int64)
        radix = levels[combos]
        strides = np.cumprod(radix[:, ::-1], axis=1)[:, ::-1]
        sizes = strides[:, 0].copy()
        strides = np.concatenate([strides[:, 1:], np.ones((len(combos), 1), np.int64)], axis=1)
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        mask = np.zeros(int(sizes.sum()), dtype=bool)
        step = max(1, _CHUNK_ENTRIES // max(1, len(cases) * length))
        for lo in range(0, len(combos), step):
            hi = lo + step
            ids = (cases[:, combos[lo:hi]] * strides[None, lo:hi]).sum(axis=2) + offsets[None, lo:hi]
            mask[ids.ravel()] = True
        required += mask.size
        covered += int(np.count_nonzero(mask))
    return required, covered


def parse_suite_text(text: str) -> tuple[str, str, np.ndarray]:
    """The ``# model:`` and ``# config:`` headers and the case matrix of a suite file."""
    model = config = None
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("model:"):
                model = body[len("model:"):].strip()
            elif body.startswith("config:"):
                config = body[len("config:"):].strip()
        elif line:
            rows.append([int(x) for x in line.split(",")])
    if model is None or config is None:
        raise ValueError("suite file lacks a '# model:' or '# config:' header")
    return model, config, np.array(rows, dtype=np.int64)


def check_suite_text(text: str, model_spec: str, config_spec: str) -> tuple[list[str], int]:
    """Problems with a generated suite file, and its case count.

    A suite passes when its headers name the requested model and config,
    every case is a legal value vector, and it covers every required tuple
    of the main strength and of each sub-configuration.
    """
    try:
        model, config, cases = parse_suite_text(text)
    except ValueError as exc:
        return [f"unparseable suite: {exc}"], 0
    levels = parse_model_spec(model_spec)
    main, subs = parse_config_spec(config_spec)
    problems = []
    if parse_model_spec(model) != levels:
        problems.append(f"model header {model!r} is not {model_spec!r}")
    if parse_config_spec(config) != (main, subs):
        problems.append(f"config header {config!r} is not {config_spec!r}")
    if len(cases) == 0:
        return problems + ["suite has no cases"], 0
    if cases.shape[1] != len(levels):
        return problems + [f"cases have {cases.shape[1]} values, model has {len(levels)}"], len(cases)
    if (cases < 0).any() or (cases >= np.asarray(levels)).any():
        return problems + ["a case value is outside its parameter's levels"], len(cases)
    required, covered = recount(levels, main, subs, cases)
    if covered != required:
        problems.append(f"covers {covered} of {required} required tuples")
    return problems, len(cases)
