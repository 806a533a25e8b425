"""Interaction-tuple bookkeeping: parameter combinations and the uncovered store."""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .model import SutModel, TestCase, VscaConfig, check_case

ParamCombination = tuple[int, ...]


def generate_param_combinations(k: int, t: int) -> list[ParamCombination]:
    """All strictly increasing t-combinations of 0..k-1, in lexicographic order.

    Iterative depth-first walk over an explicit stack of candidate values;
    the stack never holds more than t entries, so large k cannot exhaust the
    call stack. Each pop resumes the prefix written at shallower depths.
    """
    if t < 1 or t > k:
        raise ValueError(f"strength t={t} outside 1..{k}")
    combos: list[ParamCombination] = []
    comb = [0] * t
    stack = [0]
    while stack:
        i = len(stack) - 1
        v = stack.pop()
        while v < k:
            comb[i] = v
            i += 1
            v += 1
            stack.append(v)
            if i == t:
                combos.append(tuple(comb))
                break
    return combos


class TupleStore:
    """Every required (combination, value tuple) pair as one packed id.

    Combinations are laid out in sorted order, lengths mixed, and each one's
    value tuples in mixed-radix order (first index most significant), so id
    order is (combination, tuple) order. ``uncovered`` holds one flag per id.
    Scoring arrays are grouped by combination length and hold only the
    combinations that still have an uncovered tuple: a combination leaves
    them with its last tuple, so the per-case work shrinks as coverage
    progresses.
    """

    def __init__(self, model: SutModel, combinations: Iterable[ParamCombination]):
        self.model = model
        self._keys = sorted(set(map(tuple, combinations)))
        sizes = np.array([math.prod(model.param_levels[i] for i in key) for key in self._keys],
                         dtype=np.int64)
        self._offsets = np.cumsum(sizes) - sizes
        self.initial_total = int(sizes.sum())
        self._remaining = self.initial_total
        self.uncovered = np.ones(self.initial_total, dtype=bool)
        levels = np.array(model.param_levels, dtype=np.int64)
        by_len: dict[int, list[int]] = {}
        for n, key in enumerate(self._keys):
            by_len.setdefault(len(key), []).append(n)
        # Per length, one row per live combination: its columns, the strides
        # and offset that turn a projection into an id, its uncovered count.
        self._groups = []
        for members in by_len.values():
            cols = np.array([self._keys[n] for n in members], dtype=np.int64)
            strides = np.ones_like(cols)
            strides[:, :-1] = np.cumprod(levels[cols][:, :0:-1], axis=1)[:, ::-1]
            self._groups.append((cols, strides, self._offsets[members], sizes[members]))

    @property
    def remaining_count(self) -> int:
        return self._remaining

    @property
    def open_combinations(self) -> int:
        """Combinations that still have an uncovered tuple."""
        return sum(len(left) for *_, left in self._groups)

    def counts(self, cases: np.ndarray) -> np.ndarray:
        """Uncovered tuples hit by each row of an (n, k) integer case matrix."""
        counts = np.zeros(len(cases), dtype=np.int64)
        for cols, strides, offsets, _ in self._groups:
            counts += self.uncovered[_ids(cases, cols, strides, offsets)].sum(axis=1)
        return counts

    def first_uncovered(self) -> tuple[ParamCombination, tuple[int, ...]]:
        """The smallest uncovered (combination, value tuple) pair."""
        if not self._remaining:
            raise ValueError("every tuple is covered")
        first = int(np.argmax(self.uncovered))
        n = int(np.searchsorted(self._offsets, first, side="right")) - 1
        key = self._keys[n]
        shape = [self.model.param_levels[i] for i in key]
        return key, tuple(int(x) for x in np.unravel_index(first - self._offsets[n], shape))


def _ids(cases: np.ndarray, cols, strides, offsets) -> np.ndarray:
    """(n, m) ids of each case's projection onto each of m combinations."""
    return (cases[:, cols] * strides).sum(axis=2) + offsets


def build_tuple_store(model: SutModel, config: VscaConfig) -> TupleStore:
    """Every required combination paired with its full product of value tuples.

    The main strength contributes all t-combinations over every parameter;
    each sub-configuration contributes the s-combinations drawn from its own
    index pool. A combination demanded by more than one source is stored
    once, so nothing is counted twice.
    """
    demands = [(tuple(range(model.k)), config.main_strength)]
    demands += [(tuple(sorted(sub.indices)), sub.strength) for sub in config.sub_configs]
    combinations = []
    for pool, strength in demands:
        for local in generate_param_combinations(len(pool), strength):
            combinations.append(tuple(pool[j] for j in local))
    return TupleStore(model, combinations)


def coverage_count(case: TestCase, store: TupleStore) -> int:
    """How many uncovered tuples this case's projections hit; read-only."""
    check_case(store.model, case)
    return int(store.counts(np.array([case], dtype=np.int64))[0])


def remove_covered(case: TestCase, store: TupleStore) -> int:
    """Mark every tuple the case covers as covered and return how many were new.

    Combinations left with no uncovered tuple drop out of the scoring arrays.
    """
    check_case(store.model, case)
    row = np.array([case], dtype=np.int64)
    removed = 0
    for g, (cols, strides, offsets, left) in enumerate(store._groups):
        ids = _ids(row, cols, strides, offsets)[0]
        hit = store.uncovered[ids]
        store.uncovered[ids[hit]] = False
        left[hit] -= 1
        removed += int(np.count_nonzero(hit))
        if not left.all():
            keep = left > 0
            store._groups[g] = (cols[keep], strides[keep], offsets[keep], left[keep])
    store._remaining -= removed
    return removed
