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
    Scoring uses a (k, m) stride matrix with one column per combination that
    still has an uncovered tuple: each parameter it holds gets its stride,
    every other parameter 0, so a case times the matrix, plus the offsets,
    is the case's id in each combination. A combination's column leaves the
    matrix with its last tuple, so the per-case work shrinks as coverage
    progresses.
    """

    def __init__(self, model: SutModel, combinations: Iterable[ParamCombination]):
        self.model = model
        self._keys = sorted(set(map(tuple, combinations)))
        sizes = np.array([math.prod(model.param_levels[i] for i in key) for key in self._keys],
                         dtype=np.int64)
        self._starts = np.cumsum(sizes) - sizes
        self.initial_total = int(sizes.sum())
        self._remaining = self.initial_total
        self.uncovered = np.ones(self.initial_total, dtype=bool)
        # Per open combination: its stride column, id offset and uncovered count.
        self._strides = np.zeros((model.k, len(self._keys)))
        for j, key in enumerate(self._keys):
            stride = 1
            for i in reversed(key):
                self._strides[i, j] = stride
                stride *= model.param_levels[i]
        self._offsets = self._starts
        self._left = sizes

    @property
    def remaining_count(self) -> int:
        return self._remaining

    @property
    def open_combinations(self) -> int:
        """Combinations that still have an uncovered tuple."""
        return len(self._left)

    def _ids(self, cases: np.ndarray) -> np.ndarray:
        """(n, m) ids of each case's projection onto each open combination."""
        # Exact: every product and partial sum is an integer below initial_total << 2**53.
        ids = (np.asarray(cases, dtype=np.float64) @ self._strides).astype(np.int64)
        ids += self._offsets
        return ids

    def counts(self, cases: np.ndarray) -> np.ndarray:
        """Uncovered tuples hit by each row of an (n, k) integer case matrix."""
        return np.count_nonzero(self.uncovered[self._ids(cases)], axis=1)

    def first_uncovered(self) -> tuple[ParamCombination, tuple[int, ...]]:
        """The smallest uncovered (combination, value tuple) pair."""
        if not self._remaining:
            raise ValueError("every tuple is covered")
        first = int(np.argmax(self.uncovered))
        n = int(np.searchsorted(self._starts, first, side="right")) - 1
        key = self._keys[n]
        shape = [self.model.param_levels[i] for i in key]
        return key, tuple(int(x) for x in np.unravel_index(first - self._starts[n], shape))


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

    Combinations left with no uncovered tuple drop out of the stride matrix.
    """
    check_case(store.model, case)
    ids = store._ids([case])[0]
    hit = store.uncovered[ids]
    store.uncovered[ids[hit]] = False
    store._left -= hit
    removed = int(np.count_nonzero(hit))
    if not store._left.all():
        keep = store._left > 0
        store._strides = store._strides[:, keep]
        store._offsets = store._offsets[keep]
        store._left = store._left[keep]
    store._remaining -= removed
    return removed
