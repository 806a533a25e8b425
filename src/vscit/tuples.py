"""Interaction-tuple bookkeeping: the store of uncovered tuples."""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable

import numpy as np

from .model import SutModel, TestCase, VscaConfig, check_case, check_config

# The bias that lifts every id into [2**52, 2**53), where float64 spacing is 1.
_BIAS_ID = 2**52
_BIAS_BITS = np.float64(_BIAS_ID).view(np.int64)
# Place values of the sort key are reduced modulo the largest prime below
# 2**53: every one is then an exact float64, and no key can reach inf or NaN.
_KEY_PRIME = 2**53 - 111
# Open combinations from which counts sorts each call's rows to score each
# distinct row once, for a store with no score table: a break-even sweep over
# 80 rows found the sort and the row comparison paying for themselves from
# about here on, while up to 60% of the rows are distinct.
_DEDUP_MIN_COMBINATIONS = 256
# The most cases a box may hold for a store that starts wide to keep one score
# per case for life: 8 MiB of table. Past it, counts sorts each call's rows.
_TABLE_MAX_CASES = 2**20


class TupleStore:
    """Every required (combination, value tuple) pair as one packed id.

    Combinations are laid out in sorted order, lengths mixed, and each one's
    value tuples in mixed-radix order (first index most significant), so id
    order is (combination, tuple) order. ``uncovered`` holds one flag per id.
    Scoring uses a (k + 1, m) stride matrix with one column per combination
    that still has an uncovered tuple: each parameter it holds gets its
    stride, every other parameter 0, and the last row holds the
    combination's first id plus 2**52. A case with a 1 appended, times the
    matrix, is its id in each combination plus that bias, and a float64 in
    [2**52, 2**53) carries its integer part in the low bits, so viewing the
    product as int64 and subtracting the bias's bits leaves the ids; the last row
    also finds an id's column, whose strides decode its values. A column leaves with
    its combination's last tuple, so per-case work shrinks. Ids must stay below 2**52
    for this to be exact; a larger model is refused. The mask changes only through
    remove_covered, so equal cases always score the same. A store that starts
    wide over a box of at most _TABLE_MAX_CASES cases keeps a score table for
    life, indexed by the case's number in the box, and scores each distinct
    case once between two remove_covered calls; remove_covered resets the
    entries written since its last call. Any other store scores each distinct
    case once per call while it is wide.
    """

    def __init__(self, model: SutModel, combinations: Iterable[tuple[int, ...]]):
        self.model = model
        self._keys = sorted(set(map(tuple, combinations)))
        sizes = [math.prod(model.param_levels[i] for i in key) for key in self._keys]
        total = sum(sizes)
        if total >= _BIAS_ID:
            raise ValueError(f"{total} required tuples; the tuple store holds fewer than 2**52")
        sizes = np.array(sizes, dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        self.uncovered = np.ones(total, dtype=bool)
        # Per open combination: its stride column, biased first id and uncovered count.
        self._strides = np.zeros((model.k + 1, len(self._keys)))
        for j, key in enumerate(self._keys):
            stride = 1
            for i in reversed(key):
                self._strides[i, j] = stride
                stride *= model.param_levels[i]
        self._strides[-1] = starts + _BIAS_ID
        self._left = sizes
        place, radix = 1, []
        for v in reversed(model.param_levels):
            radix.append(place)
            place = place * v % _KEY_PRIME
        self._radix = np.array(radix[::-1], dtype=float)
        # One score per case number, -1 until scored, and the numbers written
        # since the mask last changed. In a box this small no place value is
        # reduced, so a case's number is exact.
        box = math.prod(model.param_levels)
        self._table = None
        self._written = []
        if len(self._keys) >= _DEDUP_MIN_COMBINATIONS and box <= _TABLE_MAX_CASES:
            self._table = np.full(box, -1, dtype=np.intp)

    @property
    def remaining_count(self) -> int:
        """Uncovered tuples: the sum of the open combinations' counts."""
        return int(self._left.sum())

    @property
    def open_combinations(self) -> int:
        """Combinations that still have an uncovered tuple."""
        return len(self._left)

    def _ids(self, cases: np.ndarray) -> np.ndarray:
        """(n, m) ids of each case's projection onto each open combination."""
        cases = np.asarray(cases)
        n, k = cases.shape
        lifted = np.empty((n, k + 1))
        lifted[:, :k] = cases
        lifted[:, k] = 1.0
        # Exact: every product and partial sum is an integer below
        # 2**52 plus the store's tuple count, so below 2**53.
        ids = (lifted @ self._strides).view(np.int64)
        ids -= _BIAS_BITS
        return ids

    def _scores(self, cases: np.ndarray) -> np.ndarray:
        return self.uncovered.take(self._ids(cases)).sum(axis=1)

    def counts(self, cases: np.ndarray) -> np.ndarray:
        """Uncovered tuples hit by each row of an (n, k) integer-valued case matrix.

        Every row must lie in the model's case box. A store with a score table
        indexes it by each row's number in the box, exact there, at any width,
        and scores only the distinct rows whose entry is still -1, so a row
        scored by an earlier call since the last remove_covered costs one
        gather. A store without one scores every row while fewer than
        _DEDUP_MIN_COMBINATIONS combinations are open: finding the repeats
        would cost more than the product and gather they save. Above the gate
        it scores each distinct row once per call: the rows are sorted by a
        key, the case's mixed-radix number with its place values reduced
        modulo a prime, and adjacent sorted rows are compared value by value
        (so -0.0 equals 0.0); the first row of each run of equal rows is
        scored for the whole run. The key only brings equal rows together. It
        may round or collide on a wide model, but the row comparison decides
        what is equal, so every score is exact.
        """
        cases = np.asarray(cases)
        if self._table is not None:
            numbers = (cases @ self._radix).astype(np.intp)
            new = self._table.take(numbers) < 0
            if new.any():
                fresh, first = np.unique(numbers[new], return_index=True)
                self._written.append(fresh)
                self._table[fresh] = self._scores(cases[new][first])
            return self._table.take(numbers)
        if len(self._left) < _DEDUP_MIN_COMBINATIONS:
            return self._scores(cases)
        order = (cases @ self._radix).argsort()
        ordered = cases.take(order, axis=0)
        first = np.empty(len(cases), dtype=bool)
        first[:1] = True
        first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        counts = np.empty(len(cases), dtype=np.intp)
        counts[order] = self._scores(ordered.compress(first, axis=0))[first.cumsum() - 1]
        return counts

    def uncovered_rows(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Uncovered tuples in id order, (n, k) int64, -1 where a tuple's combination is free.

        Given ids of uncovered tuples, only those are decoded, in the order given.
        """
        if ids is None:
            ids = np.flatnonzero(self.uncovered)
        biased = self._strides[-1].astype(np.int64)  # exact below 2**53, and in id order
        col = np.searchsorted(biased, ids + _BIAS_ID, side="right") - 1
        strides = self._strides[:-1, col].T.astype(np.int64)
        values = (ids + _BIAS_ID - biased[col])[:, None] // np.maximum(strides, 1)
        return np.where(strides > 0, values % self.model.param_levels, -1)


def build_tuple_store(model: SutModel, config: VscaConfig) -> TupleStore:
    """Every required combination paired with its full product of value tuples.

    Once check_config passes, which also refuses any one demand of 2**52
    tuples or more before a combination is listed, the main strength
    contributes all t-combinations over every parameter and each
    sub-configuration the s-combinations of its own index pool, by
    itertools.combinations. A combination demanded by more than one source
    is stored once, so nothing is counted twice; a union past the bound is
    refused by the store once the combinations are listed.
    """
    check_config(model, config)
    demands = [(range(model.k), config.main_strength)]
    demands += [(sorted(sub.indices), sub.strength) for sub in config.sub_configs]
    return TupleStore(model, itertools.chain.from_iterable(
        itertools.combinations(pool, strength) for pool, strength in demands))


def remove_covered(case: TestCase, store: TupleStore) -> int:
    """Mark every tuple the case covers as covered and return how many were new.

    Combinations left with no uncovered tuple drop out of the stride matrix,
    and the score table's written entries go back to -1.
    """
    check_case(store.model, case)
    ids = store._ids([case])[0]
    hit = store.uncovered[ids]
    store.uncovered[ids[hit]] = False
    if store._written:
        store._table[np.concatenate(store._written)] = -1
        store._written.clear()
    store._left -= hit
    if not store._left.all():
        keep = store._left > 0
        store._strides = store._strides[:, keep]
        store._left = store._left[keep]
    return int(np.count_nonzero(hit))
