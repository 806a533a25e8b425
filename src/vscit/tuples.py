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
# The biggest box whose wide store keeps one score per case for life (8 MiB): a
# call scores its rows still at -1, repeats and all. Past it, a box of fewer than
# 2**52 cases gets a keyed table, and only a bigger one sorts each call.
_TABLE_MAX_CASES = 2**20
# Slots of the keyed table (256 KiB with their owners): over four seeds of
# 3^15 t=2 and t=3, 2**12 slots cost 2-5% more CPU and 2**16 saved none. It answers
# calls while at least _KEYED_MIN_COMBINATIONS combinations are open: replayed
# calls found it cheaper than scoring every row from 48 on, dearer on some
# 80-row calls below 48, and 11-66% dearer on every search below 16.
_KEYED_SLOTS = 2**14
_KEYED_MIN_COMBINATIONS = 64


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
    life, indexed by the case's number in the box: a case is scored in one call
    between two remove_covered calls, which resets the entries written since
    its last call. One that starts with at least _KEYED_MIN_COMBINATIONS
    combinations over a bigger box of fewer than 2**52 cases, where a case's
    number is still exact, keeps a keyed table of _KEYED_SLOTS slots instead:
    a slot holds the number of the case that last claimed it and that case's
    score, so a case is scored again only after another case took its slot.
    Any other wide store scores each distinct case once per call.
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
        # One score per case number, -1 until scored, or per slot the owning
        # case's number, -1 while empty, and its score; and the numbers or slots
        # written since the mask last changed. In a box below 2**52 no place value
        # is reduced, so a case's number is exact.
        box = math.prod(model.param_levels)
        self._table = self._slot_cases = self._slot_scores = None
        self._written = []
        if len(self._keys) >= _DEDUP_MIN_COMBINATIONS and box <= _TABLE_MAX_CASES:
            self._table = np.full(box, -1, dtype=np.intp)
        elif len(self._keys) >= _KEYED_MIN_COMBINATIONS and box < _BIAS_ID:
            self._slot_cases = np.full(_KEYED_SLOTS, -1, dtype=np.int64)
            self._slot_scores = np.zeros(_KEYED_SLOTS, dtype=np.intp)

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
        and scores every row still at -1, repeats included (equal rows score
        equal); a row scored since the last remove_covered costs one gather. A
        store with a keyed table uses it while at least _KEYED_MIN_COMBINATIONS
        combinations are open: a row whose slot, its number's low bits, holds
        its own number reads the slot's score; every other row is scored,
        repeats included, and claims its slot. Below that width it scores every
        row. A store with neither scores every row while fewer than
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
            scores = self._table.take(numbers)
            new = scores < 0
            if new.any():
                fresh = numbers[new]
                self._written.append(fresh)
                scores[new] = self._table[fresh] = self._scores(cases[new])
            return scores
        if self._slot_cases is not None and len(self._left) >= _KEYED_MIN_COMBINATIONS:
            numbers = (cases @ self._radix).astype(np.int64)
            slots = numbers & (_KEYED_SLOTS - 1)
            scores = self._slot_scores.take(slots)
            new = np.flatnonzero(self._slot_cases.take(slots) != numbers)
            if len(new):
                fresh, numbers = slots.take(new), numbers.take(new)
                scores[new] = fresh_scores = self._scores(cases.take(new, axis=0))
                self._written.append(fresh)
                # Two new cases may share a slot: only the one whose number it
                # kept writes its score.
                self._slot_cases[fresh] = numbers
                kept = self._slot_cases.take(fresh) == numbers
                self._slot_scores[fresh[kept]] = fresh_scores[kept]
            return scores
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

    Once check_config passes, which also refuses demands of 2**52 tuples or
    more in sum before a combination is listed, the main strength
    contributes all t-combinations over every parameter and each
    sub-configuration the s-combinations of its own index pool, by
    itertools.combinations. A combination demanded by more than one source
    is stored once, so nothing is counted twice.
    """
    check_config(model, config)
    demands = [(range(model.k), config.main_strength)]
    demands += [(sorted(sub.indices), sub.strength) for sub in config.sub_configs]
    return TupleStore(model, itertools.chain.from_iterable(
        itertools.combinations(pool, strength) for pool, strength in demands))


def remove_covered(case: TestCase, store: TupleStore) -> int:
    """Mark every tuple the case covers as covered and return how many were new.

    Combinations left with no uncovered tuple drop out of the stride matrix,
    and the score table's written entries, or the keyed table's written slots,
    go back to -1.
    """
    check_case(store.model, case)
    ids = store._ids([case])[0]
    hit = store.uncovered[ids]
    store.uncovered[ids[hit]] = False
    if store._written:
        written = np.concatenate(store._written)
        (store._slot_cases if store._table is None else store._table)[written] = -1
        store._written.clear()
    store._left -= hit
    if not store._left.all():
        keep = store._left > 0
        store._strides = store._strides[:, keep]
        store._left = store._left[keep]
    return int(np.count_nonzero(hit))
