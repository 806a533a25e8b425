"""The uncovered-tuple store.

Brute-force oracles: itertools enumerations and plain nested recounts of
the required pairs, checked against the store's totals and counts.
"""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vscit.model import ConfigError, SubConfig, SutModel, VscaConfig, parse_model
from vscit.tuples import (
    _DEDUP_MIN_COMBINATIONS,
    _KEYED_MIN_COMBINATIONS,
    TupleStore,
    build_tuple_store,
    remove_covered,
)


def brute_force_pairs(model, config):
    """Required (combination, values) pairs, enumerated independently of the store."""
    pairs = set()
    demands = [(tuple(range(model.k)), config.main_strength)]
    demands += [(tuple(sorted(s.indices)), s.strength) for s in config.sub_configs]
    for pool, strength in demands:
        for combo in itertools.combinations(pool, strength):
            for values in itertools.product(*(range(model.param_levels[i]) for i in combo)):
                pairs.add((combo, values))
    return pairs


def brute_force_store_size(model, config):
    return len(brute_force_pairs(model, config))


def store_keys(model, config):
    return build_tuple_store(model, config)._keys


def ids_rows(monkeypatch):
    """A list that gets the row count of every later TupleStore._ids call."""
    sizes = []
    ids = TupleStore._ids
    monkeypatch.setattr(TupleStore, "_ids", lambda self, c: sizes.append(len(c)) or ids(self, c))
    return sizes


class TestStoreCombinations:
    """The combinations a store is keyed by, in the order ids are laid out."""

    def test_three_choose_two(self):
        assert store_keys(parse_model("2^3"), VscaConfig(2)) == [(0, 1), (0, 2), (1, 2)]

    def test_t_equals_k_single_combination(self):
        assert store_keys(parse_model("2^4"), VscaConfig(4)) == [(0, 1, 2, 3)]

    def test_fifteen_choose_two_matches_nested_loops(self):
        oracle = [(i, j) for i in range(15) for j in range(i + 1, 15)]
        got = store_keys(parse_model("3^15"), VscaConfig(2))
        assert len(got) == 105
        assert got == oracle

    @pytest.mark.parametrize("k", range(1, 11))
    def test_matches_lexicographic_enumeration(self, k):
        for t in range(1, k + 1):
            got = store_keys(SutModel((2,) * k), VscaConfig(t))
            assert got == list(itertools.combinations(range(k), t))

    def test_keys_are_sorted_and_duplicate_free(self):
        for k, t in [(6, 3), (8, 2), (7, 5)]:
            got = store_keys(SutModel((2,) * k), VscaConfig(t))
            assert len(set(got)) == len(got) == math.comb(k, t)
            assert got == sorted(got)
            assert all(list(c) == sorted(set(c)) for c in got)

    def test_sub_keys_are_pool_indices(self):
        # The sub's combinations name model parameters, not places in its pool.
        got = store_keys(parse_model("2^5"), VscaConfig(1, (SubConfig((1, 3, 4), 2),)))
        assert got == [(0,), (1,), (1, 3), (1, 4), (2,), (3,), (3, 4), (4,)]

    def test_sub_pool_order_does_not_matter(self):
        m = parse_model("2^6")
        in_order = store_keys(m, VscaConfig(2, (SubConfig((1, 3, 5), 3),)))
        shuffled = store_keys(m, VscaConfig(2, (SubConfig((5, 1, 3), 3),)))
        assert shuffled == in_order
        assert (1, 3, 5) in in_order

    def test_overlapping_subs_key_each_combination_once(self):
        cfg = VscaConfig(2, (SubConfig((0, 1, 2), 3), SubConfig((0, 1, 2, 3), 3)))
        got = store_keys(parse_model("2^4"), cfg)
        oracle = sorted(set(itertools.combinations(range(4), 2))
                        | set(itertools.combinations(range(4), 3)))
        assert got == oracle

    def test_uncovered_rows_follow_key_order(self):
        store = build_tuple_store(parse_model("2^3"), VscaConfig(1, (SubConfig((0, 2), 2),)))
        assert store.uncovered_rows()[0].tolist() == [0, -1, -1]
        remove_covered((0, 0, 0), store)
        remove_covered((1, 1, 1), store)
        assert store.uncovered_rows().tolist() == [[0, -1, 1], [1, -1, 0]]

    def test_uncovered_rows_of_a_fully_covered_store_are_empty(self):
        store = build_tuple_store(parse_model("2^2"), VscaConfig(2))
        for case in itertools.product((0, 1), repeat=2):
            remove_covered(case, store)
        rows = store.uncovered_rows()
        assert (rows.shape, rows.dtype) == ((0, 2), np.int64)


class TestBuildTupleStore:
    def test_pairwise_three_level_five_param(self):
        store = build_tuple_store(parse_model("3^5"), VscaConfig(2))
        assert store.remaining_count == 90  # 10 column pairs, 9 value pairs each
        assert store.open_combinations == 10

    def test_full_factorial_two_binary_params(self):
        store = build_tuple_store(parse_model("2^2"), VscaConfig(2))
        assert store.open_combinations == 1
        assert store.remaining_count == 4

    def test_main_plus_sub_counts_union(self):
        cfg = VscaConfig(3, (SubConfig((1, 2, 3), 2),))
        store = build_tuple_store(parse_model("3^5"), cfg)
        assert store.remaining_count == 297  # 10*27 main + 3*9 sub, disjoint keys
        assert store.remaining_count == brute_force_store_size(parse_model("3^5"), cfg)

    def test_sub_at_main_strength_is_absorbed(self):
        m = parse_model("3^5")
        plain = build_tuple_store(m, VscaConfig(2))
        doubled = build_tuple_store(m, VscaConfig(2, (SubConfig((0, 1, 2), 2),)))
        assert doubled.remaining_count == plain.remaining_count

    def test_overlapping_subs_union(self):
        m = parse_model("2^4")
        cfg = VscaConfig(2, (SubConfig((0, 1, 2), 3), SubConfig((1, 2, 3), 3)))
        store = build_tuple_store(m, cfg)
        assert store.remaining_count == brute_force_store_size(m, cfg)

    def test_uniform_totals_match_closed_form(self):
        for k in range(1, 7):
            for v in range(1, 5):
                model = SutModel((v,) * k)
                for t in range(1, k + 1):
                    store = build_tuple_store(model, VscaConfig(t))
                    assert store.remaining_count == math.comb(k, t) * v**t, (k, v, t)

    @pytest.mark.parametrize("config", [
        VscaConfig(2, (SubConfig((0, 0), 2),)),
        VscaConfig(2, (SubConfig((-1, 0), 2),)),
        VscaConfig(2, (SubConfig((0, 7), 2),)),
        VscaConfig(0),
        VscaConfig(4),
        VscaConfig(2, (SubConfig((0, 1), 3),)),
    ], ids=["repeated-index", "negative-index", "index-past-k", "t=0", "t>k", "s>pool"])
    def test_config_the_model_cannot_hold_is_refused(self, config):
        # A repeated index would key a combination (0, 0), and index -1 would
        # write a stride into the bias row.
        with pytest.raises(ConfigError):
            build_tuple_store(parse_model("2^3"), config)


def count(case, store):
    """Uncovered tuples one case hits, through the store's batch scorer."""
    return int(store.counts(np.array([case]))[0])


class TestCoverageCountAndRemoval:
    def test_fresh_store_count_is_one_per_combination(self):
        store = build_tuple_store(parse_model("3^5"), VscaConfig(2))
        assert count((0, 0, 0, 0, 0), store) == 10

    def test_empty_store_counts_zero(self):
        store = TupleStore(parse_model("3^5"), [])
        assert count((0, 0, 0, 0, 0), store) == 0

    def test_remove_then_recount(self):
        store = build_tuple_store(parse_model("3^5"), VscaConfig(2))
        case = (0, 0, 0, 0, 0)
        assert remove_covered(case, store) == 10
        assert store.remaining_count == 80
        assert count(case, store) == 0
        assert remove_covered(case, store) == 0

    def test_exhausting_single_entry_drops_it(self):
        store = TupleStore(parse_model("3^2"), [(0, 1)])
        for case in itertools.product(range(3), range(3)):
            if case != (2, 2):
                remove_covered(case, store)
        assert store.open_combinations == 1
        assert remove_covered((2, 2), store) == 1
        assert store.open_combinations == 0
        assert store.remaining_count == 0

    def test_ids_past_float32_precision_are_exact(self):
        # 25M ids; the last, 24,999,999, lies past 2**24, where float32 would round.
        store = build_tuple_store(SutModel((5000, 5000)), VscaConfig(2))
        case = (4999, 4999)
        assert count(case, store) == 1
        assert remove_covered(case, store) == 1
        assert count(case, store) == 0
        assert count((4999, 4998), store) == 1
        assert not store.uncovered[-1] and store.uncovered[:-1].all()
        # Decoding the full mask would take over 1 GB; a mask of three ids, one past 2**24, will do.
        store.uncovered = np.zeros_like(store.uncovered)
        store.uncovered[[0, 2**24 + 1, 24_999_998]] = True
        assert store.uncovered_rows().tolist() == [[0, 0], [3355, 2217], [4999, 4998]]

    def test_ids_from_two_to_the_52_are_refused_before_any_allocation(self):
        # Ids ride in float64s biased by 2**52, exact only below 2**53; this
        # model has exactly 2**52 ids, and its mask alone would be 4 PiB.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=str(2**52)):
                build_tuple_store(SutModel((2**26, 2**26)), VscaConfig(2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_demand_past_the_bound_is_refused_before_enumeration(self, monkeypatch):
        # C(100, 50) combinations would never finish enumerating; the count is closed-form.
        def enumerate_nothing(*args):
            raise AssertionError("combinations enumerated")

        monkeypatch.setattr(itertools, "combinations", enumerate_nothing)
        total = math.comb(100, 50) * 2**50
        with pytest.raises(ValueError, match=f"^{total} required tuples; "):
            build_tuple_store(SutModel((2,) * 100), VscaConfig(50))

    def test_a_union_past_the_bound_is_refused_though_no_demand_is(self):
        # Each sub demands 2**52 - 2**26 tuples; with the main strength's they pass the bound.
        cfg = VscaConfig(1, (SubConfig((0, 1), 2), SubConfig((0, 2), 2)))
        total = 2 * (2**52 - 2**26) + 2**26 + 2 * (2**26 - 1)
        with pytest.raises(ValueError, match=f"^{total} required tuples; "):
            build_tuple_store(SutModel((2**26, 2**26 - 1, 2**26 - 1)), cfg)

    @pytest.mark.parametrize("case", [(2, 0, 0), (0, -1, 0), (0, 0)])
    def test_case_outside_the_model_raises(self, case):
        # A value past its level would otherwise alias another combination's id.
        store = build_tuple_store(parse_model("2^3"), VscaConfig(2))
        with pytest.raises(ValueError):
            remove_covered(case, store)
        assert store.remaining_count == 12

    def test_count_is_pure(self):
        store = build_tuple_store(parse_model("2^3"), VscaConfig(2))
        remove_covered((0, 0, 0), store)
        before = store.uncovered.copy()
        count((1, 0, 1), store)
        np.testing.assert_array_equal(store.uncovered, before)
        assert (store.remaining_count, store.open_combinations) == (9, 3)

    @given(st.data())
    @settings(max_examples=60)
    def test_count_matches_removal(self, data):
        k = data.draw(st.integers(2, 5))
        levels = data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
        t = data.draw(st.integers(1, k))
        model = SutModel(tuple(levels))
        store = build_tuple_store(model, VscaConfig(t))
        for _ in range(data.draw(st.integers(0, 4))):
            warm = tuple(data.draw(st.integers(0, v - 1)) for v in levels)
            remove_covered(warm, store)
        case = tuple(data.draw(st.integers(0, v - 1)) for v in levels)
        counted = count(case, store)
        assert counted == remove_covered(case, store)

    def test_conservation_over_full_coverage(self):
        model = parse_model("2^4")
        store = build_tuple_store(model, VscaConfig(2))
        required = store.remaining_count
        total = 0
        for case in itertools.product(*(range(v) for v in model.param_levels)):
            total += remove_covered(case, store)
        assert total == required
        assert store.remaining_count == 0
        assert store.open_combinations == 0
        assert not store.uncovered.any()

    def test_remaining_count_tracks_set_sizes(self):
        store = build_tuple_store(parse_model("3^4"), VscaConfig(2))
        remove_covered((0, 1, 2, 0), store)
        remove_covered((1, 1, 1, 1), store)
        assert store.remaining_count == int(store.uncovered.sum()) == 54 - 12


class TestUncoveredRows:
    @given(st.data())
    @settings(max_examples=80)
    def test_rows_match_a_brute_force_decode(self, data):
        k = data.draw(st.integers(1, 5))
        levels = data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
        pools = data.draw(st.lists(st.sets(st.integers(0, k - 1), min_size=1), max_size=4))
        keys = sorted({tuple(sorted(pool)) for pool in pools})
        store = TupleStore(SutModel(tuple(levels)), keys)
        uncovered = {(key, values) for key in keys
                     for values in itertools.product(*(range(levels[i]) for i in key))}
        for _ in range(data.draw(st.integers(0, 6))):
            case = tuple(data.draw(st.integers(0, v - 1)) for v in levels)
            remove_covered(case, store)
            uncovered -= {(key, tuple(case[i] for i in key)) for key in keys}
        want = []
        for key, values in sorted(uncovered):
            row = [-1] * k
            for i, value in zip(key, values):
                row[i] = value
            want.append(row)
        rows = store.uncovered_rows()
        assert (rows.shape, rows.dtype) == ((len(want), k), np.int64)
        assert rows.tolist() == want
        # Filled at its free parameters, each row is a case whose ids include its own.
        fill = np.array([data.draw(st.integers(0, v - 1)) for v in levels])
        ids = store._ids(np.where(rows < 0, fill, rows))
        np.testing.assert_array_equal((ids == np.flatnonzero(store.uncovered)[:, None]).sum(axis=1), 1)


class TestBatchCounts:
    """The packed store against an itertools recount of a partial store."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_counts_match_itertools_recount(self, data):
        k = data.draw(st.integers(3, 6))
        levels = tuple(data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
        model = SutModel(levels)
        pool = sorted(data.draw(st.sets(st.integers(0, k - 1), min_size=3, max_size=k)))
        sub_strength = data.draw(st.integers(2, len(pool)))
        config = VscaConfig(1, (SubConfig(tuple(pool), sub_strength),))
        case_strategy = st.tuples(*(st.integers(0, v - 1) for v in levels))
        store = build_tuple_store(model, config)
        uncovered = brute_force_pairs(model, config)
        for warm in data.draw(st.lists(case_strategy, max_size=6)):
            removed = {(key, tuple(warm[i] for i in key)) for key, _ in uncovered}
            assert remove_covered(warm, store) == len(uncovered & removed)
            uncovered -= removed
        cases = data.draw(st.lists(case_strategy, min_size=1, max_size=12))
        expected = [
            sum((key, tuple(case[i] for i in key)) in uncovered for key in {key for key, _ in uncovered})
            for case in cases
        ]
        np.testing.assert_array_equal(store.counts(np.array(cases, dtype=np.int64)), expected)
        assert store.remaining_count == len(uncovered)
        assert store.open_combinations == len({key for key, _ in uncovered})

    def test_float_cases_count_as_their_int_cast(self):
        # The search scores rounded positions as floats, -0.0 included.
        model = parse_model("3^3 4^3")
        store = build_tuple_store(model, VscaConfig(2, (SubConfig((2, 3, 4, 5), 4),)))
        remove_covered((0, 1, 2, 3, 0, 1), store)
        vmax = np.array(model.param_levels, dtype=float) - 1.0
        cases = np.ceil(np.random.default_rng(0).random((200, model.k)) * vmax - 0.5)
        assert np.signbit(cases[cases == 0]).any()
        np.testing.assert_array_equal(store.counts(cases), store.counts(cases.astype(np.int64)))


@functools.cache
def wide_store(spec):
    """A partly covered store at or above its gate, the keyed table's or the
    dedup one, the cases that covered it, and its uncovered pairs and their
    combinations by itertools."""
    model_spec, t = spec
    model = parse_model(model_spec)
    store = build_tuple_store(model, VscaConfig(t))
    uncovered = brute_force_pairs(model, VscaConfig(t))
    rng = np.random.default_rng(1)
    if model_spec == "2^16":
        # Every value triple of parameters 0-2 closes combination (0, 1, 2) and others.
        warm = [head + tuple(rng.integers(0, 2, model.k - 3).tolist())
                for head in itertools.product(range(2), repeat=3)]
    else:
        warm = [tuple(rng.integers(0, model.param_levels).tolist()) for _ in range(2)]
    for case in warm:
        remove_covered(case, store)
        uncovered -= {(key, tuple(case[i] for i in key)) for key, _ in uncovered}
    keys = frozenset(key for key, _ in uncovered)
    gate = _DEDUP_MIN_COMBINATIONS if store._slot_cases is None else _KEYED_MIN_COMBINATIONS
    assert store.open_combinations == len(keys) >= gate
    return store, warm, frozenset(uncovered), keys


class TestDedupCounts:
    """counts on stores wide enough to score each distinct row once."""

    # The place values of 7^25 pass 2**53, so its keys are inexact; unreduced,
    # those of 2^1100 would pass the float64 range. 3^15 keeps a keyed table.
    @given(st.sampled_from([("2^16", 3), ("3^15", 2), ("7^25", 2), ("2^1100", 1)]),
           st.integers(1, 80),
           st.sampled_from([1, 2, 3, None]), st.sampled_from([0, 1, 80]), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_counts_match_itertools_recount(self, spec, pool_size, tail, n, as_float, seed):
        store, warm, uncovered, keys = wide_store(spec)
        levels = np.array(store.model.param_levels)
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, levels, (pool_size, len(levels)))
        if tail is not None:
            # Cases that differ only in their last values have the closest keys;
            # next to a covering case, they differ in score too.
            pool[:, :-tail] = warm[rng.integers(len(warm))][:-tail]
        cases = pool[rng.integers(0, pool_size, n)]
        expected = [sum((key, tuple(int(case[i]) for i in key)) in uncovered for key in keys)
                    for case in cases]
        if as_float:
            cases = cases.astype(float)
            cases[(cases == 0) & (rng.random(cases.shape) < 0.5)] = -0.0
        np.testing.assert_array_equal(store.counts(cases), expected)

    @given(st.sampled_from([("2^16", 3), ("2^12", 4)]), st.integers(1, 40), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_table_scores_follow_the_mask_across_calls(self, spec, n, rounds, seed):
        # A wide store over a small box keeps each case's score between calls;
        # covering a case must send every score it changed back to the recount.
        model_spec, t = spec
        model = parse_model(model_spec)
        store = build_tuple_store(model, VscaConfig(t))
        assert store._table is not None
        uncovered = brute_force_pairs(model, VscaConfig(t))
        keys = list(itertools.combinations(range(model.k), t))
        rng = np.random.default_rng(seed)

        def recount(cases):
            return [sum((key, tuple(int(case[i]) for i in key)) in uncovered for key in keys)
                    for case in cases]

        cases = rng.integers(0, 2, (n, model.k))
        for _ in range(rounds):
            expected = recount(cases)
            as_float = cases.astype(float)
            as_float[(as_float == 0) & (rng.random(cases.shape) < 0.5)] = -0.0
            for batch in (as_float, cases)[::rng.choice([1, -1])]:
                np.testing.assert_array_equal(store.counts(batch), expected)
            covered = tuple(int(v) for v in cases[rng.integers(len(cases))])
            removed = {(key, tuple(covered[i] for i in key)) for key in keys}
            assert remove_covered(covered, store) == len(uncovered & removed)
            uncovered -= removed
            # Half the next rows were scored before this cover, half are new.
            cases = np.concatenate([cases[rng.integers(0, len(cases), n)],
                                    rng.integers(0, 2, (n, model.k))])
        np.testing.assert_array_equal(store.counts(cases), recount(cases))

    @given(st.sampled_from([("2^16", 3), ("2^12", 4)]), st.integers(1, 20),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=6, deadline=None)
    def test_the_table_outlives_the_gate(self, spec, n, seed):
        # Covering the best row of each batch narrows the store below the gate;
        # its table keeps serving it there, and every score stays the recount.
        model_spec, t = spec
        model = parse_model(model_spec)
        store = build_tuple_store(model, VscaConfig(t))
        uncovered = brute_force_pairs(model, VscaConfig(t))
        keys = list(itertools.combinations(range(model.k), t))
        rng = np.random.default_rng(seed)
        cases = rng.integers(0, 2, (n, model.k))
        narrow_rounds = 0
        while narrow_rounds < 3:
            expected = [sum((key, tuple(int(case[i]) for i in key)) in uncovered for key in keys)
                        for case in cases]
            as_float = cases.astype(float)
            as_float[(as_float == 0) & (rng.random(cases.shape) < 0.5)] = -0.0
            for batch in (as_float, cases)[::rng.choice([1, -1])]:
                np.testing.assert_array_equal(store.counts(batch), expected)
            covered = tuple(int(v) for v in cases[np.argmax(expected)])
            removed = {(key, tuple(covered[i] for i in key)) for key in keys}
            assert remove_covered(covered, store) == len(uncovered & removed)
            uncovered -= removed
            narrow_rounds += store.open_combinations < _DEDUP_MIN_COMBINATIONS
            assert store._table is not None
            # Half the next rows were scored before this cover, half are new.
            cases = np.concatenate([cases[rng.integers(0, len(cases), n)],
                                    rng.integers(0, 2, (n, model.k))])

    @pytest.mark.parametrize("model_spec,t,rows,again", [
        ("7^25", 2, 5, [5]), ("3^5", 2, 80, [80])], ids=["wide-big-box", "narrow"])
    def test_only_distinct_rows_are_scored_above_the_gate(self, model_spec, t, rows, again,
                                                           monkeypatch):
        # Stores with no score table, dense or keyed: only the wide one sorts its rows.
        store = build_tuple_store(parse_model(model_spec), VscaConfig(t))
        assert store._table is None and store._slot_cases is None
        assert (store.open_combinations >= _DEDUP_MIN_COMBINATIONS) == (rows == 5)
        sizes = ids_rows(monkeypatch)
        rng = np.random.default_rng(0)
        cases = rng.integers(0, 2, (5, store.model.k)).astype(float)[np.arange(80) % 5]
        # The search rounds with np.ceil, which gives -0.0 as well as 0.0.
        cases[(cases == 0) & (rng.random(cases.shape) < 0.5)] = -0.0
        first = store.counts(cases)
        assert sizes == [rows]
        np.testing.assert_array_equal(store.counts(cases), first)
        assert sizes == [rows] + again

    @pytest.mark.parametrize("narrowed", [False, True], ids=["wide", "wide-narrowed"])
    def test_the_table_scores_exactly_the_rows_still_at_minus_one(self, narrowed, monkeypatch):
        # A store that starts wide over a small box keeps its table below the gate.
        model = parse_model("2^16")
        store = build_tuple_store(model, VscaConfig(3))
        uncovered = brute_force_pairs(model, VscaConfig(3))
        keys = list(itertools.combinations(range(model.k), 3))
        rng = np.random.default_rng(0)

        def cover(case):
            remove_covered(case, store)
            uncovered.difference_update((key, tuple(case[i] for i in key)) for key in keys)

        while narrowed and store.open_combinations >= _DEDUP_MIN_COMBINATIONS:
            cover(tuple(rng.integers(0, 2, model.k).tolist()))
        assert (store.open_combinations >= _DEDUP_MIN_COMBINATIONS) != narrowed
        sizes = ids_rows(monkeypatch)
        distinct = rng.integers(0, 2, (5, model.k))
        cases = distinct.astype(float)[np.arange(80) % 5]
        cases[(cases == 0) & (rng.random(cases.shape) < 0.5)] = -0.0
        numbers = distinct @ (1 << np.arange(model.k)[::-1])

        def recount():
            return [sum((key, tuple(int(case[i]) for i in key)) in uncovered for key in keys)
                    for case in cases]

        # Every row at -1 is scored, repeats included, and only those rows' entries are written.
        np.testing.assert_array_equal(store.counts(cases), recount())
        assert sizes == [80]
        np.testing.assert_array_equal(np.flatnonzero(store._table >= 0), np.unique(numbers))
        # A repeated call finds every entry written and scores no row.
        np.testing.assert_array_equal(store.counts(cases), recount())
        assert sizes == [80]
        # Covering a case resets exactly the written entries, so the next call scores them again.
        cover(tuple(distinct[0].tolist()))
        assert (store._table == -1).all() and not store._written
        sizes.clear()
        np.testing.assert_array_equal(store.counts(cases), recount())
        assert sizes == [80]

    @pytest.mark.parametrize("seed", range(3))
    def test_a_new_case_repeated_beside_scored_cases_reads_the_recount(self, seed, monkeypatch):
        # Numpy leaves the write order of a repeated index unspecified; every
        # write of one case holds the same score, so the order cannot matter.
        model = parse_model("2^16")
        store = build_tuple_store(model, VscaConfig(3))
        uncovered = brute_force_pairs(model, VscaConfig(3))
        keys = list(itertools.combinations(range(model.k), 3))
        rng = np.random.default_rng(seed)
        for case in rng.integers(0, 2, (3, model.k)).tolist():
            remove_covered(tuple(case), store)
            uncovered.difference_update((key, tuple(case[i] for i in key)) for key in keys)
        scored = rng.integers(0, 2, (8, model.k))
        store.counts(scored)
        new = rng.integers(0, 2, model.k)
        while (new == scored).all(axis=1).any():
            new = rng.integers(0, 2, model.k)
        rows = np.concatenate([np.tile(new, (40, 1)), scored[rng.integers(0, 8, 40)]])
        rng.shuffle(rows)
        cases = rows.astype(float)
        cases[(cases == 0) & (rng.random(cases.shape) < 0.5)] = -0.0
        sizes = ids_rows(monkeypatch)
        expected = [sum((key, tuple(int(case[i]) for i in key)) in uncovered for key in keys)
                    for case in rows]
        np.testing.assert_array_equal(store.counts(cases), expected)
        assert sizes == [40]
        np.testing.assert_array_equal(store.counts(rows), expected)

    @pytest.mark.parametrize("model_spec,t", [("2^16", 3), ("3^15", 2)], ids=["dense", "keyed"])
    def test_a_failed_scoring_leaves_the_table_as_it_was(self, model_spec, t, monkeypatch):
        store = build_tuple_store(parse_model(model_spec), VscaConfig(t))
        cases = np.random.default_rng(0).integers(0, 2, (80, store.model.k))
        want = build_tuple_store(parse_model(model_spec), VscaConfig(t)).counts(cases)
        store.counts(cases[:40])
        tables = [a for a in (store._table, store._slot_cases, store._slot_scores) if a is not None]
        before = [a.copy() for a in tables]

        def fail(self, c):
            raise MemoryError

        monkeypatch.setattr(TupleStore, "_ids", fail)
        with pytest.raises(MemoryError):
            store.counts(cases)
        for table, was in zip(tables, before):
            np.testing.assert_array_equal(table, was)
        monkeypatch.undo()
        np.testing.assert_array_equal(store.counts(cases), want)

    @pytest.mark.parametrize("model_spec,config,table", [
        ("7^25", VscaConfig(2), None),
        ("3^3 4^3 5^1", VscaConfig(2, (SubConfig((0, 1, 2), 3), SubConfig((3, 4, 5, 6), 4))), None),
        ("3^15", VscaConfig(2), "keyed"),
        ("2^16", VscaConfig(3), "dense")], ids=["wide-big-box", "narrow", "keyed", "wide"])
    def test_only_a_wide_small_box_store_allocates_a_table(self, model_spec, config, table):
        model = parse_model(model_spec)
        table_bytes = math.prod(model.param_levels) * np.dtype(np.intp).itemsize
        keyed_bytes = 2**18
        tracemalloc.start()
        try:
            store = build_tuple_store(model, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (store._table is not None) == (table == "dense")
        assert (store._slot_cases is not None) == (table == "keyed")
        if table == "dense":
            # 512 KiB of table; the stride matrix and the mask take less than another.
            assert store._table.nbytes == table_bytes
            assert peak < 2 * table_bytes
        elif table == "keyed":
            # 256 KiB of slots for a 3^15 box, whose dense table would be 115 MB.
            assert store._slot_cases.nbytes + store._slot_scores.nbytes == keyed_bytes
            assert peak < keyed_bytes + 2**17
        else:
            # 7^25 holds 1.3e21 cases, past the keyed table's 2**52, and the
            # narrow store starts below both gates; its dense table would be 69 KB.
            assert peak < min(table_bytes, keyed_bytes)


def decode(numbers, levels):
    """Each case number back to its (n, k) case, first parameter most significant."""
    places = [math.prod(levels[i + 1:]) for i in range(len(levels))]
    return np.array([[n // place % v for place, v in zip(places, levels)]
                     for n in numbers.tolist()], dtype=np.int64).reshape(-1, len(levels))


class FirstWins(np.ndarray):
    """An array whose integer-indexed writes keep the first value of a repeated
    index: numpy leaves that order unspecified, and in practice the last wins."""

    def __setitem__(self, index, value):
        index = np.asarray(index)
        value = np.broadcast_to(value, index.shape)
        super().__setitem__(index[::-1], value[::-1])


class TestKeyedCounts:
    """counts on wide stores over boxes too big for a dense table and below 2**52."""

    @given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 4), st.booleans(),
           st.integers(0, 2**32 - 1))
    @example(pool_size=12, n=40, rounds=3, first_wins=True, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_counts_match_the_recount_as_slots_collide(self, pool_size, n, rounds, first_wins,
                                                        seed):
        # Four slots: a call with five distinct new cases puts two of them in one
        # slot, and the slot must keep one of them with that one's score, whichever
        # order numpy writes the repeated slot in.
        model = parse_model("3^15")
        keys = list(itertools.combinations(range(model.k), 2))
        uncovered = brute_force_pairs(model, VscaConfig(2))
        rng = np.random.default_rng(seed)

        def recount(cases):
            return [sum((key, tuple(int(case[i]) for i in key)) in uncovered for key in keys)
                    for case in cases]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("vscit.tuples._KEYED_SLOTS", 4)
            store = build_tuple_store(model, VscaConfig(2))
            if first_wins:
                store._slot_cases = store._slot_cases.view(FirstWins)
            pool = rng.integers(0, 3, (pool_size, model.k))
            for _ in range(rounds):
                assert store.open_combinations >= _KEYED_MIN_COMBINATIONS
                cases = pool[rng.integers(0, len(pool), n)]
                expected = recount(cases)
                as_float = cases.astype(float)
                as_float[(as_float == 0) & (rng.random(cases.shape) < 0.5)] = -0.0
                for batch in (as_float, cases)[::rng.choice([1, -1])]:
                    np.testing.assert_array_equal(store.counts(batch), expected)
                    # A claimed slot is its owner's low bits and holds its owner's score.
                    claimed = np.flatnonzero(store._slot_cases >= 0)
                    owners = store._slot_cases[claimed]
                    np.testing.assert_array_equal(owners & 3, claimed)
                    np.testing.assert_array_equal(store._slot_scores[claimed],
                                                  recount(decode(owners, model.param_levels)))
                covered = tuple(int(v) for v in cases[rng.integers(len(cases))])
                removed = {(key, tuple(covered[i] for i in key)) for key in keys}
                assert remove_covered(covered, store) == len(uncovered & removed)
                uncovered -= removed
                assert (store._slot_cases == -1).all() and not store._written
                # The next rows mix cases scored before this cover with new ones.
                pool = np.concatenate([pool, rng.integers(0, 3, (pool_size, model.k))])

    def test_below_the_gate_no_slot_is_read_or_written(self, monkeypatch):
        model = parse_model("3^15")
        store = build_tuple_store(model, VscaConfig(2))
        keys = list(itertools.combinations(range(model.k), 2))
        uncovered = brute_force_pairs(model, VscaConfig(2))
        rng = np.random.default_rng(0)
        while store.open_combinations >= _KEYED_MIN_COMBINATIONS:
            candidates = rng.integers(0, 3, (200, model.k))
            best = tuple(candidates[np.argmax(store.counts(candidates))].tolist())
            remove_covered(best, store)
            uncovered.difference_update((key, tuple(best[i] for i in key)) for key in keys)

        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"slot array read: {name}")

            def __getitem__(self, index):
                raise AssertionError("slot array read")

            def __setitem__(self, index, value):
                raise AssertionError("slot array written")

        store._slot_cases = store._slot_scores = Untouchable()
        sizes = ids_rows(monkeypatch)
        cases = rng.integers(0, 3, (5, model.k))[np.arange(40) % 5]
        for _ in range(2):
            expected = [sum((key, tuple(int(case[i]) for i in key)) in uncovered for key in keys)
                        for case in cases]
            np.testing.assert_array_equal(store.counts(cases), expected)
            # Every row is scored, repeats included.
            assert sizes[-1] == 40 and not store._written
            covered = tuple(cases[0].tolist())
            remove_covered(covered, store)
            uncovered.difference_update((key, tuple(covered[i] for i in key)) for key in keys)
