"""Combination generation and the uncovered-tuple store.

Brute-force oracles: itertools.combinations for the generator (canonical
lexicographic enumeration), and plain nested recounts for store contents.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vscit.model import SubConfig, SutModel, VscaConfig, parse_model
from vscit.tuples import (
    TupleStore,
    build_tuple_store,
    coverage_count,
    generate_param_combinations,
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


class TestGenerateParamCombinations:
    def test_three_choose_two(self):
        assert generate_param_combinations(3, 2) == [(0, 1), (0, 2), (1, 2)]

    def test_t_equals_k_single_combination(self):
        assert generate_param_combinations(4, 4) == [(0, 1, 2, 3)]

    def test_fifteen_choose_two_matches_nested_loops(self):
        oracle = [(i, j) for i in range(15) for j in range(i + 1, 15)]
        got = generate_param_combinations(15, 2)
        assert len(got) == 105
        assert got == oracle

    @pytest.mark.parametrize("k", range(1, 11))
    def test_matches_lexicographic_enumeration(self, k):
        for t in range(1, k + 1):
            assert generate_param_combinations(k, t) == list(itertools.combinations(range(k), t))

    def test_output_is_sorted_and_duplicate_free(self):
        for k, t in [(6, 3), (8, 2), (7, 5)]:
            got = generate_param_combinations(k, t)
            assert len(set(got)) == len(got) == math.comb(k, t)
            assert got == sorted(got)
            assert all(list(c) == sorted(set(c)) for c in got)

    @pytest.mark.parametrize("k,t", [(3, 0), (3, 4), (5, -1)])
    def test_bad_strength_raises(self, k, t):
        with pytest.raises(ValueError):
            generate_param_combinations(k, t)


class TestBuildTupleStore:
    def test_pairwise_three_level_five_param(self):
        store = build_tuple_store(parse_model("3^5"), VscaConfig(2))
        assert store.initial_total == 90  # 10 column pairs, 9 value pairs each
        assert store.open_combinations == 10

    def test_full_factorial_two_binary_params(self):
        store = build_tuple_store(parse_model("2^2"), VscaConfig(2))
        assert store.open_combinations == 1
        assert store.initial_total == 4

    def test_main_plus_sub_counts_union(self):
        cfg = VscaConfig(3, (SubConfig((1, 2, 3), 2),))
        store = build_tuple_store(parse_model("3^5"), cfg)
        assert store.initial_total == 297  # 10*27 main + 3*9 sub, disjoint keys
        assert store.initial_total == brute_force_store_size(parse_model("3^5"), cfg)

    def test_sub_at_main_strength_is_absorbed(self):
        m = parse_model("3^5")
        plain = build_tuple_store(m, VscaConfig(2))
        doubled = build_tuple_store(m, VscaConfig(2, (SubConfig((0, 1, 2), 2),)))
        assert doubled.initial_total == plain.initial_total

    def test_overlapping_subs_union(self):
        m = parse_model("2^4")
        cfg = VscaConfig(2, (SubConfig((0, 1, 2), 3), SubConfig((1, 2, 3), 3)))
        store = build_tuple_store(m, cfg)
        assert store.initial_total == brute_force_store_size(m, cfg)

    def test_uniform_totals_match_closed_form(self):
        for k in range(1, 7):
            for v in range(1, 5):
                model = SutModel((v,) * k)
                for t in range(1, k + 1):
                    store = build_tuple_store(model, VscaConfig(t))
                    assert store.initial_total == math.comb(k, t) * v**t, (k, v, t)


class TestCoverageCountAndRemoval:
    def test_fresh_store_count_is_one_per_combination(self):
        store = build_tuple_store(parse_model("3^5"), VscaConfig(2))
        assert coverage_count((0, 0, 0, 0, 0), store) == 10

    def test_empty_store_counts_zero(self):
        store = TupleStore(parse_model("3^5"), [])
        assert coverage_count((0, 0, 0, 0, 0), store) == 0

    def test_remove_then_recount(self):
        store = build_tuple_store(parse_model("3^5"), VscaConfig(2))
        case = (0, 0, 0, 0, 0)
        assert remove_covered(case, store) == 10
        assert store.remaining_count == 80
        assert coverage_count(case, store) == 0
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

    @pytest.mark.parametrize("case", [(2, 0, 0), (0, -1, 0), (0, 0)])
    def test_case_outside_the_model_raises(self, case):
        # A value past its level would otherwise alias another combination's id.
        store = build_tuple_store(parse_model("2^3"), VscaConfig(2))
        with pytest.raises(ValueError):
            coverage_count(case, store)
        with pytest.raises(ValueError):
            remove_covered(case, store)
        assert store.remaining_count == 12

    def test_count_is_pure(self):
        store = build_tuple_store(parse_model("2^3"), VscaConfig(2))
        remove_covered((0, 0, 0), store)
        before = store.uncovered.copy()
        coverage_count((1, 0, 1), store)
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
        counted = coverage_count(case, store)
        assert counted == remove_covered(case, store)

    def test_conservation_over_full_coverage(self):
        model = parse_model("2^4")
        store = build_tuple_store(model, VscaConfig(2))
        total = 0
        for case in itertools.product(*(range(v) for v in model.param_levels)):
            total += remove_covered(case, store)
        assert total == store.initial_total
        assert store.remaining_count == 0
        assert store.open_combinations == 0
        assert not store.uncovered.any()

    def test_remaining_count_tracks_set_sizes(self):
        store = build_tuple_store(parse_model("3^4"), VscaConfig(2))
        remove_covered((0, 1, 2, 0), store)
        remove_covered((1, 1, 1, 1), store)
        assert store.remaining_count == int(store.uncovered.sum()) == 54 - 12


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
