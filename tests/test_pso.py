"""Swarm engine: discretization, updates, single-test search, suite assembly."""

import dataclasses
import itertools
import logging

import numpy as np
import pytest

import vscit
import vscit.pso as pso
from vscit.fis import FisController
from vscit.model import SubConfig, VscaConfig, parse_config, parse_model
from vscit.pso import (
    VARIANTS,
    SwarmParams,
    _repair_case,
    analytic_lower_bound,
    discretize,
    generate_one_test,
    generate_suite,
    position_update,
    velocity_update,
)
from vscit.tuples import TupleStore, build_tuple_store, coverage_count, remove_covered
from vscit.verify import verify_suite


class StubRng:
    """Feeds velocity_update a queue of fixed uniform draws, in the shape asked for."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, shape):
        count = int(np.prod(shape))
        drawn, self.values = self.values[:count], self.values[count:]
        return np.array(drawn, dtype=float).reshape(shape)


def rows(*values):
    return np.atleast_2d(np.asarray(values, dtype=float))


def vmax(levels):
    return np.asarray(levels, dtype=float) - 1.0


def move(position, velocity, pbest, gbest, w, levels, draws):
    """velocity_update on a one-row swarm with c1 = c2 = 2."""
    return velocity_update(rows(position), rows(velocity), rows(pbest),
                           np.asarray(gbest, dtype=float), np.array([w]), vmax(levels),
                           2.0, 2.0, StubRng(draws))


class TestDiscretize:
    def test_rounds_to_nearest(self):
        assert discretize([0.4, 1.6, 1.2], (3, 3, 3)) == (0, 2, 1)

    def test_ties_go_toward_zero(self):
        assert discretize([0.5, 1.5, 2.5], (4, 4, 4)) == (0, 1, 2)

    def test_clamps_into_range(self):
        assert discretize([-1.0, 7.0], (3, 3)) == (0, 2)

    def test_exact_levels_unchanged(self):
        assert discretize([0.0, 1.0, 2.0], (3, 3, 3)) == (0, 1, 2)


def fitness(position, store):
    """A particle's score: uncovered tuples its discretized position hits."""
    return coverage_count(discretize(position, store.model.param_levels), store)


class TestFitness:
    def test_empty_store_scores_zero(self):
        store = TupleStore(parse_model("3^5"), [])
        assert fitness([0.0] * 5, store) == 0

    def test_fresh_store_scores_one_per_combination(self):
        store = build_tuple_store(parse_model("3^5"), VscaConfig(2))
        assert fitness([0.0] * 5, store) == 10

    def test_rounding_before_scoring(self):
        store = build_tuple_store(parse_model("3^5"), VscaConfig(2))
        assert discretize([0.4] * 5, store.model.param_levels) == (0,) * 5
        assert fitness([0.4] * 5, store) == fitness([0.0] * 5, store)


class TestVelocityUpdate:
    def test_all_terms_vanish(self):
        v = move([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], 0.5, [3, 3], [0.3, 0.7])
        np.testing.assert_array_equal(v, [[0.0, 0.0]])

    def test_pure_inertia(self):
        v = move([1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, 1.0], 0.9, [3, 3], [0.3, 0.7])
        np.testing.assert_allclose(v, [[0.9, -0.9]])

    def test_hand_computed_instance(self):
        # w*v + c1*r1*(pbest-x) + c2*r2*(g-x) with w=0.5, r1=0.25, r2=0.5:
        # 0.5*[0.5,-0.5] + 0.5*[1,-2] + 1.0*[-1,1] = [-0.25, -0.25]
        v = move([1.0, 2.0], [0.5, -0.5], [2.0, 0.0], [0.0, 3.0], 0.5, [3, 4], [0.25, 0.5])
        np.testing.assert_allclose(v, [[-0.25, -0.25]])

    def test_clamped_to_level_range(self):
        v = move([0.0, 0.0], [5.0, -9.0], [0.0, 0.0], [0.0, 0.0], 0.9, [3, 4], [0.1, 0.1])
        np.testing.assert_allclose(v, [[2.0, -3.0]])

    def test_draw_order_cognitive_then_social(self):
        v = move([0.0], [0.0], [1.0], [0.0], 0.5, [3], [1.0, 0.0])
        np.testing.assert_allclose(v, [[2.0]])  # cognitive gets the 1.0 draw

    def test_rows_match_one_row_calls(self):
        # Row i reads draws 2i (cognitive) and 2i + 1 (social) and its own w,
        # exactly as a one-row call fed those two draws.
        position = [[1.0, 2.0], [0.5, 0.0]]
        velocity = [[0.5, -0.5], [-1.5, 2.5]]
        pbest = [[2.0, 0.0], [1.0, 3.0]]
        gbest = [0.0, 3.0]
        ws = [0.5, 0.8]
        draws = [0.25, 0.5, 0.9, 0.125]
        both = velocity_update(np.array(position), np.array(velocity), np.array(pbest),
                               np.array(gbest), np.array(ws), vmax([3, 4]),
                               2.0, 2.0, StubRng(draws))
        for i in range(2):
            one = move(position[i], velocity[i], pbest[i], gbest, ws[i], [3, 4],
                       draws[2 * i:2 * i + 2])
            np.testing.assert_array_equal(both[i:i + 1], one)


class TestPositionUpdate:
    def test_zero_velocity_keeps_position(self):
        pos = position_update(rows(1.0, 2.0), rows(0.0, 0.0), vmax([3, 3]))
        np.testing.assert_array_equal(pos, [[1.0, 2.0]])

    def test_moves_by_velocity(self):
        pos = position_update(rows(1.0, 1.0), rows(0.5, 0.5), vmax([3, 3]))
        np.testing.assert_allclose(pos, [[1.5, 1.5]])

    def test_clamps_at_bounds(self):
        pos = position_update(rows(2.0, 0.0), rows(1.0, -1.0), vmax([3, 3]))
        np.testing.assert_array_equal(pos, [[2.0, 0.0]])


class TestSwarmParams:
    def test_defaults(self):
        params = SwarmParams()
        assert (params.swarm_size, params.max_iterations) == (80, 100)
        assert params.variant == "fpso"
        assert params.rng_seed == 0
        assert params.patience == pso.DEFAULT_PATIENCE["fpso"] == 50
        assert SwarmParams(variant="cpso").patience is pso.DEFAULT_PATIENCE["cpso"] is None
        assert pso.C1 == pso.C2 == 2.0

    def test_holds_only_the_run_settings(self):
        assert [f.name for f in dataclasses.fields(SwarmParams)] == [
            "swarm_size", "max_iterations", "variant", "rng_seed", "patience"]

    @pytest.mark.parametrize(
        "kwargs",
        [{"swarm_size": 1}, {"max_iterations": 0}, {"variant": "dpso"}, {"rng_seed": -1},
         {"patience": 0}, {"patience": -1}, {"patience": True}, {"patience": 2.5}],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SwarmParams(**kwargs)


def small_params(**overrides):
    base = dict(swarm_size=8, max_iterations=20, rng_seed=0)
    base.update(overrides)
    return SwarmParams(**base)


class TestGenerateOneTest:
    def test_single_remaining_tuple_gets_covered(self):
        store = TupleStore(parse_model("3^3"), [(0, 2)])
        for a, b in itertools.product(range(3), range(3)):
            if (a, b) != (2, 1):
                remove_covered((a, 0, b), store)
        rng = np.random.default_rng(0)
        case, *_ = generate_one_test(store, small_params(), FisController(), rng)
        assert case[0] == 2 and case[2] == 1

    def test_two_binary_params_cover_one_each(self):
        store = build_tuple_store(parse_model("2^2"), VscaConfig(2))
        rng = np.random.default_rng(1)
        controller = FisController()
        for expected_left in (4, 3, 2, 1):
            assert store.remaining_count == expected_left
            case, *_ = generate_one_test(store, small_params(), controller, rng)
            assert remove_covered(case, store) == 1
        assert store.remaining_count == 0

    def test_first_case_covers_every_combination(self):
        store = build_tuple_store(parse_model("3^5"), VscaConfig(2))
        rng = np.random.default_rng(2)
        case, *_ = generate_one_test(store, small_params(), FisController(), rng)
        assert coverage_count(case, store) == 10

    def test_empty_store_raises(self):
        store = TupleStore(parse_model("2^2"), [])
        with pytest.raises(ValueError, match="empty"):
            generate_one_test(store, small_params(), FisController(), np.random.default_rng(0))


class ScriptedStore:
    """A store whose counts return scripted fitness rows, then ones."""

    def __init__(self, model, fitness_rows, open_combinations):
        self.model = model
        self.rows = [np.array(r, dtype=np.int64) for r in fitness_rows]
        self.remaining_count = 1
        self.open_combinations = open_combinations

    def counts(self, cases):
        return self.rows.pop(0) if self.rows else np.ones(len(cases), dtype=np.int64)


class TestBests:
    def test_personal_and_global_best_rules(self, monkeypatch, trace):
        # Start [1, 3, 3]: the tie puts the global best on particle 1, the first.
        # Iteration 1 [2, 1, 3]: only particle 0's personal best moves; 3 equals
        # the incumbent, so the global best stays. Iteration 2 [4, 4, 0]: personal
        # bests 0 and 1 move; the tie moves the global best to particle 0.
        store = ScriptedStore(parse_model("5^3"),
                              [[1, 3, 3], [2, 1, 3], [4, 4, 0], [0, 0, 0]], 10)
        seen = []
        update = pso.velocity_update

        def record(position, velocity, pbest, gbest, *rest):
            seen.append((position.copy(), pbest.copy(), gbest.copy()))
            return update(position, velocity, pbest, gbest, *rest)

        monkeypatch.setattr(pso, "velocity_update", record)
        (case, iterations, stop, repaired), records = trace(
            generate_one_test, store,
            small_params(swarm_size=3, max_iterations=3, variant="cpso"),
            None, np.random.default_rng(0))
        (p0, pbest0, g0), (p1, pbest1, g1), (p2, pbest2, g2) = seen
        assert not (p0 == p1).all(axis=1).any() and not (p1 == p2).all(axis=1).any()
        np.testing.assert_array_equal(pbest0, p0)
        np.testing.assert_array_equal(g0, p0[1])
        np.testing.assert_array_equal(pbest1, [p1[0], p0[1], p0[2]])
        np.testing.assert_array_equal(g1, p0[1])
        np.testing.assert_array_equal(pbest2, [p2[0], p2[1], p0[2]])
        np.testing.assert_array_equal(g2, p2[0])
        assert [r.gbest_fitness for r in records] == [3, 4, 4]
        assert case == discretize(p2[0], (5, 5, 5))
        assert (iterations, stop, repaired) == (3, "budget", False)

    def test_a_global_best_that_fills_the_last_iteration_stops_all_covered(self):
        store = ScriptedStore(parse_model("5^3"), [[1, 3, 3], [2, 1, 3], [4, 10, 0]], 10)
        _, iterations, stop, _ = generate_one_test(
            store, small_params(swarm_size=3, max_iterations=2, variant="cpso"),
            None, np.random.default_rng(0))
        assert (iterations, stop) == (2, "all-covered")


class TestPatience:
    """A search stops once `patience` iterations in a row leave the global best
    where it was; an improvement starts the count again."""

    def search(self, fitness_rows, **params):
        store = ScriptedStore(parse_model("5^3"), fitness_rows, 10)
        _, iterations, stop, _ = generate_one_test(
            store, small_params(swarm_size=3, variant="cpso", **params),
            None, np.random.default_rng(0))
        return iterations, stop

    def test_stops_after_exactly_patience_stalled_iterations(self):
        # Iteration 2 improves on the start's 3, so iterations 3 and 4 are the
        # two stalled ones; unscripted iterations score ones.
        assert self.search([[1, 3, 3], [1, 1, 1], [4, 1, 1]],
                           max_iterations=20, patience=2) == (4, "stalled")

    def test_none_spends_the_whole_budget(self):
        assert self.search([[1, 3, 3]], max_iterations=20, patience=None) == (20, "budget")

    def test_stalled_wins_over_budget(self):
        assert self.search([[1, 3, 3]], max_iterations=3, patience=3) == (3, "stalled")

    def test_all_covered_wins_where_patience_and_budget_run_out(self):
        # Iterations 1 and 2 stall; iteration 3, the last of the budget, fills
        # every combination, and without that improvement it would have been
        # the third stalled one.
        assert self.search([[1, 3, 3], [1, 1, 1], [1, 1, 1], [1, 10, 1]],
                           max_iterations=3, patience=3) == (3, "all-covered")


class TestBenchmarkHooks:
    """perfbench counts iterations through calls of vscit.pso.compute_ncf and
    controller calls through FisController.infer_w_batch."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_ncf_call_per_iteration_and_inference_only_under_fpso(self, variant, monkeypatch):
        calls = {"ncf": 0, "infer": 0}
        ncf, infer = pso.compute_ncf, FisController.infer_w_batch

        def counted_ncf(*args):
            calls["ncf"] += 1
            return ncf(*args)

        def counted_infer(self, *args):
            calls["infer"] += 1
            return infer(self, *args)

        monkeypatch.setattr(pso, "compute_ncf", counted_ncf)
        monkeypatch.setattr(FisController, "infer_w_batch", counted_infer)
        result = generate_suite(parse_model("3^5"), VscaConfig(3),
                                small_params(variant=variant, max_iterations=10), FisController())
        iterations = sum(r.iterations for r in result.tests)
        assert iterations > len(result.suite.cases)
        assert calls["ncf"] == iterations
        assert calls["infer"] == (iterations if variant == "fpso" else 0)

    def test_the_trace_is_built_only_with_debug_on(self, monkeypatch, caplog, trace):
        calls = {"record": 0, "nubf": 0}
        record, nubf = pso.IterationRecord, pso.compute_nor_nubf

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(pso, "IterationRecord", counted("record", record))
        monkeypatch.setattr(pso, "compute_nor_nubf", counted("nubf", nubf))
        caplog.set_level(logging.INFO, logger="vscit")
        iterations = 0
        for variant in VARIANTS:
            result = generate_suite(parse_model("3^5"), VscaConfig(3),
                                    small_params(variant=variant, max_iterations=10))
            iterations += sum(r.iterations for r in result.tests)
        assert iterations > 0
        assert calls == {"record": 0, "nubf": 0}
        _, records = trace(generate_suite, parse_model("3^5"), VscaConfig(3),
                           small_params(max_iterations=10))
        assert calls == {"record": len(records), "nubf": len(records)} and records


class TestRepairCase:
    def test_picks_smallest_uncovered_pair_across_key_lengths(self):
        # Sorted order puts (0, 1) before (0, 1, 2) before (0, 2): the repair
        # target is the smallest uncovered (key, tuple), whatever the key length.
        keys = [(0, 2), (0, 1, 2), (0, 1)]
        store = TupleStore(parse_model("2^3"), keys)
        uncovered = {
            (key, values) for key in keys
            for values in itertools.product((0, 1), repeat=len(key))
        }
        rng = np.random.default_rng(5)
        targets = []
        # Last index slowest: (0, 1) empties while (0, 2) and (0, 1, 2) still compete.
        for case in sorted(itertools.product((0, 1), repeat=3), key=lambda c: c[::-1]):
            key, values = min(uncovered)
            repaired = _repair_case(store, rng)
            assert tuple(repaired[i] for i in key) == values
            targets.append(key)
            remove_covered(case, store)
            uncovered -= {(key, tuple(case[i] for i in key)) for key in keys}
        assert not uncovered and store.remaining_count == 0
        assert targets == [(0, 1)] * 4 + [(0, 1, 2)] * 4


class TestGenerateSuite:
    def test_single_parameter_enumerates_levels(self):
        result = generate_suite(parse_model("3"), VscaConfig(1), small_params())
        assert sorted(result.suite.cases) == [(0,), (1,), (2,)]

    def test_full_strength_three_levels_is_exhaustive(self):
        result = generate_suite(parse_model("3^3"), VscaConfig(3), SwarmParams(rng_seed=1))
        assert len(result.suite) == 27
        assert len(set(result.suite.cases)) == 27

    def test_two_level_three_param_pairwise_bounds(self):
        # Exhaustive oracle: some 4-case suite covers all 12 value pairs, so
        # the greedy result must land between that optimum and the 8-case
        # full factorial.
        all_cases = list(itertools.product((0, 1), repeat=3))
        model = parse_model("2^3")

        def covers_all(suite):
            hit = set()
            for case in suite:
                for i, j in itertools.combinations(range(3), 2):
                    hit.add((i, j, case[i], case[j]))
            return len(hit) == 12

        assert any(covers_all(c) for c in itertools.combinations(all_cases, 4))
        result = generate_suite(model, VscaConfig(2), SwarmParams(rng_seed=3))
        assert 4 <= len(result.suite) <= 8

    def test_one_level_parameters_need_one_case(self, trace):
        # The one-point box has no diagonal to scale distances by; the search
        # must stop before its first iteration, where it would need one.
        for variant in VARIANTS:
            result, records = trace(generate_suite, parse_model("1^3"), VscaConfig(2),
                                    small_params(variant=variant))
            assert result.suite.cases == ((0, 0, 0),)
            assert records == ()
            assert result.tests == (pso.TestRecord(0, "all-covered", False, 3),)

    def test_reproducible_for_fixed_seed(self, trace):
        model = parse_model("3^5")
        a, a_records = trace(generate_suite, model, VscaConfig(2), SwarmParams(rng_seed=42))
        b, b_records = trace(generate_suite, model, VscaConfig(2), SwarmParams(rng_seed=42))
        assert a == b
        assert a_records == b_records

    def test_different_seeds_usually_differ(self):
        model = parse_model("3^5")
        a = generate_suite(model, VscaConfig(2), SwarmParams(rng_seed=1))
        b = generate_suite(model, VscaConfig(2), SwarmParams(rng_seed=2))
        assert a.suite.cases != b.suite.cases

    def test_gbest_fitness_monotone_within_each_test(self, trace):
        _, trace_records = trace(generate_suite, parse_model("3^5"), VscaConfig(3),
                                 small_params(max_iterations=10))
        assert trace_records
        for _, records in itertools.groupby(trace_records, key=lambda r: r.test_index):
            fitnesses = [r.gbest_fitness for r in records]
            assert fitnesses == sorted(fitnesses)

    def test_iteration_log_fields(self, trace):
        _, records = trace(generate_suite, parse_model("3^5"), VscaConfig(3),
                           small_params(max_iterations=10))
        assert records, "contended run should log iterations"
        for rec in records:
            assert 0 <= rec.ncf <= 100
            assert 0 <= rec.d1 <= 100 and 0 <= rec.d2 <= 100
            assert 0.1 <= rec.w <= 0.9

    def test_size_respects_analytic_lower_bound(self):
        configs = [
            ("3^3", VscaConfig(3)),
            ("2^3", VscaConfig(2)),
            ("3^4", VscaConfig(2)),
            ("2^5", VscaConfig(2, (SubConfig((0, 1, 2), 3),))),
        ]
        for spec, cfg in configs:
            model = parse_model(spec)
            result = generate_suite(model, cfg, small_params(swarm_size=16))
            assert len(result.suite) >= analytic_lower_bound(model, cfg)

    def test_every_emitted_suite_passes_the_oracle(self):
        for spec, cfg in [("3^4", VscaConfig(2)), ("2^4", VscaConfig(3))]:
            result = generate_suite(parse_model(spec), cfg, small_params(swarm_size=16))
            assert verify_suite(result.suite).complete

    def test_cpso_variant_produces_covering_suites(self):
        result = generate_suite(
            parse_model("3^5"), VscaConfig(2), SwarmParams(variant="cpso", rng_seed=9)
        )
        assert verify_suite(result.suite).complete

    def test_variable_strength_suite(self):
        cfg = VscaConfig(2, (SubConfig((0, 1, 2), 3),))
        result = generate_suite(parse_model("3^5"), cfg, SwarmParams(rng_seed=4))
        assert verify_suite(result.suite).complete
        assert len(result.suite) >= 27


# The fpso, cpso and repair runs of test_golden.GOLDEN, at the default patience.
RECORD_RUNS = [
    ("3^5", "t=2", dict(variant="fpso", rng_seed=5)),
    ("2^5", "t=3", dict(variant="cpso", rng_seed=5)),
    ("3^3 2^3", "t=2; sub=0,1,2:3", dict(swarm_size=8, max_iterations=20, rng_seed=9)),
]


class TestTestRecords:
    @pytest.mark.parametrize("model_spec,config_text,kwargs", RECORD_RUNS,
                             ids=["fpso", "cpso", "variable-strength-repair"])
    def test_one_record_per_accepted_test(self, model_spec, config_text, kwargs, monkeypatch):
        repairs = []
        repair = pso._repair_case
        monkeypatch.setattr(pso, "_repair_case", lambda *a: repairs.append(1) or repair(*a))
        params = SwarmParams(**kwargs)
        result = generate_suite(parse_model(model_spec), parse_config(config_text), params)
        tests = result.tests
        assert len(tests) == len(result.suite)
        assert sum(r.covered for r in tests) == verify_suite(result.suite).required
        for r in tests:
            assert 0 <= r.iterations <= params.max_iterations
            assert r.stop in ("all-covered", "stalled", "budget") and r.covered > 0
            if r.stop == "stalled":
                assert params.patience <= r.iterations <= params.max_iterations
            if r.stop == "budget":
                assert r.iterations == params.max_iterations
        assert sum(r.repaired for r in tests) == len(repairs)
        if "sub=" in config_text:
            assert repairs

    def test_log_line_is_json_in_field_order(self):
        record = pso.TestRecord(100, "budget", True, 7)
        assert str(record) == '{"iterations": 100, "stop": "budget", "repaired": true, "covered": 7}'


class TestAnalyticLowerBound:
    def test_uniform(self):
        assert analytic_lower_bound(parse_model("3^5"), VscaConfig(2)) == 9

    def test_mixed_picks_largest_levels(self):
        assert analytic_lower_bound(parse_model("4^3 5^3 6^2"), VscaConfig(2)) == 36

    def test_sub_dominates(self):
        cfg = VscaConfig(2, (SubConfig((0, 1, 2), 3),))
        assert analytic_lower_bound(parse_model("3^15"), cfg) == 27


class TestPublicApi:
    def test_package_exports(self):
        assert vscit.SwarmParams is SwarmParams
        assert callable(vscit.generate_suite)
        assert vscit.__version__
