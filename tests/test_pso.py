"""Swarm engine: discretization, updates, single-test search, suite assembly."""

import itertools

import numpy as np
import pytest

import vscit
from vscit.fis import FisController
from vscit.model import SubConfig, VscaConfig, parse_model
from vscit.pso import (
    Particle,
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
    """Feeds velocity_update a queue of fixed uniform draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def make_particle(position, velocity, pbest, levels):
    return Particle(
        position=np.asarray(position, dtype=float),
        velocity=np.asarray(velocity, dtype=float),
        pbest_position=np.asarray(pbest, dtype=float),
        pbest_fitness=0,
        vmax=np.asarray(levels, dtype=float) - 1.0,
    )


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
        p = make_particle([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [3, 3])
        v = velocity_update(p, np.array([1.0, 1.0]), 0.5, 2.0, 2.0, StubRng([0.3, 0.7]))
        np.testing.assert_array_equal(v, [0.0, 0.0])

    def test_pure_inertia(self):
        p = make_particle([1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [3, 3])
        v = velocity_update(p, np.array([1.0, 1.0]), 0.9, 2.0, 2.0, StubRng([0.3, 0.7]))
        np.testing.assert_allclose(v, [0.9, -0.9])

    def test_hand_computed_instance(self):
        # w*v + c1*r1*(pbest-x) + c2*r2*(g-x) with w=0.5, r1=0.25, r2=0.5:
        # 0.5*[0.5,-0.5] + 0.5*[1,-2] + 1.0*[-1,1] = [-0.25, -0.25]
        p = make_particle([1.0, 2.0], [0.5, -0.5], [2.0, 0.0], [3, 4])
        v = velocity_update(p, np.array([0.0, 3.0]), 0.5, 2.0, 2.0, StubRng([0.25, 0.5]))
        np.testing.assert_allclose(v, [-0.25, -0.25])

    def test_clamped_to_level_range(self):
        p = make_particle([0.0, 0.0], [5.0, -9.0], [0.0, 0.0], [3, 4])
        v = velocity_update(p, np.array([0.0, 0.0]), 0.9, 2.0, 2.0, StubRng([0.1, 0.1]))
        np.testing.assert_allclose(v, [2.0, -3.0])

    def test_draw_order_cognitive_then_social(self):
        p = make_particle([0.0], [0.0], [1.0], [3])
        v = velocity_update(p, np.array([0.0]), 0.5, 2.0, 2.0, StubRng([1.0, 0.0]))
        np.testing.assert_allclose(v, [2.0])  # cognitive gets the 1.0 draw


class TestPositionUpdate:
    def test_zero_velocity_keeps_position(self):
        p = make_particle([1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [3, 3])
        np.testing.assert_array_equal(position_update(p), [1.0, 2.0])

    def test_moves_by_velocity(self):
        p = make_particle([1.0, 1.0], [0.5, 0.5], [1.0, 1.0], [3, 3])
        np.testing.assert_allclose(position_update(p), [1.5, 1.5])

    def test_clamps_at_bounds(self):
        p = make_particle([2.0, 0.0], [1.0, -1.0], [2.0, 0.0], [3, 3])
        np.testing.assert_array_equal(position_update(p), [2.0, 0.0])


class TestSwarmParams:
    def test_defaults(self):
        params = SwarmParams()
        assert (params.swarm_size, params.max_iterations) == (80, 100)
        assert params.c1 == params.c2 == 2.0
        assert params.w_max == 0.9
        assert params.variant == "fpso"

    @pytest.mark.parametrize(
        "kwargs", [{"swarm_size": 1}, {"max_iterations": 0}, {"variant": "dpso"}]
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
        case = generate_one_test(store, small_params(), FisController(), rng)
        assert case[0] == 2 and case[2] == 1

    def test_two_binary_params_cover_one_each(self):
        store = build_tuple_store(parse_model("2^2"), VscaConfig(2))
        rng = np.random.default_rng(1)
        controller = FisController()
        for expected_left in (4, 3, 2, 1):
            assert store.remaining_count == expected_left
            case = generate_one_test(store, small_params(), controller, rng)
            assert remove_covered(case, store) == 1
        assert store.remaining_count == 0

    def test_first_case_covers_every_combination(self):
        store = build_tuple_store(parse_model("3^5"), VscaConfig(2))
        rng = np.random.default_rng(2)
        case = generate_one_test(store, small_params(), FisController(), rng)
        assert coverage_count(case, store) == 10

    def test_empty_store_raises(self):
        store = TupleStore(parse_model("2^2"), [])
        with pytest.raises(ValueError, match="empty"):
            generate_one_test(store, small_params(), FisController(), np.random.default_rng(0))


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

    def test_one_level_parameters_need_one_case(self):
        result = generate_suite(parse_model("1^3"), VscaConfig(2), small_params())
        assert result.suite.cases == ((0, 0, 0),)

    def test_reproducible_for_fixed_seed(self):
        model = parse_model("3^5")
        a = generate_suite(model, VscaConfig(2), SwarmParams(rng_seed=42))
        b = generate_suite(model, VscaConfig(2), SwarmParams(rng_seed=42))
        assert a.suite.cases == b.suite.cases
        assert a.iterations_log == b.iterations_log

    def test_different_seeds_usually_differ(self):
        model = parse_model("3^5")
        a = generate_suite(model, VscaConfig(2), SwarmParams(rng_seed=1))
        b = generate_suite(model, VscaConfig(2), SwarmParams(rng_seed=2))
        assert a.suite.cases != b.suite.cases

    def test_gbest_fitness_monotone_within_each_test(self):
        result = generate_suite(
            parse_model("3^5"), VscaConfig(3), small_params(max_iterations=10)
        )
        assert result.iterations_log
        for _, records in itertools.groupby(result.iterations_log, key=lambda r: r.test_index):
            fitnesses = [r.gbest_fitness for r in records]
            assert fitnesses == sorted(fitnesses)

    def test_iteration_log_fields(self):
        result = generate_suite(
            parse_model("3^5"), VscaConfig(3), small_params(max_iterations=10)
        )
        assert result.iterations_log, "contended run should log iterations"
        for rec in result.iterations_log:
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

    def test_result_carries_seed(self):
        result = generate_suite(parse_model("2^3"), VscaConfig(2), small_params(rng_seed=17))
        assert result.seed == 17


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
