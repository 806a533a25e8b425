"""Swarm engine: rounding, updates, single-test search, suite assembly."""

import dataclasses
import itertools
import logging
import tracemalloc

import numpy as np
import pytest

import vscit
import vscit.cli
import vscit.pso as pso
from vscit.fis import W_MAX_DEFAULT, W_MIN_DEFAULT, FisController, compute_distance_pct
from vscit.model import SubConfig, SutModel, VscaConfig, parse_config, parse_model
from vscit.pso import (
    VARIANTS,
    SwarmParams,
    _repair_case,
    generate_one_test,
    generate_suite,
    position_update,
    velocity_update,
)
from vscit.tuples import TupleStore, build_tuple_store, remove_covered
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


def pulls(position, pbest, gbest):
    """The (2, n, k) gaps from each row to its personal best, then to the global best."""
    position = np.asarray(position, dtype=float)
    return np.stack((pbest, np.broadcast_to(gbest, position.shape))) - position


def move(position, velocity, pbest, gbest, w, levels, draws):
    """velocity_update on a one-row swarm (c1 = c2 = 2)."""
    return velocity_update(rows(velocity), pulls(rows(position), rows(pbest), gbest),
                           np.array([w]), vmax(levels), StubRng(draws))


class ScriptedStore:
    """A store whose counts return scripted fitness rows, then ones, and keep
    the cases they were asked to score; its smallest uncovered tuple is
    parameter 0 at value 1."""

    def __init__(self, model, fitness_rows, open_combinations):
        self.model = model
        self.rows = [np.array(r, dtype=np.int64) for r in fitness_rows]
        self.remaining_count = 1
        self.uncovered = np.array([True])
        self.open_combinations = open_combinations
        self.scored = []

    def counts(self, cases):
        self.scored.append(np.array(cases))
        return self.rows.pop(0) if self.rows else np.ones(len(cases), dtype=np.int64)

    def uncovered_rows(self, ids=None):
        return np.array([[1] + [-1] * (self.model.k - 1)])


class RecordingStore:
    """A real tuple store that keeps the cases its counts were asked to score."""

    def __init__(self, store):
        self.store = store
        self.scored = []

    def __getattr__(self, name):
        return getattr(self.store, name)

    def counts(self, cases):
        self.scored.append(np.array(cases))
        return self.store.counts(cases)


def accepted(levels, draws):
    """The case a two-particle search accepts when its first particle starts at
    draws * (v - 1) and, scored first, already fills every combination."""
    store = ScriptedStore(SutModel(tuple(levels)), [[10, 0]], 10)
    rng = StubRng(list(draws) + [0.0] * (3 * len(levels)))
    case, iterations, stop, repaired = generate_one_test(
        store, SwarmParams(swarm_size=2, variant="cpso"), None, rng)
    assert (iterations, stop, repaired) == (0, "all-covered", False)
    np.testing.assert_array_equal(store.scored[0][0], case)  # the case it scored
    return case


class TestDiscretize:
    """The search scores, and then accepts, each position rounded to the
    nearest case, ties toward zero; no position leaves the case box."""

    def test_rounds_to_nearest(self):
        # Positions 0.4, 1.6 and 1.2.
        assert accepted((3, 3, 3), [0.2, 0.8, 0.6]) == (0, 2, 1)

    def test_ties_go_toward_zero(self):
        # Positions 0.5, 1.5 and 2.5.
        assert accepted((5, 5, 5), [0.125, 0.375, 0.625]) == (0, 1, 2)

    def test_clamps_into_range(self):
        # Every row scored lies in the box, so the accepted case needs no clamp.
        model = parse_model("3^3 4^2 2^2")
        vmax = np.array(model.param_levels) - 1
        for variant, seed in itertools.product(VARIANTS, range(3)):
            store = RecordingStore(build_tuple_store(model, parse_config("t=2; sub=0,1,2,3:3")))
            rng, controller = np.random.default_rng(seed), FisController()
            while store.remaining_count:
                case, *_ = generate_one_test(store, small_params(variant=variant), controller, rng)
                remove_covered(case, store.store)
            scored = np.concatenate(store.scored)
            assert (scored >= 0).all() and (scored <= vmax).all()
            assert (scored == np.round(scored)).all()

    def test_exact_levels_unchanged(self):
        assert accepted((3, 3, 3), [0.0, 0.5, 1.0]) == (0, 1, 2)


class TestFitness:
    """A particle's score: uncovered tuples its rounded position hits."""

    def test_empty_store_scores_zero(self):
        store = TupleStore(parse_model("3^5"), [])
        np.testing.assert_array_equal(store.counts(np.zeros((1, 5))), [0])

    def test_fresh_store_scores_one_per_combination(self):
        store = build_tuple_store(parse_model("3^5"), VscaConfig(2))
        np.testing.assert_array_equal(store.counts(np.zeros((1, 5))), [10])

    def test_rounding_before_scoring(self):
        # The first particle starts at 0.4 everywhere and is scored as the zero
        # case, which hits all 10 combinations, so the search stops at once.
        store = RecordingStore(build_tuple_store(parse_model("3^5"), VscaConfig(2)))
        case, iterations, stop, repaired = generate_one_test(
            store, SwarmParams(swarm_size=2, variant="cpso"), None,
            StubRng([0.2] * 5 + [0.0] * 15))
        np.testing.assert_array_equal(store.scored[0][0], np.zeros(5))
        assert (case, iterations, stop, repaired) == ((0,) * 5, 0, "all-covered", False)


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
        both = velocity_update(np.array(velocity), pulls(position, pbest, gbest),
                               np.array(ws), vmax([3, 4]), StubRng(draws))
        for i in range(2):
            one = move(position[i], velocity[i], pbest[i], gbest, ws[i], [3, 4],
                       draws[2 * i:2 * i + 2])
            np.testing.assert_array_equal(both[i:i + 1], one)


def seeded_swarm(seed, n=40, levels=(3, 4, 5, 2, 7, 3)):
    """A random swarm whose positions include components at 0 and at vmax,
    and whose first rows equal their personal best and the global best, so
    that those pulls are exactly 0."""
    rng = np.random.default_rng(seed)
    top = vmax(levels)
    position = rng.random((n, len(levels))) * top
    position[rng.random(position.shape) < 0.2] = 0.0
    position = np.where(rng.random(position.shape) < 0.2, top, position)
    velocity = (rng.random(position.shape) * 4.0 - 2.0) * top  # half of it past the clamp
    pbest = rng.random(position.shape) * top
    pbest[:n // 4] = position[:n // 4]
    gbest = position[0].copy()
    w = rng.random(n)
    return position, velocity, pbest, gbest, w, top


class TestFusedMoveBits:
    """The moves and distances taken from one pull block keep, bit for bit,
    the formulas that took each difference where it was used."""

    @pytest.mark.parametrize("seed", range(5))
    def test_velocity_equals_the_separate_differences(self, seed):
        position, velocity, pbest, gbest, w, top = seeded_swarm(seed)
        draws = np.random.default_rng(100 + seed).random((len(position), 2))
        got = velocity_update(velocity, pulls(position, pbest, gbest), w, top,
                              StubRng(draws.ravel()))
        want = (w[:, None] * velocity
                + (pso.C1 * draws[:, :1]) * (pbest - position)
                + (pso.C2 * draws[:, 1:]) * (gbest - position))
        want = np.maximum(np.minimum(want, top), -top)
        np.testing.assert_array_equal(got, want)
        assert (got == top).any() and (got == -top).any()  # the clamps were exercised

    @pytest.mark.parametrize("seed", range(5))
    def test_one_weight_row_equals_a_row_of_copies(self, seed):
        position, velocity, pbest, gbest, w, top = seeded_swarm(seed)
        draws = np.random.default_rng(100 + seed).random((len(position), 2)).ravel()
        gaps = pulls(position, pbest, gbest)
        one = velocity_update(velocity, gaps, w[:1], top, StubRng(draws))
        copies = velocity_update(velocity, gaps, np.full(len(w), w[0]), top, StubRng(draws))
        np.testing.assert_array_equal(one, copies)

    @pytest.mark.parametrize("seed", range(5))
    def test_distances_equal_the_separate_differences(self, seed):
        position, _, pbest, gbest, _, top = seeded_swarm(seed)
        diagonal = float(np.linalg.norm(top))
        d1, d2 = compute_distance_pct(pulls(position, pbest, gbest), diagonal)
        for got, ref in ((d1, pbest), (d2, gbest)):
            gap = position - ref
            want = np.minimum(np.sqrt((gap * gap).sum(axis=-1)) / diagonal * 100.0, 100.0)
            np.testing.assert_array_equal(got, want)
        assert (d1[:len(d1) // 4] == 0).all() and d2[0] == 0


class TestCpsoSlide:
    """cpso's weight: iteration i of every search gives the whole swarm the
    scalar slide's value as one (1,) row."""

    @pytest.mark.parametrize("budget", [1, 2, 100])
    def test_each_iteration_uses_the_scalar_formula(self, budget, monkeypatch, trace):
        shapes = set()
        update = pso.velocity_update

        def record_shape(velocity, pulls, w, *rest):
            shapes.add(w.shape)
            return update(velocity, pulls, w, *rest)

        monkeypatch.setattr(pso, "velocity_update", record_shape)
        result, records = trace(generate_suite, parse_model("3^4"), VscaConfig(2),
                                small_params(variant="cpso", max_iterations=budget))
        assert shapes == {(1,)}
        span = max(budget - 1, 1)
        for r in records:
            want = W_MAX_DEFAULT - (W_MAX_DEFAULT - W_MIN_DEFAULT) * ((r.iteration - 1) / span)
            assert r.w == want  # float equality: bit for bit
        # Every test's search starts the slide again at W_MAX_DEFAULT.
        firsts = [r for r in records if r.iteration == 1]
        searched = [i for i, t in enumerate(result.tests) if t.iterations]
        assert [r.test_index for r in firsts] == searched and len(searched) > 1
        assert all(r.w == W_MAX_DEFAULT for r in firsts)
        assert max(r.iteration for r in records) == budget

    def test_an_unbounded_budget_allocates_nothing_per_iteration_of_it(self):
        # The slide is computed per iteration, never laid out over the budget.
        store = build_tuple_store(parse_model("3^4"), VscaConfig(2))
        params = small_params(variant="cpso", max_iterations=10**9, patience=3)
        tracemalloc.start()
        try:
            _, iterations, stop, _ = generate_one_test(store, params, None,
                                                       np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stop in ("stalled", "all-covered") and iterations < 100
        assert peak < 2**20


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
        assert (params.swarm_size, params.max_iterations, params.patience) == (240, 100, 20)
        assert params.variant == "fpso"
        assert params.rng_seed == 0
        cpso = SwarmParams(variant="cpso")
        assert (cpso.swarm_size, cpso.max_iterations, cpso.patience) == (80, 100, None)
        assert pso.VARIANT_DEFAULTS == {"fpso": {"swarm_size": 240, "patience": 20},
                                        "cpso": {"swarm_size": 80, "patience": None}}
        assert pso.C1 == pso.C2 == 2.0

    @pytest.mark.parametrize("variant", pso.VARIANTS)
    def test_replace_keeps_the_variants_budget(self, variant):
        params = dataclasses.replace(SwarmParams(variant=variant), rng_seed=1)
        budget = pso.VARIANT_DEFAULTS[variant]
        assert (params.swarm_size, params.patience) == (budget["swarm_size"], budget["patience"])
        assert params.rng_seed == 1

    def test_holds_only_the_run_settings(self):
        assert [f.name for f in dataclasses.fields(SwarmParams)] == [
            "swarm_size", "max_iterations", "variant", "rng_seed", "patience"]

    @pytest.mark.parametrize(
        "kwargs",
        [{"swarm_size": 1}, {"max_iterations": 0}, {"variant": "dpso"}, {"rng_seed": -1},
         {"patience": 0}, {"patience": -1}, {"patience": True}, {"patience": 2.5},
         {"swarm_size": 4.0}, {"swarm_size": True}, {"max_iterations": 2.5},
         {"max_iterations": True}, {"rng_seed": 1.5}, {"rng_seed": False}],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be"):
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
        np.testing.assert_array_equal(store.counts(np.array([case])), [10])

    def test_empty_store_raises(self):
        store = TupleStore(parse_model("2^2"), [])
        with pytest.raises(ValueError, match="empty"):
            generate_one_test(store, small_params(), FisController(), np.random.default_rng(0))

    def test_fpso_without_a_controller_raises(self):
        store = build_tuple_store(parse_model("2^2"), VscaConfig(2))
        with pytest.raises(ValueError, match="^the fpso variant needs a FisController$"):
            generate_one_test(store, small_params(), None, np.random.default_rng(0))


class TestBests:
    def test_personal_and_global_best_rules(self, monkeypatch, trace):
        # Start [1, 3, 3]: the tie puts the global best on particle 1, the first.
        # Iteration 1 [2, 1, 3]: only particle 0's personal best moves; 3 equals
        # the incumbent, so the global best stays. Iteration 2 [4, 4, 0]: personal
        # bests 0 and 1 move; the tie moves the global best to particle 0.
        store = ScriptedStore(parse_model("5^3"),
                              [[1, 3, 3], [2, 1, 3], [4, 4, 0], [0, 0, 0]], 10)
        # Each iteration's pulls, plus the positions they were taken from, give
        # the bests back, up to rounding; a best that is its row's position
        # pulls by exactly 0.
        seen_pulls, seen_positions = [], []
        update, advance = pso.velocity_update, pso.position_update

        def record_pulls(velocity, pulls, *rest):
            seen_pulls.append(pulls.copy())
            return update(velocity, pulls, *rest)

        def record_position(position, *rest):
            seen_positions.append(position.copy())
            return advance(position, *rest)

        monkeypatch.setattr(pso, "velocity_update", record_pulls)
        monkeypatch.setattr(pso, "position_update", record_position)
        (case, iterations, stop, repaired), records = trace(
            generate_one_test, store,
            small_params(swarm_size=3, max_iterations=3, variant="cpso"),
            None, np.random.default_rng(0))
        (p0, p1, p2), (pulls0, pulls1, pulls2) = seen_positions, seen_pulls
        assert not (p0 == p1).all(axis=1).any() and not (p1 == p2).all(axis=1).any()
        np.testing.assert_array_equal(pulls0[0], 0)
        np.testing.assert_allclose(pulls0[1] + p0, [p0[1]] * 3)
        np.testing.assert_array_equal(pulls0[1][1], 0)
        np.testing.assert_allclose(pulls1[0] + p1, [p1[0], p0[1], p0[2]])
        np.testing.assert_array_equal(pulls1[0][0], 0)
        np.testing.assert_allclose(pulls1[1] + p1, [p0[1]] * 3)
        np.testing.assert_allclose(pulls2[0] + p2, [p2[0], p2[1], p0[2]])
        np.testing.assert_array_equal(pulls2[0][:2], 0)
        np.testing.assert_allclose(pulls2[1] + p2, [p2[0]] * 3)
        np.testing.assert_array_equal(pulls2[1][0], 0)
        assert [r.gbest_fitness for r in records] == [3, 4, 4]
        # The accepted case is the scorer's rounding of p2[0], from iteration 2.
        np.testing.assert_array_equal(store.scored[2][0], np.ceil(p2[0] - 0.5))
        assert case == tuple(store.scored[2][0])
        assert (iterations, stop, repaired) == (3, "budget", False)

    def test_a_search_that_never_scores_above_zero_is_repaired(self):
        # Every scripted row is 0, so the global best covers nothing new; the
        # case is built around the store's smallest uncovered tuple instead.
        store = ScriptedStore(parse_model("5^3"), [[0, 0, 0]] * 4, 10)
        case, iterations, stop, repaired = generate_one_test(
            store, small_params(swarm_size=3, max_iterations=3, variant="cpso"),
            None, np.random.default_rng(0))
        assert (iterations, stop, repaired) == (3, "budget", True)
        assert case[0] == 1

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
    controller calls through FisController.infer_w_batch. Both variants share
    one search path: the measures cover the whole swarm, and the distances
    are computed, in one call per iteration, only where the controller or
    the trace reads them."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_ncf_call_per_iteration_and_inference_only_under_fpso(self, variant, monkeypatch,
                                                                       caplog):
        params = small_params(variant=variant, max_iterations=10)
        calls = {}
        ncf, distance = pso.compute_ncf, pso.compute_distance_pct
        infer = FisController.infer_w_batch

        def counted_ncf(fitness, *args):
            calls["ncf"] += 1
            calls["ncf_rows"].add(len(fitness))
            return ncf(fitness, *args)

        def counted_distance(*args):
            calls["distance"] += 1
            return distance(*args)

        def counted_infer(self, *args):
            calls["infer"] += 1
            return infer(self, *args)

        monkeypatch.setattr(pso, "compute_ncf", counted_ncf)
        monkeypatch.setattr(pso, "compute_distance_pct", counted_distance)
        monkeypatch.setattr(FisController, "infer_w_batch", counted_infer)
        for level in (logging.INFO, logging.DEBUG):
            calls.update(ncf=0, ncf_rows=set(), distance=0, infer=0)
            with caplog.at_level(level, logger="vscit"):
                result = generate_suite(parse_model("3^5"), VscaConfig(3), params,
                                        FisController())
            iterations = sum(r.iterations for r in result.tests)
            assert iterations > len(result.suite.cases)
            assert calls["ncf"] == iterations
            assert calls["ncf_rows"] == {params.swarm_size}
            measured = variant == "fpso" or level == logging.DEBUG
            assert calls["distance"] == (iterations if measured else 0)
            assert calls["infer"] == (iterations if variant == "fpso" else 0)

    def test_the_trace_is_built_only_with_debug_on(self, monkeypatch, caplog, trace):
        built = []
        record = pso.IterationRecord

        def counted(*args):
            built.append(1)
            return record(*args)

        monkeypatch.setattr(pso, "IterationRecord", counted)
        caplog.set_level(logging.INFO, logger="vscit")
        iterations = 0
        for variant in VARIANTS:
            result = generate_suite(parse_model("3^5"), VscaConfig(3),
                                    small_params(variant=variant, max_iterations=10))
            iterations += sum(r.iterations for r in result.tests)
        assert iterations > 0
        assert not built
        _, records = trace(generate_suite, parse_model("3^5"), VscaConfig(3),
                           small_params(max_iterations=10))
        assert len(built) == len(records) > 0

    def test_every_hooked_name_is_still_there(self):
        # The names perfbench/run.py's install_spans wraps, by owner; a name
        # that is gone only makes perfbench print "absent:" and read its layer as 0.
        hooked = {
            pso: ("build_tuple_store", "remove_covered", "generate_one_test", "velocity_update",
                  "position_update", "compute_ncf", "verify_suite"),
            FisController: ("infer_w_batch",),
            vscit.cli: ("cmd_verify", "read_suite", "verify_suite"),
        }
        for owner, names in hooked.items():
            for name in names:
                assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"


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

    def test_decodes_one_row_not_the_whole_store(self):
        # A fresh 4^14 t=4 store holds 256,256 uncovered tuples; decoding them all
        # would take over 100 MB of int64 rows.
        store = build_tuple_store(parse_model("4^14"), VscaConfig(4))
        _repair_case(store, np.random.default_rng(0))  # first-call imports are not traced
        tracemalloc.start()
        try:
            case = _repair_case(store, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert case[:4] == (0, 0, 0, 0)
        assert peak < 2**20


class TestGenerateSuite:
    def test_single_parameter_enumerates_levels(self):
        result = generate_suite(parse_model("3"), VscaConfig(1), small_params())
        assert sorted(result.suite.cases.tolist()) == [[0], [1], [2]]

    def test_full_strength_three_levels_is_exhaustive(self):
        result = generate_suite(parse_model("3^3"), VscaConfig(3), SwarmParams(rng_seed=1))
        assert len(result.suite) == 27
        assert len(np.unique(result.suite.cases, axis=0)) == 27

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
            assert result.suite.cases.tolist() == [[0, 0, 0]]
            assert records == ()
            assert result.tests == (pso.TestRecord(0, "all-covered", False, 3),)

    def test_reproducible_for_fixed_seed(self, trace):
        model = parse_model("3^5")
        a, a_records = trace(generate_suite, model, VscaConfig(2), SwarmParams(rng_seed=42))
        b, b_records = trace(generate_suite, model, VscaConfig(2), SwarmParams(rng_seed=42))
        assert a == b
        assert a_records == b_records

    def test_a_used_controller_runs_as_a_fresh_one(self, trace):
        # Entered at w_min, this run's controller changes the suite unless
        # generate_suite starts it at w_max.
        model = parse_model("3^4")
        params = SwarmParams(swarm_size=10, max_iterations=20, rng_seed=39, patience=None)
        used = FisController()
        used.last_w = 0.1
        fresh = trace(generate_suite, model, VscaConfig(2), params, FisController())
        assert trace(generate_suite, model, VscaConfig(2), params, used) == fresh
        assert used.last_w != 0.1

    def test_a_weight_that_overflows_a_velocity_is_refused(self):
        # Velocities reach 2 per component on 3^3, so w_max * 2 must stay finite.
        model, params = parse_model("3^3"), small_params(max_iterations=3)
        biggest = np.finfo(float).max
        generate_suite(model, VscaConfig(2), params, FisController(w_max=biggest / 2))
        with pytest.raises(ValueError, match="times a velocity overflows a float"):
            generate_suite(model, VscaConfig(2), params, FisController(w_max=biggest))

    def test_different_seeds_usually_differ(self):
        model = parse_model("3^5")
        a = generate_suite(model, VscaConfig(2), SwarmParams(rng_seed=1))
        b = generate_suite(model, VscaConfig(2), SwarmParams(rng_seed=2))
        assert not np.array_equal(a.suite.cases, b.suite.cases)

    def test_gbest_fitness_monotone_within_each_test(self, trace):
        params = small_params(max_iterations=10, patience=3)
        result, trace_records = trace(generate_suite, parse_model("3^5"), VscaConfig(3), params)
        assert trace_records
        last = {}
        for index, records in itertools.groupby(trace_records, key=lambda r: r.test_index):
            records = list(records)
            fitnesses = [r.gbest_fitness for r in records]
            assert fitnesses == sorted(fitnesses)
            # The first iteration's rise is over the initial best, which the trace omits.
            assert records[0].stalled in (0, 1)
            for before, now in zip(records, records[1:]):
                rose = now.gbest_fitness > before.gbest_fitness
                assert now.stalled == (0 if rose else before.stalled + 1)
            last[index] = records[-1]
        stalled = [i for i, test in enumerate(result.tests) if test.stop == "stalled"]
        assert stalled, "a patience of 3 should stop some search stalled"
        assert all(last[i].stalled == params.patience for i in stalled)

    def test_iteration_log_fields(self, trace):
        _, records = trace(generate_suite, parse_model("3^5"), VscaConfig(3),
                           small_params(max_iterations=10))
        assert records, "contended run should log iterations"
        for rec in records:
            assert 0 <= rec.ncf <= 100
            assert 0 <= rec.d1 <= 100 and 0 <= rec.d2 <= 100
            assert 0.1 <= rec.w <= 0.9

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


class TestPublicApi:
    def test_package_exports(self):
        assert vscit.SwarmParams is SwarmParams
        assert callable(vscit.generate_suite)
        assert vscit.__version__

    def test_the_root_holds_the_library_api(self):
        # The helpers behind the API are read from their modules.
        submodules = {"cli", "fis", "model", "pso", "tuples", "verify"}
        assert {name for name in dir(vscit) if not name.startswith("_")} - submodules == {
            "ConfigError", "CoverageReport", "FisController", "InternalCoverageError",
            "MembershipFunction", "ParseError", "RunResult", "SubConfig", "SutModel",
            "SwarmParams", "TestCase", "TestSuite", "VscaConfig", "controller_from_config",
            "generate_suite", "parse_config", "parse_model", "read_suite", "validate_config",
            "verify_suite", "write_suite"}
