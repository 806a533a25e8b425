"""Swarm search that assembles a covering suite one accepted test at a time.

Particles move through a continuous relaxation of the discrete case box;
their rounded positions are scored by how many still-uncovered tuples they
hit. The fuzzy controller (or a linear schedule, for the conventional
variant) picks the inertia weight each particle uses each iteration.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .fis import (
    W_MAX_DEFAULT,
    W_MIN_DEFAULT,
    FisController,
    compute_distance_pct,
    compute_ncf,
    compute_nor_nubf,
)
from .model import SutModel, TestCase, TestSuite, VscaConfig, validate_config
from .tuples import TupleStore, build_tuple_store, coverage_count, remove_covered
from .verify import verify_suite

logger = logging.getLogger("vscit")

VARIANTS = ("fpso", "cpso")


class InternalCoverageError(RuntimeError):
    """A finished suite failed the independent coverage check; always a bug."""


@dataclass(frozen=True)
class SwarmParams:
    """Knobs for one generation run."""

    swarm_size: int = 80
    max_iterations: int = 100
    c1: float = 2.0
    c2: float = 2.0
    w_max: float = W_MAX_DEFAULT
    variant: str = "fpso"
    rng_seed: int = 0

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError(f"swarm_size must be >= 2, got {self.swarm_size}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


@dataclass
class Particle:
    """Continuous position/velocity over the case box, plus the personal best.

    Components of position stay in [0, vmax_i]; of velocity in [-vmax_i, vmax_i],
    where vmax_i = v_i - 1.
    """

    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_fitness: int
    vmax: np.ndarray


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration diagnostics: the measures fed to the controller (as seen
    by the last particle processed) and the best fitness reached so far."""

    test_index: int
    iteration: int
    gbest_fitness: int
    ncf: float
    d1: float
    d2: float
    nor_nubf: float | None
    w_selection: float | None
    w: float


@dataclass(frozen=True)
class RunResult:
    suite: TestSuite
    iterations_log: tuple[IterationRecord, ...]
    seed: int


def _snap(positions: np.ndarray, vmax: np.ndarray) -> np.ndarray:
    # Round to nearest with .5 going toward zero, so boundaries never jump up.
    return np.clip(np.ceil(positions - 0.5), 0.0, vmax).astype(np.int64)


def discretize(position, levels) -> TestCase:
    """Round a continuous position to the nearest valid case, ties toward zero."""
    vmax = np.asarray(levels, dtype=float) - 1.0
    row = _snap(np.atleast_2d(np.asarray(position, dtype=float)), vmax)[0]
    return tuple(int(x) for x in row)


def velocity_update(particle: Particle, gbest: np.ndarray, w: float,
                    c1: float, c2: float, rng) -> np.ndarray:
    """Inertia plus cognitive and social pulls, clamped per component.

    One uniform scalar per pull per call, not per dimension; the cognitive
    draw comes first, which pins the stream layout for seeded runs.
    """
    r1 = rng.random()
    r2 = rng.random()
    v = (
        w * particle.velocity
        + (c1 * r1) * (particle.pbest_position - particle.position)
        + (c2 * r2) * (gbest - particle.position)
    )
    np.minimum(v, particle.vmax, out=v)
    np.maximum(v, -particle.vmax, out=v)
    return v


def position_update(particle: Particle) -> np.ndarray:
    """Advance by the current velocity, clamped into the case box."""
    pos = particle.position + particle.velocity
    np.minimum(pos, particle.vmax, out=pos)
    np.maximum(pos, 0.0, out=pos)
    return pos


def _cpso_weight(iteration: int, max_iterations: int, w_max: float) -> float:
    """Linear slide from w_max down to the floor across the iteration budget."""
    if max_iterations <= 1:
        return w_max
    frac = (iteration - 1) / (max_iterations - 1)
    return w_max - (w_max - W_MIN_DEFAULT) * frac


def generate_one_test(store: TupleStore, params: SwarmParams,
                      controller: FisController | None, rng, *,
                      test_index: int = 0,
                      log: list[IterationRecord] | None = None) -> TestCase:
    """Run one swarm search and return the best case it found.

    Particles start uniformly over the box with velocities drawn uniformly
    from the clamp range [-(v_i - 1), v_i - 1] (one block of position draws,
    then one block of velocity draws); personal bests start at the initial
    positions and the global best at the best of those. Personal and global
    bests move only on strict fitness improvement, with bookkeeping applied
    in particle-index order after all of an iteration's moves. The loop
    stops early once the global best hits every combination that still has
    an uncovered tuple, after which no iteration can change the outcome. If
    the final case covers nothing new, it is replaced by one built around
    the smallest uncovered tuple so the outer loop always makes progress.
    """
    if store.remaining_count == 0:
        raise ValueError("tuple store is empty; nothing left to cover")
    if params.variant == "fpso" and controller is None:
        raise ValueError("the fpso variant needs a FisController")
    levels = store.model.param_levels
    k = len(levels)
    size = params.swarm_size
    vmax = np.array([v - 1 for v in levels], dtype=float)
    max_fitness = store.open_combinations
    max_distance = float(np.linalg.norm(vmax))

    start = rng.random((size, k)) * vmax
    start_velocity = (rng.random((size, k)) * 2.0 - 1.0) * vmax
    fits = store.counts(_snap(start, vmax))
    particles = [
        Particle(
            position=start[i].copy(),
            velocity=start_velocity[i].copy(),
            pbest_position=start[i].copy(),
            pbest_fitness=int(fits[i]),
            vmax=vmax,
        )
        for i in range(size)
    ]
    gbest_index = int(np.argmax(fits))  # first maximum wins; ties keep the incumbent
    gbest_position = particles[gbest_index].position.copy()
    gbest_fitness = int(fits[gbest_index])

    stalled = 0
    zeros = np.zeros(size)
    for iteration in range(1, params.max_iterations + 1):
        if gbest_fitness >= max_fitness:
            break
        ncf = compute_ncf(fits, 0, max_fitness)
        if max_distance > 0:
            positions = np.stack([p.position for p in particles])
            pbests = np.stack([p.pbest_position for p in particles])
            d1 = compute_distance_pct(positions, pbests, max_distance)
            d2 = compute_distance_pct(positions, gbest_position, max_distance)
        else:
            d1 = d2 = zeros  # single-point box: every position coincides
        if params.variant == "fpso":
            ws, selections = controller.infer_w_batch(ncf, d1, d2, return_selection=True)
        else:
            ws = np.full(size, _cpso_weight(iteration, params.max_iterations, params.w_max))
            selections = np.full(size, np.nan)
        # All moves this iteration see the same global best; bests update after.
        for i, p in enumerate(particles):
            p.velocity = velocity_update(p, gbest_position, float(ws[i]), params.c1, params.c2, rng)
            p.position = position_update(p)
        fits = store.counts(_snap(np.stack([p.position for p in particles]), vmax))
        improved = False
        for i, p in enumerate(particles):
            f = int(fits[i])
            if f > p.pbest_fitness:
                p.pbest_fitness = f
                p.pbest_position = p.position.copy()
            if f > gbest_fitness:
                gbest_fitness = f
                gbest_position = p.position.copy()
                improved = True
        stalled = 0 if improved else stalled + 1
        nor_nubf = compute_nor_nubf(stalled, params.max_iterations)
        sel = float(selections[-1])
        w_selection = None if math.isnan(sel) else sel
        if log is not None:
            log.append(IterationRecord(
                test_index, iteration, gbest_fitness,
                float(ncf[-1]), float(d1[-1]), float(d2[-1]),
                nor_nubf, w_selection, float(ws[-1]),
            ))
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "test=%d iter=%d fitness=%d ncf=%.2f d1=%.2f d2=%.2f nornubf=%s w_selection=%s w=%.3f",
                test_index, iteration, gbest_fitness, ncf[-1], d1[-1], d2[-1],
                "undef" if nor_nubf is None else f"{nor_nubf:.2f}",
                "undef" if w_selection is None else f"{w_selection:.2f}",
                ws[-1],
            )

    case = discretize(gbest_position, levels)
    if coverage_count(case, store) == 0:
        case = _repair_case(store, rng)
    return case


def _repair_case(store: TupleStore, rng) -> TestCase:
    """Build a case around the smallest uncovered tuple, free values random."""
    key, tup = store.first_uncovered()
    values = [int(rng.integers(v)) for v in store.model.param_levels]
    for idx, val in zip(key, tup):
        values[idx] = val
    return tuple(values)


def generate_suite(model: SutModel, config: VscaConfig, params: SwarmParams,
                   controller: FisController | None = None) -> RunResult:
    """Greedy outer loop: search for one test, accept it, delete what it covers.

    Deletion happens only after a case is accepted into the suite. The
    finished suite is re-checked against the independent oracle on every
    run; a shortfall raises InternalCoverageError. Deterministic for a
    fixed seed.
    """
    config = validate_config(model, config)
    rng = np.random.default_rng(params.rng_seed)
    if params.variant == "fpso" and controller is None:
        controller = FisController(w_max=params.w_max)
    store = build_tuple_store(model, config)
    log: list[IterationRecord] = []
    cases: list[TestCase] = []
    while store.remaining_count > 0:
        case = generate_one_test(store, params, controller, rng,
                                 test_index=len(cases), log=log)
        removed = remove_covered(case, store)
        cases.append(case)
        logger.info("test %d covered %d new tuples, %d remaining",
                    len(cases) - 1, removed, store.remaining_count)
    suite = TestSuite(model, config, tuple(cases))
    report = verify_suite(suite)
    if not report.complete:
        raise InternalCoverageError(
            f"suite misses {len(report.missing)} of {report.required} required tuples"
        )
    return RunResult(suite=suite, iterations_log=tuple(log), seed=params.rng_seed)


def analytic_lower_bound(model: SutModel, config: VscaConfig) -> int:
    """No suite can be smaller than the largest single-combination tuple count."""
    best = 0
    demands = [(tuple(range(model.k)), config.main_strength)]
    demands += [(tuple(sorted(sub.indices)), sub.strength) for sub in config.sub_configs]
    for pool, strength in demands:
        vs = sorted((model.param_levels[i] for i in pool), reverse=True)
        best = max(best, math.prod(vs[:strength]))
    return best
