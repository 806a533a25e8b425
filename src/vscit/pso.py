"""Swarm search that assembles a covering suite one accepted test at a time.

Particles move through a continuous relaxation of the discrete case box;
their rounded positions are scored by how many still-uncovered tuples they
hit. The fuzzy controller (or a linear schedule, for the conventional
variant) picks the inertia weight each particle uses each iteration.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass

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


# Cognitive and social acceleration coefficients; only the inertia weight adapts.
C1 = C2 = 2.0

# Each variant's default patience: the smallest value of the sweep in
# BENCH_10.json whose 30-run best stays and whose mean grows by at most 1% on
# every row. No value passed under cpso, whose inertia slide spans the whole
# budget: a stall stop cuts off its low-inertia end.
DEFAULT_PATIENCE = {"fpso": 50, "cpso": None}
# SwarmParams' patience until it is resolved to DEFAULT_PATIENCE[variant].
VARIANT_DEFAULT = object()


@dataclass(frozen=True)
class SwarmParams:
    """Settings of one generation run; the CLI takes its defaults from here.

    patience is the number of consecutive iterations without a new global
    best after which a search stops; None runs the whole max_iterations
    budget, as the paper does. Left out, it is DEFAULT_PATIENCE[variant],
    fixed at construction (so dataclasses.replace of the variant keeps it).
    """

    swarm_size: int = 80
    max_iterations: int = 100
    variant: str = "fpso"
    rng_seed: int = 0
    patience: int | None = VARIANT_DEFAULT

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError(f"swarm_size must be >= 2, got {self.swarm_size}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.patience is VARIANT_DEFAULT:
            object.__setattr__(self, "patience", DEFAULT_PATIENCE[self.variant])
        elif self.patience is not None and (
                type(self.patience) is not int or self.patience < 1):
            raise ValueError(f"patience must be an integer >= 1 or None, got {self.patience!r}")


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration diagnostics: the measures fed to the controller (as seen
    by the last particle processed) and the best fitness reached so far;
    built only as the payload of a DEBUG message, when DEBUG is on."""

    test_index: int
    iteration: int
    gbest_fitness: int
    ncf: float
    d1: float
    d2: float
    nor_nubf: float | None
    w_selection: float | None
    w: float

    def __str__(self) -> str:
        """The trace line: one per iteration in DEBUG logging."""
        nubf = "undef" if self.nor_nubf is None else f"{self.nor_nubf:.2f}"
        wsel = "undef" if self.w_selection is None else f"{self.w_selection:.2f}"
        return (
            f"test={self.test_index} iter={self.iteration} fitness={self.gbest_fitness} "
            f"ncf={self.ncf:.2f} d1={self.d1:.2f} d2={self.d2:.2f} "
            f"nornubf={nubf} w_selection={wsel} w={self.w:.3f}"
        )


@dataclass(frozen=True)
class TestRecord:
    """One accepted test: search iterations run, why the search stopped
    ("all-covered", "stalled" or "budget"), whether repair fired, tuples
    newly covered."""

    iterations: int
    stop: str
    repaired: bool
    covered: int

    def __str__(self) -> str:
        """The per-test line of the run log and of INFO logging: one JSON object."""
        return json.dumps(asdict(self))


@dataclass(frozen=True)
class RunResult:
    suite: TestSuite
    tests: tuple[TestRecord, ...]


def discretize(position, levels) -> TestCase:
    """Round a continuous position to the nearest valid case, ties toward zero."""
    vmax = np.asarray(levels, dtype=float) - 1.0
    # Ties go toward zero, so boundaries never jump up. The search rounds the same
    # way, without the clamp: position_update keeps its positions inside the box.
    row = np.clip(np.ceil(np.asarray(position, dtype=float) - 0.5), 0.0, vmax)
    return tuple(int(x) for x in row)


def velocity_update(position: np.ndarray, velocity: np.ndarray, pbest: np.ndarray,
                    gbest: np.ndarray, w: np.ndarray, vmax: np.ndarray,
                    c1: float, c2: float, rng) -> np.ndarray:
    """Inertia plus cognitive and social pulls for every row, clamped per component.

    Rows are particles: position, velocity and pbest are (n, k), w is (n,).
    One uniform scalar per pull per row, not per dimension, drawn as an
    (n, 2) block whose column 0 is the cognitive draw; row by row that is
    the stream of 2n scalar draws, cognitive first, which pins seeded runs.
    """
    r = rng.random((len(position), 2))
    v = (
        w[:, None] * velocity
        + (c1 * r[:, :1]) * (pbest - position)
        + (c2 * r[:, 1:]) * (gbest - position)
    )
    np.minimum(v, vmax, out=v)
    np.maximum(v, -vmax, out=v)
    return v


def position_update(position: np.ndarray, velocity: np.ndarray,
                    vmax: np.ndarray) -> np.ndarray:
    """Advance every row by its velocity, clamped into the case box."""
    pos = position + velocity
    np.minimum(pos, vmax, out=pos)
    np.maximum(pos, 0.0, out=pos)
    return pos


def _cpso_weight(iteration: int, max_iterations: int) -> float:
    """Linear slide from W_MAX_DEFAULT down to W_MIN_DEFAULT across the budget."""
    if max_iterations <= 1:
        return W_MAX_DEFAULT
    frac = (iteration - 1) / (max_iterations - 1)
    return W_MAX_DEFAULT - (W_MAX_DEFAULT - W_MIN_DEFAULT) * frac


def generate_one_test(store: TupleStore, params: SwarmParams,
                      controller: FisController | None, rng, *,
                      test_index: int = 0) -> tuple[TestCase, int, str, bool]:
    """Run one swarm search: the best case found, then the first three TestRecord fields.

    Particles start uniformly over the box with velocities drawn uniformly
    from the clamp range [-(v_i - 1), v_i - 1] (one block of position draws,
    then one block of velocity draws); personal bests start at the initial
    positions and the global best at the best of those. The swarm is held
    as (n, k) arrays and every iteration moves all particles at once. After
    the moves, a personal best moves wherever the new fitness strictly beats
    it, and the global best moves to the first argmax of the iteration's
    fitness only if that strictly beats the incumbent. The loop
    stops early once the global best hits every combination that still has
    an uncovered tuple, after which no iteration can change the outcome, or
    once params.patience iterations in a row left the global best where it
    was. If the final case covers nothing new, it is replaced by one built
    around the smallest uncovered tuple so the outer loop always makes
    progress.
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

    position = rng.random((size, k)) * vmax
    velocity = (rng.random((size, k)) * 2.0 - 1.0) * vmax
    fits = store.counts(np.ceil(position - 0.5))
    pbest = position.copy()
    pbest_fitness = fits.copy()
    gbest_index = int(np.argmax(fits))  # first maximum wins; ties keep the incumbent
    gbest_position = position[gbest_index].copy()
    gbest_fitness = int(fits[gbest_index])

    traced = logger.isEnabledFor(logging.DEBUG)
    if params.variant == "fpso":
        rows = slice(None)
    else:
        # Without the controller only the trace reads the measures, and it logs
        # the last particle's: d1 and d2 are computed only for it, but
        # compute_ncf runs once per iteration, which perfbench counts.
        rows = slice(-1, None)
        ws = np.empty(size)
        selections = np.full(size, np.nan)
    patience = math.inf if params.patience is None else params.patience
    stalled = iteration = 0
    # A one-point box (max_distance == 0) never enters: its one case hits every open combination.
    while (iteration < params.max_iterations and gbest_fitness < max_fitness
           and stalled < patience):
        iteration += 1
        ncf = compute_ncf(fits[rows], 0, max_fitness)
        if params.variant == "fpso" or traced:
            d1 = compute_distance_pct(position[rows], pbest[rows], max_distance)
            d2 = compute_distance_pct(position[rows], gbest_position, max_distance)
        if params.variant == "fpso":
            ws, selections = controller.infer_w_batch(ncf, d1, d2)
        else:
            ws.fill(_cpso_weight(iteration, params.max_iterations))
        # All moves this iteration see the same global best; bests update after.
        velocity = velocity_update(position, velocity, pbest, gbest_position, ws,
                                   vmax, C1, C2, rng)
        position = position_update(position, velocity, vmax)
        fits = store.counts(np.ceil(position - 0.5))
        better = fits > pbest_fitness
        pbest[better] = position[better]
        pbest_fitness[better] = fits[better]
        best = int(np.argmax(fits))
        improved = bool(fits[best] > gbest_fitness)
        if improved:
            gbest_fitness = int(fits[best])
            gbest_position = position[best].copy()
        stalled = 0 if improved else stalled + 1
        if traced:
            sel = float(selections[-1])
            logger.debug("%s", IterationRecord(
                test_index, iteration, gbest_fitness, float(ncf[-1]), float(d1[-1]),
                float(d2[-1]), compute_nor_nubf(stalled, params.max_iterations),
                None if math.isnan(sel) else sel, float(ws[-1])))

    if gbest_fitness >= max_fitness:
        stop = "all-covered"
    elif stalled >= patience:
        stop = "stalled"
    else:
        stop = "budget"
    case = discretize(gbest_position, levels)
    repaired = coverage_count(case, store) == 0
    if repaired:
        case = _repair_case(store, rng)
    return case, iteration, stop, repaired


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
        controller = FisController()
    store = build_tuple_store(model, config)
    cases: list[TestCase] = []
    tests: list[TestRecord] = []
    while store.remaining_count > 0:
        case, *search = generate_one_test(store, params, controller, rng, test_index=len(cases))
        cases.append(case)
        tests.append(TestRecord(*search, remove_covered(case, store)))
        logger.info("%s", tests[-1])
    suite = TestSuite(model, config, tuple(cases))
    report = verify_suite(suite)
    if not report.complete:
        raise InternalCoverageError(
            f"suite misses {len(report.missing)} of {report.required} required tuples"
        )
    return RunResult(suite=suite, tests=tuple(tests))


def analytic_lower_bound(model: SutModel, config: VscaConfig) -> int:
    """No suite can be smaller than the largest single-combination tuple count."""
    best = 0
    demands = [(tuple(range(model.k)), config.main_strength)]
    demands += [(tuple(sorted(sub.indices)), sub.strength) for sub in config.sub_configs]
    for pool, strength in demands:
        vs = sorted((model.param_levels[i] for i in pool), reverse=True)
        best = max(best, math.prod(vs[:strength]))
    return best
