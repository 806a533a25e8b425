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
)
from .model import SutModel, TestCase, TestSuite, VscaConfig, is_integer_type, validate_config
from .tuples import TupleStore, build_tuple_store, remove_covered
from .verify import verify_suite

logger = logging.getLogger("vscit")

VARIANTS = ("fpso", "cpso")


class InternalCoverageError(RuntimeError):
    """A finished suite failed the independent coverage check; always a bug."""


# Cognitive and social acceleration coefficients; only the inertia weight adapts.
C1 = C2 = 2.0
_ACCELERATIONS = np.array((C1, C2))

# Each variant's default search budget. fpso's is the cheapest setting of the
# sweep in BENCH_32.json whose best suite does not grow and whose mean grows
# by at most 1% on any preset row against 80 particles with patience 50: most
# of its searches reach their final best within a few iterations. cpso keeps
# the paper's 80 particles and fixed budget: its inertia slide spans the whole
# max_iterations, so a stall stop cuts off its low-inertia end (BENCH_10.json).
VARIANT_DEFAULTS = {"fpso": {"swarm_size": 240, "patience": 20},
                    "cpso": {"swarm_size": 80, "patience": None}}
# A SwarmParams field left to its variant's entry in VARIANT_DEFAULTS.
VARIANT_DEFAULT = object()


@dataclass(frozen=True)
class SwarmParams:
    """Settings of one generation run; the CLI takes its defaults from here.

    patience is the number of consecutive iterations without a new global
    best after which a search stops; None runs the whole max_iterations
    budget, as the paper does. Left out, swarm_size and patience are the
    variant's entries in VARIANT_DEFAULTS, fixed at construction (so
    dataclasses.replace keeps them); swarm_size=80, patience=None is the
    paper's budget. swarm_size, max_iterations, rng_seed and patience take
    an integer (vscit.model.is_integer_type) and hold an int; a refused
    value raises a ValueError that names its field.
    """

    swarm_size: int = VARIANT_DEFAULT
    max_iterations: int = 100
    variant: str = "fpso"
    rng_seed: int = 0
    patience: int | None = VARIANT_DEFAULT

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name, value in VARIANT_DEFAULTS[self.variant].items():
            if getattr(self, name) is VARIANT_DEFAULT:
                object.__setattr__(self, name, value)
        for name, least in (("swarm_size", 2), ("max_iterations", 1), ("rng_seed", 0),
                            ("patience", 1)):
            value = getattr(self, name)
            if name == "patience" and value is None:
                continue
            if not is_integer_type(type(value)) or value < least:
                none = " or None" if name == "patience" else ""
                raise ValueError(f"{name} must be an integer >= {least}{none}, got {value!r}")
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration diagnostics: the measures fed to the controller (as seen
    by the last particle processed), the best fitness reached so far and the
    iterations in a row that left it where it was; built only as the payload
    of a DEBUG message, when DEBUG is on."""

    test_index: int
    iteration: int
    gbest_fitness: int
    ncf: float
    d1: float
    d2: float
    stalled: int
    w_selection: float | None
    w: float

    def __str__(self) -> str:
        """The trace line: one per iteration in DEBUG logging."""
        wsel = "undef" if self.w_selection is None else f"{self.w_selection:.2f}"
        return (
            f"test={self.test_index} iter={self.iteration} fitness={self.gbest_fitness} "
            f"ncf={self.ncf:.2f} d1={self.d1:.2f} d2={self.d2:.2f} "
            f"stalled={self.stalled} w_selection={wsel} w={self.w:.3f}"
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


def velocity_update(velocity: np.ndarray, pulls: np.ndarray, w: np.ndarray,
                    vmax: np.ndarray, rng) -> np.ndarray:
    """Inertia plus cognitive (C1) and social (C2) pulls for every row, clamped per component.

    Rows are particles: velocity is (n, k), w is (n,), or (1,) for one weight
    on every row, pulls (2, n, k) holds each row's gap to its personal best,
    then to the global best. One uniform scalar per pull per row, drawn as an
    (n, 2) block whose column 0 is the cognitive draw: row by row, the stream
    of 2n draws that pins seeded runs.
    """
    r = rng.random((len(velocity), 2))
    scaled = pulls * (r * _ACCELERATIONS).T[:, :, None]
    v = w[:, None] * velocity
    v += scaled[0]
    v += scaled[1]
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


def generate_one_test(store: TupleStore, params: SwarmParams,
                      controller: FisController | None, rng, *,
                      test_index: int = 0) -> tuple[TestCase, int, str, bool]:
    """Run one swarm search: the best case found, then the first three TestRecord fields.

    Particles start uniformly over the box with velocities drawn uniformly
    from the clamp range [-(v_i - 1), v_i - 1] (one block of position draws,
    then one block of velocity draws); personal bests start at the initial
    positions and the global best at the best of those. The swarm is (n, k)
    arrays, the bests one (2, n, k) block: personal bests, then the global
    best on every row. Each iteration takes the block's difference from the
    positions once; those pulls give the controller d1 and d2 and the moves
    their cognitive and social terms. After the moves, a personal best moves
    wherever the new fitness strictly beats it, and the global best moves to
    the first argmax of the iteration's fitness only if that strictly beats
    the incumbent. Under fpso the controller gives each particle its inertia
    weight; under cpso the iteration count gives the whole swarm one, on a
    linear slide from W_MAX_DEFAULT at iteration 1 down to W_MIN_DEFAULT at
    max_iterations. The loop stops early once the global best hits every
    combination that still has an uncovered tuple, after which no iteration
    can change the outcome, or once params.patience iterations in a row left
    the global best where it was. The accepted case is the global best's
    rounding, which its fitness already scored against this unchanged store;
    if that fitness is 0, the case is replaced by one built around the
    smallest uncovered tuple so the outer loop always makes progress.
    """
    if store.remaining_count == 0:
        raise ValueError("tuple store is empty; nothing left to cover")
    if params.variant == "fpso" and controller is None:
        raise ValueError("the fpso variant needs a FisController")
    levels = store.model.param_levels
    k = len(levels)
    vmax = np.array([v - 1 for v in levels], dtype=float)
    max_fitness = store.open_combinations
    max_distance = math.sqrt(vmax @ vmax)

    position = rng.random((params.swarm_size, k)) * vmax
    velocity = (rng.random((params.swarm_size, k)) * 2.0 - 1.0) * vmax
    fits = store.counts(np.ceil(position - 0.5))
    pbest_fitness = fits.copy()
    gbest_index = int(fits.argmax())  # first maximum wins; ties keep the incumbent
    bests = np.empty((2,) + position.shape)
    bests[0] = position
    bests[1] = position[gbest_index]
    gbest_fitness = int(fits[gbest_index])

    traced = logger.isEnabledFor(logging.DEBUG)
    fuzzy = params.variant == "fpso"
    # cpso's slide reads no measure, so there only the trace needs the distances.
    measured = fuzzy or traced
    span = max(params.max_iterations - 1, 1)
    d1 = d2 = None
    patience = math.inf if params.patience is None else params.patience
    stalled = iteration = 0
    # A one-point box (max_distance == 0) never enters: its one case hits every open combination.
    while (iteration < params.max_iterations and gbest_fitness < max_fitness
           and stalled < patience):
        iteration += 1
        ncf = compute_ncf(fits, max_fitness)
        pulls = bests - position
        if measured:
            d1, d2 = compute_distance_pct(pulls, max_distance)
        if fuzzy:
            ws, selections = controller.infer_w_batch(ncf, d1, d2)
        else:
            ws = np.array([W_MAX_DEFAULT - (W_MAX_DEFAULT - W_MIN_DEFAULT)
                           * ((iteration - 1) / span)])
        # All moves this iteration see the same global best; bests update after.
        velocity = velocity_update(velocity, pulls, ws, vmax, rng)
        position = position_update(position, velocity, vmax)
        fits = store.counts(np.ceil(position - 0.5))
        better = fits > pbest_fitness
        np.copyto(bests[0], position, where=better[:, None])
        np.copyto(pbest_fitness, fits, where=better)
        best = int(fits.argmax())
        improved = bool(fits[best] > gbest_fitness)
        if improved:
            gbest_fitness = int(fits[best])
            bests[1] = position[best]
        stalled = 0 if improved else stalled + 1
        if traced:
            sel = None if not fuzzy or math.isnan(selections[-1]) else float(selections[-1])
            logger.debug("%s", IterationRecord(
                test_index, iteration, gbest_fitness, float(ncf[-1]), float(d1[-1]),
                float(d2[-1]), stalled, sel, float(ws[-1])))

    if gbest_fitness >= max_fitness:
        stop = "all-covered"
    elif stalled >= patience:
        stop = "stalled"
    else:
        stop = "budget"
    repaired = gbest_fitness == 0
    if repaired:
        case = _repair_case(store, rng)
    else:
        case = tuple(int(x) for x in np.ceil(bests[1, 0] - 0.5))
    return case, iteration, stop, repaired


def _repair_case(store: TupleStore, rng) -> TestCase:
    """The store's first uncovered row, its free (-1) values from one draw per parameter."""
    draws = [int(rng.integers(v)) for v in store.model.param_levels]
    row = store.uncovered_rows(np.argmax(store.uncovered, keepdims=True))[0]
    return tuple(d if v < 0 else int(v) for d, v in zip(draws, row))


def generate_suite(model: SutModel, config: VscaConfig, params: SwarmParams,
                   controller: FisController | None = None) -> RunResult:
    """Greedy outer loop: search for one test, accept it, delete what it covers.

    Deletion happens only after a case is accepted into the suite. The
    finished suite is re-checked against the independent oracle on every
    run; a shortfall raises InternalCoverageError. Deterministic for a
    fixed seed, since every fpso run starts its controller at w_max.
    """
    config = validate_config(model, config)
    rng = np.random.default_rng(params.rng_seed)
    if params.variant == "fpso":
        if controller is None:
            controller = FisController()
        controller.last_w = controller.w_max
        # A weight scales velocities of up to (levels - 1) per component.
        if not math.isfinite(controller.w_max * (max(model.param_levels) - 1)):
            raise ValueError(f"w_max={controller.w_max} times a velocity overflows a float")
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

