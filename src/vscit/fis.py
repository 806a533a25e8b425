"""Mamdani controller that adapts the swarm's inertia weight online.

Three measures on a 0..100 scale feed the paper's four fuzzy rules: the
current fitness relative to the per-test ceiling (ncf) and the percentage
distances from a particle to its personal best (d1) and to the global best
(d2). The rules are code in FisController.infer_w_batch. The defuzzified
output, also on 0..100, is scaled onto the bounded inertia range.

A membership function is held as its sloped sides, (foot, run) pairs whose
level at x is (x - foot) / run; a degree is the least of its sides' levels,
floored at 0. A shoulder has no side, so only a set whose shoulder lies
strictly inside (0, 100), or one of zero width, keeps a support mask.
Defuzzification is the exact centroid of the clipped-max aggregate, linear
between sorted breakpoints: the sets' feet and peaks, the crossings of every
pair of sides, and the points where every side meets every fired label's
clip level. 2-point Gauss quadrature per segment is exact for a linear piece
and never samples a segment's ends, so a jump at an interior shoulder counts.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations

import numpy as np

W_MAX_DEFAULT = 0.9
W_MIN_DEFAULT = 0.1

INPUT_NAMES = ("ncf", "d1", "d2")

# Every (input, label) term the rules read, and every output label they
# set, in the order the rules read them: the first label missing is the one
# reported, and infer_w_batch unpacks the term degrees in this order.
_RULE_TERMS = (("ncf", "low"), ("d1", "low"), ("d2", "low"), ("ncf", "medium"),
               ("ncf", "high"), ("d1", "high"), ("d2", "high"))
_RULE_OUTPUTS = ("low", "high")

# The two Gauss-Legendre nodes of a segment, as fractions of its width.
_GAUSS_NODES = np.array([[0.5 - 0.5 / math.sqrt(3.0)], [0.5 + 0.5 / math.sqrt(3.0)]])


def _real(name: str, value) -> float:
    """value as a float; a bool, a non-real or an int past the float range raises, naming name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None


@dataclass(frozen=True)
class MembershipFunction:
    """Triangular membership on [0, 100]: zero at the feet, 1.0 at the peak.

    A foot coinciding with the peak makes that side a shoulder (degree 1.0
    right up to the peak). A sloped side must be wide enough that a rise of
    up to 100 over it stays a finite float.
    """

    left: float
    peak: float
    right: float

    def __post_init__(self):
        for name in ("left", "peak", "right"):
            _real(name, getattr(self, name))
        if not 0 <= self.left <= self.peak <= self.right <= 100:
            raise ValueError(
                "breakpoints must satisfy 0 <= left <= peak <= right <= 100, "
                f"got ({self.left}, {self.peak}, {self.right})"
            )
        for side, width in (("rising", self.peak - self.left), ("falling", self.right - self.peak)):
            if width > 0 and not math.isfinite(100.0 / width):
                raise ValueError(
                    f"{side} side of ({self.left}, {self.peak}, {self.right}) is too narrow: "
                    f"width {width} makes 100 / width overflow"
                )


class _Sides:
    """Membership functions as sloped sides, (foot, run) rows whose level at x is (x - foot) / run.

    Row j holds function j's first side, a second side a row past those, as
    `pairs` lists; owner names each row's function. A zero-width function (an
    input set only) has a placeholder side, and its support mask sets its degree.
    """

    def __init__(self, mfs: list[MembershipFunction], trailing: int):
        first, second, self.masks = [], [], []
        for j, mf in enumerate(mfs):
            sides = [(foot, run) for foot, run in ((mf.left, mf.peak - mf.left),
                                                   (mf.right, mf.peak - mf.right)) if run != 0]
            first.append(sides[0] if sides else (mf.left, 1.0))
            second += [(j, side) for side in sides[1:]]
            if 0 < mf.left == mf.peak or mf.peak == mf.right < 100:
                self.masks.append((j, mf.left, mf.right, not sides))
        self.pairs = [(j, row) for row, (j, _) in enumerate(second, len(mfs))]
        feet, runs = zip(*first, *(side for _, side in second))
        shape = (2, len(feet)) + (1,) * trailing
        self.feet, self.runs = np.array((feet, runs), dtype=float).reshape(shape)
        self.owner = np.array(list(range(len(mfs))) + [j for j, _ in second])

    def lowest(self, x: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Each function's least side level at x (`trailing` axes, or one row per
        side first), masked where points[j], function j's points, leave its
        support; a single row of points serves every function."""
        level = x - self.feet
        level /= self.runs
        low = level[:len(level) - len(self.pairs)]
        for j, row in self.pairs:
            np.minimum(low[j], level[row], out=low[j])
        for j, left, right, flat in self.masks:
            at = points[j if len(points) > 1 else 0]
            inside = (at >= left) & (at <= right)
            if flat:
                low[j] = inside
            else:
                low[j] *= inside
        return low


def _default_family() -> dict[str, MembershipFunction]:
    # Symmetric full-cover partition: every point of [0, 100] has nonzero
    # membership in at least one label.
    return {
        "low": MembershipFunction(0, 0, 50),
        "medium": MembershipFunction(25, 50, 75),
        "high": MembershipFunction(50, 100, 100),
    }


class _ExactCentroid:
    """Centroid of output triangles, each clipped at a strength, aggregated by max.

    The breakpoints no strength moves are fixed here: the universe's ends,
    the sets' feet and peaks, and the crossings in [0, 100] of two sides'
    lines. Each call adds the points where every side meets every clip level.
    A vertical side, standing on a foot or a peak, has no crossings of its own.
    """

    def __init__(self, mfs: list[MembershipFunction]):
        self.sides = _Sides(mfs, 3)
        edges = list(zip(self.sides.feet.ravel().tolist(), self.sides.runs.ravel().tolist()))
        points = {0.0, 100.0}
        for mf in mfs:
            points.update((float(mf.left), float(mf.peak), float(mf.right)))
        for (foot_a, run_a), (foot_b, run_b) in combinations(edges, 2):
            # Side a is y = (x - foot_a) / run_a; equate it with side b.
            if run_a != run_b:
                x = (foot_a * run_b - foot_b * run_a) / (run_b - run_a)
                if 0.0 <= x <= 100.0:
                    points.add(x)
        self.fixed = np.array(sorted(points))

    def __call__(self, strength: np.ndarray) -> np.ndarray:
        """Centroid per column of strength (sets x n), NaN where the aggregate has no area."""
        sets, n = strength.shape
        fixed, sides = self.fixed.size, len(self.sides.feet)
        breaks = np.empty((fixed + sides * sets, n))
        breaks[:fixed] = self.fixed[:, None]
        clips = breaks[fixed:].reshape(sides, 1, sets, n)
        np.multiply(strength, self.sides.runs, out=clips)
        clips += self.sides.feet
        breaks.sort(axis=0)
        # The aggregate is linear between breakpoints; two Gauss nodes per
        # segment, each weighted by the segment's width, give twice its area
        # and first moment exactly, and the factor cancels in the centroid.
        start = breaks[:-1, None]
        width = breaks[1:, None] - start
        nodes = start + width * _GAUSS_NODES
        # A node's height in a set is its sides' least level, clipped at the
        # set's strength; the aggregate is the highest set, floored at 0.
        height = self.sides.lowest(nodes, nodes[None])
        np.minimum(height, strength[:, None, None, :], out=height)
        # (area, moment) along axis 0, then the segments, the two nodes and the batch.
        terms = np.empty((2,) + nodes.shape)
        weighted = np.maximum.reduce(height, axis=0, out=terms[0], initial=0.0)
        weighted *= width
        np.multiply(weighted, nodes, out=terms[1])
        # The segment axis is never the innermost, so each column adds its
        # segments in order for every batch size; numpy adds pairwise only
        # along the innermost axis.
        totals = np.add.reduce(terms, axis=1)
        area, moment = totals[:, 0] + totals[:, 1]
        centroid = np.empty(n)
        centroid.fill(np.nan)
        return np.divide(moment, area, out=centroid, where=area > 0.0)


def _mapping(what: str, value, of: str) -> dict:
    """value as a dict; anything but a mapping raises, naming what."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a mapping of {of}, got {type(value).__name__}")
    return dict(value)


def _family(name: str, family) -> dict[str, MembershipFunction]:
    """A membership family as a dict; a value that is not a MembershipFunction
    raises, naming the family and label."""
    family = _mapping(f"{name} family", family, "label to MembershipFunction")
    for label, mf in family.items():
        if not isinstance(mf, MembershipFunction):
            raise ValueError(f"{name} set {label!r} must be a MembershipFunction, got {mf!r}")
    return family


class FisController:
    """Membership families, the four rules, and centroid defuzzifier for the inertia weight.

    Stateful: the controller remembers the last weight it emitted, and input
    triples that fire no rule hold that value. It starts at w_max, so early
    no-fire regions keep the search exploratory, and generate_suite sets it
    back to w_max at the start of every fpso run, so one controller can
    serve any number of runs.
    """

    def __init__(self, input_mfs: dict[str, dict[str, MembershipFunction]] | None = None,
                 output_mfs: dict[str, MembershipFunction] | None = None,
                 w_max: float = W_MAX_DEFAULT, w_min: float = W_MIN_DEFAULT):
        input_mfs = {} if input_mfs is None else _mapping("input_mfs", input_mfs,
                                                           "input name to family")
        unknown = set(input_mfs) - set(INPUT_NAMES)
        if unknown:
            raise ValueError(f"unknown FIS inputs {sorted(unknown)}; expected {INPUT_NAMES}")
        # A family given, even an empty one, replaces the default whole.
        self.input_mfs = {
            name: (_default_family() if input_mfs.get(name) is None
                   else _family(name, input_mfs[name]))
            for name in INPUT_NAMES
        }
        self.output_mfs = _default_family() if output_mfs is None else _family("output", output_mfs)
        for name, bound in (("w_max", w_max), ("w_min", w_min)):
            bound = _real(name, bound)
            if not math.isfinite(bound):
                raise ValueError(f"{name} must be finite, got {bound}")
            setattr(self, name, bound)
        if not 0 < self.w_min <= self.w_max:
            raise ValueError(f"need 0 < w_min <= w_max, got {self.w_min}, {self.w_max}")
        self.last_w = self.w_max
        # Replaced membership families may lack a label the rules read.
        for name, label in _RULE_TERMS:
            if label not in self.input_mfs[name]:
                raise ValueError(f"rule term ({name}, {label}) has no membership function")
        for label in _RULE_OUTPUTS:
            if label not in self.output_mfs:
                raise ValueError(f"rule consequent {label!r} has no membership function")
        # A set without width has no area, so no centroid can weigh it.
        for label, mf in self.output_mfs.items():
            if mf.left == mf.right:
                raise ValueError(f"output set {label!r} has zero width: left == right == {mf.left}")
        term_inputs = np.array([INPUT_NAMES.index(name) for name, _ in _RULE_TERMS])
        self._terms = _Sides([self.input_mfs[name][label] for name, label in _RULE_TERMS], 1)
        self._side_inputs = term_inputs[self._terms.owner]
        self._centroid = _ExactCentroid([self.output_mfs[label] for label in _RULE_OUTPUTS])

    def infer_w_batch(self, ncf, d1, d2):
        """Vectorized inference, equivalent to one call per triple in index order.

        Each rule fires at the min of its terms' degrees; each output set is
        clipped at its strongest rule, and the max aggregate is defuzzified by
        its exact centroid. A triple that fires nothing takes the weight of the
        triple before it, the first one the controller's last_w. Returns the
        weights and the selections, NaN where none fired.
        """
        try:
            x = np.array((ncf, d1, d2), dtype=float)
        except (TypeError, ValueError):
            # Only a batch that does not convert is checked input by input:
            # inputs of one 1-d shape have a fault of their own to report.
            if len({np.shape(ncf), np.shape(d1), np.shape(d2)}) == 1 and np.ndim(ncf) == 1:
                raise
            x = None
        if x is None or x.ndim != 2:
            raise ValueError("FIS inputs must be equal-length 1-d arrays")
        n = x.shape[1]
        # NaN fails both comparisons, so it is refused too. Only a refused
        # batch is scanned input by input, to name the first one at fault.
        if n and not (0.0 <= x.min() and x.max() <= 100.0):
            for name, row in zip(INPUT_NAMES, x):
                if not ((row >= 0.0) & (row <= 100.0)).all():
                    raise ValueError(f"{name} outside [0, 100]")

        # Row j of the side inputs is function j's first side, so it is j's points too.
        sides_x = x[self._side_inputs]
        degree = self._terms.lowest(sides_x, sides_x)
        np.maximum(degree, 0.0, out=degree)
        ncf_low, d1_low, d2_low, ncf_medium, ncf_high, d1_high, d2_high = degree
        # The paper's four rules. "and" is the min of the terms' degrees,
        # "not-low" is 1 - low, and each output label takes the strongest
        # rule that sets it.
        strength = np.empty((2, n))
        low, high = strength
        both_low = np.minimum(d1_low, d2_low)
        # 1. ncf low and d1 low and d2 low -> w low
        np.minimum(ncf_low, both_low, out=low)
        # 2. ncf not-low and d1 low and d2 low -> w high
        np.minimum(1.0 - ncf_low, both_low, out=high)
        # 3. ncf medium and d1 low and d2 not-low -> w high
        np.maximum(high, np.minimum(np.minimum(ncf_medium, d1_low), 1.0 - d2_low), out=high)
        # 4. ncf high and d1 high and d2 high -> w high
        np.maximum(high, np.minimum(np.minimum(ncf_high, d1_high), d2_high), out=high)
        selection = self._centroid(strength)

        # A selection scales onto [0, w_max], clamped to [w_min, w_max]; NaN
        # stays NaN. In index order, each unfired index then copies the weight
        # before it, and index 0 the weight from before this batch.
        w = np.minimum(np.maximum(selection / 100.0 * self.w_max, self.w_min), self.w_max)
        for i in np.isnan(selection).nonzero()[0].tolist():
            w[i] = w[i - 1] if i else self.last_w
        if n:
            self.last_w = float(w[-1])
        return w, selection


def compute_ncf(fitness, max_fitness: float) -> np.ndarray:
    """Each fitness as a percentage of max_fitness, the per-test ceiling (at least 1)."""
    if not max_fitness >= 1:  # NaN too
        raise ValueError(f"max_fitness must be at least 1, got {max_fitness}")
    current = np.asarray(fitness, dtype=float)
    # NaN fails both comparisons, so it is refused too.
    if current.size and not (0.0 <= current.min() and current.max() <= max_fitness):
        raise ValueError(f"fitness {fitness} outside [0, {max_fitness}]")
    return current / max_fitness * 100.0


def compute_distance_pct(gap, max_distance: float) -> np.ndarray:
    """Euclidean length of each gap row as a percentage of max_distance.

    A gap is the difference between a position and a reference point, so
    its length is their distance; it is taken along the last axis, and any
    leading axes are a batch (the search passes its pulls, one (n, k) slab
    per best). max_distance is normally the space diagonal of the discrete
    case box, i.e. the norm of the per-parameter (v_i - 1) vector, which
    bounds any in-box distance; the result is capped at 100 regardless.
    """
    gap = np.asarray(gap, dtype=float)
    if not max_distance > 0:  # NaN too
        raise ValueError("max_distance must be positive")
    pct = np.sqrt((gap * gap).sum(axis=-1)) / max_distance * 100.0
    return np.minimum(pct, 100.0)


def controller_from_config(cfg: dict) -> FisController:
    """Build a controller from a JSON-style dict; omitted pieces keep defaults.

    Recognized keys: "w_max", "w_min", "output" (label -> [left, peak, right])
    and "inputs" (input name -> label -> [left, peak, right]). A family given,
    even an empty one, replaces its default whole. Any other top-level key, or
    a value of the wrong shape or type, raises ValueError naming its key; a
    set that MembershipFunction refuses raises its error after the set's key,
    as in "output.low: breakpoints must satisfy ...".
    """
    def family(where: str, spec) -> dict[str, MembershipFunction]:
        mfs = {}
        for label, points in _mapping(where, spec, "label to [left, peak, right]").items():
            if not isinstance(points, list) or len(points) != 3:
                raise ValueError(f"{where}.{label} must be [left, peak, right], got {points!r}")
            try:
                mfs[label] = MembershipFunction(*points)
            except ValueError as exc:
                raise ValueError(f"{where}.{label}: {exc}") from None
        return mfs

    cfg = _mapping("membership config top level", cfg, "key to value")
    unknown = set(cfg) - {"w_max", "w_min", "inputs", "output"}
    if unknown:
        raise ValueError(f"unknown membership config keys {sorted(unknown, key=str)}; "
                         f"expected w_max, w_min, inputs, output")
    inputs = None if cfg.get("inputs") is None else {
        name: family(f"inputs.{name}", spec)
        for name, spec in _mapping("inputs", cfg["inputs"], "input name to family").items()
    }
    output = None if cfg.get("output") is None else family("output", cfg["output"])
    return FisController(inputs, output, cfg.get("w_max", W_MAX_DEFAULT),
                         cfg.get("w_min", W_MIN_DEFAULT))
