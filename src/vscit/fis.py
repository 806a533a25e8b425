"""Mamdani controller that adapts the swarm's inertia weight online.

Three normalized performance measures on a 0..100 scale feed the paper's
four fuzzy rules: the current fitness relative to the per-test ceiling
(ncf) and the percentage distances from a particle to its personal best
(d1) and to the global best (d2). The rules are written out as code in
FisController.infer_w_batch. The defuzzified output, also on 0..100, is
scaled onto the bounded inertia range.

Defuzzification is the exact centroid of the clipped-max aggregate. Each
fired output triangle is clipped at its rule strength and the aggregate is
their pointwise max, so it is linear between sorted breakpoints: the sets'
feet and peaks, the crossings of every pair of edges, and the points where
every edge meets every fired label's clip level. Area and first moment are
summed per segment by 2-point Gauss quadrature, which is exact for a linear
piece and never samples a segment's ends, so a jump at an interior
shoulder counts correctly.
"""

from __future__ import annotations

import math
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


class _Triangles:
    """Several membership functions held as breakpoint columns.

    Function j sits on axis 0 at index j; an x with `trailing` axes
    broadcasts against every function at once.
    """

    def __init__(self, mfs: list[MembershipFunction], trailing: int):
        shape = (len(mfs),) + (1,) * trailing

        def column(values) -> np.ndarray:
            return np.array(values, dtype=float).reshape(shape)

        self.left = column([mf.left for mf in mfs])
        self.right = column([mf.right for mf in mfs])
        rise = column([mf.peak - mf.left for mf in mfs])
        fall = column([mf.right - mf.peak for mf in mfs])
        # A zero-length side is a shoulder: x / inf is 0, and the floor of 1 holds it at 1.0.
        self.rise = np.where(rise > 0, rise, np.inf)
        self.rise_floor = (rise == 0).astype(float)
        self.fall = np.where(fall > 0, fall, np.inf)
        self.fall_floor = (fall == 0).astype(float)

    def degrees(self, x):
        """Degrees of finite x: for those, x - left >= 0 exactly when x >= left."""
        rising = x - self.left
        falling = self.right - x
        inside = (rising >= 0.0) & (falling >= 0.0)
        rising /= self.rise
        rising += self.rise_floor
        falling /= self.fall
        falling += self.fall_floor
        np.minimum(rising, falling, out=rising)
        rising *= inside
        return rising


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

    The breakpoints that no strength moves are fixed here: the universe's
    ends, every set's feet and peak, and every point in [0, 100] where the
    lines of two sides cross. Each call adds the points where every side
    meets every set's clip level. A vertical side needs no crossings of its
    own, as it stands on a foot or a peak.
    """

    def __init__(self, mfs: list[MembershipFunction]):
        # Each sloped side as (foot, run): it reaches level s at foot + s * run.
        edges = []
        for mf in mfs:
            if mf.peak > mf.left:
                edges.append((mf.left, mf.peak - mf.left))
            if mf.right > mf.peak:
                edges.append((mf.right, mf.peak - mf.right))
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
        feet, runs = zip(*edges)
        self.feet = np.array(feet)[:, None, None]
        self.runs = np.array(runs)[:, None, None]
        self.sets = _Triangles(mfs, 3)

    def __call__(self, strength: np.ndarray) -> np.ndarray:
        """Centroid per column of strength (sets x n), NaN where the aggregate has no area.

        Every array runs along the batch, one column per triple.
        """
        sets, n = strength.shape
        fixed = self.fixed.size
        breaks = np.empty((fixed + self.feet.size * sets, n))
        breaks[:fixed] = self.fixed[:, None]
        clips = breaks[fixed:].reshape(self.feet.size, sets, n)
        np.multiply(strength, self.runs, out=clips)
        clips += self.feet
        breaks.sort(axis=0)
        # The aggregate is linear between breakpoints; two Gauss nodes per
        # segment, each weighted by the segment's width, give twice its area
        # and first moment exactly, and the factor cancels in the centroid.
        start = breaks[:-1, None]
        width = breaks[1:, None] - start
        nodes = start + width * _GAUSS_NODES
        height = self.sets.degrees(nodes)
        np.minimum(height, strength[:, None, None, :], out=height)
        # (area, moment) along axis 0, then the segments, the two nodes and the batch.
        terms = np.empty((2,) + nodes.shape)
        weighted = np.maximum.reduce(height, axis=0, out=terms[0])
        weighted *= width
        np.multiply(weighted, nodes, out=terms[1])
        # The segment axis is never the innermost, so each column adds its
        # segments in order for every batch size; numpy adds pairwise only
        # along the innermost axis.
        totals = np.add.reduce(terms, axis=1)
        area, moment = totals[:, 0] + totals[:, 1]
        return np.divide(moment, area, out=np.full(n, np.nan), where=area > 0.0)


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
        input_mfs = input_mfs or {}
        unknown = set(input_mfs) - set(INPUT_NAMES)
        if unknown:
            raise ValueError(f"unknown FIS inputs {sorted(unknown)}; expected {INPUT_NAMES}")
        # A family given, even an empty one, replaces the default whole.
        self.input_mfs = {
            name: dict(_default_family() if input_mfs.get(name) is None else input_mfs[name])
            for name in INPUT_NAMES
        }
        self.output_mfs = _default_family() if output_mfs is None else dict(output_mfs)
        for name, bound in (("w_max", w_max), ("w_min", w_min)):
            try:
                bound = float(bound)
            except OverflowError:
                raise ValueError(f"{name} is an integer too large for a float") from None
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
        self._term_inputs = np.array([INPUT_NAMES.index(name) for name, _ in _RULE_TERMS])
        self._terms = _Triangles([self.input_mfs[name][label] for name, label in _RULE_TERMS], 1)
        self._centroid = _ExactCentroid([self.output_mfs[label] for label in _RULE_OUTPUTS])

    def infer_w_batch(self, ncf, d1, d2):
        """Vectorized inference, equivalent to one call per triple in index order.

        Fuzzifies each triple, takes each rule's firing strength as the min
        of its terms, clips each output label's membership function at the
        strongest rule that sets it, aggregates by max, and defuzzifies by the
        exact centroid of the aggregate. Triples that fire nothing inherit
        the weight emitted for the previous index (or the stored last_w).
        Returns the weights and the defuzzified selections, NaN where no
        rule fired.
        """
        if len({np.shape(ncf), np.shape(d1), np.shape(d2)}) != 1 or np.ndim(ncf) != 1:
            raise ValueError("FIS inputs must be equal-length 1-d arrays")
        x = np.array((ncf, d1, d2), dtype=float)
        n = x.shape[1]
        # NaN fails both comparisons, so it is refused too. Only a refused
        # batch is scanned input by input, to name the first one at fault.
        if n and not (0.0 <= x.min() and x.max() <= 100.0):
            for name, row in zip(INPUT_NAMES, x):
                if not ((row >= 0.0) & (row <= 100.0)).all():
                    raise ValueError(f"{name} outside [0, 100]")

        ncf_low, d1_low, d2_low, ncf_medium, ncf_high, d1_high, d2_high = (
            self._terms.degrees(x[self._term_inputs]))
        # The paper's four rules. "and" is the min of the terms' degrees,
        # "not-low" is 1 - low, and each output label takes the strongest
        # rule that sets it.
        strength = np.empty((2, n))
        low, high = strength
        # 1. ncf low and d1 low and d2 low -> w low
        np.minimum(np.minimum(ncf_low, d1_low), d2_low, out=low)
        # 2. ncf not-low and d1 low and d2 low -> w high
        np.minimum(np.minimum(1.0 - ncf_low, d1_low), d2_low, out=high)
        # 3. ncf medium and d1 low and d2 not-low -> w high
        np.maximum(high, np.minimum(np.minimum(ncf_medium, d1_low), 1.0 - d2_low), out=high)
        # 4. ncf high and d1 high and d2 high -> w high
        np.maximum(high, np.minimum(np.minimum(ncf_high, d1_high), d2_high), out=high)
        selection = self._centroid(strength)

        # A selection scales onto [0, w_max], clamped to [w_min, w_max]. Each
        # unfired index takes the weight of the latest fired index before
        # it; slot 0 of held is the weight from before this batch.
        held = np.empty(n + 1)
        held[0] = self.last_w
        np.minimum(np.maximum(selection / 100.0 * self.w_max, self.w_min), self.w_max, out=held[1:])
        latest = np.maximum.accumulate(np.where(np.isnan(selection), 0, np.arange(1, n + 1)))
        w = held[latest]
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


def compute_distance_pct(x, ref, max_distance: float) -> np.ndarray:
    """Euclidean distance from x to ref as a percentage of max_distance.

    max_distance is normally the space diagonal of the discrete case box,
    i.e. the norm of the per-parameter (v_i - 1) vector, which bounds any
    in-box distance; the result is capped at 100 regardless. Rows of
    a matrix are treated as a batch of positions (the distance is taken
    along the last axis), with broadcasting between x and ref.
    """
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.shape[-1] != ref.shape[-1]:
        raise ValueError(f"position vectors differ in length: {x.shape} vs {ref.shape}")
    if not max_distance > 0:  # NaN too
        raise ValueError("max_distance must be positive")
    gap = x - ref
    pct = np.sqrt((gap * gap).sum(axis=-1)) / max_distance * 100.0
    return np.minimum(pct, 100.0)


def controller_from_config(cfg: dict) -> FisController:
    """Build a controller from a JSON-style dict; omitted pieces keep defaults.

    A family given, even an empty one, replaces its default whole, so it
    must name every label the rules read.

    Recognized keys: "w_max", "w_min", "output" (label -> [left, peak, right])
    and "inputs" (input name -> label -> [left, peak, right]). A value of the
    wrong shape raises ValueError naming its key.
    """
    def is_number(x) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    def mapping(where: str, spec) -> dict:
        if not isinstance(spec, dict):
            raise ValueError(f"{where} must be a JSON object, got {type(spec).__name__}")
        return spec

    def family(where: str, spec) -> dict[str, MembershipFunction]:
        mfs = {}
        for label, points in mapping(where, spec).items():
            if not isinstance(points, list) or len(points) != 3 or not all(map(is_number, points)):
                raise ValueError(f"{where}.{label} must be [left, peak, right], got {points!r}")
            mfs[label] = MembershipFunction(*points)
        return mfs

    mapping("membership config top level", cfg)
    for key in ("w_max", "w_min"):
        if key in cfg and not is_number(cfg[key]):
            raise ValueError(f"{key} must be a number, got {cfg[key]!r}")
    inputs = None if cfg.get("inputs") is None else {
        name: family(f"inputs.{name}", spec)
        for name, spec in mapping("inputs", cfg["inputs"]).items()
    }
    output = None if cfg.get("output") is None else family("output", cfg["output"])
    return FisController(
        input_mfs=inputs,
        output_mfs=output,
        w_max=cfg.get("w_max", W_MAX_DEFAULT),
        w_min=cfg.get("w_min", W_MIN_DEFAULT),
    )
