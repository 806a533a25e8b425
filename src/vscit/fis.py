"""Mamdani controller that adapts the swarm's inertia weight online.

Three normalized performance measures on a 0..100 scale feed a small rule
base: the current fitness relative to the per-test ceiling (ncf) and the
percentage distances from a particle to its personal best (d1) and to the
global best (d2). The defuzzified output, also on 0..100, is scaled onto
the bounded inertia range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

W_MAX_DEFAULT = 0.9
W_MIN_DEFAULT = 0.1

INPUT_NAMES = ("ncf", "d1", "d2")

# Fixed centroid grid over [0, 100] so defuzzification is bit-reproducible.
_UNIVERSE_SAMPLES = 1001


@dataclass(frozen=True)
class MembershipFunction:
    """Triangular membership on [0, 100]: zero at the feet, 1.0 at the peak.

    A foot coinciding with the peak makes that side a shoulder (degree 1.0
    right up to the peak).
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

    def degree(self, x):
        """Membership degree of x (scalar or array); 0 outside [left, right]."""
        x = np.asarray(x, dtype=float)
        rising = (x - self.left) / (self.peak - self.left) if self.peak > self.left else np.ones_like(x)
        falling = (self.right - x) / (self.right - self.peak) if self.right > self.peak else np.ones_like(x)
        inside = (x >= self.left) & (x <= self.right)
        d = np.where(inside, np.clip(np.minimum(rising, falling), 0.0, 1.0), 0.0)
        return float(d) if d.ndim == 0 else d


@dataclass(frozen=True)
class FuzzyRule:
    """Min-conjunction over (input, label) terms; "not-low" means 1 - low."""

    antecedent: tuple[tuple[str, str], ...]
    consequent: str


DEFAULT_RULES = (
    FuzzyRule((("ncf", "low"), ("d1", "low"), ("d2", "low")), "low"),
    FuzzyRule((("ncf", "not-low"), ("d1", "low"), ("d2", "low")), "high"),
    FuzzyRule((("ncf", "medium"), ("d1", "low"), ("d2", "not-low")), "high"),
    FuzzyRule((("ncf", "high"), ("d1", "high"), ("d2", "high")), "high"),
)


def _default_family() -> dict[str, MembershipFunction]:
    # Symmetric full-cover partition: every point of [0, 100] has nonzero
    # membership in at least one label.
    return {
        "low": MembershipFunction(0, 0, 50),
        "medium": MembershipFunction(25, 50, 75),
        "high": MembershipFunction(50, 100, 100),
    }


def selection_to_w(selection: float, w_max: float = W_MAX_DEFAULT,
                   w_min: float = W_MIN_DEFAULT) -> float:
    """Map a defuzzified 0..100 selection onto the bounded inertia range."""
    return min(max(selection / 100.0 * w_max, w_min), w_max)


class FisController:
    """Membership families, rule base, and centroid defuzzifier for the inertia weight.

    Stateful: the controller remembers the last weight it emitted, and input
    triples that fire no rule hold that value. It starts at w_max so early
    no-fire regions keep the search exploratory. One controller serves one
    generation run.
    """

    def __init__(self, input_mfs: dict[str, dict[str, MembershipFunction]] | None = None,
                 output_mfs: dict[str, MembershipFunction] | None = None,
                 rules: tuple[FuzzyRule, ...] = DEFAULT_RULES,
                 w_max: float = W_MAX_DEFAULT, w_min: float = W_MIN_DEFAULT):
        input_mfs = input_mfs or {}
        unknown = set(input_mfs) - set(INPUT_NAMES)
        if unknown:
            raise ValueError(f"unknown FIS inputs {sorted(unknown)}; expected {INPUT_NAMES}")
        self.input_mfs = {
            name: dict(input_mfs.get(name) or _default_family()) for name in INPUT_NAMES
        }
        self.output_mfs = dict(output_mfs) if output_mfs else _default_family()
        self.rules = tuple(rules)
        self.w_max = float(w_max)
        self.w_min = float(w_min)
        if not 0 < self.w_min <= self.w_max:
            raise ValueError(f"need 0 < w_min <= w_max, got {self.w_min}, {self.w_max}")
        self.last_w = self.w_max
        self._xs = np.linspace(0.0, 100.0, _UNIVERSE_SAMPLES)
        self._out_values = {label: mf.degree(self._xs) for label, mf in self.output_mfs.items()}
        # Reusable per-batch-size work arrays; a controller serves one run at a time.
        self._buffers: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._check_rules()

    def _check_rules(self):
        for rule in self.rules:
            for name, label in rule.antecedent:
                plain = label[4:] if label.startswith("not-") else label
                if name not in self.input_mfs or plain not in self.input_mfs[name]:
                    raise ValueError(f"rule term ({name}, {label}) has no membership function")
            if rule.consequent not in self.output_mfs:
                raise ValueError(f"rule consequent {rule.consequent!r} has no membership function")

    def _term_degree(self, name: str, label: str, x, cache: dict | None = None):
        if label.startswith("not-"):
            return 1.0 - self._term_degree(name, label[4:], x, cache)
        if cache is None:
            return self.input_mfs[name][label].degree(x)
        key = (name, label)
        if key not in cache:
            cache[key] = self.input_mfs[name][label].degree(x)
        return cache[key]

    def infer_w(self, ncf: float, d1: float, d2: float) -> float:
        """Crisp inertia weight for one measurement triple; updates last_w."""
        return float(self.infer_w_batch(
            np.asarray([ncf], dtype=float),
            np.asarray([d1], dtype=float),
            np.asarray([d2], dtype=float),
        )[0])

    def infer_w_batch(self, ncf, d1, d2, return_selection: bool = False):
        """Vectorized inference, equivalent to scalar calls in index order.

        Fuzzifies each triple, takes the min-conjunction firing strength of
        each rule, clips each consequent's membership function at the best
        strength arguing for it, aggregates by max, and defuzzifies by the
        centroid of the aggregate. Triples that fire nothing inherit the
        weight emitted for the previous index (or the stored last_w).
        """
        inputs = {
            "ncf": np.asarray(ncf, dtype=float),
            "d1": np.asarray(d1, dtype=float),
            "d2": np.asarray(d2, dtype=float),
        }
        n = inputs["ncf"].shape[0]
        for name, arr in inputs.items():
            if arr.shape != (n,):
                raise ValueError("FIS inputs must be equal-length 1-d arrays")
            if np.any((arr < 0.0) | (arr > 100.0)):
                raise ValueError(f"{name} outside [0, 100]")

        cache: dict = {}
        label_strength: dict[str, np.ndarray] = {}
        total = np.zeros(n)
        for rule in self.rules:
            strength = np.ones(n)
            for name, label in rule.antecedent:
                strength = np.minimum(strength, self._term_degree(name, label, inputs[name], cache))
            total += strength
            if rule.consequent in label_strength:
                np.maximum(label_strength[rule.consequent], strength,
                           out=label_strength[rule.consequent])
            else:
                label_strength[rule.consequent] = strength

        if n not in self._buffers:
            self._buffers[n] = (np.empty((n, _UNIVERSE_SAMPLES)), np.empty((n, _UNIVERSE_SAMPLES)))
        aggregate, scratch = self._buffers[n]
        aggregate.fill(0.0)
        for label, strength in label_strength.items():
            np.minimum(self._out_values[label][None, :], strength[:, None], out=scratch)
            np.maximum(aggregate, scratch, out=aggregate)
        area = aggregate.sum(axis=1)
        fired = (total > 0.0) & (area > 0.0)
        np.multiply(aggregate, self._xs[None, :], out=scratch)
        weighted = scratch.sum(axis=1)
        selection = np.where(fired, weighted / np.where(area > 0.0, area, 1.0), np.nan)

        w = [0.0] * n
        last = self.last_w
        fired_list = fired.tolist()
        selection_list = selection.tolist()
        for i in range(n):
            if fired_list[i]:
                last = selection_to_w(selection_list[i], self.w_max, self.w_min)
            w[i] = last
        self.last_w = float(last)
        w = np.asarray(w)
        if return_selection:
            return w, selection
        return w


def compute_ncf(current_fitness, min_fitness: float, max_fitness: float):
    """Current fitness as a percentage of the known fitness range.

    A degenerate range (max == min) reports 100: every candidate is maximal.
    Accepts a scalar or an array of current fitness values.
    """
    current = np.asarray(current_fitness, dtype=float)
    if np.any(current < min_fitness) or np.any(current > max_fitness):
        raise ValueError(
            f"current fitness {current_fitness} outside [{min_fitness}, {max_fitness}]"
        )
    if max_fitness == min_fitness:
        out = np.full_like(current, 100.0)
    else:
        out = (current - min_fitness) / (max_fitness - min_fitness) * 100.0
    return float(out) if out.ndim == 0 else out


def compute_distance_pct(x, ref, max_distance: float):
    """Euclidean distance from x to ref as a percentage of max_distance.

    max_distance is normally the space diagonal of the discrete case box,
    i.e. the norm of the per-parameter (v_i - 1) vector, which bounds any
    in-box distance; the result is clamped to [0, 100] regardless. Rows of
    a matrix are treated as a batch of positions (the distance is taken
    along the last axis), with broadcasting between x and ref.
    """
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.shape[-1] != ref.shape[-1]:
        raise ValueError(f"position vectors differ in length: {x.shape} vs {ref.shape}")
    if max_distance <= 0:
        raise ValueError("max_distance must be positive")
    gap = x - ref
    pct = np.sqrt((gap * gap).sum(axis=-1)) / max_distance * 100.0
    pct = np.minimum(np.maximum(pct, 0.0), 100.0)
    return float(pct) if pct.ndim == 0 else pct


def compute_nor_nubf(nubf_k: int, nubf_max: int) -> float | None:
    """Stagnation index: (budget - stalled iterations) / stalled iterations.

    Undefined (None) until at least one iteration has stalled. Logged as a
    diagnostic only; it does not feed the rule base.
    """
    if nubf_k < 0 or nubf_k > nubf_max:
        raise ValueError(f"stalled-iteration count {nubf_k} outside 0..{nubf_max}")
    if nubf_k == 0:
        return None
    return (nubf_max - nubf_k) / nubf_k


def controller_from_config(cfg: dict) -> FisController:
    """Build a controller from a JSON-style dict; omitted pieces keep defaults.

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
    inputs = {
        name: family(f"inputs.{name}", spec)
        for name, spec in mapping("inputs", cfg.get("inputs") or {}).items()
    }
    output = family("output", cfg["output"]) if cfg.get("output") else None
    return FisController(
        input_mfs=inputs or None,
        output_mfs=output,
        w_max=cfg.get("w_max", W_MAX_DEFAULT),
        w_min=cfg.get("w_min", W_MIN_DEFAULT),
    )
