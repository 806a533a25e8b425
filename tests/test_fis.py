"""Fuzzy controller: membership shapes, measures, inference, and bounds.

Oracle for membership degrees: `triangle`, the piecewise-linear formula
written out below, apart from the controller's own evaluation. Oracle for
the corner inferences: when exactly one rule fires at strength 1.0 the
aggregate is that consequent's full triangle, whose exact centroid is the
mean of its vertices' x coordinates. Oracle for the defuzzifier in
general: a 10^5-point midpoint integral of the aggregate, built from
`triangle`.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vscit.fis import (
    FisController,
    MembershipFunction,
    W_MAX_DEFAULT,
    W_MIN_DEFAULT,
    _Triangles,
    compute_distance_pct,
    compute_ncf,
    compute_nor_nubf,
    controller_from_config,
)

# Exact continuous centroids of the default output triangles at full height.
LOW_TRIANGLE_CENTROID = (0 + 0 + 50) / 3
HIGH_TRIANGLE_CENTROID = (50 + 100 + 100) / 3

pct = st.floats(min_value=0, max_value=100, allow_nan=False)

# The output sets of test_golden's overlapping run: the clipped sets cross,
# so an aggregate has up to 16 segments.
OVERLAP_MF = {"output": {"low": [0, 10, 60], "high": [40, 90, 100]}}


def infer(controller, ncf, d1, d2) -> float:
    """The weight for one triple, through a batch of one."""
    w, _ = controller.infer_w_batch(np.array([ncf], dtype=float), np.array([d1], dtype=float),
                                    np.array([d2], dtype=float))
    return float(w[0])


def scaled(selection) -> float:
    """The default weight a selection maps to: selection% of w_max, clamped to [w_min, w_max]."""
    return min(max(selection / 100 * W_MAX_DEFAULT, W_MIN_DEFAULT), W_MAX_DEFAULT)


def triangle(mf, x):
    """Degree of x in mf: 0 outside [left, right], else the lower of the two
    sides' lines, where a side of zero length is a shoulder held at 1."""
    x = np.asarray(x, dtype=float)
    rising = (x - mf.left) / (mf.peak - mf.left) if mf.peak > mf.left else np.ones_like(x)
    falling = (mf.right - x) / (mf.right - mf.peak) if mf.right > mf.peak else np.ones_like(x)
    return np.where((mf.left <= x) & (x <= mf.right), np.minimum(rising, falling), 0.0)


def degree(mf, x):
    """Degree of x in mf by the oracle, once the controller's own evaluation
    is checked to agree with it."""
    x = np.asarray(x, dtype=float)
    expected = triangle(mf, x)
    np.testing.assert_allclose(_Triangles([mf], x.ndim).degrees(x)[0], expected, rtol=1e-12)
    return expected


class TestMembershipFunction:
    def test_peak_degree_is_one(self):
        assert degree(MembershipFunction(25, 50, 75), 50) == 1.0

    def test_outside_support_is_zero(self):
        mf = MembershipFunction(25, 50, 75)
        assert degree(mf, 10) == 0.0
        assert degree(mf, 90) == 0.0

    def test_linear_between(self):
        mf = MembershipFunction(25, 50, 75)
        assert degree(mf, 37.5) == pytest.approx(0.5)
        assert degree(mf, 62.5) == pytest.approx(0.5)

    def test_left_shoulder(self):
        mf = MembershipFunction(0, 0, 50)
        assert degree(mf, 0) == 1.0
        assert degree(mf, 25) == pytest.approx(0.5)
        assert degree(mf, 50) == 0.0

    def test_right_shoulder(self):
        mf = MembershipFunction(50, 100, 100)
        assert degree(mf, 100) == 1.0
        assert degree(mf, 75) == pytest.approx(0.5)
        assert degree(mf, 50) == 0.0

    def test_interior_right_angle_is_zero_past_peak(self):
        mf = MembershipFunction(20, 60, 60)
        assert degree(mf, 80) == 0.0

    def test_array_input(self):
        mf = MembershipFunction(0, 50, 100)
        np.testing.assert_allclose(degree(mf, np.array([0, 25, 50, 100])), [0, 0.5, 1, 0])

    def test_unordered_breakpoints_raise(self):
        with pytest.raises(ValueError):
            MembershipFunction(60, 50, 75)

    def test_outside_universe_raises(self):
        with pytest.raises(ValueError):
            MembershipFunction(-5, 50, 75)


class TestComputeNcf:
    def test_maximum_is_100(self):
        assert compute_ncf(10, 0, 10) == 100.0

    def test_minimum_is_0(self):
        assert compute_ncf(0, 0, 10) == 0.0

    def test_midpoint(self):
        assert compute_ncf(5, 0, 10) == 50.0

    def test_degenerate_range_is_100(self):
        assert compute_ncf(3, 3, 3) == 100.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            compute_ncf(11, 0, 10)
        with pytest.raises(ValueError):
            compute_ncf(-1, 0, 10)

    def test_array_form_matches_scalars(self):
        got = compute_ncf(np.array([0, 5, 10]), 0, 10)
        np.testing.assert_allclose(got, [0.0, 50.0, 100.0])

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            compute_ncf(np.array([np.nan]), 0, 10)
        with pytest.raises(ValueError):
            compute_ncf(np.array([5.0, np.nan, 5.0]), 0, 10)
        with pytest.raises(ValueError):
            compute_ncf(math.nan, 3, 3)

    def test_empty_array_gives_empty(self):
        got = compute_ncf(np.array([]), 0, 10)
        assert isinstance(got, np.ndarray) and got.shape == (0,)


class TestComputeDistancePct:
    def test_zero_distance(self):
        assert compute_distance_pct([1.0, 2.0], [1.0, 2.0], 5.0) == 0.0

    def test_space_diagonal_is_100(self):
        vmax = [2.0, 2.0, 2.0, 2.0]
        diag = float(np.linalg.norm(vmax))
        assert compute_distance_pct([0.0] * 4, vmax, diag) == pytest.approx(100.0)

    def test_hand_value_four_params_three_levels(self):
        # box diagonal sqrt(4 * 2^2) = 4; distance 2 -> 50%
        assert compute_distance_pct([0, 0, 0, 0], [2, 0, 0, 0], 4.0) == pytest.approx(50.0)

    def test_clamped_to_100(self):
        assert compute_distance_pct([0.0], [2.0], 1.0) == 100.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            compute_distance_pct([0.0, 1.0], [0.0, 1.0, 2.0], 4.0)

    def test_nonpositive_max_distance_raises(self):
        with pytest.raises(ValueError):
            compute_distance_pct([0.0], [1.0], 0.0)

    def test_nan_max_distance_raises(self):
        with pytest.raises(ValueError, match="positive"):
            compute_distance_pct(np.zeros(3), np.ones(3), math.nan)

    def test_batch_rows_match_scalar_calls(self):
        rng = np.random.default_rng(5)
        x = rng.random((6, 4)) * 2
        ref = rng.random((6, 4)) * 2
        batch = compute_distance_pct(x, ref, 4.0)
        singles = [compute_distance_pct(x[i], ref[i], 4.0) for i in range(6)]
        np.testing.assert_allclose(batch, singles)


class TestComputeNorNubf:
    def test_equal_counts_give_zero(self):
        assert compute_nor_nubf(100, 100) == 0.0

    def test_hand_value(self):
        assert compute_nor_nubf(1, 100) == 99.0

    def test_zero_stalled_is_undefined(self):
        assert compute_nor_nubf(0, 100) is None

    def test_count_above_budget_raises(self):
        with pytest.raises(ValueError):
            compute_nor_nubf(101, 100)


class TestInferW:
    def test_all_low_corner_fires_rule_one_alone(self):
        controller = FisController()
        w = infer(controller, 0, 0, 0)
        assert w <= 0.5
        assert w == pytest.approx(scaled(LOW_TRIANGLE_CENTROID), abs=0.005)

    def test_all_high_corner_fires_rule_four_alone(self):
        controller = FisController()
        w = infer(controller, 100, 100, 100)
        assert w >= 0.5
        assert w == pytest.approx(scaled(HIGH_TRIANGLE_CENTROID), abs=0.005)

    def test_selection_scales_onto_w_max(self):
        # Rule 4 alone fires: the whole "high" triangle, centroid 250/3,
        # scales to 250/3 % of w_max, inside the bounds.
        w, selection = FisController(w_max=0.8, w_min=0.2).infer_w_batch(
            np.array([100.0]), np.array([100.0]), np.array([100.0]))
        assert selection[0] == pytest.approx(HIGH_TRIANGLE_CENTROID, rel=1e-12)
        assert w[0] == selection[0] / 100 * 0.8

    def test_selection_floor_is_w_min(self):
        # Rule 1 alone fires on a "low" set of centroid 1/3, which would
        # scale to 0.003: the weight is held at w_min.
        controller = controller_from_config({"output": {"low": [0, 0, 1], "high": [50, 100, 100]}})
        w, selection = controller.infer_w_batch(np.zeros(1), np.zeros(1), np.zeros(1))
        assert selection[0] == pytest.approx(1 / 3, rel=1e-12)
        assert w[0] == W_MIN_DEFAULT

    def test_no_fire_returns_last_w(self):
        controller = FisController()
        assert infer(controller, 50, 50, 50) == W_MAX_DEFAULT  # starts at w_max
        infer(controller, 0, 0, 0)  # drives last_w low
        low = controller.last_w
        assert infer(controller, 50, 50, 50) == low

    def test_updates_last_w(self):
        controller = FisController()
        w = infer(controller, 0, 0, 0)
        assert controller.last_w == w

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, 101.0])
    @pytest.mark.parametrize("name", ["ncf", "d1", "d2"])
    def test_bad_input_is_named(self, name, bad):
        inputs = {"ncf": np.full(3, 50.0), "d1": np.full(3, 50.0), "d2": np.full(3, 50.0)}
        inputs[name][1] = bad
        with pytest.raises(ValueError, match=f"^{name} outside"):
            FisController().infer_w_batch(**inputs)

    def test_first_bad_input_is_named(self):
        with pytest.raises(ValueError, match="^d1 outside"):
            FisController().infer_w_batch([50.0, 50.0], [50.0, -1.0], [101.0, 50.0])

    def test_lists_are_accepted(self):
        w, selection = FisController().infer_w_batch([0.0, 100.0], [0, 100], [0.0, 100.0])
        np.testing.assert_array_equal(
            (w, selection), FisController().infer_w_batch(*np.array([[0.0, 100.0]] * 3)))

    def test_empty_batch_keeps_last_w(self):
        controller = FisController()
        controller.last_w = 0.5
        w, selection = controller.infer_w_batch(np.empty(0), [], np.empty(0))
        assert w.shape == selection.shape == (0,)
        assert controller.last_w == 0.5

    @pytest.mark.parametrize("ncf,d1,d2", [
        (5.0, 5.0, 5.0),
        (np.array([5.0]), np.array([5.0]), 5.0),
        (np.array([5.0, 6.0]), np.array([5.0]), np.array([5.0])),
        (np.full((2, 2), 5.0), np.full((2, 2), 5.0), np.full((2, 2), 5.0)),
    ])
    def test_inputs_not_equal_length_vectors_raise(self, ncf, d1, d2):
        with pytest.raises(ValueError, match="equal-length 1-d arrays"):
            FisController().infer_w_batch(ncf, d1, d2)

    def test_deterministic_given_same_state(self):
        a, b = FisController(), FisController()
        triples = [(10, 20, 30), (50, 50, 50), (90, 10, 40), (0, 0, 0)]
        assert [infer(a, *t) for t in triples] == [infer(b, *t) for t in triples]

    def test_rule_one_dominance_monotone(self):
        # Holding d1 = d2 = 0, shrinking ncf from the medium peak toward 0
        # shifts mass from the high to the low consequent: w never increases.
        ws = []
        for ncf in [50, 40, 30, 20, 10, 5, 0]:
            controller = FisController()
            ws.append(infer(controller, ncf, 0, 0))
        assert all(a >= b for a, b in zip(ws, ws[1:]))

    def test_batch_equals_sequential_scalar_calls(self):
        # Under OVERLAP_MF a fired aggregate has 8 or more segments, where a
        # pairwise sum of one triple's segments differs from the in-order
        # sum of a batch in the last bits.
        rng = np.random.default_rng(11)
        triples = rng.random((400, 3)) * 100
        for cfg in ({}, OVERLAP_MF):
            scalar_controller = controller_from_config(cfg)
            scalar = [scalar_controller.infer_w_batch(*t[:, None]) for t in triples]
            batch_controller = controller_from_config(cfg)
            batch, selection = batch_controller.infer_w_batch(*triples.T)
            np.testing.assert_array_equal(selection, [s[0] for _, s in scalar])
            np.testing.assert_array_equal(batch, [w[0] for w, _ in scalar])
            assert batch_controller.last_w == scalar_controller.last_w

    @given(st.lists(st.one_of(st.tuples(pct, pct, pct), st.just((50.0, 50.0, 50.0))),
                    max_size=30),
           st.floats(min_value=0.2, max_value=0.8))
    @settings(max_examples=100)
    def test_batch_weights_match_scalar_mapping_loop(self, triples, last_w):
        # (50, 50, 50) fires no rule, so batches mix fired and held weights.
        controller = FisController(w_max=0.8, w_min=0.2)
        controller.last_w = last_w
        cols = np.array(triples, dtype=float).reshape(len(triples), 3).T
        w, selection = controller.infer_w_batch(*cols)
        expected = []
        for sel in selection.tolist():
            if not math.isnan(sel):
                last_w = min(max(sel / 100.0 * 0.8, 0.2), 0.8)
            expected.append(last_w)
        assert w.tolist() == expected
        assert controller.last_w == last_w

    @given(pct, pct, pct)
    @settings(max_examples=200)
    def test_output_always_within_bounds(self, ncf, d1, d2):
        controller = FisController()
        assert W_MIN_DEFAULT <= infer(controller, ncf, d1, d2) <= W_MAX_DEFAULT

    def test_degree_sanity_default_layout(self):
        controller = FisController()
        family = controller.input_mfs["ncf"]
        xs = np.linspace(0, 100, 201)
        total = sum(triangle(family[label], xs) for label in ("low", "medium", "high"))
        for label in ("low", "medium", "high"):
            d = triangle(family[label], xs)
            assert np.all((0 <= d) & (d <= 1))
        assert np.all(total > 0)
        assert np.all(total <= 2)


class TestControllerConfig:
    def test_defaults_have_three_labels_per_input(self):
        controller = FisController()
        for name in ("ncf", "d1", "d2"):
            assert set(controller.input_mfs[name]) == {"low", "medium", "high"}

    def test_partial_override_keeps_other_defaults(self):
        controller = controller_from_config(
            {"inputs": {"ncf": {"low": [0, 0, 40], "medium": [20, 50, 80], "high": [40, 100, 100]}}}
        )
        assert controller.input_mfs["ncf"]["low"].right == 40
        assert controller.input_mfs["d1"]["low"].right == 50

    def test_w_bounds_override(self):
        controller = controller_from_config({"w_max": 0.8, "w_min": 0.2})
        assert controller.w_max == 0.8
        assert infer(controller, 0, 0, 0) >= 0.2

    def test_unknown_input_name_raises(self):
        with pytest.raises(ValueError, match="unknown FIS inputs"):
            FisController(input_mfs={"speed": {}})

    @pytest.mark.parametrize("family,label", [
        ("ncf", "low"), ("ncf", "medium"), ("ncf", "high"), ("d1", "low"), ("d1", "high"),
        ("d2", "low"), ("d2", "high"), ("output", "low"), ("output", "high"),
    ])
    def test_rule_referencing_missing_label_raises(self, family, label):
        # A replaced family must name every label the rules read. d1 and d2
        # keep "medium", which no rule reads, so only the named label is missing.
        mfs = {"low": MembershipFunction(0, 0, 50), "medium": MembershipFunction(25, 50, 75),
               "high": MembershipFunction(50, 100, 100)}
        del mfs[label]
        if family == "output":
            cfg = {"output_mfs": mfs}
            message = f"rule consequent {label!r} has no membership function"
        else:
            cfg = {"input_mfs": {family: mfs}}
            message = f"rule term ({family}, {label}) has no membership function"
        with pytest.raises(ValueError) as err:
            FisController(**cfg)
        assert str(err.value) == message

    @pytest.mark.parametrize("cfg,message", [
        ({"inputs": {"ncf": {}}}, r"rule term \(ncf, low\) has no membership function"),
        ({"output": {}}, "rule consequent 'low' has no membership function"),
    ], ids=["input", "output"])
    def test_empty_family_replaces_the_default(self, cfg, message):
        # An empty family is a family given: it names no label the rules read.
        with pytest.raises(ValueError, match=message):
            controller_from_config(cfg)

    def test_omitted_or_null_families_keep_the_defaults(self):
        for cfg in ({}, {"inputs": {}}, {"inputs": None}, {"output": None},
                    {"inputs": None, "output": None}):
            controller = controller_from_config(cfg)
            assert controller.input_mfs == FisController().input_mfs
            assert controller.output_mfs == FisController().output_mfs

    @pytest.mark.parametrize("inputs", [[], 0, "", False], ids=["list", "int", "str", "bool"])
    def test_non_object_inputs_raise(self, inputs):
        # Only null or an omitted key means "no inputs"; any other falsy value is refused.
        with pytest.raises(ValueError) as err:
            controller_from_config({"inputs": inputs})
        assert str(err.value) == f"inputs must be a JSON object, got {type(inputs).__name__}"

    def test_bad_w_bounds_raise(self):
        with pytest.raises(ValueError):
            FisController(w_max=0.1, w_min=0.5)

    @pytest.mark.parametrize("bounds,name", [
        ({"w_max": math.inf}, "w_max"),
        ({"w_min": math.inf}, "w_min"),
        ({"w_min": math.inf, "w_max": math.inf}, "w_max"),
        ({"w_max": math.nan}, "w_max"),
    ], ids=["w_max", "w_min", "both", "nan"])
    def test_non_finite_w_bounds_raise(self, bounds, name):
        # JSON's Infinity and NaN parse to floats, so --mf-config can pass them.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            controller_from_config(bounds)


class TestDefaultRules:
    @pytest.mark.parametrize("triple,centroid", [
        ((0, 0, 0), LOW_TRIANGLE_CENTROID),
        ((100, 0, 0), HIGH_TRIANGLE_CENTROID),
        ((50, 0, 100), HIGH_TRIANGLE_CENTROID),
        ((100, 100, 100), HIGH_TRIANGLE_CENTROID),
    ], ids=["rule-1", "rule-2", "rule-3", "rule-4"])
    def test_rule_fires_alone_at_its_corner(self, triple, centroid):
        # Each triple sets every term of one rule to degree 1 and some term
        # of each other rule to 0:
        #   rule 1 (0, 0, 0):       ncf low, d1 low, d2 low
        #   rule 2 (100, 0, 0):     ncf not-low, d1 low, d2 low
        #   rule 3 (50, 0, 100):    ncf medium, d1 low, d2 not-low
        #   rule 4 (100, 100, 100): ncf high, d1 high, d2 high
        # The aggregate is then that rule's whole output triangle.
        _, selection = FisController().infer_w_batch(*(np.array([x], dtype=float) for x in triple))
        assert selection[0] == pytest.approx(centroid, rel=0, abs=1e-12)

    # Clipped at 0.5, the "high" triangle has area 6.25 + 12.5 and first
    # moment 15625 / 24 + 4375 / 4, so its centroid is 725/9; "low" is its
    # mirror image, at 100 - 725/9.
    @pytest.mark.parametrize("triple,centroid", [
        ((0, 25, 0), 175 / 9),
        ((0, 0, 25), 175 / 9),
        ((100, 0, 25), 725 / 9),
        ((37.5, 0, 100), 725 / 9),
        ((50, 25, 100), 725 / 9),
        ((100, 75, 100), 725 / 9),
        ((100, 100, 75), 725 / 9),
    ], ids=["rule-1-d1", "rule-1-d2", "rule-2-d2", "rule-3-ncf", "rule-3-d1", "rule-4-d1",
            "rule-4-d2"])
    def test_rule_is_clipped_at_its_weakest_term(self, triple, centroid):
        # One term of the rule at degree 0.5, its other terms at 1, and some
        # term of every other rule at 0: the rule's output triangle, clipped at 0.5.
        _, selection = FisController().infer_w_batch(*(np.array([x], dtype=float) for x in triple))
        assert selection[0] == pytest.approx(centroid, rel=0, abs=1e-12)

    def test_not_low_is_complement(self):
        # With d1 = d2 = 0 only rules 1 and 2 fire: "low" at ncf's low degree
        # (0.6 at ncf = 20) and "high" at its complement, 0.4. Integrating the
        # clipped triangles by hand gives area 21 + 16 and first moment
        # 390 + 3820 / 3.
        _, selection = FisController().infer_w_batch(np.array([20.0]), np.zeros(1), np.zeros(1))
        assert selection[0] == pytest.approx(4990 / 111, rel=1e-12)


# An output set: integer breakpoints with left < right. Shoulders at 0 and
# 100, interior shoulders and overlapping pairs all turn up.
@st.composite
def output_sets(draw):
    left = draw(st.integers(0, 99))
    right = draw(st.integers(left + 1, 100))
    peak = draw(st.one_of(st.just(left), st.just(right), st.integers(left, right)))
    return MembershipFunction(left, peak, right)


strength = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=1.0))


# sha256 of w.tobytes() + selection.tobytes() for three seeded 80-triple
# batches in a row. The suite digests in test_golden.py can miss a change to
# the controller's float operations: one that moves only the last bits of a
# few selections may leave every suite and trace unchanged. These cannot.
CONTROLLER_DIGESTS = [
    ({}, "c1b766827cce2c39ced2fc42c36f3fb24bf26c3eb03d034db4f45fb8d92ea57f"),
    (OVERLAP_MF, "5bf05f7467e0f5c600431825286ab8e86dea2871820e9c3af87847ba73e2fdc6"),
    ({"output": {"low": [20, 60, 60], "high": [40, 40, 90]}},
     "6e093d8cd9bd88ad60df028b103d875dbe48c591043bb144e6673db1b07667f6"),
]


@pytest.mark.parametrize("cfg,digest", CONTROLLER_DIGESTS,
                         ids=["default", "overlapping-sets", "interior-shoulders"])
def test_controller_bits_are_pinned(cfg, digest):
    controller = controller_from_config(cfg)
    rng = np.random.default_rng(2024)
    h = hashlib.sha256()
    for _ in range(3):
        w, selection = controller.infer_w_batch(*(rng.random((3, 80)) * 100))
        h.update(w.tobytes() + selection.tobytes())
    assert h.hexdigest() == digest


class TestExactCentroid:
    N = 100_000

    @given(output_sets(), output_sets(), strength, strength)
    @example(MembershipFunction(0, 0, 50), MembershipFunction(50, 100, 100), 0.6, 0.4)
    @example(MembershipFunction(20, 60, 60), MembershipFunction(40, 40, 90), 0.9, 0.5)
    @example(MembershipFunction(0, 30, 80), MembershipFunction(20, 70, 100), 0.7, 0.8)
    @example(MembershipFunction(10, 50, 90), MembershipFunction(30, 50, 70), 0.3, 1.0)
    @settings(max_examples=150, deadline=None)
    def test_matches_numerical_integral(self, low, high, s_low, s_high):
        controller = FisController(output_mfs={"low": low, "high": high})
        exact = controller._centroid(np.array([[s_low], [s_high]]))[0]
        # Midpoints of 10^5 cells: the integer breakpoints, where a shoulder
        # jumps, fall on cell edges, so each kinked cell errs by O(h^2).
        xs = (np.arange(self.N) + 0.5) * (100 / self.N)
        aggregate = np.maximum(np.minimum(triangle(low, xs), s_low),
                               np.minimum(triangle(high, xs), s_high))
        if s_low == s_high == 0.0:
            assert math.isnan(exact)
        else:
            assert exact == pytest.approx((xs * aggregate).sum() / aggregate.sum(), abs=1e-5)

    def test_zero_width_output_set_raises(self):
        with pytest.raises(ValueError, match="output set 'high' has zero width"):
            FisController(output_mfs={"low": MembershipFunction(0, 0, 50),
                                      "high": MembershipFunction(60, 60, 60)})
        with pytest.raises(ValueError, match="output set 'low' has zero width"):
            controller_from_config({"output": {"low": [0, 0, 0], "high": [50, 100, 100]}})

    def test_zero_width_input_set_is_legal(self):
        # Such an input term has degree 1.0 at its one point and 0 elsewhere.
        controller = controller_from_config(
            {"inputs": {"ncf": {"low": [0, 0, 0], "medium": [25, 50, 75], "high": [50, 100, 100]}}})
        assert infer(controller, 0, 0, 0) <= 0.5
        assert triangle(controller.input_mfs["ncf"]["low"], 0) == 1.0
