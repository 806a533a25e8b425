"""Release acceptance gate.

Each test checks one numbered criterion at its stated tolerance and prints
one PASS/FAIL line directly to the terminal (bypassing capture) so a full
run reads as a checklist. The heavyweight campaigns (criteria 1-3) run 30
seeded swarm searches each and take a few minutes combined.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

import vscit
from vscit.cli import EXIT_OK, EXIT_SHORTFALL, main
from vscit.fis import FisController
from vscit.model import SubConfig, SutModel, VscaConfig, parse_model
from vscit.pso import SwarmParams, generate_suite
from vscit.tuples import build_tuple_store
from vscit.verify import read_suite, verify_suite, write_suite

RUNS = 30


@pytest.fixture
def announce(capsys):
    def _announce(criterion, ok, detail):
        with capsys.disabled():
            print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return _announce


def campaign(spec, config, runs=RUNS, variant="fpso"):
    model = parse_model(spec)
    results = []
    started = time.perf_counter()
    for seed in range(runs):
        params = SwarmParams(variant=variant, rng_seed=seed)
        results.append(generate_suite(model, config, params))
    elapsed = time.perf_counter() - started
    sizes = [len(r.suite) for r in results]
    return results, min(sizes), round(sum(sizes) / len(sizes), 2), sizes, elapsed


def test_criterion_1_exact_optimum_configs(announce):
    _, best3, mean3, _, t3 = campaign("3^3", VscaConfig(3))
    _, best4, mean4, _, t4 = campaign("4^3", VscaConfig(3))
    ok = best3 == 27 and mean3 <= 28.1 and best4 == 64 and mean4 <= 64.5 and t3 < 60 and t4 < 60
    announce(1, ok, f"3^3: {best3}/{mean3:.2f} in {t3:.1f}s; 4^3: {best4}/{mean4:.2f} in {t4:.1f}s "
                    f"(need 27/<=28.1 and 64/<=64.5, under 60s each)")
    assert best3 == 27 and mean3 <= 28.1
    assert best4 == 64 and mean4 <= 64.5
    assert t3 < 60 and t4 < 60


def test_criterion_2_mid_size_benchmark(announce):
    _, best, mean, sizes, elapsed = campaign("3^15", VscaConfig(2))
    ok = best <= 21 and mean <= 22.5 and elapsed < 600
    announce(2, ok, f"fifteen 3-level params pairwise x{RUNS}: best {best}, mean {mean:.2f} "
                    f"in {elapsed:.0f}s (need <=21/<=22.5 under 600s)")
    assert best <= 21
    assert mean <= 22.5
    assert elapsed < 600


def check_triple_block_coverage(suite, columns=(0, 1, 2)):
    """Independent nested check that every value triple appears on the columns."""
    seen = set()
    for case in suite.cases:
        seen.add((case[columns[0]], case[columns[1]], case[columns[2]]))
    needed = [
        (a, b, c)
        for a in range(suite.model.param_levels[columns[0]])
        for b in range(suite.model.param_levels[columns[1]])
        for c in range(suite.model.param_levels[columns[2]])
    ]
    return all(trip in seen for trip in needed)


def test_criterion_3_variable_strength_run(announce):
    config = VscaConfig(2, (SubConfig((0, 1, 2), 3),))
    results, best, mean, _, elapsed = campaign("3^15", config)
    pairwise_ok = all(
        verify_suite(vscit.TestSuite(r.suite.model, VscaConfig(2), r.suite.cases)).complete
        for r in results
    )
    sub_ok = all(check_triple_block_coverage(r.suite) for r in results)
    ok = best <= 29 and mean <= 31 and pairwise_ok and sub_ok
    announce(3, ok, f"pairwise base plus strength-3 block x{RUNS}: best {best}, mean {mean:.2f} "
                    f"in {elapsed:.0f}s; both universes covered on every run: "
                    f"{pairwise_ok and sub_ok} (need <=29/<=31)")
    assert best <= 29
    assert mean <= 31
    assert pairwise_ok and sub_ok


def random_vsca_config(rng, k):
    subs = []
    for _ in range(int(rng.integers(0, 3))):
        m = int(rng.integers(2, k + 1))
        indices = tuple(sorted(rng.choice(k, size=m, replace=False).tolist()))
        subs.append(SubConfig(indices, int(rng.integers(1, m + 1))))
    t = int(rng.integers(1, k + 1))
    return VscaConfig(t, tuple(subs))


def test_criterion_4_oracle_equivalence(announce):
    checked = 0
    agree = True
    for k in range(1, 7):
        for v in range(1, 5):
            model = SutModel((v,) * k)
            for t in range(1, k + 1):
                store_total = build_tuple_store(model, VscaConfig(t)).remaining_count
                required = verify_suite(vscit.TestSuite(model, VscaConfig(t), ())).required
                agree &= store_total == required == math.comb(k, t) * v**t
                checked += 1
    rng = np.random.default_rng(2024)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # random sub-configs may be redundant
        for _ in range(20):
            k = int(rng.integers(2, 7))
            v = int(rng.integers(1, 5))
            model = SutModel((v,) * k)
            config = random_vsca_config(rng, k)
            store_total = build_tuple_store(model, config).remaining_count
            required = verify_suite(vscit.TestSuite(model, config, ())).required
            agree &= store_total == required
            checked += 1
    announce(4, agree, f"store and oracle agree on required-tuple counts for {checked} configs")
    assert agree


def test_criterion_5_combination_generator_equivalence(announce):
    ok = True
    checked = 0
    for k in range(1, 11):
        for t in range(1, k + 1):
            keys = build_tuple_store(SutModel((2,) * k), VscaConfig(t))._keys
            ok &= keys == list(itertools.combinations(range(k), t))
            checked += 1
    announce(5, ok, f"the store's combinations match lexicographic enumeration for {checked} (k, t) pairs")
    assert ok


def test_criterion_6_fis_properties(announce):
    rng = np.random.default_rng(99)
    controller = FisController()

    def infer(fis, triple) -> float:
        # One triple at a time, so each weight may hold its predecessor's.
        w, _ = fis.infer_w_batch(*(np.array([x], dtype=float) for x in triple))
        return float(w[0])

    in_bounds = all(0.1 <= infer(controller, rng.random(3) * 100) <= 0.9 for _ in range(10_000))
    w_low = infer(FisController(), (0, 0, 0))
    w_high = infer(FisController(), (100, 100, 100))
    corners = w_low <= 0.5 <= w_high
    ok = in_bounds and corners
    announce(6, ok, f"10,000 random triples stayed in [0.1, 0.9]: {in_bounds}; "
                    f"corners w(0,0,0)={w_low:.3f} <= 0.5 <= w(100,100,100)={w_high:.3f}")
    assert in_bounds
    assert w_low <= 0.5
    assert w_high >= 0.5


def test_criterion_7_determinism(announce, tmp_path):
    suite_paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path in suite_paths:
        assert main(["generate", "--model", "3^5", "--t", "2", "--seed", "7",
                     "--out", str(path)]) == EXIT_OK
    suites_equal = suite_paths[0].read_bytes() == suite_paths[1].read_bytes()

    csv_paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in csv_paths:
        assert main(["benchmark", "--model", "3^4", "--t", "2", "--runs", "3",
                     "--seed", "1", "--out", str(path)]) == EXIT_OK
    csvs_equal = csv_paths[0].read_bytes() == csv_paths[1].read_bytes()

    ok = suites_equal and csvs_equal
    announce(7, ok, f"repeat invocations byte-identical: suite={suites_equal} csv={csvs_equal}")
    assert suites_equal
    assert csvs_equal


MATRIX = [
    ("2^2", "t=2"),
    ("2^3", "t=2"),
    ("2^4", "t=3"),
    ("3^3", "t=3"),
    ("3^4", "t=2"),
    ("3^5", "t=2"),
    ("3^5", "t=2; sub=1,2,3,4:3"),
    ("4^3 5^3 6^2", "t=2; sub=0,1,2:3"),
]


def generate_argv(model_spec, config_text, variant, out):
    argv = ["generate", "--model", model_spec, "--variant", variant,
            "--seed", "11", "--out", str(out)]
    for part in (p.strip() for p in config_text.split(";")):
        key, value = part.split("=", 1)
        argv += ["--t", value] if key == "t" else ["--sub", value]
    return argv


def test_criterion_8_coverage_completeness(announce, tmp_path):
    verified = 0
    ok = True
    for model_spec, config_text in MATRIX:
        for variant in ("fpso", "cpso"):
            out = tmp_path / f"suite_{verified}.txt"
            ok &= main(generate_argv(model_spec, config_text, variant, out)) == EXIT_OK
            ok &= main(["verify", str(out)]) == EXIT_OK
            verified += 1

    # Mutation: dropping any single case from an exhaustive-optimum suite
    # must break coverage.
    result = generate_suite(parse_model("3^3"), VscaConfig(3), SwarmParams(rng_seed=1))
    mutated = vscit.TestSuite(result.suite.model, result.suite.config, result.suite.cases[1:])
    mutated_path = tmp_path / "mutated.txt"
    write_suite(mutated, mutated_path)
    mutation_caught = main(["verify", str(mutated_path)]) == EXIT_SHORTFALL
    ok &= mutation_caught

    announce(8, ok, f"{verified} generated suites verified clean across both variants; "
                    f"single-case deletion detected: {mutation_caught}")
    assert ok
    assert mutation_caught


def test_generated_suite_files_round_trip(tmp_path):
    # Closes the loop between the engine, the file format, and the oracle.
    result = generate_suite(parse_model("3^4"), VscaConfig(2), SwarmParams(rng_seed=6))
    path = tmp_path / "suite.txt"
    write_suite(result.suite, path)
    assert read_suite(path).cases.tolist() == result.suite.cases.tolist()
