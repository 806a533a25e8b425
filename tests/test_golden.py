"""Suites pinned across commits: sha256 of the written suite file for fixed seeds.

The determinism tests elsewhere compare two runs of the same code. These
digests were recorded once and catch any change to a suite's bytes, so a
refactor that alters the search, the store's scoring order or the repair
target fails here. A change that alters suites on purpose re-records them
and says so.
"""

import hashlib

import pytest

import vscit.pso as pso
from vscit.model import parse_config, parse_model
from vscit.pso import SwarmParams, generate_suite
from vscit.verify import write_suite

GOLDEN = [
    ("3^5", "t=2", dict(variant="fpso", rng_seed=5),
     "07f5294b46c83a7012ed126778c75573080cd5636b7350393ba633ba29a0e33b"),
    ("2^5", "t=3", dict(variant="cpso", rng_seed=5),
     "afabbbe3f4ac0a03315d8f2a3c2915ecb996e738b3bcea46317fedaa1a5ec4f7"),
    # A small swarm leaves tests that cover nothing new, so repair fires.
    ("3^3 2^3", "t=2; sub=0,1,2:3", dict(swarm_size=8, max_iterations=20, rng_seed=9),
     "eb9227e8914f3a46ae60ab105c993d0c45981ea94aec82a6a12b153afa0b59c0"),
]


@pytest.mark.parametrize("model_spec,config_text,params,digest", GOLDEN,
                         ids=["fpso", "cpso", "variable-strength-repair"])
def test_suite_bytes_are_pinned(model_spec, config_text, params, digest, tmp_path, monkeypatch):
    repairs = []
    repair = pso._repair_case
    monkeypatch.setattr(pso, "_repair_case", lambda *a: repairs.append(1) or repair(*a))
    result = generate_suite(parse_model(model_spec), parse_config(config_text),
                            SwarmParams(**params))
    out = tmp_path / "suite.txt"
    write_suite(result.suite, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if "sub=" in config_text:
        assert repairs, "the variable-strength run must exercise repair"
