"""Runs pinned across commits: sha256 of the written suite file and of the
per-iteration trace for fixed seeds, of one ``vscit generate`` run's trace
lines and per-test log file, and of the coverage report of fixed suites.
The runs recorded before searches could stop on a stall pass
``patience=None`` (``--patience none``), which keeps the paper's fixed
budget; fpso's default patience has runs of its own (cpso's default is
None).

The determinism tests elsewhere compare two runs of the same code. These
digests were recorded once and catch any change to a suite's bytes, so a
refactor that alters the search, the store's scoring order or the repair
target fails here. The trace digest is over the ``repr`` of the tuple of
IterationRecords logged at DEBUG, which holds d1, d2 and w at full
precision, so a reordered float operation fails here even when the suite
does not change. A change that alters suites or traces on purpose
re-records them and says so.
"""

import hashlib
import json
import logging
import random

import pytest

import vscit
import vscit.pso as pso
from vscit.cli import EXIT_OK, main
from vscit.model import parse_config, parse_model
from vscit.pso import SwarmParams, generate_suite
from vscit.verify import render_report_csv, render_report_text, verify_suite, write_suite

GOLDEN = [
    ("3^5", "t=2", dict(variant="fpso", rng_seed=5, patience=None),
     "07f5294b46c83a7012ed126778c75573080cd5636b7350393ba633ba29a0e33b",
     "244e8b174cecb527bfdcc90cbd78f30df377917ecc79ef73c258f766262895f6"),
    ("2^5", "t=3", dict(variant="cpso", rng_seed=5, patience=None),
     "afabbbe3f4ac0a03315d8f2a3c2915ecb996e738b3bcea46317fedaa1a5ec4f7",
     "5397e49677b99652aa72ca90595e2f9fb1eb5925e91deb978d7ddb5b3740b3a2"),
    # A small swarm leaves tests that cover nothing new, so repair fires.
    ("3^3 2^3", "t=2; sub=0,1,2:3", dict(swarm_size=8, max_iterations=20, rng_seed=9, patience=None),
     "eb9227e8914f3a46ae60ab105c993d0c45981ea94aec82a6a12b153afa0b59c0",
     "b80aafdb8b98c4ceee398b6dc165f65210d00e14b1ba0d41319087f59b3cc7fc"),
    # Combinations of lengths 2, 3 and 4 in one store, interleaved in sort order.
    ("3^3 4^3", "t=2; sub=0,1,2:3; sub=2,3,4,5:4",
     dict(variant="cpso", swarm_size=10, max_iterations=20, rng_seed=3,
          patience=None),
     "6d821b2143411ae78f834d127d480333455b3855027495051c4fe1583fbd5c1f",
     "5faf2f963e63c9afeac6851870c202641f056124dc2fdcc4f70de6887a8b69fe"),
    # The fpso run above at its default patience: searches stop stalled.
    ("3^5", "t=2", dict(variant="fpso", rng_seed=5),
     "122984bddf707686c6a8237002db645c8fa18108feb47bef48079c03c296bd4c",
     "58d812b835992482e8338c30b549e8e5ba975be4a8877a13ed01bebcec7f87f6"),
]


@pytest.mark.parametrize("model_spec,config_text,params,digest,log_digest", GOLDEN,
                         ids=["fpso", "cpso", "variable-strength-repair", "three-lengths",
                              "fpso-default-patience"])
def test_suite_bytes_are_pinned(model_spec, config_text, params, digest, log_digest,
                                tmp_path, monkeypatch, trace):
    repairs = []
    repair = pso._repair_case
    monkeypatch.setattr(pso, "_repair_case", lambda *a: repairs.append(1) or repair(*a))
    result, records = trace(generate_suite, parse_model(model_spec),
                            parse_config(config_text), SwarmParams(**params))
    out = tmp_path / "suite.txt"
    write_suite(result.suite, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert hashlib.sha256(repr(records).encode()).hexdigest() == log_digest
    if "sub=" in config_text:
        assert repairs, "the variable-strength run must exercise repair"


def trace_lines(records) -> bytes:
    return "".join(f"{rec}\n" for rec in records).encode()


# Its trace holds undefined nornubf and w_selection fields as well as numbers.
# The trace digests are of the lines an earlier `generate` wrote to its .log
# file, after the header; the .log digests are of the per-test JSON lines.
SEEDED_RUN = ["generate", "--model", "3^4", "--t", "2", "--seed", "3"]
TRACED_RUN = [*SEEDED_RUN, "--patience", "none"]
TRACE_DIGEST = "6afb058550952c470f1ad079956f3ce0c6909b484bc0992ee1cf3c4cc034ff40"
LOG_DIGEST = "fe55a8365bacbe906ed7b5c55b92ddec06604929d0df270b9396b9be6bc0138a"


def test_trace_file_bytes_are_pinned(tmp_path, trace):
    out = tmp_path / "suite.txt"
    code, records = trace(main, [*TRACED_RUN, "--out", str(out)])
    assert code == EXIT_OK
    lines = trace_lines(records)
    assert b"w_selection=undef" in lines and b"nornubf=undef" in lines
    assert hashlib.sha256(lines).hexdigest() == TRACE_DIGEST
    log = (tmp_path / "suite.txt.log").read_bytes()
    assert hashlib.sha256(log).hexdigest() == LOG_DIGEST


# The same run at fpso's default patience: suite, trace and .log digests.
DEFAULT_PATIENCE_DIGESTS = (
    "22aa30cc6d0431e7dc5bc4fd85fe75b90dbc22567fa565231164aae92bb0798a",
    "9aa1d24d8ac426ff00e19070bff106f152b277a749212a75bd3de91ed0e13f46",
    "0d86e7414b6084a02194402716c7760e3558f2eed2f1b1104a428ba38265c204")


def test_default_patience_run_is_pinned(tmp_path, trace):
    out = tmp_path / "suite.txt"
    code, records = trace(main, [*SEEDED_RUN, "--out", str(out)])
    assert code == EXIT_OK
    log = (tmp_path / "suite.txt.log").read_bytes()
    assert b'"stop": "stalled"' in log
    assert (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(trace_lines(records)).hexdigest(),
            hashlib.sha256(log).hexdigest()) == DEFAULT_PATIENCE_DIGESTS


# Overlapping output sets: the aggregate's shape changes where the clipped
# sets cross, so the centroid needs the crossing breakpoints.
OVERLAP_MF = {"output": {"low": [0, 10, 60], "high": [40, 90, 100]}}
# Suite, trace and .log digests.
OVERLAP_DIGESTS = ("09c302a691efee5abb90281150ac16977116dc46ba1eb387f372e772975b0a58",
                   "44d2f6f4c0c4407647ae69061c79394986a64b65f306351ccb62f7ea53338856",
                   "fe55a8365bacbe906ed7b5c55b92ddec06604929d0df270b9396b9be6bc0138a")


def test_overlapping_output_sets_run_is_pinned(tmp_path, trace):
    mf = tmp_path / "mf.json"
    mf.write_text(json.dumps(OVERLAP_MF))
    out = tmp_path / "suite.txt"
    code, records = trace(main, [*TRACED_RUN, "--mf-config", str(mf), "--out", str(out)])
    assert code == EXIT_OK
    log = (tmp_path / "suite.txt.log").read_bytes()
    assert (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(trace_lines(records)).hexdigest(),
            hashlib.sha256(log).hexdigest()) == OVERLAP_DIGESTS


def test_info_messages_are_the_log_file_lines(tmp_path, caplog):
    out = tmp_path / "suite.txt"
    with caplog.at_level(logging.INFO, logger="vscit"):
        assert main([*TRACED_RUN, "--out", str(out)]) == EXIT_OK
    messages = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    lines = (tmp_path / "suite.txt.log").read_text().splitlines()
    assert len(lines) == len(out.read_text().splitlines()) - 2
    assert messages == lines


REPORTS = [
    ("4^6", "t=3", 40,
     "537ba1ba5d02801d3fccbba813dc7b23c4d64c2f4c038580bba179a9ad5304f2",
     "8efbfdc4e52ef61ffcb8a7cfbea5c2151ae842a381a2d98742783964cb8b1966"),
    # Missing pairs from combinations of three lengths, interleaved in sort order.
    ("3^3 4^3", "t=2; sub=0,1,2,3:3; sub=2,3,4,5:4", 30,
     "a1841fabe24f99264999bafbf23f4b0d323163334458b5ff4e2d15b1afbb03eb",
     "84a2816ec2cf19bd5a4b6be47f2f2c569429b352dc9d311fce27299995b55680"),
]


@pytest.mark.parametrize("model_spec,config_text,n_cases,text_digest,csv_digest", REPORTS,
                         ids=["uniform", "variable-strength"])
def test_report_bytes_are_pinned(model_spec, config_text, n_cases, text_digest, csv_digest):
    model = parse_model(model_spec)
    rnd = random.Random(4)
    cases = [tuple(rnd.randrange(v) for v in model.param_levels) for _ in range(n_cases)]
    report = verify_suite(vscit.TestSuite(model, parse_config(config_text), tuple(cases)))
    assert not report.complete
    assert hashlib.sha256(render_report_text(report).encode()).hexdigest() == text_digest
    assert hashlib.sha256(render_report_csv(report).encode()).hexdigest() == csv_digest
