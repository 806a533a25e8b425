"""Runs pinned across commits: sha256 of the written suite file and of the
per-iteration trace for fixed seeds, of one ``vscit generate`` run's trace
lines and per-test log file, and of the coverage report of fixed suites.
The runs recorded before searches could stop on a stall pass
``patience=None`` (``--patience none``), which keeps the paper's fixed
budget; fpso's default budget (vscit.pso.VARIANT_DEFAULTS: a wider swarm
and a stall stop) has runs of its own. cpso's default is the paper's 80
particles with patience None, so its runs that leave both out keep the
paper's budget.

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
    ("3^5", "t=2", dict(variant="fpso", rng_seed=5, swarm_size=80, patience=None),
     "07f5294b46c83a7012ed126778c75573080cd5636b7350393ba633ba29a0e33b",
     "2f30dbb8f57238b04c88986f560af7230246d161103c1d03e8c11ac0ef35ea41"),
    ("2^5", "t=3", dict(variant="cpso", rng_seed=5, patience=None),
     "afabbbe3f4ac0a03315d8f2a3c2915ecb996e738b3bcea46317fedaa1a5ec4f7",
     "eba266f0cc9537fde1a64e76e901ffeaecc7bab0fa5322f9df116ee8c8868af9"),
    # A small swarm leaves tests that cover nothing new, so repair fires.
    ("3^3 2^3", "t=2; sub=0,1,2:3", dict(swarm_size=8, max_iterations=20, rng_seed=9, patience=None),
     "eb9227e8914f3a46ae60ab105c993d0c45981ea94aec82a6a12b153afa0b59c0",
     "03999fa65755cd7a0254cd837dce2d2e2e2ec128cac221b13e63d37eb25f7910"),
    # Combinations of lengths 2, 3 and 4 in one store, interleaved in sort order.
    ("3^3 4^3", "t=2; sub=0,1,2:3; sub=2,3,4,5:4",
     dict(variant="cpso", swarm_size=10, max_iterations=20, rng_seed=3,
          patience=None),
     "6d821b2143411ae78f834d127d480333455b3855027495051c4fe1583fbd5c1f",
     "4e7e35f5be34084c7b27021da0df8ecb44a59c4613e811649df4f4db4d532cd2"),
    # The fpso run above at its default swarm and patience: searches stop stalled.
    ("3^5", "t=2", dict(variant="fpso", rng_seed=5),
     "1534cf499c70fbbc75a0735aa1dd23a8032f0828d86b7ba51388c2cea288eef8",
     "adf8d987843a2f436f25449b6eca68587ea472d021622fc601ee3a3aa30222b7"),
    # Stores of 560 and 455 combinations, wide enough that the store scores
    # each distinct case once; recorded before it did.
    ("2^16", "t=3", dict(variant="cpso", swarm_size=10, max_iterations=30, rng_seed=2),
     "f5602c023132d569675a766098df1a72b88bdc442595cd81b499a974a8495f62",
     "327f47606a70e67f1c83221509b7dc8816c28ccf533c32eb383d2d8605f7a444"),
    ("3^15", "t=3", dict(variant="fpso", swarm_size=10, max_iterations=20, rng_seed=2),
     "e1940cdb74bfed6cdf4eca545907724a7f77a244456fba38ef7ff7845e9bd7cf",
     "5c555536b38e2eb164615cd1501fa7ebd31424fe74e6658d9bc4466841570cf8"),
]


@pytest.mark.parametrize("model_spec,config_text,params,digest,log_digest", GOLDEN,
                         ids=["fpso", "cpso", "variable-strength-repair", "three-lengths",
                              "fpso-default-patience", "wide-cpso", "wide-fpso"])
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


# Its trace holds undefined w_selection fields as well as numbers, and
# iterations that raised the global best (stalled=0) as well as stalled ones.
# The trace digests are of the lines an earlier `generate` wrote to its .log
# file, after the header; the .log digests are of the per-test JSON lines.
TRACED_RUN = ["generate", "--model", "3^4", "--t", "2", "--seed", "3", "--swarm-size", "80",
              "--patience", "none"]
TRACE_DIGEST = "1cc8984c63835a52ac578e5b2dd9dc49e3a238a42b141ab0be9f4da128629fc8"
LOG_DIGEST = "fe55a8365bacbe906ed7b5c55b92ddec06604929d0df270b9396b9be6bc0138a"


def test_trace_file_bytes_are_pinned(tmp_path, trace):
    out = tmp_path / "suite.txt"
    code, records = trace(main, [*TRACED_RUN, "--out", str(out)])
    assert code == EXIT_OK
    lines = trace_lines(records)
    assert b"w_selection=undef" in lines and b" stalled=0 " in lines and b" stalled=1 " in lines
    assert hashlib.sha256(lines).hexdigest() == TRACE_DIGEST
    log = (tmp_path / "suite.txt.log").read_bytes()
    assert hashlib.sha256(log).hexdigest() == LOG_DIGEST


# A run at fpso's default swarm and patience: suite, trace and .log digests. It
# is on 3^5, not the traced run's 3^4, where no search of that budget stalls.
DEFAULT_RUN = ["generate", "--model", "3^5", "--t", "2", "--seed", "3"]
DEFAULT_BUDGET_DIGESTS = (
    "364b9daf10dcfa267face539f25082454eb01b2d76e2fb767e8e3dc06c36bc45",
    "bf20abbeba71233c746c28a2e2aeee32e910067002493814f15adb02909ac2bf",
    "6785238b1b7b72a6edad6978cfe189934e21e5cca382bfeb34173f9b091cc6e5")


def test_default_patience_run_is_pinned(tmp_path, trace):
    out = tmp_path / "suite.txt"
    code, records = trace(main, [*DEFAULT_RUN, "--out", str(out)])
    assert code == EXIT_OK
    log = (tmp_path / "suite.txt.log").read_bytes()
    assert b'"stop": "stalled"' in log
    assert (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(trace_lines(records)).hexdigest(),
            hashlib.sha256(log).hexdigest()) == DEFAULT_BUDGET_DIGESTS


# Overlapping output sets: the aggregate's shape changes where the clipped
# sets cross, so the centroid needs the crossing breakpoints.
OVERLAP_MF = {"output": {"low": [0, 10, 60], "high": [40, 90, 100]}}
# Suite, trace and .log digests.
OVERLAP_DIGESTS = ("09c302a691efee5abb90281150ac16977116dc46ba1eb387f372e772975b0a58",
                   "f979592c5e58f979d854cf1433dbd01e83f9c3163449c1794f62a2ffb748bbb2",
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
    # Hundreds of rows, and a strength-3 combination that is a prefix of the
    # strength-4 one after it, so the oracle reuses a prefix's codes.
    ("4^8", "t=3; sub=0,1,2,3:4", 300,
     "8ef1ac93f07a83e86ed6dbb7f28bb995a7d64dadd9c792b20bf5b5ae68760446",
     "6af1d3efa276d285509e755082ddf0f52e8385e93223fe4be46df5c96ad71caa"),
]


@pytest.mark.parametrize("model_spec,config_text,n_cases,text_digest,csv_digest", REPORTS,
                         ids=["uniform", "variable-strength", "shared-prefix"])
def test_report_bytes_are_pinned(model_spec, config_text, n_cases, text_digest, csv_digest):
    model = parse_model(model_spec)
    rnd = random.Random(4)
    cases = [tuple(rnd.randrange(v) for v in model.param_levels) for _ in range(n_cases)]
    report = verify_suite(vscit.TestSuite(model, parse_config(config_text), tuple(cases)))
    assert not report.complete
    assert hashlib.sha256(render_report_text(report).encode()).hexdigest() == text_digest
    assert hashlib.sha256(render_report_csv(report).encode()).hexdigest() == csv_digest
