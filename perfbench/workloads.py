"""Workload definitions and the one operation each of them times.

A generate workload's operation is one seeded ``vscit.generate_suite``
call with the default swarm (80 particles x 100 iterations), the path
``vscit benchmark`` takes for each run. The ``oracle-verify`` operation is
one in-process ``vscit verify <file>`` on a random suite the benchmark
wrote from the seed. Operation j of a run uses seed ``seed + j``, so the
first n operations of a run give the sizes ``vscit benchmark --seed seed
--runs n`` reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str
    config: str
    variant: str  # "fpso" or "cpso" to generate, "verify" for the oracle
    cases: int = 0  # random cases in the verified suite ("verify" only)


# Operations a run makes at least; size_mean and size_best are taken over these.
MIN_OPS = 4

# Every operation takes about 4 s on a 2-vCPU host, so that a run holds
# five or more and reports their median. One or two 6-20 s operations per
# run, as 3^15 t=3, table3 row 6 or a 4^16 oracle take, left run_s
# unsteady on a host whose speed drifts (see README.md). The smaller inputs
# keep each workload's split of the work between the layers.
WORKLOADS = {w.name: w for w in (
    Workload(
        "ca2-fpso",
        "3^15 t=2 fpso: per-iteration work dominates; fuzzy inference ~30% and swarm move ~42%",
        "3^15", "t=2", "fpso"),
    Workload(
        "ca3-cpso",
        "2^16 t=3 cpso: fitness scoring and bookkeeping ~58%, swarm move ~41%, read-heavy store; the fuzzy controller never runs",
        "2^16", "t=3", "cpso"),
    Workload(
        "vsca-mixed",
        "3^3 4^3 5^1 with strength-3 and -4 blocks: 320 short searches, so per-test costs (snapshot, store writes, repair) weigh most",
        "3^3 4^3 5^1", "t=2; sub=0,1,2:3; sub=3,4,5,6:4", "fpso"),
    Workload(
        "oracle-verify",
        "vscit verify on a random 2000-case 4^14 t=4 suite: the oracle does all the work and no search runs",
        "4^14", "t=4", "verify", cases=2000),
    # Seconds-long workloads for the benchmark's own tests; not in BENCHMARK.json.
    Workload("smoke", "3^4 t=2 fpso, for the benchmark's own tests", "3^4", "t=2", "fpso"),
    Workload("smoke-verify", "random 3^5 t=2 suite, for the benchmark's own tests",
             "3^5", "t=2", "verify", cases=6),
)}


BENCHMARKED = ("ca2-fpso", "ca3-cpso", "vsca-mixed", "oracle-verify")


@dataclass
class OpResult:
    seed: int
    seconds: float
    size: int
    digest: str
    problems: list[str] = field(default_factory=list)


def random_suite_text(workload: Workload, seed: int) -> str:
    """A suite file of uniformly random cases, written without vscit."""
    levels = check.parse_model_spec(workload.model)
    rng = np.random.default_rng(seed)
    cases = rng.integers(0, levels, size=(workload.cases, len(levels)))
    lines = [f"# model: {workload.model}", f"# config: {workload.config}"]
    lines += [",".join(map(str, row)) for row in cases.tolist()]
    return "\n".join(lines) + "\n"


class Runner:
    """Runs one workload's operations against the vscit package.

    Model and config are parsed once, before any operation, as a user of
    ``vscit benchmark`` pays them once per campaign.
    """

    def __init__(self, vscit, workload: Workload, scratch: Path):
        self.vscit = vscit
        self.workload = workload
        self.scratch = scratch
        self.model = vscit.parse_model(workload.model)
        self.config = vscit.validate_config(self.model, vscit.parse_config(workload.config))

    def run(self, seed: int) -> OpResult:
        """One operation; one that raises is returned as failed, untimed and sizeless."""
        try:
            if self.workload.variant == "verify":
                return self._verify(seed)
            return self._generate(seed)
        except Exception as exc:  # noqa: BLE001 - any exception is the operation's failure
            return OpResult(seed, math.nan, 0, "", [f"raised {type(exc).__name__}: {exc}"])

    def _generate(self, seed: int) -> OpResult:
        params = self.vscit.SwarmParams(variant=self.workload.variant, rng_seed=seed)
        start = time.perf_counter()
        result = self.vscit.generate_suite(self.model, self.config, params)
        seconds = time.perf_counter() - start
        path = self.scratch / f"suite-{seed}.txt"
        self.vscit.write_suite(result.suite, path)
        data = path.read_bytes()
        path.unlink()
        problems, size = check.check_suite_text(data.decode(), self.workload.model, self.workload.config)
        if size != len(result.suite):
            problems.append(f"file holds {size} cases, the result {len(result.suite)}")
        return OpResult(seed, seconds, size, hashlib.sha256(data).hexdigest(), problems)

    def _verify(self, seed: int) -> OpResult:
        text = random_suite_text(self.workload, seed)
        path = self.scratch / f"random-{seed}.txt"
        path.write_text(text)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = self.vscit.cli.main(["verify", str(path)])
        seconds = time.perf_counter() - start
        path.unlink()
        report = out.getvalue()
        _, _, cases = check.parse_suite_text(text)
        main, subs = check.parse_config_spec(self.workload.config)
        required, covered = check.recount(check.parse_model_spec(self.workload.model), main, subs, cases)
        problems = []
        expected_code = 0 if covered == required else 1
        if code != expected_code:
            problems.append(f"exit code {code}, expected {expected_code}")
        for name, want in (("required", required), ("covered", covered)):
            found = re.search(rf"^{name}: (\d+)$", report, re.MULTILINE)
            if found is None or int(found.group(1)) != want:
                problems.append(f"reported {name} is {found and found.group(1)}, recount gives {want}")
        digest = hashlib.sha256(report.encode()).hexdigest()
        return OpResult(seed, seconds, len(cases), digest, problems)
