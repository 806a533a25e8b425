"""Variable-strength combinatorial test suite generation.

A library and CLI that builds minimal covering, mixed covering, and
variable-strength covering arrays with a particle swarm whose inertia
weight is adapted online by a Mamdani fuzzy controller, plus a coverage
oracle independent of the generator and a benchmark harness. The package
root holds the library API; its helpers are imported from their modules.
"""

from .fis import FisController, MembershipFunction, controller_from_config
from .model import (
    ConfigError,
    ParseError,
    SubConfig,
    SutModel,
    TestCase,
    TestSuite,
    VscaConfig,
    parse_config,
    parse_model,
    validate_config,
)
from .pso import InternalCoverageError, RunResult, SwarmParams, generate_suite
from .verify import CoverageReport, read_suite, verify_suite, write_suite

__version__ = "0.1.0"
