"""Variable-strength combinatorial test suite generation.

A library and CLI that builds minimal covering, mixed covering, and
variable-strength covering arrays with a particle swarm whose inertia
weight is adapted online by a Mamdani fuzzy controller, plus an
independent brute-force coverage oracle and a benchmark harness.
"""

from .fis import (
    FisController,
    FuzzyRule,
    MembershipFunction,
    W_MAX_DEFAULT,
    W_MIN_DEFAULT,
    compute_distance_pct,
    compute_ncf,
    compute_nor_nubf,
    controller_from_config,
    selection_to_w,
)
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
from .pso import (
    InternalCoverageError,
    IterationRecord,
    Particle,
    RunResult,
    SwarmParams,
    analytic_lower_bound,
    discretize,
    generate_one_test,
    generate_suite,
    position_update,
    velocity_update,
)
from .tuples import (
    ParamCombination,
    TupleStore,
    build_tuple_store,
    coverage_count,
    generate_param_combinations,
    remove_covered,
)
from .verify import (
    CoverageReport,
    read_suite,
    render_report_csv,
    render_report_text,
    suite_stats,
    verify_suite,
    write_suite,
)

__version__ = "0.1.0"
