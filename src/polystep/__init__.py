"""Finite-sum convex optimization with Polyak-family adaptive stepsizes.

The package splits into six modules:

* :mod:`polystep.core`       vectors, seeded random streams, batch sampling
* :mod:`polystep.objectives` finite-sum objectives and reference solutions
* :mod:`polystep.steppers`   per-iteration stepsize rules over arrays of rows
* :mod:`polystep.oracles`    closed forms and independent simulators
* :mod:`polystep.data_io`    dataset loading and trace serialization
* :mod:`polystep.runner`     the grid-lockstep engine, orchestration, aggregation
"""

from .core import sample_batch, stream
from .data_io import (
    Dataset,
    LoadError,
    Trace,
    load_delimited,
    load_libsvm,
    make_synthetic,
    read_trace,
    standardize,
    write_trace,
)
from .objectives import (
    CurvatureInfo,
    LogisticObjective,
    QuadraticObjective,
    ReferenceSolution,
    ShiftedAbsoluteObjective,
    SingularSystem,
    SolverFailure,
    UnavailableExactMinimum,
    UnsoundLowerBound,
    full_grad,
    full_value,
    make_counterexample_1d,
    make_fig1_problem,
    make_random_strongly_convex,
    solve_reference,
    suboptimality,
)
from .oracles import (
    SuboptimalityStats,
    bias_fixed_point,
    bounded_recursion_check,
    d_max_bound,
    estimate_sigma2,
    gamma_moment_identity,
    simulate_polyak_1d,
    sps_bias_variance,
    variation_of_constants,
)
from .runner import (
    ProblemSpec,
    RunConfig,
    SeedBatches,
    build_problem,
    compare_grid,
    iterate_run,
    lockstep,
    run_experiment,
)
from .steppers import (
    STEPPERS,
    ConfigurationError,
    StepperConfig,
    StepperState,
    init_state,
)

__version__ = "0.1.0"

__all__ = [
    "CurvatureInfo",
    "ConfigurationError",
    "Dataset",
    "LoadError",
    "LogisticObjective",
    "ProblemSpec",
    "QuadraticObjective",
    "ReferenceSolution",
    "RunConfig",
    "STEPPERS",
    "SeedBatches",
    "ShiftedAbsoluteObjective",
    "SingularSystem",
    "SolverFailure",
    "StepperConfig",
    "StepperState",
    "SuboptimalityStats",
    "Trace",
    "UnavailableExactMinimum",
    "UnsoundLowerBound",
    "bias_fixed_point",
    "bounded_recursion_check",
    "build_problem",
    "compare_grid",
    "d_max_bound",
    "estimate_sigma2",
    "full_grad",
    "full_value",
    "gamma_moment_identity",
    "init_state",
    "iterate_run",
    "lockstep",
    "load_delimited",
    "load_libsvm",
    "make_counterexample_1d",
    "make_fig1_problem",
    "make_random_strongly_convex",
    "make_synthetic",
    "read_trace",
    "run_experiment",
    "sample_batch",
    "simulate_polyak_1d",
    "solve_reference",
    "sps_bias_variance",
    "standardize",
    "stream",
    "suboptimality",
    "variation_of_constants",
    "write_trace",
]
