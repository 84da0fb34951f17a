"""The paper's primary contribution: probabilities, edge skipping, swaps."""

from repro.core.probabilities import generate_probabilities, ProbabilityResult
from repro.core.edge_skip import generate_edges, skip_positions
from repro.core.swap import swap_edges, SwapStats, serial_swap_chain
from repro.core.generate import generate_graph, GenerationReport
from repro.core.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointStore,
    run_fingerprint,
)
from repro.core.mixing import (
    l1_probability_error,
    average_attachment_matrix,
    hub_attachment_curve,
    chung_lu_attachment_curve,
)
from repro.core.diagnostics import (
    autocorrelation,
    effective_sample_size,
    gelman_rubin,
    integrated_autocorrelation_time,
    iterations_until_all_swapped,
    mixing_report,
    statistic_trace,
)
from repro.core.solvers import solve_probabilities_lsq

__all__ = [
    "generate_probabilities",
    "ProbabilityResult",
    "generate_edges",
    "skip_positions",
    "swap_edges",
    "SwapStats",
    "serial_swap_chain",
    "generate_graph",
    "GenerationReport",
    "Checkpoint",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointStore",
    "run_fingerprint",
    "l1_probability_error",
    "average_attachment_matrix",
    "hub_attachment_curve",
    "chung_lu_attachment_curve",
    "autocorrelation",
    "effective_sample_size",
    "gelman_rubin",
    "integrated_autocorrelation_time",
    "iterations_until_all_swapped",
    "mixing_report",
    "statistic_trace",
    "solve_probabilities_lsq",
]
