"""Information-theoretic analysis of benchmark problem sets.

Given noisy per-problem performance logs for a set of algorithms, this
package measures how much each problem (or problem subset) tells you
about which algorithm produced an observation, selects the most
discriminatory subset greedily, and clusters problems by the
correlation of agent performance.
"""

__version__ = "0.1.0"


def _import_numpy_with_one_blas_thread() -> None:
    """Import numpy with OpenBLAS limited to one thread, unless numpy is
    already loaded or the caller set a thread count.

    No command calls a BLAS routine, and OpenBLAS's idle workers spin CPU
    time as they start.  The variable is removed again, so child processes
    inherit the caller's environment."""
    import os
    import sys

    names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if "numpy" in sys.modules or any(name in os.environ for name in names):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401  OpenBLAS reads the variable as it loads
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_import_numpy_with_one_blas_thread()

from .cluster import (
    ClusterResult,
    CorrelationMatrix,
    Dendrogram,
    cluster,
    correlation_matrix,
)
from .confusion import (
    ConfusionMatrix,
    NOISE_MODES,
    confusion,
    log_weight_matrix,
)
from .errors import (
    CompletenessError,
    DomainError,
    InfobenchError,
    InputError,
    ParseError,
)
from .infogain import (
    EPS_GAIN,
    SELECTION_MODES,
    NegativeMarginal,
    SelectionReport,
    SelectionStep,
    greedy_select,
    info_gain_set,
    metric_keys_for,
    mutual_information,
)
from .perf import (
    Measure,
    MetricKey,
    PerformanceTable,
    Playthroughs,
    SIGMA_FLOOR_DEFAULT,
    aggregate,
    load_stats,
    parse_records,
    parse_records_path,
)
from .synth import (
    Archetype,
    SynthSpec,
    archetypes,
    generate,
)

__all__ = [
    "__version__",
    "Archetype",
    "ClusterResult",
    "CompletenessError",
    "ConfusionMatrix",
    "CorrelationMatrix",
    "Dendrogram",
    "DomainError",
    "EPS_GAIN",
    "InfobenchError",
    "InputError",
    "Measure",
    "MetricKey",
    "NOISE_MODES",
    "NegativeMarginal",
    "ParseError",
    "PerformanceTable",
    "Playthroughs",
    "SELECTION_MODES",
    "SIGMA_FLOOR_DEFAULT",
    "SelectionReport",
    "SelectionStep",
    "SynthSpec",
    "aggregate",
    "archetypes",
    "cluster",
    "confusion",
    "correlation_matrix",
    "generate",
    "greedy_select",
    "info_gain_set",
    "load_stats",
    "log_weight_matrix",
    "metric_keys_for",
    "mutual_information",
    "parse_records",
    "parse_records_path",
]
