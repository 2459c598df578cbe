"""repro — differentially-private publication of origin-destination
matrices with intermediate stops.

A full reproduction of *"Differentially-Private Publication of
Origin-Destination Matrices with Intermediate Stops"* (EDBT 2022):
frequency-matrix sanitization under epsilon-DP with the paper's complete
method set (IDENTITY, UNIFORM, MKM, EUG, EBP, DAF-Entropy,
DAF-Homogeneity) plus extensions, a trajectory/OD substrate, synthetic
data generators substituting the proprietary Veraset corpus, and an
experiment harness regenerating every table and figure.

Public names resolve lazily (PEP 562): ``import repro`` loads no
subpackage, and each name imports only the subpackage that defines it.

Quickstart
----------
>>> import numpy as np
>>> from repro import FrequencyMatrix, get_sanitizer
>>> fm = FrequencyMatrix(np.random.default_rng(0).poisson(2, (64, 64)))
>>> private = get_sanitizer("daf_entropy").sanitize(fm, epsilon=0.5, rng=1)
>>> estimate = private.answer(((0, 31), (0, 31)))
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

_ORIGIN, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".core": (
            "BudgetError",
            "Box",
            "DimensionSpec",
            "Domain",
            "FrequencyMatrix",
            "MethodError",
            "Partition",
            "Partitioning",
            "PartitioningError",
            "PrefixSumTable",
            "PrivateFrequencyMatrix",
            "QueryError",
            "ReproError",
            "SparseFrequencyMatrix",
            "ValidationError",
        ),
        ".dp": (
            "BudgetLedger",
            "GeometricMechanism",
            "LaplaceMechanism",
            "ensure_rng",
            "geometric_level_budgets",
            "laplace_noise",
            "report_noisy_min",
        ),
        ".methods": (
            "EBP",
            "EUG",
            "MKM",
            "DAFEntropy",
            "DAFHomogeneity",
            "Identity",
            "KDTree",
            "Privlet",
            "Quadtree",
            "Sanitizer",
            "Uniform",
            "available_methods",
            "get_sanitizer",
        ),
        ".engine": (
            "AsyncBatchEngine",
            "Engine",
            "EngineConfig",
            "QueryAnswer",
            "QueryRequest",
        ),
        ".queries": (
            "Workload",
            "WorkloadEvaluator",
            "fixed_coverage_workload",
            "mean_relative_error",
            "random_workload",
        ),
        ".trajectories": (
            "ODMatrixBuilder",
            "SpatialGrid",
            "Trajectory",
            "TrajectoryDataset",
            "classical_od_matrix",
            "od_matrix_with_stops",
        ),
    },
)

__all__ = [*_ORIGIN, "__version__"]
