"""Core substrate: frequency matrices, partitions, queries, entropy."""

from .consistency import (
    clip_nonnegative,
    project_nonnegative_total,
    rescale_to_total,
)
from .domain import DimensionSpec, Domain
from .entropy import (
    distribution_entropy,
    information_loss,
    laplace_noise_entropy,
    matrix_entropy,
    partition_entropy,
    partitioned_entropy_approximation,
    uniform_entropy_approximation,
)
from .exceptions import (
    BudgetError,
    MethodError,
    PartitioningError,
    QueryError,
    ReproError,
    ValidationError,
)
from .frequency_matrix import (
    Box,
    FrequencyMatrix,
    box_n_cells,
    box_slices,
    full_box,
    validate_box,
)
from .interval_index import (
    PACKED_PLANS,
    PLAN_BROADCAST,
    PLAN_DENSE,
    PLAN_PRUNED,
    PLAN_SHARDED,
    IntervalIndex,
    PlanCost,
)
from .packed import (
    PackedPartitioning,
    boxes_to_arrays,
    packed_from_intervals,
    validate_box_arrays,
)
from .sharding import (
    DEFAULT_N_SHARDS,
    SHARD_SKIPPED,
    PartitionShard,
    ShardedAnswer,
    answer_sharded,
    shard_bounds,
    split_shards,
)
from .partition import Partition, Partitioning, grid_boxes, split_interval
from .prefix_sum import PrefixSumTable
from .private_matrix import PrivateFrequencyMatrix
from .sparse import SparseFrequencyMatrix

__all__ = [
    "BudgetError",
    "Box",
    "DEFAULT_N_SHARDS",
    "DimensionSpec",
    "Domain",
    "FrequencyMatrix",
    "IntervalIndex",
    "MethodError",
    "PACKED_PLANS",
    "PLAN_BROADCAST",
    "PLAN_DENSE",
    "PLAN_PRUNED",
    "PLAN_SHARDED",
    "PlanCost",
    "PackedPartitioning",
    "Partition",
    "PartitionShard",
    "Partitioning",
    "PartitioningError",
    "PrefixSumTable",
    "PrivateFrequencyMatrix",
    "QueryError",
    "ReproError",
    "SHARD_SKIPPED",
    "ShardedAnswer",
    "SparseFrequencyMatrix",
    "ValidationError",
    "answer_sharded",
    "box_n_cells",
    "boxes_to_arrays",
    "shard_bounds",
    "split_shards",
    "clip_nonnegative",
    "box_slices",
    "distribution_entropy",
    "full_box",
    "grid_boxes",
    "information_loss",
    "laplace_noise_entropy",
    "matrix_entropy",
    "packed_from_intervals",
    "partition_entropy",
    "partitioned_entropy_approximation",
    "project_nonnegative_total",
    "rescale_to_total",
    "split_interval",
    "uniform_entropy_approximation",
    "validate_box",
    "validate_box_arrays",
]
