"""Core substrate: frequency matrices, partitions, queries, entropy."""

from .._lazy import lazy_exports

_ORIGIN, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".consistency": (
            "clip_nonnegative",
            "project_nonnegative_total",
            "rescale_to_total",
        ),
        ".domain": ("DimensionSpec", "Domain"),
        ".entropy": (
            "distribution_entropy",
            "information_loss",
            "laplace_noise_entropy",
            "matrix_entropy",
            "partition_entropy",
            "partitioned_entropy_approximation",
            "uniform_entropy_approximation",
        ),
        ".exceptions": (
            "BudgetError",
            "MethodError",
            "PartitioningError",
            "QueryError",
            "ReproError",
            "ValidationError",
        ),
        ".frequency_matrix": (
            "Box",
            "FrequencyMatrix",
            "box_n_cells",
            "box_slices",
            "full_box",
            "validate_box",
        ),
        ".interval_index": (
            "PACKED_PLANS",
            "PLAN_BROADCAST",
            "PLAN_DENSE",
            "PLAN_PRUNED",
            "PLAN_SHARDED",
            "IntervalIndex",
            "PlanCost",
        ),
        ".packed": (
            "PackedPartitioning",
            "boxes_to_arrays",
            "packed_from_intervals",
            "validate_box_arrays",
        ),
        ".partition": (
            "Partition",
            "Partitioning",
            "grid_boxes",
            "split_interval",
        ),
        ".prefix_sum": ("LevelPrefixTable", "PrefixSumTable"),
        ".private_matrix": ("PrivateFrequencyMatrix",),
        ".sharding": (
            "DEFAULT_N_SHARDS",
            "SHARD_SKIPPED",
            "PartitionShard",
            "ShardedAnswer",
            "answer_sharded",
            "shard_bounds",
            "split_shards",
        ),
        ".sparse": ("SparseFrequencyMatrix",),
    },
)

__all__ = list(_ORIGIN)
