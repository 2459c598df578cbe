"""Tests for repro.core.private_matrix."""

import json

import numpy as np
import pytest

from repro.core import (
    PLAN_BROADCAST,
    PLAN_DENSE,
    PLAN_PRUNED,
    PLAN_SHARDED,
    Domain,
    FrequencyMatrix,
    Partition,
    Partitioning,
    PartitioningError,
    PrivateFrequencyMatrix,
    QueryError,
    ValidationError,
    boxes_to_arrays,
    full_box,
)
from repro.engine import Engine, EngineConfig
from repro.methods import get_sanitizer
from repro.queries import random_workload


def two_partition_private(shape=(4, 4)):
    parts = [
        Partition(((0, 1), (0, 3)), noisy_count=8.0, true_count=7.0),
        Partition(((2, 3), (0, 3)), noisy_count=4.0, true_count=5.0),
    ]
    return PrivateFrequencyMatrix(
        Partitioning(parts, shape), epsilon=0.5, method="test"
    )


class TestConstruction:
    def test_partition_backed(self):
        priv = two_partition_private()
        assert priv.n_partitions == 2
        assert not priv.is_dense_backed
        assert priv.method == "test"
        assert priv.epsilon == 0.5

    def test_dense_backed(self):
        noisy = np.array([[1.0, -2.0], [0.5, 3.0]])
        priv = PrivateFrequencyMatrix.from_dense_noisy(noisy, epsilon=1.0)
        assert priv.is_dense_backed
        assert priv.n_partitions == 4
        assert priv.shape == (2, 2)

    def test_dense_backed_rejects_nan(self):
        with pytest.raises(ValidationError):
            PrivateFrequencyMatrix.from_dense_noisy(np.array([[np.nan]]))

    def test_dense_backed_copy_semantics(self):
        noisy = np.ones((2, 2))
        priv = PrivateFrequencyMatrix.from_dense_noisy(noisy)
        noisy[0, 0] = 99.0
        assert priv.dense_array()[0, 0] == 1.0

    def test_partitioning_property_raises_for_dense(self):
        priv = PrivateFrequencyMatrix.from_dense_noisy(np.ones((2, 2)))
        with pytest.raises(QueryError):
            _ = priv.partitioning

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValidationError):
            PrivateFrequencyMatrix(
                Partitioning.single((2, 2), 1.0), epsilon=-0.1
            )

    def test_rejects_domain_mismatch(self):
        with pytest.raises(ValidationError):
            PrivateFrequencyMatrix(
                Partitioning.single((2, 2), 1.0), Domain.regular((3, 3))
            )


class TestAnswering:
    def test_full_box_answer(self):
        priv = two_partition_private()
        assert priv.answer(full_box((4, 4))) == pytest.approx(12.0)

    def test_uniformity_within_partition(self):
        priv = two_partition_private()
        # First partition: 8 cells with count 8 -> 1 per cell.
        assert priv.answer(((0, 0), (0, 0))) == pytest.approx(1.0)
        # Second partition: 8 cells with count 4 -> 0.5 per cell.
        assert priv.answer(((3, 3), (0, 1))) == pytest.approx(1.0)

    def test_answer_spanning_partitions(self):
        priv = two_partition_private()
        # Rows 1-2: half of each partition -> 4 + 2.
        assert priv.answer(((1, 2), (0, 3))) == pytest.approx(6.0)

    def test_answer_validates_box(self):
        priv = two_partition_private()
        with pytest.raises(QueryError):
            priv.answer(((0, 4), (0, 3)))

    def test_answer_many_matches_answer(self, rng):
        priv = two_partition_private()
        boxes = []
        for _ in range(20):
            a, b = sorted(rng.integers(0, 4, size=2))
            c, d = sorted(rng.integers(0, 4, size=2))
            boxes.append(((int(a), int(b)), (int(c), int(d))))
        many = priv.answer_many(boxes)
        single = [priv.answer(bx) for bx in boxes]
        assert np.allclose(many, single)

    def test_answer_many_empty(self):
        assert two_partition_private().answer_many([]).size == 0

    def test_dense_and_partition_engines_agree(self, rng):
        priv = two_partition_private()
        boxes = []
        for _ in range(10):
            a, b = sorted(rng.integers(0, 4, size=2))
            c, d = sorted(rng.integers(0, 4, size=2))
            boxes.append(((int(a), int(b)), (int(c), int(d))))
        via_partitions = [priv.answer(bx) for bx in boxes]
        via_prefix = priv._prefix_table().query_many(boxes)
        assert np.allclose(via_partitions, via_prefix)

    def test_answer_continuous(self):
        priv = two_partition_private()
        # Domain is regular: cell k covers [k, k+1).
        assert priv.answer_continuous((0.0, 0.0), (1.9, 3.9)) == pytest.approx(
            priv.answer(((0, 1), (0, 3)))
        )

    def test_dense_backed_answers(self):
        noisy = np.array([[1.0, 2.0], [3.0, 4.0]])
        priv = PrivateFrequencyMatrix.from_dense_noisy(noisy)
        assert priv.answer(((0, 1), (0, 0))) == pytest.approx(4.0)
        assert priv.answer(((0, 0), (0, 1))) == pytest.approx(3.0)


class TestDenseReconstruction:
    def test_dense_array_spreads_uniformly(self):
        priv = two_partition_private()
        dense = priv.dense_array()
        assert dense.shape == (4, 4)
        assert np.allclose(dense[:2, :], 1.0)
        assert np.allclose(dense[2:, :], 0.5)

    def test_to_dense_clips_negative(self):
        parts = [Partition(((0, 1),), -4.0), Partition(((2, 3),), 4.0)]
        priv = PrivateFrequencyMatrix(Partitioning(parts, (4,)))
        fm = priv.to_dense()
        assert (fm.data >= 0).all()
        assert fm.data[3] == pytest.approx(2.0)


class TestSerialization:
    def test_partition_roundtrip(self):
        priv = two_partition_private()
        payload = priv.to_publishable()
        assert "partitions" in payload
        # True counts must never be published.
        assert all("true" not in str(k) for p in payload["partitions"] for k in p)
        back = PrivateFrequencyMatrix.from_publishable(payload)
        assert back.n_partitions == 2
        assert back.answer(full_box((4, 4))) == pytest.approx(12.0)

    def test_dense_roundtrip(self):
        noisy = np.array([[1.5, -0.5], [2.0, 0.0]])
        priv = PrivateFrequencyMatrix.from_dense_noisy(
            noisy, epsilon=0.7, method="identity"
        )
        back = PrivateFrequencyMatrix.from_publishable(priv.to_publishable())
        assert back.is_dense_backed
        assert np.allclose(back.dense_array(), noisy)
        assert back.epsilon == 0.7

    def test_malformed_payload(self):
        with pytest.raises(QueryError):
            PrivateFrequencyMatrix.from_publishable({"shape": "bad"})
        with pytest.raises(QueryError):
            PrivateFrequencyMatrix.from_publishable({})

    def test_cell_payload_size_checked(self):
        with pytest.raises(QueryError):
            PrivateFrequencyMatrix.from_publishable(
                {"shape": [2, 2], "cells": [1.0, 2.0]}
            )


def two_partition_payload(**changes):
    """A valid publishable payload for a (4, 4) matrix, with overrides;
    a value of ``None`` deletes the key."""
    payload = {
        "method": "test",
        "epsilon": 0.5,
        "shape": [4, 4],
        "metadata": {},
        "partitions": [
            {"box": [[0, 1], [0, 3]], "noisy_count": 8.0},
            {"box": [[2, 3], [0, 3]], "noisy_count": 4.0},
        ],
    }
    payload.update(changes)
    return {k: v for k, v in payload.items() if v is not None}


def boxes(*bs):
    return [{"box": b, "noisy_count": 1.0} for b in bs]


#: Malformed payloads and the ReproError subclass each must raise.
MALFORMED = {
    "missing shape": (two_partition_payload(shape=None), QueryError),
    "missing partitions": (two_partition_payload(partitions=None), QueryError),
    "missing box": ([{"noisy_count": 1.0}], QueryError),
    "ragged boxes": (boxes([[0, 1], [0, 3]], [[2, 3]]), QueryError),
    "3-element pairs": (
        boxes([[0, 1, 1], [0, 3, 3]], [[2, 3, 3], [0, 3, 3]]), QueryError
    ),
    "non-numeric count": (
        [{"box": [[0, 3], [0, 3]], "noisy_count": "abc"}], QueryError
    ),
    "list count": (
        [{"box": [[0, 3], [0, 3]], "noisy_count": [1.0]}], QueryError
    ),
    "null count": ([{"box": [[0, 3], [0, 3]], "noisy_count": None}], QueryError),
    "NaN count": (
        [{"box": [[0, 3], [0, 3]], "noisy_count": float("nan")}], QueryError
    ),
    "int64 overflow": (boxes([[0, 2**70], [0, 3]]), QueryError),
    "float bound": (boxes([[0, 1.7], [0, 3]], [[2, 3], [0, 3]]), QueryError),
    "empty list": ([], QueryError),
    "wrong dimensionality": (boxes([[0, 3], [0, 3], [0, 0]]), PartitioningError),
    "out of range": (boxes([[0, 1], [0, 3]], [[2, 4], [0, 3]]), PartitioningError),
    "overlap": (boxes([[0, 1], [0, 3]], [[1, 2], [0, 3]]), PartitioningError),
    "gap": (boxes([[0, 1], [0, 3]]), PartitioningError),
}


def source_release(method):
    rng = np.random.default_rng(3)
    cells = rng.integers(0, [6, 7, 5], size=(2_000, 3))
    matrix = FrequencyMatrix.from_cells(cells, Domain.regular((6, 7, 5)))
    return get_sanitizer(method).sanitize(matrix, 0.5, rng=1)


class TestPublishableLoader:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_payload_raises(self, case):
        payload, error = MALFORMED[case]
        if isinstance(payload, list):
            payload = two_partition_payload(partitions=payload)
        with pytest.raises(error):
            PrivateFrequencyMatrix.from_publishable(payload)

    def test_loading_builds_no_partition_objects(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a Partition object was built")

        monkeypatch.setattr(Partition, "__post_init__", refuse)
        priv = PrivateFrequencyMatrix.from_publishable(two_partition_payload())
        assert priv.answer_many([full_box((4, 4))])[0] == pytest.approx(12.0)
        assert priv.to_publishable() == two_partition_payload()

    @pytest.mark.parametrize("method", ["uniform", "kdtree", "daf_entropy"])
    def test_reload_answers_and_payload_identical(self, method):
        source = source_release(method)
        payload = json.loads(json.dumps(source.to_publishable()))
        reloaded = PrivateFrequencyMatrix.from_publishable(payload)
        assert reloaded.to_publishable() == payload
        lows, highs = boxes_to_arrays(
            random_workload(source.shape, n_queries=200, rng=5)
        )
        for config in (
            EngineConfig(plan=PLAN_DENSE),
            EngineConfig(plan=PLAN_BROADCAST),
            EngineConfig(plan=PLAN_PRUNED),
            EngineConfig(plan=PLAN_SHARDED, n_shards=3),
        ):
            expected = Engine(source, config).answer_arrays(lows, highs)
            got = Engine(reloaded, config).answer_arrays(lows, highs)
            assert np.array_equal(got, expected), config
