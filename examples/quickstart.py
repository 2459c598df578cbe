"""Quickstart: sanitize a frequency matrix and query it privately.

Run:  python examples/quickstart.py
"""

import json

import numpy as np

from repro import (
    FrequencyMatrix,
    PrivateFrequencyMatrix,
    get_sanitizer,
    mean_relative_error,
    random_workload,
)

# ----------------------------------------------------------------------
# 1. Build a frequency matrix.  Any non-negative count array works; here a
#    synthetic 64x64 "population map" with one dense neighbourhood.
# ----------------------------------------------------------------------
rng = np.random.default_rng(7)
points = rng.normal(loc=(20, 40), scale=6.0, size=(50_000, 2))
cells = np.clip(np.rint(points), 0, 63).astype(np.int64)
data = np.zeros((64, 64))
np.add.at(data, (cells[:, 0], cells[:, 1]), 1.0)
matrix = FrequencyMatrix(data)
print(f"matrix: shape={matrix.shape}, total count N={matrix.total:,.0f}")

# ----------------------------------------------------------------------
# 2. Sanitize under epsilon-differential privacy.  DAF-Entropy is the
#    paper's best general-purpose method; epsilon=0.1 is its strictest
#    evaluated privacy setting.
# ----------------------------------------------------------------------
epsilon = 0.1
sanitizer = get_sanitizer("daf_entropy")
private = sanitizer.sanitize(matrix, epsilon=epsilon, rng=42)
print(f"sanitized with {private.method!r}: {private.n_partitions} partitions, "
      f"epsilon={private.epsilon}")

# ----------------------------------------------------------------------
# 3. Ask range queries.  Boxes are inclusive (lo, hi) index pairs per
#    dimension; the private matrix answers under a per-partition
#    uniformity assumption.
# ----------------------------------------------------------------------
hotspot = ((14, 26), (34, 46))          # around the dense neighbourhood
suburb = ((48, 63), (0, 15))            # a sparse corner
for name, box in [("hotspot", hotspot), ("suburb", suburb)]:
    true = matrix.range_count(box)
    noisy = private.answer(box)
    print(f"{name:8s} true={true:9.0f}  private={noisy:9.1f}")

# ----------------------------------------------------------------------
# 4. Evaluate accuracy over a random workload (the paper's MRE metric).
# ----------------------------------------------------------------------
workload = random_workload(matrix.shape, n_queries=500, rng=1)
truth = np.array([matrix.range_count(q) for q in workload])
estimates = private.answer_many(list(workload))
print(f"MRE over {len(workload)} random queries: "
      f"{mean_relative_error(truth, estimates):.1f}%")

# ----------------------------------------------------------------------
# 5. The published artifact is just boxes + noisy counts — safe to share.
#    An analyst reloads it (checking that the boxes tile the matrix
#    exactly once) and gets the same answers as the custodian.
# ----------------------------------------------------------------------
payload = json.loads(json.dumps(private.to_publishable()))
print(f"publishable payload: {len(payload['partitions'])} partitions, "
      f"keys per partition: {sorted(payload['partitions'][0])}")
reloaded = PrivateFrequencyMatrix.from_publishable(payload)
assert np.array_equal(reloaded.answer_many(list(workload)), estimates)
assert reloaded.answer(hotspot) == private.answer(hotspot)
print(f"reloaded payload answers all {len(workload)} queries identically")
