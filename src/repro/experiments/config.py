"""Experiment configuration: scales and method sets.

The paper's full scale (10^6 points, 1000x1000 city grids, 1000 queries per
data point) takes minutes per figure panel; the figure functions therefore
accept an :class:`ExperimentScale` so CI runs a faithful-but-smaller
version of every experiment while ``PAPER_SCALE`` reproduces the published
setting.  Scaling down shrinks counts and grids proportionally — the
*relative* comparison between methods, which is what the figures show, is
preserved (the benchmarks assert the orderings, not absolute numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from ..core.exceptions import ValidationError


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade fidelity for runtime.

    Attributes
    ----------
    n_points:
        Population size for synthetic matrices and city histograms
        (paper: 10^6).
    n_trajectories:
        Trajectories per city for OD experiments (paper: 3 * 10^5).
    city_resolution:
        Per-axis cells of the 2-D city grid (paper: 1000).
    od_cell_budget:
        Dense-cell ceiling for OD matrices, which fixes the per-endpoint
        resolution (paper's 4-D experiments imply ~ N^(1/4)).
    n_queries:
        Queries per workload (paper: 1000).
    n_trials:
        Sanitization repetitions averaged per data point.
    n_jobs:
        Trial parallelism for :func:`~repro.experiments.runner.run_methods`
        (1 = serial, ``k > 1`` = that many worker processes, -1 = all
        cores).  Results are bit-identical across settings; serial is
        usually faster for tiny grids where process startup dominates.
    """

    name: str
    n_points: int
    n_trajectories: int
    city_resolution: int
    od_cell_budget: int
    n_queries: int
    n_trials: int = 1
    n_jobs: int = 1

    def __post_init__(self) -> None:
        for attr in ("n_points", "n_trajectories", "city_resolution",
                     "od_cell_budget", "n_queries", "n_trials"):
            if getattr(self, attr) < 1:
                raise ValidationError(f"{attr} must be >= 1")
        if self.n_jobs < 1 and self.n_jobs != -1:
            raise ValidationError(
                f"n_jobs must be >= 1 or -1 (all cores), got {self.n_jobs}"
            )

    def with_overrides(self, **kwargs) -> "ExperimentScale":
        return replace(self, **kwargs)


#: Full fidelity — the paper's published parameters.
PAPER_SCALE = ExperimentScale(
    name="paper",
    n_points=1_000_000,
    n_trajectories=300_000,
    city_resolution=1000,
    od_cell_budget=2_000_000,
    n_queries=1000,
    n_trials=1,
)

#: Reduced fidelity for local iteration (~seconds per panel).
SMALL_SCALE = ExperimentScale(
    name="small",
    n_points=120_000,
    n_trajectories=40_000,
    city_resolution=256,
    od_cell_budget=250_000,
    n_queries=300,
    n_trials=1,
)

#: Minimal fidelity for CI and unit tests.
TINY_SCALE = ExperimentScale(
    name="tiny",
    n_points=20_000,
    n_trajectories=6_000,
    city_resolution=64,
    od_cell_budget=40_000,
    n_queries=80,
    n_trials=1,
)

_SCALES: Dict[str, ExperimentScale] = {
    s.name: s for s in (PAPER_SCALE, SMALL_SCALE, TINY_SCALE)
}


def get_scale(name: str) -> ExperimentScale:
    """Scale preset by name (``paper``, ``small``, ``tiny``)."""
    key = str(name).lower()
    if key not in _SCALES:
        raise ValidationError(
            f"unknown scale {name!r}; available: {sorted(_SCALES)}"
        )
    return _SCALES[key]


@dataclass(frozen=True)
class MethodSpec:
    """A method name plus constructor keyword arguments."""

    name: str
    kwargs: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)

    @classmethod
    def of(cls, name: str, **kwargs) -> "MethodSpec":
        return cls(name, tuple(sorted(kwargs.items())))

    def as_kwargs(self) -> Dict[str, object]:
        return dict(self.kwargs)

    @property
    def label(self) -> str:
        if not self.kwargs:
            return self.name
        params = ",".join(f"{k}={v}" for k, v in self.kwargs)
        return f"{self.name}({params})"


def default_method_specs(names: List[str]) -> List[MethodSpec]:
    """Plain (no-kwargs) specs for a list of registry names."""
    return [MethodSpec.of(n) for n in names]
