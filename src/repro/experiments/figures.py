"""One function per paper artifact: Figures 4-8 and Table 3.

Every function builds the figure's datasets, runs the compared methods,
and returns a :class:`FigureResult` whose rows are the series the paper
plots.  Absolute values depend on the synthetic substrate (see DESIGN.md),
but the *shape* — method ordering, epsilon/coverage trends, dimensionality
effects — is what the benchmarks assert and ``EXPERIMENTS.md`` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..core.frequency_matrix import FrequencyMatrix
from ..datagen.cities import CITY_NAMES, get_city
from ..datagen.gaussian import gaussian_matrix, paper_shape, variance_for_skew
from ..datagen.movement import MovementSimulator
from ..datagen.zipf import zipf_matrix
from ..dp.rng import RNGLike, ensure_rng, spawn
from ..methods.registry import PAPER_METHODS
from ..queries.workload import (
    Workload,
    fixed_coverage_workload,
    random_workload,
)
from ..trajectories.od import ODMatrixBuilder
from .config import (
    ExperimentScale,
    TINY_SCALE,
    default_method_specs,
)
from .reporting import format_table, pivot
from .runner import aggregate_rows, run_methods

#: The paper's privacy budgets (Section 6.1: high / moderate / low privacy).
PAPER_EPSILONS = (0.1, 0.3, 0.5)

#: Methods shown in Figures 6 (with baselines) and 7/8 (without).
FIG6_METHODS = PAPER_METHODS
FIG7_METHODS = ["eug", "ebp", "daf_entropy", "daf_homogeneity"]

#: Gaussian skew levels for Figure 4's x-axis, expressed as the cluster
#: standard deviation relative to the matrix width (scale-free across d).
FIG4_SKEW_FRACTIONS = (0.02, 0.05, 0.1, 0.25, 0.5)

#: Zipf skew parameters for Figure 5's x-axis.
FIG5_ZIPF_A = (1.5, 2.0, 2.5, 3.0)


@dataclass
class FigureResult:
    """Rows + rendering for one reproduced artifact."""

    figure_id: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)

    def filtered(self, **conditions) -> List[Dict[str, object]]:
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in conditions.items()):
                out.append(row)
        return out

    def panel(
        self, index: str, column: str = "method", value: str = "mre",
        **conditions,
    ) -> str:
        rows = self.filtered(**conditions) if conditions else self.rows
        cond = ", ".join(f"{k}={v}" for k, v in conditions.items())
        title = f"[{self.figure_id}] {self.description}"
        if cond:
            title += f" ({cond})"
        return pivot(rows, index, column, value, title=title)

    def to_text(self, columns: Sequence[str] | None = None) -> str:
        if columns is None:
            columns = list(self.rows[0].keys()) if self.rows else []
        return format_table(
            self.rows, list(columns),
            title=f"[{self.figure_id}] {self.description}",
        )


# ----------------------------------------------------------------------
# Figure 4: Gaussian synthetic, d in {2, 4, 6}, eps in {0.1, 0.3, 0.5}
# ----------------------------------------------------------------------
def figure4(
    scale: ExperimentScale = TINY_SCALE,
    dims: Sequence[int] = (2, 4, 6),
    epsilons: Sequence[float] = PAPER_EPSILONS,
    skew_fractions: Sequence[float] = FIG4_SKEW_FRACTIONS,
    methods: Sequence[str] = PAPER_METHODS,
    rng: RNGLike = 2022,
) -> FigureResult:
    """Gaussian synthetic results, random shape-and-size queries.

    One row per (d, epsilon, skew, method); the paper's 3x3 panel grid is
    the (d, epsilon) cross product with skew on the x-axis.
    """
    gen = ensure_rng(rng)
    specs = default_method_specs(list(methods))
    result = FigureResult(
        "figure4", "Gaussian synthetic, random queries (MRE %)"
    )
    for d in dims:
        shape = paper_shape(d, scale.n_points)
        for frac in skew_fractions:
            data_rng, wl_rng, run_rng = spawn(gen, 3)
            variance = variance_for_skew(shape, frac)
            matrix = gaussian_matrix(
                d, variance, scale.n_points, data_rng, shape=shape
            )
            workload = random_workload(shape, scale.n_queries, wl_rng)
            rows = run_methods(
                matrix, specs, list(epsilons), [workload],
                n_trials=scale.n_trials, rng=run_rng, n_jobs=scale.n_jobs,
                extra={"d": d, "skew_fraction": frac, "variance": variance},
            )
            result.rows.extend(
                aggregate_rows(rows, ("method", "epsilon", "d",
                                      "skew_fraction"))
            )
    return result


# ----------------------------------------------------------------------
# Figure 5: Zipf synthetic, d in {2, 4, 6}, eps = 0.1
# ----------------------------------------------------------------------
def figure5(
    scale: ExperimentScale = TINY_SCALE,
    dims: Sequence[int] = (2, 4, 6),
    a_values: Sequence[float] = FIG5_ZIPF_A,
    epsilon: float = 0.1,
    methods: Sequence[str] = PAPER_METHODS,
    rng: RNGLike = 2022,
) -> FigureResult:
    """Zipf synthetic results, random queries, eps = 0.1 (one panel per d,
    skew parameter a on the x-axis)."""
    gen = ensure_rng(rng)
    specs = default_method_specs(list(methods))
    result = FigureResult("figure5", "Zipf synthetic, random queries (MRE %)")
    for d in dims:
        shape = paper_shape(d, scale.n_points)
        for a in a_values:
            data_rng, wl_rng, run_rng = spawn(gen, 3)
            matrix = zipf_matrix(d, a, scale.n_points, data_rng, shape=shape)
            workload = random_workload(shape, scale.n_queries, wl_rng)
            rows = run_methods(
                matrix, specs, [epsilon], [workload],
                n_trials=scale.n_trials, rng=run_rng, n_jobs=scale.n_jobs,
                extra={"d": d, "zipf_a": a},
            )
            result.rows.extend(
                aggregate_rows(rows, ("method", "epsilon", "d", "zipf_a"))
            )
    return result


# ----------------------------------------------------------------------
# Figures 6 and 7: 2-D city population histograms
# ----------------------------------------------------------------------
def _city_matrix(
    city_name: str, scale: ExperimentScale, rng: np.random.Generator
) -> FrequencyMatrix:
    city = get_city(city_name)
    return city.population_matrix(
        n_points=scale.n_points, resolution=scale.city_resolution, rng=rng
    )


def _city_workloads(
    shape: Sequence[int], scale: ExperimentScale, rng: np.random.Generator
) -> List[Workload]:
    wls = [random_workload(shape, scale.n_queries, rng, name="random")]
    for coverage in (0.01, 0.05, 0.10):
        wls.append(
            fixed_coverage_workload(
                shape, coverage, scale.n_queries, rng,
                name=f"{int(coverage * 100)}%",
            )
        )
    return wls


def figure6(
    scale: ExperimentScale = TINY_SCALE,
    cities: Sequence[str] = tuple(CITY_NAMES),
    epsilons: Sequence[float] = PAPER_EPSILONS,
    methods: Sequence[str] = FIG6_METHODS,
    rng: RNGLike = 2022,
) -> FigureResult:
    """2-D population histograms, all methods including baselines.

    One row per (city, workload, epsilon, method); the paper shows a 3x4
    panel grid (city x workload) with epsilon on the x-axis.
    """
    gen = ensure_rng(rng)
    specs = default_method_specs(list(methods))
    result = FigureResult(
        "figure6", "2-D city histograms, all methods (MRE %)"
    )
    for city_name in cities:
        data_rng, wl_rng, run_rng = spawn(gen, 3)
        matrix = _city_matrix(city_name, scale, data_rng)
        workloads = _city_workloads(matrix.shape, scale, wl_rng)
        rows = run_methods(
            matrix, specs, list(epsilons), workloads,
            n_trials=scale.n_trials, rng=run_rng, n_jobs=scale.n_jobs,
            extra={"city": city_name},
        )
        result.rows.extend(
            aggregate_rows(rows, ("method", "epsilon", "workload", "city"))
        )
    return result


def figure7(
    scale: ExperimentScale = TINY_SCALE,
    cities: Sequence[str] = tuple(CITY_NAMES),
    epsilons: Sequence[float] = PAPER_EPSILONS,
    methods: Sequence[str] = tuple(FIG7_METHODS),
    rng: RNGLike = 2022,
) -> FigureResult:
    """Figure 6 without the IDENTITY/MKM baselines (the paper's linear-
    scale close-up of the proposed methods)."""
    result = figure6(scale, cities, epsilons, methods, rng)
    result.figure_id = "figure7"
    result.description = "2-D city histograms, proposed methods only (MRE %)"
    return result


# ----------------------------------------------------------------------
# Figure 8: 4-D origin-destination matrices
# ----------------------------------------------------------------------
def figure8(
    scale: ExperimentScale = TINY_SCALE,
    cities: Sequence[str] = tuple(CITY_NAMES),
    epsilons: Sequence[float] = PAPER_EPSILONS,
    methods: Sequence[str] = tuple(FIG7_METHODS),
    n_stops: int = 0,
    rng: RNGLike = 2022,
) -> FigureResult:
    """OD matrices built from simulated trajectories (4-D when
    ``n_stops = 0``; add stops for 6-D and beyond)."""
    gen = ensure_rng(rng)
    specs = default_method_specs(list(methods))
    ndim = 2 * (n_stops + 2)
    result = FigureResult(
        "figure8", f"{ndim}-D OD matrices from simulated trajectories (MRE %)"
    )
    for city_name in cities:
        data_rng, wl_rng, run_rng = spawn(gen, 3)
        city = get_city(city_name)
        simulator = MovementSimulator(city)
        dataset = simulator.sample(scale.n_trajectories, n_stops, data_rng)
        builder = ODMatrixBuilder(
            city.grid, frames=None, cell_budget=scale.od_cell_budget
        )
        matrix = builder.build(dataset)
        workloads = _city_workloads(matrix.shape, scale, wl_rng)
        rows = run_methods(
            matrix, specs, list(epsilons), workloads,
            n_trials=scale.n_trials, rng=run_rng, n_jobs=scale.n_jobs,
            extra={"city": city_name, "od_shape": "x".join(map(str, matrix.shape))},
        )
        result.rows.extend(
            aggregate_rows(rows, ("method", "epsilon", "workload", "city"))
        )
    return result


# ----------------------------------------------------------------------
# Table 3: runtime
# ----------------------------------------------------------------------
def table3(
    scale: ExperimentScale = TINY_SCALE,
    cities: Sequence[str] = tuple(CITY_NAMES),
    epsilon: float = 0.1,
    methods: Sequence[str] = PAPER_METHODS,
    rng: RNGLike = 2022,
) -> FigureResult:
    """Sanitization wall-clock on the 2-D city histograms, eps = 0.1.

    The paper's headline: DAF methods are orders of magnitude faster than
    the grid methods because they adapt and avoid unnecessary splits.
    """
    gen = ensure_rng(rng)
    specs = default_method_specs(list(methods))
    result = FigureResult(
        "table3", f"Sanitization runtime (seconds), 2-D, eps={epsilon}"
    )
    for city_name in cities:
        data_rng, wl_rng, run_rng = spawn(gen, 3)
        matrix = _city_matrix(city_name, scale, data_rng)
        # A minimal workload: Table 3 measures sanitize time only.
        workload = random_workload(matrix.shape, 1, wl_rng)
        rows = run_methods(
            matrix, specs, [epsilon], [workload],
            n_trials=scale.n_trials, rng=run_rng, n_jobs=scale.n_jobs,
            extra={"city": city_name},
        )
        result.rows.extend(
            aggregate_rows(rows, ("method", "epsilon", "city"))
        )
    return result


#: Registry used by the reproduce-everything example and EXPERIMENTS.md.
ALL_ARTIFACTS = {
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "table3": table3,
}


def run_all(
    scale: ExperimentScale = TINY_SCALE, rng: RNGLike = 2022
) -> Dict[str, FigureResult]:
    """Run every artifact at the given scale (used by
    ``examples/reproduce_paper.py``)."""
    gen = ensure_rng(rng)
    out: Dict[str, FigureResult] = {}
    for name, fn in ALL_ARTIFACTS.items():
        child = spawn(gen, 1)[0]
        out[name] = fn(scale=scale, rng=child)
    return out
