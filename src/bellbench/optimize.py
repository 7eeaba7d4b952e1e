"""Grid-then-refine search over polarizer orientations.

The objective is the violation margin of a chosen inequality under the
quantum prediction (ideal or real apparatus).  A coarse exhaustive grid
over the free angles is followed by a derivative-free coordinate search
with step halving; both stages are fully deterministic, with grid ties
broken by the first (lexicographically smallest) angle tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .inequalities import (
    FUNCTIONALS,
    TIED_ORIENTATIONS,
    Functional,
    InequalityReport,
    normalize_functional_id,
)
from .model import AngleConfig
from .qm import ExperimentParams, quantum_cells, settings_table

_FREE_ORDER = ("a", "b", "a_prime", "b_prime", "r")


@dataclass(frozen=True)
class OptimizationProblem:
    """Which inequality to drive past its bound, and over which angles."""

    inequality: str
    free_angles: tuple[str, ...]
    base_config: AngleConfig
    params: Optional[ExperimentParams] = None  # None selects the ideal source

    def __post_init__(self) -> None:
        object.__setattr__(self, "inequality", normalize_functional_id(self.inequality))
        if not self.free_angles:
            raise ValueError("at least one free angle is required")
        for name in self.free_angles:
            if name not in _FREE_ORDER:
                raise ValueError(f"unknown angle {name!r}")
        if len(set(self.free_angles)) != len(self.free_angles):
            raise ValueError(f"free angles repeat a name: {','.join(self.free_angles)}")
        if self.inequality not in FUNCTIONALS:
            raise ValueError(f"inequality {self.inequality!r} is not optimizable over angles")


@dataclass(frozen=True)
class OptimizationResult:
    best_config: AngleConfig
    best_report: InequalityReport
    best_margin: float
    canonical_differences: tuple[float, float, float, float]


# The coarse grid is scored in blocks of this many points, which keeps
# memory flat however many points the grid has.  Larger blocks are no
# faster: a block's arrays already dwarf the per-block call overhead.
_BLOCK = 1024

# The largest coarse grid optimize will score: several seconds at the
# roughly 10^6 points per second the block scorer reaches on one core.
MAX_GRID_POINTS = 10 ** 7


class GridBudgetError(ValueError):
    """The coarse grid has more than MAX_GRID_POINTS points."""


def grid_points(n_free: int, grid_step: float) -> int:
    """Number of coarse-grid points over ``n_free`` angles at ``grid_step``.

    ``grid_step`` must divide 180 into a whole number of steps, up to
    1e-9 in that number.
    """
    steps = 180.0 / grid_step if grid_step > 0 else math.nan
    if not (math.isfinite(steps) and steps >= 1.0 and abs(steps - round(steps)) <= 1e-9):
        raise ValueError("grid_step must be positive and divide 180")
    return round(steps) ** n_free


def _constrain(problem: OptimizationProblem, config: AngleConfig) -> AngleConfig:
    # Two functionals are only meaningful on a reduced geometry, and the
    # search space is pinned accordingly (see TIED_ORIENTATIONS).
    tied = TIED_ORIENTATIONS.get(problem.inequality, {})
    return config.replace(**{name: getattr(config, target) for name, target in tied.items()})


def _reduce(angles: np.ndarray) -> np.ndarray:
    """reduce_angle over an array: a tiny negative can round up to 180."""
    r = np.mod(angles, 180.0)
    r[r == 180.0] = 0.0
    return r


def _margins(problem: OptimizationProblem, f: Functional, angles: np.ndarray) -> np.ndarray:
    """Margins at rows of the five orientations (a, b, a', b', r)."""
    angles = _reduce(angles)
    for name, target in TIED_ORIENTATIONS.get(problem.inequality, {}).items():
        angles[:, _FREE_ORDER.index(name)] = angles[:, _FREE_ORDER.index(target)]
    first = [_FREE_ORDER.index(n1) for n1, _ in f.required_pairs]
    second = [_FREE_ORDER.index(n2) for _, n2 in f.required_pairs]
    delta = _reduce(angles[:, first] - angles[:, second])
    return f.margins(quantum_cells(delta, problem.params))


def optimize(
    problem: OptimizationProblem,
    grid_step: float = 5.0,
    refine_tolerance: float = 0.01,
) -> OptimizationResult:
    """Exhaustive coarse grid, then coordinate descent with step halving.

    ``grid_step`` must be valid for ``grid_points``, and the grid may have
    at most MAX_GRID_POINTS points (``GridBudgetError`` otherwise).  Grid
    ties go to the first point in product order.  Refinement accepts only
    strict improvements, so it never returns a worse margin than its
    starting grid point, and ties stay at the grid winner.
    """
    free = [_FREE_ORDER.index(name) for name in sorted(problem.free_angles, key=_FREE_ORDER.index)]
    n_points = grid_points(len(free), grid_step)
    if n_points > MAX_GRID_POINTS:
        raise GridBudgetError(
            f"grid of {n_points} points exceeds the budget of {MAX_GRID_POINTS}; "
            "use a larger grid_step or fewer free angles")
    if refine_tolerance <= 0:
        raise ValueError("refine_tolerance must be positive")
    f = FUNCTIONALS[problem.inequality]
    grid = np.arange(round(180.0 / grid_step)) * grid_step
    base = np.array([getattr(problem.base_config, name) for name in _FREE_ORDER])

    best_index, best_margin = 0, -math.inf
    for start in range(0, n_points, _BLOCK):
        index = np.arange(start, min(start + _BLOCK, n_points))
        angles = np.tile(base, (len(index), 1))
        angles[:, free] = grid[np.stack(np.unravel_index(index, (len(grid),) * len(free)), axis=1)]
        margins = _margins(problem, f, angles)
        k = int(np.argmax(margins))
        if margins[k] > best_margin:
            best_index, best_margin = start + k, float(margins[k])

    current = base.copy()
    current[free] = grid[list(np.unravel_index(best_index, (len(grid),) * len(free)))]
    step = grid_step / 2.0
    while step >= refine_tolerance:
        improved = False
        for column in free:
            while True:
                trials = np.tile(current, (2, 1))
                trials[:, column] = np.mod(current[column] + np.array([step, -step]), 180.0)
                margins = _margins(problem, f, trials)
                moved = next((k for k in (0, 1) if margins[k] > best_margin), None)
                if moved is None:
                    break
                best_margin = float(margins[moved])
                current = trials[moved]
                improved = True
        if not improved:
            step /= 2.0

    best_config = _constrain(problem, AngleConfig(*current))
    report = f.evaluate(settings_table(best_config, f.required_pairs, problem.params))
    return OptimizationResult(
        best_config, report, report.margin, best_config.canonical_differences())
