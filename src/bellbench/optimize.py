"""Grid-then-ascent search over polarizer orientations.

The objective is the violation margin of a chosen inequality under the
quantum prediction (ideal or real apparatus).  Both stages read the
functional's coefficient rows and ``qm.quantum_cells``, and both are
fully deterministic:

- An exhaustive coarse grid over the free angles.  A setting's cells
  depend only on the difference of its two orientations, so they are
  computed once per distinct pair of orientation values and the margins
  are summed by broadcasting, slab by slab in product order.  Ties go to
  the first (lexicographically smallest) angle tuple.
- Exact coordinate ascent from the grid winner.  Under both sources a
  setting's term is affine in cos 2δ and a ratio's denominator is the
  angle-free (r, r) term, so the margin is const + Σ c·cos 2(θx − θy)
  over the settings.  With the other orientations fixed, the best θx is
  then closed form: half the argument of a sum of complex exponentials.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .inequalities import (
    FUNCTIONALS,
    GE,
    TIED_ORIENTATIONS,
    Functional,
    InequalityReport,
    normalize_functional_id,
)
from .model import ORIENTATIONS as _FREE_ORDER, AngleConfig, reduce_angle
from .qm import ExperimentParams, quantum_cells, settings_table


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

    @property
    def canonical_differences(self) -> tuple[float, float, float, float]:
        return self.best_config.canonical_differences()


# The coarse grid is scored in slabs of at most this many points, which
# keeps memory flat however many points the grid has: no array holds
# more than one slab's cells of one setting.
_SLAB = 1 << 16

# The largest coarse grid optimize will score: a few seconds at most, at
# the 3 * 10^6 or more points per second the slab scorer reaches on one
# core (the fewest with one free angle).
MAX_GRID_POINTS = 10 ** 7

# Coordinate ascent stops after this many sweeps even if an angle still
# moves by the refine tolerance; solves converge in a few dozen at most.
MAX_SWEEPS = 1000


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


def _tie_slots(f: Functional) -> tuple[list[int], list[tuple[int, int]]]:
    """The tie slot map: each orientation's slot, the index into _FREE_ORDER
    of the orientation whose value it takes (its target's in a reduced
    geometry, see TIED_ORIENTATIONS, else its own), and each setting's slots."""
    tied = TIED_ORIENTATIONS.get(f.id, {})
    slot = {name: _FREE_ORDER.index(tied.get(name, name)) for name in _FREE_ORDER}
    return list(slot.values()), [(slot[n1], slot[n2]) for n1, n2 in f.required_pairs]


def _reduce(angles: np.ndarray) -> np.ndarray:
    """reduce_angle over an array: a tiny negative can round up to 180."""
    r = np.mod(angles, 180.0)
    r[r == 180.0] = 0.0
    return r


def _grid_search(problem: OptimizationProblem, f: Functional, free: list[int],
                 grid: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, float]:
    """The first grid point of largest margin in product order, as five
    orientations, and its margin.

    Free axes after ``lead`` are scored whole in every slab, axis ``lead``
    a chunk at a time, and the axes before it are fixed per slab.
    """
    k, n = len(free), len(grid)
    lead = next(i for i in range(k) if n ** (k - 1 - i) <= _SLAB)
    chunk = min(n, _SLAB // n ** (k - 1 - lead))
    _, slots = _tie_slots(f)
    fixed = _reduce(base)
    best_index, best_margin = (0,) * k, -math.inf
    for prefix in itertools.product(range(n), repeat=lead):
        for start in range(0, n, chunk):
            shape = (min(chunk, n - start),) + (n,) * (k - 1 - lead)
            theta = list(fixed)
            for axis, column in enumerate(free):
                if axis < lead:
                    theta[column] = grid[prefix[axis]]
                else:
                    values = grid[start:start + chunk] if axis == lead else grid
                    theta[column] = values.reshape((-1,) + (1,) * (k - 1 - axis))
            # At least 1-d: numpy's scalar paths can round differently.
            cells = [quantum_cells(_reduce(np.atleast_1d(theta[s1] - theta[s2])), problem.params)
                     for s1, s2 in slots]
            margins = np.broadcast_to(f.margins(cells), shape)
            i = int(np.argmax(margins))
            if margins.flat[i] > best_margin:
                best_margin = float(margins.flat[i])
                inner = np.unravel_index(i, shape)
                best_index = (*prefix, start + inner[0], *inner[1:])
    point = base.copy()
    point[free] = grid[list(best_index)]
    return point, best_margin


def _cosine_terms(problem: OptimizationProblem,
                  f: Functional) -> list[tuple[int, int, float]]:
    """The margin as const + sum of c * cos 2(theta[s1] - theta[s2]) over
    (s1, s2, c), for the settings that join two different slots.

    A setting's term is read at delta = 0 and 45 degrees, where cos 2 delta
    is 1 and 0, and checked to be affine at 30 degrees.  A ratio's
    denominator must be angle-free; with no reference coincidences every
    margin is -inf and there is nothing to climb.
    """
    _, slots = _tie_slots(f)
    cells = quantum_cells(np.array([0.0, 45.0, 30.0]), problem.params)
    terms = cells @ f.numer.T
    slope = terms[0] - terms[1]
    assert np.abs(terms[2] - terms[1] - slope / 2.0).max() <= 1e-12
    scale = -1.0 if f.direction == GE else 1.0
    if f.denom is not None:
        assert all(s1 == s2 for (s1, s2), row in zip(slots, f.denom) if row.any())
        denom = float(f.denom.sum(axis=0) @ cells[0])
        if not denom > 0.0:
            return []
        scale /= denom
    return [(s1, s2, scale * c) for (s1, s2), c in zip(slots, slope) if s1 != s2 and c != 0.0]


def optimize(
    problem: OptimizationProblem,
    grid_step: float = 5.0,
    refine_tolerance: float = 0.01,
) -> OptimizationResult:
    """Exhaustive coarse grid, then exact coordinate ascent.

    A free orientation in TIED_ORIENTATIONS takes its target's value and gets no
    grid axis.  ``grid_step`` must be valid for ``grid_points``, and the grid
    may have at most MAX_GRID_POINTS points (``GridBudgetError`` otherwise).
    Grid ties go to the first point in product order.  Each ascent step sets one
    free angle to its best value with the others fixed, sweeping the free angles
    in order; the ascent stops after the first sweep that moves no angle by
    ``refine_tolerance`` degrees or more (which must be finite and positive), or
    after MAX_SWEEPS sweeps.  The final point is kept only if it scores above
    the grid winner, so the result is never worse than any grid point, and ties
    stay at the grid winner.
    """
    f = FUNCTIONALS[problem.inequality]
    free = [i for i, name in enumerate(_FREE_ORDER)
            if name in problem.free_angles and name not in TIED_ORIENTATIONS.get(f.id, {})]
    n_points = grid_points(len(free), grid_step)
    if n_points > MAX_GRID_POINTS:
        raise GridBudgetError(
            f"grid of {n_points} points exceeds the budget of {MAX_GRID_POINTS}; "
            "use a larger grid_step or fewer free angles")
    if not (math.isfinite(refine_tolerance) and refine_tolerance > 0):
        raise ValueError(f"refine_tolerance must be finite and positive, got {refine_tolerance!r}")
    grid = np.arange(round(180.0 / grid_step)) * grid_step
    base = np.array([getattr(problem.base_config, name) for name in _FREE_ORDER])
    start, grid_margin = _grid_search(problem, f, free, grid, base) if free else (base, -math.inf)

    terms = _cosine_terms(problem, f)
    partners = {column: [(s2, c) for s1, s2, c in terms if s1 == column]
                + [(s1, c) for s1, s2, c in terms if s2 == column] for column in free}
    current = start.copy()
    for _ in range(MAX_SWEEPS):
        moved = 0.0
        for column in free:
            b = sum(c * cmath.exp(-2j * math.radians(current[other]))
                    for other, c in partners[column])
            if b == 0:
                continue
            theta = reduce_angle(math.degrees(-cmath.phase(b)) / 2.0)
            step = abs(theta - current[column])
            moved = max(moved, min(step, 180.0 - step))
            current[column] = theta
        if moved < refine_tolerance:
            break

    slot, _ = _tie_slots(f)

    def scored(point: np.ndarray) -> tuple[AngleConfig, InequalityReport]:
        config = AngleConfig(*point[slot])
        return config, f.evaluate(settings_table(config, f.required_pairs, problem.params))

    best_config, report = scored(current)
    if report.margin <= grid_margin:  # no gain, or a rounding loss: keep the grid winner
        best_config, report = scored(start)
    return OptimizationResult(best_config, report, report.margin)
