import importlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from bellbench import (
    FUNCTIONALS,
    AngleConfig,
    ExperimentParams,
    OptimizationProblem,
    optimize,
    quantum_cells,
    settings_table,
)
from bellbench.inequalities import TIED_ORIENTATIONS
from bellbench.optimize import MAX_GRID_POINTS, GridBudgetError, grid_points

# The module itself: the package exports its ``optimize`` function under
# the same name.
optimize_module = importlib.import_module("bellbench.optimize")

SQRT2 = math.sqrt(2.0)
ZERO = AngleConfig(0, 0, 0, 0, 0)


def spacing_matches(diffs, expected, tol):
    return all(abs(d - e) <= tol for d, e in zip(diffs, expected))


class TestProblemValidation:
    def test_unknown_angle(self):
        with pytest.raises(ValueError):
            OptimizationProblem("INEQ19", ("q",), ZERO)

    def test_needs_free_angles(self):
        with pytest.raises(ValueError):
            OptimizationProblem("INEQ19", (), ZERO)

    def test_repeated_free_angle(self):
        with pytest.raises(ValueError, match="repeat"):
            OptimizationProblem("CHSH27", ("a", "a"), ZERO)
        with pytest.raises(ValueError, match="repeat"):
            OptimizationProblem("CHSH27", ("a", "b", "a"), ZERO)

    def test_id_normalization(self):
        p = OptimizationProblem("chsh", ("a", "b"), ZERO)
        assert p.inequality == "CHSH27"

    def test_non_table_functional_rejected(self):
        with pytest.raises(ValueError):
            OptimizationProblem("CH47", ("a",), ZERO)

    def test_grid_step_must_divide_180(self):
        p = OptimizationProblem("INEQ19", ("a",), ZERO)
        with pytest.raises(ValueError):
            optimize(p, grid_step=7.0)
        with pytest.raises(ValueError):
            optimize(p, grid_step=0.0)
        with pytest.raises(ValueError):
            optimize(p, grid_step=5.0, refine_tolerance=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -0.01])
    def test_refine_tolerance_must_be_finite_and_positive(self, tol):
        p = OptimizationProblem("CHSH27", ("a", "b"), ZERO)
        with pytest.raises(ValueError, match="refine_tolerance"):
            optimize(p, grid_step=30.0, refine_tolerance=tol)

    def test_grid_budget_boundary(self):
        # 3162^2 points fit the budget and 3163^2 do not; only the larger
        # grid is handed to optimize, which rejects it before scoring.
        assert grid_points(2, 180.0 / 3162) == 3162 ** 2 <= MAX_GRID_POINTS
        assert grid_points(2, 180.0 / 3163) == 3163 ** 2 > MAX_GRID_POINTS
        assert grid_points(1, 180.0 / MAX_GRID_POINTS) == MAX_GRID_POINTS
        p = OptimizationProblem("CHSH27", ("a", "b"), ZERO)
        with pytest.raises(GridBudgetError):
            optimize(p, grid_step=180.0 / 3163)
        with pytest.raises(GridBudgetError):
            optimize(OptimizationProblem("CHSH27", ("a", "b", "a_prime"), ZERO),
                     grid_step=0.001)

    def test_grid_step_dividing_180_up_to_rounding(self):
        # 180 % 0.1 is not 0 in floating point, yet 180 / 0.1 is 1800 steps.
        r = optimize(OptimizationProblem("CHSH27", ("a",), ZERO), grid_step=0.1)
        assert r.best_margin >= 0.0


class TestRecovery:
    def test_symmetric_ratio_recovers_120_spacing(self):
        p = OptimizationProblem("STRONG46", ("a", "b", "a_prime"), ZERO)
        r = optimize(p, grid_step=5.0, refine_tolerance=0.01)
        assert spacing_matches(r.canonical_differences, (120, 120, 120, 0), 0.05)
        assert r.best_report.value == pytest.approx(-1.5, abs=1e-6)
        assert r.best_margin == pytest.approx(0.5, abs=1e-6)

    def test_chsh_recovers_quantum_optimum(self):
        p = OptimizationProblem("CHSH27", ("a", "b", "a_prime"), ZERO)
        r = optimize(p, grid_step=10.0, refine_tolerance=1e-4)
        assert r.best_report.value == pytest.approx(-2.0 * SQRT2, abs=1e-6)

    def test_three_orientation_form_recovers_120_spacing(self):
        p = OptimizationProblem("BELL65_28", ("a", "b", "a_prime"), ZERO)
        r = optimize(p, grid_step=5.0, refine_tolerance=0.01)
        assert r.best_report.value == pytest.approx(-1.5, abs=1e-6)
        assert spacing_matches(r.canonical_differences[:3], (120, 120, 120), 0.05)

    def test_main_inequality_unrestricted_optimum(self):
        # With all four differences free the expectation form reaches
        # 1 - 2*sqrt(2), deeper than the symmetric-geometry -1.5.
        p = OptimizationProblem("INEQ19", ("a", "b", "a_prime"), ZERO)
        r = optimize(p, grid_step=10.0, refine_tolerance=1e-4)
        assert r.best_report.value == pytest.approx(1.0 - 2.0 * SQRT2, abs=1e-6)

    def test_real_apparatus_shrinks_violation(self):
        params = ExperimentParams(eta=0.9, phi_deg=30.0)
        p = OptimizationProblem("STRONG46", ("a", "b"), ZERO, params)
        r = optimize(p, grid_step=5.0, refine_tolerance=0.01)
        assert r.best_report.value == pytest.approx(1.0 - 2.5 * params.f, abs=1e-6)


class TestSearchProperties:
    def test_result_never_below_any_grid_point(self):
        p = OptimizationProblem("CHSH27", ("a", "b"), ZERO)
        r = optimize(p, grid_step=30.0, refine_tolerance=1.0)
        for a in range(0, 180, 30):
            for b in range(0, 180, 30):
                from bellbench import FUNCTIONALS, settings_table
                f = FUNCTIONALS["CHSH27"]
                t = settings_table(ZERO.replace(a=a, b=b), f.required_pairs)
                assert r.best_margin >= f.evaluate(t).margin - 1e-12

    def test_common_offset_invariance(self):
        base1 = AngleConfig(0, 0, 30, 40, 0)
        base2 = AngleConfig(25, 25, 55, 65, 25)
        m1 = optimize(OptimizationProblem("INEQ19", ("a", "b"), base1),
                      grid_step=15.0, refine_tolerance=1e-7).best_margin
        m2 = optimize(OptimizationProblem("INEQ19", ("a", "b"), base2),
                      grid_step=15.0, refine_tolerance=1e-7).best_margin
        assert m1 == pytest.approx(m2, abs=1e-9)

    def test_deterministic(self):
        p = OptimizationProblem("STRONG46", ("a", "b"), ZERO)
        r1 = optimize(p, grid_step=15.0, refine_tolerance=0.1)
        r2 = optimize(p, grid_step=15.0, refine_tolerance=0.1)
        assert r1.best_config == r2.best_config
        assert r1.best_margin == r2.best_margin

    def test_fixed_angles_stay_fixed(self):
        base = AngleConfig(0, 0, 0, 0, 77.0)
        p = OptimizationProblem("CHSH27", ("a", "b"), base)
        r = optimize(p, grid_step=45.0, refine_tolerance=1.0)
        assert r.best_config.r == 77.0
        assert r.best_config.a_prime == 0.0


# Problems over every functional, ideal and real, with tied geometries
# (a tied orientation left free, a tie target free) and non-integer steps.
REAL = ExperimentParams(eta=0.8, phi_deg=35.0)
BASE = AngleConfig(10.0, 20.0, 30.0, 40.0, 50.0)
GRID_PROBLEMS = [
    ("INEQ17", ("a", "b_prime", "r"), BASE, REAL, 180.0 / 7),
    ("INEQ19", ("a", "b", "a_prime"), ZERO, None, 20.0),
    ("CHSH27", ("b", "a_prime", "b_prime"), ZERO, None, 30.0),
    ("CHSH27", ("a", "b"), BASE, REAL, 180.0 / 11),
    ("BELL65_28", ("a", "b_prime"), BASE, None, 180.0 / 7),
    ("BELL65_28", ("b", "a_prime", "b_prime"), ZERO, None, 22.5),
    ("STRONG41", ("a", "b", "r"), BASE, REAL, 30.0),
    ("STRONG41", ("a_prime", "b_prime"), ZERO, None, 180.0 / 13),
    ("STRONG46", ("a_prime", "b", "r"), BASE, REAL, 22.5),
    ("STRONG46", ("a", "b"), ZERO, None, 15.0),
]


def _grid_winner(problem, step):
    f = FUNCTIONALS[problem.inequality]
    order = optimize_module._FREE_ORDER
    free = [order.index(n) for n in sorted(problem.free_angles, key=order.index)]
    grid = np.arange(round(180.0 / step)) * step
    base = np.array([getattr(problem.base_config, n) for n in order])
    point, margin = optimize_module._grid_search(problem, f, free, grid, base)
    return tuple(point[free]), margin


def _brute_force_winner(problem, step):
    """Score every grid point on its own and keep the first best one."""
    f = FUNCTIONALS[problem.inequality]
    tied = TIED_ORIENTATIONS.get(problem.inequality, {})
    free = sorted(problem.free_angles, key=optimize_module._FREE_ORDER.index)
    grid = np.arange(round(180.0 / step)) * step
    best, best_margin = None, -math.inf
    for values in itertools.product(grid, repeat=len(free)):
        angles = {n: getattr(problem.base_config, n) % 180.0 for n in optimize_module._FREE_ORDER}
        angles.update(zip(free, values))
        angles.update({name: angles[target] for name, target in tied.items()})
        # One-element arrays: numpy's scalar paths can round differently.
        cells = [quantum_cells(np.array([(angles[n1] - angles[n2]) % 180.0]), problem.params)
                 for n1, n2 in f.required_pairs]
        margin = float(f.margins(cells)[0])
        if margin > best_margin:
            best, best_margin = tuple(values), margin
    return best, best_margin


def _moved(config, fid, name, step):
    """``config`` with one orientation turned by ``step``, then the tied
    orientations set along their targets again (a tied one stays put)."""
    config = config.replace(**{name: getattr(config, name) + step})
    tied = TIED_ORIENTATIONS.get(fid, {})
    return config.replace(**{n: getattr(config, target) for n, target in tied.items()})


class TestExactAscent:
    @pytest.mark.parametrize("eta", [0.5, 0.7, 0.9, 1.0])
    @pytest.mark.parametrize("phi", [63.0, 63.2])
    @pytest.mark.parametrize("tol", [0.01, 1e-9])
    def test_real_apparatus_criterion(self, eta, phi, tol):
        # The symmetric ratio form's optimum margin is 2.5 F - 2 at every
        # efficiency: a violation iff F > 4/5, that is phi below 63.11 deg.
        params = ExperimentParams(eta=eta, phi_deg=phi)
        p = OptimizationProblem("STRONG46", ("a", "b", "r"), BASE, params)
        r = optimize(p, grid_step=5.0, refine_tolerance=tol)
        assert r.best_margin == pytest.approx(2.5 * params.f - 2.0, abs=1e-12)
        assert (r.best_margin > 0.0) == (phi == 63.0)

    @pytest.mark.parametrize("fid,free,base,params,step", GRID_PROBLEMS)
    def test_grid_winner_is_the_brute_force_winner(self, fid, free, base, params, step):
        p = OptimizationProblem(fid, free, base, params)
        assert _grid_winner(p, step) == _brute_force_winner(p, step)

    @pytest.mark.parametrize("slab", [1, 5, 64])
    @pytest.mark.parametrize("fid,free,base,params,step", GRID_PROBLEMS[::3])
    def test_grid_winner_does_not_depend_on_the_slab_size(
            self, monkeypatch, slab, fid, free, base, params, step):
        p = OptimizationProblem(fid, free, base, params)
        expected = _grid_winner(p, step)
        monkeypatch.setattr(optimize_module, "_SLAB", slab)
        assert _grid_winner(p, step) == expected

    @pytest.mark.parametrize("fid,free,base,params,step", GRID_PROBLEMS)
    def test_no_single_angle_move_improves_the_result(self, fid, free, base, params, step):
        p = OptimizationProblem(fid, free, base, params)
        r = optimize(p, grid_step=step, refine_tolerance=1e-9)
        f = FUNCTIONALS[fid]
        for name in free:
            for step_deg in (1e-4, -1e-4):
                config = _moved(r.best_config, fid, name, step_deg)
                margin = f.evaluate(settings_table(config, f.required_pairs, params)).margin
                assert margin <= r.best_margin + 1e-12, (name, step_deg)

    @pytest.mark.parametrize("free,steps", [(("a",), 10 ** 6), (("a", "b"), 1000)])
    def test_memory_stays_flat_on_a_large_grid(self, free, steps):
        p = OptimizationProblem("CHSH27", free, BASE)
        tracemalloc.start()
        try:
            optimize(p, grid_step=180.0 / steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
