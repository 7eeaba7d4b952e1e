import math

import pytest

from bellbench import (
    AngleConfig,
    ExperimentParams,
    OptimizationProblem,
    optimize,
)
from bellbench.optimize import MAX_GRID_POINTS, GridBudgetError, grid_points

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
