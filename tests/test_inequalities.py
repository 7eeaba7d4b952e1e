import dataclasses
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from bellbench import (
    FUNCTIONALS,
    AngleConfig,
    EvaluationError,
    ExperimentParams,
    JointDistribution,
    SettingsTable,
    TheoremPoint,
    eval_ch,
    eval_fc,
    make_report,
    normalize_functional_id,
    settings_table,
    verify_theorem,
    z_value,
)
from bellbench import inequalities
from bellbench.inequalities import MAX_THEOREM_SAMPLES
from conftest import ALL_PAIRS, OPTIMAL_ANGLES

SQRT2 = math.sqrt(2.0)
BLOCK = inequalities._THEOREM_BLOCK
# The largest cap whose eightfold, the bound on every intermediate of Z, is finite.
LARGEST_CAP = sys.float_info.max / 8


def value(fid, table):
    return FUNCTIONALS[fid].evaluate(table).value


# --- report plumbing -------------------------------------------------------

class TestMakeReport:
    def test_ge_margin_sign(self):
        r = make_report("INEQ19", -1.5, -1.0, ">=")
        assert r.violated and r.margin == pytest.approx(0.5)

    def test_le_margin_sign(self):
        r = make_report("FC48", 0.35, 0.25, "<=")
        assert r.violated and r.margin == pytest.approx(0.10)

    def test_unknown_direction(self):
        with pytest.raises(ValueError, match="unknown direction '=='"):
            make_report("X", 0.0, 1.0, "==")

    def test_boundary_is_not_violation(self):
        assert not make_report("CHSH27", -2.0, -2.0, ">=").violated
        assert not make_report("FC48", 0.25, 0.25, "<=").violated

    @given(st.floats(-5, 5), st.floats(-5, 5), st.sampled_from([">=", "<="]))
    def test_violated_iff_past_bound(self, value, bound, direction):
        r = make_report("X", value, bound, direction)
        expected = value < bound if direction == ">=" else value > bound
        assert r.violated == expected
        assert r.violated == (r.margin > 0)

    def test_as_dict_includes_stderr_only_when_present(self):
        assert "stderr" not in make_report("X", 0, 1, ">=").as_dict()
        assert make_report("X", 0, 1, ">=", stderr=0.1).as_dict()["stderr"] == 0.1

    def test_violated_iff_past_bound_at_the_float_extremes(self):
        # Margins that overflow, underflow to subnormals, or are inf or nan.
        values = [-math.inf, -1e308, -5e-324, 0.0, 5e-324, 1e308, math.inf, math.nan]
        for value, bound in itertools.product(values, repeat=2):
            assert make_report("X", value, bound, ">=").violated == (value < bound)
            assert make_report("X", value, bound, "<=").violated == (value > bound)

    @pytest.mark.parametrize("stderr", [None, 0.1])
    def test_as_dict_is_asdict_without_a_none_stderr(self, stderr):
        r = make_report("X", -1.5, -1.0, ">=", stderr=stderr)
        expected = dataclasses.asdict(r)
        if stderr is None:
            del expected["stderr"]
        assert list(r.as_dict().items()) == list(expected.items())


# --- the algebraic theorem -------------------------------------------------

unit = st.floats(min_value=0.0, max_value=1.0)


class TestTheorem:
    def test_point_validation(self):
        with pytest.raises(ValueError):
            TheoremPoint(1.5, 0, 0, 0, 0, 0, 0, 0, U=1.0, V=1.0)

    def test_point_rejects_a_y_outside_its_side(self):
        with pytest.raises(ValueError, match=r"y value 1\.5 outside \[0, 1\.0\]"):
            TheoremPoint(0, 0, 0, 0, 0, 0, 0, 1.5, U=1.0, V=1.0)

    def test_integer_sides_are_scored_as_floats(self):
        # A side beyond 64 bits used to make an object array of caps, and
        # the form a casting error.
        big = 123456789012345678901234567890
        p = TheoremPoint(0, 0, 0, 0, 0, 0, 0, 0, U=big, V=1)
        assert (p.U, p.V) == (float(big), 1.0) and type(p.V) is float
        assert z_value(p) == float(big)
        assert verify_theorem(big, 1, samples=10) == verify_theorem(float(big), 1.0, samples=10)

    @given(unit, unit, unit, unit, unit, unit, unit, unit)
    @hyp_settings(max_examples=300)
    def test_z_nonnegative_on_unit_box(self, a, b, c, d, e, f, g, h):
        p = TheoremPoint(a, b, c, d, e, f, g, h, U=1.0, V=1.0)
        assert z_value(p) >= -1e-12

    @given(unit, unit, unit, unit, unit, unit, unit, unit,
           st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.1, max_value=10.0))
    @hyp_settings(max_examples=200)
    def test_z_nonnegative_on_scaled_box(self, a, b, c, d, e, f, g, h, U, V):
        p = TheoremPoint(a * U, b * U, c * U, d * U,
                         e * V, f * V, g * V, h * V, U=U, V=V)
        assert z_value(p) >= -1e-9 * max(1.0, U * V)

    def test_vertex_minimum_is_exactly_zero(self):
        report = verify_theorem(1.0, 1.0, samples=10_000, seed=1)
        assert report.min_vertex_value == 0.0
        assert report.min_sampled_value >= 0.0

    def test_vertex_minimum_is_exact_on_every_box(self):
        # Z_{U,V}(Ux, Vy) = UV·Z_{1,1}(x, y): the minimum is U·V times the
        # unit box's, 0.  Scoring the scaled vertices gave -2.2e-16 at
        # U = 1.3, V = 0.7 and -2^45 at U = 1.2345678901234568e+29.
        big = 123456789012345678901234567890
        boxes = [(1.3, 0.7), (big, 1), *np.random.default_rng(0).random((300, 2)).tolist()]
        for U, V in boxes:
            report = verify_theorem(U, V)
            assert report.min_vertex_value == 0.0
            sides = (float(U),) * 4 + (float(V),) * 4
            assert all(v in (0.0, side) for v, side in zip(report.argmin_vertex, sides))
        assert verify_theorem(1.0, 1.0).argmin_vertex == (0, 0, 0, 1, 1, 0, 0, 1)

    def test_failed_check_raises(self, monkeypatch):
        # The vertices are scored at import, so only the samples see the
        # broken form.
        monkeypatch.setattr(inequalities, "_z_array", lambda x, U, V: np.full(len(x), -1.0))
        assert verify_theorem(1.0, 1.0).min_vertex_value == 0.0
        with pytest.raises(EvaluationError, match=r"^theorem check failed: min Z = -1\.0$"):
            verify_theorem(1.0, 1.0, samples=10)

    def test_scaled_boxes(self):
        for U, V in ((0.5, 2.0), (3.0, 0.25), (0.0, 1.0)):
            report = verify_theorem(U, V, samples=1000, seed=2)
            assert report.min_vertex_value >= -1e-12 * max(1.0, U * V)

    def test_rejects_negative_caps(self):
        with pytest.raises(ValueError):
            verify_theorem(-1.0, 1.0)

    @pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_caps(self, cap):
        for U, V in ((cap, 1.0), (1.0, cap)):
            with pytest.raises(ValueError, match="finite"):
                verify_theorem(U, V)
            with pytest.raises(ValueError, match="finite"):
                TheoremPoint(0, 0, 0, 0, 0, 0, 0, 0, U=U, V=V)

    # U = 1e308 used to give min Z = nan and pass; U*V near 4.5e307 a
    # false failure at min Z = -inf.
    @pytest.mark.parametrize("U,V", [(1.0, 1e308), (1e308, 0.0), (4.5e153, 1e154),
                                     (LARGEST_CAP * (1 + 1e-15), 1.0)])
    def test_rejects_boxes_whose_form_overflows(self, U, V):
        for u, v in ((U, V), (V, U)):
            with pytest.raises(ValueError, match="finite"):
                verify_theorem(u, v)
            with pytest.raises(ValueError, match="finite"):
                TheoremPoint(0, 0, 0, 0, 0, 0, 0, 0, U=u, V=v)

    @pytest.mark.parametrize("U,V", [(LARGEST_CAP, 1.0), (LARGEST_CAP, 0.0),
                                     (math.sqrt(LARGEST_CAP), math.sqrt(LARGEST_CAP))])
    def test_largest_boxes_do_not_overflow(self, U, V):
        for u, v in ((U, V), (V, U)):
            with np.errstate(over="raise", invalid="raise"):
                report = verify_theorem(u, v, samples=1000, seed=5)
            assert math.isfinite(report.min_vertex_value)
            assert 0.0 <= report.min_sampled_value < math.inf

    @pytest.mark.parametrize("samples", [1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_blocked_minimum_keeps_the_sample_stream(self, samples):
        # The blocks hold the rows of one default_rng(seed).random((n, 8))
        # draw, scored here by the 19-term expansion written out.
        U, V, seed = 1.3, 0.7, 11
        x = np.random.default_rng(seed).random((samples, 8)) * [U, U, U, U, V, V, V, V]
        x1p, x1m, x2p, x2m, y1p, y1m, y2p, y2m = x.T
        z = (x1p * y1p + x1m * y1m - x1p * y1m - x1m * y1p
             + y2p * x1p + y2m * x1m - y2p * x1m - y2m * x1p
             + y1p * x2p + y1m * x2m - y1p * x2m - y1m * x2p
             - 2.0 * x2p * y2p - 2.0 * x2m * y2m
             + V * x2p + V * x2m + U * y2p + U * y2m + U * V)
        got = verify_theorem(U, V, samples=samples, seed=seed).min_sampled_value
        assert got == pytest.approx(z.min(), rel=1e-12)
        # _z_array adds the factored form's terms one statement at a time,
        # in this order, so it matches the form written as one expression exactly.
        dy1 = y1p - y1m
        factored = ((x1p - x1m) * (dy1 + y2p - y2m) + (x2p - x2m) * dy1
                    - 2.0 * (x2p * y2p + x2m * y2m)
                    + V * (x2p + x2m) + U * (y2p + y2m) + U * V)
        assert got == factored.min()
        np.testing.assert_array_equal(inequalities._z_array(x, U, V), factored)

    def test_memory_stays_flat(self):
        # A million samples are scored one block at a time (the samples
        # alone would take 61 MiB).
        tracemalloc.start()
        try:
            verify_theorem(1.0, 2.0, samples=10 ** 6, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_sample_budget(self, monkeypatch):
        # The boundary is checked on the count alone; no sample is drawn.
        with pytest.raises(ValueError, match="samples"):
            verify_theorem(1.0, 1.0, samples=MAX_THEOREM_SAMPLES + 1)
        with pytest.raises(ValueError, match="samples"):
            verify_theorem(1.0, 1.0, samples=-1)
        monkeypatch.setattr(inequalities, "MAX_THEOREM_SAMPLES", 3)
        assert verify_theorem(1.0, 1.0, samples=3).min_sampled_value >= 0.0
        with pytest.raises(ValueError, match="samples"):
            verify_theorem(1.0, 1.0, samples=4)


# --- functionals on settings tables ---------------------------------------

def uniform_table():
    u = JointDistribution(tuple((1 / 9.0,) * 3 for _ in range(3)))
    return SettingsTable({label: u for label in ALL_PAIRS})


def closure_tables(rng, n):
    """Random tables with every photon detected (empty NONE channel)."""
    out = []
    for _ in range(n):
        entries = {}
        for label in ALL_PAIRS:
            block = rng.random(4)
            block /= block.sum()
            pp, pm, mp, mm = block
            entries[label] = JointDistribution((
                (pp, pm, 0.0), (mp, mm, 0.0), (0.0, 0.0, 0.0)))
        out.append(SettingsTable(entries))
    return out


class TestFunctionalValues:
    def test_maximal_ideal_violation(self, optimal_ideal_table):
        assert value("INEQ19", optimal_ideal_table) == pytest.approx(-1.5, abs=1e-12)
        assert value("INEQ17", optimal_ideal_table) == pytest.approx(-1.5, abs=1e-12)
        assert value("CHSH27", optimal_ideal_table) == pytest.approx(-2.5, abs=1e-12)
        assert value("BELL65_28", optimal_ideal_table) == pytest.approx(-1.5, abs=1e-12)
        assert value("STRONG41", optimal_ideal_table) == pytest.approx(-1.5, abs=1e-12)
        assert value("STRONG46", optimal_ideal_table) == pytest.approx(-1.5, abs=1e-12)

    def test_chsh_optimum_angles(self):
        # differences (112.5, 112.5, 112.5, 22.5): three terms at cos 225
        # degrees and one at cos 45 degrees.
        cfg = AngleConfig(67.5, 135.0, 22.5, 0.0, 0.0)
        t = settings_table(cfg, ALL_PAIRS)
        assert value("CHSH27", t) == pytest.approx(-2.0 * SQRT2, abs=1e-12)

    def test_uniform_table_value(self):
        # Three correlation terms vanish; the remaining combination is
        # -2/9 - 2/9 + 4/3 = 8/9.
        r = FUNCTIONALS["INEQ17"].evaluate(uniform_table())
        assert r.value == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert not r.violated

    def test_forms_17_and_19_agree_everywhere(self):
        rng = np.random.default_rng(11)
        for t in closure_tables(rng, 200):
            assert value("INEQ17", t) == pytest.approx(
                value("INEQ19", t), abs=1e-12)

    def test_ineq19_is_chsh_plus_one_under_closure(self):
        rng = np.random.default_rng(12)
        for t in closure_tables(rng, 200):
            assert value("INEQ19", t) == pytest.approx(
                value("CHSH27", t) + 1.0, abs=1e-12)

    def test_strong_ratio_needs_reference_coincidences(self):
        entries = dict(uniform_table().entries)
        none_only = JointDistribution((
            (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)))
        entries[("r", "r")] = none_only
        with pytest.raises(EvaluationError):
            FUNCTIONALS["STRONG46"].evaluate(SettingsTable(entries))

    def test_strong_ratio_invariant_under_common_scaling(self):
        # Shrinking every coincidence rate by the same factor (more NONE)
        # leaves both ratio forms unchanged: the emission rate divides out.
        rng = np.random.default_rng(13)
        for t in closure_tables(rng, 20):
            entries = {}
            for label, d in t.entries.items():
                cell = [[0.25 * d.p[i][j] for j in range(2)] + [0.0] for i in range(2)]
                cell.append([0.0, 0.0, 0.0])
                cell[2][2] = 1.0 - sum(v for row in cell for v in row)
                entries[label] = JointDistribution(tuple(tuple(row) for row in cell))
            scaled = SettingsTable(entries)
            for fid in ("STRONG41", "STRONG46"):
                assert value(fid, scaled) == pytest.approx(value(fid, t), abs=1e-10)


class TestStrongRealApparatus:
    def test_value_is_one_minus_2p5_f(self):
        p = ExperimentParams(eta=0.9, phi_deg=30.0)
        t = settings_table(OPTIMAL_ANGLES, ALL_PAIRS, p)
        expected = 1.0 - 2.5 * p.f
        assert value("STRONG46", t) == pytest.approx(expected, abs=1e-12)
        assert value("STRONG41", t) == pytest.approx(expected, abs=1e-11)

    def test_perfect_contrast_recovers_ideal_violation(self):
        p = ExperimentParams(eta=0.9, phi_deg=30.0, f_override=1.0)
        t = settings_table(OPTIMAL_ANGLES, ALL_PAIRS, p)
        assert value("STRONG46", t) == pytest.approx(-1.5, abs=1e-12)


class TestOneChannelComparisons:
    def test_ch_at_perfect_contrast(self):
        p = ExperimentParams(eta=0.9, phi_deg=30.0, f_override=1.0)
        r = eval_ch(p)
        assert r.value == pytest.approx((SQRT2 - 1.0) / 2.0, abs=1e-12)
        assert r.violated

    def test_fc_value(self):
        p = ExperimentParams(eta=0.9, phi_deg=30.0)
        assert eval_fc(p).value == pytest.approx(p.f * SQRT2 / 4.0, abs=1e-12)

    @pytest.mark.parametrize("phi_setting", [math.nan, math.inf, -math.inf, 1e308])
    def test_ch_rejects_a_setting_out_of_range(self, phi_setting):
        # nan used to give value nan, reported as satisfied; inf and 1e308
        # a "math domain error" from the cosine of 6 * phi_setting degrees.
        with pytest.raises(ValueError, match="phi_setting"):
            eval_ch(ExperimentParams(eta=0.9, phi_deg=30.0), phi_setting)

    def test_ch_at_a_large_finite_setting(self):
        assert math.isfinite(eval_ch(ExperimentParams(eta=0.9, phi_deg=30.0), 1e306).value)

    def test_ch_independent_of_eta(self):
        # Every rate carries the same eta^2 factor, so the ratio cannot
        # depend on detector efficiency.
        a = eval_ch(ExperimentParams(eta=0.9, phi_deg=30.0)).value
        b = eval_ch(ExperimentParams(eta=0.2, phi_deg=30.0)).value
        assert a == pytest.approx(b, rel=1e-12)


class TestRegistry:
    def test_ids_match_keys(self):
        for fid, f in FUNCTIONALS.items():
            assert f.id == fid

    def test_evaluate_roundtrip(self, optimal_ideal_table):
        for f in FUNCTIONALS.values():
            r = f.evaluate(optimal_ideal_table)
            assert r.id == f.id
            assert r.bound == f.bound
            assert r.direction == f.direction

    @pytest.mark.parametrize("alias,expected", [
        ("chsh", "CHSH27"), ("CHSH27", "CHSH27"), ("bell65", "BELL65_28"),
        ("ineq19", "INEQ19"), ("strong46", "STRONG46"), ("ch47", "CH47"),
    ])
    def test_aliases(self, alias, expected):
        assert normalize_functional_id(alias) == expected

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            normalize_functional_id("nope")
