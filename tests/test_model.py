import math

import pytest
from hypothesis import given, strategies as st

from bellbench import (
    AngleConfig,
    CountTable,
    JointDistribution,
    MissingSettingError,
    Outcome,
    SettingsTable,
    empirical_distribution,
    expectation,
    label_sides,
    reduce_angle,
)

finite_angles = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e9, max_value=1e9)


class TestReduceAngle:
    def test_range(self):
        assert reduce_angle(0.0) == 0.0
        assert reduce_angle(180.0) == 0.0
        assert reduce_angle(190.0) == 10.0
        assert reduce_angle(-30.0) == 150.0

    @given(finite_angles)
    def test_in_half_open_interval(self, x):
        r = reduce_angle(x)
        assert 0.0 <= r < 180.0

    @given(finite_angles)
    def test_idempotent(self, x):
        r = reduce_angle(x)
        assert reduce_angle(r) == r

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            reduce_angle(float("nan"))
        with pytest.raises(ValueError):
            reduce_angle(float("inf"))


class TestAngleConfig:
    def test_normalizes_on_construction(self):
        c = AngleConfig(190.0, -30.0, 360.0, 60.0, 0.0)
        assert (c.a, c.b, c.a_prime, c.b_prime, c.r) == (10.0, 150.0, 0.0, 60.0, 0.0)

    def test_difference_is_signed_then_reduced(self):
        c = AngleConfig(60.0, 120.0, 0.0, 0.0, 0.0)
        assert c.difference("a", "b") == 120.0   # 60 - 120 = -60 -> 120
        assert c.difference("b", "a") == 60.0

    def test_canonical_differences(self):
        c = AngleConfig(60.0, 120.0, 0.0, 0.0, 0.0)
        assert c.canonical_differences() == (120.0, 120.0, 120.0, 0.0)

    def test_replace(self):
        c = AngleConfig(0, 0, 0, 0, 0).replace(b=45.0)
        assert c.b == 45.0 and c.a == 0.0

    def test_unknown_orientation(self):
        with pytest.raises(ValueError):
            AngleConfig(0, 0, 0, 0, 0).orientation("c")


class TestJointDistribution:
    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            JointDistribution(((0.5, 0, 0), (0, 0, 0), (0, 0, 0)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            JointDistribution(((1.5, -0.5, 0), (0, 0, 0), (0, 0, 0)))

    @pytest.mark.parametrize("table,message", [
        (((math.nan, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)), "probability out of range: nan"),
        (((math.inf, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)), "probability out of range: inf"),
        (((0.5, 0.5, 0.0), (-math.inf, 0.0, 0.0), (0.0, 0.0, 0.0)),
         "probability out of range: -inf"),
        (((0.5, 0.5, 1e-9), (0.0, 0.0, 0.0), (0.0, 0.0, -1e-9)), "probability out of range: -1e-09"),
        (((1.0 + 1e-9, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
         r"probability out of range: 1\.000000001"),
        (((0.5, 0.5 + 2e-9, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)), "probabilities sum to"),
        (((0.5, 0.5, 0.0), (0.0, 0.0, 0.0)), "3x3 table"),
    ])
    def test_rejects_each_malformed_table(self, table, message):
        with pytest.raises(ValueError, match=message):
            JointDistribution(table)

    def test_from_entries_and_marginals(self):
        P, M = Outcome.PLUS, Outcome.MINUS
        d = JointDistribution.from_entries({(P, P): 0.25, (P, M): 0.25,
                                            (M, P): 0.25, (M, M): 0.25})
        assert d.first_marginal(P) == 0.5
        assert d.second_marginal(M) == 0.5
        assert d.coincidence_sum() == 1.0
        assert expectation(d) == 0.0

    def test_from_coincidence_block_completes_none_channel(self):
        d = JointDistribution.from_coincidence_block(
            0.1, 0.1, 0.1, 0.1, single1=(0.3, 0.3), single2=(0.25, 0.25))
        P, N = Outcome.PLUS, Outcome.NONE
        assert d.prob(P, N) == pytest.approx(0.1)
        assert d.first_marginal(P) == pytest.approx(0.3)
        assert d.second_marginal(P) == pytest.approx(0.25)
        assert sum(d.flat()) == pytest.approx(1.0)

    def test_from_coincidence_block_rejects_inconsistent_marginals(self):
        with pytest.raises(ValueError, match="inconsistent"):
            JointDistribution.from_coincidence_block(
                0.3, 0.3, 0.1, 0.1, single1=(0.2, 0.2), single2=(0.4, 0.4))

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=9, max_size=9)
           .filter(lambda v: sum(v) > 1e-6))
    def test_expectation_bounded(self, raw):
        total = sum(raw)
        cells = [v / total for v in raw]
        d = JointDistribution(tuple(tuple(cells[i * 3:(i + 1) * 3]) for i in range(3)))
        assert -1.0 - 1e-12 <= expectation(d) <= 1.0 + 1e-12


class TestCountTable:
    def test_requires_integer_counts(self):
        with pytest.raises(ValueError):
            CountTable(((1.0, 0, 0), (0, 0, 0), (0, 0, 0)), 1)

    def test_requires_total_match(self):
        with pytest.raises(ValueError):
            CountTable(((1, 0, 0), (0, 0, 0), (0, 0, 0)), 2)

    @pytest.mark.parametrize("n", [((1, 0, 0), (0, 0, 0)), ((1, 0), (0, 0), (0, 0))])
    def test_requires_3x3(self, n):
        with pytest.raises(ValueError, match="3x3"):
            CountTable(n, 1)

    def test_empirical_distribution(self):
        c = CountTable(((1, 1, 0), (1, 1, 0), (0, 0, 0)), 4)
        d = empirical_distribution(c)
        assert d.prob(Outcome.PLUS, Outcome.PLUS) == 0.25
        assert math.isclose(sum(d.flat()), 1.0)


class TestLabelSides:
    def test_plain_pairs(self):
        assert label_sides(("a", "b")) == (1, 2)
        assert label_sides(("b_prime", "a")) == (2, 1)

    def test_reference_floats_to_free_side(self):
        assert label_sides(("a_prime", "r")) == (1, 2)
        assert label_sides(("r", "b_prime")) == (1, 2)
        assert label_sides(("r", "a")) == (2, 1)
        assert label_sides(("r", "r")) == (1, 2)

    def test_same_side_rejected(self):
        with pytest.raises(ValueError):
            label_sides(("a", "a_prime"))
        with pytest.raises(ValueError):
            label_sides(("a", "x"))


# Every ordered pair over the five orientations and one unknown name, row
# = first member, column = second: the sides, or which error is raised
# (SAME: both on one polarizer; UNKNOWN: the name x is not an orientation).
SAME, UNKNOWN = "same", "unknown"
_NAMES = ("a", "b", "a_prime", "b_prime", "r", "x")
_SIDES = {
    "a":       (SAME,    (1, 2),  SAME,    (1, 2),  (1, 2),  UNKNOWN),
    "b":       ((2, 1),  SAME,    (2, 1),  SAME,    (2, 1),  UNKNOWN),
    "a_prime": (SAME,    (1, 2),  SAME,    (1, 2),  (1, 2),  UNKNOWN),
    "b_prime": ((2, 1),  SAME,    (2, 1),  SAME,    (2, 1),  UNKNOWN),
    "r":       ((2, 1),  (1, 2),  (2, 1),  (1, 2),  (1, 2),  UNKNOWN),
    "x":       (UNKNOWN, UNKNOWN, UNKNOWN, UNKNOWN, UNKNOWN, UNKNOWN),
}


@pytest.mark.parametrize("label,expected", [
    ((n1, n2), want) for n1, row in _SIDES.items() for n2, want in zip(_NAMES, row)])
def test_label_sides_table(label, expected):
    if expected == SAME:
        with pytest.raises(ValueError) as exc:
            label_sides(label)
        assert str(exc.value) == f"setting {label!r} puts both orientations on one polarizer"
    elif expected == UNKNOWN:
        with pytest.raises(ValueError) as exc:
            label_sides(label)
        assert str(exc.value) == "unknown orientation 'x'"
    else:
        assert label_sides(label) == expected


def test_settings_table_missing_setting():
    with pytest.raises(MissingSettingError):
        SettingsTable({}).get(("a", "b"))
