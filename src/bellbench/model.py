"""Core domain types: outcomes, angles, probability and count tables.

Everything here is an immutable value; all higher layers (quantum
predictions, hidden-variable models, inequality functionals, Monte Carlo)
are built on these types.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping

PROB_TOL = 1e-12


class EvaluationError(RuntimeError):
    """Raised when a computation cannot proceed (e.g. zero denominator)."""


class MissingSettingError(EvaluationError):
    """A functional referenced a polarizer-pair setting that is absent."""


class Outcome(Enum):
    """Detection outcome on one side: ordinary beam (+), extraordinary
    beam (-), or no count at all."""

    PLUS = "+"
    MINUS = "-"
    NONE = "0"


OUTCOMES = (Outcome.PLUS, Outcome.MINUS, Outcome.NONE)
_IDX = {o: i for i, o in enumerate(OUTCOMES)}


def reduce_angle(delta_deg: float) -> float:
    """Reduce an orientation or orientation difference to [0, 180).

    Polarization correlations depend only on cos 2*delta, so orientations
    have period 180 degrees.
    """
    if not math.isfinite(delta_deg):
        raise ValueError(f"angle must be finite, got {delta_deg!r}")
    r = float(delta_deg) % 180.0
    # A tiny negative input can round the modulus up to exactly 180.
    return 0.0 if r == 180.0 else r


@dataclass(frozen=True)
class AngleConfig:
    """The five polarizer orientations, in degrees, normalized to [0, 180).

    ``a`` and ``a_prime`` belong to the first polarizer, ``b`` and
    ``b_prime`` to the second; ``r`` is the reference direction used by
    the strong (ratio) inequalities and may be set on either side.
    """

    a: float
    b: float
    a_prime: float
    b_prime: float
    r: float

    def __post_init__(self) -> None:
        for name in ORIENTATIONS:
            object.__setattr__(self, name, reduce_angle(getattr(self, name)))

    def orientation(self, name: str) -> float:
        if name not in ORIENTATIONS:
            raise ValueError(f"unknown orientation {name!r}")
        return getattr(self, name)

    def difference(self, first: str, second: str) -> float:
        """Signed difference first - second, reduced to [0, 180)."""
        return reduce_angle(self.orientation(first) - self.orientation(second))

    def canonical_differences(self) -> tuple[float, float, float, float]:
        """The tuple (a-b, b'-a, b-a', a'-b') mod 180.

        This fixes the global-rotation symmetry: only orientation
        differences enter any correlation.
        """
        return (
            self.difference("a", "b"),
            self.difference("b_prime", "a"),
            self.difference("b", "a_prime"),
            self.difference("a_prime", "b_prime"),
        )

    replace = dataclasses.replace


# The experiment's geometry, read by every layer that names orientations:
# the orientations in AngleConfig's field order, and each one's polarizer.
# ``r`` is 0: it floats, taking whichever side the other member of a pair
# leaves free.
ORIENTATIONS: tuple[str, ...] = tuple(f.name for f in dataclasses.fields(AngleConfig))
SIDES: dict[str, int] = dict(zip(ORIENTATIONS, (1, 2, 1, 2, 0)))


@dataclass(frozen=True)
class JointDistribution:
    """Probability table over the 9 outcome pairs for one pair setting.

    ``p`` is a 3x3 nested tuple indexed by (first outcome, second outcome)
    in the order (PLUS, MINUS, NONE).  Single-side detection probabilities
    are the marginals: the NONE channel is explicit, so row/column sums
    over a PLUS (or MINUS) outcome give exactly the measured singles rate.
    """

    p: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if list(map(len, self.p)) != [3, 3, 3]:
            raise ValueError("joint distribution must be a 3x3 table")
        total = 0.0
        for row in self.p:
            for v in row:
                if not -PROB_TOL <= v <= 1.0 + PROB_TOL:  # NaN and ±inf fail too
                    raise ValueError(f"probability out of range: {v!r}")
                total += v
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    @classmethod
    def from_entries(cls, entries: Mapping[tuple[Outcome, Outcome], float]) -> "JointDistribution":
        """Build from a sparse mapping; missing entries are zero."""
        table = [[0.0, 0.0, 0.0] for _ in range(3)]
        for (o1, o2), v in entries.items():
            table[_IDX[o1]][_IDX[o2]] = float(v)
        return cls(tuple(tuple(row) for row in table))

    @classmethod
    def from_coincidence_block(
        cls, pp: float, pm: float, mp: float, mm: float,
        single1: tuple[float, float], single2: tuple[float, float],
    ) -> "JointDistribution":
        """Complete a 2x2 coincidence block to a full 9-entry table.

        The NONE entries are fixed by marginal consistency with the given
        singles; the NONE/NONE entry absorbs the remainder to 1.  Rejects
        parameter combinations whose completion would be negative.
        """
        s1p, s1m = single1
        s2p, s2m = single2
        p_0 = s1p - pp - pm      # p(+, none)
        m_0 = s1m - mp - mm
        z_p = s2p - pp - mp      # p(none, +)
        z_m = s2m - pm - mm
        zz = 1.0 - (pp + pm + mp + mm + p_0 + m_0 + z_p + z_m)
        for v in (p_0, m_0, z_p, z_m, zz):
            if v < -PROB_TOL:
                raise ValueError("inconsistent marginals")
        clip = lambda v: min(max(v, 0.0), 1.0)
        return cls((
            (pp, pm, clip(p_0)),
            (mp, mm, clip(m_0)),
            (clip(z_p), clip(z_m), clip(zz)),
        ))

    def prob(self, o1: Outcome, o2: Outcome) -> float:
        return self.p[_IDX[o1]][_IDX[o2]]

    def first_marginal(self, o1: Outcome) -> float:
        return sum(self.p[_IDX[o1]])

    def second_marginal(self, o2: Outcome) -> float:
        j = _IDX[o2]
        return sum(row[j] for row in self.p)

    def coincidence_sum(self) -> float:
        """Sum of the four detected/detected entries."""
        return (self.prob(Outcome.PLUS, Outcome.PLUS)
                + self.prob(Outcome.PLUS, Outcome.MINUS)
                + self.prob(Outcome.MINUS, Outcome.PLUS)
                + self.prob(Outcome.MINUS, Outcome.MINUS))

    def flat(self) -> tuple[float, ...]:
        return tuple(v for row in self.p for v in row)


def expectation(d: JointDistribution) -> float:
    """E = p(+,+) - p(+,-) - p(-,+) + p(-,-); NONE contributes zero."""
    P, M = Outcome.PLUS, Outcome.MINUS
    return d.prob(P, P) - d.prob(P, M) - d.prob(M, P) + d.prob(M, M)


@dataclass(frozen=True)
class CountTable:
    """Integer coincidence/single counts from one setting of a run."""

    n: tuple[tuple[int, int, int], ...]
    total_pairs: int

    def __post_init__(self) -> None:
        if len(self.n) != 3 or any(len(row) != 3 for row in self.n):
            raise ValueError("count table must be 3x3")
        for row in self.n:
            for v in row:
                if not isinstance(v, int) or v < 0:
                    raise ValueError(f"counts must be non-negative integers, got {v!r}")
        if sum(v for row in self.n for v in row) != self.total_pairs:
            raise ValueError("counts do not sum to total_pairs")
        try:
            float(self.total_pairs)  # as the error bars read it
        except OverflowError:
            raise ValueError("count total is beyond the float range") from None

    def count(self, o1: Outcome, o2: Outcome) -> int:
        return self.n[_IDX[o1]][_IDX[o2]]

    def flat(self) -> tuple[int, ...]:
        return tuple(v for row in self.n for v in row)


def empirical_distribution(c: CountTable) -> JointDistribution:
    """Counts divided by the number of emitted pairs."""
    if c.total_pairs < 1:
        raise EvaluationError("empty run")
    N = c.total_pairs
    return JointDistribution(tuple(tuple(v / N for v in row) for row in c.n))


SettingLabel = tuple[str, str]


def label_sides(label: SettingLabel) -> tuple[int, int]:
    """Map a labeled pair to the polarizer side (1 or 2) of each member."""
    try:
        s1, s2 = (SIDES[name] for name in label)
    except KeyError as exc:
        raise ValueError(f"unknown orientation {exc.args[0]!r}") from None
    # A floating r takes the side the other member leaves free; (r, r) is (1, 2).
    s1 = s1 or 3 - (s2 or 2)
    s2 = s2 or 3 - s1
    if s1 == s2:
        raise ValueError(f"setting {label!r} puts both orientations on one polarizer")
    return (s1, s2)


@dataclass(frozen=True)
class SettingsTable:
    """Map from labeled setting pairs to their joint distributions."""

    entries: Mapping[SettingLabel, JointDistribution] = field(default_factory=dict)

    def get(self, label: SettingLabel) -> JointDistribution:
        try:
            return self.entries[label]
        except KeyError:
            raise MissingSettingError(f"missing setting {label!r}") from None

    def __contains__(self, label: SettingLabel) -> bool:
        return label in self.entries

    def __iter__(self) -> Iterator[SettingLabel]:
        return iter(self.entries)
