"""Local-hidden-variable models and exhaustive local-bound computation.

A hidden state is represented by a :class:`ResponseFunction`: per side and
per local orientation, a pair of conditional detection probabilities.
Locality is structural; a side's response has no slot for the other
side's orientation.  Ensembles are finite weighted mixtures, and local
bounds are computed by scoring every deterministic strategy, the extreme
points of the response box, against a functional's coefficient rows.
The ensemble probabilities are multilinear in the individual response
probabilities, so the bound over deterministic strategies is the bound
over all mixtures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .inequalities import FUNCTIONALS, GE, TIED_ORIENTATIONS, Functional
from .model import (
    EvaluationError,
    JointDistribution,
    Outcome,
    SettingLabel,
    SettingsTable,
    label_sides,
)

EQ_TOL = 1e-12


@dataclass(frozen=True)
class ResponseFunction:
    """Per-side, per-orientation conditional detection probabilities.

    Each slot maps an orientation label to (q+, q-) with q+ + q- <= 1;
    the remainder is the probability of no detection.
    """

    side1: Mapping[str, tuple[float, float]]
    side2: Mapping[str, tuple[float, float]]

    def __post_init__(self) -> None:
        for side in (self.side1, self.side2):
            for name, (qp, qm) in side.items():
                if not (0.0 <= qp <= 1.0 and 0.0 <= qm <= 1.0):
                    raise ValueError(f"response probability out of [0,1] at {name!r}")
                if qp + qm > 1.0 + EQ_TOL:
                    raise ValueError(f"q+ + q- > 1 at {name!r}")

    @classmethod
    def deterministic(
        cls,
        side1_outcomes: Mapping[str, Outcome],
        side2_outcomes: Mapping[str, Outcome],
    ) -> "ResponseFunction":
        """Extreme-point strategy: every response probability is 0 or 1."""
        def q(o: Outcome) -> tuple[float, float]:
            return (1.0, 0.0) if o is Outcome.PLUS else (0.0, 1.0) if o is Outcome.MINUS else (0.0, 0.0)
        return cls(
            {n: q(o) for n, o in side1_outcomes.items()},
            {n: q(o) for n, o in side2_outcomes.items()},
        )

    def slots(self, side: int) -> Mapping[str, tuple[float, float]]:
        return self.side1 if side == 1 else self.side2

    def response(self, side: int, orientation: str) -> tuple[float, float, float]:
        """(q+, q-, q_none) at a given slot; missing slots fail loudly."""
        side_map = self.slots(side)
        if orientation not in side_map:
            raise EvaluationError(
                f"response function has no slot for orientation {orientation!r} on side {side}")
        qp, qm = side_map[orientation]
        return (qp, qm, max(0.0, 1.0 - qp - qm))

    def detection_total(self, side: int, orientation: str) -> float:
        qp, qm, _ = self.response(side, orientation)
        return qp + qm


def check_supplementary(rf: ResponseFunction, tol: float = EQ_TOL) -> bool:
    """Each channel's detection probability at any setting is bounded by
    the total detection probability at the reference setting r, side by
    side."""
    for side in (1, 2):
        t_r = rf.detection_total(side, "r")
        for name, (qp, qm) in rf.slots(side).items():
            if name == "r":
                continue
            if qp > t_r + tol or qm > t_r + tol:
                return False
    return True


def check_gr(rf: ResponseFunction, tol: float = EQ_TOL) -> bool:
    """Stronger equality variant: total detection probability is the same
    at every orientation of a side."""
    for side in (1, 2):
        t_r = rf.detection_total(side, "r")
        for name in rf.slots(side):
            if abs(rf.detection_total(side, name) - t_r) > tol:
                return False
    return True


@dataclass(frozen=True)
class LhvModel:
    """Weighted mixture of response functions (the hidden-state ensemble)."""

    strategies: tuple[ResponseFunction, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.strategies) != len(self.weights):
            raise ValueError("strategies and weights differ in length")
        if not self.strategies:
            raise ValueError("model needs at least one strategy")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > EQ_TOL:
            raise ValueError("weights must sum to 1")


def ensemble_table(model: LhvModel, pairs: Iterable[SettingLabel]) -> SettingsTable:
    """Joint tables from the mixture: weighted products of per-side responses.

    The orientation labels alone identify the responses; the physical
    angles never enter a hidden-variable prediction.
    """
    entries = {}
    for label in pairs:
        n1, n2 = label
        s1, s2 = label_sides(label)
        table = np.zeros((3, 3))
        for rf, w in zip(model.strategies, model.weights):
            q1 = np.array(rf.response(s1, n1))
            q2 = np.array(rf.response(s2, n2))
            table += w * np.outer(q1, q2)
        entries[label] = JointDistribution(tuple(tuple(float(v) for v in row) for row in table))
    return SettingsTable(entries)


# ---------------------------------------------------------------------------
# Exhaustive bounds over deterministic strategies.

CONSTRAINTS = ("none", "supplementary", "gr")

_SIDE_OF = {"a": 1, "a_prime": 1, "b": 2, "b_prime": 2}
_SYMBOLS = "+-0"  # outcome indices 0, 1, 2 of a deterministic slot


def _orientation_slots(f: Functional, constraint: str) -> tuple[
        list[str], list[str], list[tuple[tuple[int, str], tuple[int, str]]]]:
    """Each side's slots and the ties between slots.

    A slot is an orientation on one side.  A tied slot copies the response
    of its target (see TIED_ORIENTATIONS); ``r`` sits on the tied slot's
    side.  Tied slots follow the free ones, in the tie table's order.
    """
    tied = TIED_ORIENTATIONS.get(f.id, {})
    used = [(side, name) for label in f.required_pairs
            for name, side in zip(label, label_sides(label))]
    ties = [((side, name), (_SIDE_OF.get(target, side), target))
            for name, target in tied.items() for side in (1, 2) if (side, name) in used]
    aliases = dict(ties)
    sides: dict[int, list[str]] = {1: [], 2: []}
    for slot in used:
        side, name = aliases.get(slot, slot)
        if name not in sides[side]:
            sides[side].append(name)
    if constraint != "none" or f.is_ratio:
        for names in sides.values():
            if "r" not in names:
                names.append("r")
    for side, name in aliases:
        sides[side].append(name)
    return sides[1], sides[2], ties


def _admissible(outcomes: np.ndarray, names: list[str], constraint: str) -> np.ndarray:
    """Which deterministic assignments of one side (rows of outcome
    indices) meet the detection constraint, as check_supplementary and
    check_gr judge them."""
    detected = outcomes < 2
    if constraint == "none":
        return np.ones(len(outcomes), dtype=bool)
    at_r = detected[:, [names.index("r")]]
    if constraint == "supplementary":
        return ~(detected & ~at_r).any(axis=1)
    return (detected == at_r).all(axis=1)


@dataclass(frozen=True)
class BoundResult:
    functional: str
    constraint: str
    bound: float
    witness_side1: dict[str, str]
    witness_side2: dict[str, str]
    n_strategies: int


def local_bound(functional: str, constraint: str = "none") -> BoundResult:
    """Exact extremum of a functional over all local models.

    Scores every deterministic outcome assignment (at most 27 per side)
    against the functional's coefficient rows; by multilinearity this
    extremum equals the extremum over all weighted mixtures of stochastic
    response functions.  For ratio functionals, strategies with no
    reference coincidences are excluded: they contribute nothing to
    either side of the measured ratio.  The witness is the first
    extremal strategy pair, side 1's assignment varying slowest.
    """
    if functional not in FUNCTIONALS:
        raise ValueError(f"unknown functional {functional!r}")
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")
    f = FUNCTIONALS[functional]
    names1, names2, ties = _orientation_slots(f, constraint)
    side1 = np.array(list(itertools.product(range(3), repeat=len(names1))))
    side2 = np.array(list(itertools.product(range(3), repeat=len(names2))))

    def outcome(side: int, name: str) -> np.ndarray:
        """Outcome indices of a slot, broadcast over (side 1, side 2) rows."""
        if side == 1:
            return side1[:, names1.index(name)][:, None]
        return side2[:, names2.index(name)][None, :]

    ok = (_admissible(side1, names1, constraint)[:, None]
          & _admissible(side2, names2, constraint)[None, :])
    for slot, target in ties:
        ok = ok & (outcome(*slot) == outcome(*target))
    numer = np.zeros(ok.shape)
    denom = np.zeros(ok.shape)
    for k, label in enumerate(f.required_pairs):
        s1, s2 = label_sides(label)
        cell = 3 * outcome(s1, label[0]) + outcome(s2, label[1])
        numer += f.numer[k][cell]
        if f.is_ratio:
            denom += f.denom[k][cell]
    value = numer
    if f.is_ratio:
        ok &= denom > 0.0
        value = numer / np.where(ok, denom, 1.0)
    score = np.where(ok, value if f.direction == GE else -value, np.inf)
    i, j = divmod(int(np.argmin(score)), len(side2))
    if not ok[i, j]:
        raise EvaluationError("no admissible strategy for this functional/constraint")
    return BoundResult(
        functional, constraint, float(value[i, j]),
        {n: _SYMBOLS[o] for n, o in zip(names1, side1[i])},
        {n: _SYMBOLS[o] for n, o in zip(names2, side2[j])},
        int(ok.sum()))


# ---------------------------------------------------------------------------
# Random model generation for property testing and the sampling CLI.

def _sample_channel(rng: np.random.Generator) -> tuple[float, float]:
    """Uniform draw from the triangle q+ >= 0, q- >= 0, q+ + q- <= 1."""
    u, v = rng.random(2)
    if u + v > 1.0:
        u, v = 1.0 - u, 1.0 - v
    return (float(u), float(v))


def sample_response_function(
    rng: np.random.Generator,
    constraint: str = "none",
    side1_orientations: Sequence[str] = ("a", "a_prime", "r"),
    side2_orientations: Sequence[str] = ("b", "b_prime", "r"),
    tie_primed_to_r: bool = False,
) -> ResponseFunction:
    """Draw one response function uniformly from the constrained region.

    The unconstrained and supplementary regions are sampled by rejection.
    The equality-constrained region has measure zero, so it is sampled by
    construction: a common per-side detection total, split independently
    per orientation.
    """
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")

    def build() -> ResponseFunction:
        sides = []
        for orientations in (side1_orientations, side2_orientations):
            # Sample r first so primed slots can alias it when tied.
            ordered = sorted(orientations, key=lambda n: n != "r")
            slots: dict[str, tuple[float, float]] = {}
            if constraint == "gr":
                total = float(rng.random())
                for name in ordered:
                    if tie_primed_to_r and name in ("a_prime", "b_prime") and "r" in slots:
                        slots[name] = slots["r"]
                        continue
                    u = float(rng.random())
                    slots[name] = (u * total, (1.0 - u) * total)
            else:
                for name in ordered:
                    if tie_primed_to_r and name in ("a_prime", "b_prime") and "r" in slots:
                        slots[name] = slots["r"]
                        continue
                    slots[name] = _sample_channel(rng)
            sides.append(slots)
        return ResponseFunction(sides[0], sides[1])

    if constraint == "supplementary":
        while True:
            rf = build()
            if check_supplementary(rf):
                return rf
    return build()


def sample_random_model(
    seed: int,
    n_strategies: int,
    constraint: str = "none",
    tie_primed_to_r: bool = False,
) -> LhvModel:
    """Deterministic function of the seed; weights from a normalized
    uniform draw."""
    if n_strategies < 1:
        raise ValueError("n_strategies must be >= 1")
    rng = np.random.default_rng(seed)
    raw = rng.random(n_strategies) + 1e-9
    weights = raw / raw.sum()
    strategies = tuple(
        sample_response_function(rng, constraint, tie_primed_to_r=tie_primed_to_r)
        for _ in range(n_strategies)
    )
    return LhvModel(strategies, tuple(float(w) for w in weights))
