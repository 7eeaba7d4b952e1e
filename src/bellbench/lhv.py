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
    labels = list(pairs)
    sides = [label_sides(label) for label in labels]
    slots = dict.fromkeys(slot for label, pair in zip(labels, sides) for slot in zip(pair, label))
    # Every strategy's (q+, q-, q_none) at each slot the pairs read.
    responses = {slot: [rf.response(*slot) for rf in model.strategies] for slot in slots}
    first = np.array([responses[s1, n1] for (n1, _), (s1, _) in zip(labels, sides)])
    second = np.array([responses[s2, n2] for (_, n2), (_, s2) in zip(labels, sides)])
    tables = np.einsum("s,psi,psj->pij", np.array(model.weights), first, second)
    return SettingsTable({label: JointDistribution(tuple(map(tuple, table)))
                          for label, table in zip(labels, tables.tolist())})


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

# The most strategies one random model may mix.  A model's responses are
# drawn as one array, 12 doubles per strategy.
MAX_STRATEGIES = 10 ** 4

_ORIENTATIONS = (("a", "a_prime", "r"), ("b", "b_prime", "r"))
_PRIMED = ("a_prime", "b_prime")


def _draw_strategies(
    rng: np.random.Generator,
    n: int,
    constraint: str,
    orientations: tuple[Sequence[str], Sequence[str]],
    tie_primed_to_r: bool,
) -> tuple[ResponseFunction, ...]:
    """``n`` response functions drawn uniformly from the constrained region.

    All responses come from one array of uniforms, strategies x side x
    slot x (q+, q-), with each side's ``r`` slot first.  Without a
    constraint, and under ``supplementary``, a slot's pair is uniform on
    the triangle q+, q- >= 0, q+ + q- <= 1: a pair above the diagonal is
    reflected through (1/2, 1/2).  ``supplementary`` then redraws the
    strategies that check_supplementary rejects until none remain.  The
    ``gr`` region has measure zero, so it is sampled by construction: each
    side's detection total is the second uniform of its first slot, and
    each slot splits it by its own first uniform.  A tied primed slot, and
    the slots that pad the shorter side, copy the side's first slot.
    """
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")
    names = [sorted(side, key=lambda name: name != "r") for side in orientations]
    if constraint == "supplementary" and not all(side and side[0] == "r" for side in names):
        raise ValueError("supplementary sampling needs an r slot on each side")
    width = max(map(len, names))
    copies = np.array([[k >= len(side) or (tie_primed_to_r and side[0] == "r"
                                           and side[k] in _PRIMED) for k in range(width)]
                       for side in names])[:, :, None]

    def draw(count: int) -> np.ndarray:
        u = rng.random((count, 2, width, 2))
        if constraint == "gr":
            split = u[..., :1]
            q = np.concatenate((split, 1.0 - split), axis=-1) * u[:, :, :1, 1:]
        else:
            q = np.where(u.sum(axis=-1, keepdims=True) > 1.0, 1.0 - u, u)
        return np.where(copies, q[:, :, :1], q)

    def rejected(q: np.ndarray) -> np.ndarray:
        """Strategies with a channel above its side's total at r."""
        total_r = q[:, :, :1].sum(axis=-1, keepdims=True)
        return (q[:, :, 1:] > total_r + EQ_TOL).any(axis=(1, 2, 3))

    q = draw(n)
    if constraint == "supplementary":
        redo = np.flatnonzero(rejected(q))
        while redo.size:
            q[redo] = draw(redo.size)
            redo = redo[rejected(q[redo])]
    return tuple(
        ResponseFunction(*({name: tuple(pair) for name, pair in zip(side, slots)}
                           for side, slots in zip(names, strategy)))
        for strategy in q.tolist())


def sample_response_function(
    rng: np.random.Generator,
    constraint: str = "none",
    side1_orientations: Sequence[str] = _ORIENTATIONS[0],
    side2_orientations: Sequence[str] = _ORIENTATIONS[1],
    tie_primed_to_r: bool = False,
) -> ResponseFunction:
    """Draw one response function uniformly from the constrained region
    (see _draw_strategies)."""
    return _draw_strategies(rng, 1, constraint, (side1_orientations, side2_orientations),
                            tie_primed_to_r)[0]


def sample_random_model(
    seed: int,
    n_strategies: int,
    constraint: str = "none",
    tie_primed_to_r: bool = False,
) -> LhvModel:
    """Deterministic function of the seed; weights from a normalized
    uniform draw, then every strategy's responses in one draw."""
    if not 1 <= n_strategies <= MAX_STRATEGIES:
        raise ValueError(f"n_strategies must be in [1, {MAX_STRATEGIES}], got {n_strategies}")
    rng = np.random.default_rng(seed)
    raw = rng.random(n_strategies) + 1e-9
    weights = raw / raw.sum()
    strategies = _draw_strategies(rng, n_strategies, constraint, _ORIENTATIONS, tie_primed_to_r)
    return LhvModel(strategies, tuple(weights.tolist()))
