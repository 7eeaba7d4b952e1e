"""Local-hidden-variable models and exhaustive local-bound computation.

A model, a finite weighted mixture of hidden states, is one response
array: strategies x side x slot x (q+, q-, q_none), the conditional
probabilities of each outcome per side and per local orientation.  A
:class:`ResponseFunction` is the view of one strategy, one mapping per
side from orientation to (q+, q-).  Locality is structural; a side's
response has no slot for the other side's orientation.  Local bounds are
computed by scoring every deterministic strategy, the extreme points of
the response box, against a functional's coefficient rows.  The ensemble
probabilities are multilinear in the individual response probabilities,
so the bound over deterministic strategies is the bound over all
mixtures.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

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


SlotNames = tuple[tuple[str, ...], tuple[str, ...]]


class LhvModel:
    """Weighted mixture of response functions (the hidden-state ensemble).

    ``responses`` is one read-only array, strategies x side x slot x
    (q+, q-, q_none); ``names`` holds each side's slot names in slot order
    (a shorter side leaves its last slots unnamed) and ``weights`` the
    mixture weights as floats.  Strategies whose slot sets differ share
    the union of their slot names, and ``present`` (strategies x side x
    slot) marks which strategy has which slot; it is None when every
    strategy has every named slot.
    """

    def __init__(self, strategies: Sequence[ResponseFunction], weights: Sequence[float]) -> None:
        strategies = tuple(strategies)
        names = tuple(tuple(dict.fromkeys(name for rf in strategies for name in rf.slots(side)))
                      for side in (1, 2))
        q = np.zeros((len(strategies), 2, max(map(len, names)), 2))
        present = np.zeros(q.shape[:-1], dtype=bool)
        for s, rf in enumerate(strategies):
            for side, side_names in enumerate(names):
                slots = rf.slots(side + 1)
                for k, name in enumerate(side_names):
                    if name in slots:
                        q[s, side, k] = slots[name]
                        present[s, side, k] = True
        named = all(present[:, side, :len(side_names)].all() for side, side_names in enumerate(names))
        self._set(q, names, weights, None if named else present)
        self.__dict__["strategies"] = strategies  # the views are the given objects

    @classmethod
    def _from_array(cls, q: np.ndarray, names: SlotNames, weights: Sequence[float]) -> "LhvModel":
        """A model over q, strategies x side x slot x (q+, q-), in which every
        strategy has every named slot."""
        model = cls.__new__(cls)
        model._set(q, names, weights, None)
        return model

    def _set(self, q: np.ndarray, names: SlotNames, weights: Sequence[float],
             present: Optional[np.ndarray]) -> None:
        """Check the responses and weights in one pass, by ResponseFunction's
        rules and a mixture's, and store them with q_none appended."""
        weights = tuple(map(float, weights))
        if len(q) != len(weights):
            raise ValueError("strategies and weights differ in length")
        if not weights:
            raise ValueError("model needs at least one strategy")
        if not all(map(math.isfinite, weights)):
            raise ValueError("weights must be finite")
        if min(weights) < 0:
            raise ValueError("weights must be non-negative")
        if abs(sum(weights) - 1.0) > EQ_TOL:
            raise ValueError("weights must sum to 1")
        qp, qm = q[..., 0], q[..., 1]
        in_range = (q >= 0.0) & (q <= 1.0)  # NaN is out of range too
        if not (in_range.all() and (qp + qm <= 1.0 + EQ_TOL).all()):
            in_range = in_range.all(axis=-1)
            slot = tuple(np.argwhere(~in_range | (qp + qm > 1.0 + EQ_TOL))[0])
            message = "q+ + q- > 1" if in_range[slot] else "response probability out of [0,1]"
            raise ValueError(f"{message} at {names[slot[1]][slot[2]]!r}")
        responses = np.concatenate((q, np.maximum(0.0, 1.0 - qp - qm)[..., None]), axis=-1)
        responses.setflags(write=False)
        self.__dict__.update(responses=responses, names=names, weights=weights, present=present)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"LhvModel is immutable; cannot set {name!r}")

    @functools.cached_property
    def strategies(self) -> tuple[ResponseFunction, ...]:
        """One ResponseFunction per strategy, built on first access."""
        return tuple(
            ResponseFunction(*({name: tuple(pair) for name, pair in zip(side_names, slots)}
                               for side_names, slots in zip(self.names, strategy)))
            for strategy in self.responses[..., :2].tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LhvModel):
            return NotImplemented
        return self.weights == other.weights and self.strategies == other.strategies

    __hash__ = None  # type: ignore[assignment]


def _missing(side: int, orientation: str) -> EvaluationError:
    return EvaluationError(
        f"response function has no slot for orientation {orientation!r} on side {side}")


@functools.lru_cache(maxsize=64)
def _members(labels: tuple[SettingLabel, ...], names: SlotNames) -> np.ndarray:
    """Where each pair's members sit in a model's responses: an index array
    (side, slot) x member (first, second) x pair, read-only because it is
    shared by every model with these slot names."""
    at = np.zeros((2, 2, len(labels)), dtype=int)
    for p, label in enumerate(labels):
        for m, (side, name) in enumerate(zip(label_sides(label), label)):
            if name not in names[side - 1]:
                raise _missing(side, name)
            at[:, m, p] = side - 1, names[side - 1].index(name)
    at.setflags(write=False)
    return at


def ensemble_table(model: LhvModel, pairs: Iterable[SettingLabel]) -> SettingsTable:
    """Joint tables from the mixture: weighted products of per-side responses.

    The orientation labels alone identify the responses; the physical
    angles never enter a hidden-variable prediction.
    """
    labels = tuple(pairs)
    sides, slots = _members(labels, model.names)
    if model.present is not None:
        for side, k in zip(sides.T.flat, slots.T.flat):
            if not model.present[:, side, k].all():
                raise _missing(side + 1, model.names[side][k])
    # Every strategy's (q+, q-, q_none) at each pair's first and second
    # member, member x pair x strategy x outcome: one gather, in the C order
    # einsum has always been given.
    first, second = np.ascontiguousarray(model.responses.transpose(1, 2, 0, 3)[sides, slots])
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
) -> tuple[np.ndarray, SlotNames]:
    """``n`` strategies drawn uniformly from the constrained region, as an
    array strategies x side x slot x (q+, q-) and each side's slot names.

    All responses come from one array of uniforms of that shape, with each
    side's ``r`` slot first.  Without a constraint, and under
    ``supplementary``, a slot's pair is uniform on the triangle
    q+, q- >= 0, q+ + q- <= 1: a pair above the diagonal is reflected
    through (1/2, 1/2).  ``supplementary`` then redraws the
    strategies that check_supplementary rejects until none remain.  The
    ``gr`` region has measure zero, so it is sampled by construction: each
    side's detection total is the second uniform of its first slot, and
    each slot splits it by its own first uniform.  A tied primed slot, and
    the slots that pad the shorter side, copy the side's first slot.
    """
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")
    names = tuple(tuple(sorted(side, key=lambda name: name != "r")) for side in orientations)
    if constraint == "supplementary" and not all(side and side[0] == "r" for side in names):
        raise ValueError("supplementary sampling needs an r slot on each side")
    width = max(map(len, names))
    tied = [[k >= len(side) or (tie_primed_to_r and side[0] == "r" and side[k] in _PRIMED)
             for k in range(width)] for side in names]
    copies = np.array(tied)[:, :, None] if any(map(any, tied)) else None

    def draw(count: int) -> np.ndarray:
        u = rng.random((count, 2, width, 2))
        if constraint == "gr":
            split = u[..., :1]
            q = np.concatenate((split, 1.0 - split), axis=-1) * u[:, :, :1, 1:]
        else:
            q = np.subtract(1.0, u, out=u, where=u[..., :1] + u[..., 1:] > 1.0)
        if copies is not None:
            np.copyto(q, q[:, :, :1], where=copies)
        return q

    def rejected(q: np.ndarray) -> np.ndarray:
        """Strategies with a channel above its side's total at r."""
        total_r = q[:, :, :1, :1] + q[:, :, :1, 1:]
        return (q[:, :, 1:] > total_r + EQ_TOL).any(axis=(1, 2, 3))

    q = draw(n)
    if constraint == "supplementary":
        redo = np.flatnonzero(rejected(q))
        while redo.size:
            fresh = draw(redo.size)
            q[redo] = fresh
            redo = redo[rejected(fresh)]
    return q, names


def sample_response_function(
    rng: np.random.Generator,
    constraint: str = "none",
    side1_orientations: Sequence[str] = _ORIENTATIONS[0],
    side2_orientations: Sequence[str] = _ORIENTATIONS[1],
    tie_primed_to_r: bool = False,
) -> ResponseFunction:
    """Draw one response function uniformly from the constrained region
    (see _draw_strategies)."""
    q, names = _draw_strategies(rng, 1, constraint, (side1_orientations, side2_orientations),
                                tie_primed_to_r)
    return LhvModel._from_array(q, names, (1.0,)).strategies[0]


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
    q, names = _draw_strategies(rng, n_strategies, constraint, _ORIENTATIONS, tie_primed_to_r)
    return LhvModel._from_array(q, names, weights.tolist())
