"""Local-hidden-variable models and exhaustive local-bound computation.

A model, a finite weighted mixture of hidden states, is one response
array: strategies x side x slot x (q+, q-, q_none), the conditional
probabilities of each outcome per side and per local orientation.  A
:class:`ResponseFunction` is the view of one strategy, one mapping per
side from orientation to (q+, q-).  Locality is structural; a side's
response has no slot for the other side's orientation.  One predicate,
:func:`meets`, judges the detection constraints on such arrays.  Local
bounds hold each side's deterministic strategies, the 0/1 points of the
response box, in the same slot x (q+, q-, q_none) layout and score every
admissible pair of them through :meth:`Functional.margins`.  The ensemble
probabilities are multilinear in the individual response probabilities,
so for the linear forms the bound over deterministic strategies is the
bound over all mixtures.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .inequalities import FUNCTIONALS, TIED_ORIENTATIONS, Functional
from .model import (
    EvaluationError,
    JointDistribution,
    Outcome,
    OUTCOMES,
    SIDES,
    SettingLabel,
    SettingsTable,
    label_sides,
)

EQ_TOL = 1e-12


def _missing(side: int, orientation: str) -> EvaluationError:
    return EvaluationError(
        f"response function has no slot for orientation {orientation!r} on side {side}")


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
            raise _missing(side, orientation)
        qp, qm = side_map[orientation]
        return (qp, qm, max(0.0, 1.0 - qp - qm))


def meets(q: np.ndarray, r: int, constraint: str, tol: float = EQ_TOL) -> np.ndarray:
    """Which of the responses ``q``, (..., slot, outcome) with q+ and q-
    the first two outcomes, meet a detection constraint, ``r`` being the
    index of the reference slot.

    ``supplementary`` (no enhancement): no channel at any slot is
    detected with a probability above the total at r.  ``gr``, the
    stronger equality variant: every slot's total equals the total at r.
    """
    total_r = (q[..., r, 0] + q[..., r, 1])[..., None]
    if constraint == "gr":
        return ~(abs(q[..., 0] + q[..., 1] - total_r) > tol).any(axis=-1)
    return ~(q[..., :2] > total_r[..., None] + tol).any(axis=(-2, -1))


def _meets_each_side(rf: ResponseFunction, constraint: str, tol: float) -> bool:
    for side in (1, 2):
        slots = rf.slots(side)
        if "r" not in slots:
            raise _missing(side, "r")
        if not meets(np.array(list(slots.values()), dtype=float), list(slots).index("r"),
                     constraint, tol):
            return False
    return True


def check_supplementary(rf: ResponseFunction, tol: float = EQ_TOL) -> bool:
    """Each channel's detection probability at any setting is bounded by
    the total detection probability at the reference setting r, side by
    side (see :func:`meets`)."""
    return _meets_each_side(rf, "supplementary", tol)


def check_gr(rf: ResponseFunction, tol: float = EQ_TOL) -> bool:
    """Stronger equality variant: total detection probability is the same
    at every orientation of a side (see :func:`meets`)."""
    return _meets_each_side(rf, "gr", tol)


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


def _orientation_slots(f: Functional, constraint: str) -> tuple[
        SlotNames, list[tuple[tuple[int, str], tuple[int, str]]]]:
    """Each side's slot names and the ties between slots.

    A slot is an orientation on one side.  A tied slot copies the response
    of its target (see TIED_ORIENTATIONS); ``r`` sits on the tied slot's
    side.  Tied slots follow the free ones, in the tie table's order.
    """
    tied = TIED_ORIENTATIONS.get(f.id, {})
    used = [(side, name) for label in f.required_pairs
            for name, side in zip(label, label_sides(label))]
    ties = [((side, name), (SIDES[target] or side, target))
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
    return (tuple(sides[1]), tuple(sides[2])), ties


@dataclass(frozen=True)
class BoundResult:
    functional: str
    constraint: str
    bound: float
    witness_side1: dict[str, str]
    witness_side2: dict[str, str]
    n_strategies: int


def local_bound(functional: str, constraint: str = "none") -> BoundResult:
    """Extremum of a functional over the local models.

    Each side's deterministic strategies (at most 27) are its one-hot
    responses, strategy x slot x (q+, q-, q_none), the first slot varying
    slowest.  Those that meet the constraint are paired, and every pair
    that keeps the ties is scored by the functional's margins; by
    multilinearity the extremum of a linear form equals its extremum over
    all weighted mixtures of stochastic response functions.  Pairs with no
    reference coincidences are excluded from the ratio forms.  That is
    sound under ``supplementary`` and ``gr``, where every such pair also
    has a zero numerator, but not under ``none``: there a mixture with a
    pair whose numerator is negative drives the ratio without limit, so
    the value reported for STRONG41 and STRONG46 is only the extremum over
    pairs with reference coincidences, not a bound.  The witness is the
    first extremal strategy pair, side 1's strategy varying slowest.
    """
    if functional not in FUNCTIONALS:
        raise ValueError(f"unknown functional {functional!r}")
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")
    f = FUNCTIONALS[functional]
    names, ties = _orientation_slots(f, constraint)
    # Each side's strategies that meet the constraint, strategy x slot x
    # (q+, q-, q_none), set on its own axis of the grid of strategy pairs.
    q1, q2 = (np.eye(3)[list(itertools.product(range(3), repeat=len(side)))] for side in names)
    if constraint != "none":
        q1, q2 = (q[meets(q, side.index("r"), constraint)] for q, side in zip((q1, q2), names))
    grid = (q1[:, None], q2[None, :])
    ok = np.ones((len(q1), len(q2)), dtype=bool)
    for (side, name), (t_side, target) in ties:
        ok &= (grid[side - 1][..., names[side - 1].index(name), :]
               == grid[t_side - 1][..., names[t_side - 1].index(target), :]).all(axis=-1)
    sides, slots = _members(f.required_pairs, names)
    cells = [(grid[s1][..., k1, :, None] * grid[s2][..., k2, None, :]).reshape(ok.shape + (9,))
             for s1, s2, k1, k2 in zip(*sides, *slots)]
    margins = np.where(ok, f.margins(cells), -np.inf)
    i, j = np.unravel_index(int(np.argmax(margins)), ok.shape)
    if margins[i, j] == -np.inf:
        raise EvaluationError("no admissible strategy for this functional/constraint")
    value, _ = f.values([c[i, j] for c in cells])
    witness = ({n: OUTCOMES[o].value for n, o in zip(side_names, q[k].argmax(axis=-1))}
               for side_names, q, k in zip(names, (q1, q2), (i, j)))
    return BoundResult(functional, constraint, float(value), *witness,
                       int(np.isfinite(margins).sum()))


# ---------------------------------------------------------------------------
# Random model generation for property testing and the sampling CLI.

# The most strategies one random model may mix.  A model's responses are
# drawn as one array, 12 doubles per strategy.
MAX_STRATEGIES = 10 ** 4

# Each side's orientations (r on both), and those the reduced geometry sets along r.
_ORIENTATIONS = tuple(tuple(n for n, s in SIDES.items() if s in (0, side)) for side in (1, 2))
_PRIMED = tuple(TIED_ORIENTATIONS["STRONG46"])


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

    q = draw(n)
    if constraint == "supplementary":
        redo = np.flatnonzero(~meets(q, 0, constraint).all(axis=1))
        while redo.size:
            fresh = draw(redo.size)
            q[redo] = fresh
            redo = redo[~meets(fresh, 0, constraint).all(axis=1)]
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
