"""Inequality functionals and the underlying algebraic theorem.

Every table functional is one registry entry holding its coefficient
rows; evaluation on a :class:`SettingsTable`, estimates with error bars
from counts, local bounds and the angle search all read those rows.
Results are :class:`InequalityReport` values carrying value, local
bound, direction and a margin oriented so that positive margin means
violation.  The ratio ("strong") forms divide out the reference-setting
coincidence rate, which also removes the unknown emission count from
experimental data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Mapping, Optional, Sequence

import numpy as np

from .model import (
    CountTable,
    EvaluationError,
    MissingSettingError,
    SettingLabel,
    SettingsTable,
)
from .qm import ExperimentParams

GE = ">="
LE = "<="


@dataclass(frozen=True)
class InequalityReport:
    id: str
    value: float
    bound: float
    direction: str
    violated: bool
    margin: float
    stderr: Optional[float] = None

    def as_dict(self) -> dict:
        """The fields in order, leaving out ``stderr`` when it is None."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "stderr" or self.stderr is not None}


def make_report(ineq_id: str, value: float, bound: float, direction: str,
                stderr: Optional[float] = None) -> InequalityReport:
    """Normalize the margin so that positive always means violation.

    Boundary equality counts as not violated: the inequalities are
    non-strict.
    """
    if direction == GE:
        margin = bound - value
    elif direction == LE:
        margin = value - bound
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return InequalityReport(ineq_id, value, bound, direction, margin > 0, margin, stderr)


# ---------------------------------------------------------------------------
# The algebraic theorem behind the main inequality.

@dataclass(frozen=True)
class TheoremPoint:
    """Ten box-constrained reals: four x's in [0, U], four y's in [0, V]."""

    x1p: float
    x1m: float
    x2p: float
    x2m: float
    y1p: float
    y1m: float
    y2p: float
    y2m: float
    U: float
    V: float

    def __post_init__(self) -> None:
        U, V = _check_box(self.U, self.V)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        for v in (self.x1p, self.x1m, self.x2p, self.x2m):
            if not 0.0 <= v <= self.U:
                raise ValueError(f"x value {v!r} outside [0, {self.U}]")
        for v in (self.y1p, self.y1m, self.y2p, self.y2m):
            if not 0.0 <= v <= self.V:
                raise ValueError(f"y value {v!r} outside [0, {self.V}]")


def _check_box(U: float, V: float) -> tuple[float, float]:
    """U and V as floats, checked finite, non-negative and free of overflow in Z."""
    if not (math.isfinite(U) and math.isfinite(V) and U >= 0 and V >= 0):
        raise ValueError(f"U and V must be finite and non-negative, got U={U!r}, V={V!r}")
    U, V = float(U), float(V)
    # Every intermediate of _z_array lies within 8 * max(U, V, U * V).
    if not math.isfinite(8.0 * max(U, V, U * V)):
        raise ValueError(f"8*max(U, V, U*V) must be finite, got U={U!r}, V={V!r}")
    return U, V


def _z_array(x: np.ndarray, U: float, V: float) -> np.ndarray:
    """The form whose non-negativity drives the main inequality, over rows
    (x1p, x1m, x2p, x2m, y1p, y1m, y2p, y2m) and float box sides U and V:
    the 19-term expansion

        x1p·y1p + x1m·y1m − x1p·y1m − x1m·y1p
        + y2p·x1p + y2m·x1m − y2p·x1m − y2m·x1p
        + y1p·x2p + y1m·x2m − y1p·x2m − y1m·x2p
        − 2·x2p·y2p − 2·x2m·y2m + V·x2p + V·x2m + U·y2p + U·y2m + U·V

    evaluated in factored form, one term at a time."""
    x1p, x1m, x2p, x2m, y1p, y1m, y2p, y2m = x.T
    dy1 = y1p - y1m
    z = (x1p - x1m) * (dy1 + y2p - y2m)
    z += (x2p - x2m) * dy1
    z -= 2.0 * (x2p * y2p + x2m * y2m)
    z += V * (x2p + x2m)
    z += U * (y2p + y2m)
    z += U * V
    return z


def z_value(p: TheoremPoint) -> float:
    x = np.array([[p.x1p, p.x1m, p.x2p, p.x2m, p.y1p, p.y1m, p.y2p, p.y2m]], dtype=float)
    return float(_z_array(x, p.U, p.V)[0])


# Z_{U,V}(Ux, Vy) = UV·Z_{1,1}(x, y), and at the 256 0/1 vertices Z_{1,1}
# takes small integers, which floats hold exactly: scored once here.
_VERTICES = np.array(list(itertools.product((0.0, 1.0), repeat=8)))
_VERTEX_Z = _z_array(_VERTICES, 1.0, 1.0)


@dataclass(frozen=True)
class TheoremReport:
    min_vertex_value: float
    argmin_vertex: tuple[float, ...]
    min_sampled_value: Optional[float]


# Interior samples are drawn and scored this many rows at a time: memory
# stays flat at any sample count, and a block (512 KiB) and the form's
# temporaries stay in a core's L2 cache.  At 10^6 samples, blocks of 2^11
# to 2^15 rows took 46, 41, 40, 41 and 54 ms (medians of 15, 2-vCPU machine).
_THEOREM_BLOCK = 1 << 13

# The most interior samples verify_theorem draws: about 6 s at the
# roughly 1.8 * 10^7 samples per second the blocked sampler reaches on one
# core (2-vCPU machine).
MAX_THEOREM_SAMPLES = 10 ** 8


def verify_theorem(U: float, V: float, samples: int = 0, seed: int = 0) -> TheoremReport:
    """Check Z >= 0 over the box by vertex enumeration plus sampling.

    Z is multilinear in the eight variables, so its box minimum is
    attained at a vertex: exactly U·V times the unit box's integer vertex
    minimum, reported with the first minimizing vertex scaled by the box.
    Interior samples are a sanity check on the vectorized evaluation.  They
    are the rows of ``default_rng(seed).random((samples, 8))`` scaled to
    the box, drawn in blocks: the generator fills arrays in C order, so the
    blocks hold exactly the rows of that single draw.
    """
    U, V = _check_box(U, V)
    if not 0 <= samples <= MAX_THEOREM_SAMPLES:
        raise ValueError(f"samples must be in [0, {MAX_THEOREM_SAMPLES}], got {samples}")
    caps = np.array([U, U, U, U, V, V, V, V])
    i = int(np.argmin(_VERTEX_Z))
    min_vertex = U * V * float(_VERTEX_Z[i])
    argmin = tuple(float(v) for v in _VERTICES[i] * caps)
    min_sampled = None
    if samples:
        rng = np.random.default_rng(seed)
        block = np.empty((min(samples, _THEOREM_BLOCK), 8))
        block_minima = []
        for start in range(0, samples, len(block)):
            pts = block[:samples - start]
            rng.random(out=pts)
            pts *= caps
            block_minima.append(_z_array(pts, U, V).min())
        min_sampled = float(np.min(block_minima))
    tol = 1e-12 * max(1.0, U * V)
    worst = min_vertex if min_sampled is None else min(min_vertex, min_sampled)
    if worst < -tol:
        raise EvaluationError(f"theorem check failed: min Z = {worst!r}")
    return TheoremReport(min_vertex, argmin, min_sampled)


# ---------------------------------------------------------------------------
# Table-based functionals.  Each is a linear form in the nine cell
# probabilities of each of its settings, or a ratio of two such forms, so
# one coefficient row per setting defines it.  Cells are in the order of
# JointDistribution.flat(): ++, +-, +0, -+, --, -0, 0+, 0-, 00, with the
# first orientation's outcome by rows.

PAIR_AB: SettingLabel = ("a", "b")
PAIR_BPA: SettingLabel = ("b_prime", "a")
PAIR_BAP: SettingLabel = ("b", "a_prime")
PAIR_APBP: SettingLabel = ("a_prime", "b_prime")
PAIR_APR: SettingLabel = ("a_prime", "r")
PAIR_RBP: SettingLabel = ("r", "b_prime")
PAIR_RR: SettingLabel = ("r", "r")

_E = np.array([1.0, -1.0, 0.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0])        # expectation
_SAME = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])       # p(+,+) + p(-,-)
_CROSS = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])      # p(+,-) + p(-,+)
_COINC = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])      # detected on both sides
_SINGLES = np.array([2.0, 2.0, 1.0, 2.0, 2.0, 1.0, 1.0, 1.0, 0.0])    # p+ + p- on each side


def _dot(cells: Sequence[np.ndarray], coef: np.ndarray) -> np.ndarray:
    """Sum over settings of cells[p] (..., 9) times the row coef[p] (9,).

    Each setting's term is summed over its cells first, then the terms
    are added in setting order by broadcasting, like a sum of
    expectations.  The optimizer's grid computes a setting's cells once
    per distinct pair of its orientations; every point still gets the
    same roundings in the same order, so grid ties, which can turn on the
    last bit of a margin, do not depend on how the grid is split into
    slabs.  Rows of zeros add exact zeros and are skipped."""
    return sum((c * row).sum(axis=-1) for c, row in zip(cells, coef) if row.any())


@dataclass(frozen=True, eq=False)
class Functional:
    """A table functional: numer . cells, or numer . cells / denom . cells.

    ``numer`` and ``denom`` hold one row of nine cell coefficients per
    entry of ``required_pairs``; ``denom`` is None for the linear forms.
    """

    id: str
    required_pairs: tuple[SettingLabel, ...]
    numer: np.ndarray
    denom: Optional[np.ndarray]
    bound: float
    direction: str = GE

    @property
    def is_ratio(self) -> bool:
        return self.denom is not None

    def evaluate(self, table: SettingsTable) -> InequalityReport:
        cells = [v for label in self.required_pairs for row in table.get(label).p for v in row]
        return self._report(np.array(cells).reshape(-1, 9))

    def estimate(self, counts: Mapping[SettingLabel, CountTable]) -> InequalityReport:
        """Value at the per-setting frequencies, with its delta-method
        standard error.

        Each setting's counts are multinomial, so a term linear in its
        frequencies with coefficients c has variance
        (sum c_i^2 p_i - (sum c_i p_i)^2) / N; settings are independent, so
        their variances add.  A ratio A/B is linearized with gradient
        (a - (A/B) b) / B, which is first order and therefore approximate.
        """
        missing = [label for label in self.required_pairs if label not in counts]
        if missing:
            raise MissingSettingError(f"missing setting {missing[0]!r}")
        tables = [counts[label] for label in self.required_pairs]
        sizes = np.array([c.total_pairs for c in tables], dtype=float)
        if (sizes < 1).any():
            raise EvaluationError("empty run")
        cells = np.array([c.n for c in tables], dtype=float).reshape(-1, 9) / sizes[:, None]
        return self._report(cells, sizes)

    def values(self, cells: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray | bool]:
        """Values from one cell array per entry of ``required_pairs``, of
        shapes (..., 9) that broadcast together, and where they are
        defined: a ratio needs reference coincidences."""
        value = _dot(cells, self.numer)
        if self.denom is None:
            return value, True
        denom = _dot(cells, self.denom)
        ok = denom > 0.0
        return value / np.where(ok, denom, 1.0), ok

    def margins(self, cells: Sequence[np.ndarray]) -> np.ndarray:
        """Margins (positive means violated) of :meth:`values`; -inf where
        a ratio has no reference coincidences."""
        value, ok = self.values(cells)
        margin = self.bound - value if self.direction == GE else value - self.bound
        return np.where(ok, margin, -np.inf)

    def _report(self, cells: np.ndarray, sizes: Optional[np.ndarray] = None) -> InequalityReport:
        # One flat dot product per form: the cheapest call on a single table.
        value = float(np.vdot(self.numer, cells))
        grad = self.numer
        if self.denom is not None:
            denom = float(np.vdot(self.denom, cells))
            if denom <= 0.0:
                raise EvaluationError("no r,r coincidences")
            value /= denom
            grad = (self.numer - value * self.denom) / denom
        stderr = None
        if sizes is not None:
            mean = (grad * cells).sum(axis=1)
            second = (grad * grad * cells).sum(axis=1)
            stderr = math.sqrt(float((np.maximum(0.0, second - mean * mean) / sizes).sum()))
        return make_report(self.id, value, self.bound, self.direction, stderr)


def _functional(ineq_id: str, bound: float, numer: Mapping[SettingLabel, np.ndarray],
                denom: Optional[Mapping[SettingLabel, np.ndarray]] = None) -> Functional:
    """Registry entry from per-setting coefficient rows; the settings are
    the numerator's, then any the denominator adds."""
    pairs = tuple(numer) + tuple(label for label in denom or () if label not in numer)

    def rows(form: Mapping[SettingLabel, np.ndarray]) -> np.ndarray:
        coef = np.array([form.get(label, np.zeros(9)) for label in pairs])
        coef.setflags(write=False)  # shared by every caller
        return coef

    return Functional(ineq_id, pairs, rows(numer), None if denom is None else rows(denom), bound)


# ---------------------------------------------------------------------------
# One-channel comparison inequalities, computed analytically from the
# apparatus parameters (the "polarizer removed" rates have no sentinel
# angle; they come straight from the no-polarizer formulas).

def _single_channel_rate(params: ExperimentParams, delta_deg: float) -> float:
    """p(delta) = coincidence rate with both polarizers in, ++ channel."""
    return params.coincidence_scale() * (
        1.0 + params.f * math.cos(math.radians(2.0 * delta_deg))
    )


def _pair_rate_no_polarizers(params: ExperimentParams) -> float:
    """The one-channel forms' denominator, which is 0 when nothing is detected."""
    rate = params.pair_rate_no_polarizers()
    if rate == 0.0:
        raise EvaluationError("no coincidences without polarizers (pair rate is 0)")
    return rate


def eval_ch(params: ExperimentParams, phi_setting: float = 22.5) -> InequalityReport:
    """One-channel inequality needing five measured rates; bound 0 from above."""
    # The rates take the cosine of up to 2 * 3 * phi_setting degrees.
    if not abs(phi_setting) < 1e307:
        raise ValueError(f"|phi_setting| must be below 1e307, got {phi_setting!r}")
    p1 = _single_channel_rate(params, phi_setting)
    p3 = _single_channel_rate(params, 3.0 * phi_setting)
    p_one = params.pair_rate_one_polarizer()
    value = (3.0 * p1 - p3 - 2.0 * p_one) / _pair_rate_no_polarizers(params)
    return make_report("CH47", value, 0.0, LE)


def eval_fc(params: ExperimentParams) -> InequalityReport:
    """One-channel inequality with fixed 22.5/67.5 degree settings; bound 0.25."""
    value = (
        _single_channel_rate(params, 22.5) - _single_channel_rate(params, 67.5)
    ) / _pair_rate_no_polarizers(params)
    return make_report("FC48", value, 0.25, LE)


# ---------------------------------------------------------------------------
# Registry of the table-based functionals (read by evaluation, error bars,
# the LHV bound search, the optimizer and the CLI).

_E3 = {PAIR_AB: _E, PAIR_BPA: _E, PAIR_BAP: _E}
# The raw-probability form 17 and the expectation form 19 are one linear
# form: -2 p(+,+) - 2 p(-,-) plus all four singles at (a', b').
_MAIN = {**_E3, PAIR_APBP: _SINGLES - 2.0 * _SAME}

FUNCTIONALS: dict[str, Functional] = {f.id: f for f in (
    _functional("INEQ17", -1.0, _MAIN),
    _functional("INEQ19", -1.0, _MAIN),
    _functional("CHSH27", -2.0, {**_E3, PAIR_APBP: -_E}),
    _functional("BELL65_28", -1.0, _E3),
    # The ratio forms divide out the reference-setting coincidence rate.
    # Form 41 is the general-angle version; form 46 is its reduction with
    # a' and b' along r, needing only (r, r) besides the three
    # expectation settings.
    _functional("STRONG41", -1.0,
                {**_E3, PAIR_APBP: -2.0 * _SAME, PAIR_APR: _COINC, PAIR_RBP: _COINC},
                {PAIR_RR: _COINC}),
    _functional("STRONG46", -1.0, {**_E3, PAIR_RR: 2.0 * _CROSS}, {PAIR_RR: _COINC}),
)}

# Orientations that a functional's reduced geometry sets along another:
# the symmetric ratio form puts a' and b' along r, and the
# three-orientation form uses one third direction on both sides (a' = b'),
# which is what makes its same-angle correlation perfect.
TIED_ORIENTATIONS: dict[str, dict[str, str]] = {
    "STRONG46": {"a_prime": "r", "b_prime": "r"},
    "BELL65_28": {"b_prime": "a_prime"},
}


def applicable_reports(
    data: SettingsTable | Mapping[SettingLabel, CountTable],
) -> list[InequalityReport]:
    """Reports of every registry functional whose settings ``data`` holds,
    in registry order.

    ``data`` is a table of probabilities or a mapping of count tables;
    counts are evaluated at the per-setting frequencies and each report
    carries its standard error.  Ratio forms with no reference
    coincidences are left out.
    """
    counted = not isinstance(data, SettingsTable)
    reports = []
    for f in FUNCTIONALS.values():
        if all(label in data for label in f.required_pairs):
            try:
                reports.append(f.estimate(data) if counted else f.evaluate(data))
            except EvaluationError:
                continue
    return reports


# Short names accepted besides the full ids.
_SHORT_IDS = {"CHSH": "CHSH27", "BELL65": "BELL65_28"}


def normalize_functional_id(name: str) -> str:
    key = name.strip().upper()
    key = _SHORT_IDS.get(key, key)
    if key not in FUNCTIONALS and key not in ("CH47", "FC48"):
        raise ValueError(f"unknown inequality {name!r}")
    return key
