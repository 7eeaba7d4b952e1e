"""Reference computations the workload checks compare against.

Nothing here calls bellbench: every formula is written out again from the
paper's definitions, in plain Python, so a check that passes does not
merely compare the program with itself.

Tables are dicts from a setting label (first, second) to nine cell
probabilities (or counts) in the order ++, +-, +0, -+, --, -0, 0+, 0-, 00,
with outcomes (+, -, 0) on the first orientation by rows.
"""

from __future__ import annotations

import itertools
import math

PAIR_AB = ("a", "b")
PAIR_BPA = ("b_prime", "a")
PAIR_BAP = ("b", "a_prime")
PAIR_APBP = ("a_prime", "b_prime")
PAIR_APR = ("a_prime", "r")
PAIR_RBP = ("r", "b_prime")
PAIR_RR = ("r", "r")
ALL_PAIRS = (PAIR_AB, PAIR_BPA, PAIR_BAP, PAIR_APBP, PAIR_APR, PAIR_RBP, PAIR_RR)

SIDE1 = ("a", "a_prime")
SIDE2 = ("b", "b_prime")

# Cell coefficient vectors of the building blocks.
E = (1.0, -1.0, 0.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0)        # expectation
COINC = (1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)    # detected on both sides
SINGLES = (2.0, 2.0, 1.0, 2.0, 2.0, 1.0, 1.0, 1.0, 0.0)  # p+(1)+p-(1)+p+(2)+p-(2)
SAME = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)     # p(+,+) + p(-,-)
CROSS = (0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)    # p(+,-) + p(-,+)


def _lin(*terms):
    out = [0.0] * 9
    for scale, coef in terms:
        for k in range(9):
            out[k] += scale * coef[k]
    return tuple(out)


# Each table functional: numerator as {setting: coefficients}, optional
# denominator, local bound (every functional here reads ">=").
_E3 = {PAIR_AB: E, PAIR_BPA: E, PAIR_BAP: E}
_APBP_TERM = _lin((-2.0, SAME), (1.0, SINGLES))
FUNCTIONALS = {
    "INEQ17": ({**_E3, PAIR_APBP: _APBP_TERM}, None, -1.0),
    "INEQ19": ({**_E3, PAIR_APBP: _APBP_TERM}, None, -1.0),
    "CHSH27": ({**_E3, PAIR_APBP: _lin((-1.0, E))}, None, -2.0),
    "BELL65_28": (dict(_E3), None, -1.0),
    "STRONG41": ({**_E3, PAIR_APBP: _lin((-2.0, SAME)), PAIR_APR: COINC, PAIR_RBP: COINC},
                 {PAIR_RR: COINC}, -1.0),
    "STRONG46": ({**_E3, PAIR_RR: _lin((2.0, CROSS))}, {PAIR_RR: COINC}, -1.0),
}
PAPER_BOUNDS = {fid: spec[2] for fid, spec in FUNCTIONALS.items()}

# Closed-form optima on ideal apparatus: three cos 2x terms summing angles
# to zero reach 3 cos 120 = -1.5; CHSH reaches -2 sqrt 2 (Tsirelson), and
# the main and general strong forms equal CHSH + 1 on ideal tables.
IDEAL_OPTIMA = {
    "CHSH27": -2.0 * math.sqrt(2.0),
    "INEQ19": 1.0 - 2.0 * math.sqrt(2.0),
    "STRONG41": 1.0 - 2.0 * math.sqrt(2.0),
    "STRONG46": -1.5,
    "BELL65_28": -1.5,
}


def _dot(coef, cells):
    return sum(c * p for c, p in zip(coef, cells))


def _form(form, table):
    return sum(_dot(coef, table[label]) for label, coef in form.items())


def functional_value(fid: str, table) -> float:
    numer, denom, _ = FUNCTIONALS[fid]
    value = _form(numer, table)
    if denom is not None:
        value /= _form(denom, table)
    return value


def functional_stderr(fid: str, table, n) -> float:
    """Multinomial standard error of the functional at cell probabilities
    ``table`` with ``n[label]`` pairs per setting (delta method for ratios)."""
    numer, denom, _ = FUNCTIONALS[fid]
    if denom is None:
        grads = numer
    else:
        b = _form(denom, table)
        ratio = _form(numer, table) / b
        grads = {}
        for label in set(numer) | set(denom):
            a_c = numer.get(label, (0.0,) * 9)
            b_c = denom.get(label, (0.0,) * 9)
            grads[label] = tuple((x - ratio * y) / b for x, y in zip(a_c, b_c))
    var = 0.0
    for label, g in grads.items():
        p = table[label]
        mean = _dot(g, p)
        second = sum(c * c * pi for c, pi in zip(g, p))
        var += max(0.0, second - mean * mean) / n[label]
    return math.sqrt(var)


# ---------------------------------------------------------------------------
# Quantum predictions.

def _diff(angles, first, second):
    return (angles[first] - angles[second]) % 180.0


def ideal_cells(delta_deg: float):
    """p(+,+) = p(-,-) = cos^2(delta)/2, p(+,-) = p(-,+) = sin^2(delta)/2."""
    c = math.cos(math.radians(delta_deg)) ** 2 / 2.0
    s = math.sin(math.radians(delta_deg)) ** 2 / 2.0
    return (c, s, 0.0, s, c, 0.0, 0.0, 0.0, 0.0)


def apparatus(eta: float, phi_deg: float):
    """(s, single, F, p_one, p_none) for back-to-back detectors.

    Omega/4pi = (1 - cos phi)/2 is the solid-angle fraction of the
    aperture; s = eta^2 (Omega/8pi)^2 g is the coincidence scale and
    eta Omega/8pi the single rate of each channel.
    """
    c = math.cos(math.radians(phi_deg))
    w4 = (1.0 - c) / 2.0
    w8 = w4 / 2.0
    g = 1.0 + c * c * (1.0 + c) ** 2 / 8.0
    f = 1.0 - 2.0 * (1.0 - c) ** 2 / 3.0
    s = eta * eta * w8 * w8 * g
    return s, eta * w8, f, eta * eta * w8 * w4 * g, eta * eta * w4 * w4 * g


def real_cells(eta: float, phi_deg: float, delta_deg: float):
    """Coincidences s(1 +/- F cos 2 delta); the no-detection cells follow
    from the singles eta Omega/8pi; (0, 0) takes the rest."""
    s, single, f, _, _ = apparatus(eta, phi_deg)
    fc = f * math.cos(math.radians(2.0 * delta_deg))
    same, diff = s * (1.0 + fc), s * (1.0 - fc)
    lone = single - same - diff
    rest = 1.0 - 2.0 * (same + diff) - 4.0 * lone
    return (same, diff, lone, diff, same, lone, lone, lone, rest)


def quantum_table(angles, eta=None, phi_deg=None, pairs=ALL_PAIRS):
    """``angles`` maps a, b, a_prime, b_prime, r to degrees; ``eta=None``
    selects ideal apparatus."""
    out = {}
    for first, second in pairs:
        delta = _diff(angles, first, second)
        out[(first, second)] = (ideal_cells(delta) if eta is None
                                else real_cells(eta, phi_deg, delta))
    return out


def one_channel(eta: float, phi_deg: float, phi_setting: float = 22.5):
    """(CH47, FC48): the five-rate form and the fixed 22.5/67.5 form,
    from the ++ rate p(delta) = s(1 + F cos 2 delta) and the rates with one
    and with both polarizers removed."""
    s, _, f, p_one, p_none = apparatus(eta, phi_deg)
    rate = lambda d: s * (1.0 + f * math.cos(math.radians(2.0 * d)))
    ch = (3.0 * rate(phi_setting) - rate(3.0 * phi_setting) - 2.0 * p_one) / p_none
    fc = (rate(22.5) - rate(67.5)) / p_none
    return ch, fc


# ---------------------------------------------------------------------------
# Local models.

def ensemble(strategies, weights, pairs=ALL_PAIRS):
    """Mixture tables; ``strategies`` holds (side1, side2) dicts of
    orientation -> (q+, q-).  ``r`` sits on whichever side the other
    member of a pair leaves free."""
    out = {}
    for first, second in pairs:
        side_first = 2 if first in SIDE2 or (first == "r" and second in SIDE1) else 1
        cells = [0.0] * 9
        for (s1, s2), w in zip(strategies, weights):
            q1 = (s1 if side_first == 1 else s2)[first]
            q2 = (s2 if side_first == 1 else s1)[second]
            r1 = (q1[0], q1[1], max(0.0, 1.0 - q1[0] - q1[1]))
            r2 = (q2[0], q2[1], max(0.0, 1.0 - q2[0] - q2[1]))
            for i in range(3):
                for j in range(3):
                    cells[3 * i + j] += w * r1[i] * r2[j]
        out[(first, second)] = tuple(cells)
    return out


def deterministic_side(symbols):
    """Outcome symbols (+, -, 0) per orientation -> (q+, q-) slots."""
    return {name: {"+": (1.0, 0.0), "-": (0.0, 1.0), "0": (0.0, 0.0)}[sym]
            for name, sym in symbols.items()}


def meets_constraint(side, constraint: str, tol: float = 1e-12) -> bool:
    """none; supplementary: each channel at most the total detection at r;
    gr: the same total detection at every orientation."""
    if constraint == "none":
        return True
    total_r = sum(side["r"])
    for qp, qm in side.values():
        if constraint == "supplementary" and (qp > total_r + tol or qm > total_r + tol):
            return False
        if constraint == "gr" and abs(qp + qm - total_r) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# The algebraic theorem.

def z_form(x1p, x1m, x2p, x2m, y1p, y1m, y2p, y2m, U, V) -> float:
    """The 19-term form whose non-negativity on the box gives INEQ19."""
    return (x1p * y1p + x1m * y1m - x1p * y1m - x1m * y1p
            + y2p * x1p + y2m * x1m - y2p * x1m - y2m * x1p
            + y1p * x2p + y1m * x2m - y1p * x2m - y1m * x2p
            - 2.0 * x2p * y2p - 2.0 * x2m * y2m
            + V * x2p + V * x2m + U * y2p + U * y2m + U * V)


def z_vertex_min(U: float, V: float) -> float:
    """Minimum of the form over the 256 vertices of [0,U]^4 x [0,V]^4."""
    return min(
        z_form(*(U * b for b in xs), *(V * b for b in ys), U, V)
        for xs in itertools.product((0.0, 1.0), repeat=4)
        for ys in itertools.product((0.0, 1.0), repeat=4)
    )


def grid_optimum(fid: str, step: float = 7.5) -> float:
    """Smallest ideal-apparatus value over a grid of a - b, b' - a, b - a'
    (a' - b' follows), checking the closed forms in IDEAL_OPTIMA: the
    default 7.5 degree grid holds the optimal differences 60 and 67.5.
    The symmetric forms pin their reduced geometry: b' = a' for BELL65_28,
    a' = b' = r for STRONG46."""
    grid = [k * step for k in range(int(round(180.0 / step)))]
    best = math.inf
    for d1, d2, d3 in itertools.product(grid, repeat=3):
        angles = {"a": 0.0, "b": -d1, "b_prime": d2, "a_prime": -d1 - d3, "r": 0.0}
        if fid == "BELL65_28":
            if (d1 + d2 + d3) % 180.0:
                continue
            angles["b_prime"] = angles["a_prime"]
        if fid == "STRONG46":
            if (d1 + d2 + d3) % 180.0:
                continue
            angles["r"] = angles["b_prime"] = angles["a_prime"]
        best = min(best, functional_value(fid, quantum_table(angles)))
    return best
