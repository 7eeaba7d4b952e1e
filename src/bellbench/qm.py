"""Quantum-mechanical predictions for J=1 -> J=0 cascade photon pairs.

Two regimes are covered: the ideal experiment (perfect polarizers and
detectors, every photon analyzed) and the real experiment, where the
joint rates are scaled by detector efficiency, solid-angle fraction, the
angular correlation g and the depolarization factor F.  The detectors are
taken back to back, which is the only geometry for which closed forms of
g and F are used here; ``f_override`` lets callers inject an externally
computed depolarization factor.

Note on symbols: the polarizer-angle difference is called ``delta``
throughout, and the detector aperture half-angle ``phi``; some
literature overloads one symbol for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .model import (
    AngleConfig,
    JointDistribution,
    SettingLabel,
    SettingsTable,
    reduce_angle,
)


def ideal_expectation(delta: float) -> float:
    """Correlation for ideal apparatus: cos 2*delta."""
    return math.cos(math.radians(2.0 * reduce_angle(delta)))


def ideal_joint(delta: float) -> JointDistribution:
    """Full outcome table for ideal polarizers and detectors."""
    return _joint(quantum_cells(reduce_angle(delta)).tolist())


def angular_correlation_g(phi_deg: float) -> float:
    """Coincidence enhancement for back-to-back detectors of half-angle phi."""
    if not 0.0 < phi_deg <= 90.0:
        raise ValueError(f"aperture half-angle must be in (0, 90], got {phi_deg!r}")
    c = math.cos(math.radians(phi_deg))
    return 1.0 + c * c * (1.0 + c) ** 2 / 8.0


def depolarization_f(phi_deg: float) -> float:
    """Polarization-contrast reduction from a finite aperture (small phi)."""
    if not 0.0 < phi_deg <= 90.0:
        raise ValueError(f"aperture half-angle must be in (0, 90], got {phi_deg!r}")
    c = math.cos(math.radians(phi_deg))
    return 1.0 - (2.0 / 3.0) * (1.0 - c) ** 2


@dataclass(frozen=True)
class ExperimentParams:
    """Apparatus knobs of the real experiment.

    eta: detector quantum efficiency, in [0, 1].
    phi_deg: aperture half-angle in degrees, in (0, 90].
    f_override: optional replacement for the computed depolarization factor.
    """

    eta: float
    phi_deg: float
    f_override: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta!r}")
        if not 0.0 < self.phi_deg <= 90.0:
            raise ValueError(f"phi_deg must be in (0, 90], got {self.phi_deg!r}")
        if self.f_override is not None and not 0.0 <= self.f_override <= 1.0:
            raise ValueError(f"f_override must be in [0, 1], got {self.f_override!r}")

    @property
    def omega_fraction(self) -> float:
        """Solid-angle fraction Omega/4pi = (1 - cos phi)/2."""
        return (1.0 - math.cos(math.radians(self.phi_deg))) / 2.0

    @property
    def half_omega_fraction(self) -> float:
        """Omega/8pi: one polarizer channel's share of the aperture flux."""
        return self.omega_fraction / 2.0

    @property
    def g(self) -> float:
        return angular_correlation_g(self.phi_deg)

    @property
    def f(self) -> float:
        if self.f_override is not None:
            return self.f_override
        return depolarization_f(self.phi_deg)

    def single_rate(self) -> float:
        """p(+) = p(-) = eta * Omega/8pi with a polarizer in place."""
        return self.eta * self.half_omega_fraction

    def pair_rate_no_polarizers(self) -> float:
        """Both photons detected, no polarizers: eta^2 (Omega/4pi)^2 g."""
        return self.eta ** 2 * self.omega_fraction ** 2 * self.g

    def pair_rate_one_polarizer(self) -> float:
        """One side's polarizer removed: eta^2 (Omega/8pi)(Omega/4pi) g."""
        return self.eta ** 2 * self.half_omega_fraction * self.omega_fraction * self.g

    def coincidence_scale(self) -> float:
        """The common factor eta^2 (Omega/8pi)^2 g of all joint rates."""
        return self.eta ** 2 * self.half_omega_fraction ** 2 * self.g


def quantum_cells(delta: float | np.ndarray,
                  params: Optional[ExperimentParams] = None) -> np.ndarray:
    """Cell probabilities, shape ``delta.shape + (9,)`` in the order of
    JointDistribution.flat(), at polarizer differences ``delta`` (degrees,
    reduced to [0, 180)).  ``params=None`` selects the ideal experiment.

    Ideal: p(+,+) = p(-,-) = cos^2(delta)/2 = (1 + cos 2 delta)/4 and
    p(+,-) = p(-,+) = sin^2(delta)/2, written so that small cells keep
    their relative precision; every NONE entry vanishes and each single
    is 1/2.  Real: the coincidence block follows the cascade prediction
    s (1 +/- F cos 2 delta) with s = eta^2 (Omega/8pi)^2 g; the NONE
    entries are the unique completion consistent with the singles
    eta Omega/8pi on each channel.
    """
    delta = np.asarray(delta, dtype=float)
    cells = np.zeros(delta.shape + (9,))
    if params is None:
        d = np.radians(delta)
        same = np.cos(d) ** 2 / 2.0
        diff = np.sin(d) ** 2 / 2.0
    else:
        s = params.coincidence_scale()
        fc = params.f * np.cos(np.radians(2.0 * delta))
        same = s * (1.0 + fc)
        diff = s * (1.0 - fc)
        single = params.single_rate()
        # NONE on one side, in JointDistribution.from_coincidence_block's
        # order of operations, then (NONE, NONE) takes the rest.
        lone_same = single - same - diff
        lone_diff = single - diff - same
        rest = 1.0 - (same + diff + diff + same + lone_same + lone_diff + lone_same + lone_diff)
        cells[..., 2] = cells[..., 6] = np.maximum(lone_same, 0.0)
        cells[..., 5] = cells[..., 7] = np.maximum(lone_diff, 0.0)
        cells[..., 8] = np.maximum(rest, 0.0)
    cells[..., 0] = cells[..., 4] = same
    cells[..., 1] = cells[..., 3] = diff
    return cells


def _joint(p: list[float]) -> JointDistribution:
    return JointDistribution((tuple(p[0:3]), tuple(p[3:6]), tuple(p[6:9])))


def real_joint(params: ExperimentParams, delta: float) -> JointDistribution:
    """Outcome table for real detectors at polarizer difference delta."""
    return _joint(quantum_cells(reduce_angle(delta), params).tolist())


def settings_table(
    config: AngleConfig,
    pairs: Iterable[SettingLabel],
    params: Optional[ExperimentParams] = None,
) -> SettingsTable:
    """Assemble one joint distribution per requested labeled pair.

    ``params=None`` selects the ideal experiment.  The distribution for a
    pair is a function of the reduced difference of its two orientations.
    """
    labels = [(n1, n2) for n1, n2 in pairs]
    cells = quantum_cells([config.difference(n1, n2) for n1, n2 in labels], params).tolist()
    return SettingsTable({label: _joint(row) for label, row in zip(labels, cells)})
