"""Seeded Monte Carlo simulation of finite-statistics coincidence runs.

Each emitted pair lands in one of the 9 outcome pairs of its setting's
joint distribution, so a setting's counts over N pairs are exactly
Multinomial(N, p).  Each setting takes one multinomial draw from its own
Philox stream keyed by (seed, setting index) (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11): its counts depend only on
(seed, setting index, N, p), and the cost of a run does not grow with N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from numpy.random import Generator, Philox

from .inequalities import InequalityReport, applicable_reports
from .model import (
    CountTable,
    EvaluationError,
    JointDistribution,
    SettingLabel,
    SettingsTable,
    empirical_distribution,
)

# numpy's multinomial counts in signed 64-bit integers.
MAX_PAIRS = 2 ** 63 - 1


@dataclass(frozen=True)
class RunSpec:
    """A finite run: N pairs per setting, drawn from analytic tables."""

    pairs_per_setting: int
    seed: int
    settings: SettingsTable

    def __post_init__(self) -> None:
        n = self.pairs_per_setting
        if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_PAIRS:
            raise ValueError(
                f"pairs_per_setting must be an integer in [1, {MAX_PAIRS}], got {n!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class RunResult:
    """Counts, empirical tables and binomial standard errors per setting."""

    spec: RunSpec
    counts: Mapping[SettingLabel, CountTable]
    empirical: Mapping[SettingLabel, JointDistribution]
    stderr: Mapping[SettingLabel, tuple[float, ...]]


def _sample_setting(dist: JointDistribution, n: int, key: int) -> CountTable:
    # JointDistribution admits cells down to -PROB_TOL, which numpy rejects.
    # Only cells of positive probability take part in the draw, so a zero
    # cell never receives the remainder that numpy assigns to the last cell.
    probs = np.clip(np.array(dist.flat()), 0.0, None)
    live = probs > 0.0
    total = np.zeros(9, dtype=np.int64)
    total[live] = Generator(Philox(key=key)).multinomial(n, probs[live] / probs[live].sum())
    counts = tuple(tuple(int(v) for v in total[i * 3:(i + 1) * 3]) for i in range(3))
    return CountTable(counts, n)


def simulate(spec: RunSpec, workers: int = 1) -> RunResult:
    """Run every setting; deterministic in (seed, setting order, N).

    ``workers`` is accepted for compatibility and has no effect: a run is
    one multinomial draw per setting, whose cost does not depend on N.
    """
    counts: dict[SettingLabel, CountTable] = {}
    empirical: dict[SettingLabel, JointDistribution] = {}
    stderr: dict[SettingLabel, tuple[float, ...]] = {}
    n = spec.pairs_per_setting
    for index, label in enumerate(spec.settings):
        key = (index << 64) | spec.seed
        table = _sample_setting(spec.settings.get(label), n, key)
        counts[label] = table
        emp = empirical_distribution(table)
        empirical[label] = emp
        stderr[label] = tuple(math.sqrt(p * (1.0 - p) / n) for p in emp.flat())
    return RunResult(spec, counts, empirical, stderr)


def run_reports(counts: Mapping[SettingLabel, CountTable]) -> list[InequalityReport]:
    """Every applicable report for a set of count tables, each estimated
    from the per-setting frequencies with its standard error."""
    if any(c.total_pairs < 1 for c in counts.values()):
        raise EvaluationError("empty run")
    return applicable_reports(counts)
