"""Seeded Monte Carlo simulation of finite-statistics coincidence runs.

Each emitted pair is one categorical draw over the 9 outcome pairs of its
setting's joint distribution.  Sampling is counter-based: every setting
gets its own Philox stream keyed by (seed, setting index), and chunks
address the stream by absolute pair index, so the result is bit-identical
for any number of worker threads or chunk layout.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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

# Philox emits doubles in blocks of four; chunk offsets must stay aligned.
_CHUNK = 1 << 18


@dataclass(frozen=True)
class RunSpec:
    """A finite run: N pairs per setting, drawn from analytic tables."""

    pairs_per_setting: int
    seed: int
    settings: SettingsTable

    def __post_init__(self) -> None:
        if self.pairs_per_setting < 1:
            raise ValueError("pairs_per_setting must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class RunResult:
    """Counts, empirical tables and binomial standard errors per setting."""

    spec: RunSpec
    counts: Mapping[SettingLabel, CountTable]
    empirical: Mapping[SettingLabel, JointDistribution]
    stderr: Mapping[SettingLabel, tuple[float, ...]]


def _sample_setting(dist: JointDistribution, n: int, key: int, workers: int) -> CountTable:
    probs = np.array(dist.flat())
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    offsets = [(off, min(_CHUNK, n - off)) for off in range(0, n, _CHUNK)]

    def one_chunk(off_size: tuple[int, int]) -> np.ndarray:
        off, size = off_size
        bg = Philox(key=key, counter=[off // 4, 0, 0, 0])
        u = Generator(bg).random(size)
        idx = np.searchsorted(cum, u, side="right")
        return np.bincount(idx, minlength=9)

    if workers > 1 and len(offsets) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(one_chunk, offsets))
    else:
        partials = [one_chunk(o) for o in offsets]
    total = np.sum(partials, axis=0)
    counts = tuple(tuple(int(v) for v in total[i * 3:(i + 1) * 3]) for i in range(3))
    return CountTable(counts, n)


def simulate(spec: RunSpec, workers: int = 1) -> RunResult:
    """Run every setting; deterministic in (seed, setting order, N)."""
    counts: dict[SettingLabel, CountTable] = {}
    empirical: dict[SettingLabel, JointDistribution] = {}
    stderr: dict[SettingLabel, tuple[float, ...]] = {}
    n = spec.pairs_per_setting
    for index, label in enumerate(spec.settings):
        key = (index << 64) | spec.seed
        table = _sample_setting(spec.settings.get(label), n, key, workers)
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
