import dataclasses
import math
import time

import pytest

from bellbench import (
    FUNCTIONALS,
    CountTable,
    EvaluationError,
    ExperimentParams,
    JointDistribution,
    MissingSettingError,
    RunSpec,
    SettingsTable,
    empirical_distribution,
    run_reports,
    settings_table,
    simulate,
)
from conftest import ALL_PAIRS, OPTIMAL_ANGLES


def make_spec(n=20_000, seed=42):
    return RunSpec(pairs_per_setting=n, seed=seed,
                   settings=settings_table(OPTIMAL_ANGLES, ALL_PAIRS))


class TestRunSpec:
    def test_validation(self):
        t = settings_table(OPTIMAL_ANGLES, ALL_PAIRS)
        with pytest.raises(ValueError):
            RunSpec(pairs_per_setting=0, seed=1, settings=t)
        with pytest.raises(ValueError):
            RunSpec(pairs_per_setting=10, seed=2 ** 64, settings=t)

    @pytest.mark.parametrize("pairs", [0, -1, 2 ** 63, 10 ** 20, True, 10.0, "100"])
    def test_pairs_outside_the_multinomial_range(self, pairs):
        t = settings_table(OPTIMAL_ANGLES, ALL_PAIRS)
        with pytest.raises(ValueError):
            RunSpec(pairs_per_setting=pairs, seed=1, settings=t)

    def test_largest_run_size_is_accepted(self):
        t = settings_table(OPTIMAL_ANGLES, ALL_PAIRS)
        assert RunSpec(pairs_per_setting=2 ** 63 - 1, seed=1, settings=t)


class TestSimulate:
    def test_counts_conserve_pairs(self):
        result = simulate(make_spec())
        for label in ALL_PAIRS:
            c = result.counts[label]
            assert sum(c.flat()) == c.total_pairs == 20_000

    def test_deterministic_in_seed(self):
        a = simulate(make_spec(seed=9))
        b = simulate(make_spec(seed=9))
        c = simulate(make_spec(seed=10))
        assert all(a.counts[l].n == b.counts[l].n for l in ALL_PAIRS)
        assert any(a.counts[l].n != c.counts[l].n for l in ALL_PAIRS)

    @pytest.mark.parametrize("workers", [2, 4, 7])
    def test_worker_count_is_invisible(self, workers):
        # A setting's counts are one draw from a stream keyed by (seed,
        # setting index); the worker count takes no part in it.
        n = (1 << 18) * 2 + 12345
        spec = make_spec(n=n)
        serial = simulate(spec, workers=1)
        threaded = simulate(spec, workers=workers)
        assert all(serial.counts[l].n == threaded.counts[l].n for l in ALL_PAIRS)

    def test_empirical_and_stderr_follow_the_counts(self):
        result = simulate(make_spec(n=1000, seed=1))
        other = simulate(make_spec(n=4000, seed=2)).counts
        moved = dataclasses.replace(result, counts=other)
        for label, c in other.items():
            emp = empirical_distribution(c)
            assert moved.empirical[label] == emp
            assert moved.stderr[label] == tuple(
                math.sqrt(p * (1.0 - p) / 4000) for p in emp.flat())

    def test_cost_does_not_grow_with_run_size(self):
        spec = make_spec(n=10 ** 12)
        start = time.perf_counter()
        result = simulate(spec)
        assert time.perf_counter() - start < 0.5
        for label in ALL_PAIRS:
            assert sum(result.counts[label].flat()) == 10 ** 12
        report = FUNCTIONALS["INEQ19"].estimate(result.counts)
        assert abs(report.value - (-1.5)) <= 5.0 * report.stderr

    def test_cells_below_zero_get_no_counts(self):
        # JointDistribution accepts cells down to -1e-12; the last cell is
        # the one a multinomial draw fills with whatever is left over.
        dist = JointDistribution(((0.5, 0.25, 0.0), (0.25, 0.0, 0.0), (0.0, 0.0, -1e-13)))
        spec = RunSpec(pairs_per_setting=10 ** 9, seed=3,
                       settings=SettingsTable({("a", "b"): dist}))
        counts = simulate(spec).counts[("a", "b")]
        assert sum(counts.flat()) == 10 ** 9
        for p, n in zip(dist.flat(), counts.flat()):
            assert n == 0 if p <= 0.0 else n > 0

    def test_empirical_tracks_analytic(self):
        spec = make_spec(n=200_000)
        result = simulate(spec)
        for label in ALL_PAIRS:
            analytic = spec.settings.get(label).flat()
            measured = result.empirical[label].flat()
            for p, q, se in zip(analytic, measured, result.stderr[label]):
                assert abs(p - q) <= max(6.0 * se, 1e-3)


class TestErrorPropagation:
    def test_ineq19_error_scales_like_inverse_sqrt_n(self):
        small = FUNCTIONALS["INEQ19"].estimate(simulate(make_spec(n=10_000)).counts)
        large = FUNCTIONALS["INEQ19"].estimate(simulate(make_spec(n=1_000_000)).counts)
        assert small.stderr == pytest.approx(10.0 * large.stderr, rel=0.2)

    def test_ineq19_estimate_is_consistent(self):
        report = FUNCTIONALS["INEQ19"].estimate(simulate(make_spec(n=500_000)).counts)
        assert abs(report.value - (-1.5)) <= 5.0 * report.stderr

    def test_strong46_scale_invariance(self):
        counts = simulate(make_spec(n=10_000)).counts
        doubled = {
            label: CountTable(tuple(tuple(2 * v for v in row) for row in c.n),
                              2 * c.total_pairs)
            for label, c in counts.items()
        }
        strong46 = FUNCTIONALS["STRONG46"]
        assert strong46.estimate(doubled).value == strong46.estimate(counts).value

    def test_strong46_consistent_with_analytic(self):
        report = FUNCTIONALS["STRONG46"].estimate(simulate(make_spec(n=500_000)).counts)
        assert abs(report.value - (-1.5)) <= 5.0 * report.stderr

    def test_stderr_covers_the_analytic_value(self):
        # Over 300 seeded runs of 2000 pairs per setting, the estimate
        # lands within 1.96 standard errors of the analytic value about 95%
        # of the time, for every table functional.
        params = ExperimentParams(eta=0.9, phi_deg=70.0)
        config = OPTIMAL_ANGLES.replace(a=50.0, b=110.0, b_prime=15.0)
        analytic = settings_table(config, ALL_PAIRS, params)
        truth = {fid: f.evaluate(analytic).value for fid, f in FUNCTIONALS.items()}
        covered = dict.fromkeys(FUNCTIONALS, 0)
        runs = 300
        for seed in range(runs):
            spec = RunSpec(pairs_per_setting=2000, seed=seed, settings=analytic)
            for r in run_reports(simulate(spec).counts):
                covered[r.id] += abs(r.value - truth[r.id]) <= 1.96 * r.stderr
        for fid, hits in covered.items():
            assert 0.90 <= hits / runs <= 0.99, (fid, hits)

    def test_strong46_needs_reference_counts(self):
        empty = CountTable(((0, 0, 0), (0, 0, 0), (0, 0, 10)), 10)
        counts = {label: empty for label in ALL_PAIRS}
        with pytest.raises(EvaluationError):
            FUNCTIONALS["STRONG46"].estimate(counts)


    def test_estimate_needs_every_setting(self):
        counts = simulate(make_spec(n=10)).counts
        del counts[("r", "r")]
        with pytest.raises(MissingSettingError, match=r"\('r', 'r'\)"):
            FUNCTIONALS["STRONG46"].estimate(counts)


EMPTY = CountTable(((0, 0, 0), (0, 0, 0), (0, 0, 0)), 0)


@pytest.mark.parametrize("score", [
    run_reports,
    FUNCTIONALS["INEQ19"].estimate,
    lambda counts: empirical_distribution(counts[("a", "b")]),
], ids=["run_reports", "estimate", "empirical_distribution"])
def test_empty_run_is_an_evaluation_error(score):
    with pytest.raises(EvaluationError, match="empty run"):
        score({label: EMPTY for label in ALL_PAIRS})


class TestRunReports:
    def test_all_functionals_reported(self):
        reports = run_reports(simulate(make_spec()).counts)
        ids = {r.id for r in reports}
        assert ids == {"INEQ17", "INEQ19", "CHSH27", "BELL65_28",
                       "STRONG41", "STRONG46"}

    def test_error_bars_where_implemented(self):
        reports = {r.id: r for r in run_reports(simulate(make_spec()).counts)}
        assert reports["INEQ19"].stderr is not None
        assert reports["STRONG46"].stderr is not None
        assert math.isfinite(reports["INEQ19"].stderr)

    def test_partial_settings(self):
        counts = simulate(make_spec()).counts
        only_four = {l: counts[l] for l in
                     (("a", "b"), ("b_prime", "a"), ("b", "a_prime"),
                      ("a_prime", "b_prime"))}
        ids = {r.id for r in run_reports(only_four)}
        assert "STRONG41" not in ids
        assert "INEQ19" in ids
        # the symmetric ratio needs its own (r, r) reference setting
        assert "STRONG46" not in ids
