"""Acceptance gate: one test per criterion, each emitting a PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py``; the PASS/FAIL lines are
printed with capture disabled so they always reach the terminal.
"""

import json
import math
import time

import numpy as np
import pytest

from bellbench import (
    FUNCTIONALS,
    AngleConfig,
    ExperimentParams,
    JointDistribution,
    OptimizationProblem,
    ResponseFunction,
    SettingsTable,
    check_gr,
    check_supplementary,
    eval_ch,
    eval_fc,
    ideal_joint,
    local_bound,
    optimize,
    sample_response_function,
    settings_table,
)
from bellbench.cli import main
from conftest import ALL_PAIRS, OPTIMAL_ANGLES

SQRT2 = math.sqrt(2.0)


def report(capsys, criterion: str, ok: bool, detail: str) -> None:
    with capsys.disabled():  # the line must reach the terminal, capture or not
        print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"CLI exited {code}"
    return json.loads(out)


def test_criterion_1_ideal_maximal_violation(capsys):
    start = time.monotonic()
    payload = cli_json(capsys, "predict", "--ideal",
                       "--angles", "60,120,0,0,0", "--format", "json")
    assert payload["canonical_differences"] == [120.0, 120.0, 120.0, 0.0]
    value = {r["id"]: r["value"] for r in payload["reports"]}["INEQ19"]
    err = abs(value - (-1.5))
    elapsed = time.monotonic() - start
    report(capsys, "criterion 1 (ideal maximal violation)",
           err < 1e-12 and elapsed < 1.0,
           f"INEQ19 = {value!r} at differences (120,120,120,0), "
           f"|err| = {err:.2e}, {elapsed:.2f}s")


def test_criterion_2_theorem_tightness(capsys):
    start = time.monotonic()
    payload = cli_json(capsys, "verify-theorem", "--U", "1", "--V", "1",
                       "--samples", "1000000", "--seed", "0", "--format", "json")
    elapsed = time.monotonic() - start
    vertex_min = payload["min_vertex_value"]
    overall_min = min(vertex_min, payload["min_sampled_value"])
    report(capsys, "criterion 2 (theorem tightness)",
           vertex_min == 0.0 and overall_min >= -1e-12 and elapsed < 10.0,
           f"vertex min = {vertex_min!r} over 256 vertices, sampled min = "
           f"{payload['min_sampled_value']:.6f} over 10^6 points, {elapsed:.2f}s")


def test_criterion_3_lhv_bound(capsys):
    start = time.monotonic()
    payload = cli_json(capsys, "lhv-bound", "ineq19", "none", "--format", "json")
    elapsed = time.monotonic() - start
    # the library-level result doubles as the "no strategy below -1" check:
    # the returned bound is the exhaustive minimum over all strategies
    assert local_bound("INEQ19", "none").bound == -1.0
    report(capsys, "criterion 3 (exhaustive LHV bound)",
           payload["bound"] == -1.0 and elapsed < 10.0,
           f"minimum over {payload['strategies_examined']} deterministic "
           f"strategies = {payload['bound']}, {elapsed:.2f}s")


def _random_closure_table(rng, perfect_primed_pair=False):
    entries = {}
    for label in ALL_PAIRS:
        block = rng.random(4)
        block /= block.sum()
        pp, pm, mp, mm = block
        entries[label] = JointDistribution((
            (pp, pm, 0.0), (mp, mm, 0.0), (0.0, 0.0, 0.0)))
    if perfect_primed_pair:
        entries[("a_prime", "b_prime")] = ideal_joint(0.0)
    return SettingsTable(entries)


def value(fid, table):
    return FUNCTIONALS[fid].evaluate(table).value


def test_criterion_4_reduction_identities(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(2026)
    worst_a = worst_b = 0.0
    for _ in range(10_000):
        t = _random_closure_table(rng)
        worst_a = max(worst_a, abs(value("INEQ19", t) - (value("CHSH27", t) + 1.0)))
        t2 = _random_closure_table(rng, perfect_primed_pair=True)
        worst_b = max(worst_b, abs(value("CHSH27", t2) - (value("BELL65_28", t2) - 1.0)))
    elapsed = time.monotonic() - start
    report(capsys, "criterion 4 (reduction identities)",
           worst_a < 1e-12 and worst_b < 1e-12 and elapsed < 5.0,
           f"max |main - (CHSH+1)| = {worst_a:.2e}, "
           f"max |CHSH - (three-orientation - 1)| = {worst_b:.2e} "
           f"over 10^4 tables each, {elapsed:.2f}s")


def test_criterion_5_real_experiment_strong_inequality(capsys):
    start = time.monotonic()
    params = ExperimentParams(eta=0.9, phi_deg=30.0)
    assert round(params.f, 2) == 0.99
    t = settings_table(OPTIMAL_ANGLES, ALL_PAIRS, params)
    value = FUNCTIONALS["STRONG46"].evaluate(t).value
    expected = 1.0 - 2.5 * params.f
    perfect = ExperimentParams(eta=0.9, phi_deg=30.0, f_override=1.0)
    value_perfect = FUNCTIONALS["STRONG46"].evaluate(
        settings_table(OPTIMAL_ANGLES, ALL_PAIRS, perfect)).value
    elapsed = time.monotonic() - start
    ok = (abs(value - expected) < 1e-12 and abs(value - (-1.47008)) < 1e-5
          and abs(value_perfect - (-1.5)) < 1e-12 and elapsed < 1.0)
    report(capsys, "criterion 5 (real-apparatus strong inequality)", ok,
           f"value = {value:.6f} (= 1 - 2.5 F, F = {params.f:.5f}); "
           f"perfect contrast gives {value_perfect!r}, {elapsed:.2f}s")


def test_criterion_6_comparison_magnitudes(capsys):
    start = time.monotonic()
    perfect = ExperimentParams(eta=0.9, phi_deg=30.0, f_override=1.0)
    ch = eval_ch(perfect, phi_setting=22.5)
    fc = eval_fc(perfect)
    # violation of the two-channel form (0.5 past its bound) against the
    # one-channel violation 2 * (sqrt(2)-1)/2
    ratio = 0.5 / (2.0 * ch.margin)
    elapsed = time.monotonic() - start
    ok = (abs(ch.value - 0.20711) < 1e-5 and ch.violated
          and abs(fc.value - 0.35355) < 1e-5 and fc.violated
          and abs(ratio - 1.2071) < 1e-3 and elapsed < 1.0)
    report(capsys, "criterion 6 (one-channel comparison magnitudes)", ok,
           f"five-rate form = {ch.value:.5f} > 0, fixed-angle form = "
           f"{fc.value:.5f} > 0.25, violation ratio = {ratio:.4f}, {elapsed:.2f}s")


def test_criterion_7_monte_carlo_convergence(capsys):
    start = time.monotonic()
    args = ("simulate", "--ideal", "--angles", "60,120,0,0,0",
            "--pairs", "1000000", "--seed", "20260824", "--format", "json")
    payload = cli_json(capsys, *args, "--threads", "1")
    rep = {r["id"]: r for r in payload["reports"]}["INEQ19"]
    deviation = abs(rep["value"] - (-1.5)) / rep["stderr"]
    code = main(list(args) + ["--threads", "4"])
    out4 = capsys.readouterr().out
    elapsed = time.monotonic() - start
    identical = code == 0 and json.loads(out4) == payload
    report(capsys, "criterion 7 (Monte Carlo convergence)",
           deviation < 5.0 and identical and elapsed < 60.0,
           f"N = 10^6: INEQ19 = {rep['value']:.5f} +/- {rep['stderr']:.5f} "
           f"({deviation:.2f} sigma from -1.5); 4-thread rerun bit-identical: "
           f"{identical}, {elapsed:.2f}s")


def test_criterion_8_optimizer_recovery(capsys):
    start = time.monotonic()
    payload = cli_json(capsys, "optimize", "--ideal", "--ineq", "strong46",
                       "--free", "a,b,a_prime", "--grid-step", "5",
                       "--refine-tol", "0.01", "--format", "json")
    diffs = payload["canonical_differences"]
    diffs_ok = all(abs(d - e) <= 0.05 for d, e in zip(diffs, (120, 120, 120, 0)))
    value_ok = abs(payload["report"]["value"] - (-1.5)) < 1e-6

    chsh = optimize(
        OptimizationProblem("CHSH27", ("a", "b", "a_prime"),
                            AngleConfig(0, 0, 0, 0, 0)),
        grid_step=10.0, refine_tolerance=1e-4)
    chsh_ok = abs(chsh.best_report.value - (-2.0 * SQRT2)) < 1e-6
    elapsed = time.monotonic() - start
    report(capsys, "criterion 8 (optimizer recovery)",
           diffs_ok and value_ok and chsh_ok and elapsed < 60.0,
           f"symmetric ratio form: differences {tuple(round(d, 3) for d in diffs)}, "
           f"value {payload['report']['value']:.8f}; CHSH optimum "
           f"{chsh.best_report.value:.8f} vs -2*sqrt(2), {elapsed:.2f}s")


def test_criterion_9_assumption_hierarchy(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(99)
    all_pass = all(
        check_supplementary(sample_response_function(rng, "gr"), tol=1e-9)
        for _ in range(10_000))
    witness = ResponseFunction(
        {"a": (0.3, 0.2), "a_prime": (0.1, 0.1), "r": (0.5, 0.4)},
        {"b": (0.2, 0.1), "b_prime": (0.3, 0.0), "r": (0.4, 0.3)})
    converse_fails = check_supplementary(witness) and not check_gr(witness)
    elapsed = time.monotonic() - start
    report(capsys, "criterion 9 (assumption hierarchy)",
           all_pass and converse_fails and elapsed < 5.0,
           f"10^4 equality-constrained samples all satisfy the inequality "
           f"version; witness satisfies it while failing the equality "
           f"version: {converse_fails}, {elapsed:.2f}s")
