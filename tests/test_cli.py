import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bellbench import AngleConfig, cli
from bellbench.cli import _CONFIG_SECTIONS, MAX_DRAWN_STRATEGIES, MAX_MODELS, main
from bellbench.inequalities import MAX_THEOREM_SAMPLES
from bellbench.lhv import MAX_STRATEGIES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredict:
    def test_ideal_json(self, capsys):
        code, out, _ = run(capsys, "predict", "--ideal",
                           "--angles", "60,120,0,0,0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["canonical_differences"] == [120.0, 120.0, 120.0, 0.0]
        reports = {r["id"]: r for r in payload["reports"]}
        assert reports["INEQ19"]["value"] == pytest.approx(-1.5, abs=1e-12)
        assert reports["INEQ19"]["violated"] is True

    def test_real_includes_one_channel_forms(self, capsys):
        code, out, _ = run(capsys, "predict", "--eta", "0.9", "--phi", "30",
                           "--angles", "60,120,0,0,0", "--format", "json")
        assert code == 0
        ids = {r["id"] for r in json.loads(out)["reports"]}
        assert {"CH47", "FC48"} <= ids

    def test_single_inequality_selection(self, capsys):
        code, out, _ = run(capsys, "predict", "--ideal", "--angles",
                           "60,120,0,0,0", "--ineq", "chsh", "--format", "json")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["id"] for r in reports] == ["CHSH27"]

    def test_missing_angles_is_usage_error(self, capsys):
        code, _, err = run(capsys, "predict", "--ideal")
        assert code == 2
        assert "angles" in err

    def test_conflicting_source_flags(self, capsys):
        code, _, _ = run(capsys, "predict", "--ideal", "--eta", "0.9",
                         "--angles", "0,0,0,0,0")
        assert code == 2

    def test_one_channel_form_requires_real_source(self, capsys):
        code, _, _ = run(capsys, "predict", "--ideal",
                         "--angles", "0,0,0,0,0", "--ineq", "ch47")
        assert code == 2

    @pytest.mark.parametrize("ineq", ["ch47", "fc48"])
    def test_one_channel_form_at_zero_pair_rate(self, capsys, ineq):
        code, out, err = run(capsys, "predict", "--eta", "0", "--phi", "30",
                             "--angles", "60,120,0,0,0", "--ineq", ineq)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_csv_format_has_17_digit_values(self, capsys):
        code, out, _ = run(capsys, "predict", "--ideal",
                           "--angles", "60,120,0,0,0", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "id,value,bound,direction,violated,margin,stderr"
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert float(row["value"]) == pytest.approx(-1.5, abs=1e-12)
        assert row["value"] == format(float(row["value"]), ".17g")


class TestSimulateEvaluate:
    def test_roundtrip_is_bit_identical(self, capsys, tmp_path):
        counts = tmp_path / "run.csv"
        code, sim_out, _ = run(capsys, "simulate", "--ideal",
                               "--angles", "60,120,0,0,0", "--pairs", "50000",
                               "--seed", "7", "--counts-out", str(counts),
                               "--format", "csv")
        assert code == 0
        code, eval_out, _ = run(capsys, "evaluate", str(counts), "--format", "csv")
        assert code == 0
        assert eval_out == sim_out

    def test_threads_do_not_change_output(self, capsys):
        args = ("simulate", "--ideal", "--angles", "60,120,0,0,0",
                "--pairs", "300000", "--seed", "3", "--format", "json")
        _, out1, _ = run(capsys, *args, "--threads", "1")
        _, out4, _ = run(capsys, *args, "--threads", "4")
        assert out1 == out4

    @pytest.mark.parametrize("flag,value", [
        ("--pairs", "0"), ("--pairs", str(2 ** 63)), ("--pairs", "100000000000000000000"),
        ("--threads", "0"), ("--threads", "-3")])
    def test_run_size_and_threads_out_of_range(self, capsys, flag, value):
        code, out, err = run(capsys, "simulate", "--ideal", "--angles", "60,120,0,0,0",
                             "--pairs", "1000", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("key,value", [
        ("pairs_per_setting", 2 ** 63), ("pairs_per_setting", 0), ("threads", 0)])
    def test_run_config_out_of_range(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"pairs_per_setting": 1000, key: value}}))
        code, _, err = run(capsys, "simulate", "--ideal", "--angles", "60,120,0,0,0",
                           "--config", str(cfg))
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLBENCH_SEED", "99")
        _, out_env, _ = run(capsys, "simulate", "--ideal", "--angles",
                            "0,0,0,0,0", "--pairs", "1000", "--format", "json")
        monkeypatch.delenv("BELLBENCH_SEED")
        _, out_flag, _ = run(capsys, "simulate", "--ideal", "--angles",
                             "0,0,0,0,0", "--pairs", "1000", "--seed", "99",
                             "--format", "json")
        assert json.loads(out_env)["counts"] == json.loads(out_flag)["counts"]
        assert json.loads(out_env)["seed"] == 99

    def test_bad_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLBENCH_SEED", "not-a-number")
        code, _, _ = run(capsys, "simulate", "--ideal", "--angles",
                         "0,0,0,0,0", "--pairs", "10")
        assert code == 2

    def test_counts_csv_shape(self, capsys, tmp_path):
        counts = tmp_path / "run.csv"
        run(capsys, "simulate", "--ideal", "--angles", "60,120,0,0,0",
            "--pairs", "100", "--seed", "1", "--counts-out", str(counts))
        lines = counts.read_text().splitlines()
        assert lines[0] == "setting,o1,o2,count_or_prob"
        assert len(lines) == 1 + 7 * 9
        assert lines[1].startswith("a:b,+,+,")

    def test_evaluate_probability_table(self, capsys, tmp_path):
        path = tmp_path / "probs.csv"
        rows = ["setting,o1,o2,count_or_prob"]
        quarter = format(0.25, ".17g")
        for setting in ("a:b", "b_prime:a", "b:a_prime", "a_prime:b_prime"):
            for o1 in "+-":
                for o2 in "+-":
                    rows.append(f"{setting},{o1},{o2},{quarter}")
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "evaluate", str(path), "--format", "json")
        assert code == 0
        reports = {r["id"]: r for r in json.loads(out)["reports"]}
        assert reports["CHSH27"]["value"] == pytest.approx(0.0, abs=1e-12)

    def test_evaluate_rejects_bad_header(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n")
        code, _, _ = run(capsys, "evaluate", str(path))
        assert code == 2

    def test_evaluate_strong46_from_per_setting_frequencies(self, capsys, tmp_path):
        # Settings with unequal totals, every pair detected (+, +): each
        # expectation is 1 and the (r, r) block has no cross counts, so
        # the ratio is 3 whatever the totals.
        path = tmp_path / "unequal.csv"
        rows = ["setting,o1,o2,count_or_prob"]
        for setting, total in (("a:b", 7), ("b_prime:a", 1), ("b:a_prime", 1), ("r:r", 1)):
            rows.append(f"{setting},+,+,{total}")
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "evaluate", str(path), "--format", "json")
        assert code == 0
        reports = {r["id"]: r for r in json.loads(out)["reports"]}
        assert reports["STRONG46"]["value"] == 3.0

    def test_evaluate_rejects_duplicate_row(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        rows = ["setting,o1,o2,count_or_prob", "a:b,+,+,5", "a:b,+,+,1"]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, "evaluate", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "a:b" in err and "(+,+)" in err

    def test_row_order_does_not_matter(self, capsys, tmp_path):
        counts = tmp_path / "run.csv"
        run(capsys, "simulate", *_REAL, "--pairs", "1000", "--seed", "5",
            "--counts-out", str(counts))
        header, *rows = counts.read_text().splitlines()
        random.Random(0).shuffle(rows)
        scrambled = tmp_path / "scrambled.csv"
        scrambled.write_text("\n".join([header, *rows]) + "\n")
        ordered = run(capsys, "evaluate", str(counts), "--format", "json")
        assert ordered[0] == 0
        assert run(capsys, "evaluate", str(scrambled), "--format", "json") == ordered

    def test_missing_probability_cells_are_zero(self, capsys, tmp_path):
        _, out, _ = run(capsys, "predict", "--ideal", "--angles", "60,120,0,0,0",
                        "--format", "json")
        rows = [f"{label},{o1},{o2},{p!r}"
                for label, table in json.loads(out)["distributions"].items()
                for o1, row in zip("+-0", table) for o2, p in zip("+-0", row)]
        full, partial = tmp_path / "full.csv", tmp_path / "partial.csv"
        full.write_text("\n".join(["setting,o1,o2,count_or_prob", *rows]) + "\n")
        kept = [row for row in rows if not row.endswith(",0.0")]
        assert len(kept) < len(rows)
        partial.write_text("\n".join(["setting,o1,o2,count_or_prob", *kept]) + "\n")
        expected = run(capsys, "evaluate", str(full), "--format", "json")
        assert expected[0] == 0
        assert run(capsys, "evaluate", str(partial), "--format", "json") == expected

    def test_over_long_count_is_one_short_line(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("setting,o1,o2,count_or_prob\na:b,+,+,1" + "0" * 5000 + "\n")
        code, out, err = run(capsys, "evaluate", str(path))
        assert (code, out) == (2, "")
        assert err == (f"config error: number too long in {str(path)!r}: 5001 digits, "
                       f"the limit is {sys.get_int_max_str_digits()}\n")

    def test_evaluate_with_no_applicable_inequality(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        rows = ["setting,o1,o2,count_or_prob", "a:b,+,+,10", "a:b,-,-,10"]
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, "evaluate", str(path))
        assert code == 3
        assert "applicable" in err


class TestOtherCommands:
    def test_optimize(self, capsys):
        code, out, _ = run(capsys, "optimize", "--ideal", "--ineq", "strong46",
                           "--free", "a,b,a_prime", "--grid-step", "5",
                           "--refine-tol", "0.01", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["value"] == pytest.approx(-1.5, abs=1e-6)
        diffs = payload["canonical_differences"]
        assert all(abs(d - e) < 0.05 for d, e in zip(diffs, (120, 120, 120, 0)))

    def test_verify_theorem(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--U", "1", "--V", "1",
                           "--samples", "1000", "--seed", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["min_vertex_value"] == 0.0
        assert payload["min_sampled_value"] >= 0.0

    def test_lhv_bound(self, capsys):
        code, out, _ = run(capsys, "lhv-bound", "ineq19", "none",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["bound"] == -1.0

    def test_lhv_sample(self, capsys):
        code, out, _ = run(capsys, "lhv-sample", "--functional", "ineq19",
                           "--models", "20", "--strategies", "2", "--seed", "1",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["worst_margin"] <= 1e-9

    def test_unknown_functional(self, capsys):
        code, _, _ = run(capsys, "lhv-bound", "nope")
        assert code == 2


    def test_optimize_grid_over_budget(self, capsys):
        code, out, err = run(capsys, "optimize", "--ideal", "--ineq", "chsh",
                             "--free", "a,b,a_prime", "--grid-step", "0.001")
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("step", ["7", "0", "-5", "nan"])
    def test_optimize_grid_step_not_dividing_180(self, capsys, step):
        code, out, err = run(capsys, "optimize", "--ideal", "--ineq", "chsh",
                             "--free", "a,b", f"--grid-step={step}")
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "grid_step" in err

    def test_optimize_tied_free_angles_take_no_grid_axis(self, capsys):
        args = ("optimize", "--ideal", "--ineq", "strong46", "--grid-step", "5",
                "--format", "json")
        tied = run(capsys, *args, "--free", "a,b,r,a_prime,b_prime")
        assert tied[0] == 0
        assert tied == run(capsys, *args, "--free", "a,b,r")

    def test_optimize_ratio_form_with_no_reference_coincidences(self, capsys):
        # At eta = 0 nothing is detected, so the ascent has no denominator
        # to climb and the final report none to divide by.
        code, out, err = run(capsys, "optimize", "--eta", "0", "--phi", "30",
                             "--ineq", "strong46", "--free", "a,b")
        assert (code, out, err) == (3, "", "error: no r,r coincidences\n")

    def test_module_runs_as_a_script(self, capsys):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "bellbench.cli", "lhv-bound", "chsh27"],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == run(capsys, "lhv-bound", "chsh27")[1]

    def test_optimize_csv_is_only_csv(self, capsys):
        code, out, _ = run(capsys, "optimize", "--ideal", "--ineq", "chsh",
                           "--free", "a,b", "--grid-step", "30", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["id", "value", "bound", "direction", "violated", "margin", "stderr"]
        assert len(rows) == 2 and rows[1][0] == "CHSH27"

    def test_optimize_repeated_free_angle(self, capsys):
        code, out, err = run(capsys, "optimize", "--ideal", "--ineq", "chsh",
                             "--free", "a,a", "--grid-step", "30")
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("samples", ["-1", str(MAX_THEOREM_SAMPLES + 1), "10" * 8])
    def test_verify_theorem_samples_out_of_range(self, capsys, samples):
        code, out, err = run(capsys, "verify-theorem", "--samples", samples)
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_verify_theorem_config_samples_out_of_range(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theorem": {"samples": MAX_THEOREM_SAMPLES + 1}}))
        code, out, err = run(capsys, "verify-theorem", "--config", str(cfg))
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_optimize_refine_tolerance_out_of_range(self, capsys, tol):
        code, out, err = run(capsys, "optimize", "--ideal", "--ineq", "chsh",
                             "--free", "a,b", "--grid-step", "30", f"--refine-tol={tol}")
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_optimize_config_refine_tolerance_out_of_range(self, capsys, tmp_path, tol):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimize": {"refine_tolerance": tol}}))
        code, out, err = run(capsys, "optimize", "--ideal", "--ineq", "chsh",
                             "--free", "a,b", "--grid-step", "30", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--U", "--V"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_verify_theorem_box_out_of_range(self, capsys, flag, value):
        code, out, err = run(capsys, "verify-theorem", f"{flag}={value}")
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["U", "V"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_verify_theorem_config_box_out_of_range(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theorem": {key: value}}))
        code, out, err = run(capsys, "verify-theorem", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_lhv_sample_budget_on_models_times_strategies(self, capsys, monkeypatch):
        # Both sides of the boundary, without drawing a model: a run that
        # passes every check reaches the sampler, which is replaced here.
        class Drawn(Exception):
            pass

        def sampler(*args, **kwargs):
            raise Drawn

        monkeypatch.setattr(cli, "sample_random_model", sampler)
        strategies = 100
        models = MAX_DRAWN_STRATEGIES // strategies
        assert models <= MAX_MODELS and models * strategies == MAX_DRAWN_STRATEGIES
        with pytest.raises(Drawn):
            main(["lhv-sample", "--functional", "ineq19", "--models", str(models),
                  "--strategies", str(strategies)])
        code, out, err = run(capsys, "lhv-sample", "--functional", "ineq19",
                             "--models", str(models + 1), "--strategies", str(strategies))
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag,value", [
        ("--models", 0), ("--models", MAX_MODELS + 1),
        ("--strategies", 0), ("--strategies", MAX_STRATEGIES + 1)])
    def test_lhv_sample_size_out_of_range(self, capsys, flag, value):
        code, out, err = run(capsys, "lhv-sample", "--functional", "ineq19", flag, str(value))
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1


def _subcommands() -> dict:
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


class _Stop(Exception):
    """Raised by a spied library call once it has recorded its inputs."""


@pytest.fixture
def seen(monkeypatch):
    """What the CLI hands the library, by config key; the calls that do
    the work record their inputs and stop the run."""
    record = {}
    real_table = cli.settings_table

    def table(config, pairs, params):
        record.update(angles=config, params=params)
        return real_table(config, pairs, params)

    def simulate(spec, workers):
        record.update(pairs_per_setting=spec.pairs_per_setting, seed=spec.seed, threads=workers)
        raise _Stop

    def optimize(problem, grid_step, refine_tolerance):
        record.update(angles=problem.base_config, params=problem.params,
                      inequality=problem.inequality, free=problem.free_angles,
                      grid_step=grid_step, refine_tolerance=refine_tolerance)
        raise _Stop

    def verify_theorem(U, V, samples, seed):
        record.update(U=U, V=V, samples=samples, seed=seed)
        raise _Stop

    for name, spy in [("settings_table", table), ("simulate", simulate),
                      ("optimize", optimize), ("verify_theorem", verify_theorem)]:
        monkeypatch.setattr(cli, name, spy)
    monkeypatch.delenv("BELLBENCH_SEED", raising=False)
    return record


def _seen_value(record, key):
    if key in ("eta", "phi_deg", "f_override"):
        return getattr(record.get("params"), key, None)
    return record.get(key)


# Per config key: the flag that sets it, what the library then sees, a
# file value and what the library sees of that.  Zero seeds and sample
# counts check that an explicit falsy flag still beats the file.
_SETTINGS = {
    "eta": (["--eta", "0.7"], 0.7, 0.8, 0.8),
    "phi_deg": (["--phi", "20"], 20.0, 25, 25),
    "f_override": (["--f-override", "0.6"], 0.6, 0.5, 0.5),
    "angles": (["--angles", "10,20,30,40,50"], AngleConfig(10, 20, 30, 40, 50),
               {"a": 1, "b": 2, "a_prime": 3, "b_prime": 4, "r": 5}, AngleConfig(1, 2, 3, 4, 5)),
    "pairs_per_setting": (["--pairs", "11"], 11, 12, 12),
    "seed": (["--seed", "0"], 0, 5, 5),
    "threads": (["--threads", "2"], 2, 3, 3),
    "inequality": (["--ineq", "chsh"], "CHSH27", "ineq19", "INEQ19"),
    "free": (["--free", "a,b"], ("a", "b"), ["a", "b_prime"], ("a", "b_prime")),
    "grid_step": (["--grid-step", "30"], 30.0, 45, 45),
    "refine_tolerance": (["--refine-tol", "0.5"], 0.5, 0.25, 0.25),
    "U": (["--U", "2"], 2.0, 3, 3),
    "V": (["--V", "2"], 2.0, 3, 3),
    "samples": (["--samples", "0"], 0, 1000, 1000),
}

# The flags each subcommand needs besides the one under test.
_SOURCE = {"eta": ["--eta", "0.9"], "phi_deg": ["--phi", "30"]}
_BASE = {
    "predict": {**_SOURCE, "angles": ["--angles", "0,0,0,0,0"]},
    "simulate": {**_SOURCE, "angles": ["--angles", "0,0,0,0,0"],
                 "pairs_per_setting": ["--pairs", "10"]},
    "optimize": {**_SOURCE, "inequality": ["--ineq", "chsh"], "free": ["--free", "a,b"]},
    "verify-theorem": {},
}

# What the library sees when neither the flag nor the file sets a key; a
# key missing here has no default, and the run exits 2.
_DEFAULT_SEEN = {
    **{(command, "f_override"): None for command in ("predict", "simulate", "optimize")},
    ("simulate", "seed"): 0, ("simulate", "threads"): 1,
    ("optimize", "angles"): AngleConfig(0, 0, 0, 0, 0),
    ("optimize", "grid_step"): 5.0, ("optimize", "refine_tolerance"): 0.01,
    ("verify-theorem", "U"): 1.0, ("verify-theorem", "V"): 1.0,
    ("verify-theorem", "samples"): 0, ("verify-theorem", "seed"): 0,
}


class TestConfigFile:
    def test_config_drives_simulate(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": {"ideal": True},
            "angles": {"a": 60, "b": 120, "a_prime": 0, "b_prime": 0, "r": 0},
            "run": {"pairs_per_setting": 1000, "seed": 5},
        }))
        code, out, _ = run(capsys, "simulate", "--config", str(cfg),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["seed"] == 5

    def test_unknown_section_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": {}}))
        code, _, err = run(capsys, "predict", "--ideal", "--config", str(cfg),
                           "--angles", "0,0,0,0,0")
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("document,message", [
        ([1], "config root must be an object"),
        ({"run": 5}, "config section 'run' must be an object"),
    ], ids=["root", "section"])
    def test_document_that_is_not_an_object(self, capsys, tmp_path, document, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(document))
        got = run(capsys, "simulate", "--ideal", "--angles", "0,0,0,0,0", "--pairs", "10",
                  "--config", str(cfg))
        assert got == (2, "", f"config error: {message}\n")

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"pairs": 10}}))
        code, _, _ = run(capsys, "simulate", "--ideal", "--config", str(cfg),
                         "--angles", "0,0,0,0,0")
        assert code == 2

    @pytest.mark.parametrize("section,key", [
        (section, key) for section, keys in _CONFIG_SECTIONS.items() for key in keys])
    def test_wrong_value_type_is_usage_error(self, capsys, tmp_path, section, key):
        # A number where a string belongs, a string anywhere else.
        kind = _CONFIG_SECTIONS[section][key]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: 5 if "string" in kind else "0.9"}}))
        code, out, err = run(capsys, "predict", "--ideal", "--angles", "0,0,0,0,0",
                             "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"{section}.{key}" in err

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": {"ideal": True},
            "angles": {"a": 0, "b": 0, "a_prime": 0, "b_prime": 0, "r": 0},
            "run": {"pairs_per_setting": 1000, "seed": 5},
        }))
        code, out, _ = run(capsys, "simulate", "--config", str(cfg),
                           "--seed", "6", "--format", "json")
        assert code == 0
        assert json.loads(out)["seed"] == 6

    @pytest.mark.parametrize("content", [{"bogus": {}}, None], ids=["bogus", "missing"])
    @pytest.mark.parametrize("argv", [
        ["evaluate", "{counts}"], ["lhv-bound", "ineq19"],
        ["lhv-sample", "--functional", "ineq19", "--models", "1"]], ids=lambda a: a[0])
    def test_commands_reading_no_section_still_check_the_file(self, capsys, tmp_path,
                                                             argv, content):
        counts = tmp_path / "run.csv"
        assert run(capsys, "simulate", "--ideal", "--angles", "60,120,0,0,0", "--pairs", "100",
                   "--counts-out", str(counts))[0] == 0
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(json.dumps(content))
        argv = [a.format(counts=counts) for a in argv]
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_every_key_is_a_dest_of_its_readers(self):
        for name, sub in _subcommands().items():
            dests = {a.dest for a in sub._actions}
            for section in sub.get_default("sections"):
                keys = {"angles"} if section == "angles" else set(_CONFIG_SECTIONS[section])
                assert keys <= dests, (name, section, keys - dests)

    @pytest.mark.parametrize("command,section,key", [
        (name, section, key) for name, sub in _subcommands().items()
        for section in sub.get_default("sections")
        for key in (["angles"] if section == "angles" else _CONFIG_SECTIONS[section])
        if key != "ideal"])
    def test_flag_beats_file_beats_default(self, capsys, tmp_path, seen,
                                           command, section, key):
        flag, flag_seen, file_value, file_seen = _SETTINGS[key]
        base = [arg for k, args in _BASE[command].items() if k != key for arg in args]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: file_value if key == "angles" else {key: file_value}}))

        def resolved(*argv):
            seen.clear()
            try:
                code = main([command, *base, *argv])
            except _Stop:
                code = None
            capsys.readouterr()
            return code, _seen_value(seen, key)

        assert resolved(*flag, "--config", str(cfg))[1] == flag_seen
        assert resolved("--config", str(cfg))[1] == file_seen
        code, default_seen = resolved()
        if (command, key) in _DEFAULT_SEEN:
            assert default_seen == _DEFAULT_SEEN[command, key]
        else:
            assert code == 2

    def test_ideal_flag_beats_file(self, capsys, tmp_path, seen):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": {"ideal": False}}))
        run(capsys, "predict", "--ideal", "--angles", "0,0,0,0,0", "--config", str(cfg))
        assert seen["params"] is None
        cfg.write_text(json.dumps({"experiment": {"ideal": True}}))
        run(capsys, "predict", "--angles", "0,0,0,0,0", "--config", str(cfg))
        assert seen["params"] is None
        run(capsys, "predict", "--eta", "0.9", "--phi", "30", "--angles", "0,0,0,0,0")
        assert seen["params"].eta == 0.9

    def test_explicit_zero_samples_beats_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theorem": {"samples": 1000}}))
        code, out, _ = run(capsys, "verify-theorem", "--samples", "0", "--config", str(cfg),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["samples"] == 0 and payload["min_sampled_value"] is None

    def test_explicit_zero_seed_beats_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"seed": 5}}))
        code, out, _ = run(capsys, "simulate", "--ideal", "--angles", "0,0,0,0,0",
                           "--pairs", "10", "--seed", "0", "--config", str(cfg),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["seed"] == 0

    @pytest.mark.parametrize("given,expected", [("flag", 3), ("file", 4), ("neither", 13)])
    @pytest.mark.parametrize("argv,section", [
        (["simulate", "--ideal", "--angles", "0,0,0,0,0", "--pairs", "10"], "run"),
        (["verify-theorem"], "theorem")], ids=["simulate", "verify-theorem"])
    def test_seed_env_only_when_flag_and_file_leave_it_unset(self, capsys, tmp_path,
                                                            monkeypatch, argv, section,
                                                            given, expected):
        monkeypatch.setenv("BELLBENCH_SEED", "13")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {"seed": 4} if given == "file" else {}}))
        flag = ["--seed", "3"] if given == "flag" else []
        code, out, _ = run(capsys, *argv, *flag, "--config", str(cfg), "--format", "json")
        assert code == 0
        assert json.loads(out)["seed"] == expected

    # Each number key read as a float, with the subcommand that reads it.
    @pytest.mark.parametrize("argv,section,key", [
        (["verify-theorem"], "theorem", "U"),
        (["verify-theorem"], "theorem", "V"),
        *[(["predict", "--ideal"], "angles", name) for name in _CONFIG_SECTIONS["angles"]],
        (["optimize", "--ideal", "--ineq", "chsh", "--free", "a,b"], "optimize", "grid_step"),
        (["optimize", "--ideal", "--ineq", "chsh", "--free", "a,b", "--grid-step", "30"],
         "optimize", "refine_tolerance"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_number_beyond_float_range(self, capsys, tmp_path, argv, section, key):
        body = dict.fromkeys(_CONFIG_SECTIONS["angles"], 0) if section == "angles" else {}
        body[key] = 10 ** 400
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: body}))
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"config error: {section}.{key} is beyond the float range\n"

    def test_over_long_integer_is_one_short_line(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"theorem": {"U": -1' + "0" * 5000 + "}}")
        code, out, err = run(capsys, "verify-theorem", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == (f"config error: number too long in {str(cfg)!r}: 5001 digits, "
                       f"the limit is {sys.get_int_max_str_digits()}\n")

    def test_integer_side_beyond_64_bits(self, capsys, tmp_path):
        # It used to end in a casting traceback from the form's kernel.
        big = 123456789012345678901234567890
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theorem": {"U": big}}))
        got = run(capsys, "verify-theorem", "--config", str(cfg), "--samples", "10")
        assert got[0] == 0
        assert got == run(capsys, "verify-theorem", "--U", str(big), "--samples", "10")

    def test_integer_numbers_stay_integers(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theorem": {"U": 1, "V": 2}}))
        code, out, _ = run(capsys, "verify-theorem", "--config", str(cfg), "--format", "json")
        assert code == 0
        assert '"U": 1,' in out and '"V": 2,' in out



# ---------------------------------------------------------------------------
# The boundary: a value bellbench rejects exits 2, a computation that
# cannot proceed exits 3, each with one line on stderr and nothing on stdout.

_REAL = ["--eta", "0.9", "--phi", "30", "--angles", "60,120,0,0,0"]
_OPTIMIZE = ["optimize", "--ideal", "--ineq", "chsh", "--free", "a,b", "--grid-step", "30"]


@pytest.mark.parametrize("argv,prefix", [
    (["predict", "--ideal", "--angles", "60,120,0,0,0", "--ineq", "bogus"], "config error:"),
    (["predict", "--ideal", "--angles", "nan,0,0,0,0"], "config error:"),
    (["predict", "--ideal", "--angles", "1,2,x,4,5"], "config error: bad angle in"),
    (["predict", "--ideal", "--angles", "1e400,0,0,0,0"], "config error:"),
    ([*_OPTIMIZE, "--angles", "nan,0,0,0,0"], "config error:"),
    ([*_OPTIMIZE, "--angles", "1e400,0,0,0,0"], "config error:"),
    (["predict", *_REAL, "--phi-setting", "nan"], "config error:"),
    (["predict", *_REAL, "--phi-setting", "1e400"], "config error:"),
    (["predict", *_REAL, "--phi-setting", "1e308"], "config error:"),
    (["lhv-sample", "--functional", "ineq19", "--models", "2", "--seed", "-1"], "config error:"),
    (["lhv-sample", "--functional", "ineq19", "--models", "2", "--seed", str(2 ** 64)],
     "config error:"),
    (["verify-theorem", "--seed", str(2 ** 64)], "config error:"),
    (["verify-theorem", "--V", "1e308"], "config error:"),
    (["verify-theorem", "--U", "1e308", "--V", "0"], "config error:"),
    (["verify-theorem", "--U", "4.5e153", "--V", "1e154"], "config error:"),
    (["verify-theorem", "--format", "csv"], "bellbench verify-theorem: error:"),
    (["lhv-bound", "ineq19", "--format", "csv"], "bellbench lhv-bound: error:"),
    (["lhv-sample", "--functional", "ineq19", "--models", "2", "--format", "csv"],
     "bellbench lhv-sample: error:"),
    (["lhv-sample", "--functional", "ineq19", "--models", "x"], "bellbench lhv-sample: error:"),
    (["bogus"], "bellbench: error:"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_rejected_value_is_one_line_exit_2(capsys, argv, prefix):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_counts_out_is_a_config_error(capsys, tmp_path, where):
    path = tmp_path / "missing" / "run.csv" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, "simulate", "--ideal", "--angles", "60,120,0,0,0",
                         "--pairs", "10", "--counts-out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: cannot write {str(path)!r}: ")
    assert err.count("\n") == 1


def test_negative_count_is_a_config_error(capsys, tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("setting,o1,o2,count_or_prob\na:b,+,+,-5\n")
    code, out, err = run(capsys, "evaluate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("row,message", [
    ("a:b,+,+", "bad CSV row: ['a:b', '+', '+']"),
    ("ab,+,+,5", "bad setting label 'ab'"),
    ("a:b,x,+,5", "bad outcome symbols in row for 'a:b'"),
    ("a:b,+,+,x", "bad value 'x'"),
    ("a:b,+,+,1.5", "invalid probability table for ('a', 'b'): probability out of range: 1.5"),
    ("a:b,+,+,1" + "0" * 200_000,
     f"cannot read {{path!r}}: field larger than field limit ({csv.field_size_limit()})"),
], ids=["three-fields", "no-colon", "outcome", "count", "probability", "field-limit"])
def test_bad_table_file_is_one_line_exit_2(capsys, tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"setting,o1,o2,count_or_prob\n{row}\n")
    got = run(capsys, "evaluate", str(path))
    assert got == (2, "", f"config error: {message.format(path=str(path))}\n")


@pytest.mark.parametrize("count,code", [(10 ** 400, 2), (92 * 10 ** 20, 0)],
                         ids=["beyond", "within"])
def test_count_total_beyond_float_range_is_a_config_error(capsys, tmp_path, count, code):
    path = tmp_path / "big.csv"
    path.write_text("setting,o1,o2,count_or_prob\n" + f"a:b,+,+,{count}\n" + "".join(
        f"{label},+,+,5\n" for label in ("b_prime:a", "b:a_prime", "a_prime:b_prime")))
    got, out, err = run(capsys, "evaluate", str(path))
    assert got == code
    if code:
        assert out == ""
        assert err == "config error: count total is beyond the float range\n"
    else:
        assert out.startswith("INEQ17") and err == ""


# Per seeded subcommand: a cheap run and the config section holding its
# seed (lhv-sample reads none).
_SEEDED = {
    "simulate": (["simulate", "--ideal", "--angles", "0,0,0,0,0", "--pairs", "10"], "run"),
    "verify-theorem": (["verify-theorem", "--samples", "10"], "theorem"),
    "lhv-sample": (["lhv-sample", "--functional", "ineq19", "--models", "2"], None),
}


@pytest.mark.parametrize("seed,code", [(-1, 2), (2 ** 64, 2), (2 ** 64 - 1, 0), (0, 0)])
@pytest.mark.parametrize("command,given", [
    (command, given) for command, (_, section) in _SEEDED.items()
    for given in ("flag", "file", "env") if section or given != "file"])
def test_one_seed_rule(capsys, tmp_path, monkeypatch, command, given, seed, code):
    argv, section = _SEEDED[command]
    monkeypatch.delenv("BELLBENCH_SEED", raising=False)
    if given == "flag":
        argv = [*argv, "--seed", str(seed)]
    elif given == "file":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {"seed": seed}}))
        argv = [*argv, "--config", str(cfg)]
    else:
        monkeypatch.setenv("BELLBENCH_SEED", str(seed))
    got, out, err = run(capsys, *argv, "--format", "json")
    assert got == code
    if code:
        assert out == ""
        assert err == "config error: seed must be an unsigned 64-bit integer\n"
    else:
        payload = json.loads(out)
        assert payload.get("seed", payload.get("worst_model_seed")) in (seed, seed + 1)


# The argv fuzz: a valid, cheap run of each subcommand (flag -> value; a
# key without dashes is a positional), with one or two values replaced
# from the pool, in any of the three formats.
_FUZZ_BASE = {
    "predict": {"--eta": "0.9", "--phi": "30", "--f-override": "0.8",
                "--angles": "60,120,0,0,0", "--ineq": "all", "--phi-setting": "22.5"},
    "evaluate": {"input": "{counts}"},
    "simulate": {"--eta": "0.9", "--phi": "30", "--angles": "60,120,0,0,0", "--pairs": "100",
                 "--seed": "7", "--threads": "1"},
    "optimize": {"--eta": "0.9", "--phi": "30", "--ineq": "chsh", "--free": "a,b",
                 "--angles": "0,0,0,0,0", "--grid-step": "30", "--refine-tol": "0.01"},
    "verify-theorem": {"--U": "1", "--V": "2", "--samples": "100", "--seed": "3"},
    "lhv-bound": {"functional": "ineq19", "constraint": "none"},
    "lhv-sample": {"--functional": "chsh", "--constraint": "none", "--models": "3",
                   "--strategies": "4", "--seed": "1"},
}

_FUZZ_POOL = (
    "0", "-1", "1", "30", "90", "0.5", "nan", "inf", "-inf", "1e308", "1e400", "", "x",
    str(2 ** 64), "all", "chsh", "ineq19", "strong41", "strong46", "bell65", "ch47", "fc48",
    "none", "gr", "supplementary", "60,120,0,0,0", "nan,0,0,0,0", "1e400,0,0,0,0", "0,0,0,0",
    "a,b", "a,a", "a_prime,r")


@st.composite
def _fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_BASE)))
    args = dict(_FUZZ_BASE[command])
    for key in draw(st.lists(st.sampled_from(sorted(args)), min_size=1, max_size=2)):
        args[key] = draw(st.sampled_from(_FUZZ_POOL))
    args["--format"] = draw(st.sampled_from(("text", "json", "csv")))
    return command, args


def _no_constant(name):
    raise ValueError(f"JSON output holds {name}")


def _boundary_holds(command, args, counts) -> int:
    """Run one argv and check the boundary: nothing escapes ``main`` (an
    overflow warning neither), the exit code is 0, 2 or 3, a failure is
    one stderr line and no stdout, and a success prints no nan or inf."""
    argv = [command] + [f"{k}={v}" if k.startswith("--") else v.format(counts=counts)
                        for k, v in args.items()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), argv
    if code:
        assert out == "", argv
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    elif args["--format"] == "json":
        json.loads(out, parse_constant=_no_constant)
    else:
        assert out and not re.search(r"\b(nan|inf)\b", out), (argv, out)
    return code


@pytest.fixture(scope="module")
def fuzz_counts(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "run.csv"
    assert main(["simulate", "--ideal", "--angles", "60,120,0,0,0", "--pairs", "100",
                 "--counts-out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", sorted(_FUZZ_BASE))
def test_fuzz_base_runs(fuzz_counts, command, fmt):
    no_csv = command in ("verify-theorem", "lhv-bound", "lhv-sample")
    code = _boundary_holds(command, {**_FUZZ_BASE[command], "--format": fmt}, fuzz_counts)
    assert code == (2 if no_csv and fmt == "csv" else 0)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_fuzzed_argv())
def test_argv_fuzz(fuzz_counts, case):
    _boundary_holds(*case, fuzz_counts)


# The config-file fuzz: a valid, cheap config for the subcommands that
# read sections, with one or two keys, or an unknown key or section, set
# to a value from the pool.  json.dumps writes NaN and Infinity literals.
_FUZZ_CONFIG = {
    "experiment": {"ideal": False, "eta": 0.9, "phi_deg": 30, "f_override": 0.8},
    "angles": {"a": 60, "b": 120, "a_prime": 0, "b_prime": 0, "r": 0},
    "run": {"pairs_per_setting": 100, "seed": 7, "threads": 1},
    "optimize": {"inequality": "chsh", "free": "a,b", "grid_step": 30, "refine_tolerance": 0.01},
    "theorem": {"U": 1, "V": 2, "samples": 100, "seed": 3},
}

_CONFIG_READERS = ("predict", "simulate", "optimize", "verify-theorem")

_CONFIG_POOL = (
    10 ** 400, -10 ** 400, 2 ** 64, math.nan, math.inf, -math.inf, -1, -0.5, 0, 1, 45, 1e308,
    True, "", "x", "a,b", "strong46", [], ["a", "r"], [1], {}, {"a": 1}, None)


@st.composite
def _fuzzed_config(draw):
    command = draw(st.sampled_from(_CONFIG_READERS))
    config = {section: dict(body) for section, body in _FUZZ_CONFIG.items()}
    keys = [(section, key) for section, body in config.items() for key in body]
    for section, key in draw(st.lists(st.sampled_from(
            keys + [("run", "bogus"), ("bogus", "a")]), min_size=1, max_size=2)):
        config.setdefault(section, {})[key] = draw(st.sampled_from(_CONFIG_POOL))
    return command, config, draw(st.sampled_from(("text", "json")))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "cfg.json"


@pytest.mark.parametrize("command", _CONFIG_READERS)
def test_config_fuzz_base_runs(config_path, command):
    config_path.write_text(json.dumps(_FUZZ_CONFIG))
    assert _boundary_holds(command, {"--config": str(config_path), "--format": "json"}, None) == 0


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_fuzzed_config())
def test_config_fuzz(config_path, case):
    command, config, fmt = case
    config_path.write_text(json.dumps(config))
    _boundary_holds(command, {"--config": str(config_path), "--format": fmt}, None)
