"""The three workloads: request lists built from a seed, how each request
runs, and how its output is checked against :mod:`reference`.

A request list is one round.  Its make-up (how many requests of each
class, and their sizes) is the same for every seed; the seed only picks
angles, apparatus, model and Monte Carlo seeds.  So every round costs
about the same and fails the same share of requests, whatever the seed.

Requests call bellbench through module attributes at call time
(``bb.optimize``, ``bb.cli.main``), so the traced run sees them through
the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Optional

import bellbench as bb
import bellbench.cli  # binds bb.cli

import reference as ref

WORKLOADS = ("design", "analyze", "certify")
PAIRS = ref.ALL_PAIRS
ANGLE_NAMES = ("a", "b", "a_prime", "b_prime", "r")
TABLE_FUNCTIONALS = tuple(ref.FUNCTIONALS)
ONE_CHANNEL_BOUNDS = {"CH47": 0.0, "FC48": 0.25}  # both read "<="

# Functionals whose engine bound matches the registry today; BELL65_28's
# does not (see the local_bound requests), so random models are not
# checked against its registry bound.  The ratio forms hold only under a
# detection constraint: an unconstrained mixture can put numerator weight
# on strategies with no (r, r) coincidences, so "none" models are checked
# on the linear forms alone.
SAMPLED_FUNCTIONALS = ("INEQ17", "INEQ19", "CHSH27", "STRONG41", "STRONG46")
LINEAR_FUNCTIONALS = ("INEQ17", "INEQ19", "CHSH27")

# Standard errors an estimate may sit from its analytic value.
Z_LIMIT = 7.0


@dataclass
class Request:
    kind: str
    args: dict
    known_fault: bool = False  # fails today because of a fault named in CHANGES.md


def _close(x: float, y: float, tol: float = 1e-9) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def _angles(config) -> dict:
    return {n: getattr(config, n) for n in ANGLE_NAMES}


def _table_cells(table) -> dict:
    return {label: table.get(label).flat() for label in table}


def _report_errors(reports, expected: dict, bounds: dict, tol: float = 1e-9) -> Optional[str]:
    """Each report's value matches the reference, its bound is the paper's,
    and its margin and verdict follow from value and bound."""
    got = [r.id for r in reports]
    if sorted(got) != sorted(expected):
        return f"reports {got}, expected {sorted(expected)}"
    for r in reports:
        if not _close(r.value, expected[r.id], tol):
            return f"{r.id} value {r.value!r}, reference {expected[r.id]!r}"
        bound, direction = bounds[r.id]
        margin = bound - r.value if direction == ">=" else r.value - bound
        if r.bound != bound or r.direction != direction:
            return f"{r.id} bound {r.direction} {r.bound}, paper {direction} {bound}"
        if not _close(r.margin, margin, 1e-12) or r.violated != (margin > 0):
            return f"{r.id} margin {r.margin!r} / violated {r.violated} inconsistent"
    return None


_TABLE_BOUNDS = {fid: (b, ">=") for fid, b in ref.PAPER_BOUNDS.items()}
_ALL_BOUNDS = {**_TABLE_BOUNDS, **{k: (v, "<=") for k, v in ONE_CHANNEL_BOUNDS.items()}}


# ---------------------------------------------------------------------------
# design: predictions and angle searches.

def run_predict(req: Request):
    params = req.args["params"]
    table = bb.settings_table(req.args["config"], PAIRS, params)
    reports = [f.evaluate(table) for f in bb.FUNCTIONALS.values()]
    if params is not None:
        reports += [bb.eval_ch(params), bb.eval_fc(params)]
    return table, reports


def check_predict(req: Request, out, memo) -> Optional[str]:
    table, reports = out
    a = req.args
    cells = ref.quantum_table(a["angles"], a["eta"], a["phi"])
    got = _table_cells(table)
    for label in PAIRS:
        if any(abs(x - y) > 1e-12 for x, y in zip(got[label], cells[label])):
            return f"cells at {label}: {got[label]}, reference {cells[label]}"
    expected = {fid: ref.functional_value(fid, cells) for fid in TABLE_FUNCTIONALS}
    if a["eta"] is not None:
        expected["CH47"], expected["FC48"] = ref.one_channel(a["eta"], a["phi"])
    return _report_errors(reports, expected, _ALL_BOUNDS)


def run_solve(req: Request):
    a = req.args
    problem = bb.OptimizationProblem(a["ineq"], a["free"], a["base"], a["params"])
    return bb.optimize(problem, grid_step=a["step"])


def check_solve(req: Request, result, memo) -> Optional[str]:
    a = req.args
    fid = a["ineq"]
    angles = _angles(result.best_config)
    base = _angles(a["base"])
    pinned = PINNED.get(fid, {})
    for name in ANGLE_NAMES:
        if name in pinned:
            if angles[name] != angles[pinned[name]]:
                return f"{fid} optimum leaves {name} off {pinned[name]}: {angles}"
        elif name not in a["free"] and angles[name] != base[name]:
            return f"fixed angle {name} moved from {base[name]} to {angles[name]}"
    cells = ref.quantum_table(angles, a["eta"], a["phi"])
    err = _report_errors([result.best_report], {fid: ref.functional_value(fid, cells)},
                         _TABLE_BOUNDS)
    if err:
        return err
    if not _close(result.best_margin, result.best_report.margin, 1e-12):
        return f"best_margin {result.best_margin!r} != report margin {result.best_report.margin!r}"
    if a["eta"] is None and abs(result.best_report.value - ref.IDEAL_OPTIMA[fid]) > 1e-5:
        return f"ideal optimum {result.best_report.value!r}, closed form {ref.IDEAL_OPTIMA[fid]!r}"
    return None


def _apparatus(rng: random.Random, real: bool, eta_range, phi_range):
    if not real:
        return None, None, None
    eta = rng.uniform(*eta_range)
    phi = rng.uniform(*phi_range)
    return bb.ExperimentParams(eta=eta, phi_deg=phi), eta, phi


def _random_config(rng: random.Random):
    return bb.AngleConfig(*(rng.uniform(0.0, 180.0) for _ in ANGLE_NAMES))


# (functional, free angles, grid step, real apparatus): 2-4 free angles at
# 5-15 degrees.  Ideal solves leave at most one of a, b, a', b' fixed, so
# the closed-form optimum is reachable from any seeded base.
SOLVES = (
    ("INEQ19", ("a", "b", "a_prime"), 10.0, False),
    ("CHSH27", ("b", "a_prime", "b_prime"), 10.0, False),
    ("STRONG46", ("a", "b", "r"), 15.0, False),
    ("BELL65_28", ("a", "b", "a_prime"), 15.0, False),
    ("STRONG41", ("a", "b"), 5.0, True),
    ("INEQ19", ("a", "b", "a_prime", "b_prime"), 15.0, True),
)
QUICK_SOLVES = tuple((f, free, 30.0, real) for f, free, _, real in SOLVES)
# The reduced geometries the symmetric forms are defined on.
PINNED = {"STRONG46": {"a_prime": "r", "b_prime": "r"}, "BELL65_28": {"b_prime": "a_prime"}}


def build_design(rng: random.Random, quick: bool) -> list[Request]:
    requests = []
    n_real, n_ideal = (3, 1) if quick else (86, 28)
    for real, count in ((True, n_real), (False, n_ideal)):
        for _ in range(count):
            config = _random_config(rng)
            params, eta, phi = _apparatus(rng, real, (0.5, 1.0), (15.0, 90.0))
            requests.append(Request("predict", {
                "config": config, "params": params, "angles": _angles(config),
                "eta": eta, "phi": phi}))
    for fid, free, step, real in (QUICK_SOLVES if quick else SOLVES):
        base = _random_config(rng)
        params, eta, phi = _apparatus(rng, real, (0.5, 1.0), (15.0, 90.0))
        requests.append(Request("solve", {
            "ineq": fid, "free": free, "step": step, "base": base,
            "params": params, "eta": eta, "phi": phi}))
    return requests


# ---------------------------------------------------------------------------
# analyze: finite-count runs.

def _counts(result) -> dict:
    return {label: result.counts[label].flat() for label in PAIRS}


def run_small(req: Request):
    result = bb.simulate(req.args["spec"])
    return result, bb.run_reports(result.counts)


def _check_counts(req: Request, counts: dict, reports) -> Optional[str]:
    a = req.args
    n = a["pairs"]
    for label in PAIRS:
        c = counts[label]
        if sum(c) != n or any(not isinstance(v, int) or v < 0 for v in c):
            return f"counts at {label} {c} do not sum to {n}"
    emp = {label: tuple(v / n for v in counts[label]) for label in PAIRS}
    sizes = {label: n for label in PAIRS}
    got = [r.id for r in reports]
    if sorted(got) != sorted(TABLE_FUNCTIONALS):
        return f"reports {got}, expected every table functional"
    for r in reports:
        estimate = ref.functional_value(r.id, emp)
        if not _close(r.value, estimate):
            return f"{r.id} value {r.value!r}, empirical reference {estimate!r}"
        truth = ref.functional_value(r.id, a["cells"])
        sigma = ref.functional_stderr(r.id, a["cells"], sizes)
        if abs(r.value - truth) > Z_LIMIT * sigma + 1e-12:
            return (f"{r.id} estimate {r.value!r} is {abs(r.value - truth) / sigma:.1f} "
                    f"stderr from its analytic value {truth!r}")
        if r.stderr is not None:
            expected = ref.functional_stderr(r.id, emp, sizes)
            if not _close(r.stderr, expected, 1e-9):
                return f"{r.id} stderr {r.stderr!r}, multinomial reference {expected!r}"
    return None


def check_small(req: Request, out, memo) -> Optional[str]:
    result, reports = out
    return _check_counts(req, _counts(result), reports)


def _write_counts_csv(path: str, result) -> int:
    symbols = ("+", "-", "0")
    lines = ["setting,o1,o2,count_or_prob"]
    for label in PAIRS:
        flat = result.counts[label].flat()
        for k, v in enumerate(flat):
            lines.append(f"{label[0]}:{label[1]},{symbols[k // 3]},{symbols[k % 3]},{v}")
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(data)
    return len(data.encode())


def run_large(req: Request):
    a = req.args
    result = bb.simulate(a["spec"], workers=a["workers"])
    reports = bb.run_reports(result.counts)
    path = os.path.join(a["tmp_dir"], f"counts-{os.getpid()}-{a['run_id']}-{a['workers']}.csv")
    try:
        size = _write_counts_csv(path, result)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = bb.cli.main(["evaluate", path, "--format", "json"])
    finally:
        if os.path.exists(path):
            os.remove(path)
    return result, reports, code, buffer.getvalue(), size


def check_large(req: Request, out, memo) -> Optional[str]:
    result, reports, code, text, _ = out
    counts = _counts(result)
    err = _check_counts(req, counts, reports)
    if err:
        return err
    if code != 0:
        return f"cli evaluate exited {code}"
    if json.loads(text)["reports"] != [r.as_dict() for r in reports]:
        return "cli evaluate of the counts CSV differs from run_reports"
    first = memo.setdefault(("large", req.args["run_id"]), counts)
    if first != counts:
        return f"counts differ between worker counts / rounds for run {req.args['run_id']}"
    return None


SMALL_SIZES = (1_000,) * 4 + (3_000,) * 4 + (10_000,) * 16 + (30_000,) * 4 + (100_000,) * 4
LARGE_SIZES = (1_000_000, 3_000_000)


def _run_spec(rng: random.Random, pairs: int):
    config = _random_config(rng)
    # One kind of apparatus for every run: the sampler's cost depends on the
    # shape of the cell distribution, and a seeded mix of shapes would move
    # the median request between seeds.  The wide aperture keeps enough
    # (r, r) coincidences at 10^3 pairs for the ratio forms.
    params, eta, phi = _apparatus(rng, True, (0.85, 0.95), (65.0, 75.0))
    table = bb.settings_table(config, PAIRS, params)
    spec = bb.RunSpec(pairs_per_setting=pairs, seed=rng.getrandbits(63), settings=table)
    cells = ref.quantum_table(_angles(config), eta, phi)
    return {"spec": spec, "pairs": pairs, "cells": cells}


def build_analyze(rng: random.Random, quick: bool, tmp_dir: str) -> list[Request]:
    requests = []
    for pairs in ((1_000, 10_000) if quick else SMALL_SIZES):
        requests.append(Request("small_run", _run_spec(rng, pairs)))
    for run_id, pairs in enumerate((300_000,) if quick else LARGE_SIZES):
        args = _run_spec(rng, pairs)
        for workers in (1, 2):
            requests.append(Request("large_run", {
                **args, "workers": workers, "run_id": run_id, "tmp_dir": tmp_dir}))
    return requests


# ---------------------------------------------------------------------------
# certify: local bounds, random local models, the algebraic theorem.

def _required_pairs(fid: str):
    numer, denom, _ = ref.FUNCTIONALS[fid]
    return tuple(set(numer) | set(denom or {}))


def run_bound(req: Request):
    return bb.local_bound(req.args["functional"], req.args["constraint"])


def check_bound(req: Request, result, memo) -> Optional[str]:
    fid, constraint = req.args["functional"], req.args["constraint"]
    if result.bound != ref.PAPER_BOUNDS[fid]:
        return f"{fid}/{constraint}: engine bound {result.bound}, paper bound {ref.PAPER_BOUNDS[fid]}"
    side1 = ref.deterministic_side(result.witness_side1)
    side2 = ref.deterministic_side(result.witness_side2)
    if not (ref.meets_constraint(side1, constraint) and ref.meets_constraint(side2, constraint)):
        return f"{fid}/{constraint}: witness breaks the constraint"
    try:
        value = ref.functional_value(
            fid, ref.ensemble([(side1, side2)], [1.0], _required_pairs(fid)))
    except KeyError as exc:
        return f"{fid}/{constraint}: witness lacks orientation {exc}"
    except ZeroDivisionError:
        return f"{fid}/{constraint}: witness has no (r, r) coincidences"
    if not _close(value, result.bound, 1e-12):
        return f"{fid}/{constraint}: witness gives {value!r}, bound {result.bound!r}"
    if result.n_strategies < 1:
        return f"{fid}/{constraint}: no strategies examined"
    return None


def run_batch(req: Request):
    out = []
    for seed, n, constraint, tie in req.args["models"]:
        model = bb.sample_random_model(seed, n, constraint, tie_primed_to_r=tie)
        table = bb.ensemble_table(model, PAIRS)
        out.append((model, table, [bb.FUNCTIONALS[f].evaluate(table)
                                   for f in _sampled(constraint)]))
    return out


def _sampled(constraint: str):
    return LINEAR_FUNCTIONALS if constraint == "none" else SAMPLED_FUNCTIONALS


def check_batch(req: Request, out, memo) -> Optional[str]:
    for (seed, _, constraint, tie), (model, table, reports) in zip(req.args["models"], out):
        sides = [(dict(rf.side1), dict(rf.side2)) for rf in model.strategies]
        for s1, s2 in sides:
            if not (ref.meets_constraint(s1, constraint) and ref.meets_constraint(s2, constraint)):
                return f"model {seed}: a strategy breaks the {constraint} constraint"
            if tie and not (s1["a_prime"] == s1["r"] and s2["b_prime"] == s2["r"]):
                return f"model {seed}: primed slots not tied to r"
        cells = ref.ensemble(sides, model.weights)
        got = _table_cells(table)
        for label in PAIRS:
            if any(abs(x - y) > 1e-12 for x, y in zip(got[label], cells[label])):
                return f"model {seed}: ensemble cells at {label} differ from the reference"
        for r in reports:
            if r.margin > 1e-9:
                return f"model {seed}: local model violates {r.id} by {r.margin!r}"
        expected = {fid: ref.functional_value(fid, cells) for fid in _sampled(constraint)}
        err = _report_errors(reports, expected, _TABLE_BOUNDS)
        if err:
            return f"model {seed}: {err}"
    return None


def run_theorem(req: Request):
    a = req.args
    return bb.verify_theorem(a["U"], a["V"], samples=a["samples"], seed=a["seed"])


def check_theorem(req: Request, report, memo) -> Optional[str]:
    U, V = req.args["U"], req.args["V"]
    tol = 1e-9 * max(1.0, U * V)
    expected = ref.z_vertex_min(U, V)
    if abs(report.min_vertex_value - expected) > tol:
        return f"min vertex value {report.min_vertex_value!r}, reference {expected!r}"
    if report.min_vertex_value < -tol:
        return f"min vertex value {report.min_vertex_value!r} is negative"
    if abs(ref.z_form(*report.argmin_vertex, U, V) - report.min_vertex_value) > tol:
        return "argmin vertex does not attain the reported minimum"
    if report.min_sampled_value is None or report.min_sampled_value < report.min_vertex_value - tol:
        return f"sampled minimum {report.min_sampled_value!r} below the vertex minimum"
    return None


CONSTRAINTS = ("none", "supplementary", "gr")
THEOREM_SAMPLES = (100_000, 100_000, 300_000, 1_000_000)


def build_certify(rng: random.Random, quick: bool) -> list[Request]:
    requests = []
    for fid in TABLE_FUNCTIONALS:
        for constraint in CONSTRAINTS:
            requests.append(Request(
                "local_bound", {"functional": fid, "constraint": constraint},
                known_fault=fid == "BELL65_28"))
    for i in range(2 if quick else 60):
        models = [(rng.getrandbits(32), 4, CONSTRAINTS[(i + k) % 3], (i + k) % 2 == 1)
                  for k in range(6)]
        requests.append(Request("model_batch", {"models": models}))
    for samples in ((1_000,) if quick else THEOREM_SAMPLES):
        requests.append(Request("theorem", {
            "U": rng.uniform(0.25, 4.0), "V": rng.uniform(0.25, 4.0),
            "samples": samples, "seed": rng.getrandbits(32)}))
    return requests


def build(workload: str, seed: int, quick: bool = False, tmp_dir: str = ".") -> list[Request]:
    """One round of ``workload``, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "design":
        requests = build_design(rng, quick)
    elif workload == "analyze":
        requests = build_analyze(rng, quick, tmp_dir)
    elif workload == "certify":
        requests = build_certify(rng, quick)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(requests)
    return requests


KINDS = {
    "predict": (run_predict, check_predict),
    "solve": (run_solve, check_solve),
    "small_run": (run_small, check_small),
    "large_run": (run_large, check_large),
    "local_bound": (run_bound, check_bound),
    "model_batch": (run_batch, check_batch),
    "theorem": (run_theorem, check_theorem),
}


def run(req: Request) -> Any:
    return KINDS[req.kind][0](req)


def check(req: Request, out: Any, memo: dict) -> Optional[str]:
    """None when ``out`` is right; otherwise what is wrong.  ``memo`` carries
    state across requests (the counts a run must repeat exactly)."""
    return KINDS[req.kind][1](req, out, memo)


def work_done(req: Request, out: Any) -> dict:
    """Work counted at the request boundary for the per-layer metrics."""
    if req.kind == "local_bound":
        return {"strategies_examined": out.n_strategies}
    if req.kind == "theorem":
        return {"theorem_samples": req.args["samples"]}
    if req.kind == "large_run":
        return {"pairs_drawn": req.args["pairs"] * len(PAIRS), "csv_bytes": out[4]}
    return {}
