"""Quick mode: the closed-form figures, every workload's checks on tiny
request lists, and proof that each check rejects a wrong output.

    python3 perfbench/run.py --quick

Exits 0 when every check passes on the real outputs (known-fault requests
excepted) and fails on every deliberately corrupted one.
"""

from __future__ import annotations

import dataclasses
import json

import bellbench as bb

import reference as ref
import workloads as wl


def _bump(report, delta: float = 1e-3):
    return dataclasses.replace(report, value=report.value + delta)


def _counts_with(result, label, cells):
    counts = dict(result.counts)
    counts[label] = bb.CountTable(
        tuple(tuple(cells[3 * i:3 * i + 3]) for i in range(3)), sum(cells))
    return counts


def wrong_outputs(req: wl.Request, out):
    """(what is wrong, output[, memo]) that the request's check must reject;
    a memo replaces the state carried over from earlier requests."""
    kind = req.kind
    if kind == "predict":
        table, reports = out
        yield "a report value off by 1e-3", (table, [_bump(reports[0])] + reports[1:])
        yield "a report missing", (table, reports[1:])
        p = table.get(wl.PAIRS[0]).p
        swapped = bb.JointDistribution(((p[0][1], p[0][0], p[0][2]),) + tuple(p[1:]))
        yield "two table cells swapped", (
            bb.SettingsTable({**table.entries, wl.PAIRS[0]: swapped}), reports)
    elif kind == "solve":
        yield "the reported value off by 1e-3", dataclasses.replace(
            out, best_report=_bump(out.best_report))
        config = out.best_config.replace(a=out.best_config.a + 1.0)
        if req.args["ineq"] == "STRONG46":
            config = config.replace(a_prime=config.r, b_prime=config.r)
        if req.args["ineq"] == "BELL65_28":
            config = config.replace(b_prime=config.a_prime)
        report = bb.FUNCTIONALS[req.args["ineq"]].evaluate(
            bb.settings_table(config, wl.PAIRS, req.args["params"]))
        moved = dataclasses.replace(out, best_config=config, best_report=report,
                                    best_margin=report.margin)
        if req.args["eta"] is None:
            yield "angles 1 degree off the optimum, value consistent", moved
        if "a" not in req.args["free"]:
            yield "a fixed angle moved", moved
    elif kind in ("small_run", "large_run"):
        result, reports = out[0], out[1]
        label = wl.PAIRS[0]
        cells = list(result.counts[label].flat())
        shifted = cells[:]
        src, dst = (0, 1) if cells[0] > 0 else (1, 0)
        shifted[src], shifted[dst] = shifted[src] - 1, shifted[dst] + 1
        rest = out[2:]
        yield "one count moved between cells", (
            dataclasses.replace(result, counts=_counts_with(result, label, shifted)), reports, *rest)
        # Every pair at (a, b) detected as (+, +), reports recomputed: consistent
        # with the counts, but far from the analytic value.
        skewed = _counts_with(result, label, [sum(cells)] + [0] * 8)
        yield "counts drawn from the wrong distribution", (
            dataclasses.replace(result, counts=skewed), bb.run_reports(skewed), *rest)
        with_stderr = [r for r in reports if r.stderr is not None]
        if with_stderr:
            r = with_stderr[0]
            wrong = [dataclasses.replace(x, stderr=x.stderr * 1.01) if x is r else x for x in reports]
            yield "a stderr off by 1%", (result, wrong, *rest)
        if kind == "large_run":
            code, text, size = rest
            payload = json.loads(text)
            payload["reports"][0]["value"] += 1e-9
            yield "cli evaluate output altered", (result, reports, code, json.dumps(payload), size)
            yield "cli evaluate exit code 3", (result, reports, 3, text, size)
            other = {lb: (tuple(shifted) if lb == label else result.counts[lb].flat())
                     for lb in wl.PAIRS}
            yield "counts that differ from the other worker count", out, {
                ("large", req.args["run_id"]): other}
    elif kind == "local_bound":
        yield "bound off by 0.5", dataclasses.replace(out, bound=out.bound + 0.5)
        blank = {name: "0" for name in out.witness_side1}
        yield "a witness with no detections", dataclasses.replace(out, witness_side1=blank)
    elif kind == "model_batch":
        model, table, reports = out[0]
        bound = reports[0].bound
        violating = dataclasses.replace(reports[0], value=bound - 0.1, margin=0.1, violated=True)
        yield "a local model violating its bound", [(model, table, [violating] + reports[1:])] + out[1:]
        yield "a report value off by 1e-3", [(model, table, [_bump(reports[0])] + reports[1:])] + out[1:]
    elif kind == "theorem":
        yield "vertex minimum off by 0.1", dataclasses.replace(
            out, min_vertex_value=out.min_vertex_value + 0.1)
        yield "sampled minimum below the vertex minimum", dataclasses.replace(
            out, min_sampled_value=out.min_vertex_value - 0.1)


def main(out_dir: str) -> int:
    problems = []
    for fid, value in ref.IDEAL_OPTIMA.items():
        grid = ref.grid_optimum(fid)
        print(f"ideal optimum {fid:10s} closed form {value:+.12f}  reference grid {grid:+.12f}")
        if abs(grid - value) > 1e-9:
            problems.append(f"{fid}: closed form {value} but grid minimum {grid}")
    for workload in wl.WORKLOADS:
        requests = wl.build(workload, 0, quick=True, tmp_dir=out_dir)
        memo: dict = {}
        known = rejected = 0
        for req in requests:
            out = wl.run(req)
            error = wl.check(req, out, memo)
            if error:
                if req.known_fault:
                    known += 1
                    print(f"  known fault: {error}")
                else:
                    problems.append(f"{workload} {req.kind}: {error}")
                continue
            for what, wrong, *trial_memo in wrong_outputs(req, out):
                trial = trial_memo[0] if trial_memo else dict(memo)
                if wl.check(req, wrong, trial) is None:
                    problems.append(f"{workload} {req.kind}: check accepts {what}")
                else:
                    rejected += 1
        print(f"{workload}: {len(requests)} requests checked, {known} known-fault failures, "
              f"{rejected} wrong outputs rejected")
    for line in problems:
        print(f"PROBLEM {line}")
    print("quick check", "failed" if problems else "passed")
    return 1 if problems else 0
