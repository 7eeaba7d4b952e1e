"""Command-line interface: predict, evaluate, simulate, optimize,
verify-theorem, lhv-bound, lhv-sample.

Exit codes: 0 success, 2 configuration/usage error, 3 runtime error.
Numeric CSV/text output is printed with 17 significant digits so every
double survives a round trip; JSON uses Python's shortest-round-trip
float serialization, which is equally lossless.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Optional, Sequence

from .inequalities import (
    FUNCTIONALS,
    InequalityReport,
    applicable_reports,
    eval_ch,
    eval_fc,
    normalize_functional_id,
    verify_theorem,
)
from .lhv import CONSTRAINTS, MAX_STRATEGIES, ensemble_table, local_bound, sample_random_model
from .model import (
    AngleConfig,
    CountTable,
    EvaluationError,
    JointDistribution,
    Outcome,
    OUTCOMES,
    SettingsTable,
)
from .montecarlo import RunSpec, run_reports, simulate
from .optimize import GridBudgetError, OptimizationProblem, optimize
from .qm import ExperimentParams, settings_table

ALL_PAIRS = (
    ("a", "b"), ("b_prime", "a"), ("b", "a_prime"), ("a_prime", "b_prime"),
    ("a_prime", "r"), ("r", "b_prime"), ("r", "r"),
)

_FROM_SYMBOL = {o.value: i for i, o in enumerate(OUTCOMES)}


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# Config file handling: a JSON document with per-mode sections.  Every key
# takes one JSON type; null is the same as leaving the key out.

_KINDS = {
    "a boolean": lambda v: isinstance(v, bool),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a string or a list of strings": lambda v: isinstance(v, str) or (
        isinstance(v, list) and all(isinstance(x, str) for x in v)),
}

_CONFIG_SECTIONS = {
    "experiment": {"ideal": "a boolean", "eta": "a number", "phi_deg": "a number",
                   "f_override": "a number"},
    "angles": {name: "a number" for name in ("a", "b", "a_prime", "b_prime", "r")},
    "run": {"pairs_per_setting": "an integer", "seed": "an integer", "threads": "an integer"},
    "optimize": {"inequality": "a string", "free": "a string or a list of strings",
                 "grid_step": "a number", "refine_tolerance": "a number"},
    "theorem": {"U": "a number", "V": "a number", "samples": "an integer", "seed": "an integer"},
}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cfg = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    for section, body in cfg.items():
        if section not in _CONFIG_SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        kinds = _CONFIG_SECTIONS[section]
        unknown = set(body) - set(kinds)
        if unknown:
            raise ConfigError(
                f"unknown keys in section {section!r}: {sorted(unknown)}")
        for key, value in list(body.items()):
            if value is None:
                del body[key]
            elif not _KINDS[kinds[key]](value):
                raise ConfigError(f"{section}.{key} must be {kinds[key]}, got {value!r}")
    return cfg


def _default_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("BELLBENCH_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"BELLBENCH_SEED is not an integer: {env!r}") from exc
    return 0


def _parse_angles(text: Optional[str], cfg: dict) -> AngleConfig:
    if text is not None:
        parts = text.split(",")
        if len(parts) != 5:
            raise ConfigError("--angles needs five comma-separated degrees: a,b,a',b',r")
        try:
            a, b, ap, bp, r = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"bad angle in {text!r}") from exc
        return AngleConfig(a, b, ap, bp, r)
    section = cfg.get("angles")
    if section is not None:
        try:
            return AngleConfig(**{k: float(v) for k, v in section.items()})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad angles section: {exc}") from exc
    raise ConfigError("no angles given (use --angles or a config file)")


def _parse_params(args, cfg: dict) -> Optional[ExperimentParams]:
    section = cfg.get("experiment", {})
    ideal = args.ideal or section.get("ideal", False)
    eta = args.eta if args.eta is not None else section.get("eta")
    phi = args.phi if args.phi is not None else section.get("phi_deg")
    f_override = (args.f_override if args.f_override is not None
                  else section.get("f_override"))
    if ideal:
        if eta is not None or phi is not None:
            raise ConfigError("--ideal conflicts with --eta/--phi")
        return None
    if eta is None or phi is None:
        raise ConfigError("real source needs --eta and --phi (or --ideal)")
    try:
        return ExperimentParams(eta=eta, phi_deg=phi, f_override=f_override)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Output helpers.

def _emit_reports(reports: Sequence[InequalityReport], fmt: str, out) -> None:
    if fmt == "json":
        json.dump({"reports": [r.as_dict() for r in reports]}, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["id", "value", "bound", "direction", "violated", "margin", "stderr"])
        for r in reports:
            writer.writerow([
                r.id, _fmt(r.value), _fmt(r.bound), r.direction,
                str(r.violated).lower(), _fmt(r.margin),
                "" if r.stderr is None else _fmt(r.stderr),
            ])
    else:
        for r in reports:
            mark = "VIOLATED" if r.violated else "satisfied"
            err = "" if r.stderr is None else f"  stderr={_fmt(r.stderr)}"
            out.write(
                f"{r.id:10s} value={_fmt(r.value)}  bound {r.direction} {_fmt(r.bound)}"
                f"  margin={_fmt(r.margin)}  [{mark}]{err}\n")


def _label_str(label) -> str:
    return ":".join(label)


def _write_table_csv(out, tables, counts: bool) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["setting", "o1", "o2", "count_or_prob"])
    for label, table in tables.items():
        for o1 in Outcome:
            for o2 in Outcome:
                v = table.count(o1, o2) if counts else table.prob(o1, o2)
                writer.writerow([
                    _label_str(label), o1.value, o2.value,
                    str(v) if counts else _fmt(v),
                ])


def read_table_csv(path: str):
    """Read the CSV table format; returns (counts_by_label or None,
    probabilities SettingsTable or None)."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != ["setting", "o1", "o2", "count_or_prob"]:
                raise ConfigError(f"bad CSV header in {path!r}: {header!r}")
            for row in reader:
                if not row:
                    continue
                if len(row) != 4:
                    raise ConfigError(f"bad CSV row: {row!r}")
                rows.append(row)
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc

    is_counts = all("." not in r[3] and "e" not in r[3].lower() for r in rows)
    grouped: dict[tuple[str, str], list[list[float]]] = {}
    seen = set()
    for setting, o1, o2, value in rows:
        parts = setting.split(":")
        if len(parts) != 2:
            raise ConfigError(f"bad setting label {setting!r}")
        label = (parts[0], parts[1])
        if o1 not in _FROM_SYMBOL or o2 not in _FROM_SYMBOL:
            raise ConfigError(f"bad outcome symbols in row for {setting!r}")
        if (label, o1, o2) in seen:
            raise ConfigError(f"duplicate row for setting {setting!r}, outcomes ({o1},{o2})")
        seen.add((label, o1, o2))
        cell = grouped.setdefault(label, [[0.0] * 3 for _ in range(3)])
        try:
            cell[_FROM_SYMBOL[o1]][_FROM_SYMBOL[o2]] = (
                int(value) if is_counts else float(value))
        except ValueError as exc:
            raise ConfigError(f"bad value {value!r}") from exc

    if is_counts:
        counts = {}
        for label, cell in grouped.items():
            total = sum(int(v) for row in cell for v in row)
            counts[label] = CountTable(
                tuple(tuple(int(v) for v in row) for row in cell), total)
        return counts, None
    entries = {}
    for label, cell in grouped.items():
        try:
            entries[label] = JointDistribution(tuple(tuple(row) for row in cell))
        except ValueError as exc:
            raise ConfigError(f"invalid probability table for {label!r}: {exc}") from exc
    return None, SettingsTable(entries)


# ---------------------------------------------------------------------------
# Subcommand handlers.

def _predict_reports(table: SettingsTable,
                     params: Optional[ExperimentParams],
                     which: str, phi_setting: float) -> list[InequalityReport]:
    """The chosen report, or every table functional and, for a real
    apparatus, the two one-channel forms."""
    ids = [*FUNCTIONALS, "CH47", "FC48"] if which == "all" else [normalize_functional_id(which)]
    reports = [FUNCTIONALS[fid].evaluate(table) for fid in ids if fid in FUNCTIONALS]
    if params is not None:
        if "CH47" in ids:
            reports.append(eval_ch(params, phi_setting))
        if "FC48" in ids:
            reports.append(eval_fc(params))
    elif which != "all" and ids[0] not in FUNCTIONALS:
        raise ConfigError(f"{ids[0]} needs a real apparatus (--eta/--phi)")
    return reports


def _cmd_predict(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    params = _parse_params(args, cfg)
    config = _parse_angles(args.angles, cfg)
    table = settings_table(config, ALL_PAIRS, params)
    reports = _predict_reports(table, params, args.ineq, args.phi_setting)
    out = sys.stdout
    if args.format == "json":
        payload = {
            "angles": {n: getattr(config, n) for n in ("a", "b", "a_prime", "b_prime", "r")},
            "canonical_differences": list(config.canonical_differences()),
            "distributions": {
                _label_str(label): [list(row) for row in table.get(label).p]
                for label in table
            },
            "reports": [r.as_dict() for r in reports],
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        if args.format == "text":
            diffs = config.canonical_differences()
            out.write("canonical differences (a-b, b'-a, b-a', a'-b'): "
                      + ", ".join(_fmt(d) for d in diffs) + "\n")
        _emit_reports(reports, args.format, out)
    return 0


def _cmd_evaluate(args) -> int:
    counts, table = read_table_csv(args.input)
    reports = run_reports(counts) if counts is not None else applicable_reports(table)
    if not reports:
        raise EvaluationError("no inequality is applicable to the given settings")
    _emit_reports(reports, args.format, sys.stdout)
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    params = _parse_params(args, cfg)
    config = _parse_angles(args.angles, cfg)
    run_cfg = cfg.get("run", {})
    pairs = args.pairs if args.pairs is not None else run_cfg.get("pairs_per_setting")
    if pairs is None:
        raise ConfigError("number of pairs per setting required (--pairs)")
    seed = _default_seed(args.seed if args.seed is not None else run_cfg.get("seed"))
    threads = args.threads if args.threads is not None else run_cfg.get("threads", 1)
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    analytic = settings_table(config, ALL_PAIRS, params)
    try:
        spec = RunSpec(pairs_per_setting=pairs, seed=seed, settings=analytic)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = simulate(spec, workers=threads)
    reports = run_reports(result.counts)
    if args.counts_out:
        with open(args.counts_out, "w", encoding="utf-8", newline="") as handle:
            _write_table_csv(handle, result.counts, counts=True)
    out = sys.stdout
    if args.format == "json":
        payload = {
            "pairs_per_setting": pairs,
            "seed": seed,
            "counts": {
                _label_str(label): [list(row) for row in c.n]
                for label, c in result.counts.items()
            },
            "reports": [r.as_dict() for r in reports],
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        _emit_reports(reports, "csv", out)
    else:
        out.write(f"simulated {pairs} pairs per setting (seed {seed})\n")
        _emit_reports(reports, "text", out)
    return 0


def _cmd_optimize(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    params = _parse_params(args, cfg)
    opt_cfg = cfg.get("optimize", {})
    ineq = args.ineq or opt_cfg.get("inequality")
    if ineq is None:
        raise ConfigError("--ineq required")
    free_text = args.free or opt_cfg.get("free")
    if not free_text:
        raise ConfigError("--free required (comma-separated angle names)")
    free = tuple(free_text.split(",")) if isinstance(free_text, str) else tuple(free_text)
    base = _parse_angles(args.angles, cfg) if (args.angles or "angles" in cfg) \
        else AngleConfig(0, 0, 0, 0, 0)
    grid_step = args.grid_step if args.grid_step is not None else opt_cfg.get("grid_step", 5.0)
    refine = (args.refine_tol if args.refine_tol is not None
              else opt_cfg.get("refine_tolerance", 0.01))
    if not (math.isfinite(refine) and refine > 0):
        raise ConfigError(f"refine tolerance must be finite and positive, got {refine!r}")
    try:
        problem = OptimizationProblem(ineq, free, base, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        result = optimize(problem, grid_step=grid_step, refine_tolerance=refine)
    except GridBudgetError as exc:
        raise ConfigError(str(exc)) from exc
    out = sys.stdout
    if args.format == "json":
        payload = {
            "best_angles": {n: getattr(result.best_config, n)
                            for n in ("a", "b", "a_prime", "b_prime", "r")},
            "canonical_differences": list(result.canonical_differences),
            "best_margin": result.best_margin,
            "report": result.best_report.as_dict(),
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        c = result.best_config
        out.write("best angles: " + ", ".join(
            f"{n}={_fmt(getattr(c, n))}" for n in ("a", "b", "a_prime", "b_prime", "r")) + "\n")
        out.write("canonical differences: "
                  + ", ".join(_fmt(d) for d in result.canonical_differences) + "\n")
        _emit_reports([result.best_report], args.format if args.format == "csv" else "text", out)
    return 0


def _cmd_verify_theorem(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    th = cfg.get("theorem", {})
    U = args.U if args.U is not None else th.get("U", 1.0)
    V = args.V if args.V is not None else th.get("V", 1.0)
    samples = args.samples if args.samples is not None else th.get("samples", 0)
    seed = _default_seed(args.seed if args.seed is not None else th.get("seed"))
    try:
        report = verify_theorem(U, V, samples=samples, seed=seed)
    except ValueError as exc:  # a box or sample count out of range
        raise ConfigError(str(exc)) from exc
    out = sys.stdout
    if args.format == "json":
        json.dump({
            "U": U, "V": V, "samples": samples, "seed": seed,
            "min_vertex_value": report.min_vertex_value,
            "argmin_vertex": list(report.argmin_vertex),
            "min_sampled_value": report.min_sampled_value,
        }, out, indent=2)
        out.write("\n")
    else:
        out.write(f"min vertex value: {_fmt(report.min_vertex_value)}\n")
        out.write("argmin vertex: (" + ", ".join(_fmt(v) for v in report.argmin_vertex) + ")\n")
        if report.min_sampled_value is not None:
            out.write(f"min sampled value ({samples} points): "
                      f"{_fmt(report.min_sampled_value)}\n")
    return 0


def _cmd_lhv_bound(args) -> int:
    try:
        fid = normalize_functional_id(args.functional)
        result = local_bound(fid, args.constraint)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = sys.stdout
    if args.format == "json":
        json.dump({
            "functional": result.functional,
            "constraint": result.constraint,
            "bound": result.bound,
            "witness": {"side1": result.witness_side1, "side2": result.witness_side2},
            "strategies_examined": result.n_strategies,
        }, out, indent=2)
        out.write("\n")
    else:
        out.write(f"{result.functional} under constraint '{result.constraint}': "
                  f"bound {_fmt(result.bound)}\n")
        out.write(f"witness side1={result.witness_side1} side2={result.witness_side2}\n")
        out.write(f"strategies examined: {result.n_strategies}\n")
    return 0


# The most models one lhv-sample run draws: 13 to 30 s at the 0.13 ms
# (no constraint) to 0.3 ms (supplementary) a four-strategy model takes to
# draw and evaluate on one core (2-vCPU machine).
MAX_MODELS = 10 ** 5

# The most strategies one lhv-sample run draws over all its models: at most
# about 40 s, for 10^5 models of 20 strategies at 0.17 to 0.38 ms each; the
# strategies of a few large models take 1 to 2 us each (same machine).
MAX_DRAWN_STRATEGIES = 2 * 10 ** 6


def _cmd_lhv_sample(args) -> int:
    if not 1 <= args.models <= MAX_MODELS:
        raise ConfigError(f"--models must be in [1, {MAX_MODELS}], got {args.models}")
    if not 1 <= args.strategies <= MAX_STRATEGIES:
        raise ConfigError(
            f"--strategies must be in [1, {MAX_STRATEGIES}], got {args.strategies}")
    if args.models * args.strategies > MAX_DRAWN_STRATEGIES:
        raise ConfigError(
            f"--models times --strategies must be at most {MAX_DRAWN_STRATEGIES}, "
            f"got {args.models} * {args.strategies}")
    try:
        fid = normalize_functional_id(args.functional)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if fid not in FUNCTIONALS:
        raise ConfigError(f"{fid} is not a settings-table functional")
    f = FUNCTIONALS[fid]
    seed = _default_seed(args.seed)
    worst = None
    worst_seed = None
    tie = args.tie_r or fid == "STRONG46"
    for i in range(args.models):
        model = sample_random_model(seed + i, args.strategies, args.constraint,
                                    tie_primed_to_r=tie)
        try:
            report = f.evaluate(ensemble_table(model, f.required_pairs))
        except EvaluationError:
            continue
        if worst is None or report.margin > worst:
            worst = report.margin
            worst_seed = seed + i
    if worst is None:
        raise EvaluationError("no sampled model produced an evaluable table")
    out = sys.stdout
    if args.format == "json":
        json.dump({
            "functional": fid, "constraint": args.constraint,
            "models": args.models, "strategies": args.strategies,
            "worst_margin": worst, "worst_model_seed": worst_seed,
        }, out, indent=2)
        out.write("\n")
    else:
        out.write(f"{fid} over {args.models} random models "
                  f"({args.constraint}): worst margin {_fmt(worst)} "
                  f"(model seed {worst_seed})\n")
    return 0


# ---------------------------------------------------------------------------

def _add_source_args(p) -> None:
    p.add_argument("--ideal", action="store_true", help="ideal polarizers and detectors")
    p.add_argument("--eta", type=float, help="detector quantum efficiency")
    p.add_argument("--phi", type=float, help="detector aperture half-angle, degrees")
    p.add_argument("--f-override", type=float, dest="f_override",
                   help="replace the computed depolarization factor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellbench",
        description="Two-channel Bell-inequality toolkit for cascade-photon experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--config", help="JSON config file with mode sections")
        return p

    p = common(sub.add_parser("predict", help="analytic distributions and reports"))
    _add_source_args(p)
    p.add_argument("--angles", help="five orientations a,b,a',b',r in degrees")
    p.add_argument("--ineq", default="all", help="inequality id or 'all'")
    p.add_argument("--phi-setting", type=float, default=22.5, dest="phi_setting",
                   help="polarizer setting for the five-rate comparison inequality")
    p.set_defaults(func=_cmd_predict)

    p = common(sub.add_parser("evaluate", help="evaluate a table file"))
    p.add_argument("input", help="CSV file: setting,o1,o2,count_or_prob")
    p.set_defaults(func=_cmd_evaluate)

    p = common(sub.add_parser("simulate", help="finite-N Monte Carlo run"))
    _add_source_args(p)
    p.add_argument("--angles", help="five orientations a,b,a',b',r in degrees")
    p.add_argument("--pairs", type=int, help="emitted pairs per setting")
    p.add_argument("--seed", type=int, help="RNG seed (default: BELLBENCH_SEED or 0)")
    p.add_argument("--threads", type=int,
                   help="accepted for compatibility; no effect (one draw per setting)")
    p.add_argument("--counts-out", dest="counts_out", help="write counts CSV here")
    p.set_defaults(func=_cmd_simulate)

    p = common(sub.add_parser("optimize", help="search angles for maximal violation"))
    _add_source_args(p)
    p.add_argument("--ineq", help="inequality id to drive past its bound")
    p.add_argument("--free", help="comma-separated free angle names")
    p.add_argument("--angles", help="base orientations a,b,a',b',r")
    p.add_argument("--grid-step", type=float, dest="grid_step")
    p.add_argument("--refine-tol", type=float, dest="refine_tol")
    p.set_defaults(func=_cmd_optimize)

    p = common(sub.add_parser("verify-theorem", help="check the algebraic theorem"))
    p.add_argument("--U", type=float)
    p.add_argument("--V", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_verify_theorem)

    p = common(sub.add_parser("lhv-bound", help="exhaustive local bound"))
    p.add_argument("functional")
    p.add_argument("constraint", choices=CONSTRAINTS, nargs="?", default="none")
    p.set_defaults(func=_cmd_lhv_bound)

    p = common(sub.add_parser("lhv-sample", help="worst margin over random local models"))
    p.add_argument("--functional", required=True)
    p.add_argument("--constraint", choices=CONSTRAINTS, default="none")
    p.add_argument("--models", type=int, default=1000)
    p.add_argument("--strategies", type=int, default=4)
    p.add_argument("--seed", type=int)
    p.add_argument("--tie-r", action="store_true", dest="tie_r",
                   help="tie primed orientations to r (reduced reference geometry)")
    p.set_defaults(func=_cmd_lhv_sample)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
