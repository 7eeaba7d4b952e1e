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
import dataclasses
import functools
import json
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
    ORIENTATIONS,
    AngleConfig,
    CountTable,
    EvaluationError,
    JointDistribution,
    Outcome,
    OUTCOMES,
    SettingsTable,
)
from .montecarlo import RunSpec, run_reports, simulate
from .optimize import OptimizationProblem, optimize
from .qm import ExperimentParams, settings_table

# Every setting of the registry's functionals, in registry order.
ALL_PAIRS = tuple(dict.fromkeys(label for f in FUNCTIONALS.values() for label in f.required_pairs))

_FROM_SYMBOL = {o.value: i for i, o in enumerate(OUTCOMES)}


class ConfigError(ValueError):
    """A rejected input, with the context the library's own message lacks."""


def _check_length(text: str, path: str) -> str:
    """``text``; an integer of more digits than Python converts is a config error."""
    digits = text.strip().lstrip("+-").replace("_", "")
    if digits.isdecimal() and len(digits) > sys.get_int_max_str_digits() > 0:
        raise ConfigError(f"number too long in {path!r}: {len(digits)} digits, "
                          f"the limit is {sys.get_int_max_str_digits()}")
    return text


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
    "angles": {name: "a number" for name in ORIENTATIONS},
    "run": {"pairs_per_setting": "an integer", "seed": "an integer", "threads": "an integer"},
    "optimize": {"inequality": "a string", "free": "a string or a list of strings",
                 "grid_step": "a number", "refine_tolerance": "a number"},
    "theorem": {"U": "a number", "V": "a number", "samples": "an integer", "seed": "an integer"},
}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cfg = json.load(handle, parse_int=lambda text: int(_check_length(text, path)))
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
            elif (kinds[key] == "a number" and isinstance(value, int)
                  and abs(value) > sys.float_info.max):
                raise ConfigError(f"{section}.{key} is beyond the float range")
    return cfg


# Built-in defaults, for a setting that neither a flag nor the config file gives.
_DEFAULTS = {"threads": 1, "grid_step": 5.0, "refine_tolerance": 0.01,
             "U": 1.0, "V": 1.0, "samples": 0}


def _resolve(args) -> None:
    """Settle every setting of ``args``: a flag given on the command line
    beats the config file, which beats ``_DEFAULTS``; a seed still unset
    comes from BELLBENCH_SEED, else 0, and any seed must fit 64 unsigned
    bits.  Each flag's dest is its config key, and each subcommand names
    the sections it reads.  The angles section fills the dest ``angles``
    whole, as ``--angles`` does."""
    cfg = load_config(args.config) if args.config else {}
    for section in args.sections:
        if section not in cfg:
            continue
        body = {"angles": cfg["angles"]} if section == "angles" else cfg[section]
        for key, value in body.items():
            if getattr(args, key) is None:
                setattr(args, key, value)
    for key, value in _DEFAULTS.items():
        if getattr(args, key, value) is None:
            setattr(args, key, value)
    if getattr(args, "seed", 0) is None:
        env = os.environ.get("BELLBENCH_SEED", "0")
        try:
            args.seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"BELLBENCH_SEED is not an integer: {env!r}") from exc
    if not 0 <= getattr(args, "seed", 0) < 2 ** 64:
        raise ConfigError("seed must be an unsigned 64-bit integer")


def _parse_angles(value) -> AngleConfig:
    """Angles from ``--angles`` (a string) or the angles section (a dict)."""
    if value is None:
        raise ConfigError("no angles given (use --angles or a config file)")
    if isinstance(value, dict):
        try:
            return AngleConfig(**{k: float(v) for k, v in value.items()})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad angles section: {exc}") from exc
    parts = value.split(",")
    if len(parts) != len(ORIENTATIONS):
        raise ConfigError("--angles needs five comma-separated degrees: a,b,a',b',r")
    try:
        angles = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad angle in {value!r}") from exc
    return AngleConfig(*angles)


def _parse_params(args) -> Optional[ExperimentParams]:
    if args.ideal:
        if args.eta is not None or args.phi_deg is not None:
            raise ConfigError("--ideal conflicts with --eta/--phi")
        return None
    if args.eta is None or args.phi_deg is None:
        raise ConfigError("real source needs --eta and --phi (or --ideal)")
    return ExperimentParams(eta=args.eta, phi_deg=args.phi_deg, f_override=args.f_override)


# ---------------------------------------------------------------------------
# Output: every subcommand's result goes through _emit.

def _emit(args, payload: dict, lines: Sequence[str] = (),
          reports: Sequence[InequalityReport] = ()) -> int:
    """Write a command's result to stdout in ``args.format``: the JSON
    ``payload``, the CSV table of ``reports``, or the text ``lines``
    followed by the reports.  Returns the exit code 0."""
    out = sys.stdout
    if args.format == "json":
        out.write(json.dumps(payload, indent=2) + "\n")
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["id", "value", "bound", "direction", "violated", "margin", "stderr"])
        writer.writerows([r.id, _fmt(r.value), _fmt(r.bound), r.direction,
                          str(r.violated).lower(), _fmt(r.margin),
                          "" if r.stderr is None else _fmt(r.stderr)] for r in reports)
    else:
        out.writelines(line + "\n" for line in lines)
        for r in reports:
            mark = "VIOLATED" if r.violated else "satisfied"
            err = "" if r.stderr is None else f"  stderr={_fmt(r.stderr)}"
            out.write(
                f"{r.id:10s} value={_fmt(r.value)}  bound {r.direction} {_fmt(r.bound)}"
                f"  margin={_fmt(r.margin)}  [{mark}]{err}\n")
    return 0


def _write_table_csv(out, tables) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["setting", "o1", "o2", "count_or_prob"])
    writer.writerows([":".join(label), o1.value, o2.value, str(table.count(o1, o2))]
                     for label, table in tables.items() for o1 in Outcome for o2 in Outcome)


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
            for row in filter(None, reader):
                if len(row) != 4:
                    raise ConfigError(f"bad CSV row: {row!r}")
                rows.append(row)
    except (OSError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc

    is_counts = all("." not in r[3] and "e" not in r[3].lower() for r in rows)
    # Nine cells per setting at 3*o1 + o2; a cell that no row sets (None) is 0.
    grouped: dict[tuple[str, str], list] = {}
    for setting, o1, o2, value in rows:
        parts = setting.split(":")
        if len(parts) != 2:
            raise ConfigError(f"bad setting label {setting!r}")
        if o1 not in _FROM_SYMBOL or o2 not in _FROM_SYMBOL:
            raise ConfigError(f"bad outcome symbols in row for {setting!r}")
        cells = grouped.setdefault((parts[0], parts[1]), [None] * 9)
        i = 3 * _FROM_SYMBOL[o1] + _FROM_SYMBOL[o2]
        if cells[i] is not None:
            raise ConfigError(f"duplicate row for setting {setting!r}, outcomes ({o1},{o2})")
        try:
            cells[i] = int(value) if is_counts else float(value)
        except ValueError as exc:
            _check_length(value, path)
            raise ConfigError(f"bad value {value!r}") from exc

    zero = 0 if is_counts else 0.0
    tables = {label: tuple(tuple(zero if v is None else v for v in cells[i:i + 3])
                           for i in (0, 3, 6)) for label, cells in grouped.items()}
    if is_counts:
        return {label: CountTable(n, sum(map(sum, n))) for label, n in tables.items()}, None
    entries = {}
    for label, p in tables.items():
        try:
            entries[label] = JointDistribution(p)
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
    params = _parse_params(args)
    config = _parse_angles(args.angles)
    table = settings_table(config, ALL_PAIRS, params)
    reports = _predict_reports(table, params, args.ineq, args.phi_setting)
    diffs = config.canonical_differences()
    return _emit(args, {
        "angles": dataclasses.asdict(config),
        "canonical_differences": list(diffs),
        "distributions": {":".join(label): [list(row) for row in table.get(label).p]
                          for label in table},
        "reports": [r.as_dict() for r in reports],
    }, ["canonical differences (a-b, b'-a, b-a', a'-b'): " + ", ".join(map(_fmt, diffs))],
        reports)


def _cmd_evaluate(args) -> int:
    counts, table = read_table_csv(args.input)
    reports = run_reports(counts) if counts is not None else applicable_reports(table)
    if not reports:
        raise EvaluationError("no inequality is applicable to the given settings")
    return _emit(args, {"reports": [r.as_dict() for r in reports]}, reports=reports)


def _cmd_simulate(args) -> int:
    params = _parse_params(args)
    config = _parse_angles(args.angles)
    pairs, seed = args.pairs_per_setting, args.seed
    if pairs is None:
        raise ConfigError("number of pairs per setting required (--pairs)")
    if args.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {args.threads}")
    spec = RunSpec(pairs_per_setting=pairs, seed=seed,
                   settings=settings_table(config, ALL_PAIRS, params))
    result = simulate(spec, workers=args.threads)
    reports = run_reports(result.counts)
    if args.counts_out:
        try:
            with open(args.counts_out, "w", encoding="utf-8", newline="") as handle:
                _write_table_csv(handle, result.counts)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.counts_out!r}: {exc}") from exc
    return _emit(args, {
        "pairs_per_setting": pairs,
        "seed": seed,
        "counts": {":".join(label): [list(row) for row in c.n]
                   for label, c in result.counts.items()},
        "reports": [r.as_dict() for r in reports],
    }, [f"simulated {pairs} pairs per setting (seed {seed})"], reports)


def _cmd_optimize(args) -> int:
    params = _parse_params(args)
    if args.inequality is None:
        raise ConfigError("--ineq required")
    if not args.free:
        raise ConfigError("--free required (comma-separated angle names)")
    free = tuple(args.free.split(",")) if isinstance(args.free, str) else tuple(args.free)
    base = _parse_angles(args.angles) if args.angles is not None else AngleConfig(0, 0, 0, 0, 0)
    problem = OptimizationProblem(args.inequality, free, base, params)
    result = optimize(problem, grid_step=args.grid_step, refine_tolerance=args.refine_tolerance)
    best = dataclasses.asdict(result.best_config)
    return _emit(args, {
        "best_angles": best,
        "canonical_differences": list(result.canonical_differences),
        "best_margin": result.best_margin,
        "report": result.best_report.as_dict(),
    }, ["best angles: " + ", ".join(f"{n}={_fmt(v)}" for n, v in best.items()),
        "canonical differences: " + ", ".join(map(_fmt, result.canonical_differences))],
        [result.best_report])


def _cmd_verify_theorem(args) -> int:
    report = verify_theorem(args.U, args.V, samples=args.samples, seed=args.seed)
    lines = [f"min vertex value: {_fmt(report.min_vertex_value)}",
             "argmin vertex: (" + ", ".join(map(_fmt, report.argmin_vertex)) + ")"]
    if report.min_sampled_value is not None:
        lines.append(f"min sampled value ({args.samples} points): "
                     f"{_fmt(report.min_sampled_value)}")
    return _emit(args, {
        "U": args.U, "V": args.V, "samples": args.samples, "seed": args.seed,
        "min_vertex_value": report.min_vertex_value,
        "argmin_vertex": list(report.argmin_vertex),
        "min_sampled_value": report.min_sampled_value,
    }, lines)


def _cmd_lhv_bound(args) -> int:
    result = local_bound(normalize_functional_id(args.functional), args.constraint)
    return _emit(args, {
        "functional": result.functional,
        "constraint": result.constraint,
        "bound": result.bound,
        "witness": {"side1": result.witness_side1, "side2": result.witness_side2},
        "strategies_examined": result.n_strategies,
    }, [f"{result.functional} under constraint '{result.constraint}': "
        f"bound {_fmt(result.bound)}",
        f"witness side1={result.witness_side1} side2={result.witness_side2}",
        f"strategies examined: {result.n_strategies}"])


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
    fid = normalize_functional_id(args.functional)
    if fid not in FUNCTIONALS:
        raise ConfigError(f"{fid} is not a settings-table functional")
    f = FUNCTIONALS[fid]
    worst = worst_seed = None
    tie = args.tie_r or fid == "STRONG46"
    for i in range(args.models):
        model = sample_random_model(args.seed + i, args.strategies, args.constraint,
                                    tie_primed_to_r=tie)
        try:
            report = f.evaluate(ensemble_table(model, f.required_pairs))
        except EvaluationError:
            continue
        if worst is None or report.margin > worst:
            worst = report.margin
            worst_seed = args.seed + i
    if worst is None:
        raise EvaluationError("no sampled model produced an evaluable table")
    return _emit(args, {
        "functional": fid, "constraint": args.constraint,
        "models": args.models, "strategies": args.strategies,
        "worst_margin": worst, "worst_model_seed": worst_seed,
    }, [f"{fid} over {args.models} random models ({args.constraint}): "
        f"worst margin {_fmt(worst)} (model seed {worst_seed})"])


# ---------------------------------------------------------------------------

def _add_source_args(p) -> None:
    # Unset is None, so the experiment section can fill --ideal too.
    p.add_argument("--ideal", action="store_true", default=None,
                   help="ideal polarizers and detectors")
    p.add_argument("--eta", type=float, help="detector quantum efficiency")
    p.add_argument("--phi", type=float, dest="phi_deg", metavar="PHI",
                   help="detector aperture half-angle, degrees")
    p.add_argument("--f-override", type=float, dest="f_override",
                   help="replace the computed depolarization factor")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line, without the usage text."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; dests are config keys."""
    parser = _Parser(
        prog="bellbench",
        description="Two-channel Bell-inequality toolkit for cascade-photon experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, sections=(), formats=("text", "json", "csv")):
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--config", help="JSON config file with mode sections")
        p.set_defaults(func=func, sections=sections)
        return p

    p = command("predict", "analytic distributions and reports", _cmd_predict,
                ("experiment", "angles"))
    _add_source_args(p)
    p.add_argument("--angles", help="five orientations a,b,a',b',r in degrees")
    p.add_argument("--ineq", default="all", help="inequality id or 'all'")
    p.add_argument("--phi-setting", type=float, default=22.5, dest="phi_setting",
                   help="polarizer setting for the five-rate comparison inequality")

    p = command("evaluate", "evaluate a table file", _cmd_evaluate)
    p.add_argument("input", help="CSV file: setting,o1,o2,count_or_prob")

    p = command("simulate", "finite-N Monte Carlo run", _cmd_simulate,
                ("experiment", "angles", "run"))
    _add_source_args(p)
    p.add_argument("--angles", help="five orientations a,b,a',b',r in degrees")
    p.add_argument("--pairs", type=int, dest="pairs_per_setting", metavar="PAIRS",
                   help="emitted pairs per setting")
    p.add_argument("--seed", type=int, help="RNG seed (default: BELLBENCH_SEED or 0)")
    p.add_argument("--threads", type=int,
                   help="accepted for compatibility; no effect (one draw per setting)")
    p.add_argument("--counts-out", dest="counts_out", help="write counts CSV here")

    p = command("optimize", "search angles for maximal violation", _cmd_optimize,
                ("experiment", "angles", "optimize"))
    _add_source_args(p)
    p.add_argument("--ineq", dest="inequality", metavar="INEQ",
                   help="inequality id to drive past its bound")
    p.add_argument("--free", help="comma-separated free angle names")
    p.add_argument("--angles", help="base orientations a,b,a',b',r")
    p.add_argument("--grid-step", type=float, dest="grid_step")
    p.add_argument("--refine-tol", type=float, dest="refine_tolerance", metavar="REFINE_TOL")

    # Commands with no reports have no CSV table to print.
    p = command("verify-theorem", "check the algebraic theorem", _cmd_verify_theorem,
                ("theorem",), ("text", "json"))
    p.add_argument("--U", type=float)
    p.add_argument("--V", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)

    p = command("lhv-bound", "exhaustive local bound", _cmd_lhv_bound,
                formats=("text", "json"))
    p.add_argument("functional")
    p.add_argument("constraint", choices=CONSTRAINTS, nargs="?", default="none")

    p = command("lhv-sample", "worst margin over random local models", _cmd_lhv_sample,
                formats=("text", "json"))
    p.add_argument("--functional", required=True)
    p.add_argument("--constraint", choices=CONSTRAINTS, default="none")
    p.add_argument("--models", type=int, default=1000)
    p.add_argument("--strategies", type=int, default=4)
    p.add_argument("--seed", type=int)
    p.add_argument("--tie-r", action="store_true", dest="tie_r",
                   help="tie primed orientations to r (reduced reference geometry)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _resolve(args)
        return args.func(args)
    # Every ValueError bellbench raises (ConfigError among them) rejects a
    # value passed in.  A computation that cannot proceed raises
    # EvaluationError: no r,r coincidences, an empty run, a failed theorem
    # check, no admissible strategy, no applicable inequality.
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
