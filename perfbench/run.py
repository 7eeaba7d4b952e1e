"""bellbench benchmark: three closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload design --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick

A run imports bellbench from ``src/`` beside this directory, builds one
round of requests from ``--seed``, runs it once untimed, then repeats whole
rounds until ``--seconds`` of timed rounds have passed.  After each round,
untimed, its outputs are checked against ``reference.py`` and set-up is
measured once in a fresh interpreter.  The last line of standard output is
one JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics
from a traced run with ``--trace 1``.  Details go to ``out/``.

``--quick`` runs every check on tiny request lists and shows that each
check rejects a deliberately wrong output.
"""

import os
import sys

# numpy's thread pools are pinned before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
MIN_PROBES, MAX_PROBES = 5, 9  # set-up probes per run


def import_bellbench() -> float:
    """Import bellbench from this checkout's ``src``; milliseconds taken."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    try:
        import bellbench
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import bellbench from {SRC}: {exc}")
    elapsed = time.perf_counter() - start
    if not os.path.abspath(bellbench.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: bellbench came from {bellbench.__file__}, not {SRC}")
    return elapsed * 1e3


def probe(workload: str, seed: int) -> None:
    """Child side of the set-up measurement: import, build, report, exit."""
    import_ms = import_bellbench()
    import workloads
    workloads.build(workload, seed, tmp_dir=OUT)
    print(json.dumps({"ready": time.monotonic(), "import_ms": import_ms}))


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from launching a fresh interpreter until its first request is
    ready, and the milliseconds its ``import bellbench`` took."""
    launched = time.monotonic()
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(child.stdout.strip().splitlines()[-1])
    return report["ready"] - launched, report["import_ms"]


class Run:
    """The timed rounds of one workload, with their checks and set-up probes."""

    def __init__(self, workloads, requests, tracer=None) -> None:
        self.workloads = workloads
        self.requests = requests
        self.tracer = tracer
        self.latencies: list[list[float]] = []  # seconds, per round and request
        self.walls: list[float] = []            # seconds per round
        self.probes: list[tuple[float, float]] = []
        self.failed = 0
        self.unexpected: list[str] = []
        self.memo: dict = {}

    def round(self) -> None:
        """One timed pass over the request list, then its checks, untimed."""
        wl, tracer = self.workloads, self.tracer
        outputs, latencies = [], []
        start = time.perf_counter()
        for req in self.requests:
            t0 = time.perf_counter()
            try:
                out = wl.run(req) if tracer is None else tracer.run_request(req.kind, wl.run, req)
            except Exception as exc:  # a failed request is counted, not fatal
                out = exc
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
        self.walls.append(time.perf_counter() - start)
        self.latencies.append(latencies)
        if tracer is not None:
            tracer.recording = False  # whole spans of the first round only
        for req, out in zip(self.requests, outputs):
            if isinstance(out, Exception):
                error = f"raised {type(out).__name__}: {out}"
            else:
                error = wl.check(req, out, self.memo)
                if tracer is not None:
                    for key, amount in wl.work_done(req, out).items():
                        tracer.count(key, amount)
            if error:
                self.failed += 1
                if not req.known_fault:
                    self.unexpected.append(f"{req.kind}: {error}")

    def measure(self, workload: str, seed: int, seconds: float) -> None:
        """Whole rounds until ``seconds`` of timed rounds have passed.  Set-up
        probes run between rounds, so they sample the same stretch of time."""
        while True:
            self.round()
            if len(self.probes) < MAX_PROBES:
                self.probes.append(probe_setup(workload, seed))
            if sum(self.walls) >= seconds:
                break
        while len(self.probes) < MIN_PROBES:
            self.probes.append(probe_setup(workload, seed))

    def end_to_end(self) -> dict:
        latencies = [x for rd in self.latencies for x in rd]
        return {
            "setup_s": (statistics.median(p[0] for p in self.probes), "s"),
            "ops_per_s": (len(latencies) / sum(self.walls), "ops/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }


def benchmark(args) -> dict:
    import_bellbench()
    import workloads
    from spans import Tracer

    requests = workloads.build(args.workload, args.seed, tmp_dir=OUT)
    for req in requests:  # warm-up: caches, lazy imports, first-call costs
        try:
            workloads.run(req)
        except Exception:
            pass  # counted when the timed rounds make the same request
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.recording = True
    run = Run(workloads, requests, tracer)
    run.measure(args.workload, args.seed, args.seconds)
    for line in run.unexpected[:10]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    if tracer is None:
        metrics = run.end_to_end()
    else:
        metrics = tracer.layer_metrics(statistics.median(p[1] for p in run.probes))
    attempted = len(requests) * len(run.walls)
    result = {
        "correct": not run.unexpected,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    details = {
        "result": result,
        "rounds": len(run.walls),
        "round_s": run.walls,
        "ops_per_s": attempted / sum(run.walls),
        "setup_probes_s": [p[0] for p in run.probes],
        "requests": [req.kind for req in requests],
        "latencies_ms": [[x * 1e3 for x in rd] for rd in run.latencies],
        "unexpected_failures": run.unexpected[:10],
    }
    if tracer is not None:
        details.update(tracer.summary())
        details["spans_written"] = tracer.write_spans(stem + ".spans.npz")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(details, handle)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("design", "analyze", "certify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny request lists; every check must also reject a wrong output")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not args.quick and args.workload is None:
        parser.error("--workload is required")
    os.makedirs(OUT, exist_ok=True)
    if args.quick:
        import_bellbench()
        import quick
        return quick.main(OUT)
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    result = benchmark(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
