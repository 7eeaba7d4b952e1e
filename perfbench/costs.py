"""Reference costs of single requests, quoted in README.md.

    python3 perfbench/costs.py

Each figure is the fastest of three calls, after one untimed call, with
numpy pinned to one thread as in the benchmark.
"""

import os
import platform
import sys
import time

from run import import_bellbench  # also pins numpy's thread pools


def best_of(fn, repeats: int = 3) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> None:
    import_ms = import_bellbench()
    import numpy as np

    import bellbench as bb
    import reference as ref

    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}")
    print(f"import bellbench (first import in this process): {import_ms:.0f} ms")
    ideal = bb.settings_table(bb.AngleConfig(60, 120, 0, 0, 0), ref.ALL_PAIRS)
    params = bb.ExperimentParams(eta=0.9, phi_deg=60.0)
    config = bb.AngleConfig(10, 50, 100, 130, 20)

    def predict():
        table = bb.settings_table(config, ref.ALL_PAIRS, params)
        return [f.evaluate(table) for f in bb.FUNCTIONALS.values()], bb.eval_ch(params), bb.eval_fc(params)

    cases = [
        ("prediction, real apparatus, 7 pairs + 8 reports", predict),
        ("optimize INEQ19, 3 free angles, 10 deg grid", lambda: bb.optimize(
            bb.OptimizationProblem("INEQ19", ("a", "b", "a_prime"), config), grid_step=10.0)),
        ("optimize INEQ19, 4 free angles, 15 deg grid", lambda: bb.optimize(
            bb.OptimizationProblem("INEQ19", ("a", "b", "a_prime", "b_prime"), config, params),
            grid_step=15.0)),
    ]
    for pairs in (10_000, 1_000_000, 3_000_000, 10_000_000):
        for workers in (1, 2):
            if pairs < 1_000_000 and workers == 2:
                continue
            spec = bb.RunSpec(pairs, 7, ideal)
            cases.append((f"simulate {pairs:.0e} pairs/setting, {workers} worker(s)",
                          lambda s=spec, w=workers: bb.simulate(s, workers=w)))
    cases += [
        ("local_bound STRONG41 none", lambda: bb.local_bound("STRONG41", "none")),
        ("local_bound INEQ19 supplementary", lambda: bb.local_bound("INEQ19", "supplementary")),
        ("verify_theorem 1e6 samples", lambda: bb.verify_theorem(1.0, 2.0, samples=1_000_000, seed=3)),
    ]
    for label, fn in cases:
        print(f"{label:50s} {best_of(fn) * 1e3:10.2f} ms")


if __name__ == "__main__":
    sys.exit(main())
