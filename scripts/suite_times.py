#!/usr/bin/env python3
"""Time each verify suite's draw, measure and check steps in one process.

    python3 scripts/suite_times.py --seed 901 --repeats 9
    python3 scripts/suite_times.py --suite manifolds nullspace --trials 100

For each suite, every repeat draws all trials from a fresh ``rng`` of the
seed, then runs the suite's batched measure over consecutive batches of
``MEASURE_BATCH`` draws (suites without one have no measure step), then the
check of every trial. Everything runs in this process on one thread of
NumPy's OpenBLAS (:class:`omegals.workers.Workers`), with no chunking
across CPUs. Prints the median of each step's time over the repeats, in
ms, for the trial count given (default: each suite's own).
"""

import argparse
import inspect
import statistics
import time

import numpy as np

from omegals import verify
from omegals.workers import Workers


def steps(name: str):
    """The suite's draw, measure (or None) and check functions."""
    prefix = f"_{name.replace('-', '_')}"
    return (getattr(verify, f"{prefix}_draw"), getattr(verify, f"{prefix}_measure", None),
            getattr(verify, f"{prefix}_check"))


def time_suite(name: str, seed: int, trials: int) -> tuple[float, float, float]:
    """Seconds spent drawing, measuring and checking ``trials`` trials."""
    draw, measure, check = steps(name)
    result = verify.SuiteResult(name)
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    drawn = [draw(rng, trial) for trial in range(trials)]
    t1 = time.perf_counter()
    if measure is not None:
        batch = verify.MEASURE_BATCH
        drawn = [values for first in range(0, trials, batch)
                 for values in measure(drawn[first:first + batch])]
    t2 = time.perf_counter()
    for trial, values in enumerate(drawn):
        check(result, trial, values)
    t3 = time.perf_counter()
    if result.failures:
        print(f"  {name}: {len(result.failures)} failures, first: {result.failures[0]}")
    return t1 - t0, t2 - t1, t3 - t2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--suite", nargs="+", default=list(verify.SUITES),
                        choices=list(verify.SUITES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per suite (default: each suite's own)")
    args = parser.parse_args()
    print(f"seed {args.seed}, median of {args.repeats} repeats, one process, one BLAS thread")
    print(f"{'suite':<14}{'trials':>7}{'draw ms':>10}{'measure ms':>12}{'check ms':>10}"
          f"{'total ms':>10}")
    with Workers():
        for name in args.suite:
            trials = args.trials or inspect.signature(verify.SUITES[name]).parameters[
                "trials"].default
            times = [time_suite(name, args.seed, trials) for _ in range(args.repeats)]
            draw, measure, check = (1e3 * statistics.median(t) for t in zip(*times))
            total = 1e3 * statistics.median(sum(t) for t in times)
            print(f"{name:<14}{trials:>7}{draw:>10.1f}{measure:>12.1f}{check:>10.1f}"
                  f"{total:>10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
