#!/usr/bin/env python3
"""Time each verify suite's draw, measure and check steps in one process,
and trace the measure step's peak memory.

    python3 scripts/suite_times.py --seed 901 --repeats 9
    python3 scripts/suite_times.py --suite manifolds nullspace --trials 100
    python3 scripts/suite_times.py --suite index --trials 500 --batch 128

For each suite, every repeat draws all trials from a fresh ``rng`` of the
seed, then runs the suite's batched measure over consecutive batches of
``--batch`` draws (default ``MEASURE_BATCH``; suites without a measure have
no measure step), then the check of every trial. Everything runs in this
process on one thread of NumPy's OpenBLAS (:class:`omegals.workers.Workers`),
with no chunking across CPUs. Prints the median of each step's time over
the repeats, in ms, for the trial count given (default: each suite's own),
and the peak memory that ``tracemalloc`` traces in one more, untimed run of
the measure step, in KB per trial of its largest batch.
"""

import argparse
import inspect
import statistics
import time
import tracemalloc

import numpy as np

from omegals import verify
from omegals.workers import Workers


def steps(name: str):
    """The suite's draw, measure (or None) and check functions."""
    prefix = f"_{name.replace('-', '_')}"
    return (getattr(verify, f"{prefix}_draw"), getattr(verify, f"{prefix}_measure", None),
            getattr(verify, f"{prefix}_check"))


def draws(name: str, seed: int, trials: int) -> list:
    """The draws of trials 0 .. trials - 1 from a fresh ``rng`` of the seed."""
    draw = steps(name)[0]
    rng = np.random.default_rng(seed)
    return [draw(rng, trial) for trial in range(trials)]


def measured(measure, drawn: list, batch: int) -> list:
    """``measure`` over consecutive batches of ``batch`` draws."""
    return [values for first in range(0, len(drawn), batch)
            for values in measure(drawn[first:first + batch])]


def time_suite(name: str, seed: int, trials: int, batch: int) -> tuple[float, float, float]:
    """Seconds spent drawing, measuring and checking ``trials`` trials."""
    _, measure, check = steps(name)
    result = verify.SuiteResult(name)
    t0 = time.perf_counter()
    drawn = draws(name, seed, trials)
    t1 = time.perf_counter()
    if measure is not None:
        drawn = measured(measure, drawn, batch)
    t2 = time.perf_counter()
    for trial, values in enumerate(drawn):
        check(result, trial, values)
    t3 = time.perf_counter()
    if result.failures:
        print(f"  {name}: {len(result.failures)} failures, first: {result.failures[0]}")
    return t1 - t0, t2 - t1, t3 - t2


def measure_kb_per_trial(name: str, seed: int, trials: int, batch: int) -> float | None:
    """The peak of the memory traced while the measure step runs, over its
    draws, in KB per trial of its largest batch; None without a measure."""
    measure = steps(name)[1]
    if measure is None:
        return None
    drawn = draws(name, seed, trials)
    tracemalloc.start()
    try:
        measured(measure, drawn, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1024 / min(batch, trials)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--suite", nargs="+", default=list(verify.SUITES),
                        choices=list(verify.SUITES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per suite (default: each suite's own)")
    parser.add_argument("--batch", type=int, default=verify.MEASURE_BATCH,
                        help="trials per measure call (default: MEASURE_BATCH, "
                             f"{verify.MEASURE_BATCH})")
    args = parser.parse_args()
    if args.batch < 1:
        parser.error("--batch must be at least 1")
    print(f"seed {args.seed}, median of {args.repeats} repeats, batch {args.batch}, "
          "one process, one BLAS thread")
    print(f"{'suite':<14}{'trials':>7}{'draw ms':>10}{'measure ms':>12}{'check ms':>10}"
          f"{'total ms':>10}{'measure KB/trial':>18}")
    with Workers():
        for name in args.suite:
            trials = args.trials or inspect.signature(verify.SUITES[name]).parameters[
                "trials"].default
            times = [time_suite(name, args.seed, trials, args.batch) for _ in range(args.repeats)]
            draw, measure, check = (1e3 * statistics.median(t) for t in zip(*times))
            total = 1e3 * statistics.median(sum(t) for t in times)
            kb = measure_kb_per_trial(name, args.seed, trials, args.batch)
            print(f"{name:<14}{trials:>7}{draw:>10.1f}{measure:>12.1f}{check:>10.1f}"
                  f"{total:>10.1f}{'-' if kb is None else f'{kb:.1f}':>18}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
