#!/usr/bin/env python3
"""Compare two checkouts on benchmark workloads in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload structure verify \
        --seeds 951-960 --claim structure:iter_s.p50 --out BENCH_label.json
    python3 scripts/bench_pairs.py --trajectory BENCH_*.json

For each workload in turn and each seed, runs ``python3 bench/run.py
--workload W --seed S --seconds T --trace 0`` in both checkouts, alternating
which side runs first, with T the ``run_seconds`` of CHANGE's BENCHMARK.json.
Around each run it records the load average (``os.getloadavg``) and the
share of CPU time stolen by the hypervisor (the ``steal`` column of
/proc/stat, read only), and before each pair the three load averages and
the steal share of an idle second (:func:`conditions`), so a noisy
neighbour shows next to the figures it disturbed. Prints one line per pair
and per run, then per workload and end-to-end metric each side's median
[q1, q3], the number of pairs in which CHANGE is lower, and a verdict
(:func:`verdict`) under the metric's ``better`` and relative ``bound`` from
CHANGE's BENCHMARK.json. With ``--out PATH`` it writes one JSON file: per
workload every run record, the conditions before each pair
(``before_pairs``) and that summary (:func:`summarize`) under
``workloads``, with the ``method``, the ``claim``
named by ``--claim WORKLOAD:METRIC`` (or null), ``--note`` as ``change``,
and the ``machine`` (:func:`machine`), which holds a calibration probe
(:func:`calibration`) timed before the first pair, so figures from
different sessions can be set against the speed each session measured.

``--trajectory`` compares no checkouts: it prints, for each BENCH file
given, each side's median per workload and metric, and each median in
seconds also in units of that file's probe (:func:`trajectory`).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

# The claim rule of verdict(), as recorded in a BENCH file.
GAIN_RULE = ("change lower in at least 9 of 10 alternating pairs, and the medians "
             "apart by more than the parent's interquartile range")


# The variables bench/run.py sets to pin its BLAS threads.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal (guest time is inside user)
    return fields[7], sum(fields[:8])


# Seconds over which conditions() samples the steal share before a pair.
CONDITIONS_SAMPLE_S = 1.0


def conditions() -> dict:
    """The 1, 5 and 15 minute load averages, and the percentage of CPU time
    stolen by the hypervisor over ``CONDITIONS_SAMPLE_S`` in which this
    script runs nothing."""
    steal0, total0 = cpu_ticks()
    time.sleep(CONDITIONS_SAMPLE_S)
    steal1, total1 = cpu_ticks()
    return {"loadavg": list(os.getloadavg()),
            "steal_pct": 100.0 * (steal1 - steal0) / max(1, total1 - total0)}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    load_before, (steal0, total0) = os.getloadavg()[0], cpu_ticks()
    proc = subprocess.run([sys.executable, str(checkout / "bench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    steal1, total1 = cpu_ticks()
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["load"] = (load_before, os.getloadavg()[0])
    result["steal_pct"] = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    """The verdict on one end-to-end metric from paired runs: ``before[i]``
    (parent) and ``after[i]`` (change) come from pair i, ``better`` is
    "lower" or "higher" and ``bound`` the relative worsening allowed.

    - "gain": the change is better in at least 9 of 10 pairs (ties count for
      neither), and the medians differ by more than the parent's
      interquartile range;
    - "worse": the change's median is worse than the parent's by more than
      the bound;
    - "unresolved": the parent's interquartile range is wider than the bound,
      unless every change run beats every parent run;
    - "within bound": anything else.
    """
    sign = 1.0 if better == "lower" else -1.0
    (m0, q1, q3), (m1, _, _) = quartiles(before), quartiles(after)
    margin = sign * (m0 - m1)  # positive when the change's median is better
    wins = sum(sign * (b - a) > 0 for b, a in zip(before, after))
    if wins >= 0.9 * len(before) and margin > q3 - q1:
        return "gain"
    if -margin > bound * abs(m0):
        return "worse"
    every_run_better = max(sign * a for a in after) < min(sign * b for b in before)
    if q3 - q1 > bound * abs(m0) and not every_run_better:
        return "unresolved"
    return "within bound"


def summarize(runs: dict, end_to_end: dict) -> dict:
    """Per metric of the runs, each side's median and quartiles, the pairs in
    which the change is lower and, for an end-to-end metric of
    ``end_to_end`` (name -> BENCHMARK.json entry), the verdict."""
    pairs = len(runs["parent"])
    metrics = {}
    for metric in runs["parent"][0]["metrics"]:
        before = [r["metrics"][metric]["value"] for r in runs["parent"]]
        after = [r["metrics"][metric]["value"] for r in runs["change"]]
        summary = {"pairs": pairs, "change_lower_in": sum(a < b for a, b in zip(after, before))}
        for side, values in (("parent", before), ("change", after)):
            median, q1, q3 = quartiles(values)
            summary[side] = {"median": median, "q1": q1, "q3": q3}
        spec = end_to_end.get(metric)
        if spec:
            summary["verdict"] = verdict(before, after, spec["better"], spec["bound"])
        metrics[metric] = summary
    ok = all(r["correct"] and r["failed"] == 0 for side in runs.values() for r in side)
    return {"pairs": pairs, "metrics": metrics, "every_run_correct": ok}


# The calibration probe: one GEMM of this order, and a pure-Python loop of
# this many steps (about 0.1 s on a 2-vCPU sandbox).
PROBE_GEMM_ORDER = 256
PROBE_LOOP_STEPS = 2_000_000

# BLAS threads of the GEMM probe. Unpinned, the probe took the BLAS default
# of every CPU and read 0.57 ms in one session and 11 ms in another on one
# sandbox, while the Python loop moved 5 %: one thread times a core, not how
# the scheduler places several threads beside other processes.
PROBE_BLAS_THREADS = 1

# The GEMM probe's program, run in a fresh interpreter so that the thread
# count is set before NumPy loads its BLAS: one untimed call first, which
# pays for the BLAS set-up and the first touch of the result's pages, then
# the best of 5.
GEMM_PROBE = """
import time
import numpy as np
a = np.random.default_rng(0).standard_normal(({order}, {order}))
a @ a
times = []
for _ in range(5):
    start = time.perf_counter()
    a @ a
    times.append(time.perf_counter() - start)
print(min(times))
"""


def busy_loop() -> int:
    total = 0
    for i in range(PROBE_LOOP_STEPS):
        total += i
    return total


def best_of(fn, repeat: int) -> float:
    """The fastest of ``repeat`` timed calls of ``fn``, in seconds."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def two_process_loop() -> None:
    """One busy loop here and one in a forked child at the same time; returns
    once the child is reaped."""
    pid = os.fork()
    if pid == 0:
        busy_loop()
        os._exit(0)
    busy_loop()
    os.waitpid(pid, 0)


def gemm_probe() -> float:
    """Seconds of one float64 GEMM of order ``PROBE_GEMM_ORDER``
    (:data:`GEMM_PROBE`), in a fresh interpreter whose BLAS runs on
    ``PROBE_BLAS_THREADS`` threads."""
    env = {**os.environ, **dict.fromkeys(BLAS_ENV, str(PROBE_BLAS_THREADS))}
    proc = subprocess.run([sys.executable, "-c", GEMM_PROBE.format(order=PROBE_GEMM_ORDER)],
                          env=env, capture_output=True, text=True, check=True)
    return float(proc.stdout)


def calibration() -> dict:
    """Seconds of one float64 GEMM (:func:`gemm_probe`, with its thread
    count), of the busy loop (best of 3) and of two busy loops in two
    processes, fork to reap (best of 3). Their ratio,
    ``parallel_efficiency``, is 1 when two processes run as fast as one and
    0.5 when they share one CPU."""
    loop, pair = best_of(busy_loop, 3), best_of(two_process_loop, 3)
    return {"gemm_s": gemm_probe(), "gemm_blas_threads": PROBE_BLAS_THREADS,
            "python_loop_s": loop, "two_process_loop_s": pair,
            "parallel_efficiency": loop / pair}


def machine() -> dict:
    """The CPU counts, the python, numpy and scipy versions and the
    :func:`calibration` of this run."""
    return {"cpus": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "calibration": calibration()}


def trajectory(paths: list[Path]) -> list[str]:
    """The lines of ``--trajectory``: per BENCH file a header naming its
    probe, then per workload and metric each side's median, a median in
    seconds followed by it divided by the probe's ``python_loop_s`` ("loops")
    and ``gemm_s`` ("GEMMs"). A file recorded without a probe says "no
    probe" there, so figures from different sessions compare only through
    their probes."""
    lines = []
    for path in paths:
        record = json.loads(Path(path).read_text())
        probe = record["machine"].get("calibration")
        lines.append(f"{Path(path).name}: " + (
            f"probe python_loop_s {probe['python_loop_s']:.4g}, gemm_s {probe['gemm_s']:.4g}"
            if probe else "no probe"))
        for workload, summary in record["workloads"].items():
            units = summary["runs"]["parent"][0]["metrics"]
            for metric, m in summary["metrics"].items():
                unit = units[metric]["unit"]
                cells = []
                for side in ("parent", "change"):
                    median = m[side]["median"]
                    cell = f"{side} {median:.4g} {unit}"
                    if unit == "s":
                        cell += (f" = {median / probe['python_loop_s']:.4g} loops"
                                 f" = {median / probe['gemm_s']:.4g} GEMMs"
                                 if probe else " (no probe)")
                    cells.append(cell)
                lines.append(f"  {workload} {metric}: " + "  ".join(cells))
    return lines


def parse_claim(text: str | None) -> dict | None:
    if text is None:
        return None
    workload, sep, metric = text.partition(":")
    if not (sep and workload and metric):
        raise argparse.ArgumentTypeError(f"--claim takes WORKLOAD:METRIC, got {text!r}")
    return {"workload": workload, "metric": metric, "rule": GAIN_RULE}


def compare(sides: dict, workload: str, seeds: list[int], seconds: float,
            end_to_end: dict) -> dict:
    """Alternating pairs on one workload: prints every run and the summary,
    and returns the runs with their :func:`summarize` summary."""
    runs, before_pairs = {"parent": [], "change": []}, []
    for i, seed in enumerate(seeds):
        before_pairs.append(conditions())
        print(f"{workload} seed {seed}: load {before_pairs[-1]['loadavg']} "
              f"steal {before_pairs[-1]['steal_pct']:.1f}% before the pair", flush=True)
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            r = run_once(sides[side], workload, seed, seconds)
            r["seed"] = seed
            runs[side].append(r)
            values = " ".join(f"{k}={m['value']:.4g}" for k, m in r["metrics"].items())
            print(f"{workload} seed {seed} {side:6s} correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} {values} "
                  f"load {r['load'][0]:.2f}->{r['load'][1]:.2f} steal {r['steal_pct']:.1f}%",
                  flush=True)

    summary = summarize(runs, end_to_end)
    print(f"\n{workload}: {summary['pairs']} pairs, {seconds} s per run")
    for metric, m in summary["metrics"].items():
        before, after = m["parent"], m["change"]
        judged = f"  {m['verdict']}" if "verdict" in m else ""
        print(f"  {metric:12s} parent {before['median']:.4g} [{before['q1']:.4g}, "
              f"{before['q3']:.4g}]  change {after['median']:.4g} [{after['q1']:.4g}, "
              f"{after['q3']:.4g}]  change/parent {after['median'] / before['median']:.3f}  "
              f"change lower in {m['change_lower_in']}/{m['pairs']}{judged}")
    print(f"  every run correct with 0 failed operations: {summary['every_run_correct']}\n")
    return {"workload": workload, "seeds": seeds, "run_seconds": seconds, "runs": runs,
            "before_pairs": before_pairs, **summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?", help="checkout of the parent commit")
    parser.add_argument("change", type=Path, nargs="?", help="checkout of the change")
    parser.add_argument("--workload", nargs="+",
                        help="one or more workloads, compared one after another")
    parser.add_argument("--seeds", help="inclusive range A-B, or one seed")
    parser.add_argument("--claim", type=parse_claim, metavar="WORKLOAD:METRIC",
                        help="the metric the change claims a gain on")
    parser.add_argument("--note", help="what the change is, recorded as 'change'")
    parser.add_argument("--out", type=Path, help="write the runs and the summaries as JSON here")
    parser.add_argument("--trajectory", type=Path, nargs="+", metavar="BENCH",
                        help="print the medians of these BENCH files against their probes "
                             "instead of comparing checkouts")
    args = parser.parse_args(argv)
    if args.trajectory:
        print("\n".join(trajectory(args.trajectory)))
        return 0
    missing = [name for name in ("parent", "change", "workload", "seeds")
               if getattr(args, name) is None]
    if missing:
        parser.error(f"comparing checkouts needs {', '.join(missing)}")
    if args.claim and args.claim["workload"] not in args.workload:
        parser.error(f"--claim names {args.claim['workload']!r}, which is not compared")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = parse_seeds(args.seeds)

    host = machine()
    workloads = {w: compare(sides, w, seeds, seconds, end_to_end) for w in args.workload}
    if args.out:
        method = (f"python3 scripts/bench_pairs.py PARENT CHANGE --workload "
                  f"{' '.join(args.workload)} --seeds {args.seeds}: per workload, "
                  f"{len(seeds)} alternating pairs of bench/run.py runs of {seconds} s "
                  f"with --trace 0; PARENT and CHANGE are checkouts of the parent "
                  f"commit and of the change")
        record = {"change": args.note, "claim": args.claim, "method": method,
                  "machine": host, "workloads": workloads}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
