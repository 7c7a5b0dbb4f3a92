#!/usr/bin/env python3
"""Compare two checkouts on benchmark workloads in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload structure verify \
        --seeds 951-960 --claim structure:iter_s.p50 --out BENCH_label.json

For each workload in turn and each seed, runs ``python3 bench/run.py
--workload W --seed S --seconds T --trace 0`` in both checkouts, alternating
which side runs first, with T the ``run_seconds`` of CHANGE's BENCHMARK.json.
Around each run it records the load average (``os.getloadavg``) and the
share of CPU time stolen by the hypervisor (the ``steal`` column of
/proc/stat, read only), so a noisy neighbour shows next to the figures it
disturbed. Prints one line per run, then per workload and end-to-end metric
each side's median [q1, q3], the number of pairs in which CHANGE is lower,
and a verdict (:func:`verdict`) under the metric's ``better`` and relative
``bound`` from CHANGE's BENCHMARK.json. With ``--out PATH`` it writes one
JSON file: per workload every run record and that summary
(:func:`summarize`) under ``workloads``, with the ``method``, the ``claim``
named by ``--claim WORKLOAD:METRIC`` (or null), ``--note`` as ``change``,
and the ``machine`` (:func:`machine`).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

# The claim rule of verdict(), as recorded in a BENCH file.
GAIN_RULE = ("change lower in at least 9 of 10 alternating pairs, and the medians "
             "apart by more than the parent's interquartile range")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal (guest time is inside user)
    return fields[7], sum(fields[:8])


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


def machine() -> dict:
    """The CPU counts and the python, numpy and scipy versions of this run."""
    return {"cpus": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


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
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
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
            **summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, nargs="+",
                        help="one or more workloads, compared one after another")
    parser.add_argument("--seeds", required=True, help="inclusive range A-B, or one seed")
    parser.add_argument("--claim", type=parse_claim, metavar="WORKLOAD:METRIC",
                        help="the metric the change claims a gain on")
    parser.add_argument("--note", help="what the change is, recorded as 'change'")
    parser.add_argument("--out", type=Path, help="write the runs and the summaries as JSON here")
    args = parser.parse_args(argv)
    if args.claim and args.claim["workload"] not in args.workload:
        parser.error(f"--claim names {args.claim['workload']!r}, which is not compared")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = parse_seeds(args.seeds)

    workloads = {w: compare(sides, w, seeds, seconds, end_to_end) for w in args.workload}
    if args.out:
        method = (f"python3 scripts/bench_pairs.py PARENT CHANGE --workload "
                  f"{' '.join(args.workload)} --seeds {args.seeds}: per workload, "
                  f"{len(seeds)} alternating pairs of bench/run.py runs of {seconds} s "
                  f"with --trace 0; PARENT and CHANGE are checkouts of the parent "
                  f"commit and of the change")
        record = {"change": args.note, "claim": args.claim, "method": method,
                  "machine": machine(), "workloads": workloads}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
