"""The verdict rule of scripts/bench_pairs.py, one synthetic input per
verdict. The script is loaded by path: scripts/ is not a package."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


@pytest.mark.parametrize("before, after, better, expected", [
    # 10 of 10 pairs lower, medians 0.2 apart against an IQR of 0.045
    (PARENT, [v - 0.2 for v in PARENT], "lower", "gain"),
    # 9 of 10 pairs higher (one tie) on a higher-is-better metric
    (PARENT, [PARENT[0]] + [v + 0.2 for v in PARENT[1:]], "higher", "gain"),
    # median 0.4 above the parent's 1.045, beyond the bound of 0.25 * 1.045
    (PARENT, [v + 0.4 for v in PARENT], "lower", "worse"),
    # a parent IQR of 0.55 against a bound of 0.25 * 1.0, change runs overlapping
    ([0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1], [1.0] * 10, "lower", "unresolved"),
    # an IQR of 0.55, but every change run below every parent run; the
    # medians are 0.51 apart, inside that IQR, so no gain either
    ([0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1], [0.49] * 10, "lower", "within bound"),
    # 0.05 worse in every pair, inside the bound
    (PARENT, [v + 0.05 for v in PARENT], "lower", "within bound"),
], ids=["gain", "gain, higher is better", "worse", "unresolved", "every run better",
        "within bound"])
def test_verdict(before, after, better, expected):
    assert bench_pairs.verdict(before, after, better, 0.25) == expected


def fake_runs(monkeypatch, tmp_path):
    """A CHANGE checkout with a BENCHMARK.json, and run_once replaced: parent
    runs take 1.00..1.09 s (seeds 1..10), change runs 0.2 s less, and peak
    RSS is equal."""
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 20, "end_to_end": [
        {"name": "iter_s.p50", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]}))
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((workload, seed))
        value = PARENT[seed - 1] - (0.2 if checkout == change.resolve() else 0.0)
        return {"correct": True, "attempted": 3, "failed": 0, "load": (0.5, 0.5),
                "steal_pct": 0.0, "metrics": {"iter_s.p50": {"value": value, "unit": "s"},
                                              "peak_rss_mb": {"value": 70.0, "unit": "MB"}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return change, calls


def test_out_writes_the_runs_and_the_summary(tmp_path, monkeypatch, capsys):
    change, _ = fake_runs(monkeypatch, tmp_path)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(change), "--workload", "large-grid",
                             "--seeds", "1-10", "--out", str(out)]) == 0
    [(name, record)] = json.loads(out.read_text())["workloads"].items()
    assert name == record["workload"] == "large-grid" and record["seeds"] == list(range(1, 11))
    assert record["run_seconds"] == 20 and record["pairs"] == 10
    assert [r["seed"] for r in record["runs"]["change"]] == list(range(1, 11))
    assert [r["metrics"]["iter_s.p50"]["value"] for r in record["runs"]["parent"]] == PARENT
    time = record["metrics"]["iter_s.p50"]
    assert time["verdict"] == "gain" and time["change_lower_in"] == 10
    assert time["parent"]["median"] == pytest.approx(1.045)
    assert time["change"]["median"] == pytest.approx(0.845)
    assert record["metrics"]["peak_rss_mb"]["verdict"] == "within bound"
    assert record["every_run_correct"] is True
    assert "iter_s.p50" in capsys.readouterr().out


def test_several_workloads_write_one_bench_file(tmp_path, monkeypatch):
    change, calls = fake_runs(monkeypatch, tmp_path)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(change), "--workload", "structure",
                             "verify", "--seeds", "1-3", "--claim", "structure:iter_s.p50",
                             "--note", "a change", "--out", str(out)]) == 0
    # one workload after the other, each pair alternating which side runs first
    assert [c[0] for c in calls] == ["structure"] * 6 + ["verify"] * 6
    assert [c[1] for c in calls] == [1, 1, 2, 2, 3, 3] * 2
    record = json.loads(out.read_text())
    assert set(record) == {"change", "claim", "method", "machine", "workloads"}
    assert record["change"] == "a change"
    assert record["claim"] == {"workload": "structure", "metric": "iter_s.p50",
                               "rule": bench_pairs.GAIN_RULE}
    assert "--workload structure verify --seeds 1-3" in record["method"]
    assert set(record["machine"]) == {"cpus", "usable_cpus", "python", "numpy", "scipy"}
    assert record["machine"]["numpy"] == np.__version__
    assert list(record["workloads"]) == ["structure", "verify"]
    assert all(w["pairs"] == 3 and w["every_run_correct"] for w in record["workloads"].values())


@pytest.mark.parametrize("claim", ["structure", "figure1:iter_s.p50"])
def test_claim_must_name_a_compared_workload_and_a_metric(tmp_path, monkeypatch, claim):
    change, calls = fake_runs(monkeypatch, tmp_path)
    with pytest.raises(SystemExit):
        bench_pairs.main([str(tmp_path / "parent"), str(change), "--workload", "structure",
                          "--seeds", "1", "--claim", claim])
    assert calls == []
