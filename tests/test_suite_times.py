"""scripts/suite_times.py, loaded by path: scripts/ is not a package."""

import importlib.util
import sys
from pathlib import Path

from omegals import verify
from omegals.verify import SUITES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "suite_times.py"
spec = importlib.util.spec_from_file_location("suite_times", SCRIPT)
suite_times = importlib.util.module_from_spec(spec)
spec.loader.exec_module(suite_times)


def run(monkeypatch, capsys, *args) -> list[str]:
    """The lines the script prints for one repeat of seed 3 and ``args``."""
    monkeypatch.setattr(sys, "argv", ["suite_times.py", "--seed", "3", "--repeats", "1", *args])
    assert suite_times.main() == 0
    return capsys.readouterr().out.splitlines()


def test_prints_every_suites_steps(monkeypatch, capsys):
    lines = run(monkeypatch, capsys, "--trials", "2")
    assert f"batch {verify.MEASURE_BATCH}," in lines[0]
    assert lines[1].split() == ["suite", "trials", "draw", "ms", "measure", "ms", "check", "ms",
                                "total", "ms", "measure", "KB/trial"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == list(SUITES)
    assert all(row[1] == "2" and len(row) == 7 for row in rows)
    # the traced peak of the measure step, for the suites that have one
    assert [row[0] for row in rows if row[6] != "-"] == ["index", "nullspace", "manifolds"]
    assert all(float(row[6]) > 0 for row in rows if row[6] != "-")


def test_batch_sets_the_draws_each_measure_call_takes(monkeypatch, capsys):
    sizes, measure = [], verify._index_measure
    monkeypatch.setattr(verify, "_index_measure",
                        lambda draws: sizes.append(len(draws)) or measure(draws))
    lines = run(monkeypatch, capsys, "--suite", "index", "--trials", "5", "--batch", "2")
    assert "batch 2," in lines[0] and lines[2].split()[:2] == ["index", "5"]
    # the timed repeat, then the traced run
    assert sizes == [2, 2, 1, 2, 2, 1]
