"""scripts/suite_times.py, loaded by path: scripts/ is not a package."""

import importlib.util
import sys
from pathlib import Path

from omegals.verify import SUITES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "suite_times.py"
spec = importlib.util.spec_from_file_location("suite_times", SCRIPT)
suite_times = importlib.util.module_from_spec(spec)
spec.loader.exec_module(suite_times)


def test_prints_every_suites_steps(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["suite_times.py", "--seed", "3", "--repeats", "1",
                                      "--trials", "2"])
    assert suite_times.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["suite", "trials", "draw", "ms", "measure", "ms", "check", "ms",
                                "total", "ms"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == list(SUITES)
    assert all(row[1] == "2" and len(row) == 6 for row in rows)
