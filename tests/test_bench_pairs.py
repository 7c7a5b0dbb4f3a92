"""The verdict rule of scripts/bench_pairs.py, one synthetic input per
verdict. The script is loaded by path: scripts/ is not a package."""

import importlib.util
from pathlib import Path

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
