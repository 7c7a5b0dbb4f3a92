"""Tests of the benchmark itself: its oracles and a minimal run of every
workload.

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402

# The 2x2 closed form: A = [[2, 1], [1, 2]], S = span(e1), b = e1 gives the
# coordinate (3 + 2 w) / (6 + 5 w), the limit 2/5 and index 1.
A2 = np.array([[2.0, 1.0], [1.0, 2.0]])
V2 = np.array([[1.0], [0.0]])
B2 = np.array([1.0, 0.0])


@pytest.mark.parametrize("omega", [0.0, 0.5, 1.0, 10.0, 1e3])
def test_reference_solve_closed_form(omega):
    x = oracles.reference_solve(A2, V2, B2, omega)
    assert abs(x[0] - (3 + 2 * omega) / (6 + 5 * omega)) <= 1e-14
    assert x[1] == 0.0


def test_reference_solve_limit_and_rank_index_closed_form():
    x = oracles.reference_solve(A2, V2, B2, math.inf)
    assert abs(x[0] - 2 / 5) <= 1e-14
    assert oracles.rank_index(A2, V2)[0] == 1


def _hermitian_instance(rng, n, p, complex_field, invariant_dims):
    """Hermitian indefinite invertible A and S = span of `invariant_dims`
    eigenvectors plus random directions, so index(S) = p - invariant_dims
    when 2 p <= n."""
    g = rng.standard_normal((n, n))
    if complex_field:
        g = g + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(g)
    lam = np.sign(rng.standard_normal(n)) * rng.uniform(0.5, 3.0, n)
    a = (u * lam) @ u.conj().T
    a = 0.5 * (a + a.conj().T)
    raw = rng.standard_normal((n, p - invariant_dims))
    if complex_field:
        raw = raw + 1j * rng.standard_normal(raw.shape)
    v, _ = np.linalg.qr(np.hstack([u[:, :invariant_dims], raw]))
    b = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_field else 0)
    return a, v, b, -float(lam.min())


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("invariant_dims", [0, 2])
def test_reference_solve_and_rank_index_agree(complex_field, invariant_dims):
    rng = np.random.default_rng(7 + invariant_dims + complex_field)
    n, p = 14, 5
    a, v, b, omega_min = _hermitian_instance(rng, n, p, complex_field, invariant_dims)
    q, kept, dropped = oracles.rank_index(a, v)
    assert q == p - invariant_dims
    assert dropped <= 1e-6 * kept

    shifts = omega_min + np.logspace(-1, 2, 15)
    xs = np.column_stack([oracles.reference_solve(a, v, b, w) for w in shifts])
    sigma = np.linalg.svd(xs - xs.mean(axis=1, keepdims=True), compute_uv=False)
    assert int(np.count_nonzero(sigma > 1e-8 * sigma[0])) == q

    # a third route: the normal equations with W = (A + omega I)^-1 formed
    # by a dense solve
    omega = float(shifts[3])
    w = np.linalg.solve(a + omega * np.eye(n), np.eye(n))
    av = a @ v
    y = np.linalg.solve(av.conj().T @ w @ av, av.conj().T @ w @ b)
    assert oracles.relative_error(v @ y, xs[:, 3]) <= 1e-10


def test_krylov_sum_basis_spans_the_power_vectors():
    rng = np.random.default_rng(3)
    a = oracles.laplacian_2d(5)
    seeds = [rng.standard_normal(25) for _ in range(2)]
    v = oracles.krylov_sum_basis(a, seeds, (4, 3))
    assert v.shape == (25, 7)
    assert np.linalg.norm(v.T @ v - np.eye(7)) <= 1e-12
    powers = [np.linalg.matrix_power(a, j) @ s for s, k in zip(seeds, (4, 3)) for j in range(k)]
    for vec in powers:
        assert oracles.outside_share(vec, v) <= 1e-10


def test_laplacian_matches_the_kronecker_form():
    for m in (2, 3, 6):
        t = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
        assert np.array_equal(oracles.laplacian_2d(m),
                              np.kron(t, np.eye(m)) + np.kron(np.eye(m), t))


def test_measured_values_are_shown_but_do_not_decide_ok():
    from workloads import Ledger

    ledger = Ledger()
    ledger.bound("gated", 1e-12, 1e-10)
    ledger.measure("shown", 2e-10, 1e-10)
    ledger.measure("shown", 1e-11, 1e-10)
    assert ledger.ok
    assert ledger.measured["shown"] == [2e-10, 1e-10]
    assert any(line.startswith("  measured shown: worst 2.000e-10") and "over, not gated" in line
               for line in ledger.lines())
    ledger.bound("gated", 2e-10, 1e-10)
    assert not ledger.ok


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload,failed_share", [
    ("figure1", 1 / 3), ("large-grid", 0.0), ("verify", 0.0), ("structure", 0.0)])
def test_minimal_run(workload, failed_share):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1
    assert result["failed"] == failed_share * result["attempted"]
    assert set(result["metrics"]) == {"setup_s", "iter_s.p50", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = _run(ROOT, "--workload", "figure1", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["analysis.sweep_solutions.shifts"]["value"] == 401
    assert result["metrics"]["analysis.sweep_solutions.failed_shifts"]["value"] == 1


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "figure1", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
