"""Problem generators and the shift-sweep reproduction pipeline.

The reference experiment builds the dense 5-point-stencil discretization of
the 2-D Laplacian on an m x m grid (N = m^2), takes a sum of Krylov
subspaces with prescribed orders (retrying seeds until the target index is
hit), sweeps a log-spaced shift grid, and writes the centered singular
spectrum plus the principal-component coordinates of the solution family.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .analysis import EST_DIM_RATIO, SweepResult, default_omega_grid, sweep_solutions
from .io import write_csv
from .solver import ProblemInstance
from .subspaces import Subspace, index_of_invariance, krylov, subspace_sum


def poisson_2d(m: int) -> np.ndarray:
    """Dense N x N (N = m^2) 5-point-stencil Laplacian: diagonal 4, -1 on
    grid-neighbor pairs; symmetric positive definite with spectrum in (0, 8)."""
    if m < 2:
        raise ValueError("grid side m must be >= 2")
    t1 = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    eye = np.eye(m)
    return np.kron(t1, eye) + np.kron(eye, t1)


@dataclass(frozen=True)
class KrylovSumSpec:
    """Orders of the Krylov summands plus an optional index target; seed
    vectors are Gaussian, drawn from the generator handed to the builder."""

    orders: tuple
    target_index: int | None = None
    max_retries: int = 20


@dataclass(frozen=True)
class KrylovSumResult:
    subspace: Subspace
    dim: int
    index: int
    seed_vectors: tuple
    attempts: int


def krylov_sum_subspace(a: np.ndarray, spec: KrylovSumSpec, rng) -> KrylovSumResult:
    """Sum of Krylov subspaces with Gaussian seed vectors, re-drawn (bounded)
    until the index matches the target when one is set."""
    if any(k < 1 for k in spec.orders):
        raise ValueError("all Krylov orders must be >= 1")
    a = np.asarray(a)
    n = a.shape[0]
    for attempt in range(1, spec.max_retries + 1):
        seeds = tuple(rng.standard_normal(n) for _ in spec.orders)
        total = Subspace.zero(n)
        for vec, order in zip(seeds, spec.orders):
            total = subspace_sum(total, krylov(a, vec, order))
        ind = index_of_invariance(a, total)
        if spec.target_index is None or ind == spec.target_index:
            return KrylovSumResult(total, total.dim, ind, seeds, attempt)
    raise RuntimeError(
        f"retry budget ({spec.max_retries}) exhausted without hitting index "
        f"{spec.target_index}")


@dataclass(frozen=True)
class Figure1Config:
    """Configuration for the sweep-and-PCA experiment (defaults reproduce the
    two-summand setup: N = 529, dim S = 17, index 2, 200 shifts)."""

    m: int = 23
    orders: tuple = (11, 6)
    target_index: int | None = 2
    count: int = 200
    omega_lo: float = 1e-3
    omega_hi: float = 1e3
    seed: int = 0
    out_prefix: str | None = None
    write_solutions: bool = False
    max_retries: int = 20


@dataclass(frozen=True)
class Figure1Result:
    sweep: SweepResult
    subspace_dim: int
    index: int
    est_dim: int
    attempts: int
    elapsed_seconds: float
    files: dict = field(default_factory=dict)


def sweep_files(sweep: SweepResult, prefix: str, write_solutions: bool = False,
                metadata: dict | None = None) -> dict:
    """Write sigma.csv (index, sigma, sigma_ratio), coords.csv (omega plus the
    projection onto the leading est_dim principal directions), optionally
    solutions.csv (omega, x_1..x_n), and a metadata sidecar. Returns the
    written paths keyed by kind."""
    prefix_path = Path(prefix)
    if prefix_path.parent != Path("."):
        prefix_path.parent.mkdir(parents=True, exist_ok=True)
    files = {}

    sigma = sweep.sigma
    top = sigma[0] if sigma.size else 0.0
    ratio = sigma / top if top else np.zeros_like(sigma)
    sigma_path = f"{prefix}sigma.csv"
    write_csv(sigma_path, ["index", "sigma", "sigma_ratio"],
              np.column_stack([np.arange(1, sigma.size + 1), sigma, ratio]))
    files["sigma"] = sigma_path

    x = sweep.solutions
    omegas_ok = sweep.omegas[sweep.ok]
    coords_path = f"{prefix}coords.csv"
    write_csv(coords_path, ["omega"] + [f"coord_{k + 1}" for k in range(sweep.est_dim)],
              np.column_stack([omegas_ok, sweep.coords.T]))
    files["coords"] = coords_path

    if write_solutions:
        if np.iscomplexobj(x) and np.abs(x.imag).max() > 0:
            raise ValueError("solutions CSV supports real solutions only")
        sol_path = f"{prefix}solutions.csv"
        write_csv(sol_path, ["omega"] + [f"x_{k + 1}" for k in range(x.shape[0])],
                  np.column_stack([omegas_ok, np.real(x).T]))
        files["solutions"] = sol_path

    meta = {"est_dim": sweep.est_dim, "est_dim_sigma_ratio": EST_DIM_RATIO,
            "grid_points": int(sweep.omegas.size),
            "failures": list(sweep.failures)}
    if metadata:
        meta.update(metadata)
    meta_path = f"{prefix}meta.json"
    Path(meta_path).write_text(json.dumps(meta, indent=2))
    files["meta"] = meta_path
    return files


def run_figure1(config: Figure1Config = Figure1Config()) -> Figure1Result:
    """Full pipeline: operator, Krylov-sum constraint, shift sweep, PCA, and
    (when an output prefix is set) the CSV/JSON artifacts.

    A single master seed fans out to named substreams for the subspace seeds
    and the right-hand side, so identical configurations give bit-identical
    outputs."""
    start = time.perf_counter()
    a = poisson_2d(config.m)
    ss_subspace, ss_b = np.random.SeedSequence(config.seed).spawn(2)
    spec = KrylovSumSpec(tuple(config.orders), config.target_index, config.max_retries)
    built = krylov_sum_subspace(a, spec, np.random.default_rng(ss_subspace))
    b = np.random.default_rng(ss_b).standard_normal(a.shape[0])
    inst = ProblemInstance.create(a, built.subspace, b)
    grid = default_omega_grid(config.count, config.omega_lo, config.omega_hi)
    sweep = sweep_solutions(inst, grid)
    elapsed = time.perf_counter() - start
    files = {}
    if config.out_prefix is not None:
        metadata = dict(asdict(config))
        metadata.update({"subspace_dim": built.dim, "index": built.index,
                         "seed_attempts": built.attempts,
                         "elapsed_seconds": elapsed})
        files = sweep_files(sweep, config.out_prefix, config.write_solutions, metadata)
    return Figure1Result(sweep=sweep, subspace_dim=built.dim, index=built.index,
                         est_dim=sweep.est_dim, attempts=built.attempts,
                         elapsed_seconds=elapsed, files=files)
