"""Problem generators and the shift-sweep reproduction pipeline.

The reference experiment builds the 5-point-stencil discretization of the
2-D Laplacian on an m x m grid (N = m^2) as a sparse matrix with its exact
sine-transform eigendecomposition, takes a sum of Krylov subspaces with
prescribed orders (retrying seeds until the target index is hit), sweeps a
log-spaced shift grid, and writes the centered singular spectrum plus the
principal-component coordinates of the solution family. The dense
``poisson_2d`` is the same operator, kept as the oracle and for the CLI.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import EST_DIM_RATIO, SweepResult, default_omega_grid, sweep_solutions
from .io import write_csv
from .linalg import as_operator
from .solver import ProblemInstance
from .subspaces import Subspace, index_of_invariance, krylov, subspace_sum

# The stages of run_figure1, timed in this order; all but "write" go into
# meta.json.
FIGURE1_STAGES = ("operator", "krylov_sum", "instance", "sweep", "write")

# Seed-vector draws krylov_sum_subspace makes before giving up on the target
# index.
KRYLOV_SUM_RETRIES = 20


def poisson_2d(m: int) -> np.ndarray:
    """Dense N x N (N = m^2) 5-point-stencil Laplacian: diagonal 4, -1 on
    grid-neighbor pairs; symmetric positive definite with spectrum in (0, 8)."""
    if m < 2:
        raise ValueError("grid side m must be >= 2")
    t1 = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    eye = np.eye(m)
    return np.kron(t1, eye) + np.kron(eye, t1)


@dataclass(frozen=True)
class SineFactorization:
    """The exact eigendecomposition U diag(lambdas) U* of the m x m grid
    Laplacian, U = S (x) S with the orthogonal, symmetric type-I sine
    transform S_jk = sqrt(2/(m+1)) sin(jk pi/(m+1)), j, k = 1..m (Buzbee,
    Golub & Nielson 1970). The eigenvalue of column (j, k) is mu_j + mu_k,
    mu_j = 2 - 2cos(j pi/(m+1)) = 4 sin^2(j pi/(2(m+1))); ``order`` sorts the
    columns by descending eigenvalue, the order of ``hermitian_eig``."""

    s: np.ndarray
    order: np.ndarray
    lambdas: np.ndarray

    @classmethod
    def for_grid(cls, m: int) -> "SineFactorization":
        j = np.arange(1, m + 1)
        # jk reduced mod 2(m+1) keeps the sine's argument in [0, 2 pi), so S
        # is accurate to a few eps for every m
        s = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * (np.outer(j, j) % (2 * (m + 1))) / (m + 1))
        mu = 4.0 * np.sin(j * np.pi / (2 * (m + 1))) ** 2
        grid = (mu[:, None] + mu[None, :]).ravel()
        order = np.argsort(-grid, kind="stable")
        return cls(s, order, grid[order])

    def apply_uh(self, x: np.ndarray) -> np.ndarray:
        """U* x = S X S per column, X the column as an m x m grid (row-major,
        the node order of ``poisson_2d``), rows in ``lambdas`` order."""
        m = self.s.shape[0]
        # S along the first grid index, then (batched) along the second
        y = self.s @ (self.s @ x.reshape(m, -1)).reshape(m, m, -1)
        return y.reshape(x.shape)[self.order]


def poisson_2d_factored(m: int) -> tuple:
    """The operator of :func:`poisson_2d` as a SciPy CSR array, with its
    exact :class:`SineFactorization`: O(N) memory and O(N^1.5) per U*x
    instead of a dense N x N matrix and its O(N^3) eigendecomposition."""
    if m < 2:
        raise ValueError("grid side m must be >= 2")
    import scipy.sparse as sp

    t1 = sp.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(m, m))
    eye = sp.eye_array(m)
    return (sp.kron(t1, eye) + sp.kron(eye, t1)).tocsr(), SineFactorization.for_grid(m)


@dataclass(frozen=True)
class KrylovSumSpec:
    """Orders of the Krylov summands plus an optional index target; seed
    vectors are Gaussian, drawn from the generator handed to the builder."""

    orders: tuple
    target_index: int | None = None


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
    a = as_operator(a)
    n = a.shape[0]
    for attempt in range(1, KRYLOV_SUM_RETRIES + 1):
        seeds = tuple(rng.standard_normal(n) for _ in spec.orders)
        total = Subspace.zero(n)
        for vec, order in zip(seeds, spec.orders):
            total = subspace_sum(total, krylov(a, vec, order))
        ind = index_of_invariance(a, total)
        if spec.target_index is None or ind == spec.target_index:
            return KrylovSumResult(total, total.dim, ind, seeds, attempt)
    raise RuntimeError(
        f"retry budget ({KRYLOV_SUM_RETRIES}) exhausted without hitting index "
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


@dataclass(frozen=True)
class Figure1Result:
    sweep: SweepResult
    subspace_dim: int
    index: int
    est_dim: int
    attempts: int
    elapsed_seconds: float
    files: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)


def sweep_files(sweep: SweepResult, prefix: str, write_solutions: bool = False,
                metadata: dict | None = None) -> dict:
    """Write sigma.csv (index, sigma, sigma_ratio), coords.csv (omega plus the
    projection onto the leading est_dim principal directions), optionally
    solutions.csv (omega, x_1..x_n), and a metadata sidecar with the largest
    Gram condition bound and the smallest guard margin of the solved shifts.
    solutions.csv is written one row block per column block of the family,
    each formed where ``write_csv`` formats it: the omegas and
    ``sweep.solution_rows(cols)`` go into one (c, n + 1) table, which the
    GEMM of a real family writes straight into. So no n x K matrix is
    formed, and a process holds one table at a time. Given the block sizes,
    ``write_csv`` formats a large family in whole blocks across the usable
    CPUs, and the file holds the bits of ``sweep.solutions``. A family with
    a nonzero imaginary part raises a ValueError before any file is
    written. Returns the written paths keyed by kind."""
    if (write_solutions and sweep.dtype.kind == "c"
            and any(np.abs(x.imag).max() > 0 for _, x in sweep.solution_blocks())):
        raise ValueError("solutions CSV supports real solutions only")
    # the directory the files go into; a prefix "out/" names the directory out
    Path(f"{prefix}sigma.csv").parent.mkdir(parents=True, exist_ok=True)
    files = {}

    sigma = sweep.sigma
    top = sigma[0] if sigma.size else 0.0
    ratio = sigma / top if top else np.zeros_like(sigma)
    sigma_path = f"{prefix}sigma.csv"
    write_csv(sigma_path, ["index", "sigma", "sigma_ratio"],
              [np.column_stack([np.arange(1, sigma.size + 1), sigma, ratio])])
    files["sigma"] = sigma_path

    omegas_ok = sweep.omegas[sweep.ok]
    coords_path = f"{prefix}coords.csv"
    write_csv(coords_path, ["omega"] + [f"coord_{k + 1}" for k in range(sweep.est_dim)],
              [np.column_stack([omegas_ok, sweep.coords.T])])
    files["coords"] = coords_path

    if write_solutions:
        sol_path = f"{prefix}solutions.csv"

        def rows(cols):  # called where write_csv formats the block
            table = np.empty((cols.stop - cols.start, sweep.x0.size + 1))
            table[:, 0] = omegas_ok[cols]
            if sweep.dtype.kind == "c":
                table[:, 1:] = sweep.solution_rows(cols).real
            else:
                sweep.solution_rows(cols, out=table[:, 1:])
            return table

        columns = sweep.solution_columns()
        write_csv(sol_path, ["omega"] + [f"x_{k + 1}" for k in range(sweep.x0.size)],
                  [partial(rows, cols) for cols in columns],
                  [cols.stop - cols.start for cols in columns])
        files["solutions"] = sol_path

    meta = {"est_dim": sweep.est_dim, "est_dim_sigma_ratio": EST_DIM_RATIO,
            "grid_points": int(sweep.omegas.size),
            "failures": list(sweep.failures)}
    # the worst per-shift diagnostic over the solved shifts; null when none
    # was solved or the value is not finite (every solved shift at OMEGA_INF)
    for name, worst in (("gram_cond_bound", np.max), ("guard_margin", np.min)):
        values = getattr(sweep, name)[sweep.ok]
        value = float(worst(values)) if values.size else math.nan
        meta[f"worst_{name}"] = value if math.isfinite(value) else None
    if metadata:
        meta.update(metadata)
    meta_path = f"{prefix}meta.json"
    Path(meta_path).write_text(json.dumps(meta, indent=2))
    files["meta"] = meta_path
    return files


def run_figure1(config: Figure1Config = Figure1Config()) -> Figure1Result:
    """Full pipeline: operator, Krylov-sum constraint, shift sweep, PCA, and
    (when an output prefix is set) the CSV/JSON artifacts.

    The operator is the sparse grid Laplacian with its exact sine-transform
    factorization, so no dense N x N matrix is formed. A single master seed
    fans out to named substreams for the subspace seeds and the right-hand
    side, so identical configurations give bit-identical outputs. The
    seconds of each of FIGURE1_STAGES go into ``stages``. The shift grid is
    built first, so a grid that :func:`default_omega_grid` rejects fails
    before any work is done or any file is written."""
    import scipy.sparse  # noqa: F401  loaded before the clock: no stage times the import
    grid = default_omega_grid(config.count, config.omega_lo, config.omega_hi)
    marks = [time.perf_counter()]
    a, factorization = poisson_2d_factored(config.m)
    marks.append(time.perf_counter())
    ss_subspace, ss_b = np.random.SeedSequence(config.seed).spawn(2)
    spec = KrylovSumSpec(tuple(config.orders), config.target_index)
    built = krylov_sum_subspace(a, spec, np.random.default_rng(ss_subspace))
    marks.append(time.perf_counter())
    b = np.random.default_rng(ss_b).standard_normal(a.shape[0])
    inst = ProblemInstance.create(a, built.subspace, b, eig=factorization)
    inst._factors  # made here so that the sweep stage times the shifts alone
    marks.append(time.perf_counter())
    sweep = sweep_solutions(inst, grid)
    marks.append(time.perf_counter())
    stages = {name: end - begin for name, begin, end in zip(FIGURE1_STAGES, marks, marks[1:])}
    elapsed = marks[-1] - marks[0]
    files = {}
    if config.out_prefix is not None:
        metadata = dict(asdict(config))
        metadata.update({"subspace_dim": built.dim, "index": built.index,
                         "seed_attempts": built.attempts,
                         "elapsed_seconds": elapsed, "stages": dict(stages)})
        files = sweep_files(sweep, config.out_prefix, config.write_solutions, metadata)
    stages["write"] = time.perf_counter() - marks[-1]
    return Figure1Result(sweep=sweep, subspace_dim=built.dim, index=built.index,
                         est_dim=sweep.est_dim, attempts=built.attempts,
                         elapsed_seconds=elapsed, files=files, stages=stages)
