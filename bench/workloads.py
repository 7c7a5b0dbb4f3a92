"""The four benchmark workloads.

Each workload has four parts:

- ``prepare()``: the program-side set-up a user pays once before the work:
  building the inputs from the seed, plus a warm-up pass through the same
  code at a small size. The runner times it several times and reports the
  median as part of ``setup_s``.
- ``reference()``: returns the benchmark's own reference values
  (``oracles``). The runner calls it once, untimed, in a child process
  (``compute_reference``) so that its memory stays out of the measured
  peak RSS.
- ``iterate(ops)``: one timed iteration. Every call into the library goes
  through ``ops.run`` so that an exception, or a result the workload flags
  as failed, is counted as a failed operation.
- ``check(out, ref, ledger)``: untimed comparison of one iteration's
  outputs with the references and with properties the method must have.

The shapes and counts below (grid sides, Krylov orders, shift counts, trial
counts) define the workloads; the README lists them with their reasons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from omegals import analysis, decomposition, experiments, solver, verify
from omegals.experiments import Figure1Config, KrylovSumSpec
from omegals.solver import OMEGA_INF, ProblemInstance

# Library functions are called through their modules so that the tracer's
# rebinding of module attributes also covers the benchmark's own calls.

# Tolerances of the checks. Reference solves are separate computations, so
# they agree to a relative tolerance well above round-off; the membership and
# spectrum cuts are the paper's (and the library's) own.
REF_TOL = 1e-8
MEMBERSHIP_TOL = 1e-10
SIGMA_TOL = 1e-8
# The rank of [V, AV] counts only when the singular values kept and dropped
# at the cut are this far apart.
RANK_GAP_TOL = 1e-6

FIGURE1_M = 23
LARGE_GRID_M = 60
SHIFT_COUNT = 200
OMEGA_LO, OMEGA_HI = 1e-3, 1e3
VARIANTS = {"two": ((11, 6), 2), "three": ((11, 6, 4), 3)}
WARMUP_M = 8
# The omega = inf endpoint request fails on every instance today. It runs on
# one fixed instance, not on the run's seed, so that its failures are the same
# share of the operations on every seed.
ENDPOINT_SEED = 0

# The suites at their default trial counts. The main-theorem and convexity
# suites are left out: each fails one check on a few percent of seeds (a
# membership residual or an off-segment residual just above its tolerance),
# so a run's verdict would depend on the seed (see CHANGES.md).
VERIFY_TRIALS = {"index": 500, "nullspace": 60, "manifolds": 100}

STRUCTURE_PAIRS = 8
KERNEL_MEMBERS = 3


class Ledger:
    """Worst measured value of every check next to its tolerance."""

    def __init__(self):
        self.rows = {}       # name -> [worst, tol, ok]
        self.measured = {}   # name -> [worst, tol]; shown, not gated

    def bound(self, name: str, value: float, tol: float) -> None:
        """A measured value that must stay at or below tol."""
        row = self.rows.setdefault(name, [value, tol, True])
        row[0] = max(row[0], value)
        row[2] = row[2] and bool(value <= tol)

    def measure(self, name: str, value: float, tol: float) -> None:
        """A value shown next to tol that does not decide ``ok``: a property
        the program misses on some seeds only (README, *Known faults*)."""
        row = self.measured.setdefault(name, [value, tol])
        row[0] = max(row[0], value)

    def equal(self, name: str, got, want) -> None:
        """An exact match, shown as got/want."""
        row = self.rows.setdefault(name, [f"{got} (want {want})", None, True])
        if got != want:
            row[0] = f"{got} (want {want})"
            row[2] = False

    @property
    def ok(self) -> bool:
        return all(row[2] for row in self.rows.values())

    def lines(self) -> list[str]:
        out = []
        for name, (worst, tol, ok) in self.rows.items():
            status = "ok" if ok else "FAIL"
            if tol is None:
                out.append(f"  check {name}: {worst} [{status}]")
            else:
                out.append(f"  check {name}: worst {worst:.3e} vs tol {tol:.0e} [{status}]")
        for name, (worst, tol) in self.measured.items():
            status = "within" if worst <= tol else "over"
            out.append(f"  measured {name}: worst {worst:.3e} vs tol {tol:.0e} [{status}, not gated]")
        return out


class Ops:
    """Counts library operations attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = {}   # message -> count

    def run(self, fn, *args, failed_if=None, **kwargs):
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except (ValueError, ArithmeticError, RuntimeError, np.linalg.LinAlgError) as err:
            self._fail(f"{fn.__name__}: {err}")
            return None
        reason = failed_if(result) if failed_if is not None else None
        if reason:
            self._fail(f"{fn.__name__}: {reason}")
            return None
        return result

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors[message] = self.errors.get(message, 0) + 1


def shift_grid() -> np.ndarray:
    return np.logspace(np.log10(OMEGA_LO), np.log10(OMEGA_HI), SHIFT_COUNT)


def seed_streams(seed: int):
    """The subspace and right-hand-side streams that ``run_figure1`` draws
    from its master seed, plus a third stream for the benchmark's own draws."""
    return np.random.SeedSequence(seed).spawn(3)


def library_instance(m: int, orders, target: int, seed: int) -> ProblemInstance:
    """The instance ``run_figure1`` builds for this configuration, built with
    the library's public functions."""
    a = experiments.poisson_2d(m)
    ss_subspace, ss_b, _ = seed_streams(seed)
    built = experiments.krylov_sum_subspace(a, KrylovSumSpec(tuple(orders), target),
                                            np.random.default_rng(ss_subspace))
    b = np.random.default_rng(ss_b).standard_normal(a.shape[0])
    return ProblemInstance.create(a, built.subspace, b)


@dataclass
class SweepRef:
    """Separately computed facts about one figure-1 configuration."""

    a: np.ndarray | None
    v: np.ndarray
    b: np.ndarray
    q: int
    attempts: int
    kept_ratio: float
    dropped_ratio: float
    grid: np.ndarray
    picks: tuple
    x_picks: dict


def sweep_reference(m: int, orders, target: int, seed: int, keep_operator: bool) -> SweepRef:
    """Rebuild the configuration from the seed without the library: the
    Laplacian, the Krylov-sum basis (re-drawing seed vectors until the
    rank-based index hits the target, the library's retry rule), b, and the
    reference solutions at the grid ends and the midpoint."""
    a = oracles.laplacian_2d(m)
    n = a.shape[0]
    ss_subspace, ss_b, _ = seed_streams(seed)
    rng = np.random.default_rng(ss_subspace)
    for attempt in range(1, 21):
        v = oracles.krylov_sum_basis(a, [rng.standard_normal(n) for _ in orders], orders)
        q, kept, dropped = oracles.rank_index(a, v)
        if q == target:
            break
    else:
        raise RuntimeError(f"no seed draw reached index {target}")
    b = np.random.default_rng(ss_b).standard_normal(n)
    grid = shift_grid()
    picks = (0, SHIFT_COUNT // 2, SHIFT_COUNT - 1)
    x_picks = {j: oracles.reference_solve(a, v, b, float(grid[j])) for j in picks}
    return SweepRef(a if keep_operator else None, v, b, q, attempt, kept, dropped,
                    grid, picks, x_picks)


def check_sweep(ledger: Ledger, label: str, result, ref: SweepRef, target: int) -> None:
    """Checks shared by figure1 and large-grid on one run_figure1 result."""
    sweep = result.sweep
    ledger.equal(f"{label}.index(rank[V,AV]-p)", ref.q, target)
    ledger.bound(f"{label}.rank_cut(dropped/kept sigma)", ref.dropped_ratio / ref.kept_ratio,
                 RANK_GAP_TOL)
    ledger.equal(f"{label}.library_index", result.index, ref.q)
    ledger.equal(f"{label}.dim_S", result.subspace_dim, ref.v.shape[1])
    ledger.equal(f"{label}.seed_attempts", result.attempts, ref.attempts)
    ledger.equal(f"{label}.est_dim", result.est_dim, ref.q)
    ledger.equal(f"{label}.shifts_solved", int(np.count_nonzero(sweep.ok)), SHIFT_COUNT)
    ledger.bound(f"{label}.grid_rel_err", float(np.max(np.abs(sweep.omegas / ref.grid - 1))),
                 1e-14)
    ledger.bound(f"{label}.sigma_q+1/sigma_1", float(sweep.sigma[ref.q] / sweep.sigma[0]),
                 SIGMA_TOL)
    if sweep.solutions.shape[1] == SHIFT_COUNT:
        for j in ref.picks:
            ledger.bound(f"{label}.ref_solve_rel_err",
                         oracles.relative_error(sweep.solutions[:, j], ref.x_picks[j]),
                         REF_TOL)
    files = result.files
    sigma_file = np.loadtxt(files["sigma"], delimiter=",", skiprows=1, ndmin=2)
    ledger.equal(f"{label}.sigma.csv_matches", bool(np.array_equal(sigma_file[:, 1], sweep.sigma)),
                 True)
    coords = np.loadtxt(files["coords"], delimiter=",", skiprows=1, ndmin=2)
    ledger.equal(f"{label}.coords.csv_shape", coords.shape, (SHIFT_COUNT, 1 + ref.q))
    meta = json.loads(Path(files["meta"]).read_text())
    ledger.equal(f"{label}.meta.est_dim", meta["est_dim"], ref.q)


class Figure1:
    """Both figure-1 variants at N = 529 with files, plus the omega = inf
    endpoint request on the two-summand instance."""

    name = "figure1"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def configs(self, m: int, prefix: str) -> dict:
        return {name: Figure1Config(m=m, orders=orders, target_index=target,
                                    count=SHIFT_COUNT, omega_lo=OMEGA_LO, omega_hi=OMEGA_HI,
                                    seed=self.seed, out_prefix=str(self.out_dir / f"{prefix}{name}_"))
                for name, (orders, target) in VARIANTS.items()}

    def prepare(self):
        for config in self.configs(WARMUP_M, "warmup_").values():
            experiments.run_figure1(config)
        orders, target = VARIANTS["two"]
        self.inst = library_instance(FIGURE1_M, orders, target, ENDPOINT_SEED)
        self.run_configs = self.configs(FIGURE1_M, "")

    def reference(self) -> dict:
        refs = {name: sweep_reference(FIGURE1_M, orders, target, self.seed, keep_operator=False)
                for name, (orders, target) in VARIANTS.items()}
        orders, target = VARIANTS["two"]
        end = sweep_reference(FIGURE1_M, orders, target, ENDPOINT_SEED, keep_operator=True)
        refs["x_inf"] = oracles.reference_solve(end.a, end.v, end.b, OMEGA_INF)
        return refs

    def iterate(self, ops: Ops) -> dict:
        out = {name: ops.run(experiments.run_figure1, config)
               for name, config in self.run_configs.items()}
        # Known fault: omega = inf is the library's public sentinel, yet the
        # sweep reports "matrix is singular" for it.
        out["endpoint"] = ops.run(analysis.sweep_solutions, self.inst, [OMEGA_INF],
                                  failed_if=lambda r: r.failures and r.failures[0][1])
        return out

    def check(self, out: dict, ref: dict, ledger: Ledger) -> None:
        for name, (_, target) in VARIANTS.items():
            if out[name] is not None:
                check_sweep(ledger, name, out[name], ref[name], target)
        if out["endpoint"] is not None:
            ledger.bound("endpoint.inf_vs_lstsq_rel_err",
                         oracles.relative_error(out["endpoint"].solutions[:, 0], ref["x_inf"]),
                         REF_TOL)


class LargeGrid:
    """The two-summand pipeline at N = 3600 writing solutions.csv."""

    name = "large-grid"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def config(self, m: int, prefix: str) -> Figure1Config:
        orders, target = VARIANTS["two"]
        return Figure1Config(m=m, orders=orders, target_index=target, count=SHIFT_COUNT,
                             omega_lo=OMEGA_LO, omega_hi=OMEGA_HI, seed=self.seed,
                             out_prefix=str(self.out_dir / prefix), write_solutions=True)

    def prepare(self):
        experiments.run_figure1(self.config(WARMUP_M, "warmup_"))
        self.run_config = self.config(LARGE_GRID_M, "large_")

    def reference(self) -> SweepRef:
        orders, target = VARIANTS["two"]
        return sweep_reference(LARGE_GRID_M, orders, target, self.seed, keep_operator=False)

    def iterate(self, ops: Ops) -> dict:
        return {"two": ops.run(experiments.run_figure1, self.run_config)}

    def check(self, out: dict, ref: SweepRef, ledger: Ledger) -> None:
        result = out["two"]
        if result is None:
            return
        check_sweep(ledger, "two", result, ref, VARIANTS["two"][1])
        with open(result.files["solutions"]) as fh:
            header = fh.readline().split(",")
            first = np.array(fh.readline().split(","), dtype=float)
            rows = 1 + sum(1 for _ in fh)
        n = LARGE_GRID_M ** 2
        ledger.equal("solutions.csv_shape", (rows, len(header)), (SHIFT_COUNT, n + 1))
        ledger.equal("solutions.csv_first_row_matches",
                     bool(np.array_equal(first[1:], result.sweep.solutions[:, 0])), True)


class Verify:
    """The randomized suites that pass on every seed, at their default trial
    counts."""

    name = "verify"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def prepare(self):
        for name in VERIFY_TRIALS:
            verify.run_suites([name], seed=self.seed, trials=2)

    def reference(self) -> None:
        return None

    def iterate(self, ops: Ops) -> dict:
        return {name: ops.run(verify.run_suites, [name], seed=self.seed, trials=trials)
                for name, trials in VERIFY_TRIALS.items()}

    def check(self, out: dict, ref: None, ledger: Ledger) -> None:
        for name, trials in VERIFY_TRIALS.items():
            if out[name] is None:
                continue
            (res,) = out[name]
            ledger.equal(f"{name}.trials", res.trials, trials)
            ledger.equal(f"{name}.failed_checks(of {res.checks})", len(res.failures), 0)


class Structure:
    """Decomposition, difference subspace, block-route differences, span
    estimate, constant kernel and condition report on the N = 529
    two-summand instance."""

    name = "structure"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        rng = np.random.default_rng(seed_streams(seed)[2])
        log_lo, log_hi = np.log(OMEGA_LO), np.log(OMEGA_HI)
        self.pairs = []
        while len(self.pairs) < STRUCTURE_PAIRS:
            omega, mu = np.exp(rng.uniform(log_lo, log_hi, size=2))
            if abs(np.log(omega / mu)) > 0.5:
                self.pairs.append((float(omega), float(mu)))
        self.omega0 = float(np.exp(rng.uniform(log_lo, log_hi)))
        self.member_rng_seed = int(rng.integers(2**32))

    def prepare(self):
        orders, target = VARIANTS["two"]
        self.structure_ops(library_instance(WARMUP_M, orders, target, self.seed), Ops())
        self.inst = library_instance(FIGURE1_M, orders, target, self.seed)

    def reference(self) -> tuple[SweepRef, dict]:
        orders, target = VARIANTS["two"]
        ref = sweep_reference(FIGURE1_M, orders, target, self.seed, keep_operator=True)
        shifts = sorted({w for pair in self.pairs for w in pair} | {self.omega0, OMEGA_INF})
        return ref, {w: oracles.reference_solve(ref.a, ref.v, ref.b, w) for w in shifts}

    def iterate(self, ops: Ops) -> dict:
        return self.structure_ops(self.inst, ops)

    def structure_ops(self, inst: ProblemInstance, ops: Ops) -> dict:
        a, s, b = inst.a, inst.constraint.direction, inst.b
        dec = ops.run(decomposition.tridiagonal_block_decomposition, a, s)
        out = {"dec": dec, "Y": None, "pairs": [], "limit": None, "report": None}
        if dec is not None:
            out["Y"] = ops.run(analysis.difference_subspace, dec)
            for omega, mu in self.pairs:
                out["pairs"].append((ops.run(solver.difference_via_blocks, dec, b, omega, mu),
                                     ops.run(solver.solve_weighted, inst, omega),
                                     ops.run(solver.solve_weighted, inst, mu)))
            out["limit"] = (ops.run(solver.limit_difference_via_blocks, dec, b, self.omega0),
                            ops.run(solver.solve_weighted, inst, self.omega0),
                            ops.run(solver.solve_limit, inst))
            out["report"] = ops.run(analysis.condition_report, dec, self.pairs)
        out["span_dim"] = ops.run(analysis.estimate_span_dim, a, s, seed=self.seed)
        out["kernel"] = ops.run(analysis.constant_kernel, a, s, self.omega0)
        return out

    def check(self, out: dict, refs: tuple[SweepRef, dict], ledger: Ledger) -> None:
        ref, x_ref = refs
        n, p = ref.v.shape
        dec = out["dec"]
        if dec is not None:
            ledger.equal("decomposition.p,q", (dec.p, dec.q), (p, ref.q))
        if out["Y"] is not None:
            ledger.equal("dim_Y", out["Y"].basis.dim, ref.q)
        y = out["Y"].basis.basis if out["Y"] is not None else None
        # The block route and the reference differences gate the result. The
        # explicit route's differences are only measured: they subtract two
        # solve_weighted solutions that are each accurate to about 1e-12 of
        # their norm, so for close large shifts, where the difference is
        # about 3e-4 of the solutions, they miss 1e-10 on some seeds.
        for (omega, mu), (sol, x_omega, x_mu) in zip(self.pairs, out["pairs"]):
            ref_diff = x_ref[omega] - x_ref[mu]
            blocks = dec.V @ sol.d if sol is not None else None
            if y is not None:
                ledger.bound("ref_difference_outside_Y", oracles.outside_share(ref_diff, y),
                             MEMBERSHIP_TOL)
            if blocks is not None:
                ledger.bound("blocks_vs_ref_rel_err", oracles.relative_error(blocks, ref_diff),
                             REF_TOL)
                if y is not None:
                    ledger.bound("blocks_difference_outside_Y", oracles.outside_share(blocks, y),
                                 MEMBERSHIP_TOL)
            if x_omega is None or x_mu is None:
                continue
            ledger.bound("explicit_vs_ref_rel_err", oracles.relative_error(x_omega, x_ref[omega]),
                         REF_TOL)
            ledger.bound("explicit_vs_ref_rel_err", oracles.relative_error(x_mu, x_ref[mu]),
                         REF_TOL)
            diff = x_omega - x_mu
            if y is not None:
                ledger.measure("explicit_difference_outside_Y", oracles.outside_share(diff, y),
                               MEMBERSHIP_TOL)
            if blocks is not None:
                ledger.measure("blocks_vs_explicit_rel_err", oracles.relative_error(blocks, diff),
                               REF_TOL)
        if out["limit"] is not None:
            sol, x_omega, x_limit = out["limit"]
            ref_diff = x_ref[self.omega0] - x_ref[OMEGA_INF]
            blocks = dec.V @ sol.d if sol is not None else None
            if blocks is not None:
                ledger.bound("limit_blocks_vs_ref_rel_err",
                             oracles.relative_error(blocks, ref_diff), REF_TOL)
                if y is not None:
                    ledger.bound("limit_blocks_difference_outside_Y",
                                 oracles.outside_share(blocks, y), MEMBERSHIP_TOL)
            if x_limit is not None:
                ledger.bound("limit_vs_lstsq_rel_err",
                             oracles.relative_error(x_limit, x_ref[OMEGA_INF]), REF_TOL)
            if blocks is not None and x_omega is not None and x_limit is not None:
                ledger.measure("limit_blocks_vs_explicit_rel_err",
                               oracles.relative_error(blocks, x_omega - x_limit), REF_TOL)
        if out["report"] is not None:
            ledger.equal("condition_report.T_invertible(SPD A)", out["report"].t_invertible, True)
            ledger.equal("condition_report.samples", len(out["report"].samples), STRUCTURE_PAIRS)
        if out["span_dim"] is not None:
            ledger.equal("estimate_span_dim", out["span_dim"], ref.q)
        kernel = out["kernel"]
        if kernel is not None:
            k = kernel.basis
            ledger.equal("kernel_is_proper(p <= dim < n)", p <= k.shape[1] < n, True)
            ledger.bound("AV_outside_kernel", oracles.outside_share(ref.a @ ref.v, k),
                         MEMBERSHIP_TOL)
            rng = np.random.default_rng(self.member_rng_seed)
            for _ in range(KERNEL_MEMBERS):
                b_k = k @ rng.standard_normal(k.shape[1])
                x_lo = oracles.reference_solve(ref.a, ref.v, b_k, OMEGA_LO)
                x_hi = oracles.reference_solve(ref.a, ref.v, b_k, OMEGA_HI)
                ledger.bound("kernel_member_shift_dependence", oracles.relative_error(x_lo, x_hi),
                             REF_TOL)


WORKLOADS = {cls.name: cls for cls in (Figure1, LargeGrid, Verify, Structure)}


def compute_reference(name: str, seed: int):
    """The named workload's reference values for this seed."""
    return WORKLOADS[name](seed, None).reference()
