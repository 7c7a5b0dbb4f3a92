"""Randomized verification suites.

Each suite draws seeded random instances, runs the relevant identity or
bound checks at fixed tolerances, and reports per-check failures. The CLI
``verify`` subcommand and the acceptance tests both run through these.

A suite is a draw step, which makes every ``rng`` call of one trial, and a
check step, which does the rest. :func:`_run_trials` splits the trials into
contiguous chunks, one per usable CPU, and runs each chunk but the first in
a forked worker that replays the draws before its chunk: every seed draws
the same instances, and the merged result is that of one process. The
main-theorem suite runs as one chunk (see :func:`run_main_theorem_suite`).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    convexity_coordinates,
    difference_subspace,
    membership_residual,
)
from .decomposition import (
    NullspaceN,
    block_tridiagonal,
    tridiagonal_block_decomposition,
)
from .linalg import adjoint, hermitian_part, numerical_rank, orthonormalize, solve_hermitian
from .manifolds import (
    ManifoldClass,
    compression_invertible,
    construct_positive_member,
    membership,
    perturb_to_invertible,
    swap_witness,
)
from .sampling import (
    gaussian_matrix,
    gaussian_vector,
    random_hermitian,
    random_hermitian_invertible,
    random_nested_subspaces,
    random_shift_offset,
    random_spd,
    random_subspace,
    random_unitary,
)
from .solver import ProblemInstance, solve_limit, solve_weighted
from .subspaces import (
    Subspace,
    index_of_invariance,
    krylov,
    orthogonal_complement,
    reach,
    subspace_intersect,
    subspace_sum,
    subspaces_equal,
)
from .workers import Workers, usable_cpus

MEMBERSHIP_TOL = 1e-10
RESIDUAL_TOL = 1e-10
CONVEXITY_T_SLACK = 1e-10
CONVEXITY_OFF_TOL = 1e-9

# Fewest trials a chunk may hold. A worker costs about 3 ms to fork, run
# and reap before any trial, plus the replay of the draws before its chunk;
# at two chunks of 8 trials the split about breaks even (2-core machine).
MIN_CHUNK_TRIALS = 8


@dataclass
class SuiteResult:
    name: str
    trials: int = 0
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"[{self.name}] {status}: {self.checks} checks over {self.trials} trials"
        if self.failures:
            line += f", {len(self.failures)} failures"
        return line


def _run_chunk(name, draw, check, seed, start, stop) -> SuiteResult:
    """Trials start .. stop - 1, after replaying the draws of the trials
    before them so that the rng stream is the one of a full run."""
    result = SuiteResult(name)
    rng = np.random.default_rng(seed)
    for trial in range(start):
        draw(rng, trial)
    for trial in range(start, stop):
        result.trials += 1
        check(result, trial, draw(rng, trial))
    return result


def _chunk_bounds(trials: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) chunks, one per usable CPU, each holding at
    least ``MIN_CHUNK_TRIALS`` trials."""
    chunks = max(1, min(usable_cpus(), trials // MIN_CHUNK_TRIALS))
    return [(k * trials // chunks, (k + 1) * trials // chunks) for k in range(chunks)]


def _pickled_chunk(*chunk) -> bytes:
    """A worker's result: the pickled (True, result) of its chunk or (False,
    exception); an exception that does not pickle fails the worker."""
    try:
        outcome = (True, _run_chunk(*chunk))
    except BaseException as exc:  # the caller re-raises it
        outcome = (False, exc)
    return pickle.dumps(outcome)


def _run_trials(name, draw, check, seed: int, trials: int) -> SuiteResult:
    """Run trials 0 .. trials - 1 of one suite, ``check(result, trial,
    draw(rng, trial))`` each, and merge the chunks in trial order.

    The calling process runs the first chunk. The first exception in trial
    order is raised here with its type and message, and a worker that dies
    without a result raises a RuntimeError naming it. Every worker is reaped
    before this returns or raises.
    """
    first, *rest = _chunk_bounds(trials)
    with Workers() as workers:
        for start, stop in rest:
            workers.fork(f"{name} worker for trials {start}..{stop - 1}", _pickled_chunk,
                         name, draw, check, seed, start, stop)
        result = _run_chunk(name, draw, check, seed, *first)
        parts = [pipe.read() for pipe in workers.pipes()]
    for data in parts:
        ok, part = pickle.loads(data)
        if not ok:
            raise part
        result.trials += part.trials
        result.checks += part.checks
        result.failures += part.failures
    return result


def _index_draw(rng, trial):
    complex_field = bool(trial % 2)
    n = int(rng.integers(3, 11))
    p = int(rng.integers(1, n))
    s = random_subspace(rng, n, p, complex_field)
    a = gaussian_matrix(rng, n, n, complex_field)
    while np.linalg.cond(a) > 1e6:
        a = gaussian_matrix(rng, n, n, complex_field)
    omega = float(rng.standard_normal())
    shift = omega if not complex_field else omega + 1j * float(rng.standard_normal())
    a_h = random_hermitian(rng, n, complex_field)
    p2 = int(rng.integers(1, n))
    s2 = random_subspace(rng, n, p2, complex_field)
    b_op = gaussian_matrix(rng, n, n, complex_field)
    return s, a, shift, a_h, s2, b_op


def _index_check(result, trial, drawn):
    s, a, shift, a_h, s2, b_op = drawn
    n, p = s.basis.shape
    q = index_of_invariance(a, s)
    result.check(0 <= q <= min(p, n - p), f"trial {trial}: index bound violated (q={q})")

    q_shift = index_of_invariance(a + shift * np.eye(n), s)
    result.check(q_shift == q, f"trial {trial}: shift changed the index {q}->{q_shift}")

    q_inv = index_of_invariance(np.linalg.inv(a), s)
    result.check(q_inv == q, f"trial {trial}: inverse changed the index {q}->{q_inv}")

    sum_h = reach(a_h, s)
    q_h = sum_h.dim - s.dim
    s_perp = orthogonal_complement(s)
    q_perp = index_of_invariance(a_h, s_perp)
    result.check(q_perp == q_h,
                 f"trial {trial}: Hermitian complement index {q_h}->{q_perp}")
    s_between = subspace_intersect(s_perp, sum_h)
    result.check(s_between.dim == q_h,
                 f"trial {trial}: complement-in-sum dimension {s_between.dim} != {q_h}")
    q_between = index_of_invariance(a_h, s_between)
    result.check(q_between == q_h,
                 f"trial {trial}: index of S-perp cap (S+AS) is {q_between} != {q_h}")

    q_s2 = index_of_invariance(a, s2)
    result.check(
        index_of_invariance(a, subspace_sum(s, s2)) <= q + q_s2,
        f"trial {trial}: subadditivity in the subspace argument failed")
    q_b = index_of_invariance(b_op, s)
    result.check(index_of_invariance(a + b_op, s) <= q + q_b,
                 f"trial {trial}: subadditivity under sums failed")
    result.check(index_of_invariance(a @ b_op, s) <= q + q_b,
                 f"trial {trial}: subadditivity under products failed")


def run_index_suite(seed: int = 0, trials: int = 500) -> SuiteResult:
    """Shift/inverse/Hermitian-complement equalities and the three
    subadditivity inequalities, as exact integer comparisons."""
    return _run_trials("index", _index_draw, _index_check, seed, trials)


def _main_theorem_draw(rng, trial):
    complex_field = bool(trial % 2)
    n = int(rng.integers(4, 41))
    p = int(rng.integers(1, n))
    a = random_hermitian_invertible(rng, n, complex_field)
    s = random_subspace(rng, n, p, complex_field)
    b = gaussian_vector(rng, n, complex_field)
    # the two shifts are omega_min plus these offsets, so their distance
    # does not depend on omega_min
    omega_offset = random_shift_offset(rng)
    mu_offset = random_shift_offset(rng)
    while abs(mu_offset - omega_offset) < 0.25:
        mu_offset = random_shift_offset(rng)
    return a, s, b, omega_offset, mu_offset


def _main_theorem_check(result, trial, drawn):
    a, s, b, omega_offset, mu_offset = drawn
    # the instance and the decomposition read one factorization of A, the
    # one linalg.operator_eig keeps for this array
    inst = ProblemInstance.create(a, s, b)
    dec = tridiagonal_block_decomposition(a, s)
    q = index_of_invariance(a, s)
    result.check(dec.q == q, f"trial {trial}: decomposition q={dec.q} != index {q}")
    w = dec.W
    w_err = float(np.linalg.norm(adjoint(w) @ w - np.eye(w.shape[1])))
    result.check(w_err <= RESIDUAL_TOL,
                 f"trial {trial}: ||W*W - I|| = {w_err:.3e} > {RESIDUAL_TOL}")
    diff_space = difference_subspace(dec)
    result.check(diff_space.basis.dim == dec.q,
                 f"trial {trial}: difference subspace dim {diff_space.basis.dim} != q={dec.q}")
    x_omega = solve_weighted(inst, inst.omega_min + omega_offset)
    diff = x_omega - solve_weighted(inst, inst.omega_min + mu_offset)
    if dec.q == 0:
        scale = max(1.0, float(np.linalg.norm(x_omega)))
        result.check(np.linalg.norm(diff) <= MEMBERSHIP_TOL * scale,
                     f"trial {trial}: invariant case produced a nonzero difference")
    else:
        res = membership_residual(diff, diff_space.basis)
        result.check(res <= MEMBERSHIP_TOL,
                     f"trial {trial}: membership residual {res:.3e} > {MEMBERSHIP_TOL}")


def run_main_theorem_suite(seed: int = 0, trials: int = 200) -> SuiteResult:
    """Solution differences stay in the q-dimensional difference subspace
    (relative residual <= 1e-10) and that subspace has dimension exactly q;
    the decomposition's q is the index of invariance and its W is unitary.

    Runs in one process: its instances reach n = 40, where LAPACK's
    eigensolvers run OpenBLAS's threaded kernels, and the spinning threads
    of two processes on two cores made a 40 x 40 ``eigh`` six times slower
    (0.18 -> 1.2 ms) and this suite two to three times slower."""
    return _run_chunk("main-theorem", _main_theorem_draw, _main_theorem_check, seed, 0, trials)


CONVEXITY_GRID = np.logspace(-3, 3, 50)


def _convexity_draw(rng, trial):
    """The first of up to 12 drawn instances that passes the sampler's
    tests, or None."""
    for _ in range(12):
        n = int(rng.integers(6, 25))
        # a wide spectrum keeps the Krylov family from converging within
        # the sampled orders, so the segment stays well separated
        a = random_spd(rng, n, lo=0.3, hi=30.0)
        k = int(rng.integers(2, min(7, n - 1)))
        b = rng.standard_normal(n)
        s = krylov(a, b, k)
        if index_of_invariance(a, s) != 1:
            continue
        candidate = ProblemInstance.create(a, s, b)
        separation = np.linalg.norm(solve_limit(candidate)
                                    - solve_weighted(candidate, 0.0))
        if separation >= 1e-4 * max(1.0, float(np.linalg.norm(b))):
            return candidate
    return None


def _convexity_check(result, trial, inst):
    if inst is None:
        result.check(False, f"trial {trial}: no usable instance after 12 draws")
        return
    a = inst.a
    s = inst.constraint.direction
    v = s.basis
    x_zero = solve_weighted(inst, 0.0)
    y_gal = solve_hermitian(hermitian_part(adjoint(v) @ (a @ v)), adjoint(v) @ inst.b)
    x_gal = v @ y_gal
    scale = max(1.0, float(np.linalg.norm(x_gal)))
    result.check(np.linalg.norm(x_zero - x_gal) <= RESIDUAL_TOL * scale,
                 f"trial {trial}: zero-shift solution differs from the Galerkin oracle")
    x_inf = solve_limit(inst)
    y_ls, *_ = np.linalg.lstsq(a @ v, inst.b, rcond=None)
    x_ls = v @ y_ls
    result.check(np.linalg.norm(x_inf - x_ls) <= RESIDUAL_TOL * max(1.0, np.linalg.norm(x_ls)),
                 f"trial {trial}: limit solution differs from the least-squares oracle")
    conv = convexity_coordinates(inst, CONVEXITY_GRID)
    result.check(
        bool(np.all(conv.ts >= -CONVEXITY_T_SLACK) and np.all(conv.ts <= 1 + CONVEXITY_T_SLACK)),
        f"trial {trial}: segment coordinate out of [0, 1] "
        f"(min {conv.ts.min():.3e}, max {conv.ts.max():.3e})")
    result.check(bool(np.all(conv.off_residuals <= CONVEXITY_OFF_TOL)),
                 f"trial {trial}: off-segment residual up to {conv.off_residuals.max():.3e}")


def run_convexity_suite(seed: int = 0, trials: int = 50) -> SuiteResult:
    """Endpoint identities and convex-combination coordinates for positive
    operators over Krylov constraints with index 1.

    Off-segment residuals are measured relative to the segment length, so the
    sampler rejects right-hand sides whose Krylov family has numerically
    converged (endpoint separation below 1e-4 * max(1, ||b||)): there
    the segment direction itself is round-off and the relative measure is
    meaningless.
    """
    return _run_trials("convexity", _convexity_draw, _convexity_check, seed, trials)


def _nullspace_identities(result: SuiteResult, dec, label: str) -> NullspaceN:
    """Check the nullspace identities of H*; returns the nullspace checked."""
    ns = dec.Hstar_nullspace
    hstar = adjoint(dec.H)
    scale = max(1.0, float(np.linalg.norm(hstar)))
    result.check(np.linalg.norm(hstar @ ns.N) <= RESIDUAL_TOL * scale,
                 f"{label}: H* N residual too large")
    result.check(numerical_rank(ns.N) == dec.q, f"{label}: rank(N) != q")
    result.check(numerical_rank(ns.N1) == dec.q, f"{label}: rank(N1) != q")
    # T N1 + B* N2 = 0 with B* of full column rank q; least squares on B*
    # itself, not the normal equations BB*, which square its conditioning
    predicted_n2 = -np.linalg.lstsq(adjoint(dec.B), dec.T @ ns.N1, rcond=None)[0]
    result.check(np.linalg.norm(ns.N2 - predicted_n2) <= RESIDUAL_TOL * max(1.0, np.linalg.norm(ns.N2)),
                 f"{label}: N2 != -(BB*)^-1 B T N1")
    return ns


def _nullspace_draw(rng, trial):
    complex_field = bool(trial % 2)
    n = int(rng.integers(5, 15))
    p = int(rng.integers(1, n - 1))
    a = random_hermitian_invertible(rng, n, complex_field)
    s = random_subspace(rng, n, p, complex_field)
    p_eq = int(rng.integers(1, max(2, n // 2)))
    square = None
    if 2 * p_eq <= n:
        s_eq = random_subspace(rng, n, p_eq, complex_field)
        square = random_hermitian_invertible(rng, n, complex_field), s_eq
    q3 = int(rng.integers(1, 4))
    p3 = q3 + int(rng.integers(0, 3))
    extra = int(rng.integers(1, 4))
    n3 = p3 + q3 + extra
    tau = rng.uniform(0.5, 2.0, size=p3 - q3) * np.where(rng.standard_normal(p3 - q3) > 0, 1, -1)
    m_inv = gaussian_matrix(rng, q3, q3, complex_field)
    while numerical_rank(m_inv) < q3:
        m_inv = gaussian_matrix(rng, q3, q3, complex_field)
    c3 = random_hermitian(rng, q3, complex_field)
    d3 = gaussian_matrix(rng, extra, q3, complex_field)
    e3 = random_hermitian(rng, extra, complex_field)
    w = random_unitary(rng, n3, complex_field)
    return (a, s), square, (tau, m_inv, c3, d3, e3, w)


def _nullspace_check(result, trial, drawn):
    (a, s), square, (tau, m_inv, c3, d3, e3, w) = drawn

    # Generic instance; T comes out invertible almost surely.
    dec = tridiagonal_block_decomposition(a, s)
    if dec.q >= 1:
        ns = _nullspace_identities(result, dec, f"trial {trial} generic")
        if compression_invertible(a, s):
            candidate = np.vstack([
                -solve_hermitian(dec.T, adjoint(dec.B)),
                np.eye(dec.q, dtype=dec.B.dtype),
            ])
            same = subspaces_equal(Subspace(orthonormalize(ns.N)),
                                   Subspace(orthonormalize(candidate)))
            result.check(same, f"trial {trial}: invertible-T nullspace span mismatch")

    # Maximal index: p = q forces the coupling block to be square and
    # invertible, so N1 must be invertible as well.
    if square is not None:
        dec_eq = tridiagonal_block_decomposition(*square)
        if dec_eq.q == dec_eq.p:
            ns_eq = _nullspace_identities(result, dec_eq, f"trial {trial} square")
            result.check(numerical_rank(ns_eq.N1) == dec_eq.p,
                         f"trial {trial}: square case N1 not invertible")

    # Disjoint images by construction: T = diag(tau, 0), B* supported on
    # the complementary coordinates.
    q3 = m_inv.shape[0]
    p3 = q3 + tau.size
    t3 = np.zeros((p3, p3), dtype=w.dtype)
    t3[: p3 - q3, : p3 - q3] = np.diag(tau)
    bstar3 = np.vstack([np.zeros((p3 - q3, q3)), m_inv])
    compressed = block_tridiagonal(t3, adjoint(bstar3), c3, d3, e3)
    a3 = hermitian_part(w @ compressed @ adjoint(w))
    dec3 = tridiagonal_block_decomposition(a3, Subspace(w[:, :p3]))
    if dec3.q != q3:
        result.check(False, f"trial {trial}: designed disjoint-image case lost its index")
        return
    ns3 = _nullspace_identities(result, dec3, f"trial {trial} disjoint")
    # Img(T)^perp: the left singular vectors of T past its rank, the
    # rank judged at ||A||_2 as condition_report judges it
    u3, _, _ = np.linalg.svd(dec3.T)
    img_t_perp = Subspace(u3[:, numerical_rank(dec3.T, scale=dec3.op_norm):])
    result.check(subspaces_equal(Subspace(orthonormalize(ns3.N1)), img_t_perp),
                 f"trial {trial}: disjoint case Img(N1) != Img(T)-perp")
    result.check(np.linalg.norm(ns3.N2) <= RESIDUAL_TOL,
                 f"trial {trial}: disjoint case N2 != 0")


def run_nullspace_suite(seed: int = 0, trials: int = 60) -> SuiteResult:
    """Nullspace identities of the stacked block plus the three structural
    special cases (invertible T; square invertible B*; disjoint images)."""
    return _run_trials("nullspace", _nullspace_draw, _nullspace_check, seed, trials)


def _manifolds_draw(rng, trial):
    complex_field = bool(trial % 2)
    n = int(rng.integers(3, 11))
    p = int(rng.integers(1, n))
    q = int(rng.integers(0, min(p, n - p) + 1))
    s, s_prime = random_nested_subspaces(rng, n, p, q, complex_field)
    omega = float(rng.standard_normal())
    oversized = None
    if 2 * p + 1 <= n:
        s_small, s_big = random_nested_subspaces(rng, n, p, p + 1, complex_field)
        oversized = s_small, s_big, random_hermitian(rng, n, complex_field)
    return q, s, s_prime, omega, oversized


def _manifolds_check(result, trial, drawn):
    q, s, s_prime, omega, oversized = drawn
    n = s.ambient_dim
    witness = construct_positive_member(s, s_prime)
    result.check(membership(witness, s, s_prime, ManifoldClass.M_POS),
                 f"trial {trial}: witness failed positive-class membership")
    result.check(index_of_invariance(witness, s) == q,
                 f"trial {trial}: witness index != q")
    for cls in (ManifoldClass.M, ManifoldClass.M_INV, ManifoldClass.M_SYM,
                ManifoldClass.M_SYMINV, ManifoldClass.M_SYMT):
        result.check(membership(witness, s, s_prime, cls),
                     f"trial {trial}: containment chain broke at {cls.value}")
    result.check(membership(witness + omega * np.eye(n), s, s_prime, ManifoldClass.M),
                 f"trial {trial}: diagonal shift left the base class")
    if q >= 1:
        a0 = swap_witness(s, s_prime)
        result.check(not compression_invertible(a0, s),
                     f"trial {trial}: swap witness compression unexpectedly invertible")
        nudged = perturb_to_invertible(a0, subspace=s)
        result.check(np.linalg.norm(nudged - a0) <= 1e-6,
                     f"trial {trial}: perturbation larger than 1e-6")
        result.check(membership(nudged, s, s_prime, ManifoldClass.M_SYMT),
                     f"trial {trial}: perturbed witness missed the invertible-compression class")
    # Oversized q: the set is empty, so membership must reject every A.
    if oversized is not None:
        s_small, s_big, probe = oversized
        result.check(not membership(probe, s_small, s_big, ManifoldClass.M),
                     f"trial {trial}: membership accepted an impossible q > p pair")
        try:
            construct_positive_member(s_small, s_big)
            result.check(False, f"trial {trial}: construction succeeded for q > p")
        except ValueError:
            pass


def run_manifolds_suite(seed: int = 0, trials: int = 100) -> SuiteResult:
    """Witness construction, membership, containment chain, emptiness for
    q > p, and the small-perturbation route into the invertible-compression
    class."""
    return _run_trials("manifolds", _manifolds_draw, _manifolds_check, seed, trials)


SUITES = {
    "index": run_index_suite,
    "main-theorem": run_main_theorem_suite,
    "convexity": run_convexity_suite,
    "nullspace": run_nullspace_suite,
    "manifolds": run_manifolds_suite,
}


def run_suites(names, seed: int = 0, trials: int | None = None) -> list[SuiteResult]:
    """Run the named suites; ``trials=None`` keeps each runner's default."""
    extra = {} if trials is None else {"trials": trials}
    return [SUITES[name](seed=seed, **extra) for name in names]
