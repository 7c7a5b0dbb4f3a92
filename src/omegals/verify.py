"""Randomized verification suites.

Each suite draws seeded random instances, runs the relevant identity or
bound checks at fixed tolerances, and reports per-check failures. The CLI
``verify`` subcommand and the acceptance tests both run through these.

A suite is a draw step, which makes every ``rng`` call of one trial, and a
check step, which does the rest. The index, nullspace and manifolds suites
have three steps: the draw, which returns raw Gaussian blocks; a batched
measure, which takes the draws of up to ``MEASURE_BATCH`` consecutive
trials and computes every value the checks read (the index suite's
indices, reaches, complements and intersections; the nullspace suite's
adapted decompositions, nullspaces, ranks and residuals; the manifolds
suite's witnesses, reaches, classes and nudges), each Gram-Schmidt step,
QR, SVD and spectrum stacked over the trials of one field
(:class:`~omegals.subspaces.PaddedGroup`); and a per-trial check, which
compares those values with the tolerances, so checks and failures still
come per trial and in trial order. :func:`_run_trials`
splits the trials into contiguous chunks, one per usable CPU, and runs each
chunk but the first in a forked worker that replays the draws before its
chunk: every seed draws the same instances, and the merged result is that
of one process. Every process computes on one BLAS thread (see
:class:`~omegals.workers.Workers`).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analysis import (
    convexity_coordinates,
    difference_subspace,
    membership_residual,
)
from .decomposition import (
    block_tridiagonal,
    tridiagonal_block_decomposition,
    tridiagonal_block_decompositions,
)
from .linalg import (
    adjoint,
    adjoints,
    hermitian_part,
    is_hermitian,
    numerical_rank,
    singular_value_ranks,
    solve_hermitian,
)
from .manifolds import (
    ManifoldClass,
    check_contained,
    classes_holding,
    construct_positive_member,
    invertibility,
    perturb_to_invertible_stacked,
    positive_shifts,
    swap_witnesses,
)
from .sampling import (
    draw_hermitian_invertible,
    gaussian_matrix,
    gaussian_vector,
    haar_unitary,
    hermitian_invertible,
    random_hermitian,
    random_hermitian_invertible,
    random_shift_offset,
    random_spd,
    random_subspace,
)
from .solver import ProblemInstance, solve_limit, solve_weighted
from .subspaces import (
    PaddedGroup,
    Subspace,
    index_of_invariance,
    krylov,
    spaces_equal,
)
from .workers import Workers, usable_cpus

MEMBERSHIP_TOL = 1e-10
RESIDUAL_TOL = 1e-10
CONVEXITY_T_SLACK = 1e-10
CONVEXITY_OFF_TOL = 1e-9

# Fewest trials a chunk may hold. A worker costs about 3 ms to fork, run
# and reap before any trial, plus the replay of the draws before its chunk.
# With 2 CPUs, two chunks of 8 trials take 0.74-1.01 times one process's
# time in the two per-trial suites. In the batched suites they took 1.28
# (index), 1.07 (nullspace) and 1.6 times (manifolds), and two chunks of 24
# trials 0.84, 1.15 and 1.2 times (the last two medians of 9, measured on
# another day than the index figures). At default trials two chunks took
# 0.54-0.67 times one process in all three.
MIN_CHUNK_TRIALS = 8

# Most trials whose draws the batched suites measure in one batch. In one
# process on one CPU the index suite's 500 trials took 0.19 s at 16, 0.15 s
# at 24 and 32, 0.14 s at 48 and 0.12 s at 64 (medians of 7 runs); the
# nullspace suite's 60 trials 61, 45, 41, 39, 36 and 35 ms at 6, 12, 16,
# 24, 32 and 60, and the manifolds suite's 100 trials 62, 42, 37, 31, 28, 24
# and 21 ms at 6, 12, 16, 24, 32, 60 and 100 (medians of 7, seed 901). A
# larger batch holds more stacked columns: the verify benchmark's peak RSS
# (2 CPUs, medians of 5-6 runs) read 64.0 MB at 16 and 24, 64.1-64.2 MB at
# 32, 64.4 MB at 48 and 64.6-64.8 MB at 64.
MEASURE_BATCH = 24


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


def _run_chunk(name, draw, check, seed, start, stop, measure=None) -> SuiteResult:
    """Trials start .. stop - 1, after replaying the draws of the trials
    before them so that the rng stream is the one of a full run. With
    ``measure``, the draws of up to ``MEASURE_BATCH`` consecutive trials go
    through one ``measure(draws)`` call, and each check reads its trial's
    entry of the list it returns."""
    result = SuiteResult(name)
    rng = np.random.default_rng(seed)
    for trial in range(start):
        draw(rng, trial)
    size = MEASURE_BATCH if measure else 1
    for first in range(start, stop, size):
        batch = range(first, min(first + size, stop))
        drawn = [draw(rng, trial) for trial in batch]
        for trial, values in zip(batch, measure(drawn) if measure else drawn):
            result.trials += 1
            check(result, trial, values)
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


def _run_trials(name, draw, check, seed: int, trials: int, measure=None) -> SuiteResult:
    """Run trials 0 .. trials - 1 of one suite, ``check(result, trial,
    draw(rng, trial))`` each (or the trial's entry of ``measure`` over its
    batch of draws, see :func:`_run_chunk`), and merge the chunks in trial
    order.

    The calling process runs the first chunk. The first exception in trial
    order is raised here with its type and message, and a worker that dies
    without a result raises a RuntimeError naming it. Every worker is reaped
    before this returns or raises.
    """
    first, *rest = _chunk_bounds(trials)
    with Workers() as workers:
        for start, stop in rest:
            workers.fork(f"{name} worker for trials {start}..{stop - 1}", _pickled_chunk,
                         name, draw, check, seed, start, stop, measure)
        result = _run_chunk(name, draw, check, seed, *first, measure)
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
    """One trial's instance. S and S2 come as the Gaussian columns that span
    them (the columns ``random_subspace`` orthonormalizes); the batched
    measure orthonormalizes them."""
    complex_field = bool(trial % 2)
    n = int(rng.integers(3, 11))
    p = int(rng.integers(1, n))
    s = gaussian_matrix(rng, n, p, complex_field)
    a = gaussian_matrix(rng, n, n, complex_field)
    while np.linalg.cond(a) > 1e6:
        a = gaussian_matrix(rng, n, n, complex_field)
    omega = float(rng.standard_normal())
    shift = omega if not complex_field else omega + 1j * float(rng.standard_normal())
    a_h = random_hermitian(rng, n, complex_field)
    p2 = int(rng.integers(1, n))
    s2 = gaussian_matrix(rng, n, p2, complex_field)
    b_op = gaussian_matrix(rng, n, n, complex_field)
    return s, a, shift, a_h, s2, b_op


class IndexValues(NamedTuple):
    """The dimensions the index check compares for one trial. S is spanned
    by the drawn columns, dim p, in F^n; q_X is the index of invariance on S
    of the operator X: A, A + shift I, A^-1, the Hermitian A_h, B, A + B and
    AB. q_s2 and q_sum are those of A on S2 and on S + S2; q_perp and
    q_between those of A_h on S-perp and on S-perp cap (S + A_h S), whose
    dimension is ``between``."""

    n: int
    p: int
    q_a: int
    q_shift: int
    q_inv: int
    q_h: int
    q_b: int
    q_apb: int
    q_ab: int
    q_s2: int
    q_sum: int
    q_perp: int
    between: int
    q_between: int


def _index_measure_group(draws):
    """:class:`IndexValues` of trials of one field. Each Gram-Schmidt step
    and SVD of the one-trial routines (``index_of_invariance``, ``reach``,
    ``orthogonal_complement``, ``subspace_sum``, ``subspace_intersect``) runs
    once, stacked over the trials (:class:`~omegals.subspaces.PaddedGroup`),
    with the same inputs, scales and drop rule."""
    s_cols, a, shift, a_h, s2_cols, b_op = zip(*draws)
    group = PaddedGroup(np.array([x.shape[0] for x in a]))
    (a, _), (a_h, _), (b_op, _) = (group.pad(x) for x in (a, a_h, b_op))
    s, s2 = group.extend(group.span(group.pad(s_cols)), group.span(group.pad(s2_cols)))
    # A plus the identity outside F^n[t] has the inverse A^-1 plus it
    inverse = np.linalg.inv(a + group.outside) - group.outside
    ops = (a, a + np.array(shift)[:, None, None] * group.eye, inverse, a_h, b_op, a + b_op, a @ b_op)
    *reached, s2_reach, s_s2 = group.extend(*(group.reach(op, s) for op in ops),
                                            group.reach(a, s2), group.sum(s, s2))
    sum_h = reached[3]
    s_perp, sum_h_perp = group.complement(s, sum_h)
    [s_perp_perp] = group.complement(s_perp)
    perp_reach, sum_reach, joined = group.extend(
        group.reach(a_h, s_perp), group.reach(a, s_s2), group.sum(s_perp_perp, sum_h_perp))
    [between] = group.complement(joined)
    [between_reach] = group.extend(group.reach(a_h, between))
    gains = [w - s[1] for _, w in reached] + [
        s2_reach[1] - s2[1], sum_reach[1] - s_s2[1], perp_reach[1] - s_perp[1], between[1],
        between_reach[1] - between[1]]
    return [IndexValues(*map(int, column))
            for column in np.stack([group.n, s[1], *gains], axis=1)]


def _joined(spaces) -> tuple:
    """Spaces (bases, widths) of one shape as one stack."""
    return tuple(map(np.concatenate, zip(*spaces)))


def _by_field(draws, block, measure_group) -> list:
    """``measure_group`` of a batch of draws in two groups, the trials whose
    ``block(drawn)`` is real and those whose is complex; the values come
    back in draw order."""
    groups = {}
    for i, drawn in enumerate(draws):
        groups.setdefault(block(drawn).dtype, []).append(i)
    measured = [None] * len(draws)
    for members in groups.values():
        for i, values in zip(members, measure_group([draws[i] for i in members])):
            measured[i] = values
    return measured


def _index_measure(draws):
    """The :class:`IndexValues` of a batch of draws, in draw order."""
    return _by_field(draws, lambda drawn: drawn[1], _index_measure_group)


def _index_check(result, trial, m):
    q = m.q_a
    result.check(0 <= q <= min(m.p, m.n - m.p), f"trial {trial}: index bound violated (q={q})")
    result.check(m.q_shift == q, f"trial {trial}: shift changed the index {q}->{m.q_shift}")
    result.check(m.q_inv == q, f"trial {trial}: inverse changed the index {q}->{m.q_inv}")
    result.check(m.q_perp == m.q_h,
                 f"trial {trial}: Hermitian complement index {m.q_h}->{m.q_perp}")
    result.check(m.between == m.q_h,
                 f"trial {trial}: complement-in-sum dimension {m.between} != {m.q_h}")
    result.check(m.q_between == m.q_h,
                 f"trial {trial}: index of S-perp cap (S+AS) is {m.q_between} != {m.q_h}")
    result.check(m.q_sum <= q + m.q_s2,
                 f"trial {trial}: subadditivity in the subspace argument failed")
    result.check(m.q_apb <= q + m.q_b, f"trial {trial}: subadditivity under sums failed")
    result.check(m.q_ab <= q + m.q_b, f"trial {trial}: subadditivity under products failed")


def run_index_suite(seed: int = 0, trials: int = 500) -> SuiteResult:
    """Shift/inverse/Hermitian-complement equalities and the three
    subadditivity inequalities, as exact integer comparisons."""
    return _run_trials("index", _index_draw, _index_check, seed, trials, _index_measure)


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
    the decomposition's q is the index of invariance and its W is unitary."""
    return _run_trials("main-theorem", _main_theorem_draw, _main_theorem_check, seed, trials)


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


class NullspaceChecks(NamedTuple):
    """What the nullspace check reads of one decomposition: p and q; for the
    orthonormal basis N of the nullspace of H* = [T B*]
    (:func:`~omegals.decomposition.nullspace_of_hstar`), the ranks of N and
    of its top p rows N1, ||H* N||_F and ||H*||_F, ||N2 - predicted||_F
    (N2 predicted from T N1 + B* N2 = 0 by least squares on B* itself, not
    the normal equations BB*, which square its conditioning) and ||N2||_F.
    For a generic decomposition, whether T = V* A V is invertible at
    ||A||_2 (:func:`~omegals.manifolds.compression_invertible`) and, if so,
    whether Img(N) is the span of [-T^-1 B*; I]; for a disjoint one,
    whether Img(N1) is Img(T)-perp, the rank of T judged at ||A||_2 as
    condition_report judges it. Flags not read are False."""

    p: int
    q: int
    rank_n: int
    rank_n1: int
    residual: float
    hstar_norm: float
    n2_error: float
    n2_norm: float
    invertible_t: bool = False
    same_span: bool = False
    n1_perp: bool = False


def _nullspace_values(generic, square, disjoint) -> list[NullspaceChecks]:
    """:class:`NullspaceChecks` of the generic, square and disjoint
    decompositions (each with q >= 1), in that order, each SVD, QR,
    Gram-Schmidt and projector distance stacked over the decompositions that
    read it. H* lives in F^(p+q) and N1 and T in its first p coordinates;
    the nullspaces come from :meth:`~omegals.subspaces.PaddedGroup.nullspace`,
    so padding enters no nullspace or rank, and every rank, drop rule and
    tolerance is that of the one-decomposition routines.

    N passed the orthonormality guard, so its singular values lie within
    1e-8 q of 1: its rank is its width, and it spans Img(N) as
    orthonormalize(N) does. B* has full column rank q, so its least squares
    come from its QR (:func:`_n2_misfit`)."""
    decs = [*generic, *square, *disjoint]
    g, d = len(generic), len(decs) - len(disjoint)
    p, q, op_norm = (np.array([getattr(x, f) for x in decs]) for f in ("p", "q", "op_norm"))
    group = PaddedGroup(p + q)
    size = group.eye.shape[1]
    top = PaddedGroup(p, size=size)  # F^p inside F^(p+q)
    hstar = group.pad([adjoint(x.H) for x in decs])[0]
    basis, width = group.nullspace(hstar)
    norms = [np.linalg.norm(x, axis=(1, 2)) for x in (hstar @ basis, hstar)]
    norms += _n2_misfit(hstar, basis, p, q)
    t_part = hstar * top.inside[:, None, :]
    n1 = basis * top.inside[:, :, None]
    sigma = np.linalg.svd(np.concatenate([n1, t_part[:g]]), compute_uv=False)
    rank_n1 = singular_value_ranks(sigma[:len(decs)], np.maximum(p, width))
    invertible = singular_value_ranks(sigma[len(decs):], p[:g], op_norm[:g]) == p[:g]
    # [-T^-1 B*; I] in the columns p .. p+q-1, T replaced by I where singular
    candidate = group.eye[:g] - top.eye[:g] - np.linalg.solve(
        np.where(invertible[:, None, None], t_part[:g], top.eye[:g]) + top.outside[:g],
        hstar[:g] - t_part[:g])
    t_perp = PaddedGroup(p[d:], size=size).nullspace(adjoints(t_part[d:]), scale=op_norm[d:])
    spans = (np.concatenate([candidate, n1[d:]]),
             np.concatenate([np.where(invertible, (p + q)[:g], 0), width[d:]]))
    del hstar, t_part, n1, candidate
    joint = PaddedGroup(np.concatenate([(p + q)[:g], p[d:]]), size=size)
    [spans] = joint.extend(joint.span(spans))
    equal = spaces_equal(spans, _joined([(basis[:g], width[:g]), t_perp]))
    flags = [{"invertible_t": bool(x), "same_span": bool(y)} for x, y in zip(invertible, equal)]
    flags += [{}] * (d - g) + [{"n1_perp": bool(x)} for x in equal[g:]]
    return [NullspaceChecks(*map(int, ints), *map(float, reals), **f)
            for ints, reals, f in zip(zip(p, q, width, rank_n1), zip(*norms), flags)]


def _n2_misfit(hstar: np.ndarray, basis: np.ndarray, p: np.ndarray, q: np.ndarray) -> list:
    """||N2 - predicted||_F and ||N2||_F for stacks of H* = [T B*] and of
    bases N of its nullspace in F^(p+q), N2 predicted from T N1 + B* N2 = 0
    by least squares on B* through its QR: B* (columns p .. p+q-1 of H*) and
    N2 (rows p .. p+q-1 of N) are moved to the first q columns and rows, and
    the identity past them keeps the padded R invertible."""
    cols = np.arange(hstar.shape[1])
    shift, first_q = np.minimum(cols + p[:, None], cols.size - 1), cols < q[:, None]
    n2 = np.take_along_axis(basis, shift[:, :, None], axis=1) * first_q[:, :, None]
    unitary, r = np.linalg.qr(np.take_along_axis(hstar, shift[:, None, :], axis=2)
                              * first_q[:, None, :])
    t_n1 = (hstar * (cols < p[:, None])[:, None, :]) @ basis
    fit = np.linalg.solve(r + np.eye(cols.size) * ~first_q[:, None, :],
                          adjoints(unitary) @ t_n1) * first_q[:, :, None]
    return [np.linalg.norm(x, axis=(1, 2)) for x in (n2 + fit, n2)]


def _nullspace_draw(rng, trial):
    """One trial's raw draws, in the order the formed generators make them:
    the generic instance's (:func:`draw_hermitian_invertible` and the
    Gaussian columns of S), the square instance's when 2 p_eq <= n, and the
    disjoint-image case's tau, M and Gaussian blocks of C, D, E and W. Only
    the rejection of a singular M stays here; the measure forms the rest."""
    complex_field = bool(trial % 2)
    n = int(rng.integers(5, 15))
    p = int(rng.integers(1, n - 1))
    a = draw_hermitian_invertible(rng, n, complex_field)
    s = gaussian_matrix(rng, n, p, complex_field)
    p_eq = int(rng.integers(1, max(2, n // 2)))
    square = None
    if 2 * p_eq <= n:
        s_eq = gaussian_matrix(rng, n, p_eq, complex_field)
        square = draw_hermitian_invertible(rng, n, complex_field), s_eq
    q3 = int(rng.integers(1, 4))
    p3 = q3 + int(rng.integers(0, 3))
    extra = int(rng.integers(1, 4))
    n3 = p3 + q3 + extra
    tau = rng.uniform(0.5, 2.0, size=p3 - q3) * np.where(rng.standard_normal(p3 - q3) > 0, 1, -1)
    m_inv = gaussian_matrix(rng, q3, q3, complex_field)
    while numerical_rank(m_inv) < q3:
        m_inv = gaussian_matrix(rng, q3, q3, complex_field)
    c3 = gaussian_matrix(rng, q3, q3, complex_field)
    d3 = gaussian_matrix(rng, extra, q3, complex_field)
    e3 = gaussian_matrix(rng, extra, extra, complex_field)
    w = gaussian_matrix(rng, n3, n3, complex_field)
    return (a, s), square, (tau, m_inv, c3, d3, e3, w)


def _nullspace_decompositions(draws):
    """The decompositions the check reads of each trial of one field: the
    generic one when q >= 1, the square one when there is one with q = p,
    and the disjoint one when it kept its designed q, None where not. Every
    operator, subspace and decomposition is formed in one
    :class:`~omegals.subspaces.PaddedGroup` of the generic instances, then
    the square ones, then the disjoint ones.

    The disjoint case compresses to T = diag(tau, 0) and B* = [0; M] in
    W [[T, B*, 0], [B, C, D*], [0, D, E]] W*, so Img(T) and Img(B*) are
    disjoint by construction; its S is spanned by the first p columns of W.
    Making the whole matrix Hermitian gives the bits of C and E made
    Hermitian, since the other blocks are already."""
    generic, square, disjoint = zip(*draws)
    hermitian = [*generic, *(x for x in square if x is not None)]
    h, compressed, p3 = len(hermitian), [], []
    for tau, m_inv, c3, d3, e3, _ in disjoint:
        q3 = m_inv.shape[0]
        p3.append(q3 + tau.size)
        t3 = np.zeros((p3[-1], p3[-1]), dtype=m_inv.dtype)
        t3[: tau.size, : tau.size] = np.diag(tau)
        bstar3 = np.vstack([np.zeros((tau.size, q3)), m_inv])
        compressed.append(block_tridiagonal(t3, adjoint(bstar3), c3, d3, e3))
    group = PaddedGroup(np.array([s.shape[0] for _, s in hermitian]
                                 + [m.shape[0] for m in compressed]))
    gauss = group.pad([g for (g, _), _ in hermitian] + [d[-1] for d in disjoint])[0]
    gauss += group.outside
    spectra = group.pad([x[None] for (_, x), _ in hermitian])[0][:, 0]
    w3 = haar_unitary(gauss[h:])
    a = np.concatenate([hermitian_invertible(gauss[:h], spectra), hermitian_part(
        w3 @ hermitian_part(group.pad(compressed)[0]) @ w3.conj().swapaxes(1, 2))])
    cols = group.pad([s for _, s in hermitian] + [
        w3[t, :group.n[h + t], :p] for t, p in enumerate(p3)])
    [s] = group.extend(group.sum((np.zeros_like(cols[0]), np.zeros_like(cols[1])), cols))
    del gauss, w3, cols  # freed before the decompositions' stacks
    decs = tridiagonal_block_decompositions(group, a, s)
    square_decs = iter(decs[len(generic):h])
    return [(decs[t] if decs[t].q >= 1 else None,
             None if sq is None or (d := next(square_decs)).q != d.p else d,
             decs[h + t] if decs[h + t].q == draw[1].shape[0] else None)
            for t, (sq, draw) in enumerate(zip(square, disjoint))]


def _nullspace_measure_group(draws):
    """For each trial of one field, the :class:`NullspaceChecks` of the
    generic, square and disjoint decompositions its check reads
    (:func:`_nullspace_decompositions`), None where it reads none."""
    checked = _nullspace_decompositions(draws)
    kinds = [[d for d in kind if d is not None] for kind in zip(*checked)]
    values = iter(_nullspace_values(*kinds))
    by_kind = [iter([next(values) for _ in kind]) for kind in kinds]
    return [[None if d is None else next(it) for d, it in zip(trial, by_kind)]
            for trial in checked]


def _nullspace_measure(draws):
    """The values :func:`_nullspace_measure_group` gives, in draw order."""
    return _by_field(draws, lambda drawn: drawn[0][1], _nullspace_measure_group)


def _nullspace_identities(result: SuiteResult, m: NullspaceChecks, label: str) -> None:
    """Check the nullspace identities of H*."""
    result.check(m.residual <= RESIDUAL_TOL * max(1.0, m.hstar_norm),
                 f"{label}: H* N residual too large")
    result.check(m.rank_n == m.q, f"{label}: rank(N) != q")
    result.check(m.rank_n1 == m.q, f"{label}: rank(N1) != q")
    result.check(m.n2_error <= RESIDUAL_TOL * max(1.0, m.n2_norm),
                 f"{label}: N2 != -(BB*)^-1 B T N1")


def _nullspace_check(result, trial, measured):
    generic, square, disjoint = measured

    # Generic instance; T comes out invertible almost surely.
    if generic is not None:
        _nullspace_identities(result, generic, f"trial {trial} generic")
        if generic.invertible_t:
            result.check(generic.same_span,
                         f"trial {trial}: invertible-T nullspace span mismatch")

    # Maximal index: p = q forces the coupling block to be square and
    # invertible, so N1 must be invertible as well.
    if square is not None:
        _nullspace_identities(result, square, f"trial {trial} square")
        result.check(square.rank_n1 == square.p,
                     f"trial {trial}: square case N1 not invertible")

    # Disjoint images by construction (see _nullspace_decompositions).
    if disjoint is None:
        result.check(False, f"trial {trial}: designed disjoint-image case lost its index")
        return
    _nullspace_identities(result, disjoint, f"trial {trial} disjoint")
    result.check(disjoint.n1_perp, f"trial {trial}: disjoint case Img(N1) != Img(T)-perp")
    result.check(disjoint.n2_norm <= RESIDUAL_TOL,
                 f"trial {trial}: disjoint case N2 != 0")


def run_nullspace_suite(seed: int = 0, trials: int = 60) -> SuiteResult:
    """Nullspace identities of the stacked block plus the three structural
    special cases (invertible T; square invertible B*; disjoint images)."""
    return _run_trials("nullspace", _nullspace_draw, _nullspace_check, seed, trials,
                       _nullspace_measure)


def _manifolds_draw(rng, trial):
    """One trial's raw draws, in the order the formed generators make them:
    p, q, the Gaussian columns of S' (:func:`random_nested_subspaces`'s
    draw, S spanned by the first p), omega, and when 2 p + 1 <= n the
    oversized case's columns of S_big (S_small the first p) and the Gaussian
    matrix of its Hermitian probe."""
    complex_field = bool(trial % 2)
    n = int(rng.integers(3, 11))
    p = int(rng.integers(1, n))
    q = int(rng.integers(0, min(p, n - p) + 1))
    cols = gaussian_matrix(rng, n, p + q, complex_field)
    omega = float(rng.standard_normal())
    oversized = None
    if 2 * p + 1 <= n:
        oversized = (gaussian_matrix(rng, n, 2 * p + 1, complex_field),
                     gaussian_matrix(rng, n, n, complex_field))
    return p, q, cols, omega, oversized


class ManifoldsValues(NamedTuple):
    """What the manifolds check reads for one trial: the designed q, the
    index of the positive witness on S and its classes
    (:func:`~omegals.manifolds.member_classes`), whether the witness plus
    omega I reaches S' (class M); for the swap witness A0, whether its
    compression onto S is invertible, ||nudged - A0||_F for its nudge
    (:func:`~omegals.manifolds.perturb_to_invertible`) and whether the
    nudge is in M_symT; the oversized pair (S_small, S_big) or None, and
    whether its probe reaches S_big."""

    q: int
    index: int
    classes: frozenset
    shifted: bool
    swap_invertible: bool
    nudge: float
    nudged: bool
    oversized: tuple | None
    probe: bool


def _manifolds_measure_group(draws):
    """:class:`ManifoldsValues` of trials of one field, every step stacked
    over them in one :class:`~omegals.subspaces.PaddedGroup`: S' and S_big
    orthonormalized, the swap witnesses (:func:`~omegals.manifolds.swap_witnesses`)
    and their positive shifts, the nudges, the four reaches, the nesting
    checks and projector distances, the Hermitian tests, and the ranks and
    ||A||_2 of each SVD. A trial without an oversized case gets a zero probe
    on a zero-width S_small. The nudge's compression is invertible by the
    choice of eps, the test :func:`~omegals.manifolds.perturb_to_invertible`
    makes."""
    p, q, cols, omega, oversized = zip(*draws)
    group = PaddedGroup(np.array([c.shape[0] for c in cols]))
    big, probe = zip(*(x or (c[:, :0],) * 2 for c, x in zip(cols, oversized)))
    probe = hermitian_part(group.pad(probe)[0])
    s_prime, s_big = group.extend(group.span(group.pad(cols)), group.span(group.pad(big)))
    first_p = np.arange(probe.shape[1]) < np.array(p)[:, None]
    s, s_small = ((x * first_p[:, None, :], np.minimum(p, k)) for x, k in (s_prime, s_big))
    check_contained(s_small[0], s_big[0])
    a0 = swap_witnesses(group, s, s_prime)
    witness = positive_shifts(group, a0)
    nudged, swap_invertible = perturb_to_invertible_stacked(group, a0, s)
    invertible, compression, _ = invertibility(group, witness, s)
    shifted = witness + np.array(omega)[:, None, None] * group.eye
    reaches = group.extend(*(group.reach(x, s) for x in (witness, shifted, nudged)),
                           group.reach(probe, s_small))
    reached = np.split(spaces_equal(_joined(reaches), _joined([s_prime] * 3 + [s_big])), 4)
    hermitian = np.split(is_hermitian(np.concatenate([witness, nudged])), 2)
    positive = group.spectrum_ends(witness)[0] > 0
    nudge = np.linalg.norm(nudged - a0, axis=(1, 2))
    values = []
    for t, x in enumerate(oversized):
        parts = {"invertible": invertible[t], "hermitian": hermitian[0][t],
                 "positive": positive[t], "compression": compression[t]}
        pair = None if x is None else tuple(Subspace(s_big[0][t, :group.n[t], :space[1][t]])
                                            for space in (s_small, s_big))
        values.append(ManifoldsValues(
            q[t], int(reaches[0][1][t]) - p[t],
            classes_holding(parts) if reached[0][t] else frozenset(),
            bool(reached[1][t]), bool(swap_invertible[t]), float(nudge[t]),
            bool(reached[2][t] and hermitian[1][t]), pair, x is not None and bool(reached[3][t])))
    return values


def _manifolds_measure(draws):
    """The :class:`ManifoldsValues` of a batch of draws, in draw order."""
    return _by_field(draws, lambda drawn: drawn[2], _manifolds_measure_group)


def _manifolds_check(result, trial, m):
    result.check(ManifoldClass.M_POS in m.classes,
                 f"trial {trial}: witness failed positive-class membership")
    result.check(m.index == m.q, f"trial {trial}: witness index != q")
    for cls in (ManifoldClass.M, ManifoldClass.M_INV, ManifoldClass.M_SYM,
                ManifoldClass.M_SYMINV, ManifoldClass.M_SYMT):
        result.check(cls in m.classes,
                     f"trial {trial}: containment chain broke at {cls.value}")
    result.check(m.shifted, f"trial {trial}: diagonal shift left the base class")
    if m.q >= 1:
        result.check(not m.swap_invertible,
                     f"trial {trial}: swap witness compression unexpectedly invertible")
        result.check(m.nudge <= 1e-6, f"trial {trial}: perturbation larger than 1e-6")
        result.check(m.nudged,
                     f"trial {trial}: perturbed witness missed the invertible-compression class")
    # Oversized q: the set is empty, so membership must reject every A.
    if m.oversized is not None:
        result.check(not m.probe,
                     f"trial {trial}: membership accepted an impossible q > p pair")
        try:
            construct_positive_member(*m.oversized)
            result.check(False, f"trial {trial}: construction succeeded for q > p")
        except ValueError:
            pass


def run_manifolds_suite(seed: int = 0, trials: int = 100) -> SuiteResult:
    """Witness construction, membership, containment chain, emptiness for
    q > p, and the small-perturbation route into the invertible-compression
    class."""
    return _run_trials("manifolds", _manifolds_draw, _manifolds_check, seed, trials,
                       _manifolds_measure)


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
