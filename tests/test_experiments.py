import dataclasses
import json
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from omegals import analysis
from omegals import io as oio
from omegals.analysis import default_omega_grid, sweep_solutions
from omegals.experiments import (
    FIGURE1_STAGES,
    Figure1Config,
    KrylovSumSpec,
    krylov_sum_subspace,
    poisson_2d,
    poisson_2d_factored,
    run_figure1,
    sweep_files,
)
from omegals.sampling import (
    gaussian_vector,
    random_hermitian_invertible,
    random_spd,
    random_subspace,
)
from omegals.solver import ProblemInstance
from omegals.subspaces import Subspace, index_of_invariance, krylov, normal_representation


def grid_neighbor_pairs(m):
    """Independent enumeration of the 5-point-stencil edges on an m x m grid."""
    def node(i, j):
        return i * m + j

    pairs = set()
    for i in range(m):
        for j in range(m):
            if i + 1 < m:
                pairs.add((node(i, j), node(i + 1, j)))
            if j + 1 < m:
                pairs.add((node(i, j), node(i, j + 1)))
    return pairs


class TestSineFactorization:
    @pytest.mark.parametrize("m", range(2, 8))
    def test_rebuilds_the_dense_operator(self, m):
        a, fac = poisson_2d_factored(m)
        n = m * m
        np.testing.assert_array_equal(a.toarray(), poisson_2d(m))
        uh = fac.apply_uh(np.eye(n))
        np.testing.assert_allclose(uh @ uh.T, np.eye(n), rtol=0, atol=1e-13)
        np.testing.assert_allclose(uh.T @ (fac.lambdas[:, None] * uh), poisson_2d(m),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_eigenvalues_descend_and_match_eigvalsh(self, m):
        lam = poisson_2d_factored(m)[1].lambdas
        assert np.all(np.diff(lam) <= 0)
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(poisson_2d(m))[::-1],
                                   rtol=0, atol=1e-13)

    def test_vectors_columns_and_complex_input(self):
        # U is real, so U* acts on the real and the imaginary part alike
        fac = poisson_2d_factored(4)[1]
        rng = np.random.default_rng(3)
        re, im = rng.standard_normal((16, 3)), rng.standard_normal((16, 3))
        y = fac.apply_uh(re + 1j * im)
        np.testing.assert_allclose(y, fac.apply_uh(re) + 1j * fac.apply_uh(im),
                                   rtol=0, atol=1e-14)
        for k in range(3):
            np.testing.assert_allclose(fac.apply_uh(re[:, k]), fac.apply_uh(re)[:, k],
                                       rtol=0, atol=1e-14)

    def test_instance_probes_the_factorization(self):
        a, fac = poisson_2d_factored(5)
        rng = np.random.default_rng(4)
        b = rng.standard_normal(25)
        s = krylov(a, rng.standard_normal(25), 3)
        inst = ProblemInstance.create(a, s, b, eig=fac)
        np.testing.assert_allclose(inst.eig.lambdas, fac.lambdas)
        with pytest.raises(ValueError, match="^factorization has 16 eigenvalues for an "
                                             "operator of order 25"):
            ProblemInstance.create(a, s, b, eig=poisson_2d_factored(4)[1])
        perturbed = poisson_2d(5)
        perturbed[0, 1] = perturbed[1, 0] = -1.0 + 1e-9
        with pytest.raises(ValueError, match="^factorization does not match the operator"):
            ProblemInstance.create(sp.csr_array(perturbed), s, b, eig=fac)

    def test_sparse_operator_is_checked_like_a_dense_one(self):
        a, fac = poisson_2d_factored(3)
        s = Subspace(np.eye(9)[:, :2])
        bad = a.copy()
        bad.data[0] = np.nan
        with pytest.raises(ValueError, match="^operator has a non-finite entry"):
            ProblemInstance.create(bad, s, np.ones(9), eig=fac)
        skew = a.copy()
        skew.data[1] = 5.0
        with pytest.raises(ValueError, match="^operator is not Hermitian"):
            ProblemInstance.create(skew, s, np.ones(9), eig=fac)
        # without a factorization the sparse operator is factored densely
        dense = ProblemInstance.create(a, s, np.ones(9))
        np.testing.assert_allclose(dense.eig.lambdas, fac.lambdas, rtol=0, atol=1e-13)


class TestPoisson:
    def test_smallest_grid_structure(self):
        a = poisson_2d(2)
        assert a.shape == (4, 4)
        np.testing.assert_array_equal(np.diag(a), 4.0 * np.ones(4))
        pairs = grid_neighbor_pairs(2)
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                expected = -1.0 if (min(i, j), max(i, j)) in pairs else 0.0
                assert a[i, j] == expected
        # 4 edges -> 8 symmetric off-diagonal entries
        assert np.count_nonzero(a + np.diag(np.diag(a)) * 0 - np.diag(np.diag(a))) == 8

    def test_matches_edge_enumeration(self):
        m = 5
        a = poisson_2d(m)
        oracle = 4.0 * np.eye(m * m)
        for i, j in grid_neighbor_pairs(m):
            oracle[i, j] = oracle[j, i] = -1.0
        np.testing.assert_array_equal(a, oracle)

    def test_paper_scale(self):
        a = poisson_2d(23)
        assert a.shape == (529, 529)
        lams = np.linalg.eigvalsh(a)
        assert lams[0] > 0

    def test_gershgorin_interval(self):
        lams = np.linalg.eigvalsh(poisson_2d(6))
        assert lams[0] > 0 and lams[-1] < 8

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            poisson_2d(1)


class TestKrylovSum:
    def test_single_generic_seed(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 12)
        res = krylov_sum_subspace(a, KrylovSumSpec(orders=(5,)),
                                  np.random.default_rng(1))
        assert res.dim == 5
        assert res.index == 1

    def test_two_seed_sum(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 20)
        res = krylov_sum_subspace(a, KrylovSumSpec(orders=(3, 2), target_index=2),
                                  np.random.default_rng(3))
        assert res.dim == 5
        assert res.index == 2
        assert res.attempts == 1

    def test_sum_matches_manual_construction(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 15)
        gen = np.random.default_rng(5)
        res = krylov_sum_subspace(a, KrylovSumSpec(orders=(4, 3)), gen)
        manual = krylov(a, res.seed_vectors[0], 4)
        from omegals.subspaces import subspace_sum, subspaces_equal
        manual = subspace_sum(manual, krylov(a, res.seed_vectors[1], 3))
        assert subspaces_equal(res.subspace, manual)

    def test_retry_budget_error(self):
        rng = np.random.default_rng(6)
        a = random_spd(rng, 10)
        # a single Krylov summand can never have index 3
        with pytest.raises(RuntimeError):
            krylov_sum_subspace(a, KrylovSumSpec(orders=(4,), target_index=3),
                                np.random.default_rng(7))

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            krylov_sum_subspace(np.eye(3), KrylovSumSpec(orders=(0,)),
                                np.random.default_rng(0))


class TestRunFigure1:
    SMALL = dict(m=5, orders=(3, 2), target_index=2, count=25, seed=0)

    def test_small_pipeline(self, tmp_path):
        config = Figure1Config(out_prefix=str(tmp_path / "run_"), **self.SMALL)
        result = run_figure1(config)
        assert result.subspace_dim == 5
        assert result.index == 2
        assert result.est_dim == 2
        assert set(result.files) == {"sigma", "coords", "meta"}
        sigma_lines = (tmp_path / "run_sigma.csv").read_text().splitlines()
        assert sigma_lines[0] == "index,sigma,sigma_ratio"
        coords_lines = (tmp_path / "run_coords.csv").read_text().splitlines()
        assert coords_lines[0] == "omega,coord_1,coord_2"
        assert len(coords_lines) == 26
        # the family spans 2 directions, so its coordinates in the leading two
        # principal directions keep every inner product of the centered solutions
        coords = np.array([[float(v) for v in ln.split(",")[1:]] for ln in coords_lines[1:]])
        np.testing.assert_array_equal(coords, result.sweep.coords.T)
        x = result.sweep.solutions
        centered = x - x.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(coords @ coords.T, centered.T @ centered,
                                   atol=1e-10 * np.linalg.norm(centered) ** 2)
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["est_dim"] == 2
        assert meta["subspace_dim"] == 5

    @pytest.mark.parametrize("grid", [dict(count=1), dict(omega_lo=1.0, omega_hi=1.0)])
    def test_a_grid_without_two_distinct_shifts_fails_before_any_file(self, tmp_path, grid):
        config = Figure1Config(out_prefix=str(tmp_path / "single_"), write_solutions=True,
                               **{**self.SMALL, **grid})
        with pytest.raises(ValueError, match=r"holds 1 distinct shift\(s\)"):
            run_figure1(config)
        assert list(tmp_path.iterdir()) == []

    def test_a_directory_prefix_writes_into_that_directory(self, tmp_path):
        # a prefix ending in a separator names a directory, made if missing
        out = tmp_path / "new" / "out"
        result = run_figure1(Figure1Config(out_prefix=f"{out}/", write_solutions=True,
                                           **self.SMALL))
        names = ("sigma.csv", "coords.csv", "solutions.csv", "meta.json")
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        assert sorted(result.files.values()) == sorted(f"{out}/{name}" for name in names)

    def test_bit_identical_reruns(self, tmp_path):
        cfg1 = Figure1Config(out_prefix=str(tmp_path / "a_"), **self.SMALL)
        cfg2 = Figure1Config(out_prefix=str(tmp_path / "b_"), **self.SMALL)
        run_figure1(cfg1)
        run_figure1(cfg2)
        for name in ("sigma.csv", "coords.csv"):
            assert (tmp_path / f"a_{name}").read_bytes() == (tmp_path / f"b_{name}").read_bytes()

    def test_solutions_file_roundtrip(self, tmp_path):
        config = Figure1Config(out_prefix=str(tmp_path / "s_"),
                               write_solutions=True, **self.SMALL)
        result = run_figure1(config)
        lines = (tmp_path / "s_solutions.csv").read_text().splitlines()
        assert lines[0].startswith("omega,x_1,")
        assert len(lines) == 26
        first = np.array([float(v) for v in lines[1].split(",")])
        np.testing.assert_allclose(first[1:], result.sweep.solutions[:, 0])

    @pytest.mark.parametrize("block_columns", [1, 70, None])
    def test_solutions_csv_rows_are_the_solution_columns(self, tmp_path, monkeypatch,
                                                         block_columns):
        # one-column blocks (a matrix-vector product), ragged 70-column blocks
        # and the default block size: every row of solutions.csv is the
        # matching column of sweep.solutions bit for bit
        if block_columns is not None:
            monkeypatch.setattr(analysis, "SOLUTION_BLOCK_BYTES", 8 * 529 * block_columns)
        result = run_figure1(Figure1Config(m=23, out_prefix=str(tmp_path / "b_"),
                                           write_solutions=True))
        table = np.loadtxt(result.files["solutions"], delimiter=",", skiprows=1)
        sweep = result.sweep
        assert table.shape == (200, 530)
        assert np.array_equal(table[:, 0], sweep.omegas[sweep.ok])
        assert np.array_equal(table[:, 1:], sweep.solutions.T)

    @pytest.mark.parametrize("cpus, count, block_columns", [
        (2, 24, 1), (3, 25, 1), (3, 2, 1), (2, 25, 4), (3, 25, 4)],
        ids=["K divisible by C", "K not divisible by C", "K < C",
             "ragged last block, C = 2", "ragged last block, C = 3"])
    def test_forked_solutions_csv_is_savetxt_of_the_solutions(self, tmp_path, monkeypatch,
                                                              use_cpus, cpus, count,
                                                              block_columns):
        # the caller and its workers compute and format whole blocks of the
        # family's partition, so the file holds the bits of sweep.solutions
        monkeypatch.setattr(analysis, "SOLUTION_BLOCK_BYTES", 8 * 25 * block_columns)
        monkeypatch.setattr(oio, "FORK_MIN_CELLS", 0)
        forks = use_cpus(cpus)
        config = Figure1Config(out_prefix=str(tmp_path / "f_"), write_solutions=True,
                               **dict(self.SMALL, count=count))
        sweep = run_figure1(config).sweep
        ref = tmp_path / "savetxt.csv"
        np.savetxt(ref, np.column_stack([sweep.omegas[sweep.ok], sweep.solutions.T]),
                   fmt="%.17g", delimiter=",", comments="",
                   header=",".join(["omega"] + [f"x_{k + 1}" for k in range(25)]))
        assert (tmp_path / "f_solutions.csv").read_bytes() == ref.read_bytes()
        blocks = -(-count // block_columns)
        assert len(forks) == (min(cpus, blocks) - 1 if blocks > 1 else 0)

    def test_complex_family_forks_no_worker(self, tmp_path, monkeypatch, use_cpus):
        # one complex column per block, so a real family would fork
        monkeypatch.setattr(analysis, "SOLUTION_BLOCK_BYTES", 16 * 12)
        monkeypatch.setattr(oio, "FORK_MIN_CELLS", 0)
        forks = use_cpus(2)
        self.test_complex_family_writes_no_file(tmp_path, anchored=True)
        assert forks == []

    @pytest.mark.parametrize("anchored", [False, True])
    def test_complex_family_writes_no_file(self, tmp_path, anchored):
        rng = np.random.default_rng(23)
        a = random_hermitian_invertible(rng, 12, True)
        s = random_subspace(rng, 12, 3, True)
        space = normal_representation(gaussian_vector(rng, 12, True) if anchored
                                      else np.zeros(12, dtype=complex), s)
        inst = ProblemInstance.create(a, space, gaussian_vector(rng, 12, True))
        sweep = sweep_solutions(inst, inst.omega_min + np.logspace(-1, 2, 9))
        with pytest.raises(ValueError, match="real solutions only"):
            sweep_files(sweep, str(tmp_path / "out" / "c_"), write_solutions=True)
        assert not (tmp_path / "out").exists()
        # the spectrum and coordinates alone are still written
        assert set(sweep_files(sweep, str(tmp_path / "out" / "c_"))) == {"sigma", "coords",
                                                                         "meta"}

    def test_complex_dtype_with_zero_imaginary_part_is_written(self, tmp_path):
        real = run_figure1(Figure1Config(**self.SMALL)).sweep
        sweep = dataclasses.replace(real, v=real.v.astype(complex))
        files = sweep_files(sweep, str(tmp_path / "z_"), write_solutions=True)
        table = np.loadtxt(files["solutions"], delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 1:], sweep.solutions.real.T)

    def test_written_family_stays_below_one_dense_copy(self, tmp_path):
        # N = 10^4, K = 200: the dense n x K family alone is N K 8 bytes; the
        # sweep keeps it factored and solutions.csv streams it in blocks
        run_figure1(Figure1Config(out_prefix=str(tmp_path / "w_"), write_solutions=True,
                                  **self.SMALL))  # imports and caches outside the trace
        tracemalloc.start()
        try:
            result = run_figure1(Figure1Config(m=100, out_prefix=str(tmp_path / "m_"),
                                               write_solutions=True))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "solutions" in result.files and "solutions" not in vars(result.sweep)
        assert peak < 10_000 * 200 * 8

    def test_matches_generic_sweep(self):
        # the sine-transform route against the dense eigh of poisson_2d, for
        # both figure-1 variants at m = 5 and m = 23: two exact factorizations
        # agree to round-off, not bit for bit
        for m, orders, target, count in ((5, (3, 2), 2, 25), (5, (3, 2, 2), 3, 25),
                                         (23, (11, 6), 2, 200), (23, (11, 6, 4), 3, 200)):
            result = run_figure1(Figure1Config(m=m, orders=orders, target_index=target,
                                               count=count))
            a = poisson_2d(m)
            ss_sub, ss_b = np.random.SeedSequence(0).spawn(2)
            built = krylov_sum_subspace(a, KrylovSumSpec(orders, target),
                                        np.random.default_rng(ss_sub))
            b = np.random.default_rng(ss_b).standard_normal(m * m)
            inst = ProblemInstance.create(a, built.subspace, b)
            sweep = sweep_solutions(inst, default_omega_grid(count))
            x, ref = result.sweep.solutions, sweep.solutions
            assert x.shape == ref.shape == (m * m, count)
            rel = np.linalg.norm(x - ref, axis=0) / np.linalg.norm(ref, axis=0)
            assert rel.max() <= 1e-12, (m, orders)
            assert result.index == built.index == target
            assert result.est_dim == sweep.est_dim == target

    def test_spectrum_matches_the_dense_svd(self):
        # sigma comes from the p x K coordinates; the n x K SVD of the
        # centered solutions gives the same leading ratios and est_dim
        from omegals.analysis import EST_DIM_RATIO
        from omegals.linalg import default_rank_tol

        for orders, target in (((11, 6), 2), ((11, 6, 4), 3)):
            result = run_figure1(Figure1Config(m=23, orders=orders, target_index=target))
            x = result.sweep.solutions
            dense = np.linalg.svd(x - x.mean(axis=1, keepdims=True), compute_uv=False)
            sigma = result.sweep.sigma
            assert sigma.size == result.subspace_dim
            np.testing.assert_allclose(sigma[:target + 2] / sigma[0],
                                       dense[:target + 2] / dense[0], rtol=1e-10, atol=1e-12)
            assert dense[0] > default_rank_tol(x.shape) * np.linalg.norm(x)
            assert result.est_dim == np.count_nonzero(dense > EST_DIM_RATIO * dense[0]) == target

    def test_meta_records_the_worst_diagnostics(self, tmp_path):
        result = run_figure1(Figure1Config(out_prefix=str(tmp_path / "d_"), **self.SMALL))
        sweep = result.sweep
        meta = json.loads((tmp_path / "d_meta.json").read_text())
        assert meta["worst_gram_cond_bound"] == sweep.gram_cond_bound.max()
        assert meta["worst_guard_margin"] == sweep.guard_margin.min()
        # the smallest shift is the worst on both counts
        assert sweep.gram_cond_bound.argmax() == sweep.guard_margin.argmin() == 0
        assert 1.0 < meta["worst_gram_cond_bound"] < 1e4 and meta["worst_guard_margin"] > 0

    def test_stage_timings(self, tmp_path):
        start = time.perf_counter()
        result = run_figure1(Figure1Config(out_prefix=str(tmp_path / "t_"), **self.SMALL))
        wall = time.perf_counter() - start
        assert tuple(result.stages) == FIGURE1_STAGES
        assert all(t >= 0.0 for t in result.stages.values())
        assert sum(result.stages.values()) <= wall
        meta = json.loads((tmp_path / "t_meta.json").read_text())
        # meta.json is written inside the write stage, so it holds the others
        assert meta["stages"] == {k: result.stages[k] for k in FIGURE1_STAGES[:-1]}
        assert meta["elapsed_seconds"] == pytest.approx(sum(meta["stages"].values()))

    def test_grid_of_ten_thousand_nodes(self):
        # N = 10^4 runs on the sparse operator; a dense A alone would be 800 MB
        result = run_figure1(Figure1Config(m=100))
        assert result.sweep.solutions.shape == (10_000, 200)
        assert result.index == 2 and result.est_dim == 2
        assert result.sweep.sigma[2] / result.sweep.sigma[0] <= 1e-8

    def test_difference_subspace_dimension_matches_index(self):
        from omegals.analysis import difference_subspace
        from omegals.decomposition import tridiagonal_block_decomposition

        a = poisson_2d(8)
        res = krylov_sum_subspace(a, KrylovSumSpec(orders=(4, 3), target_index=2),
                                  np.random.default_rng(9))
        dec = tridiagonal_block_decomposition(a, res.subspace)
        y = difference_subspace(dec)
        assert y.basis.dim == 2

    def test_invariant_configuration_flatlines(self):
        # full Krylov closure: the constraint subspace becomes invariant and
        # every column of the sweep coincides
        a = poisson_2d(2)
        res = krylov_sum_subspace(a, KrylovSumSpec(orders=(4,)),
                                  np.random.default_rng(11))
        assert index_of_invariance(a, res.subspace) == 0
        b = np.random.default_rng(12).standard_normal(4)
        inst = ProblemInstance.create(a, res.subspace, b)
        sweep = sweep_solutions(inst, default_omega_grid(20))
        assert sweep.est_dim == 0
        assert sweep.sigma.size == 0 or sweep.sigma[0] <= 1e-10
