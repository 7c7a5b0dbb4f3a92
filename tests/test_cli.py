import json

import numpy as np
import pytest

from omegals import io as oio
from omegals.cli import main
from omegals.decomposition import block_tridiagonal
from omegals.experiments import poisson_2d
from omegals.sampling import (
    random_hermitian_invertible,
    random_nested_subspaces,
    random_subspace,
)
from omegals.subspaces import krylov


@pytest.fixture
def workspace(tmp_path):
    """Matrix + subspace files for a small Poisson problem."""
    a_path = tmp_path / "a.mtx"
    assert main(["poisson", "--m", "3", "--out", str(a_path)]) == 0
    a = oio.read_matrix_market(a_path)
    s = krylov(a, np.arange(1.0, 10.0), 3)
    s_path = tmp_path / "s.json"
    oio.save_subspace(s_path, s.basis)
    return tmp_path, a_path, s_path


def test_poisson_writes_matrix(workspace):
    _, a_path, _ = workspace
    a = oio.read_matrix_market(a_path)
    np.testing.assert_array_equal(a, poisson_2d(3))


def test_index_subcommand(workspace, capsys):
    _, a_path, s_path = workspace
    assert main(["index", "--matrix", str(a_path), "--subspace", str(s_path)]) == 0
    out = capsys.readouterr().out
    assert "dim S = 3" in out
    assert "index = 1" in out


def test_decompose_subcommand(workspace, capsys):
    tmp_path, a_path, s_path = workspace
    out_path = tmp_path / "dec.json"
    assert main(["decompose", "--matrix", str(a_path), "--subspace", str(s_path),
                 "--out", str(out_path)]) == 0
    obj = json.loads(out_path.read_text())
    assert obj["n"] == 9 and obj["p"] == 3 and obj["q"] == 1
    blocks = oio.decomposition_blocks_from_json(obj)
    assert blocks["T"].shape == (3, 3)
    assert blocks["B"].shape == (1, 3)
    # 17-significant-digit float in the summary line
    out = capsys.readouterr().out
    assert "lambda_min=" in out


def test_decompose_exports_a_unitary_w_and_its_compression(workspace):
    # pinned on properties that hold for every basis V'' of the complement
    # of [V V'], not on the exported V'', D and E values themselves
    tmp_path, a_path, s_path = workspace
    out_path = tmp_path / "dec.json"
    assert main(["decompose", "--matrix", str(a_path), "--subspace", str(s_path),
                 "--out", str(out_path)]) == 0
    blocks = oio.decomposition_blocks_from_json(json.loads(out_path.read_text()))
    a = oio.read_matrix_market(a_path)
    w = np.hstack([blocks["V"], blocks["Vp"], blocks["Vpp"]])
    assert w.shape == (9, 9)
    assert np.linalg.norm(w.conj().T @ w - np.eye(9)) <= 1e-12
    layout = block_tridiagonal(*(blocks[name] for name in ("T", "B", "C", "D", "E")))
    assert np.linalg.norm(w.conj().T @ a @ w - layout) <= 1e-12


def test_sweep_subcommand(workspace, capsys):
    tmp_path, a_path, s_path = workspace
    b = np.arange(1.0, 10.0)
    b_path = tmp_path / "b.mtx"
    oio.write_matrix_market(b_path, b)
    prefix = str(tmp_path / "out_")
    code = main(["sweep", "--matrix", str(a_path), "--subspace", str(s_path),
                 "--b", str(b_path), "--omega-min", "1e-3", "--omega-max", "1e3",
                 "--count", "40", "--seed", "0", "--out-prefix", prefix,
                 "--include-solutions"])
    assert code == 0
    out = capsys.readouterr().out
    assert "estimated family dimension: 1" in out
    sigma = (tmp_path / "out_sigma.csv").read_text().splitlines()
    assert sigma[0] == "index,sigma,sigma_ratio"
    meta = json.loads((tmp_path / "out_meta.json").read_text())
    assert meta["index"] == 1 and meta["est_dim"] == 1
    solutions = (tmp_path / "out_solutions.csv").read_text().splitlines()
    assert len(solutions) == 41


def test_sweep_generates_b_from_seed(workspace, capsys):
    tmp_path, a_path, s_path = workspace
    prefix = str(tmp_path / "seeded_")
    assert main(["sweep", "--matrix", str(a_path), "--subspace", str(s_path),
                 "--count", "10", "--seed", "7", "--out-prefix", prefix]) == 0
    meta = json.loads((tmp_path / "seeded_meta.json").read_text())
    assert meta["seed"] == 7 and meta["b"] is None


@pytest.mark.parametrize("option, value", [("--omega-min", "0"), ("--omega-max", "inf"),
                                           ("--count", "0")])
def test_sweep_rejects_a_grid_bound_that_is_not_positive_and_finite(workspace, option, value):
    tmp_path, a_path, s_path = workspace
    prefix = tmp_path / "bad_"
    with pytest.raises(ValueError, match=r"grid (bound lo = 0\.0|bound hi = inf|count = 0)"):
        main(["sweep", "--matrix", str(a_path), "--subspace", str(s_path),
              "--count", "5", option, value, "--out-prefix", str(prefix)])
    assert not list(tmp_path.glob("bad_*"))


@pytest.mark.parametrize("options", [["--count", "1"], ["--omega-min", "1", "--omega-max", "1"]])
def test_sweep_rejects_a_grid_without_two_distinct_shifts(workspace, options):
    # one shift gives no movement to estimate a family dimension from
    tmp_path, a_path, s_path = workspace
    prefix = tmp_path / "single_"
    with pytest.raises(ValueError, match=r"holds 1 distinct shift\(s\)"):
        main(["sweep", "--matrix", str(a_path), "--subspace", str(s_path),
              "--count", "5", *options, "--out-prefix", str(prefix)])
    assert not list(tmp_path.glob("single_*"))


def test_sweep_orthonormalizes_the_loaded_basis(tmp_path, capsys):
    # a file basis a little off orthonormal (||V*V - I|| = 1.7e-8, inside the
    # Subspace check) once moved sigma by 3e-9 relative: the sweep reads its
    # spectrum from the coordinates on V
    rng = np.random.default_rng(3)
    a_path, s_path, b_path = tmp_path / "a.mtx", tmp_path / "s.json", tmp_path / "b.mtx"
    a = random_hermitian_invertible(rng, 40, False)
    oio.write_matrix_market(a_path, a)
    oio.write_matrix_market(b_path, rng.standard_normal(40))
    v = random_subspace(rng, 40, 6, False).basis
    loose = v @ np.diag(1.0 + np.array([6.0, -4.0, 3.0, 2.0, -2.0, 1.0]) * 1e-9)
    assert 1e-8 < np.linalg.norm(loose.T @ loose - np.eye(6)) < 2e-8
    oio.save_subspace(s_path, loose)
    assert main(["sweep", "--matrix", str(a_path), "--subspace", str(s_path),
                 "--b", str(b_path), "--count", "30", "--out-prefix", str(tmp_path / "out_"),
                 "--include-solutions"]) == 0
    sigma = np.loadtxt(tmp_path / "out_sigma.csv", delimiter=",", skiprows=1)[:, 1]
    x = np.loadtxt(tmp_path / "out_solutions.csv", delimiter=",", skiprows=1)[:, 1:].T
    dense = np.linalg.svd(x - x.mean(axis=1, keepdims=True), compute_uv=False)
    np.testing.assert_allclose(sigma, dense[:sigma.size], rtol=0, atol=1e-13 * dense[0])


def test_rank_deficient_basis_file_is_rejected(workspace):
    tmp_path, a_path, s_path = workspace
    basis = oio.load_subspace(s_path)
    bad_path = tmp_path / "bad.json"
    oio.save_subspace(bad_path, np.hstack([basis, basis[:, :1]]))
    with pytest.raises(ValueError, match="rank-deficient"):
        main(["index", "--matrix", str(a_path), "--subspace", str(bad_path)])


def test_matrix_path_without_mtx_suffix(tmp_path, capsys):
    a_path = tmp_path / "lap.txt"
    assert main(["poisson", "--m", "3", "--out", str(a_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["lap.txt"]
    s_path = tmp_path / "s.json"
    oio.save_subspace(s_path, krylov(poisson_2d(3), np.arange(1.0, 10.0), 3).basis)
    assert main(["index", "--matrix", str(a_path), "--subspace", str(s_path)]) == 0
    assert "index = 1" in capsys.readouterr().out
    assert main(["sweep", "--matrix", str(a_path), "--subspace", str(s_path),
                 "--count", "10", "--seed", "0", "--out-prefix", str(tmp_path / "out_")]) == 0
    assert json.loads((tmp_path / "out_meta.json").read_text())["index"] == 1


def test_manifold_subcommands(tmp_path, capsys):
    rng = np.random.default_rng(0)
    s, s_prime = random_nested_subspaces(rng, 5, 2, 1, False)
    s_path = tmp_path / "s.json"
    sp_path = tmp_path / "sp.json"
    oio.save_subspace(s_path, s.basis)
    oio.save_subspace(sp_path, s_prime.basis)
    a_path = tmp_path / "w.mtx"
    assert main(["manifold", "construct", "--s", str(s_path),
                 "--s-prime", str(sp_path), "--out", str(a_path)]) == 0
    assert main(["manifold", "member", "--matrix", str(a_path), "--s", str(s_path),
                 "--s-prime", str(sp_path), "--class", "M_pos"]) == 0
    out = capsys.readouterr().out
    assert "member" in out
    # non-member: the identity does not reach S'
    eye_path = tmp_path / "eye.mtx"
    oio.write_matrix_market(eye_path, np.eye(5))
    assert main(["manifold", "member", "--matrix", str(eye_path), "--s", str(s_path),
                 "--s-prime", str(sp_path), "--class", "M"]) == 1
    assert main(["manifold", "dim", "--n", "4", "--p", "2", "--q", "1",
                 "--class", "M_sym", "--field", "R"]) == 0
    assert capsys.readouterr().out.strip().endswith("8")


def test_verify_subcommand(capsys):
    assert main(["verify", "--suite", "manifolds", "--seed", "0", "--trials", "6"]) == 0
    out = capsys.readouterr().out
    assert "[manifolds] PASS" in out


def test_verify_all_small(capsys):
    assert main(["verify", "--suite", "all", "--seed", "0", "--trials", "4"]) == 0
    out = capsys.readouterr().out
    for name in ("index", "main-theorem", "convexity", "nullspace", "manifolds"):
        assert f"[{name}] PASS" in out


def test_seventeen_digit_output(workspace, capsys):
    tmp_path, a_path, s_path = workspace
    out_path = tmp_path / "dec.json"
    main(["decompose", "--matrix", str(a_path), "--subspace", str(s_path),
          "--out", str(out_path)])
    out = capsys.readouterr().out
    lam = [tok for tok in out.split() if tok.startswith("lambda_min=")][0]
    digits = lam.split("=")[1].replace("-", "").replace(".", "").lstrip("0")
    assert len(digits) >= 16
