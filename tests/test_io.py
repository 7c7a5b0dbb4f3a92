import json

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from omegals import io as oio
from omegals.decomposition import tridiagonal_block_decomposition
from omegals.subspaces import Subspace


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
@pytest.mark.parametrize("complex_field", [False, True])
def test_matrix_market_roundtrip_exact(tmp_path, fmt, complex_field):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-12, 12, size=(4, 3))
    if complex_field:
        m = m + 1j * rng.standard_normal((4, 3))
    m[1, 2] = 0.0
    path = tmp_path / "m.mtx"
    if fmt == "array":
        oio.write_matrix_market(path, m)
    else:
        # the library writes only the array layout; a coordinate file from
        # another writer must still read back exactly
        scipy.io.mmwrite(path, scipy.sparse.coo_matrix(m), precision=oio.MM_PRECISION)
        assert "coordinate" in path.read_text().splitlines()[0]
    back = oio.read_matrix_market(path)
    np.testing.assert_array_equal(back, m)


@pytest.mark.parametrize("complex_field", [False, True])
def test_matrix_market_writes_exactly_the_given_path(tmp_path, complex_field):
    m = np.arange(6.0).reshape(3, 2) + (1j if complex_field else 0.0)
    path = tmp_path / "m.txt"
    oio.write_matrix_market(path, m)
    assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]
    np.testing.assert_array_equal(oio.read_matrix_market(path), m)


def test_vector_roundtrip(tmp_path):
    v = np.array([1.0, np.pi, 1e-300])
    path = tmp_path / "v.mtx"
    oio.write_matrix_market(path, v)
    np.testing.assert_array_equal(oio.read_vector_market(path), v)


def test_subspace_json_schema():
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    obj = oio.subspace_to_json(basis)
    assert obj["n"] == 3 and obj["k"] == 2
    # column-major: first column's three entries come first
    assert obj["basis"][0] == [1.0, 0.0]
    assert obj["basis"][1] == [0.0, 0.0]
    assert obj["basis"][4] == [1.0, 0.0]
    assert len(obj["basis"]) == 6


@pytest.mark.parametrize("complex_field", [False, True])
def test_subspace_json_roundtrip(tmp_path, complex_field):
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((5, 2))
    if complex_field:
        raw = raw + 1j * rng.standard_normal((5, 2))
    s = Subspace.from_vectors(raw)
    path = tmp_path / "s.json"
    oio.save_subspace(path, s.basis)
    back = oio.load_subspace(path)
    np.testing.assert_array_equal(back, s.basis)
    assert np.iscomplexobj(back) == complex_field
    # the payload is valid JSON with the documented keys
    obj = json.loads(path.read_text())
    assert set(obj) == {"n", "k", "basis"}


def test_subspace_json_length_mismatch():
    with pytest.raises(ValueError):
        oio.subspace_from_json({"n": 2, "k": 2, "basis": [[1.0, 0.0]]})


@pytest.mark.parametrize("shape", [(0, 1), (2, 0), (0, 0)])
def test_matrix_market_empty_shapes(tmp_path, shape):
    path = tmp_path / "e.mtx"
    oio.write_matrix_market(path, np.zeros(shape))
    back = oio.read_matrix_market(path)
    assert back.shape == shape


def test_decomposition_json_degenerate_blocks():
    # n = p + q: the outer blocks have a zero dimension
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    dec = tridiagonal_block_decomposition(a, Subspace(np.array([[1.0], [0.0]])))
    obj = oio.decomposition_to_json(dec)
    blocks = oio.decomposition_blocks_from_json(obj)
    assert blocks["Vpp"].shape == (2, 0)
    assert blocks["D"].shape == (0, 1)
    assert blocks["E"].shape == (0, 0)


def test_decomposition_json_payloads():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 5))
    a = 0.5 * (a + a.T)
    s = Subspace.from_vectors(rng.standard_normal((5, 2)))
    dec = tridiagonal_block_decomposition(a, s)
    obj = oio.decomposition_to_json(dec)
    assert obj["n"] == 5 and obj["p"] == 2
    blocks = oio.decomposition_blocks_from_json(obj)
    for name in ("V", "Vp", "Vpp", "T", "B", "C", "D", "E"):
        np.testing.assert_array_equal(blocks[name], getattr(dec, name))


def test_condition_report_json(tmp_path):
    from omegals.analysis import condition_report
    from omegals.sampling import random_spd, random_subspace

    rng = np.random.default_rng(3)
    a = random_spd(rng, 6)
    s = random_subspace(rng, 6, 2, False)
    dec = tridiagonal_block_decomposition(a, s)
    report = condition_report(dec, [(0.5, 2.0)])
    path = tmp_path / "report.json"
    oio.save_condition_report(path, report)
    obj = json.loads(path.read_text())
    assert obj["t_invertible"] is True
    sample = obj["samples"][0]
    assert sample["omega"] == 0.5 and sample["positive"] is True
    q = dec.q
    assert sample["l_matrix"]["rows"] == q
    assert len(sample["l_matrix"]["entries"]) == q * q


def test_csv_float_formatting(tmp_path):
    path = tmp_path / "t.csv"
    oio.write_csv(path, ["a", "b"], [[(1, 1 / 3)]])
    text = path.read_text()
    assert text.splitlines()[0] == "a,b"
    assert "0.33333333333333331" in text


def _per_cell_csv(header, rows):
    """The former writer: one format_float call per cell, str() for ints."""
    lines = [",".join(header)]
    for row in rows:
        cells = [str(c) if isinstance(c, (int, np.integer)) else oio.format_float(float(c))
                 for c in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_csv_matches_the_per_cell_formatter(tmp_path):
    rng = np.random.default_rng(20)
    specials = [0, 7, -3, 0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1e300, -1e300,
                5e-324, 1 / 3, 0.1, 2.0**52, 123456789.0]
    rows = [(i + 1, v, float(rng.standard_normal())) for i, v in enumerate(specials)]
    header = ["index", "value", "gauss"]
    for name, table in (("rows", rows), ("array", np.array(rows, dtype=float))):
        path = tmp_path / f"{name}.csv"
        oio.write_csv(path, header, [table])
        assert path.read_bytes() == _per_cell_csv(header, rows).encode(), name
    empty = tmp_path / "empty.csv"
    oio.write_csv(empty, ["omega"], [np.zeros((0, 1))])
    assert empty.read_bytes() == b"omega\n"



@pytest.mark.parametrize("rows", [0, 1, 17])
@pytest.mark.parametrize("cuts", [(), (0,), (1,), (0, 1, 1, 5), (6, 12)])
def test_csv_row_blocks_match_savetxt(tmp_path, rows, cuts):
    # any split into row blocks (empty, single-row, ragged last) writes the
    # bytes np.savetxt writes for the whole table
    rng = np.random.default_rng(21)
    specials = [0.0, -0.0, 7.0, -3.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 2.0**53, 0.1]
    table = rng.standard_normal((17, 3))
    table.flat[:len(specials)] = specials
    table = table[:rows]
    header = ["omega", "x_1", "x_2"]
    path, ref = tmp_path / "blocks.csv", tmp_path / "savetxt.csv"
    oio.write_csv(path, header, np.split(table, [c for c in cuts if c <= rows]))
    np.savetxt(ref, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
    assert path.read_bytes() == ref.read_bytes()


def test_format_float_17_digits():
    assert oio.format_float(np.pi) == "3.1415926535897931"
