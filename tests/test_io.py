import json
import os
import signal
import time

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _kernel_csv(cells, ncol: int = 1) -> bytes:
    """write_csv's text of ``cells`` in rows of ``ncol``, every chunk through
    the vectorized kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oio, "KERNEL_MIN_CELLS", 0)
        return oio._text(ncol, [np.asarray(cells, dtype=float)])


def _format_float_csv(cells, ncol: int = 1) -> bytes:
    rows = np.asarray(cells, dtype=float).reshape(-1, ncol).tolist()
    return "".join(",".join(map(oio.format_float, row)) + "\n" for row in rows).encode()


def _ties():
    """Doubles halfway between two 17-digit decimals: for q odd, x = q / 2^(k+1)
    times 10^k is q * 5^k / 2, so in [10^(16-k), 10^(17-k)) its 18th digit
    is a 5 followed by nothing."""
    rng = np.random.default_rng(24)
    ties = []
    for k in range(1, 23):
        # odd q = 2r + 1 in [10^(16-k) 2^(k+1), min(10^(17-k) 2^(k+1), 2^53))
        r_lo = -(-2**k * 10**16 // 10**k)
        r_hi = min(2**k * 10**17 // 10**k, 2**52) - 1
        for r in [r_lo, r_hi, *rng.integers(r_lo, r_hi, 20).tolist()]:
            ties.append((2 * r + 1) / 2**(k + 1))
    return ties


def _near_ties():
    """Doubles x = m 2^E whose x 10^k, k = 23..29, lies within 64 / 2^s of a
    tie, s = -(E + k): m 5^k = 2^(s-1) + t (mod 2^s) for |t| <= 64. There
    10^k is inexact, and the kernel must hand them to format_float."""
    cells = []
    for k in range(23, 30):
        for exponent in range(-120, -60):
            s = -(exponent + k)
            inverse = pow(5**k, -1, 2**s)
            for t in range(-64, 65):
                m = (2**(s - 1) + t) * inverse % 2**s
                x = m * 2.0**exponent
                if 2**52 <= m < 2**53 and 10.0**(16 - k) <= x < 10.0**(17 - k):
                    cells.append(x)
    return cells


def _adversarial_cells() -> np.ndarray:
    """Cells where a fast %.17g goes wrong first, with their negatives."""
    cells = [0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             2.0**-25, 1e-7, 1e-14, 0.1, 1 / 3, 2.0**52, 2.0**53, 2.0**53 + 2]
    # 10^j and its neighbours hold the layout's switch points (1e-5, 1e-4,
    # 1e16, 1e17) and the doubles whose exponent log10 misjudges
    for j in range(-30, 31):
        below = above = 10.0**j
        cells.append(below)
        for _ in range(4):
            below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
            cells += [below, above]
    # 17 nines round up to the next power of ten
    cells += [float(f"9.99999999999999999{d}e{j}") for j in range(-26, 18) for d in (0, 5, 9)]
    cells += _ties() + _near_ties()
    cells = np.array(cells)
    return np.concatenate([cells, -cells])


@pytest.mark.parametrize("ncol, chunk", [(1, oio.CSV_CHUNK_CELLS), (7, 1000)])
def test_kernel_matches_format_float_on_adversarial_cells(monkeypatch, ncol, chunk):
    # rows of 7 cells across chunks of 1000 mix decided and undecided cells
    # in a row and split rows between chunks
    monkeypatch.setattr(oio, "CSV_CHUNK_CELLS", chunk)
    cells = _adversarial_cells()
    cells = cells[:cells.size // ncol * ncol]
    assert np.signbit(cells[np.isnan(cells)]).any()
    assert _kernel_csv(cells, ncol) == _format_float_csv(cells, ncol)


def test_kernel_decides_ordinary_cells_and_ties():
    # the kernel, not format_float, writes these: exact ties and the range a
    # solution family covers (but not the ties next to a power of ten, whose
    # exponent log10 may misjudge)
    rng = np.random.default_rng(25)
    ties = np.array(_ties())
    ties = ties[~np.isclose(ties, 10.0 ** np.round(np.log10(ties)), rtol=1e-12, atol=0)]
    cells = np.concatenate([ties, rng.standard_normal(4000) * 10.0 ** rng.uniform(-20, 16, 4000)])
    decided, _, _ = oio._decimal(cells)
    assert decided.all()
    assert _kernel_csv(cells) == _format_float_csv(cells)


def _bits_to_floats(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_kernel_matches_format_float_on_raw_bit_patterns(bits):
    cells = _bits_to_floats(bits)
    assert _kernel_csv(cells) == _format_float_csv(cells)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(1023 - 90, 1023 + 60),
                          st.integers(0, 2**52 - 1)), min_size=1, max_size=64))
def test_kernel_matches_format_float_on_its_own_range(fields):
    # sign, biased exponent and mantissa of doubles from about 1e-27 to 1e18
    cells = _bits_to_floats([sign << 63 | exponent << 52 | mantissa
                             for sign, exponent, mantissa in fields])
    assert _kernel_csv(cells) == _format_float_csv(cells)


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


def _savetxt_bytes(tmp_path, header, table):
    ref = tmp_path / "savetxt.csv"
    np.savetxt(ref, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
    return ref.read_bytes()


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("sizes", [(5, 5, 5, 5), (5, 5, 5, 2), (1, 1), (0, 4, 0, 7), (3,), ()])
def test_csv_forked_runs_match_savetxt(tmp_path, monkeypatch, use_cpus, assert_no_child_left,
                                       cpus, sizes):
    # one run of whole blocks per usable CPU, the first formatted by the
    # caller and each other one by a forked worker (ragged, empty and fewer
    # blocks than CPUs included), writes the bytes np.savetxt writes for
    # the whole table
    monkeypatch.setattr(oio, "FORK_MIN_CELLS", 0)
    forks = use_cpus(cpus)
    table = np.random.default_rng(22).standard_normal((sum(sizes), 3))
    table.flat[:4] = [0.0, -0.0, np.nan, 2.0**53][:table.size]
    header = ["omega", "x_1", "x_2"]
    path = tmp_path / "forked.csv"
    oio.write_csv(path, header, iter(np.split(table, np.cumsum(sizes)[:-1])), list(sizes))
    assert path.read_bytes() == _savetxt_bytes(tmp_path, header, table)
    assert len(forks) == (min(cpus, len(sizes)) - 1 if len(sizes) > 1 else 0)
    assert_no_child_left()


def test_csv_below_the_cell_constant_stays_in_process(tmp_path, use_cpus):
    forks = use_cpus(2)
    header = ["a", "b", "c"]
    for rows, workers in ((oio.FORK_MIN_CELLS // 3, 0), (oio.FORK_MIN_CELLS // 3 + 1, 1)):
        table = np.arange(3.0 * rows).reshape(rows, 3) / 7
        path = tmp_path / f"{rows}.csv"
        oio.write_csv(path, header, np.split(table, [rows // 2]), [rows // 2, rows - rows // 2])
        assert path.read_bytes() == _savetxt_bytes(tmp_path, header, table)
        assert len(forks) == workers


@pytest.mark.parametrize("fallback", ["one CPU", "no os.fork"])
def test_csv_falls_back_to_one_process(tmp_path, monkeypatch, use_cpus, fallback):
    monkeypatch.setattr(oio, "FORK_MIN_CELLS", 0)
    forks = use_cpus(1 if fallback == "one CPU" else 2)
    if fallback == "no os.fork":
        monkeypatch.delattr(os, "fork")
    table = np.random.default_rng(23).standard_normal((20, 3))
    path = tmp_path / "one.csv"
    oio.write_csv(path, ["a", "b", "c"], np.split(table, 4), [5] * 4)
    assert path.read_bytes() == _savetxt_bytes(tmp_path, ["a", "b", "c"], table)
    assert forks == []


def test_csv_dead_worker_raises_a_runtime_error_naming_its_rows(tmp_path, monkeypatch,
                                                               use_cpus, assert_no_child_left):
    text = oio._text

    def die_at_row_10(ncol, blocks):
        if blocks[0][0, 0] == 10:
            os.kill(os.getpid(), signal.SIGKILL)
        return text(ncol, blocks)

    monkeypatch.setattr(oio, "_text", die_at_row_10)
    monkeypatch.setattr(oio, "FORK_MIN_CELLS", 0)
    use_cpus(2)
    table = np.column_stack([np.arange(20.0), np.ones((20, 2))])
    with pytest.raises(RuntimeError, match=r"^CSV worker for rows 10\.\.19 \(pid \d+\) "
                                           r"died without a result, exit code -9$"):
        oio.write_csv(tmp_path / "t.csv", ["a", "b", "c"], np.split(table, 4), [5] * 4)
    assert_no_child_left()


def test_csv_parent_error_kills_and_reaps_every_worker(tmp_path, monkeypatch, use_cpus,
                                                       assert_no_child_left):
    # the worker for the second run would format for a minute; an error in
    # the caller's own run kills it at once
    monkeypatch.setattr(oio, "_text", lambda *args: time.sleep(60))
    monkeypatch.setattr(oio, "FORK_MIN_CELLS", 0)
    forks = use_cpus(2)

    def broken():
        raise ValueError("first run")

    start = time.perf_counter()
    with pytest.raises(ValueError, match="first run"):
        oio.write_csv(tmp_path / "t.csv", ["a", "b", "c"],
                      [lambda: np.zeros((5, 3)), broken] + [lambda: np.zeros((5, 3))] * 2,
                      [5] * 4)
    assert len(forks) == 1 and time.perf_counter() - start < 30
    assert_no_child_left()


def test_format_float_17_digits():
    assert oio.format_float(np.pi) == "3.1415926535897931"
