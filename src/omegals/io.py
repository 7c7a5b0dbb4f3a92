"""File formats: Matrix Market matrices, subspace JSON, CSV emission.

Matrix Market matrices, real and complex, are written in the dense "array"
layout with enough digits (17 after the point) that float64 values survive a
decimal round trip; reading also accepts the sparse "coordinate" layout.
Subspaces serialize to JSON as ``{n, k, basis}`` with the basis stored
column-major as [re, im] pairs.
"""

from __future__ import annotations

import json
from io import BytesIO
from itertools import islice
from pathlib import Path

import numpy as np

from .workers import Workers, usable_cpus

# %.17e gives 18 significant digits: enough to round-trip any float64.
MM_PRECISION = 17

# Fewest cells of a table that write_csv formats in forked workers: about
# 40 ms of formatting, against about 3 ms to fork and reap a worker.
FORK_MIN_CELLS = 2**16

# Largest read of a worker's pipe that write_csv copies into the file.
COPY_BYTES = 2**20


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (CLI/CSV contract)."""
    return f"{x:.17g}"


def _empty_mm_text(m: np.ndarray) -> str:
    field = "complex" if np.iscomplexobj(m) else "real"
    return f"%%MatrixMarket matrix array {field} general\n%\n{m.shape[0]} {m.shape[1]}\n"


def _parse_empty_mm(text: str) -> np.ndarray | None:
    """Header-only fast path for zero-size array payloads (the scipy reader
    and writer both spin on matrices with a zero dimension)."""
    lines = text.splitlines()
    if not lines or "array" not in lines[0]:
        return None
    body = [ln for ln in lines[1:] if ln.strip() and not ln.startswith("%")]
    if not body:
        return None
    rows, cols = (int(tok) for tok in body[0].split()[:2])
    if rows * cols != 0:
        return None
    dtype = complex if "complex" in lines[0] else float
    return np.zeros((rows, cols), dtype=dtype)


def _mm_string(m: np.ndarray, comment: str = "") -> str:
    """Matrix Market array text of a dense matrix (or column vector), which
    round-trips float64 entries exactly in decimal. Zero-size matrices become
    header-only text. SciPy's Matrix Market module is imported here and in
    :func:`_mm_parse`, not with the package: it is most of the cost of
    ``import omegals``.
    """
    import scipy.io

    m = np.asarray(m)
    if m.ndim == 1:
        m = m[:, None]
    if m.size == 0:
        return _empty_mm_text(m)
    buf = BytesIO()
    scipy.io.mmwrite(buf, m, comment=comment, precision=MM_PRECISION)
    return buf.getvalue().decode()


def _mm_parse(text: str) -> np.ndarray:
    import scipy.io
    import scipy.sparse

    empty = _parse_empty_mm(text)
    if empty is not None:
        return empty
    m = scipy.io.mmread(BytesIO(text.encode()))
    if scipy.sparse.issparse(m):
        m = m.toarray()
    return np.asarray(m)


def write_matrix_market(path, m: np.ndarray, comment: str = "") -> None:
    """Write a dense matrix (or column vector) in Matrix Market format to
    exactly ``path``, whatever its suffix; see :func:`_mm_string`."""
    Path(path).write_text(_mm_string(m, comment))


def read_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file, array or coordinate layout, into a dense
    ndarray."""
    return _mm_parse(Path(path).read_text())


def read_vector_market(path) -> np.ndarray:
    """Read an n x 1 (or 1 x n) Matrix Market file as a flat vector."""
    m = read_matrix_market(path)
    if m.ndim == 2 and 1 in m.shape:
        return m.reshape(-1)
    if m.ndim == 1:
        return m
    raise ValueError(f"expected a vector, got shape {m.shape}")


def subspace_to_json(basis: np.ndarray) -> dict:
    """JSON object {n, k, basis: column-major [re, im] pairs} for a basis."""
    n, k = basis.shape
    return {"n": int(n), "k": int(k), "basis": _complex_pairs(basis)}


def subspace_from_json(obj: dict) -> np.ndarray:
    n, k = int(obj["n"]), int(obj["k"])
    pairs = obj["basis"]
    if len(pairs) != n * k:
        raise ValueError("basis length does not match n*k")
    flat = np.array([complex(re, im) for re, im in pairs])
    basis = flat.reshape((n, k), order="F")
    if np.all(basis.imag == 0.0):
        basis = basis.real
    return basis


def save_subspace(path, basis: np.ndarray) -> None:
    Path(path).write_text(json.dumps(subspace_to_json(basis)))


def load_subspace(path) -> np.ndarray:
    return subspace_from_json(json.loads(Path(path).read_text()))


def decomposition_to_json(dec) -> dict:
    """Block shapes plus Matrix Market payloads for every stored block."""
    blocks = {name: getattr(dec, name) for name in ("V", "Vp", "Vpp", "T", "B", "C", "D", "E")}
    return {
        "n": dec.n,
        "p": dec.p,
        "q": dec.q,
        "lambda_min": dec.lambda_min,
        "shapes": {name: list(block.shape) for name, block in blocks.items()},
        "blocks": {name: _mm_string(block) for name, block in blocks.items()},
    }


def decomposition_blocks_from_json(obj: dict) -> dict:
    """Parse the Matrix Market payloads back into ndarrays (keyed by block)."""
    out = {}
    for name, text in obj["blocks"].items():
        block = _mm_parse(text)
        rows, cols = obj["shapes"][name]
        out[name] = block.reshape((rows, cols)) if block.size else np.zeros((rows, cols))
    return out


def _complex_pairs(m: np.ndarray) -> list:
    flat = np.asarray(m, dtype=complex).flatten(order="F")
    return [[float(z.real), float(z.imag)] for z in flat]


def _lines(row: str, ncol: int, blocks):
    """The CSV text of each row of ``blocks``, formatted by ``row``."""
    for block in blocks:
        block = block() if callable(block) else block
        for cells in np.asarray(block, dtype=float).reshape(-1, ncol):
            yield row % tuple(cells.tolist())


def _text(row: str, ncol: int, blocks) -> bytes:
    return "".join(_lines(row, ncol, blocks)).encode()


def _runs(block_rows, ncol: int) -> list[tuple[int, int, int]]:
    """(first row, stop row, block count) of contiguous runs of whole
    blocks, one per usable CPU; empty where the table stays in-process."""
    if block_rows is None or sum(block_rows) * ncol < FORK_MIN_CELLS:
        return []
    count = min(usable_cpus(), len(block_rows))
    if count < 2:
        return []
    cuts = [k * len(block_rows) // count for k in range(count + 1)]
    return [(sum(block_rows[:a]), sum(block_rows[:b]), b - a) for a, b in zip(cuts, cuts[1:])]


def write_csv(path, header: list[str], blocks, block_rows=None) -> None:
    """Write an iterable of row blocks (2-D arrays, or sequences of rows, of
    floats with one column per header name, or callables that return one)
    as one CSV table; a table held whole is passed as ``[table]``. Each row
    is ``"%.17g"`` per cell, the 17-significant-digit formatting of
    :func:`format_float`, so integral values print as ints do. The bytes are
    those of ``np.savetxt(fmt="%.17g", delimiter=",", header=...,
    comments="")`` on the stacked blocks.

    ``block_rows``, the row count of each block when known in advance, lets
    a table of at least FORK_MIN_CELLS cells be formatted across the usable
    CPUs. The blocks are split into contiguous runs of whole blocks, one per
    CPU. Each run is drawn from ``blocks`` in this process just before the
    worker that formats it is forked; a callable block is called in the
    worker. The workers' text is then copied into the file in row order,
    COPY_BYTES at a time. Smaller tables, tables without ``block_rows`` and
    a single usable CPU are formatted in-process, one block at a time."""
    ncol = len(header)
    row = ",".join(["%.17g"] * ncol) + "\n"
    runs = _runs(block_rows, ncol)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if not runs:
            for line in _lines(row, ncol, blocks):
                fh.write(line.encode())
            return
        blocks = iter(blocks)
        with Workers() as workers:
            for lo, hi, count in runs:
                # A run's blocks are drawn here, before its worker is forked,
                # so a block that needs BLAS (the x0 + V Y of solutions.csv)
                # is computed here. Workers computing their own blocks wrote
                # the N = 3600 solutions.csv in 0.33-0.40 s, against 0.27 s
                # in one process and 0.19-0.21 s this way (2 CPUs): the
                # OpenBLAS threads of every process spin for the cores.
                workers.fork(f"CSV worker for rows {lo}..{hi - 1}", _text, row, ncol,
                             list(islice(blocks, count)))
            for pipe in workers.pipes():
                while data := pipe.read(COPY_BYTES):
                    fh.write(data)
