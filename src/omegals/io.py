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

from .workers import Workers, pins_blas_threads, usable_cpus

# %.17e gives 18 significant digits: enough to round-trip any float64.
MM_PRECISION = 17

# Fewest cells of a table that write_csv splits between this process and
# forked workers: about 20 ms of formatting. With 2 CPUs and a 60 MB caller,
# the split ties with one process at 2^16 cells and is 8-18 % faster at
# 2^17 and about 23 % at 2^18; a worker's fork, first chunks and pipe cost
# about 10 ms.
FORK_MIN_CELLS = 2**17

# Largest read of a worker's pipe that write_csv copies into the file.
COPY_BYTES = 2**20

# Cells that write_csv formats at once. A chunk's temporaries, a few dozen
# arrays of up to _FIELD_BYTES per cell, stay near 2 MB.
CSV_CHUNK_CELLS = 2**12

# Fewest cells of a chunk that go through the vectorized kernel. Its fixed
# cost is about 0.1 ms a chunk; format_float's is about 0.7 us a cell, and
# the two break even near 128 cells.
KERNEL_MIN_CELLS = 2**7


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


# The vectorized "%.17g" kernel of write_csv. A finite x with
# 10^e <= |x| < 10^(e+1) prints the 17 digits of the integer
# N = round-half-even(|x| * 10^(16 - e)) < 10^17, in the layout of %g:
# fixed point for -4 <= e < 17, else d.dddde-XX, trailing zeros cut. The kernel
# forms |x| * 10^k, k = 16 - e, as an exact sum hi + lo of two doubles
# (Dekker's two-product), so N = hi + rint(lo) needs no bignum. Every cell
# it does not decide exactly goes to format_float.

# Largest k the kernel decides; 10^k is exact in float64 up to 10^22, and
# beyond that it is the double-double 10^k ~ _POW10 + _POW10_TAIL.
_KMAX = 40
_POW10 = np.array([float(10**k) for k in range(_KMAX + 1)])
_POW10_TAIL = np.array([float(10**k - int(float(10**k))) for k in range(_KMAX + 1)])


def _split(v):
    """Dekker's split of float64 ``v`` into hi + lo == v, each of at most 26
    significant bits, so that their products are exact."""
    t = v * 134217729.0  # 2^27 + 1
    hi = t - (t - v)
    return hi, v - hi


_POW10_HI, _POW10_LO = _split(_POW10)
# Where 10^k is a double-double, |x| * 10^k is known to about 1e-14 only:
# a scaled value within this margin of a tie or of 10^16 is left undecided.
_MARGIN = (np.arange(_KMAX + 1) > 22) * 1e-9

# The ASCII digits of 0..9999, four to a little-endian word, and the
# trailing zeros of each: a word less "0000" is below 2^24 if its last digit
# is 0, below 2^16 if its last two are, and so on.
_DIGIT = np.arange(10, dtype=np.uint32)
_DIGITS4 = (0x30303030 + _DIGIT[:, None, None, None] + (_DIGIT[:, None, None] << 8)
            + (_DIGIT[:, None] << 16) + (_DIGIT << 24)).reshape(-1)
_TRAILING4 = sum((_DIGITS4 ^ 0x30303030) < 1 << s for s in (0, 8, 16, 24))

# A cell is laid out in a field of _FIELD_BYTES bytes: "0000", "000" and the
# 17 digits of N (the first at column _LEAD), then "0" padding. The decimal
# point goes in at column p, moving the digits from p on one column right:
# row p of _BEFORE/_AFTER keeps the columns before/after p and of _POINT
# holds the point. Row s * _FIELD_BYTES + t of _SPAN marks columns s..t.
_FIELD_BYTES = 32
_LEAD = 7
_COLS = np.arange(_FIELD_BYTES)
_ROWS = np.arange(_FIELD_BYTES)[:, None]
_BEFORE = np.where(_COLS < _ROWS, 0xFF, 0).astype(np.uint8).view(np.uint64)
_AFTER = np.where(_COLS > _ROWS, 0xFF, 0).astype(np.uint8).view(np.uint64)
_POINT = np.where(_COLS == _ROWS, ord("."), 0).astype(np.uint8).view(np.uint64)
_SPAN = ((_COLS >= _ROWS[:, :, None]) & (_COLS <= _ROWS[None])).view(np.uint64)
_SPAN = _SPAN.reshape(_FIELD_BYTES**2, -1)
# "e-24" .. "e-05", the exponents of the scientific layouts the kernel decides.
_EXPONENTS = np.array([list(f"e{e:03d}".encode()) for e in range(16 - _KMAX, -4)], np.uint8)


def _decimal(x: np.ndarray):
    """(decided, n, e) per cell of ``x``: where ``decided``, the 17 digits of
    ``x`` to "%.17g" are those of ``n``, 10^16 <= n < 10^17, and its
    decimal exponent is ``e``. Zeros, non-finite values and |x| outside
    about [1e-24, 1e17) are left undecided, as is a cell whose exponent
    the float log10 misjudged or, where 10^k is inexact, whose scaled value
    lies within _MARGIN of a tie or of 10^16."""
    a = np.abs(x)
    with np.errstate(all="ignore"):  # undecided cells compute garbage
        k = 16.0 - np.floor(np.log10(a))
        decided = (k >= 0) & (k <= _KMAX)
        k = np.where(decided, k, 0).astype(np.intp)
        hi = a * _POW10.take(k)
        a_hi, a_lo = _split(a)
        p_hi, p_lo = _POW10_HI.take(k), _POW10_LO.take(k)
        lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
        lo += a * _POW10_TAIL.take(k)
        # hi >= 2^53 is an even integer, so round-half-even of hi + lo is
        # hi + rint(lo), exact in int64
        lo_int = np.rint(lo)
        n = hi.astype(np.int64) + lo_int.astype(np.int64)
        margin = _MARGIN.take(k)
        # log10 can misjudge e next to a power of ten: 1e-7 is
        # 9.9999999999999995e-08, but log10 gives -7 and hi + lo < 10^16
        decided &= ((hi - 1e16) + lo >= margin) & (n < 10**17)
        decided &= np.abs(np.abs(lo - lo_int) - 0.5) >= margin
    n[~decided] = 10**16
    return decided, n, 16 - k


def _kernel_fields(x: np.ndarray):
    """The fields of ``x`` (flat, _FIELD_BYTES bytes per cell), the column
    where each cell's text starts and the one after it ends, and which cells
    were decided; the fields of undecided cells hold no text."""
    m = x.size
    decided, n, e = _decimal(x)
    top = n // 10**16
    rest = n - top * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    groups = [top, high // 10**4, high % 10**4, low // 10**4, low % 10**4]
    # one word before the first field, read as the column before column 0
    words = np.empty(m * _FIELD_BYTES // 4 + 1, np.uint32)
    fields = words[1:].reshape(m, -1)
    fields[:, [0, 6, 7]] = _DIGITS4[0]
    for col, group in enumerate(groups, 1):
        fields[:, col] = _DIGITS4.take(group)
    last = 16 - (_TRAILING4.take(groups[4]) + (groups[4] == 0) * (
        _TRAILING4.take(groups[3]) + (groups[3] == 0) * (
            _TRAILING4.take(groups[2]) + (groups[2] == 0) * _TRAILING4.take(groups[1]))))
    scientific = e < -4
    fixed_e = np.where(scientific, 0, e)  # the point follows digit fixed_e of N (a 0 if < 0)
    point = fixed_e + _LEAD + 1
    text = words.view(np.uint8)
    out = (text[4:] & _BEFORE.take(point, axis=0).view(np.uint8).reshape(-1)
           | text[3:-1] & _AFTER.take(point, axis=0).view(np.uint8).reshape(-1)
           | _POINT.take(point, axis=0).view(np.uint8).reshape(-1))
    # cut trailing zeros of the fraction, and the point if nothing follows
    end = np.where(last > fixed_e, last + _LEAD + 2, point)
    negative = np.signbit(x)
    start = _LEAD + np.minimum(fixed_e, 0) - negative
    rows = np.arange(0, m * _FIELD_BYTES, _FIELD_BYTES)
    sci = np.flatnonzero(scientific & decided)
    for col, chars in enumerate(_EXPONENTS.take(e[sci] - (16 - _KMAX), axis=0).T):
        out[rows[sci] + end[sci] + col] = chars
    end[sci] += 4
    signed = np.flatnonzero(negative & decided)
    out[rows[signed] + start[signed]] = ord("-")
    return out, start, end, decided


def _csv_chunk(x: np.ndarray, ncol: int, first: int) -> bytes:
    """CSV text of the cells ``x`` (flat, row-major, of a table with ``ncol``
    columns), the first of which is cell ``first`` of its rows."""
    m = x.size
    if m >= KERNEL_MIN_CELLS:
        out, start, end, decided = _kernel_fields(x)
    else:
        out = np.empty(m * _FIELD_BYTES, np.uint8)
        start, end, decided = np.zeros(m, np.intp), np.zeros(m, np.intp), np.zeros(m, bool)
    undecided = np.flatnonzero(~decided)
    if undecided.size:
        texts = list(map(format_float, x[undecided].tolist()))
        padded = "".join(t.ljust(_FIELD_BYTES) for t in texts).encode()
        out.reshape(m, -1)[undecided] = np.frombuffer(padded, np.uint8).reshape(-1, _FIELD_BYTES)
        start[undecided] = 0
        end[undecided] = list(map(len, texts))
    sep = np.arange(0, m * _FIELD_BYTES, _FIELD_BYTES) + end
    out[sep] = ord(",")
    out[sep[(ncol - 1 - first) % ncol::ncol]] = ord("\n")
    return out[_SPAN.take(start * _FIELD_BYTES + end, axis=0).view(bool).reshape(-1)].tobytes()


def _csv_chunks(ncol: int, blocks):
    """The CSV text of ``blocks``, CSV_CHUNK_CELLS cells at a time."""
    for block in blocks:
        block = block() if callable(block) else block
        cells = np.asarray(block, dtype=float).reshape(-1, ncol).reshape(-1)
        for first in range(0, cells.size, CSV_CHUNK_CELLS):
            yield _csv_chunk(cells[first:first + CSV_CHUNK_CELLS], ncol, first)


def _text(ncol: int, blocks) -> bytes:
    """The CSV text of ``blocks`` in one piece: a CSV worker's work."""
    return b"".join(_csv_chunks(ncol, blocks))


def _runs(block_rows, ncol: int) -> list[tuple[int, int, int]]:
    """(first row, stop row, block count) of contiguous runs of whole
    blocks, one per usable CPU; empty where the table stays in-process."""
    if (block_rows is None or sum(block_rows) * ncol < FORK_MIN_CELLS
            or not pins_blas_threads()):
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

    Each block is formatted CSV_CHUNK_CELLS cells at a time by one NumPy
    kernel that writes the bytes of ``"%.17g"`` for every finite cell of
    magnitude about 1e-24 to 1e17 (see :func:`_decimal`); the kernel sends
    each cell it does not decide exactly, and every cell of a chunk smaller
    than KERNEL_MIN_CELLS, through :func:`format_float`.

    ``block_rows``, the row count of each block when known in advance, lets
    a table of at least FORK_MIN_CELLS cells be formatted across the usable
    CPUs. The blocks are split into contiguous runs of whole blocks, one per
    CPU: this process formats the first run into the file, and a forked
    worker formats each other run, every process on one BLAS thread (see
    :class:`~omegals.workers.Workers`). A callable block is called where
    it is formatted, so a process holds one block at a time. The workers'
    text is then copied into the file in row order, COPY_BYTES at a time.
    Smaller tables, tables without ``block_rows``, a single usable CPU and a
    NumPy whose BLAS threads cannot be pinned are formatted in-process."""
    ncol = len(header)
    runs = _runs(block_rows, ncol)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if not runs:
            for text in _csv_chunks(ncol, blocks):
                fh.write(text)
            return
        blocks = iter(blocks)
        first = list(islice(blocks, runs[0][2]))
        with Workers() as workers:
            for lo, hi, count in runs[1:]:
                workers.fork(f"CSV worker for rows {lo}..{hi - 1}", _text, ncol,
                             list(islice(blocks, count)))
            for text in _csv_chunks(ncol, first):
                fh.write(text)
            for pipe in workers.pipes():
                while data := pipe.read(COPY_BYTES):
                    fh.write(data)
