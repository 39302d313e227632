"""Matrix file formats.

Dense matrices travel as headerless CSV (one row per line, ``.`` decimal
separator); Matrix Market ``array`` files are read too. Observed-entry data
travels as Matrix Market ``coordinate`` files with 1-based indices on the
wire and 0-based indices in memory. Values are written with
``repr``-faithful precision so a write/read round trip is bit-identical.
"""

from __future__ import annotations

import numpy as np

from .linalg import ObservedSet, as_matrix

_FMT = "%.17g"


def write_dense_csv(path, W):
    np.savetxt(path, as_matrix(W), fmt=_FMT, delimiter=",")


def read_dense_csv(path):
    W = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    return as_matrix(W, name=str(path))


def write_coordinate_mm(path, omega, values):
    """Matrix Market coordinate file of ``values`` on ``omega`` (1-based on disk).

    Explicit zeros are kept: the entry list is the observed set, not a
    nonzero pattern.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (omega.size,):
        raise ValueError("values must align with the observed set")
    # indices pass through float64, exact below 2**53
    np.savetxt(path, np.column_stack([omega.row_idx + 1, omega.col_idx + 1, values]),
               fmt=("%d", "%d", _FMT), comments="",
               header="%%MatrixMarket matrix coordinate real general\n"
                      f"{omega.rows} {omega.cols} {omega.size}")


def _mm_header(line):
    """``(kind, field, symmetry)`` of a Matrix Market banner line."""
    parts = line.strip().lower().split()
    if len(parts) != 5 or parts[0] != "%%matrixmarket" or parts[1] != "matrix":
        raise ValueError("not a Matrix Market file")
    return parts[2:]


def read_mm(path):
    """Read a Matrix Market file.

    Returns a dense array for ``array`` files and ``(ObservedSet, values)``
    for ``coordinate`` files. Only ``general`` files are read: the body of a
    symmetric, skew-symmetric or Hermitian file stores one triangle, which
    this reader does not mirror. Unlike ``scipy.io.mmread``, it keeps the
    sign of -0.0 in array files.
    """
    with open(path) as fh:
        kind, field, symmetry = _mm_header(fh.readline())
        if field in ("complex", "pattern"):
            raise ValueError("only real-valued Matrix Market files are supported")
        if symmetry != "general":
            raise ValueError(f"only general Matrix Market files are supported, got {symmetry!r}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        dims = line.split()
        if kind == "array":
            m, n = int(dims[0]), int(dims[1])
            body = np.loadtxt(fh, dtype=np.float64, ndmin=1)
            if body.size != m * n:
                raise ValueError("array body has the wrong number of entries")
            return as_matrix(body.reshape((n, m)).T, name=str(path))
        if kind == "coordinate":
            m, n, nnz = int(dims[0]), int(dims[1]), int(dims[2])
            if nnz == 0:
                body = np.empty((0, 3))
            else:
                body = np.loadtxt(fh, dtype=np.float64, ndmin=2)
            if body.shape != (nnz, 3):
                raise ValueError("coordinate body has the wrong number of entries")
            rows = body[:, 0].astype(np.int64) - 1
            cols = body[:, 1].astype(np.int64) - 1
            vals = np.ascontiguousarray(body[:, 2])
            order = np.lexsort((cols, rows))
            omega = ObservedSet(m, n, rows[order], cols[order])
            return omega, vals[order]
        raise ValueError(f"unsupported Matrix Market kind {kind!r}")


def read_observed(path):
    """Read a coordinate file, insisting on coordinate format."""
    out = read_mm(path)
    if not isinstance(out, tuple):
        raise ValueError("expected a coordinate Matrix Market file")
    return out
