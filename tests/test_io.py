import numpy as np
import pytest

from lowrank import io as mio
from lowrank.linalg import ObservedSet


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def test_dense_csv_roundtrip_bit_identical(tmp_path):
    g = rng(1)
    W = g.standard_normal((7, 5)) * np.exp(g.uniform(-30, 30, size=(7, 5)))
    path = tmp_path / "w.csv"
    mio.write_dense_csv(path, W)
    back = mio.read_dense_csv(path)
    assert np.array_equal(back, W)


def test_dense_csv_single_row(tmp_path):
    path = tmp_path / "row.csv"
    mio.write_dense_csv(path, np.array([[1.5, -2.0, 3.25]]))
    back = mio.read_dense_csv(path)
    assert back.shape == (1, 3)


def _write_array_mm(path, W):
    # column-major body, as the format requires
    path.write_text("%%MatrixMarket matrix array real general\n"
                    f"{W.shape[0]} {W.shape[1]}\n"
                    + "".join(f"{v!r}\n" for v in W.T.ravel().tolist()))


def test_dense_mm_roundtrip(tmp_path):
    g = rng(2)
    W = g.standard_normal((4, 6))
    W[1, 2] = -0.0
    path = tmp_path / "w.mtx"
    _write_array_mm(path, W)
    back = mio.read_mm(path)
    assert np.array_equal(back, W)
    # the sign of -0.0 survives, which scipy.io.mmread drops
    assert np.signbit(back[1, 2])


def test_dense_mm_is_column_major_on_disk(tmp_path):
    path = tmp_path / "w.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n% a comment\n"
                    "2 2\n1.0\n2.0\n3.0\n4.0\n")
    assert np.array_equal(mio.read_mm(path), np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_coordinate_roundtrip_keeps_explicit_zeros(tmp_path):
    om = ObservedSet(4, 5, [0, 2, 3], [1, 3, 0])
    vals = np.array([1.25, 0.0, -7.5])
    path = tmp_path / "om.mtx"
    mio.write_coordinate_mm(path, om, vals)
    om2, vals2 = mio.read_observed(path)
    assert om2.rows == 4 and om2.cols == 5
    assert np.array_equal(om2.row_idx, om.row_idx)
    assert np.array_equal(om2.col_idx, om.col_idx)
    assert np.array_equal(vals2, vals)


def test_coordinate_indices_are_one_based_on_disk(tmp_path):
    om = ObservedSet(3, 3, [0], [0])
    path = tmp_path / "om.mtx"
    mio.write_coordinate_mm(path, om, np.array([2.0]))
    lines = path.read_text().splitlines()
    assert lines[2].split()[:2] == ["1", "1"]


def test_read_coordinate_sorts_entries(tmp_path):
    path = tmp_path / "scrambled.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n"
        "3 1 9.0\n"
        "1 2 4.0\n"
        "2 2 5.0\n"
    )
    om, vals = mio.read_observed(path)
    assert list(om.row_idx * om.cols + om.col_idx) == [1, 4, 6]
    assert list(vals) == [4.0, 5.0, 9.0]


def test_read_observed_rejects_array_files(tmp_path):
    path = tmp_path / "w.mtx"
    _write_array_mm(path, np.eye(2))
    with pytest.raises(ValueError):
        mio.read_observed(path)


def test_read_mm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("hello\n1 1\n0\n")
    with pytest.raises(ValueError):
        mio.read_mm(path)


@pytest.mark.parametrize("body", [
    "coordinate real symmetric\n2 2 2\n1 1 4.0\n2 1 5.0\n",
    "coordinate real skew-symmetric\n2 2 1\n2 1 5.0\n",
    "array real symmetric\n2 2\n4.0\n5.0\n6.0\n",
], ids=["coordinate-symmetric", "coordinate-skew", "array-symmetric"])
def test_read_mm_rejects_non_general_symmetry(tmp_path, body):
    # a symmetric file stores one triangle; reading it as general would drop
    # the mirrored entries without an error
    path = tmp_path / "sym.mtx"
    path.write_text("%%MatrixMarket matrix " + body)
    with pytest.raises(ValueError, match="only general"):
        mio.read_mm(path)


def test_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1.0,nan\n2.0,3.0\n")
    with pytest.raises(ValueError):
        mio.read_dense_csv(path)
