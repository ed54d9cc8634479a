import numpy as np
import pytest

from cmc.errors import DegenerateInput
from cmc.pgm import (
    MAXVAL,
    read_labels,
    read_pgm,
    read_probability,
    write_labels,
    write_pgm,
    write_probability,
)


def test_roundtrip_uint16(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, MAXVAL + 1, size=(7, 5)).astype(np.uint16)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.dtype == np.uint16
    assert back.shape == (7, 5)
    assert np.array_equal(back, img)


def test_header_layout(tmp_path):
    path = tmp_path / "one.pgm"
    write_pgm(path, np.array([[0, MAXVAL]]))
    data = path.read_bytes()
    assert data.startswith(b"P5\n2 1\n65535\n")
    assert len(data) == len(b"P5\n2 1\n65535\n") + 4  # two big-endian u16


def test_big_endian_raster(tmp_path):
    path = tmp_path / "be.pgm"
    write_pgm(path, np.array([[258]]))  # 0x0102
    assert path.read_bytes().endswith(b"\x01\x02")


def test_comments_in_header(tmp_path):
    path = tmp_path / "c.pgm"
    raster = np.array([[3, 4], [5, 6]], dtype=">u2").tobytes()
    path.write_bytes(b"P5 # comment\n# another\n2 2 # size\n65535\n" + raster)
    assert np.array_equal(read_pgm(path), [[3, 4], [5, 6]])


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n1 1\n65535\n0")
    with pytest.raises(DegenerateInput):
        read_pgm(path)


def test_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(DegenerateInput):
        read_pgm(path)


def test_rejects_truncated_raster(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n\x00\x00")
    with pytest.raises(DegenerateInput):
        read_pgm(path)


@pytest.mark.parametrize("size", [b"abc 2", b"-1 -1"])
def test_rejects_non_numeric_header(size, tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n" + size + b"\n65535\n\x00\x00")
    with pytest.raises(DegenerateInput):
        read_pgm(path)


def test_write_rejects_bad_values(tmp_path):
    with pytest.raises(DegenerateInput):
        write_pgm(tmp_path / "x.pgm", np.array([[-1]]))
    with pytest.raises(DegenerateInput):
        write_pgm(tmp_path / "x.pgm", np.array([[MAXVAL + 1]]))
    with pytest.raises(DegenerateInput):
        write_pgm(tmp_path / "x.pgm", np.array([[1.0, np.nan]]))
    with pytest.raises(DegenerateInput):
        write_pgm(tmp_path / "x.pgm", np.zeros(4))


def test_probability_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.random((6, 6))
    path = tmp_path / "p.pgm"
    write_probability(path, values)
    back = read_probability(path)
    # quantized to 1/65535 steps
    assert np.max(np.abs(back - values)) <= 0.5 / MAXVAL + 1e-12
    assert back.min() >= 0.0 and back.max() <= 1.0


def test_probability_rejects_out_of_range(tmp_path):
    with pytest.raises(DegenerateInput):
        write_probability(tmp_path / "p.pgm", np.array([[1.5]]))
    with pytest.raises(DegenerateInput):
        write_probability(tmp_path / "p.pgm", np.array([[0.5, np.nan]]))
    assert not (tmp_path / "p.pgm").exists()


@pytest.mark.parametrize(
    "values",
    [np.full((2, 2), 0.5 + 0.25j), np.full((2, 2), "a"), [[0.5, 0.5], [0.5]]],
    ids=["complex", "string", "ragged"],
)
def test_probability_rejects_values_that_are_not_real(values, tmp_path):
    # a complex map was written as its real part, with only a ComplexWarning
    with pytest.raises(DegenerateInput, match="probability map"):
        write_probability(tmp_path / "p.pgm", values)
    assert not (tmp_path / "p.pgm").exists()


def test_labels_roundtrip(tmp_path):
    labels = np.array([[0, 1], [2, 40000]])
    path = tmp_path / "l.pgm"
    write_labels(path, labels)
    back = read_labels(path)
    assert back.dtype == np.int64
    assert np.array_equal(back, labels)
