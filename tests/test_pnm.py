"""Binary PPM/PGM round-trips and malformed-input rejection."""

import numpy as np
import pytest

from mstrack.errors import FormatError
from mstrack.pnm import ppm_size, read_pgm, read_ppm, write_pgm, write_ppm


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    p = tmp_path / "a.ppm"
    write_ppm(p, img)
    assert np.array_equal(read_ppm(p), img)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, size=(6, 4), dtype=np.uint8)
    p = tmp_path / "a.pgm"
    write_pgm(p, img)
    assert np.array_equal(read_pgm(p), img)


def test_write_is_deterministic(tmp_path):
    img = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
    p1, p2 = tmp_path / "x1.ppm", tmp_path / "x2.ppm"
    write_ppm(p1, img)
    write_ppm(p2, img)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError, match=f"{p}: bad magic"):
        read_ppm(p)


def test_read_rejects_truncated_payload(tmp_path):
    p = tmp_path / "short.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(FormatError):
        read_ppm(p)


def test_read_rejects_bad_maxval(tmp_path):
    p = tmp_path / "hdr.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError):
        read_pgm(p)


def test_comment_headers_are_accepted(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    assert np.array_equal(read_pgm(p), np.array([[1, 2], [3, 4]], dtype=np.uint8))


@pytest.mark.parametrize(
    "header", [b"P6\n1_6 1_6\n255\n", b"P6\n+16 16\n255\n", b"P6\n16 16 2_55\n"]
)
def test_header_fields_must_be_plain_decimal(tmp_path, header):
    p = tmp_path / "u.ppm"
    p.write_bytes(header + bytes(16 * 16 * 3))
    with pytest.raises(FormatError, match="decimal"):
        read_ppm(p)


def test_header_size_beyond_the_file_is_rejected_before_reading(tmp_path):
    p = tmp_path / "big.ppm"
    p.write_bytes(b"P6\n99999999999 99999999999\n255\n")
    with pytest.raises(FormatError, match="truncated"):
        read_ppm(p)
    p.write_bytes(b"P5\n" + b"9" * 5000 + b" 2\n255\n")
    with pytest.raises(FormatError, match="decimal"):
        read_pgm(p)


def test_ppm_size_reads_the_header_and_checks_the_payload(tmp_path):
    p = tmp_path / "f.ppm"
    write_ppm(p, np.zeros((5, 7, 3), dtype=np.uint8))
    assert ppm_size(p) == (5, 7)
    p.write_bytes(p.read_bytes()[:-1])
    with pytest.raises(FormatError, match=f"P6 payload truncated in {p}"):
        ppm_size(p)
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError, match=f"{p}: bad magic"):
        ppm_size(p)
