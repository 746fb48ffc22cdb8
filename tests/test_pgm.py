import pytest

from qkit.pgm import PgmImage, ramp_image, read_pgm, write_pgm


def test_image_validation():
    with pytest.raises(ValueError):
        PgmImage(0, 3, 255, ())
    with pytest.raises(ValueError):
        PgmImage(1, 1, 256, (0,))
    with pytest.raises(ValueError):
        PgmImage(2, 1, 4, (0, 5))
    with pytest.raises(ValueError):
        PgmImage(2, 2, 4, (0, 1, 2))
    # the first offender is named, not the smallest or the largest
    with pytest.raises(ValueError, match=r"^pixel 7 outside 0\.\.4$"):
        PgmImage(4, 1, 4, (0, 7, -1, 9))
    img = PgmImage(2, 2, 4, (0, 1, 2, 3))
    assert img.at(1, 1) == 3
    assert img.rows() == ((0, 1), (2, 3))


def test_p2_roundtrip_byte_identical(tmp_path):
    img = PgmImage(3, 2, 9, (0, 3, 9, 1, 2, 4))
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(a, img)
    again = read_pgm(a)
    assert again == img
    write_pgm(b, again)
    assert a.read_bytes() == b.read_bytes()


def test_p5_roundtrip_value_identical(tmp_path):
    img = PgmImage(4, 3, 255, tuple(range(0, 240, 20)))
    path = tmp_path / "img.pgm"
    write_pgm(path, img, binary=True)
    assert read_pgm(path) == img


def test_reader_accepts_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_text("P2 # magic\n# a comment line\n 3 1\n# another\n5\n0 2 5\n")
    img = read_pgm(path)
    assert (img.width, img.height, img.maxval) == (3, 1, 5)
    assert img.pixels == (0, 2, 5)
    # any whitespace separates raster tokens, line breaks included
    path.write_bytes(b"P2\n3 2\n9\n0 3\r\n9\t1\x0b2\x0c\r4\n")
    assert read_pgm(path).pixels == (0, 3, 9, 1, 2, 4)


def test_reader_errors(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_text("P7\n1 1\n255\n0\n")
    with pytest.raises(ValueError, match="magic"):
        read_pgm(bad)
    trunc = tmp_path / "trunc.pgm"
    trunc.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ValueError, match="raster"):
        read_pgm(trunc)
    header_only = tmp_path / "h.pgm"
    header_only.write_text("P2\n2")
    with pytest.raises(ValueError, match="header"):
        read_pgm(header_only)
    # a token that is no integer is named, in the header and in the raster
    odd = tmp_path / "odd.pgm"
    for data, message in (
        (b"P2\n2 1\n9\n1 x\n", r"^raster token 'x' is not an integer$"),
        (b"P2\n2 1\n9\n1 2\n3 1.5\n", r"^raster token '1\.5' is not an integer$"),
        (b"P2\n2 1\n9\n1 \xff\n", r"^raster token '\\xff' is not an integer$"),
        (b"P2\n2 y\n9\n1 2\n", r"^header token 'y' is not an integer$"),
        (b"P5\n2 1\n2e2\n\x00\x01", r"^header token '2e2' is not an integer$"),
        (b"P2\n\xc3\xa9 1\n9\n1 2\n", r"^header token '\\xc3\\xa9' is not an integer$"),
    ):
        odd.write_bytes(data)
        with pytest.raises(ValueError, match=message):
            read_pgm(odd)


def test_ramp_shape():
    img = ramp_image(5, 5, 8)
    assert img.pixels[:5] == (0, 1, 2, 3, 4)
    assert img.at(4, 4) == 8
    assert img.at(0, 0) == 0
    wide = ramp_image(65, 65, 64)
    assert wide.at(64, 64) == 64
    assert wide.at(32, 32) == 32
