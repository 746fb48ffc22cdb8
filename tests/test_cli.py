import os
import warnings

import pytest

from qkit.cli import (
    build_parser,
    main,
    parse_carrier,
    read_coefficients,
    _pixel_from_value,
    _seed_from,
)
from qkit.fuzzy import luk_partition, save_partition
from qkit.pgm import PgmImage, ramp_image, read_pgm, write_pgm
from qkit.quantale import ChainQuantale, FloatUnitQuantale, GODEL, LUKASIEWICZ


@pytest.fixture
def ramp55(tmp_path):
    path = tmp_path / "ramp.pgm"
    write_pgm(path, ramp_image(5, 5, 8))
    return path


def test_parse_carrier():
    assert parse_carrier("chain:6", GODEL) == ChainQuantale(6, GODEL)
    assert parse_carrier("float", LUKASIEWICZ) == FloatUnitQuantale(LUKASIEWICZ)
    with pytest.raises(ValueError):
        parse_carrier("ring:4", LUKASIEWICZ)
    with pytest.raises(ValueError):
        parse_carrier("chain:4", "product")


def test_compress_frozen_matrix(ramp55, tmp_path):
    out = tmp_path / "c.coef"
    assert main(["compress", str(ramp55), str(out), "--n", "3"]) == 0
    meta, carrier, matrix = read_coefficients(out)
    assert carrier == ChainQuantale(8, LUKASIEWICZ)
    assert meta["method"] == "luk" and meta["n"] == "3"
    # separable upper transform of the additive ramp: entry 2k + 2i
    assert matrix == ((0, 2, 4), (2, 4, 6), (4, 6, 8))


def test_compress_constants(tmp_path):
    black = tmp_path / "black.pgm"
    write_pgm(black, PgmImage(5, 5, 8, (0,) * 25))
    out = tmp_path / "black.coef"
    assert main(["compress", str(black), str(out), "--n", "3"]) == 0
    _, _, matrix = read_coefficients(out)
    assert all(v == 0 for row in matrix for v in row)

    white = tmp_path / "white.pgm"
    write_pgm(white, PgmImage(5, 5, 8, (8,) * 25))
    wout = tmp_path / "white.coef"
    assert main(["compress", str(white), str(wout), "--n", "3"]) == 0
    _, carrier, matrix = read_coefficients(wout)
    assert all(v == carrier.unit for row in matrix for v in row)


def test_reconstruct_dominates_and_recompresses(ramp55, tmp_path):
    coef = tmp_path / "c.coef"
    recon = tmp_path / "r.pgm"
    coef2 = tmp_path / "c2.coef"
    assert main(["compress", str(ramp55), str(coef), "--n", "3"]) == 0
    assert main(["reconstruct", str(coef), str(recon)]) == 0
    original = read_pgm(ramp55)
    rebuilt = read_pgm(recon)
    assert all(b >= a for a, b in zip(original.pixels, rebuilt.pixels))
    assert main(["compress", str(recon), str(coef2), "--n", "3"]) == 0
    assert coef.read_text() == coef2.read_text()


def test_rectangle_recompression_exact_when_on_grid(tmp_path):
    src = tmp_path / "rect.pgm"
    write_pgm(src, ramp_image(33, 17, 64))
    coef, recon, coef2 = tmp_path / "a.coef", tmp_path / "r.pgm", tmp_path / "b.coef"
    assert main(["compress", str(src), str(coef), "--n", "5"]) == 0
    assert main(["reconstruct", str(coef), str(recon)]) == 0
    original, rebuilt = read_pgm(src), read_pgm(recon)
    assert all(b >= a for a, b in zip(original.pixels, rebuilt.pixels))
    assert main(["compress", str(recon), str(coef2), "--n", "5"]) == 0
    # 32 and 16 both divide 64*4, so no level falls between pixels
    assert coef.read_text() == coef2.read_text()


def test_off_grid_reconstruction_warns_but_dominates(tmp_path, capsys):
    src = tmp_path / "rect.pgm"
    write_pgm(src, ramp_image(33, 17, 60))
    coef, recon = tmp_path / "a.coef", tmp_path / "r.pgm"
    assert main(["compress", str(src), str(coef), "--n", "5"]) == 0
    assert main(["reconstruct", str(coef), str(recon)]) == 0
    assert "quantized" in capsys.readouterr().err
    original, rebuilt = read_pgm(src), read_pgm(recon)
    assert all(b >= a for a, b in zip(original.pixels, rebuilt.pixels))


def test_reconstruct_all_bottom_coefficients(tmp_path):
    coef = tmp_path / "z.coef"
    coef.write_text(
        "qkit-coefficients v1\nmethod=luk\ncarrier=chain\ntnorm=lukasiewicz\n"
        "denominator=8\nn=3\nwidth=5\nheight=5\nmaxval=8\nrows=3\ncols=3\n"
        "0 0 0\n0 0 0\n0 0 0\n"
    )
    out = tmp_path / "z.pgm"
    assert main(["reconstruct", str(coef), str(out)]) == 0
    # meet-form inverse: off-node positions land at 8 - max_k A_kj, not at bottom
    odd, even = (4, 8, 4, 8, 4), (0, 4, 0, 4, 0)
    assert read_pgm(out).pixels == even + odd + even + odd + even
    # but it still recompresses to the all-bottom matrix
    coef2 = tmp_path / "z2.coef"
    assert main(["compress", str(out), str(coef2), "--n", "3"]) == 0
    _, _, matrix = read_coefficients(coef2)
    assert matrix == ((0, 0, 0),) * 3


def test_partition_file_method_matches_luk(ramp55, tmp_path):
    part_path = tmp_path / "part.txt"
    save_partition(part_path, luk_partition(3, 5, ChainQuantale(8, LUKASIEWICZ)))
    pout = tmp_path / "p.coef"
    lout = tmp_path / "l.coef"
    assert (
        main(
            [
                "compress",
                str(ramp55),
                str(pout),
                "--method",
                "partition-file",
                "--partition",
                str(part_path),
            ]
        )
        == 0
    )
    assert main(["compress", str(ramp55), str(lout), "--n", "3"]) == 0
    _, _, pmatrix = read_coefficients(pout)
    _, _, lmatrix = read_coefficients(lout)
    assert pmatrix == lmatrix

    recon = tmp_path / "p.pgm"
    assert (
        main(["reconstruct", str(pout), str(recon), "--partition", str(part_path)])
        == 0
    )
    original = read_pgm(ramp55)
    assert all(b >= a for a, b in zip(original.pixels, read_pgm(recon).pixels))


def test_partition_method_errors(ramp55, tmp_path):
    out = tmp_path / "x.coef"
    assert (
        main(["compress", str(ramp55), str(out), "--method", "partition-file"]) == 2
    )
    part_path = tmp_path / "short.txt"
    save_partition(part_path, luk_partition(2, 3, ChainQuantale(8, LUKASIEWICZ)))
    assert (
        main(
            [
                "compress",
                str(ramp55),
                str(out),
                "--method",
                "partition-file",
                "--partition",
                str(part_path),
            ]
        )
        == 2
    )


def test_float_carrier_roundtrip(ramp55, tmp_path):
    coef = tmp_path / "f.coef"
    out = tmp_path / "f.pgm"
    assert (
        main(["compress", str(ramp55), str(coef), "--n", "3", "--carrier", "float"])
        == 0
    )
    meta, carrier, matrix = read_coefficients(coef)
    assert isinstance(carrier, FloatUnitQuantale)
    assert main(["reconstruct", str(coef), str(out)]) == 0
    original = read_pgm(ramp55)
    rebuilt = read_pgm(out)
    assert all(b >= a for a, b in zip(original.pixels, rebuilt.pixels))


def test_compress_rejects_bad_inputs(ramp55, tmp_path):
    out = tmp_path / "o.coef"
    assert main(["compress", str(ramp55), str(out), "--n", "1"]) == 2
    assert main(["compress", str(tmp_path / "none.pgm"), str(out), "--n", "3"]) == 2
    # chain denominator must cover both pixels and basis nodes
    assert (
        main(["compress", str(ramp55), str(out), "--n", "3", "--carrier", "chain:6"])
        == 2
    )


def test_corrupt_coefficients_rejected(tmp_path):
    bad = tmp_path / "bad.coef"
    bad.write_text("hello\n")
    assert main(["reconstruct", str(bad), str(tmp_path / "x.pgm")]) == 2
    missing = tmp_path / "missing.coef"
    missing.write_text("qkit-coefficients v1\nmethod=luk\n0 0\n")
    assert main(["reconstruct", str(missing), str(tmp_path / "x.pgm")]) == 2


def test_coefficient_header_checked_before_kernels(tmp_path, capsys):
    base = dict(
        method="luk", carrier="chain", tnorm="lukasiewicz", denominator=8,
        n=3, width=5, height=5, maxval=8, rows=3, cols=3,
    )
    bad = tmp_path / "bad.coef"
    for change in (
        dict(n=4),  # the matrix is 3x3
        dict(n=6, rows=6, cols=6),  # more components than nodes
        dict(n=1, rows=1, cols=1),  # the triangular basis needs two
        dict(method="partition-file", n=0, rows=0, cols=0),
        dict(method="wavelet"),
    ):
        meta = {**base, **change}
        head = "".join(f"{k}={v}\n" for k, v in meta.items())
        body = "0 " * meta["cols"] + "\n"
        bad.write_text("qkit-coefficients v1\n" + head + body * meta["rows"])
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["reconstruct", str(bad), str(tmp_path / "x.pgm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (change, err)


def test_misaligned_grid_warns_on_one_line(tmp_path, capsys):
    src = tmp_path / "ramp.pgm"
    write_pgm(src, ramp_image(9, 9, 8))
    coef, back = tmp_path / "m.coef", tmp_path / "m.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compress", str(src), str(coef), "--n", "4"]) == 0
        err = capsys.readouterr().err
        assert main(["reconstruct", str(coef), str(back)]) == 0
    assert err == (
        "warning: grid of 9 nodes misses the peaks of 4 components; "
        "rounding to nearest nodes, reconstruction will not be exact\n"
    )
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == err.strip()
    assert all(ln.startswith("warning: ") for ln in lines)


def test_morph_default_carrier_covers_element_weights(tmp_path):
    img = PgmImage(5, 4, 255, tuple(range(0, 255, 13)))
    ipath = tmp_path / "i.pgm"
    write_pgm(ipath, img)
    se = tmp_path / "se.txt"
    se.write_text("3 3 1 1\n1/2 1/2 1/2\n1/2 1 1/2\n1/2 1/2 1/2\n")
    default, explicit = tmp_path / "d.pgm", tmp_path / "e.pgm"
    assert main(["morph", "open", str(ipath), str(se), str(default)]) == 0
    assert (
        main(["morph", "open", str(ipath), str(se), str(explicit), "--carrier", "chain:510"])
        == 0
    )
    assert default.read_bytes() == explicit.read_bytes()


def test_morph_identity_and_bounds(tmp_path, capsys):
    img = PgmImage(4, 3, 4, (0, 1, 2, 3, 4, 3, 2, 1, 0, 0, 4, 4))
    ipath = tmp_path / "i.pgm"
    write_pgm(ipath, img)
    se = tmp_path / "se.txt"
    se.write_text("1 1 0 0\n1\n")
    out = tmp_path / "o.pgm"
    for op in ("dilate", "erode", "open", "close"):
        assert main(["morph", op, str(ipath), str(se), str(out)]) == 0
        assert read_pgm(out).pixels == img.pixels

    wide = tmp_path / "wide.txt"
    wide.write_text("2 1 0 0\n1 1/2\n")
    opened = tmp_path / "opened.pgm"
    closed = tmp_path / "closed.pgm"
    assert (
        main(
            ["morph", "open", str(ipath), str(wide), str(opened), "--check-adjunction"]
        )
        == 0
    )
    assert "adjunction: pass" in capsys.readouterr().out
    assert main(["morph", "close", str(ipath), str(wide), str(closed)]) == 0
    low = read_pgm(opened).pixels
    high = read_pgm(closed).pixels
    assert all(a <= b <= c for a, b, c in zip(low, img.pixels, high))


def test_check_adjunction_reuses_the_result(tmp_path, monkeypatch, capsys):
    import qkit.cli as cli

    calls = {"open": 0, "close": 0}

    def counted(name, op):
        def wrapper(image, se):
            calls[name] += 1
            return op(image, se)

        return wrapper

    monkeypatch.setattr(cli, "opening_grey", counted("open", cli.opening_grey))
    monkeypatch.setattr(cli, "closing_grey", counted("close", cli.closing_grey))
    ipath, se, out = tmp_path / "i.pgm", tmp_path / "se.txt", tmp_path / "o.pgm"
    write_pgm(ipath, PgmImage(4, 3, 4, (0, 1, 2, 3, 4, 3, 2, 1, 0, 0, 4, 4)))
    se.write_text("2 1 0 0\n1 1/2\n")
    for op in ("open", "close", "dilate"):
        calls.update(open=0, close=0)
        args = ["morph", op, str(ipath), str(se), str(out), "--check-adjunction"]
        assert main(args) == 0
        assert calls == {"open": 1, "close": 1}
    assert capsys.readouterr().out.count("adjunction: pass") == 3


def test_morph_binary_matches_set_form(tmp_path):
    from qkit.morphology import Grid, dilate_binary

    img = PgmImage(5, 1, 4, (0, 4, 4, 0, 0))
    ipath = tmp_path / "b.pgm"
    write_pgm(ipath, img)
    se = tmp_path / "se.txt"
    se.write_text("2 1 0 0\n1 1\n")
    out = tmp_path / "bo.pgm"
    assert main(["morph", "dilate", str(ipath), str(se), str(out)]) == 0
    got = read_pgm(out).pixels
    cells = dilate_binary(
        Grid(5, 1), {(1, 0), (2, 0)}, ((0, 0), (1, 0))
    )
    expect = tuple(4 if (x, 0) in cells else 0 for x in range(5))
    assert got == expect


def test_metrics_output(tmp_path, capsys):
    a = tmp_path / "a.pgm"
    write_pgm(a, PgmImage(2, 2, 255, (0, 10, 20, 30)))
    assert main(["metrics", str(a), str(a)]) == 0
    out = capsys.readouterr().out
    assert "psnr=inf" in out and "max_abs=0" in out

    b = tmp_path / "b.pgm"
    write_pgm(b, PgmImage(1, 1, 255, (0,)))
    c = tmp_path / "c.pgm"
    write_pgm(c, PgmImage(1, 1, 255, (255,)))
    assert main(["metrics", str(b), str(c)]) == 0
    out = capsys.readouterr().out
    assert "max_abs=255" in out and "psnr=0.0000" in out

    d = tmp_path / "d.pgm"
    write_pgm(d, PgmImage(2, 1, 255, (0, 0)))
    assert main(["metrics", str(a), str(d)]) == 2


def test_metrics_match_recomputation(ramp55, tmp_path, capsys):
    coef = tmp_path / "c.coef"
    recon = tmp_path / "r.pgm"
    main(["compress", str(ramp55), str(coef), "--n", "3"])
    main(["reconstruct", str(coef), str(recon)])
    assert main(["metrics", str(ramp55), str(recon)]) == 0
    out = dict(
        line.split("=") for line in capsys.readouterr().out.strip().splitlines()
    )
    a, b = read_pgm(ramp55).pixels, read_pgm(recon).pixels
    diffs = [abs(x - y) for x, y in zip(a, b)]
    assert int(out["max_abs"]) == max(diffs)
    assert abs(float(out["mean_abs"]) - sum(diffs) / len(diffs)) < 1e-6


def test_laws_exit_codes(capsys, monkeypatch):
    assert main(["laws", "quantale", "--carrier", "chain:3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "1/1 law families clean" in out

    from qkit.quantale import LawReport

    def fake(names, carrier=None, rng=None):
        bad = LawReport("fake.family", checked=1)
        bad.record("fake.law", ("w",))
        return [bad]

    monkeypatch.setattr("qkit.cli.run_suites", fake)
    assert main(["laws"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "0/1 law families clean" in out


def test_seed_sources(monkeypatch):
    args = build_parser().parse_args(["laws", "--seed", "3"])
    assert _seed_from(args) == 3
    args = build_parser().parse_args(["laws"])
    monkeypatch.setenv("QKIT_SEED", "7")
    assert _seed_from(args) == 7
    monkeypatch.delenv("QKIT_SEED")
    assert _seed_from(args) == 0


def test_pixel_rounding_halves_up():
    q = ChainQuantale(8, LUKASIEWICZ)
    assert _pixel_from_value(q, 8, 4) == 4
    assert _pixel_from_value(q, 3, 4) == 2  # 1.5 rounds up
    assert _pixel_from_value(q, 1, 4) == 1  # 0.5 rounds up
    f = FloatUnitQuantale(LUKASIEWICZ)
    assert _pixel_from_value(f, 1.0, 255) == 255
    assert _pixel_from_value(f, 0.5, 4) == 2
