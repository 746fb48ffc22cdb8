import contextlib
import importlib.util
import io
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkit._int64 import _INT64_D_MAX, _int64_numpy
from qkit.cli import (
    build_parser,
    main,
    parse_carrier,
    read_coefficients,
    _level_table,
    _off_grid,
    _pixels_from_levels,
    _separable_direct,
    _separable_inverse,
)
from qkit.fuzzy import (
    FuzzyPartition,
    GridAlignmentWarning,
    luk_kernel,
    luk_partition,
    save_partition,
)
from qkit.pgm import PgmImage, ramp_image, read_pgm, write_pgm
from qkit.quantale import ChainQuantale, FloatUnitQuantale, GODEL, LUKASIEWICZ, PRODUCT


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
    with pytest.raises(ValueError, match=r"^chain denominator 'x' is not an integer$"):
        parse_carrier("chain:x", LUKASIEWICZ)


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


def test_partition_method_errors(ramp55, tmp_path, capsys):
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
    # a zero denominator and a huge exponent are refused at once, with
    # one error line
    capsys.readouterr()
    hostile = tmp_path / "hostile.txt"
    argv = ["compress", str(ramp55), str(out), "--method", "partition-file"]
    for token, message in (
        ("1/0", "zero denominator"),
        ("1.0e-999999999", "exponent past 400"),
        ("1.0e-99999999", "exponent past 400"),
        ("1e-999999999", "exponent past 400"),
    ):
        hostile.write_text(f"1 5\n{token} 1 1 1 1\n")
        start = time.perf_counter()
        assert main(argv + ["--partition", str(hostile)]) == 2
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
    # an exponent token reads the same with or without a decimal point
    for token in ("1e-05", "1.0e-05", "1E-05"):
        hostile.write_text(f"1 5\n{token} 1 1 1 1\n")
        assert main(argv + ["--partition", str(hostile)]) == 2
        err = capsys.readouterr().err
        assert err == "error: value 1/100000 is not a multiple of 1/8\n"


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


def test_corrupt_coefficients_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.coef"
    bad.write_text("hello\n")
    assert main(["reconstruct", str(bad), str(tmp_path / "x.pgm")]) == 2
    missing = tmp_path / "missing.coef"
    missing.write_text("qkit-coefficients v1\nmethod=luk\n0 0\n")
    assert main(["reconstruct", str(missing), str(tmp_path / "x.pgm")]) == 2
    # values are checked as levels before any int64 array holds them
    base = dict(
        method="luk", carrier="chain", tnorm="lukasiewicz", denominator=8,
        n=3, width=5, height=5, maxval=8, rows=3, cols=3,
    )

    def reconstruct_error(body, **change):
        head = "".join(f"{k}={v}\n" for k, v in {**base, **change}.items())
        bad.write_text("qkit-coefficients v1\n" + head + body)
        capsys.readouterr()
        assert main(["reconstruct", str(bad), str(tmp_path / "x.pgm")]) == 2
        return capsys.readouterr().err

    for body, offender in (
        ("0 0 0\n0 9 0\n0 0 0\n", 9),
        ("0 0 0\n0 -1 0\n0 0 0\n", -1),
        (f"0 0 0\n0 {10**30} 0\n0 0 0\n", 10**30),
        # column by column, as one vector per column reports it
        ("0 0 9\n0 0 0\n10 0 0\n", 10),
    ):
        assert reconstruct_error(body) == (
            f"error: {offender} is not an element of "
            "ChainQuantale(d=8, tnorm='lukasiewicz')\n"
        )
    # a token that does not parse is named, not passed on in Python's words
    for body, change, message in (
        ("0 0 0\n1 x\n0 0 0\n", {}, "value token 'x' is not an integer"),
        ("0 0 0\n0 0.5 0\n0 0 0\n", {}, "value token '0.5' is not an integer"),
        ("0 0 0\n0 x 0\n0 0 0\n", dict(carrier="float"), "value token 'x' is not a number"),
        ("0 0 0\n" * 3, dict(n="x"), "n value 'x' is not an integer"),
        ("0 0 0\n" * 3, dict(width="5.0"), "width value '5.0' is not an integer"),
        ("0 0 0\n" * 3, dict(maxval="y"), "maxval value 'y' is not an integer"),
        ("0 0 0\n" * 3, dict(denominator="2/3"), "denominator value '2/3' is not an integer"),
    ):
        assert reconstruct_error(body, **change) == f"error: {message}\n"
    # a maxval no PGM can have, on a chain near the int64 bound: the
    # rounding would overflow int64, so no stray off-grid warning comes
    # before the error
    d = _INT64_D_MAX
    assert reconstruct_error(
        f"{d} {d}\n{d} {d}\n",
        denominator=d, n=2, width=2, height=2, maxval=1000, rows=2, cols=2,
    ) == "error: maxval 1000 outside 1..255\n"


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


def test_seed_sources():
    args = build_parser().parse_args(["laws", "--seed", "3"])
    assert args.seed == 3
    args = build_parser().parse_args(["laws"])
    assert args.seed == 0


def test_options_are_given_only_where_they_act(ramp55, tmp_path, capsys):
    """reconstruct reads its carrier from the file, and only the law
    suites are randomized; argparse refuses the options with code 2."""
    coef, se = tmp_path / "c.coef", tmp_path / "se.txt"
    assert main(["compress", str(ramp55), str(coef), "--n", "3"]) == 0
    se.write_text("1 1 0 0\n1\n")
    for argv in (
        ["reconstruct", str(coef), str(tmp_path / "r.pgm"), "--carrier", "float"],
        ["reconstruct", str(coef), str(tmp_path / "r.pgm"), "--tnorm", "godel"],
        ["reconstruct", str(coef), str(tmp_path / "r.pgm"), "--seed", "1"],
        ["compress", str(ramp55), str(coef), "--n", "3", "--seed", "1"],
        ["morph", "dilate", str(ramp55), str(se), str(tmp_path / "m.pgm"), "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "r.pgm").exists() and not (tmp_path / "m.pgm").exists()
    # only the partition-file method reads --partition, so the triangular
    # basis refuses it, even a file that does not exist
    save_partition(tmp_path / "part.txt", luk_partition(3, 5, ChainQuantale(4)))
    for part in (tmp_path / "missing.txt", tmp_path / "part.txt"):
        for argv in (
            ["compress", str(ramp55), str(tmp_path / "d.coef"), "--n", "3", "--partition", str(part)],
            ["reconstruct", str(coef), str(tmp_path / "r.pgm"), "--partition", str(part)],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err == "error: --partition is read only by the partition-file method\n"
    assert not (tmp_path / "d.coef").exists() and not (tmp_path / "r.pgm").exists()


def test_partition_file_method_refuses_n(ramp55, tmp_path, capsys):
    """A partition fixes n, so the partition-file method refuses --n with
    one error line and writes nothing, whether or not the file exists."""
    save_partition(tmp_path / "part.txt", luk_partition(3, 5, ChainQuantale(4)))
    out = tmp_path / "p.coef"
    for part in (tmp_path / "missing.txt", tmp_path / "part.txt"):
        for n in ("99", "3"):
            argv = ["compress", str(ramp55), str(out), "--method", "partition-file"]
            assert main([*argv, "--partition", str(part), "--n", n]) == 2
            captured = capsys.readouterr()
            assert captured.err == "error: --n is read only by the luk method\n"
            assert captured.out == ""
    assert not out.exists()
    argv = ["compress", str(ramp55), str(out), "--method", "partition-file"]
    assert main([*argv, "--partition", str(tmp_path / "part.txt")]) == 0


def test_pixel_rounding_halves_up():
    q = ChainQuantale(8, LUKASIEWICZ)
    assert _pixels_from_levels(q, (8,), 4) == (4,)
    assert _pixels_from_levels(q, (3,), 4) == (2,)  # 1.5 rounds up
    assert _pixels_from_levels(q, (1,), 4) == (1,)  # 0.5 rounds up
    f = FloatUnitQuantale(LUKASIEWICZ)
    assert _pixels_from_levels(f, (1.0,), 255) == (255,)
    assert _pixels_from_levels(f, (0.5,), 4) == (2,)


# The formulas the pixel bridge replaced, kept as references: a chain
# scaled pixels by d // maxval and rounded a level v to
# (2 v maxval + d) // 2d, flagging v off the pixel grid when
# v maxval % d != 0; the float carrier divided by maxval, rounded
# v maxval + 0.5 down within 0..maxval, and flagged nothing.
def _old_level(q, p, maxval):
    return p * (q.d // maxval) if isinstance(q, ChainQuantale) else p / maxval


def _old_pixel(q, v, maxval):
    if isinstance(q, ChainQuantale):
        return (2 * v * maxval + q.d) // (2 * q.d)
    return min(maxval, max(0, math.floor(v * maxval + 0.5)))


def _old_off_grid(q, levels, maxval):
    return isinstance(q, ChainQuantale) and any(v * maxval % q.d for v in levels)


@st.composite
def bridge_cases(draw):
    maxval = draw(st.integers(1, 255))
    if draw(st.booleans()):
        tnorm = draw(st.sampled_from((LUKASIEWICZ, GODEL)))
        d = draw(st.one_of(st.integers(1, 2**70), st.sampled_from((1, 255, 2**70, _INT64_D_MAX))))
        if draw(st.booleans()):  # a chain whose levels include every pixel
            d = maxval * max(1, d // maxval)
        q = ChainQuantale(d, tnorm)
        level = st.one_of(st.sampled_from((0, d)), st.integers(0, d))
    else:
        q = FloatUnitQuantale(draw(st.sampled_from((LUKASIEWICZ, PRODUCT))))
        level = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))
    return q, maxval, draw(st.lists(level, max_size=12))


@settings(max_examples=400, deadline=None)
@given(bridge_cases())
def test_pixel_bridge_matches_the_old_formulas(case):
    q, maxval, levels = case
    if q.denominator % maxval:
        with pytest.raises(ValueError, match="is not a multiple of maxval"):
            _level_table(q, maxval)
    else:
        table = _level_table(q, maxval)
        assert list(table) == [_old_level(q, p, maxval) for p in range(maxval + 1)]
        assert all(type(a) is type(_old_level(q, 1, maxval)) for a in table)
    pixels = _pixels_from_levels(q, levels, maxval)
    assert pixels == tuple(_old_pixel(q, v, maxval) for v in levels)
    assert all(type(p) is int for p in pixels)
    assert _off_grid(q, levels, maxval) is _old_off_grid(q, levels, maxval)


# ------------------------------------------- int64 arrays vs one vector at a time

ROOT = Path(__file__).resolve().parent.parent
D_EDGE = _INT64_D_MAX  # 511 * D_EDGE == 2**63 - 1, the int64 maximum
# numpy is an optional extra; without it only the per-vector path exists
needs_numpy = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="numpy is not installed"
)


@contextmanager
def numpy_blocked():
    """Inside, importing numpy fails as it does where numpy is missing."""
    saved = sys.modules.get("numpy")
    sys.modules["numpy"] = None
    try:
        yield
    finally:
        if saved is None:
            del sys.modules["numpy"]
        else:
            sys.modules["numpy"] = saved


def check_paths_agree(kern_w, kern_h, pixels, maxval, coeffs, inv_maxval):
    """The array path and the per-vector path give equal Python ints."""
    q = kern_w.carrier
    assert _int64_numpy(q, maxval) is not None
    assert _int64_numpy(q, inv_maxval) is not None
    got = _separable_direct(kern_w, kern_h, pixels, maxval)
    got_inv = _separable_inverse(kern_w, kern_h, coeffs, inv_maxval)
    with numpy_blocked():
        assert _int64_numpy(q, maxval) is None
        ref = _separable_direct(kern_w, kern_h, pixels, maxval)
        ref_inv = _separable_inverse(kern_w, kern_h, coeffs, inv_maxval)
    assert got == ref
    assert all(type(v) is int for row in got for v in row)
    assert got_inv == ref_inv
    assert all(type(v) is int for v in got_inv[0]) and type(got_inv[1]) is bool


def pixel_maxvals(d):
    """The maxvals whose pixels are levels of a chain of denominator d."""
    return [m for m in range(1, 256) if d % m == 0]


@st.composite
def axis_kernels(draw, q, nodes):
    """A triangular kernel over the nodes, aligned or not, when its values
    are levels of q; otherwise, or by choice, a random partition's kernel."""
    if nodes >= 2 and q.d % (nodes - 1) == 0 and draw(st.booleans()):
        n = draw(st.integers(2, nodes))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridAlignmentWarning)
            return luk_kernel(n, nodes, q)
    n = draw(st.integers(1, 4))
    level = st.one_of(st.sampled_from((0, 1, q.d - 1, q.d)), st.integers(0, q.d))
    table = [[draw(level) for _ in range(nodes)] for _ in range(n)]
    for j in range(nodes):  # covering: some basis function sees node j
        if not any(row[j] for row in table):
            table[j % n][j] = q.d
    for k, row in enumerate(table):  # density: basis function k sees a node
        if not any(row):
            row[k % nodes] = q.d
    return FuzzyPartition(q, table).kernel()


@st.composite
def codec_cases(draw):
    d = draw(st.sampled_from((8, 60, D_EDGE - 1, D_EDGE)))
    q = ChainQuantale(d, draw(st.sampled_from((LUKASIEWICZ, GODEL))))
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    kern_w, kern_h = draw(axis_kernels(q, width)), draw(axis_kernels(q, height))
    maxval = draw(st.sampled_from(pixel_maxvals(d)))
    pixels = draw(st.lists(st.integers(0, maxval), min_size=width * height, max_size=width * height))
    level = st.one_of(st.sampled_from((0, d)), st.integers(0, d))
    coeffs = tuple(
        tuple(draw(level) for _ in kern_w.y_index) for _ in kern_h.y_index
    )
    inv_maxval = draw(st.one_of(st.sampled_from((1, 255)), st.integers(1, 255)))
    return kern_w, kern_h, pixels, maxval, coeffs, inv_maxval


@needs_numpy
@settings(max_examples=150, deadline=None)
@given(codec_cases())
def test_int64_path_matches_vector_path(case):
    check_paths_agree(*case)


@needs_numpy
def test_int64_path_edges():
    """1x1, 1xn and nx1 images, and d just below the int64 bound and at it,
    where rounding a top level to maxval 255 reaches exactly 2**63 - 1."""
    rng = random.Random(5)
    for d in (D_EDGE - 1, D_EDGE):
        for tnorm in (LUKASIEWICZ, GODEL):
            q = ChainQuantale(d, tnorm)
            one = FuzzyPartition(q, ((d,),)).kernel()
            tri = luk_kernel(2, 8, q) if d == D_EDGE else luk_kernel(3, 5, q)
            for kern_w, kern_h in ((one, one), (one, tri), (tri, one), (tri, tri)):
                w, h = len(kern_w.x_index), len(kern_h.x_index)
                for maxval in pixel_maxvals(d)[-2:]:
                    pixels = [rng.choice((0, maxval, rng.randrange(maxval + 1))) for _ in range(w * h)]
                    for fill in (0, d, None):
                        coeffs = tuple(
                            tuple(rng.randrange(d + 1) if fill is None else fill for _ in kern_w.y_index)
                            for _ in kern_h.y_index
                        )
                        check_paths_agree(kern_w, kern_h, pixels, maxval, coeffs, 255)
    # past the bound, or off the chains, the codec runs one vector at a time
    assert _int64_numpy(ChainQuantale(D_EDGE + 1), 255) is None
    assert _int64_numpy(ChainQuantale(D_EDGE), 255) is not None
    assert _int64_numpy(FloatUnitQuantale(LUKASIEWICZ), 255) is None
    assert 511 * D_EDGE == 2**63 - 1


@pytest.mark.parametrize(
    "blocked", (pytest.param(False, marks=needs_numpy), True), ids=("int64", "per-vector")
)
def test_codec_never_builds_dense_rows(tmp_path, monkeypatch, blocked):
    """Compress and reconstruct read the triangular kernels' bands only,
    on the int64 path and one vector at a time; the misaligned height
    carries an explicit embedding."""
    import qkit.cli as cli

    built = []

    def recorded(*args):
        built.append(luk_kernel(*args))
        return built[-1]

    monkeypatch.setattr(cli, "luk_kernel", recorded)
    write_pgm(tmp_path / "img.pgm", ramp_image(33, 12, 255))
    coef, back = tmp_path / "a.coef", tmp_path / "back.pgm"
    with numpy_blocked() if blocked else contextlib.nullcontext():
        assert main(["compress", str(tmp_path / "img.pgm"), str(coef), "--n", "5"]) == 0
        assert main(["reconstruct", str(coef), str(back)]) == 0
        int64 = _int64_numpy(built[0].carrier, 255) is not None
    assert int64 != blocked and len(built) == 4
    assert not any("rows" in kernel.__dict__ for kernel in built)


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@needs_numpy
def test_numpy_only_imported_by_the_codec(tmp_path):
    """numpy costs start-up time and memory, so only the codec loads it."""
    write_pgm(tmp_path / "img.pgm", ramp_image(9, 9, 8))
    (tmp_path / "se.txt").write_text("3 1 1 0\n1/2 1 1/2\n")
    out = run_python(
        """
import sys
from qkit.cli import main
img, se, out = sys.argv[1:]
assert "numpy" not in sys.modules, "import qkit.cli"
assert main(["morph", "open", img, se, out]) == 0
assert "numpy" not in sys.modules, "qkit morph"
for suite in ("quantale", "transform", "morphology"):
    assert main(["laws", suite]) == 0
assert "numpy" not in sys.modules, "qkit laws"
assert main(["compress", img, out, "--n", "3"]) == 0
print("compress loaded numpy:", "numpy" in sys.modules)
""",
        tmp_path / "img.pgm",
        tmp_path / "se.txt",
        tmp_path / "out",
    )
    assert out.endswith("compress loaded numpy: True\n")


@needs_numpy
def test_codec_bytes_without_numpy(tmp_path):
    src = tmp_path / "img.pgm"
    write_pgm(src, PgmImage(9, 9, 8, tuple(random.Random(3).randrange(9) for _ in range(81))))
    part = tmp_path / "part.txt"
    save_partition(part, luk_partition(3, 9, ChainQuantale(8, LUKASIEWICZ)))
    script = """
import sys
block, src, part, out = sys.argv[1:]
if block == "block":
    sys.modules["numpy"] = None
from qkit.cli import main
for name, args, again in (
    ("aligned", ["--n", "5"], []),
    ("misaligned", ["--n", "4"], []),
    ("godel", ["--n", "3", "--tnorm", "godel"], []),
    ("partition", ["--method", "partition-file", "--partition", part], ["--partition", part]),
    ("float", ["--n", "5", "--carrier", "float"], []),
):
    coef, back = f"{out}/{name}.coef", f"{out}/{name}.pgm"
    assert main(["compress", src, coef, *args]) == 0
    assert main(["reconstruct", coef, back, *again]) == 0
print(sys.modules.get("numpy") is not None)
"""
    outputs = {}
    for mode in ("numpy", "block"):
        (tmp_path / mode).mkdir()
        loaded = run_python(script, mode, src, part, tmp_path / mode)
        assert loaded == ("True\n" if mode == "numpy" else "False\n")
        outputs[mode] = {
            f.name: f.read_bytes() for f in sorted((tmp_path / mode).iterdir())
        }
    assert len(outputs["numpy"]) == 10
    assert outputs["numpy"] == outputs["block"]


# Token fuzz of the four readers the CLI feeds from files.  Each file
# has a valid header and a body drawn from digits and `./e-+x`; every
# run must exit 0, or exit 2 with exactly one `error:` line.
FUZZ_TOKEN = st.one_of(
    st.text(alphabet="0123456789./e-+x", min_size=1, max_size=8),
    # number-shaped tokens reach the fraction and exponent paths more often,
    # and small values let some files load
    st.from_regex(r"[-+]?[0-9]{0,3}([./][0-9]{0,3})?(e[-+]?[0-9]{1,10})?", fullmatch=True),
    st.sampled_from(("0", "1", "2", "8", "0.5", "1/2", "1e-05")),
).filter(bool)
# the rows and columns of the body each header asks for
FUZZ_SHAPES = {"pgm": (2, 3), "coefficients": (2, 2), "partition": (2, 3), "structuring": (1, 3)}

COEF_HEADER = (
    "qkit-coefficients v1\nmethod=luk\ncarrier={kind}\ntnorm=lukasiewicz\n"
    "denominator={d}\nn=2\nwidth=3\nheight=3\nmaxval=8\nrows=2\ncols=2\n"
)


def _fuzz_case(reader, carrier, body, work):
    """The file for one reader and the argv that reads it."""
    image = os.path.join(work, "in.pgm")
    write_pgm(image, PgmImage(3, 3, 8, (0, 1, 2, 3, 4, 5, 6, 7, 8)))
    path, out = os.path.join(work, "fuzzed"), os.path.join(work, "out")
    carrier_args = ["--carrier", "float"] if carrier == "float" else []
    if reader == "pgm":
        head, argv = "P2\n3 2\n9\n", ["compress", path, out, "--n", "2"]
    elif reader == "coefficients":
        head = COEF_HEADER.format(kind=carrier, d=8 if carrier == "chain" else 0)
        argv = ["reconstruct", path, out]
    elif reader == "partition":
        head = "2 3\n"
        argv = ["compress", image, out, "--method", "partition-file", "--partition", path]
        argv += carrier_args
    else:
        head, argv = "3 1 1 0\n", ["morph", "dilate", image, path, out, *carrier_args]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(head + body)
    return argv


@pytest.mark.parametrize("reader", ("pgm", "coefficients", "partition", "structuring"))
@settings(max_examples=80, deadline=None, derandomize=True)
@given(carrier=st.sampled_from(("chain", "float")), data=st.data())
def test_readers_survive_token_fuzz(reader, carrier, data):
    rows, cols = FUZZ_SHAPES[reader]
    size = st.one_of(st.just(cols), st.integers(0, 5))
    line = size.flatmap(lambda n: st.lists(FUZZ_TOKEN, min_size=n, max_size=n))
    lines = data.draw(st.one_of(st.just(rows), st.integers(0, 4)).flatmap(
        lambda n: st.lists(line, min_size=n, max_size=n)
    ))
    body = "".join(" ".join(tokens) + "\n" for tokens in lines)
    with tempfile.TemporaryDirectory() as work:
        argv = _fuzz_case(reader, carrier, body, work)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
    err = err.getvalue()
    assert rc in (0, 2)
    if rc == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert "error" not in err
