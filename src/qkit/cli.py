"""Command line front door: compress, reconstruct, morph, laws, metrics.

The CLI turns pixels into an element of Q^X and back, runs a transform
and does file I/O.  Pixel p is the level `carrier.ratio(p, maxval)`;
level v is the pixel nearest `carrier.fraction(v) * maxval`, halves
rounding up, and lies off the pixel grid when that product is not an
integer, which only a chain (non-zero denominator) can tell.

Compression is the separable scheme: a one-dimensional transform over
every row, then over every column of the row coefficients.  By default
it runs on the chain whose denominator is the least common multiple of
the image maxval, the side lengths minus one and n - 1, so every pixel
and basis value is an exact level: reconstruction dominates the input,
and recompressing it reproduces the coefficients bit for bit.  Both
methods, the triangular basis and a partition file, only choose the
kernel per axis.  The transform applies `apply_direct`/`apply_inverse`
to one `ModuleVector` per row and per column or, on a chain small
enough for int64 when numpy imports, runs on whole arrays in
`qkit._int64`; both give the same bytes.
"""
from __future__ import annotations

import argparse
import itertools
import math
import random
import sys
import warnings
from fractions import Fraction

from qkit._int64 import _direct_pixels, _int64_numpy, _inverse_pixels
from qkit.fuzzy import GridAlignmentWarning, load_partition, luk_kernel
from qkit.morphology import (
    BOUNDED,
    WRAP,
    Grid,
    GreyImage,
    closing_grey,
    dilate_grey,
    erode_grey,
    image_leq,
    load_structuring,
    opening_grey,
    structuring_denominator,
)
from qkit.pgm import PgmImage, read_pgm, write_pgm
from qkit.qmodule import ModuleVector
from qkit.quantale import (
    Carrier,
    CarrierMismatchError,
    ChainQuantale,
    FloatUnitQuantale,
    GODEL,
    LUKASIEWICZ,
    PRODUCT,
    carrier_from,
    parse_integer,
)
from qkit.suites import SUITES, run_suites
from qkit.transform import apply_direct, apply_inverse

COEFF_MAGIC = "qkit-coefficients v1"


def parse_carrier(spec: str, tnorm: str) -> Carrier:
    if spec == "float":
        return FloatUnitQuantale(tnorm)
    if spec.startswith("chain:"):
        d = parse_integer(spec.split(":", 1)[1], "chain denominator")
        if tnorm == PRODUCT:
            raise ValueError("the product t-norm lives on the float carrier only")
        return ChainQuantale(d, tnorm)
    raise ValueError(f"unknown carrier {spec!r}, expected chain:<d> or float")


# ------------------------------------------------------------ normalization

def _level_table(carrier: Carrier, maxval: int) -> tuple:
    """The level of each pixel value 0..maxval; refused on a chain whose
    denominator maxval does not divide."""
    d = carrier.denominator
    if d % maxval:
        raise ValueError(f"chain denominator {d} is not a multiple of maxval {maxval}")
    return tuple(carrier.ratio(p, maxval) for p in range(maxval + 1))


def _pixels_from_levels(carrier: Carrier, levels, maxval: int) -> tuple:
    """The nearest pixel value of each level, halves rounding up, within
    0..maxval; computed once per distinct level."""
    half = Fraction(1, 2)
    pixel = {
        v: min(maxval, max(0, math.floor(carrier.fraction(v) * maxval + half)))
        for v in set(levels)
    }
    return tuple(map(pixel.__getitem__, levels))


def _off_grid(carrier: Carrier, levels, maxval: int) -> bool:
    """Whether some level falls strictly between two pixel values; only
    a chain, whose denominator is non-zero, can tell."""
    d = carrier.denominator
    return d != 0 and any(v * maxval % d for v in set(levels))


# ---------------------------------------------------------------- compress

def _separable_direct(kern_w, kern_h, pixels, maxval: int) -> tuple:
    """Pixels to levels, then rows then columns; returns the coefficient
    matrix as row tuples."""
    q, width = kern_w.carrier, len(kern_w.x_index)
    table = _level_table(q, maxval)
    np = _int64_numpy(q, maxval)
    if np is not None:  # the level of pixel 1 is the chain's scale d / maxval
        return _direct_pixels(np, kern_w, kern_h, pixels, table[1])
    levels = tuple(map(table.__getitem__, pixels))
    vector = ModuleVector._trusted  # levels and transform results are elements
    row_stage = [
        apply_direct(kern_w, vector(q, kern_w.x_index, levels[i : i + width])).values
        for i in range(0, len(levels), width)
    ]
    cols = [
        apply_direct(kern_h, vector(q, kern_h.x_index, col)).values
        for col in zip(*row_stage)
    ]
    return tuple(zip(*cols))


def _separable_inverse(kern_w, kern_h, coeffs, maxval: int) -> tuple:
    """Inverts the column stage, then the row stage, and rounds levels to
    pixels; returns the pixels and whether some level fell between two
    pixel values."""
    q = kern_w.carrier
    # the file's values must be elements of the carrier (levels, before
    # int64 can hold them); column by column, so the first offender is
    # the one reported
    q.require(*itertools.chain.from_iterable(zip(*coeffs)))
    np = _int64_numpy(q, maxval)
    if np is not None:
        return _inverse_pixels(np, kern_w, kern_h, coeffs, maxval)
    vector = ModuleVector._trusted
    cols = [
        apply_inverse(kern_h, vector(q, kern_h.y_index, col)).values
        for col in zip(*coeffs)
    ]
    levels = tuple(
        v
        for row in zip(*cols)
        for v in apply_inverse(kern_w, vector(q, kern_w.y_index, row)).values
    )
    return list(_pixels_from_levels(q, levels, maxval)), _off_grid(q, levels, maxval)


def _axis_kernels(method, carrier, width, height, n, partition):
    """Width and height kernels: the triangular basis with n components,
    or the partition's kernel on both axes; a partition file given to
    the triangular basis is refused.  A misaligned grid is one
    `warning:` line per distinct message, never Python warning text."""
    if method == "partition-file":
        if partition is None:
            raise ValueError("the partition-file method needs --partition")
        part = load_partition(partition, carrier)
        if part.l != width or part.l != height:
            raise ValueError(f"partition covers {part.l} nodes; image is {width}x{height}")
        return part.kernel(), part.kernel()
    if partition is not None:
        raise ValueError("--partition is read only by the partition-file method")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", GridAlignmentWarning)
        kern_w = luk_kernel(n, width, carrier)
        kern_h = kern_w if height == width else luk_kernel(n, height, carrier)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return kern_w, kern_h


def write_coefficients(path, meta: dict, matrix, carrier: Carrier) -> None:
    lines = [COEFF_MAGIC]
    for key, value in meta.items():
        lines.append(f"{key}={value}")
    for row in matrix:
        lines.append(" ".join(map(carrier.format, row)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coefficients(path):
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    if not lines or lines[0] != COEFF_MAGIC:
        raise ValueError("not a coefficients file")
    body_at = next((i for i, ln in enumerate(lines) if i and "=" not in ln), len(lines))
    meta = dict(ln.split("=", 1) for ln in lines[1:body_at])
    required = ("method", "carrier", "tnorm", "n", "width", "height", "maxval", "rows", "cols")
    missing = [k for k in required if k not in meta]
    if missing:
        raise ValueError(f"coefficients file lacks keys: {', '.join(missing)}")
    if meta["carrier"] == "chain" and "denominator" not in meta:
        raise ValueError("chain coefficients need a denominator key")
    denominator = parse_integer(meta.get("denominator", "0"), "denominator value")
    carrier = carrier_from(meta["carrier"], denominator, meta["tnorm"])
    # the header must fit before any kernel is sized from it
    n, rows, cols, width, height, maxval = (
        parse_integer(meta[k], f"{k} value")
        for k in ("n", "rows", "cols", "width", "height", "maxval")
    )
    if meta["method"] == "luk":
        fits = 2 <= n <= min(width, height)
    elif meta["method"] == "partition-file":
        fits = n >= 1
    else:
        raise ValueError(f"unknown method {meta['method']!r}")
    if not fits or rows != n or cols != n:
        raise ValueError(f"header n={n} rows={rows} cols={cols} does not fit {width}x{height}")
    if not 1 <= maxval <= 255:
        raise ValueError(f"maxval {maxval} outside 1..255")
    body = lines[body_at:]
    if len(body) != rows:
        raise ValueError(f"expected {rows} coefficient rows, found {len(body)}")
    matrix = tuple(tuple(map(carrier.parse, ln.split())) for ln in body)
    if any(len(row) != cols for row in matrix):
        raise ValueError(f"expected {cols} coefficients per row")
    return meta, carrier, matrix


def _carrier(args, d: int) -> Carrier:
    """The --carrier choice, else the chain of denominator d."""
    if args.carrier is not None:
        return parse_carrier(args.carrier, args.tnorm)
    return ChainQuantale(d, args.tnorm)


def cmd_compress(args) -> int:
    if args.method != "luk" and args.n is not None:
        raise ValueError("--n is read only by the luk method")
    img = read_pgm(args.image)
    if args.method == "luk":
        if args.n is None or args.n < 2:
            raise ValueError("the triangular basis needs --n at least 2")
        # pixel levels and every basis value are exact on this chain
        sides = max(img.width - 1, 1), max(img.height - 1, 1)
        carrier = _carrier(args, math.lcm(img.maxval, *sides, args.n - 1))
    else:
        carrier = _carrier(args, img.maxval)
    kern_w, kern_h = _axis_kernels(
        args.method, carrier, img.width, img.height, args.n, args.partition
    )
    matrix = _separable_direct(kern_w, kern_h, img.pixels, img.maxval)
    meta = {
        "method": args.method,
        "carrier": carrier.kind,
        "tnorm": carrier.tnorm,
        "denominator": carrier.denominator,
        "n": len(matrix),
        "width": img.width,
        "height": img.height,
        "maxval": img.maxval,
        "rows": len(matrix),
        "cols": len(matrix[0]),
    }
    write_coefficients(args.out, meta, matrix, carrier)
    return 0


def cmd_reconstruct(args) -> int:
    meta, carrier, matrix = read_coefficients(args.coefficients)
    width, height, maxval, n = (int(meta[k]) for k in ("width", "height", "maxval", "n"))
    kern_w, kern_h = _axis_kernels(meta["method"], carrier, width, height, n, args.partition)
    if len(kern_w.y_index) != n:
        raise ValueError("partition does not match the coefficients header")
    pixels, off_grid = _separable_inverse(kern_w, kern_h, matrix, maxval)
    if off_grid:
        print(
            "warning: some reconstructed levels fall between pixel values; "
            "the written image is quantized, so compressing it again may "
            "not reproduce these coefficients",
            file=sys.stderr,
        )
    # levels lie in the carrier, so every rounded pixel lies in 0..maxval
    image = PgmImage._trusted(width, height, maxval, tuple(pixels))
    write_pgm(args.out, image, binary=args.binary)
    return 0


# ------------------------------------------------------------------- morph

def cmd_morph(args) -> int:
    img = read_pgm(args.image)
    # the least chain on which every pixel and every weight is a level
    carrier = _carrier(args, math.lcm(img.maxval, structuring_denominator(args.se)))
    se = load_structuring(args.se, carrier)
    grid = Grid(img.width, img.height, mode=args.mode)
    levels = tuple(map(_level_table(carrier, img.maxval).__getitem__, img.pixels))
    # the reader checked every pixel, so every level is an element
    grey = GreyImage._trusted(grid, carrier, levels)
    ops = {
        "dilate": dilate_grey,
        "erode": erode_grey,
        "open": opening_grey,
        "close": closing_grey,
    }
    result = ops[args.op](grey, se)
    if args.check_adjunction:
        opened = result if args.op == "open" else opening_grey(grey, se)
        closed = result if args.op == "close" else closing_grey(grey, se)
        ok = image_leq(opened, grey) and image_leq(grey, closed)
        print(f"adjunction: {'pass' if ok else 'fail'}")
        if not ok:
            return 1
    pixels = _pixels_from_levels(carrier, result.values, img.maxval)
    image = PgmImage._trusted(img.width, img.height, img.maxval, pixels)
    write_pgm(args.out, image, binary=args.binary)
    return 0


# -------------------------------------------------------------------- laws

def cmd_laws(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    carrier = parse_carrier(args.carrier, args.tnorm) if args.carrier else None
    rng = random.Random(args.seed)
    reports = run_suites(names, carrier=carrier, rng=rng)
    failed = 0
    for report in reports:
        print(report.summary())
        if not report.ok:
            failed += 1
    total = len(reports)
    print(f"{total - failed}/{total} law families clean")
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------- metrics

def cmd_metrics(args) -> int:
    a, b = read_pgm(args.original), read_pgm(args.reconstructed)
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"size mismatch: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    if a.maxval != b.maxval:
        raise ValueError(f"maxval mismatch: {a.maxval} vs {b.maxval}")
    diffs = [abs(x - y) for x, y in zip(a.pixels, b.pixels)]
    count = len(diffs)
    mse = sum(d * d for d in diffs) / count
    max_abs = max(diffs)
    mean_abs = sum(diffs) / count
    psnr = "inf" if mse == 0 else f"{10 * math.log10(a.maxval ** 2 / mse):.4f}"
    print(f"psnr={psnr}")
    print(f"max_abs={max_abs}")
    print(f"mean_abs={mean_abs:.6f}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkit",
        description="Lattice-valued image transforms: compression, morphology, law suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_carrier(p):
        p.add_argument("--carrier", help="chain:<d> or float (default: exact chain from the image)")
        p.add_argument(
            "--tnorm",
            default=LUKASIEWICZ,
            choices=(LUKASIEWICZ, GODEL, PRODUCT),
        )

    c = sub.add_parser("compress", help="PGM to coefficients file")
    c.add_argument("image")
    c.add_argument("out")
    c.add_argument("--method", default="luk", choices=("luk", "partition-file"))
    c.add_argument("--n", type=int, default=None, help="components per axis for --method luk")
    c.add_argument("--partition", default=None, help="partition file for --method partition-file")
    add_carrier(c)
    c.set_defaults(func=cmd_compress)

    r = sub.add_parser("reconstruct", help="coefficients file to PGM")
    r.add_argument("coefficients")
    r.add_argument("out")
    r.add_argument("--partition", default=None, help="partition file when the coefficients used one")
    r.add_argument("--binary", action="store_true", help="write P5 instead of P2")
    r.set_defaults(func=cmd_reconstruct)

    m = sub.add_parser("morph", help="dilate/erode/open/close a PGM")
    m.add_argument("op", choices=("dilate", "erode", "open", "close"))
    m.add_argument("image")
    m.add_argument("se", help="structuring element file")
    m.add_argument("out")
    m.add_argument("--mode", default=WRAP, choices=(WRAP, BOUNDED))
    m.add_argument("--check-adjunction", action="store_true")
    m.add_argument("--binary", action="store_true", help="write P5 instead of P2")
    add_carrier(m)
    m.set_defaults(func=cmd_morph)

    l = sub.add_parser("laws", help="run law suites, exit 0 iff all pass")
    l.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=tuple(SUITES) + ("all",),
    )
    add_carrier(l)
    l.add_argument("--seed", type=int, default=0, help="fixes randomized suites")
    l.set_defaults(func=cmd_laws)

    t = sub.add_parser("metrics", help="error metrics between two PGMs")
    t.add_argument("original")
    t.add_argument("reconstructed")
    t.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CarrierMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
