"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Every workload builds its inputs from the seed alone and hands qkit
only the generated files or objects.  A pass is a closed loop with one
caller: each operation starts when the previous one returns.  Only the
calls into qkit are timed; reading outputs back and checking them is
not.  An operation fails on a non-zero exit, an exception, stderr
output, or a failed output check.

Each pass reports two step times, `step1_s` and `step2_s`, whose
meaning is fixed per workload (see `steps`), and the work it pushed
through qkit: pixels through transform or morphology passes, or law
instances checked.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import random
import re
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"
QKIT_MODULES = ("cli", "morphology", "qmodule", "quantale", "suites", "transform")
RECTANGLES = 16  # seeded constant rectangles laid over each ramp image


def import_qkit() -> SimpleNamespace:
    """Import qkit afresh from this checkout's `src/`, dropping cached modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "qkit" or m.startswith("qkit.")]:
        del sys.modules[name]
    mods = SimpleNamespace(
        **{m: importlib.import_module(f"qkit.{m}") for m in QKIT_MODULES}
    )
    if SRC not in Path(mods.cli.__file__).resolve().parents:
        raise ImportError(f"qkit was imported from {mods.cli.__file__}, not {SRC}")
    return mods


@dataclass
class Op:
    """One timed call into qkit and whatever its output checks found."""

    name: str
    seconds: float
    problems: list = field(default_factory=list)


@dataclass
class Pass:
    ops: list
    steps: tuple  # (step1_s samples, step2_s samples)
    work: int

    @property
    def wall_s(self) -> float:
        return sum(op.seconds for op in self.ops)


# ------------------------------------------------------------ input files

def ramp_with_rectangles(side: int, maxval: int, rng: random.Random) -> list:
    """A diagonal ramp overlaid with RECTANGLES seeded constant rectangles."""
    span = 2 * (side - 1)
    px = [(x + y) * maxval // span for y in range(side) for x in range(side)]
    for _ in range(RECTANGLES):
        w, h = rng.randrange(1, side // 8 + 2), rng.randrange(1, side // 8 + 2)
        x0, y0 = rng.randrange(side - w + 1), rng.randrange(side - h + 1)
        v = rng.randrange(maxval + 1)
        for y in range(y0, y0 + h):
            px[y * side + x0 : y * side + x0 + w] = [v] * w
    return px


def write_p2(path: Path, side: int, maxval: int, pixels) -> None:
    rows = (
        " ".join(map(str, pixels[y * side : (y + 1) * side])) for y in range(side)
    )
    path.write_text(f"P2\n{side} {side}\n{maxval}\n" + "\n".join(rows) + "\n", "ascii")


def read_p2(path: Path):
    """(width, height, maxval, pixels) of a comment-free P2 file."""
    tokens = path.read_bytes().split()
    if tokens[:1] != [b"P2"]:
        raise ValueError(f"{path.name} is not a P2 file")
    w, h, maxval = (int(t) for t in tokens[1:4])
    pixels = [int(t) for t in tokens[4:]]
    if len(pixels) != w * h:
        raise ValueError(f"{path.name} holds {len(pixels)} pixels, expected {w * h}")
    return w, h, maxval, pixels


def read_pixels(path: Path, side: int, maxval: int) -> list:
    """Pixels of a P2 output that must be side x side with this maxval."""
    w, h, mv, pixels = read_p2(path)
    if (w, h, mv) != (side, side, maxval):
        raise ValueError(f"{path.name} is {w}x{h} maxval {mv}")
    return pixels


# -------------------------------------------------------------- CLI calls

def run_cli(mods, argv, tracer):
    """`qkit <argv>` in-process; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli.command") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            with span:
                rc = mods.cli.main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        seconds = perf_counter() - t0
    return seconds, rc, out.getvalue(), err.getvalue()


def cli_op(name, mods, argv, tracer) -> tuple:
    seconds, rc, out, err = run_cli(mods, argv, tracer)
    op = Op(name, seconds)
    if rc != 0:
        op.problems.append(f"exit code {rc}")
    if err:
        op.problems.append(f"stderr: {err.strip().splitlines()[-1]}")
    return op, out


def last_error_line() -> str:
    return traceback.format_exc().strip().splitlines()[-1]


def check(op: Op, what: str, test) -> None:
    """Run an output check unless the call already failed."""
    if op.problems:
        return
    try:
        if not test():
            op.problems.append(what)
    except (OSError, ValueError) as exc:
        op.problems.append(f"{what}: {exc}")


def fresh(*paths: Path) -> None:
    """Remove a previous pass's outputs so a failed call cannot reuse them."""
    for p in paths:
        p.unlink(missing_ok=True)


# -------------------------------------------------------------- workloads

class Codec:
    """`qkit compress`, `reconstruct`, `compress` on one aligned on-grid image.

    side - 1 is a multiple of n - 1, so the basis peaks sit on grid
    nodes, and (side - 1) / (n - 1) divides maxval, so every
    reconstructed level is a pixel value and the second compress must
    reproduce the first coefficient file byte for byte.
    """

    name = "codec-1021"
    steps = ("compress, per command, two samples a pass", "reconstruct")
    work_unit = "pixels"
    MAXVAL = 255

    def __init__(self, side=1021, n=61):
        self.side, self.n = side, n

    def make_inputs(self, mods, seed, workdir: Path):
        pixels = ramp_with_rectangles(self.side, self.MAXVAL, random.Random(seed))
        write_p2(workdir / "codec-in.pgm", self.side, self.MAXVAL, pixels)
        return SimpleNamespace(dir=workdir, pixels=pixels)

    def run_pass(self, mods, inp, tracer) -> Pass:
        src, a, back, b = (
            inp.dir / f for f in ("codec-in.pgm", "a.coef", "back.pgm", "b.coef")
        )
        fresh(a, back, b)
        n = ("--n", self.n)
        first, _ = cli_op("compress", mods, ("compress", src, a, *n), tracer)
        recon, _ = cli_op("reconstruct", mods, ("reconstruct", a, back), tracer)
        check(
            recon,
            "reconstruction does not dominate the input",
            lambda: all(
                r >= p
                for r, p in zip(read_pixels(back, self.side, self.MAXVAL), inp.pixels)
            ),
        )
        second, _ = cli_op("recompress", mods, ("compress", back, b, *n), tracer)
        check(
            second,
            "recompressed coefficients differ from the first file",
            lambda: a.read_bytes() == b.read_bytes(),
        )
        return Pass(
            [first, recon, second],
            ([first.seconds, second.seconds], [recon.seconds]),
            3 * self.side * self.side,
        )


class Morph:
    """`qkit morph open --mode wrap` and `close --mode bounded` on one image.

    The element's 1/2 weights are not levels of the default carrier
    chain:255 (`error: weight 1/2 is not a multiple of 1/255`, exit 2),
    so the commands pass `--carrier chain:510` explicitly.
    """

    name = "morph-513"
    steps = ("open, wrap mode", "close, bounded mode")
    work_unit = "pixels"
    MAXVAL = 255
    ELEMENT = "3 3 1 1\n1/2 1/2 1/2\n1/2 1 1/2\n1/2 1/2 1/2\n"
    CARRIER = ("--carrier", "chain:510")

    def __init__(self, side=513):
        self.side = side

    def make_inputs(self, mods, seed, workdir: Path):
        pixels = ramp_with_rectangles(self.side, self.MAXVAL, random.Random(seed))
        write_p2(workdir / "morph-in.pgm", self.side, self.MAXVAL, pixels)
        (workdir / "element.txt").write_text(self.ELEMENT, "ascii")
        return SimpleNamespace(dir=workdir, pixels=pixels)

    def run_pass(self, mods, inp, tracer) -> Pass:
        src, se = inp.dir / "morph-in.pgm", inp.dir / "element.txt"
        opened, closed = inp.dir / "opened.pgm", inp.dir / "closed.pgm"
        fresh(opened, closed)
        op_open, _ = cli_op(
            "open",
            mods,
            ("morph", "open", src, se, opened, "--mode", "wrap", *self.CARRIER),
            tracer,
        )
        check(
            op_open,
            "opening is not below the input",
            lambda: all(
                o <= p
                for o, p in zip(read_pixels(opened, self.side, self.MAXVAL), inp.pixels)
            ),
        )
        op_close, _ = cli_op(
            "close",
            mods,
            ("morph", "close", src, se, closed, "--mode", "bounded", *self.CARRIER),
            tracer,
        )
        check(
            op_close,
            "closing is not above the input",
            lambda: all(
                c >= p
                for c, p in zip(read_pixels(closed, self.side, self.MAXVAL), inp.pixels)
            ),
        )
        return Pass(
            [op_open, op_close],
            ([op_open.seconds], [op_close.seconds]),
            4 * self.side * self.side,
        )


class KernelMorph:
    """Library path: the translate kernel of a 3x3 element on a torus.

    Every one of the nine offsets carries a non-bottom weight, so the
    kernel's support, and with it the work, does not depend on the seed.
    """

    name = "kernel-morph-48"
    steps = ("kernel_of_structuring build", "apply_direct and apply_inverse, all images")
    work_unit = "pixels"
    D = 255  # levels of the chain carrier

    def __init__(self, side=48, images=4):
        self.side, self.images = side, images

    def make_inputs(self, mods, seed, workdir: Path):
        rng = random.Random(seed)
        m, q = mods.morphology, mods.quantale.ChainQuantale(self.D, "lukasiewicz")
        weights = {
            (dx, dy): q.unit if dx == dy == 0 else rng.randrange(1, self.D + 1)
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
        }
        grid = m.Grid(self.side, self.side, mode=m.WRAP)
        images = [
            m.GreyImage(grid, q, tuple(rng.randrange(self.D + 1) for _ in range(grid.size)))
            for _ in range(self.images)
        ]
        element = m.StructuringElement.from_dict(q, weights)
        # The membership form's results, which the kernel form must equal,
        # are fixed by the inputs; computing them here keeps them out of
        # every timed pass.
        expected = [
            (m.dilate_grey(image, element).values, m.erode_grey(image, element).values)
            for image in images
        ]
        return SimpleNamespace(
            carrier=q, grid=grid, element=element, images=images, expected=expected
        )

    def run_pass(self, mods, inp, tracer) -> Pass:
        m, t = mods.morphology, mods.transform
        build = Op("kernel build", 0.0)
        t0 = perf_counter()
        try:
            kernel = m.kernel_of_structuring(inp.element, inp.grid)
        except Exception:
            kernel = None
            build.problems.append(last_error_line())
        build.seconds = perf_counter() - t0
        ops = [build]
        for i, (image, (dilated, eroded)) in enumerate(zip(inp.images, inp.expected)):
            op = Op(f"image {i}", 0.0)
            ops.append(op)
            if kernel is None:
                op.problems.append("no kernel")
                continue
            t0 = perf_counter()
            try:
                vec = mods.qmodule.ModuleVector(inp.carrier, kernel.x_index, image.values)
                direct, inverse = t.apply_direct(kernel, vec), t.apply_inverse(kernel, vec)
            except Exception:
                op.problems.append(last_error_line())
            op.seconds = perf_counter() - t0
            check(op, "kernel direct differs from dilate_grey",
                  lambda: direct.values == dilated)
            check(op, "kernel inverse differs from erode_grey",
                  lambda: inverse.values == eroded)
        return Pass(
            ops,
            ([build.seconds], [sum(op.seconds for op in ops[1:])]),
            2 * self.images * self.side * self.side,
        )


class Laws:
    """`qkit laws <suite> --seed <seed>` for each of the four suites.

    One command per suite gives the untraced run a time per suite
    group.  The instance counts are fixed by the suites' own sizes, not
    by the seed; a changed count is a changed workload and fails.
    """

    name = "laws"
    steps = ("quantale + module suites", "transform + morphology suites")
    work_unit = "law instances"
    INSTANCES = {"quantale": 4582, "module": 30864, "transform": 10181, "morphology": 420}
    SUMMARY = re.compile(r"^PASS .* \((\d+) instances\)$")

    def __init__(self, suites=("quantale", "module", "transform", "morphology")):
        self.suites = suites

    def make_inputs(self, mods, seed, workdir: Path):
        return SimpleNamespace(seed=seed)

    def run_pass(self, mods, inp, tracer) -> Pass:
        ops, instances = [], 0
        for suite in self.suites:
            op, out = cli_op(suite, mods, ("laws", suite, "--seed", inp.seed), tracer)
            ops.append(op)
            *reports, verdict = out.splitlines() or [""]
            counts = [self.SUMMARY.match(line) for line in reports]
            check(op, "a law family is not clean",
                  lambda: all(counts) and verdict == f"{len(counts)}/{len(counts)} law families clean")
            found = sum(int(c.group(1)) for c in counts if c)
            check(op, f"{found} instances, expected {self.INSTANCES[suite]}",
                  lambda: found == self.INSTANCES[suite])
            instances += found
        algebra = sum(op.seconds for op in ops if op.name in ("quantale", "module"))
        return Pass(ops, ([algebra], [sum(op.seconds for op in ops) - algebra]), instances)


WORKLOADS = {w.name: w for w in (Codec(), Morph(), KernelMorph(), Laws())}
