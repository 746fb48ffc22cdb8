"""Translation-invariant dilation and erosion on finite grids.

Binary images are cell sets, grey images carry quantale values, and a
structuring element is a finite-support map from offsets to values.
Dilation is the join of weighted translates, erosion the meet of the
matching residua.  On both grid modes the pair is the right-hand kernel
transform pair H, L (`apply_direct_right`, `apply_inverse_right`) of
the translate kernel k(x, y) = A(y - x), so all three forms can be
compared bit for bit.  Dilation multiplies the weight on the left,
A(a) . X(y - a), which is why it is the right-hand transform; on a
commutative carrier the two hands agree.

Wrap mode treats the grid as a torus, which makes translation a group.
Bounded mode pads the image with bottom instead: dilation drops
contributions that fall off the grid, and erosion constrains only
in-grid pixels (an offset that pokes outside imposes nothing, so border
meets can come up empty and yield top).  The translate kernel of a
bounded grid is clipped: it has no entry for a target off the grid.
The skip rule is then a checked identity, not a convention: erosion is
L of the clipped kernel, the exact residual of the clipped dilation.
The price is that translation invariance fails at the edges, so only
wrap mode gets the invariance suite.

Grey dilation and erosion are |SE| row passes of O(cells), each through
a memo of one weight against the image's distinct levels; bounded passes
keep the skip rule.  A full-grid element is allowed but quadratic.

Values are checked where they enter: the public `GreyImage` and
`StructuringElement` constructors and the element reader.  Results of
carrier operations on checked values are trusted: dilation, erosion,
translation, pointwise joins and meets, random and set images, and the
translate kernel are built by the private `_trusted` constructors,
which check nothing.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

from qkit.quantale import (
    Carrier,
    CarrierMismatchError,
    FloatUnitQuantale,
    LUKASIEWICZ,
    parse_fraction,
    parse_integer,
)
from qkit.transform import Kernel

WRAP = "wrap"
BOUNDED = "bounded"


@dataclass(frozen=True)
class Grid:
    """A width x height pixel grid; cells are (x, y) pairs."""

    width: int
    height: int
    mode: str = WRAP

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid sides must be positive")
        if self.mode not in (WRAP, BOUNDED):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def size(self) -> int:
        return self.width * self.height

    def cells(self) -> tuple:
        return tuple(
            (x, y) for y in range(self.height) for x in range(self.width)
        )

    def contains(self, cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def shift(self, cell, offset):
        """Cell moved by offset; None when it leaves a bounded grid."""
        x, y = cell[0] + offset[0], cell[1] + offset[1]
        if self.mode == WRAP:
            return (x % self.width, y % self.height)
        if 0 <= x < self.width and 0 <= y < self.height:
            return (x, y)
        return None

    def canonical(self, offset) -> tuple:
        if self.mode != WRAP:
            raise ValueError("offsets have canonical forms only on a torus")
        return (offset[0] % self.width, offset[1] % self.height)


@dataclass(frozen=True)
class StructuringElement:
    """Finite-support offset weights; the origin is offset (0, 0).

    Bottom weights are dropped at construction, so the stored entries
    are exactly the support.
    """

    carrier: Carrier
    entries: tuple

    def __post_init__(self):
        seen = {}
        for off, v in self.entries:
            off = (int(off[0]), int(off[1]))
            self.carrier.require(v)
            if off in seen:
                raise ValueError(f"duplicate offset {off}")
            seen[off] = v
        bot, eq = self.carrier.bot, self.carrier.eq
        kept = tuple(sorted((o, v) for o, v in seen.items() if not eq(v, bot)))
        if not kept:
            raise ValueError("structuring element has empty support")
        object.__setattr__(self, "entries", kept)

    @classmethod
    def from_dict(cls, carrier: Carrier, weights) -> "StructuringElement":
        return cls(carrier, tuple(weights.items()))

    @classmethod
    def flat(cls, carrier: Carrier, offsets: Iterable) -> "StructuringElement":
        """Unit weight on every given offset."""
        return cls(carrier, tuple((off, carrier.unit) for off in offsets))

    @cached_property
    def _table(self) -> dict:
        return dict(self.entries)

    def support(self) -> frozenset:
        return frozenset(self._table)

    def weight(self, offset):
        return self._table.get(tuple(offset), self.carrier.bot)


def reflect(se: StructuringElement) -> StructuringElement:
    """Offsets negated; reflecting twice gives back the original."""
    return StructuringElement(
        se.carrier, tuple(((-dx, -dy), v) for (dx, dy), v in se.entries)
    )


def reflect_offsets(offsets: Iterable) -> frozenset:
    return frozenset((-dx, -dy) for dx, dy in offsets)


# ---------------------------------------------------------------- binary

def translate(grid: Grid, cells: Iterable, offset) -> frozenset:
    """Shift a cell set; bounded grids drop what falls off."""
    out = set()
    for c in cells:
        moved = grid.shift(c, offset)
        if moved is not None:
            out.add(moved)
    return frozenset(out)


def dilate_binary(grid: Grid, cells: Iterable, offsets: Iterable) -> frozenset:
    """Union of the structuring set translated to every image cell."""
    offsets = tuple(offsets)
    out = set()
    for c in cells:
        for off in offsets:
            moved = grid.shift(c, off)
            if moved is not None:
                out.add(moved)
    return frozenset(out)


def erode_binary(grid: Grid, cells: Iterable, offsets: Iterable) -> frozenset:
    """Cells where every in-grid translate of the structuring set lands
    inside the image."""
    members = frozenset(cells)
    offsets = tuple(offsets)
    out = set()
    for c in grid.cells():
        ok = True
        for off in offsets:
            moved = grid.shift(c, off)
            if moved is not None and moved not in members:
                ok = False
                break
        if ok:
            out.add(c)
    return frozenset(out)


def opening_binary(grid: Grid, cells: Iterable, offsets: Iterable) -> frozenset:
    offsets = tuple(offsets)
    return dilate_binary(grid, erode_binary(grid, cells, offsets), offsets)


def closing_binary(grid: Grid, cells: Iterable, offsets: Iterable) -> frozenset:
    offsets = tuple(offsets)
    return erode_binary(grid, dilate_binary(grid, cells, offsets), offsets)


# ------------------------------------------------------------------ grey

@dataclass(frozen=True)
class GreyImage:
    """Total map from grid cells to carrier values, row-major."""

    grid: Grid
    carrier: Carrier
    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.grid.size:
            raise ValueError(
                f"expected {self.grid.size} values, got {len(vals)}"
            )
        for v in vals:
            self.carrier.require(v)

    @classmethod
    def _trusted(cls, grid: Grid, carrier: Carrier, values: tuple) -> "GreyImage":
        """An image whose values tuple is known to hold one element of the
        carrier per grid cell; builds it without checking."""
        image = object.__new__(cls)
        object.__setattr__(image, "grid", grid)
        object.__setattr__(image, "carrier", carrier)
        object.__setattr__(image, "values", values)
        return image

    @classmethod
    def constant(cls, grid: Grid, carrier: Carrier, value) -> "GreyImage":
        return cls(grid, carrier, (value,) * grid.size)

    @classmethod
    def from_rows(cls, grid: Grid, carrier: Carrier, rows) -> "GreyImage":
        return cls(grid, carrier, tuple(chain.from_iterable(rows)))

    def at(self, cell):
        x, y = cell
        return self.values[y * self.grid.width + x]

    def rows(self) -> tuple:
        w = self.grid.width
        return tuple(
            self.values[y * w : (y + 1) * w] for y in range(self.grid.height)
        )


def image_from_set(grid: Grid, carrier: Carrier, cells: Iterable) -> GreyImage:
    members = frozenset(cells)
    vals = tuple(
        carrier.unit if c in members else carrier.bot for c in grid.cells()
    )
    return GreyImage._trusted(grid, carrier, vals)


def set_from_image(image: GreyImage) -> frozenset:
    bot, eq = image.carrier.bot, image.carrier.eq
    return frozenset(
        c for c in image.grid.cells() if not eq(image.at(c), bot)
    )


def translate_image(image: GreyImage, offset) -> GreyImage:
    return _row_shift(image, -1, image.carrier.bot, None, None, ((offset, None),))


def _row_shift(image: GreyImage, sign, fill, combine, op, entries) -> GreyImage:
    """Cells start at `fill`; per (a, w) of `entries`, in order, c becomes
    combine(c, op(w, X(c + sign a))), or X(c + sign a) if `combine` is None."""
    grid, rows, levels = image.grid, image.rows(), set(image.values)
    w, h, wrap = grid.width, grid.height, grid.mode == WRAP
    acc = [[fill] * w for _ in range(h)]
    for (dx, dy), weight in entries:
        ex, ey = sign * dx, sign * dy
        if combine is not None:
            get = {v: op(weight, v) for v in levels}.__getitem__
        if wrap:
            k, x0, x1, ys = ex % w, 0, w, range(h)
        else:
            x0, x1 = max(0, -ex), min(w, w - ex)
            ys = range(max(0, -ey), min(h, h - ey)) if x0 < x1 else ()
        for y in ys:
            row, out = rows[(y + ey) % h], acc[y]
            src = row[k:] + row[:k] if wrap else row[x0 + ex : x1 + ex]
            out[x0:x1] = src if combine is None else map(
                combine, out[x0:x1], map(get, src)
            )
    return GreyImage._trusted(grid, image.carrier, tuple(chain.from_iterable(acc)))


def _shared_carrier(image: GreyImage, se: StructuringElement) -> Carrier:
    if image.carrier != se.carrier:
        raise CarrierMismatchError(
            "image and structuring element live on different carriers"
        )
    return image.carrier


def dilate_grey(image: GreyImage, se: StructuringElement) -> GreyImage:
    """At y: the join over offsets a of A(a) * X(y - a)."""
    q = _shared_carrier(image, se)
    return _row_shift(image, -1, q.bot, q.join2, q.mul, se.entries)


def erode_grey(image: GreyImage, se: StructuringElement) -> GreyImage:
    """At x: the meet over offsets a of A(a) -> X(x + a).

    Offsets leaving a bounded grid impose nothing, which keeps this the
    exact residual of the clipped dilation.
    """
    q = _shared_carrier(image, se)
    return _row_shift(image, 1, q.top, q.meet2, q.lres, se.entries)


def opening_grey(image: GreyImage, se: StructuringElement) -> GreyImage:
    return dilate_grey(erode_grey(image, se), se)


def closing_grey(image: GreyImage, se: StructuringElement) -> GreyImage:
    return erode_grey(dilate_grey(image, se), se)


def complement_set(grid: Grid, cells: Iterable) -> frozenset:
    return frozenset(grid.cells()) - frozenset(cells)


def image_join(a: GreyImage, b: GreyImage) -> GreyImage:
    if a.grid != b.grid or a.carrier != b.carrier:
        raise CarrierMismatchError("images are not comparable")
    q = a.carrier
    return GreyImage._trusted(
        a.grid, q, tuple(q.join2(x, y) for x, y in zip(a.values, b.values))
    )


def image_meet(a: GreyImage, b: GreyImage) -> GreyImage:
    if a.grid != b.grid or a.carrier != b.carrier:
        raise CarrierMismatchError("images are not comparable")
    q = a.carrier
    return GreyImage._trusted(
        a.grid, q, tuple(q.meet2(x, y) for x, y in zip(a.values, b.values))
    )


def image_leq(a: GreyImage, b: GreyImage) -> bool:
    if a.grid != b.grid or a.carrier != b.carrier:
        raise CarrierMismatchError("images are not comparable")
    leq = a.carrier.leq
    return all(leq(x, y) for x, y in zip(a.values, b.values))


def image_eq(a: GreyImage, b: GreyImage) -> bool:
    if a.grid != b.grid or a.carrier != b.carrier:
        raise CarrierMismatchError("images are not comparable")
    eq = a.carrier.eq
    return all(eq(x, y) for x, y in zip(a.values, b.values))


def random_image(grid: Grid, carrier: Carrier, rng: random.Random) -> GreyImage:
    els = tuple(carrier.elements())
    return GreyImage._trusted(
        grid, carrier, tuple(rng.choice(els) for _ in range(grid.size))
    )


# ---------------------------------------------------------------- kernel

def kernel_of_structuring(se: StructuringElement, grid: Grid) -> Kernel:
    """The translate kernel k(x, y) = A(y - x): row x holds A(a) at the
    cell `grid.shift(x, a)`, for each offset a of the support.

    It is built from its bands, at most |support| entries per cell, never
    from the |cells|^2 dense rows.  Its right-hand transforms
    `apply_direct_right`/`apply_inverse_right` are
    `dilate_grey`/`erode_grey` on both grid modes.  A bounded grid drops
    the targets that leave it, which gives the clipped kernel.  On a
    torus two support offsets meeting at the same cell would make the
    kernel ambiguous and are refused.
    """
    q = se.carrier
    if grid.mode == WRAP:
        seen = set()
        for off, _ in se.entries:
            c = grid.canonical(off)
            if c in seen:
                raise ValueError(f"offsets collide on the torus at {c}")
            seen.add(c)
    cells, w = grid.cells(), grid.width
    bands = []
    for x in cells:
        band = []
        for a, v in se.entries:
            y = grid.shift(x, a)
            if y is not None:
                band.append((y[1] * w + y[0], v))
        # the targets of one cell are distinct, so only positions are compared
        band.sort()
        bands.append(tuple(band))
    return Kernel._trusted(q, cells, cells, tuple(bands))


# ------------------------------------------------------------------ I/O

def save_structuring(path, se: StructuringElement) -> None:
    """Write `w h ox oy` then the bounding-box grid of weights.

    Chain weights are written as exact fractions of the denominator,
    float weights as decimals; cells outside the support write 0.
    """
    xs = [off[0] for off, _ in se.entries]
    ys = [off[1] for off, _ in se.entries]
    ox, oy = -min(xs), -min(ys)
    w, h = max(xs) + ox + 1, max(ys) + oy + 1
    lines = [f"{w} {h} {ox} {oy}"]
    for y in range(h):
        weights = (se.weight((x - ox, y - oy)) for x in range(w))
        lines.append(" ".join(str(se.carrier.fraction(v)) for v in weights))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _structuring_tokens(path) -> tuple:
    """Box width, origin and the weight tokens of an element file."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) < 4:
        raise ValueError("structuring element file too short")
    w, h, ox, oy = (parse_integer(t, "header token") for t in tokens[:4])
    body = tokens[4:]
    if w < 1 or h < 1:
        raise ValueError("structuring element box must be positive")
    if len(body) != w * h:
        raise ValueError(f"expected {w * h} weights, found {len(body)}")
    return w, ox, oy, body


def structuring_denominator(path) -> int:
    """The least chain denominator with every weight of the file a level."""
    _, _, _, body = _structuring_tokens(path)
    return math.lcm(*(parse_fraction(tok).denominator for tok in body))


def load_structuring(path, carrier: Carrier | None = None) -> StructuringElement:
    """Read a structuring element; defaults to the Lukasiewicz float
    carrier.  Chain carriers scale decimal or fraction tokens onto
    exact levels and refuse values that land between levels."""
    if carrier is None:
        carrier = FloatUnitQuantale(LUKASIEWICZ)
    w, ox, oy, body = _structuring_tokens(path)
    entries = tuple(
        ((i % w - ox, i // w - oy), _parse_weight(carrier, tok)) for i, tok in enumerate(body)
    )
    return StructuringElement(carrier, entries)


def _parse_weight(carrier: Carrier, token: str):
    f = parse_fraction(token)
    if not 0 <= f <= 1:
        raise ValueError(f"weight {token} outside the unit interval")
    return carrier.ratio(f.numerator, f.denominator, f"weight {token}")
