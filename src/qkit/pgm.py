"""Minimal PGM (netpbm grey) reader and writer.

P2 (ASCII) and P5 (binary) with maxval up to 255.  The writer emits a
canonical form, so write -> read -> write is byte-identical for P2 and
value-identical for P5.  Header comments are accepted on input and
never produced on output.

Values are checked where they enter: the public `PgmImage` constructor
and `read_pgm` check every pixel, the reader once per pixel.  Images
whose pixels were computed from checked values, such as the codec's
reconstructions, are built by the private `PgmImage._trusted`, which
checks nothing.
"""
from __future__ import annotations

from dataclasses import dataclass

from qkit.quantale import parse_integer


@dataclass(frozen=True)
class PgmImage:
    """Grey pixels in [0, maxval], row-major."""

    width: int
    height: int
    maxval: int
    pixels: tuple

    def __post_init__(self):
        _check_header(self.width, self.height, self.maxval)
        px = tuple(map(int, self.pixels))
        object.__setattr__(self, "pixels", px)
        _check_pixels(self.width, self.height, self.maxval, px)

    @classmethod
    def _trusted(cls, width: int, height: int, maxval: int, pixels: tuple) -> "PgmImage":
        """An image whose sides, maxval and pixel tuple are known to pass
        the constructor's checks; builds it without repeating them."""
        image = object.__new__(cls)
        object.__setattr__(image, "width", width)
        object.__setattr__(image, "height", height)
        object.__setattr__(image, "maxval", maxval)
        object.__setattr__(image, "pixels", pixels)
        return image

    def at(self, x: int, y: int) -> int:
        return self.pixels[y * self.width + x]

    def rows(self) -> tuple:
        return tuple(
            self.pixels[y * self.width : (y + 1) * self.width]
            for y in range(self.height)
        )


def _header_tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
    i = 0
    n = len(data)
    while True:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] != ord("\n"):
                i += 1
            continue
        if i >= n:
            raise ValueError("truncated header")
        start = i
        while i < n and not data[i : i + 1].isspace():
            i += 1
        yield data[start:i].decode("ascii", "backslashreplace"), i


def _check_header(width: int, height: int, maxval: int) -> None:
    if width < 1 or height < 1:
        raise ValueError("image sides must be positive")
    if not 1 <= maxval <= 255:
        raise ValueError(f"maxval {maxval} outside 1..255")


def _check_pixels(width: int, height: int, maxval: int, px: tuple) -> None:
    """Refuses a pixel tuple of the wrong length or with a value outside
    0..maxval; px holds ints."""
    if len(px) != width * height:
        raise ValueError(f"expected {width * height} pixels, got {len(px)}")
    if min(px) < 0 or max(px) > maxval:
        bad = next(v for v in px if not 0 <= v <= maxval)
        raise ValueError(f"pixel {bad} outside 0..{maxval}")


def read_pgm(path) -> PgmImage:
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _header_tokens(data)
    magic, _ = next(tokens)
    if magic not in ("P2", "P5"):
        raise ValueError(f"not a PGM file (magic {magic!r})")
    (w, _), (h, _), (maxval, end) = next(tokens), next(tokens), next(tokens)
    w, h, maxval = (parse_integer(t, "header token") for t in (w, h, maxval))
    if magic == "P2":
        # line by line, so that no list of every raster token is built
        pixels = []
        try:
            for line in data[end:].splitlines():
                pixels.extend(map(int, line.split()))
        except ValueError:
            for tok in line.split():
                parse_integer(tok.decode("ascii", "backslashreplace"), "raster token")
        pixels = tuple(pixels)
    else:
        # single whitespace byte separates header from raster
        raster = data[end + 1 :]
        if len(raster) < w * h:
            raise ValueError("truncated raster")
        pixels = tuple(raster[: w * h])
    _check_header(w, h, maxval)
    _check_pixels(w, h, maxval, pixels)
    return PgmImage._trusted(w, h, maxval, pixels)


def write_pgm(path, image: PgmImage, binary: bool = False) -> None:
    header = f"{image.width} {image.height}\n{image.maxval}\n"
    if binary:
        with open(path, "wb") as fh:
            fh.write(b"P5\n" + header.encode("ascii"))
            fh.write(bytes(image.pixels))
        return
    lines = [f"P2\n{header}"]
    for row in image.rows():
        lines.append(" ".join(map(str, row)) + "\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(lines))


def ramp_image(width: int, height: int, maxval: int) -> PgmImage:
    """Diagonal test ramp: brightness grows with x + y, exact endpoints."""
    span = (width - 1) + (height - 1)
    px = tuple(
        (x + y) * maxval // span if span else maxval
        for y in range(height)
        for x in range(width)
    )
    return PgmImage(width, height, maxval, px)
