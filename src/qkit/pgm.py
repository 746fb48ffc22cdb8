"""Minimal PGM (netpbm grey) reader and writer.

P2 (ASCII) and P5 (binary) with maxval up to 255.  The writer emits a
canonical form, so write -> read -> write is byte-identical for P2 and
value-identical for P5.  Header comments are accepted on input and
never produced on output.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PgmImage:
    """Grey pixels in [0, maxval], row-major."""

    width: int
    height: int
    maxval: int
    pixels: tuple

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image sides must be positive")
        if not 1 <= self.maxval <= 255:
            raise ValueError(f"maxval {self.maxval} outside 1..255")
        px = tuple(map(int, self.pixels))
        object.__setattr__(self, "pixels", px)
        if len(px) != self.width * self.height:
            raise ValueError(
                f"expected {self.width * self.height} pixels, got {len(px)}"
            )
        if min(px) < 0 or max(px) > self.maxval:
            bad = next(v for v in px if not 0 <= v <= self.maxval)
            raise ValueError(f"pixel {bad} outside 0..{self.maxval}")

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


def _integer(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{where} token '{token}' is not an integer") from None


def read_pgm(path) -> PgmImage:
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _header_tokens(data)
    magic, _ = next(tokens)
    if magic not in ("P2", "P5"):
        raise ValueError(f"not a PGM file (magic {magic!r})")
    (w, _), (h, _), (maxval, end) = next(tokens), next(tokens), next(tokens)
    w, h, maxval = (_integer(t, "header") for t in (w, h, maxval))
    if magic == "P2":
        # line by line, so that no list of every raster token is built
        pixels = []
        try:
            for line in data[end:].splitlines():
                pixels.extend(map(int, line.split()))
        except ValueError:
            for tok in line.split():
                _integer(tok.decode("ascii", "backslashreplace"), "raster")
    else:
        # single whitespace byte separates header from raster
        raster = data[end + 1 :]
        if len(raster) < w * h:
            raise ValueError("truncated raster")
        pixels = raster[: w * h]
    return PgmImage(w, h, maxval, pixels)


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
