"""The codec's int64 path, and the one module that imports numpy.

On an integer chain the separable codec runs on whole int64 arrays:
pixel scaling, both transform stages and the rounding back to pixels.
The per-vector `apply_direct`/`apply_inverse` are the reference it is
tested against.  numpy is imported lazily, by `_int64_numpy`, so
importing qkit, `qkit morph` and `qkit laws` never load it.
"""
from __future__ import annotations

from qkit.quantale import LUKASIEWICZ

# On a chain of denominator d every value the codec handles is a level
# in [0, d].  A pixel p <= maxval scales to p * (d / maxval) <= d, a
# Lukasiewicz product x + v - d and a residual d - v + z stay within
# [-d, 2d], and rounding a level v back to a pixel takes
# 2 v maxval + d <= 2 d 255 + d = 511 d, the largest of them.  So for
# maxval <= 255 every intermediate fits int64 iff 511 d <= 2**63 - 1.
_INT64_D_MAX = (2**63 - 1) // 511


def _int64_numpy(carrier, maxval: int):
    """numpy, when the codec over this carrier may run on int64 arrays
    (never on the float carrier, whose denominator is 0); else None."""
    if not (0 < carrier.denominator <= _INT64_D_MAX and 1 <= maxval <= 255):
        return None
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def _bands(np, bands):
    """Sparse (position, value) bands of a chain kernel as equal-width
    index and value arrays; short bands are padded with bottom entries
    (level 0) at position 0, which change no join (direct) and no meet
    (inverse)."""
    width = max(map(len, bands), default=0)
    idx = np.zeros((len(bands), width), dtype=np.intp)
    val = np.zeros((len(bands), width), dtype=np.int64)
    for r, band in enumerate(bands):
        if band:
            idx[r, : len(band)], val[r, : len(band)] = zip(*band)
    return idx, val


def _array_direct(np, p, a):
    """apply_direct on every row of the int64 array a (one vector per
    row, one column per x); p is over a chain.  Every intermediate stays
    within [-d, 2d]."""
    d = p.carrier.d
    idx, val = _bands(np, p._direct_cols)
    acc = np.zeros((a.shape[0], len(p.y_index)), dtype=np.int64)  # bot
    for k in range(idx.shape[1]):
        x, v = a[:, idx[:, k]], val[:, k]
        if p.carrier.tnorm == LUKASIEWICZ:
            # starting from 0, this is max(0, max_i(x_i + v_i) - d)
            np.maximum(acc, x + v - d, out=acc)
        else:
            np.maximum(acc, np.minimum(x, v), out=acc)
    return acc


def _array_inverse(np, p, a):
    """apply_inverse on every row of the int64 array a (one vector per
    row, one column per y); p is over a chain.  Every intermediate stays
    within [0, 2d]."""
    d = p.carrier.d
    idx, val = _bands(np, p._inverse_rows)
    acc = np.full((a.shape[0], len(p.x_index)), d, dtype=np.int64)  # top
    for k in range(idx.shape[1]):
        z, v = a[:, idx[:, k]], val[:, k]
        if p.carrier.tnorm == LUKASIEWICZ:
            # starting from d, this is min(d, d + min_j(z_j - v_j))
            np.minimum(acc, d - v + z, out=acc)
        else:
            np.minimum(acc, np.where(v <= z, d, z), out=acc)
    return acc


def _direct_pixels(np, kern_w, kern_h, pixels, scale: int) -> tuple:
    """Pixels times the chain's scale d / maxval, then rows then columns;
    the coefficient matrix as row tuples of Python ints."""
    levels = np.array(pixels, dtype=np.int64).reshape(-1, len(kern_w.x_index))
    levels *= scale
    rows = _array_direct(np, kern_w, levels)
    return tuple(map(tuple, _array_direct(np, kern_h, rows.T).T.tolist()))


def _inverse_pixels(np, kern_w, kern_h, coeffs, maxval: int) -> tuple:
    """Inverts the column stage, then the row stage, of levels, and rounds
    each level v to the pixel (2 v maxval + d) // 2d; returns the pixels
    and whether some level fell between two pixel values."""
    d = kern_w.carrier.d
    cols = _array_inverse(np, kern_h, np.array(coeffs, dtype=np.int64).T)
    levels = _array_inverse(np, kern_w, cols.T)
    # in place, so that no further image-sized array is allocated
    pixels = levels * (2 * maxval)
    pixels += d
    pixels //= 2 * d
    levels *= maxval
    levels %= d
    return pixels.ravel().tolist(), bool(levels.any())
