"""Kernels built from their bands equal the dense builds they replaced.

`kernel_of_structuring` and `luk_kernel` hand over only their non-bottom
entries.  The dense bodies they had are kept here as references: the
band-built kernel's `rows`, its bands `_inverse_rows`, its sparse
transpose `_direct_cols` and its `entry` lookups must equal what the
dense rows give, entry for entry and type for type.  At grid size the
transforms must never build the dense rows at all.
"""
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from qkit.fuzzy import GridAlignmentWarning, luk_kernel
from qkit.morphology import BOUNDED, WRAP, Grid, StructuringElement, kernel_of_structuring
from qkit.qmodule import ModuleVector
from qkit.quantale import (
    GODEL,
    LUKASIEWICZ,
    PRODUCT,
    ChainQuantale,
    FloatUnitQuantale,
    Monoid,
    PowersetMonoidQuantale,
)
from qkit.transform import (
    apply_direct,
    apply_direct_right,
    apply_inverse,
    apply_inverse_right,
)

CARRIERS = (
    ChainQuantale(4, LUKASIEWICZ),
    ChainQuantale(4, GODEL),
    FloatUnitQuantale(LUKASIEWICZ),
    PowersetMonoidQuantale(Monoid.symmetric(3)),
)
EDGE_GRIDS = ((1, 1), (1, 5), (5, 1), (4, 3))


def _dense_translate_rows(se, grid):
    """The dense rows `kernel_of_structuring` built before it built bands."""
    cells, w, bot = grid.cells(), grid.width, se.carrier.bot
    rows = []
    for x in cells:
        row = [bot] * grid.size
        for a, v in se.entries:
            y = grid.shift(x, a)
            if y is not None:
                row[y[1] * w + y[0]] = v
        rows.append(tuple(row))
    return tuple(rows)


def _dense_luk_rows(n, l, carrier):
    """The dense rows `luk_kernel` built before it built bands."""
    L, N = l - 1, n - 1
    nums = [[max(0, L - abs(N * j - k * L)) for j in range(l)] for k in range(n)]
    return tuple(zip(*[[carrier.ratio(v, L) for v in row] for row in nums]))


def _typed(obj):
    """Nested tuples with every leaf paired with its type."""
    return tuple(map(_typed, obj)) if isinstance(obj, tuple) else (type(obj), obj)


def _check_against_rows(kernel, rows):
    """The kernel's dense form, bands, sparse transpose and entries are
    those of rows."""
    bot = kernel.carrier.bot
    bands = tuple(
        tuple((j, v) for j, v in enumerate(row) if v != bot) for row in rows
    )
    cols = [[] for _ in kernel.y_index]
    for i, band in enumerate(bands):
        for j, v in band:
            cols[j].append((i, v))
    assert _typed(kernel._inverse_rows) == _typed(bands)
    assert _typed(kernel._direct_cols) == _typed(tuple(map(tuple, cols)))
    assert _typed(kernel.rows) == _typed(rows)
    entries = tuple(tuple(kernel.entry(x, y) for y in kernel.y_index) for x in kernel.x_index)
    assert _typed(entries) == _typed(rows)


def _weights(q):
    if q.is_finite:
        return st.sampled_from(tuple(q.elements()))
    return st.one_of(st.sampled_from((0.0, 1.0, 0.5, 1e-12, 1)), st.floats(0.0, 1.0))


@st.composite
def translate_cases(draw):
    q = draw(st.sampled_from(CARRIERS))
    grid = Grid(draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.sampled_from((WRAP, BOUNDED))))
    offsets = draw(st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=5))
    entries = {off: draw(_weights(q)) for off in offsets}
    entries[min(offsets)] = q.unit  # the support is never empty
    return StructuringElement.from_dict(q, entries), grid


@settings(max_examples=200, deadline=None, derandomize=True)
@given(translate_cases())
def test_translate_kernel_bands_match_the_dense_build(case):
    se, grid = case
    if grid.mode == WRAP and len({grid.canonical(a) for a, _ in se.entries}) < len(se.entries):
        with pytest.raises(ValueError, match="collide"):
            kernel_of_structuring(se, grid)
        return
    _check_against_rows(kernel_of_structuring(se, grid), _dense_translate_rows(se, grid))


@pytest.mark.parametrize("q", CARRIERS, ids=repr)
@pytest.mark.parametrize("mode", (WRAP, BOUNDED))
@pytest.mark.parametrize("side", EDGE_GRIDS)
def test_translate_kernel_bands_on_edge_grids(q, mode, side):
    """1x1, 1xn and nx1 grids, where a torus folds several offsets onto
    one cell and a bounded grid clips most of them."""
    grid = Grid(*side, mode)
    offsets = [(0, 0), (1, 0), (0, 1)] if mode == WRAP else [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    if mode == WRAP:  # keep only offsets that land on distinct cells
        offsets = list({grid.canonical(a): a for a in reversed(offsets)}.values())
    els = (q.unit, q.top) if not q.is_finite else tuple(q.elements())[1:]
    se = StructuringElement(q, tuple((a, els[i % len(els)]) for i, a in enumerate(offsets)))
    _check_against_rows(kernel_of_structuring(se, grid), _dense_translate_rows(se, grid))


@st.composite
def luk_cases(draw):
    n = draw(st.integers(2, 8))
    l = draw(st.integers(n, 30))
    L, N = l - 1, n - 1
    carrier = draw(
        st.sampled_from(
            (
                None,
                ChainQuantale(2 * L * N, GODEL),
                FloatUnitQuantale(LUKASIEWICZ),
                FloatUnitQuantale(PRODUCT),
            )
        )
    )
    return n, l, carrier


def _luk(n, l, carrier):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridAlignmentWarning)
        return luk_kernel(n, l, carrier)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(luk_cases())
def test_luk_kernel_bands_match_the_dense_build(case):
    n, l, carrier = case
    kernel = _luk(n, l, carrier)
    _check_against_rows(kernel, _dense_luk_rows(n, l, kernel.carrier))
    assert all(len(band) <= 2 for band in kernel._inverse_rows)


@pytest.mark.parametrize(
    "n, l", ((2, 2), (2, 3), (3, 3), (3, 5), (3, 6), (4, 11), (61, 1021), (61, 1000))
)
def test_luk_kernel_bands_on_aligned_and_misaligned_grids(n, l):
    """(3, 6), (4, 11) and (61, 1000) miss the peaks; n = l puts a peak
    on every node."""
    kernel = _luk(n, l, None)
    _check_against_rows(kernel, _dense_luk_rows(n, l, kernel.carrier))
    assert sum(map(len, kernel._inverse_rows)) <= 2 * l


def test_luk_kernel_refuses_the_same_inexact_level():
    """On a chain whose levels miss a basis value, the band build names
    the same value the dense build named first."""
    q = ChainQuantale(7)
    with pytest.raises(ValueError) as dense:
        _dense_luk_rows(3, 5, q)
    with pytest.raises(ValueError) as banded:
        luk_kernel(3, 5, q)
    assert str(banded.value) == str(dense.value) == "value 1/2 is not a multiple of 1/7"


def test_translate_kernel_at_grid_size_never_builds_rows():
    """At 48^2 the translate kernel holds 9 entries per cell, and all four
    transforms run on them without the 48^4 dense rows."""
    rng = random.Random(4)
    q = ChainQuantale(255)
    weights = {(dx, dy): rng.randrange(1, 256) for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
    weights[(0, 0)] = q.unit
    se = StructuringElement.from_dict(q, weights)
    for mode in (WRAP, BOUNDED):
        grid = Grid(48, 48, mode)
        kernel = kernel_of_structuring(se, grid)
        vec = ModuleVector(q, kernel.x_index, tuple(rng.randrange(256) for _ in range(grid.size)))
        for apply in (apply_direct, apply_inverse, apply_direct_right, apply_inverse_right):
            apply(kernel, vec)
        assert "rows" not in kernel.__dict__
        entries = sum(map(len, kernel._inverse_rows))
        assert entries == (9 * grid.size if mode == WRAP else 9 * 46 * 46 + 6 * 4 * 46 + 4 * 4)
