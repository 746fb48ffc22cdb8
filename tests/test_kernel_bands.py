"""Kernels built from their bands equal the dense builds they replaced.

Every kernel the library makes hands over only its non-bottom entries:
the translate and triangular kernels, transposes, joins and scalings,
the projective kernels, cores and extensions, the random kernels and
the partition kernel.  The dense bodies they had are kept here as
references: the band-built kernel's `rows`, its bands `_inverse_rows`,
its sparse transpose `_direct_cols` and its `entry` lookups must equal
what the dense rows give, entry for entry and type for type.  At grid
size neither the transforms nor the kernel algebra may build the dense
rows at all.
"""
import itertools
import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from qkit.fuzzy import FuzzyPartition, GridAlignmentWarning, luk_kernel, luk_partition
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
    Kernel,
    _same_kernel,
    apply_direct,
    apply_direct_right,
    apply_inverse,
    apply_inverse_right,
    core,
    kernel_closure,
    projective_coder,
    projective_extension,
    random_kernel,
    random_strong_kernel,
    support,
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
    """The dense rows `luk_kernel` built before it built bands; their
    transpose is the table `luk_partition` built."""
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


# The kernel algebra, the projective kernels and the random and partition
# kernels built dense rows before they built bands.  Their dense bodies
# are kept as the `ref_*` references below; each hands its rows to the
# public `Kernel`, which keeps them as `rows`, so a comparison sees every
# entry with the type the dense body gave it.  A bottom entry of a
# band-built kernel reads as `carrier.bot`, so unit-interval entries are
# drawn as floats (the integer 1 included): the float carrier's integer
# 0 would read back as 0.0.


def ref_transpose(p):
    cols = tuple(tuple(row[j] for row in p.rows) for j in range(len(p.y_index)))
    return Kernel(p.carrier, p.y_index, p.x_index, cols)


def ref_pointwise_join(p, others):
    join2, rows = p.carrier.join2, p.rows
    for other in others:
        rows = tuple(
            tuple(join2(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(rows, other.rows)
        )
    return Kernel(p.carrier, p.x_index, p.y_index, rows, p.embedding)


def ref_scale_left(p, q):
    mul = p.carrier.mul
    rows = tuple(tuple(mul(q, v) for v in row) for row in p.rows)
    return Kernel(p.carrier, p.x_index, p.y_index, rows, p.embedding)


def ref_projective_coder(carrier, x_index, y_index):
    e, bot = carrier.unit, carrier.bot
    rows = tuple(tuple(e if x == y else bot for y in y_index) for x in x_index)
    return Kernel(carrier, x_index, y_index, rows)


def ref_support(p):
    q = p.carrier
    return tuple(
        y
        for j, y in enumerate(p.y_index)
        if not all(q.eq(row[j], q.unit if x == y else q.bot) for x, row in zip(p.x_index, p.rows))
    )


def ref_core(p):
    keep = set(ref_support(p))
    cols = [j for j, y in enumerate(p.y_index) if y in keep]
    rows = tuple(tuple(row[j] for j in cols) for row in p.rows)
    return Kernel(p.carrier, p.x_index, tuple(p.y_index[j] for j in cols), rows)


def ref_projective_extension(p, z_index):
    e, bot, ypos = p.carrier.unit, p.carrier.bot, p._y_pos
    rows = tuple(
        tuple(row[ypos[z]] if z in ypos else (e if x == z else bot) for z in z_index)
        for x, row in zip(p.x_index, p.rows)
    )
    return Kernel(p.carrier, p.x_index, z_index, rows)


def ref_same_kernel(a, b):
    eq = a.carrier.eq
    return a.y_index == b.y_index and all(
        eq(u, v) for ra, rb in zip(a.rows, b.rows) for u, v in zip(ra, rb)
    )


def ref_random_kernel(carrier, x_index, y_index, rng, embedding=None):
    els = tuple(carrier.elements())
    rows = tuple(tuple(rng.choice(els) for _ in y_index) for _ in x_index)
    return Kernel(carrier, x_index, y_index, rows, embedding)


def ref_random_strong_kernel(carrier, x_index, y_index, rng):
    els, e, bot = tuple(carrier.elements()), carrier.unit, carrier.bot
    rows = tuple(
        tuple(e if y == x else bot for y in y_index)
        if x in y_index
        else tuple(rng.choice(els) for _ in y_index)
        for x in x_index
    )
    return Kernel(carrier, x_index, y_index, rows)


def ref_partition_kernel(part):
    return Kernel(part.carrier, tuple(range(part.l)), tuple(range(part.n)), tuple(zip(*part.table)))


def _same(kernel, ref):
    """Same labels and embedding, and the reference's rows entry for entry
    and type for type."""
    assert (kernel.x_index, kernel.y_index, kernel.embedding) == (
        ref.x_index,
        ref.y_index,
        ref.embedding,
    )
    _check_against_rows(kernel, ref.rows)
    assert kernel == ref


def _entries(q):
    """(near bottom, near the unit, any element): bottom and the unit come
    up as often as the rest, and on the unit interval so do values within
    the tolerance of them."""
    if q.is_finite:
        low, high = st.just(q.bot), st.just(q.unit)
        other = st.sampled_from(tuple(q.elements()))
    else:
        low, high = st.sampled_from((0.0, 1e-12)), st.sampled_from((1.0, 1.0 - 1e-12, 1))
        other = st.one_of(st.just(0.5), st.floats(0.0, 1.0))
    return low, high, st.one_of(low, high, other)


def _draw_kernel(draw, q, x_index, y_index, embedding=None):
    """Any entries, with some columns under labels of X (near) projection
    columns, so that supports and cores vary."""
    low, high, value = _entries(q)
    rows = [[draw(value) for _ in y_index] for _ in x_index]
    for j, y in enumerate(y_index):
        if y in x_index and draw(st.booleans()):
            for i, x in enumerate(x_index):
                rows[i][j] = draw(high if x == y else low)
    return Kernel(q, x_index, y_index, tuple(map(tuple, rows)), embedding)


def _nudged(p):
    """p with every unit-interval entry moved by 1e-12, within the tolerance."""
    if p.carrier.is_finite:
        return p
    rows = tuple(tuple(v + 1e-12 if v < 0.5 else v - 1e-12 for v in row) for row in p.rows)
    return Kernel(p.carrier, p.x_index, p.y_index, rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_transpose_join_and_scale_match_the_dense_bodies(data):
    q = data.draw(st.sampled_from(CARRIERS))
    X = tuple(range(data.draw(st.integers(1, 5))))
    Y = tuple(range(data.draw(st.integers(1, 5))))  # labels in X or not
    embedding = data.draw(st.one_of(st.none(), st.tuples(*(st.sampled_from(X) for _ in Y))))
    p = _draw_kernel(data.draw, q, X, Y, embedding)
    _same(p.transpose(), ref_transpose(p))
    back = p.transpose().transpose()
    assert _typed(back._inverse_rows) == _typed(p._inverse_rows)
    assert _typed(back._direct_cols) == _typed(p._direct_cols)
    others = [_draw_kernel(data.draw, q, X, Y) for _ in range(data.draw(st.integers(0, 2)))]
    _same(p.pointwise_join(others), ref_pointwise_join(p, others))
    scalar = data.draw(_entries(q)[2])
    _same(p.scale_left(scalar), ref_scale_left(p, scalar))


def test_scale_left_drops_the_products_that_hit_bottom():
    q = ChainQuantale(4, LUKASIEWICZ)
    p = Kernel(q, (0, 1), (0, 1, 2), ((4, 3, 1), (2, 0, 4)))
    scaled = p.scale_left(2)  # 2 . v = max(0, v - 2)
    assert scaled._inverse_rows == (((0, 2), (1, 1)), ((2, 2),))
    _same(scaled, ref_scale_left(p, 2))
    assert p.scale_left(q.bot)._inverse_rows == ((), ())
    _same(p.scale_left(q.bot), ref_scale_left(p, q.bot))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_projective_producers_match_the_dense_bodies(data):
    q = data.draw(st.sampled_from(CARRIERS))
    X = tuple(range(data.draw(st.integers(1, 5))))
    Y = tuple(data.draw(st.permutations(sorted(data.draw(st.sets(st.sampled_from(X), min_size=1))))))
    Z = tuple(data.draw(st.permutations(sorted(set(Y) | data.draw(st.sets(st.sampled_from(X)))))))
    _same(projective_coder(q, X, Y), ref_projective_coder(q, X, Y))
    p, p2 = _draw_kernel(data.draw, q, X, Y), _draw_kernel(data.draw, q, X, Y)
    assert support(p) == ref_support(p)
    _same(core(p), ref_core(p))
    _same(projective_extension(p, Z), ref_projective_extension(p, Z))
    _same(kernel_closure(p), ref_projective_extension(p, X))
    for a, b in (
        (p, p2),
        (p, _nudged(p)),
        (core(p), core(p2)),
        (core(p), core(_nudged(p))),
        (kernel_closure(p), kernel_closure(p2)),
    ):
        assert _same_kernel(a, b) == ref_same_kernel(a, b)


@pytest.mark.parametrize("q", (CARRIERS[0], CARRIERS[1], CARRIERS[3]), ids=repr)
def test_random_kernels_keep_their_draws(q):
    X, Y = (0, 1, 2, 3, 4), (1, 3)
    for seed in range(20):
        embedding = (0, 4) if seed % 2 else None
        rng, ref_rng = random.Random(seed), random.Random(seed)
        _same(random_kernel(q, X, Y, rng, embedding), ref_random_kernel(q, X, Y, ref_rng, embedding))
        _same(random_strong_kernel(q, X, Y, rng), ref_random_strong_kernel(q, X, Y, ref_rng))
        assert rng.random() == ref_rng.random()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_partition_kernel_matches_the_dense_body(data):
    q = data.draw(st.sampled_from(CARRIERS))
    n, l = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    table = [[data.draw(_entries(q)[2]) for _ in range(l)] for _ in range(n)]
    for i in range(max(n, l)):  # covering and density hold
        table[i % n][i % l] = q.unit
    part = FuzzyPartition(q, table)
    _same(part.kernel(), ref_partition_kernel(part))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(luk_cases())
def test_luk_partition_table_matches_the_dense_rows(case):
    n, l, carrier = case
    part = luk_partition(n, l, carrier)
    assert _typed(part.table) == _typed(tuple(zip(*_dense_luk_rows(n, l, part.carrier))))


def _outcome(build):
    try:
        return _typed(build())
    except ValueError as exc:
        return str(exc)


def test_luk_partition_refuses_what_the_dense_table_refused():
    """n > l, where some hat sees no node, and chains that miss a basis
    value: the partition from bands and the one from the dense table give
    the same table or the same error."""
    for n, l in itertools.product(range(2, 9), range(2, 9)):
        for q in (ChainQuantale(math.lcm(l - 1, n - 1)), ChainQuantale(5), ChainQuantale(7, GODEL)):
            dense = _outcome(lambda: FuzzyPartition(q, tuple(zip(*_dense_luk_rows(n, l, q)))).table)
            assert _outcome(lambda: luk_partition(n, l, q).table) == dense, (n, l, q)


def test_kernel_algebra_at_grid_size_never_builds_rows():
    """Transposes, joins and scalings of the 48^2 translate kernel work on
    its bands: neither the inputs nor the results hold dense rows."""
    rng = random.Random(5)
    q = ChainQuantale(255)
    for mode in (WRAP, BOUNDED):
        grid = Grid(48, 48, mode)
        p, other = (
            kernel_of_structuring(
                StructuringElement.from_dict(
                    q, {(dx, dy): rng.randrange(1, 256) for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
                ),
                grid,
            )
            for _ in range(2)
        )
        back = p.transpose().transpose()
        results = (p.transpose(), back, p.pointwise_join([other]), p.scale_left(200))
        for kernel in (p, other, *results):
            assert "rows" not in kernel.__dict__
        assert back._inverse_rows == p._inverse_rows
