"""Results built by the private trusted constructors re-validate.

Vectors, kernels, grey images and PGM images that come out of carrier
operations skip the checks of the public constructors.  For every such
producer, rebuilding its result through the public constructor must
succeed and give an equal object; a carrier operation that left the
carrier would fail here.
"""
import itertools
import os
import random
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from qkit.fuzzy import FuzzyPartition, GridAlignmentWarning, luk_kernel, luk_partition
from qkit.morphology import (
    Grid,
    GreyImage,
    StructuringElement,
    dilate_grey,
    erode_grey,
    image_from_set,
    image_join,
    image_meet,
    kernel_of_structuring,
    random_image,
    translate_image,
)
from qkit.pgm import PgmImage, read_pgm, write_pgm
from qkit.qmodule import (
    ModuleVector,
    basis_vector,
    constant_vector,
    enumerate_vectors,
    random_vector,
    scalar_ldiv,
    scalar_mul,
    vec_join,
    vec_meet,
)
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
    apply_direct,
    apply_direct_right,
    apply_inverse,
    apply_inverse_right,
    core,
    projective_coder,
    projective_extension,
    random_kernel,
    random_strong_kernel,
)

CARRIERS = (
    *(ChainQuantale(d, t) for t in (LUKASIEWICZ, GODEL) for d in (1, 4, 255)),
    *(FloatUnitQuantale(t) for t in (LUKASIEWICZ, GODEL, PRODUCT)),
    PowersetMonoidQuantale(Monoid.cyclic(3)),
    PowersetMonoidQuantale(Monoid.symmetric(3)),
)
X, Y, Z = (0, 1, 2), (0, 2), (0, 1, 2)
GRID = Grid(3, 2)


def _values(q):
    if q.is_finite:
        return st.sampled_from(tuple(q.elements()))
    # ints 0 and 1 are elements of the unit interval too
    return st.one_of(st.sampled_from((0, 1, 0.0, 1.0, 0.5)), st.floats(0.0, 1.0))


def _revalidate(obj):
    """obj rebuilt through its public constructor; equal, or it raises."""
    if isinstance(obj, ModuleVector):
        again = ModuleVector(obj.carrier, obj.index, obj.values)
    elif isinstance(obj, Kernel):
        again = Kernel(obj.carrier, obj.x_index, obj.y_index, obj.rows, obj.embedding)
    elif isinstance(obj, GreyImage):
        again = GreyImage(obj.grid, obj.carrier, obj.values)
    else:
        again = PgmImage(obj.width, obj.height, obj.maxval, obj.pixels)
    assert again == obj
    return again


@pytest.mark.parametrize("q", CARRIERS, ids=repr)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_trusted_results_revalidate(q, data):
    value = _values(q)

    def vector(index):
        return ModuleVector(q, index, tuple(data.draw(value) for _ in index))

    def kernel(xs, ys):
        rows = tuple(tuple(data.draw(value) for _ in ys) for _ in xs)
        return Kernel(q, xs, ys, rows)

    def image():
        return GreyImage(GRID, q, tuple(data.draw(value) for _ in range(GRID.size)))

    a, b = data.draw(value), data.draw(value)
    m, n = vector(X), vector(X)
    p = kernel(X, Y)
    f, g = vector(X), vector(Y)
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    results = [
        vec_join([m, n]),
        vec_meet([m, n]),
        scalar_mul(a, m),
        scalar_ldiv(a, m),
        constant_vector(q, X, b),
        basis_vector(q, X, 1),
        random_vector(q, X, rng),
        apply_direct(p, f),
        apply_inverse(p, g),
        apply_direct_right(p, f),
        apply_inverse_right(p, g),
        p.transpose(),
        p.pointwise_join([kernel(X, Y)]),
        p.scale_left(a),
        projective_coder(q, X, Y),
    ]
    # core and extension need Y inside X with the identity embedding
    s = kernel(Z, Y)
    results += [core(s), projective_extension(s, Z)]
    # grey morphology: every row-shift pass, joins and meets, set images
    se = StructuringElement(
        q, (((0, 0), q.unit), *(((dx, 1), data.draw(value)) for dx in range(3)))
    )
    x, y = image(), image()
    results += [
        dilate_grey(x, se),
        erode_grey(x, se),
        translate_image(x, (1, 1)),
        image_join(x, y),
        image_meet(x, y),
        image_from_set(GRID, q, {(0, 0), (2, 1)}),
        kernel_of_structuring(se, GRID),
    ]
    if q.is_finite:
        results += [
            *itertools.islice(enumerate_vectors(q, Y), 40),
            random_kernel(q, X, Y, rng),
            random_strong_kernel(q, Z, Y, rng),
            random_image(GRID, q, rng),
        ]
    for result in results:
        _revalidate(result)


@pytest.mark.parametrize("q", (None, FloatUnitQuantale(LUKASIEWICZ)), ids=repr)
@pytest.mark.parametrize("n, l", ((2, 2), (3, 5), (4, 10), (61, 1021), (3, 6), (4, 11)))
def test_luk_kernel_revalidates(q, n, l):
    # (3, 6) and (4, 11) miss the peaks and carry an explicit embedding
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridAlignmentWarning)
        _revalidate(luk_kernel(n, l, q))


@pytest.mark.parametrize(
    "q",
    (ChainQuantale(60, LUKASIEWICZ), ChainQuantale(60, GODEL), FloatUnitQuantale(LUKASIEWICZ)),
    ids=repr,
)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_partition_kernel_revalidates(q, data):
    """A partition's kernel is built from the table its constructor
    checked; drawn tables and the triangular basis both re-validate."""
    l = data.draw(st.integers(2, 6))
    n = data.draw(st.integers(1, min(4, l)))
    table = [[data.draw(_values(q)) for _ in range(l)] for _ in range(n)]
    for j in range(l):  # covering: some basis function sees node j
        if all(q.eq(row[j], q.bot) for row in table):
            table[j % n][j] = q.unit
    for k, row in enumerate(table):  # density: basis function k sees a node
        if all(q.eq(v, q.bot) for v in row):
            row[k % l] = q.unit
    # 60 is a multiple of every l - 1, so the basis values are levels
    for part in (FuzzyPartition(q, table), luk_partition(n, l, q)):
        assert _revalidate(part.kernel()).rows == tuple(zip(*part.table))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    maxval=st.integers(1, 255),
    side=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    binary=st.booleans(),
    data=st.data(),
)
def test_read_pgm_results_revalidate(maxval, side, binary, data):
    w, h = side
    pixels = tuple(data.draw(st.integers(0, maxval)) for _ in range(w * h))
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "in.pgm")
        write_pgm(path, PgmImage(w, h, maxval, pixels), binary=binary)
        image = read_pgm(path)
    assert _revalidate(image).pixels == pixels
