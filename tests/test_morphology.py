import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from qkit.morphology import (
    BOUNDED,
    WRAP,
    Grid,
    GreyImage,
    StructuringElement,
    closing_binary,
    closing_grey,
    complement_set,
    dilate_binary,
    dilate_grey,
    erode_binary,
    erode_grey,
    image_eq,
    image_from_set,
    image_join,
    image_leq,
    image_meet,
    kernel_of_structuring,
    load_structuring,
    opening_binary,
    opening_grey,
    random_image,
    reflect,
    reflect_offsets,
    save_structuring,
    set_from_image,
    translate,
    translate_image,
)
from qkit.cli import main
from qkit.pgm import PgmImage, write_pgm
from qkit.quantale import (
    CarrierMismatchError,
    ChainQuantale,
    FloatUnitQuantale,
    GODEL,
    LUKASIEWICZ,
    PRODUCT,
    Monoid,
    PowersetMonoidQuantale,
)
from qkit.qmodule import FreeModule, ModuleVector, Nucleus, nucleus_check
from qkit.transform import (
    apply_direct,
    apply_direct_right,
    apply_inverse,
    apply_inverse_right,
)


def ref_translate_image(image, offset):
    """The per-cell translate: the reference for the row-shift form."""
    grid, q = image.grid, image.carrier
    neg = (-offset[0], -offset[1])
    vals = []
    for c in grid.cells():
        src = grid.shift(c, neg)
        vals.append(q.bot if src is None else image.at(src))
    return GreyImage(grid, q, tuple(vals))


def ref_dilate_grey(image, se):
    """The per-cell dilation: the reference for the row-shift form."""
    grid, q = image.grid, image.carrier
    out = []
    for c in grid.cells():
        acc = q.bot
        for off, w in se.entries:
            src = grid.shift(c, (-off[0], -off[1]))
            if src is None:
                continue
            acc = q.join2(acc, q.mul(w, image.at(src)))
        out.append(acc)
    return GreyImage(grid, q, tuple(out))


def ref_erode_grey(image, se):
    """The per-cell erosion: the reference for the row-shift form."""
    grid, q = image.grid, image.carrier
    out = []
    for c in grid.cells():
        acc = q.top
        for off, w in se.entries:
            tgt = grid.shift(c, off)
            if tgt is None:
                continue
            acc = q.meet2(acc, q.lres(w, image.at(tgt)))
        out.append(acc)
    return GreyImage(grid, q, tuple(out))


def line(*xs):
    return frozenset((x, 0) for x in xs)


def offs(*xs):
    return tuple((x, 0) for x in xs)


Z5 = Grid(5, 1)
Q1 = ChainQuantale(1, LUKASIEWICZ)


def test_grid_validation_and_shift():
    with pytest.raises(ValueError):
        Grid(0, 3)
    with pytest.raises(ValueError):
        Grid(3, 3, mode="mirror")
    g = Grid(4, 3)
    assert g.shift((3, 2), (1, 1)) == (0, 0)
    b = Grid(4, 3, mode=BOUNDED)
    assert b.shift((3, 2), (1, 0)) is None
    assert b.shift((1, 1), (1, 1)) == (2, 2)
    with pytest.raises(ValueError):
        b.canonical((1, 0))
    assert g.canonical((-1, -1)) == (3, 2)
    assert len(g.cells()) == g.size == 12


def test_translate_frozen():
    assert translate(Z5, line(1, 2), (1, 0)) == line(2, 3)
    assert translate(Z5, line(1, 2), (0, 0)) == line(1, 2)
    back = translate(Z5, translate(Z5, line(3, 4), (2, 0)), (-2, 0))
    assert back == line(3, 4)
    bounded = Grid(5, 1, mode=BOUNDED)
    assert translate(bounded, line(3, 4), (1, 0)) == line(4)


def test_dilate_erode_binary_frozen():
    a = offs(0, 1)
    assert dilate_binary(Z5, line(1, 2), a) == line(1, 2, 3)
    assert erode_binary(Z5, line(1, 2, 3), a) == line(1, 2)
    origin = offs(0)
    assert dilate_binary(Z5, line(1, 3), origin) == line(1, 3)
    assert erode_binary(Z5, line(1, 3), origin) == line(1, 3)
    everything = frozenset(Z5.cells())
    assert erode_binary(Z5, everything, a) == everything


def test_opening_closing_binary():
    a = offs(0, 1)
    assert opening_binary(Z5, line(1, 2), a) == line(1, 2)
    rng = random.Random(3)
    g = Grid(7, 1)
    for _ in range(30):
        cells = frozenset(c for c in g.cells() if rng.random() < 0.5)
        se = tuple((rng.randrange(-2, 3), 0) for _ in range(rng.randrange(1, 4)))
        opened = opening_binary(g, cells, se)
        closed = closing_binary(g, cells, se)
        assert opened <= cells <= closed
        assert opening_binary(g, opened, se) == opened
        assert closing_binary(g, closed, se) == closed


def test_reflect():
    q = ChainQuantale(4, LUKASIEWICZ)
    se = StructuringElement(q, (((0, 0), 4), ((1, 0), 2)))
    assert reflect(se).support() == {(0, 0), (-1, 0)}
    assert reflect(reflect(se)) == se
    disc = StructuringElement.flat(q, ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)))
    assert reflect(disc) == disc
    assert reflect_offsets(((0, 0), (1, 0))) == {(0, 0), (-1, 0)}


def test_structuring_element_basics():
    q = ChainQuantale(4, LUKASIEWICZ)
    with pytest.raises(ValueError):
        StructuringElement(q, (((0, 0), 4), ((0, 0), 2)))
    with pytest.raises(ValueError):
        StructuringElement(q, (((0, 0), 0),))
    se = StructuringElement.from_dict(q, {(0, 0): 4, (1, 0): 0, (2, 0): 2})
    assert se.support() == {(0, 0), (2, 0)}
    assert se.weight((1, 0)) == 0
    assert se.weight((2, 0)) == 2
    flat = StructuringElement.flat(q, ((0, 0), (1, 0)))
    assert flat.weight((1, 0)) == q.unit


def all_offset_sets(width):
    singles = [(x, 0) for x in range(width)]
    for r in range(1, width + 1):
        yield from itertools.combinations(singles, r)


def test_binary_three_form_agreement_exhaustive_z4():
    g = Grid(4, 1)
    cells = g.cells()
    for se_offs in all_offset_sets(4):
        se = StructuringElement.flat(Q1, se_offs)
        kern = kernel_of_structuring(se, g)
        for bits in itertools.product((0, 1), repeat=4):
            image = frozenset(c for c, b in zip(cells, bits) if b)
            grey = image_from_set(g, Q1, image)
            vec = ModuleVector(Q1, cells, grey.values)

            dil_set = dilate_binary(g, image, se_offs)
            dil_grey = dilate_grey(grey, se)
            dil_kern = apply_direct(kern, vec)
            assert set_from_image(dil_grey) == dil_set
            assert dil_kern.values == dil_grey.values

            ero_set = erode_binary(g, image, se_offs)
            ero_grey = erode_grey(grey, se)
            ero_kern = apply_inverse(kern, vec)
            assert set_from_image(ero_grey) == ero_set
            assert ero_kern.values == ero_grey.values


def test_binary_two_form_agreement_bounded():
    g = Grid(4, 1, mode=BOUNDED)
    cells = g.cells()
    for se_offs in all_offset_sets(3):
        se = StructuringElement.flat(Q1, se_offs)
        for bits in itertools.product((0, 1), repeat=4):
            image = frozenset(c for c, b in zip(cells, bits) if b)
            grey = image_from_set(g, Q1, image)
            assert set_from_image(dilate_grey(grey, se)) == dilate_binary(
                g, image, se_offs
            )
            assert set_from_image(erode_grey(grey, se)) == erode_binary(
                g, image, se_offs
            )


def random_se(q, rng, span=2):
    els = tuple(q.elements())
    entries = {}
    for _ in range(rng.randrange(1, 5)):
        off = (rng.randrange(-span, span + 1), rng.randrange(-span, span + 1))
        entries[off] = rng.choice(els)
    entries[(rng.randrange(-span, span + 1), 0)] = q.unit
    return StructuringElement.from_dict(q, entries)


def test_grey_adjunction_both_modes():
    q = ChainQuantale(4, LUKASIEWICZ)
    rng = random.Random(9)
    for mode in (WRAP, BOUNDED):
        g = Grid(4, 3, mode=mode)
        for _ in range(120):
            se = random_se(q, rng)
            x = random_image(g, q, rng)
            y = random_image(g, q, rng)
            assert image_leq(dilate_grey(x, se), y) == image_leq(
                x, erode_grey(y, se)
            )


def test_grey_identities_and_constants():
    q = ChainQuantale(5, GODEL)
    g = Grid(3, 3)
    impulse = StructuringElement(q, (((0, 0), q.unit),))
    rng = random.Random(21)
    img = random_image(g, q, rng)
    assert image_eq(dilate_grey(img, impulse), img)
    assert image_eq(erode_grey(img, impulse), img)
    assert image_eq(opening_grey(img, impulse), img)
    assert image_eq(closing_grey(img, impulse), img)
    se = StructuringElement.from_dict(q, {(0, 0): q.unit, (1, 1): 2})
    for c in q.elements():
        const = GreyImage.constant(g, q, c)
        assert image_eq(dilate_grey(const, se), const)


def test_grey_distribution_laws():
    q = ChainQuantale(4, LUKASIEWICZ)
    g = Grid(4, 2)
    rng = random.Random(33)
    for _ in range(60):
        se = random_se(q, rng)
        x, y = random_image(g, q, rng), random_image(g, q, rng)
        assert image_eq(
            dilate_grey(image_join(x, y), se),
            image_join(dilate_grey(x, se), dilate_grey(y, se)),
        )
        assert image_eq(
            erode_grey(image_meet(x, y), se),
            image_meet(erode_grey(x, se), erode_grey(y, se)),
        )


def test_grey_kernel_form_agreement():
    q = ChainQuantale(4, LUKASIEWICZ)
    g = Grid(4, 3)
    cells = g.cells()
    rng = random.Random(41)
    for _ in range(20):
        se = random_se(q, rng, span=1)
        kern = kernel_of_structuring(se, g)
        for _ in range(10):
            img = random_image(g, q, rng)
            vec = ModuleVector(q, cells, img.values)
            assert apply_direct(kern, vec).values == dilate_grey(img, se).values
            assert apply_inverse(kern, vec).values == erode_grey(img, se).values


KERNEL_FORM_CARRIERS = (
    ChainQuantale(4, LUKASIEWICZ),
    ChainQuantale(6, GODEL),
    ChainQuantale(1, LUKASIEWICZ),
    PowersetMonoidQuantale(Monoid.symmetric(3)),
)


@pytest.mark.parametrize("mode", (WRAP, BOUNDED))
@pytest.mark.parametrize("q", KERNEL_FORM_CARRIERS, ids=("luk4", "godel6", "luk1", "S3"))
def test_grey_is_the_right_hand_kernel_transform(q, mode):
    """Dilation and erosion are the right-hand H and L of the translate
    kernel on both grid modes, commutative or not; on a bounded grid the
    kernel is clipped and the skip rule of erosion is its L."""
    rng = random.Random(61)
    els = tuple(q.elements())[1:]
    checked = 0
    while checked < 30:
        g = Grid(rng.randint(1, 6), rng.randint(1, 6), mode=mode)
        se = StructuringElement.from_dict(q, {
            (rng.randint(-2, 2), rng.randint(-2, 2)): rng.choice(els)
            for _ in range(rng.randint(1, 4))
        })
        if mode == WRAP and len({g.canonical(a) for a in se.support()}) < len(se.entries):
            with pytest.raises(ValueError, match="collide"):
                kernel_of_structuring(se, g)
            continue
        kern = kernel_of_structuring(se, g)
        img = random_image(g, q, rng)
        vec = ModuleVector(q, g.cells(), img.values)
        assert apply_direct_right(kern, vec).values == dilate_grey(img, se).values
        assert apply_inverse_right(kern, vec).values == erode_grey(img, se).values
        checked += 1


def test_grey_opening_closing_laws():
    q = ChainQuantale(4, LUKASIEWICZ)
    rng = random.Random(55)
    for mode in (WRAP, BOUNDED):
        g = Grid(4, 3, mode=mode)
        for _ in range(40):
            se = random_se(q, rng)
            img = random_image(g, q, rng)
            opened = opening_grey(img, se)
            closed = closing_grey(img, se)
            assert image_leq(opened, img) and image_leq(img, closed)
            assert image_eq(opening_grey(opened, se), opened)
            assert image_eq(closing_grey(closed, se), closed)


def test_closing_is_a_nucleus_on_the_pixel_module():
    q = ChainQuantale(3, LUKASIEWICZ)
    g = Grid(3, 2)
    se = StructuringElement.from_dict(q, {(0, 0): 3, (1, 0): 2, (0, 1): 1})
    module = FreeModule(q, g.cells())

    def gamma(m):
        img = GreyImage(g, q, m.values)
        return ModuleVector(q, g.cells(), closing_grey(img, se).values)

    report = nucleus_check(Nucleus(module, gamma), rng=random.Random(2))
    assert report.ok, report.violations[:3]


def test_opening_is_an_interior():
    q = ChainQuantale(4, LUKASIEWICZ)
    g = Grid(4, 2)
    se = StructuringElement.from_dict(q, {(0, 0): 4, (1, 0): 3})
    rng = random.Random(77)
    for _ in range(50):
        x, y = random_image(g, q, rng), random_image(g, q, rng)
        ox, oy = opening_grey(x, se), opening_grey(y, se)
        assert image_leq(ox, x)
        assert image_eq(opening_grey(ox, se), ox)
        if image_leq(x, y):
            assert image_leq(ox, oy)


def test_translation_invariance_wrap_only():
    q = ChainQuantale(4, LUKASIEWICZ)
    g = Grid(4, 3)
    rng = random.Random(88)
    for _ in range(40):
        se = random_se(q, rng)
        img = random_image(g, q, rng)
        h = (rng.randrange(4), rng.randrange(3))
        assert image_eq(
            dilate_grey(translate_image(img, h), se),
            translate_image(dilate_grey(img, se), h),
        )
        assert image_eq(
            erode_grey(translate_image(img, h), se),
            translate_image(erode_grey(img, se), h),
        )
    # bounded mode breaks invariance at the edge: shifting left against a
    # rightward dilation drops different pixels in the two orders
    b = Grid(3, 1, mode=BOUNDED)
    se = StructuringElement.flat(q, ((1, 0),))
    img = GreyImage(b, q, (4, 4, 4))
    moved_then_dilated = dilate_grey(translate_image(img, (-1, 0)), se)
    dilated_then_moved = translate_image(dilate_grey(img, se), (-1, 0))
    assert moved_then_dilated.values == (0, 4, 4)
    assert dilated_then_moved.values == (4, 4, 0)


def test_translate_image_modes():
    q = ChainQuantale(4, LUKASIEWICZ)
    img = GreyImage(Grid(3, 1), q, (1, 2, 3))
    assert translate_image(img, (1, 0)).values == (3, 1, 2)
    bimg = GreyImage(Grid(3, 1, mode=BOUNDED), q, (1, 2, 3))
    assert translate_image(bimg, (1, 0)).values == (0, 1, 2)
    assert translate_image(bimg, (-1, 0)).values == (2, 3, 0)


def test_kernel_of_structuring_details():
    q = ChainQuantale(2, LUKASIEWICZ)
    g = Grid(5, 1)
    impulse = StructuringElement(q, (((0, 0), q.unit),))
    kern = kernel_of_structuring(impulse, g)
    for i, row in enumerate(kern.rows):
        assert row == tuple(q.unit if j == i else 0 for j in range(5))
    se = StructuringElement.flat(q, ((0, 0), (1, 0)))
    kern = kernel_of_structuring(se, g)
    # each row is the previous one rotated a step: translation invariance
    for i in range(1, 5):
        rotated = tuple(kern.rows[i - 1][(j - 1) % 5] for j in range(5))
        assert kern.rows[i] == rotated
    # the bounded kernel is the clipped one: the last cell's step right
    # leaves the grid instead of wrapping to the first
    clipped = kernel_of_structuring(se, Grid(5, 1, mode=BOUNDED))
    for i, row in enumerate(clipped.rows):
        assert row == tuple(q.unit if j in (i, i + 1) else 0 for j in range(5))
    assert clipped.rows[:4] == kern.rows[:4] and kern.rows[4][0] == q.unit
    colliding = StructuringElement.flat(q, ((0, 0), (5, 0)))
    with pytest.raises(ValueError):
        kernel_of_structuring(colliding, g)


def test_grey_carrier_mismatch():
    q4, q5 = ChainQuantale(4, LUKASIEWICZ), ChainQuantale(5, LUKASIEWICZ)
    img = GreyImage(Grid(2, 2), q4, (0, 1, 2, 3))
    se = StructuringElement.flat(q5, ((0, 0),))
    with pytest.raises(CarrierMismatchError):
        dilate_grey(img, se)
    other = GreyImage(Grid(2, 2), q5, (0, 1, 2, 3))
    with pytest.raises(CarrierMismatchError):
        image_join(img, other)


def test_set_image_converters_and_complement():
    g = Grid(4, 1)
    q = ChainQuantale(3, GODEL)
    img = image_from_set(g, q, line(0, 2))
    assert img.values == (3, 0, 3, 0)
    assert set_from_image(img) == line(0, 2)
    assert complement_set(g, line(0, 2)) == line(1, 3)
    assert img.at((2, 0)) == 3
    assert img.rows() == ((3, 0, 3, 0),)


def test_se_file_roundtrip(tmp_path):
    q = ChainQuantale(4, LUKASIEWICZ)
    se = StructuringElement.from_dict(
        q, {(-1, 0): 2, (0, 0): 4, (1, 0): 2, (0, 1): 1}
    )
    path = tmp_path / "se.txt"
    save_structuring(path, se)
    header = path.read_text().splitlines()[0]
    assert header == "3 2 1 0"
    assert load_structuring(path, q) == se

    fq = FloatUnitQuantale(LUKASIEWICZ)
    fse = StructuringElement.from_dict(fq, {(0, 0): 1.0, (1, 0): 0.5})
    fpath = tmp_path / "fse.txt"
    save_structuring(fpath, fse)
    assert load_structuring(fpath) == fse


def test_se_file_errors(tmp_path, capsys):
    q = ChainQuantale(4, LUKASIEWICZ)
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1 0 0\n0.3 1\n")
    with pytest.raises(ValueError, match="multiple"):
        load_structuring(bad, q)
    outranged = tmp_path / "outranged.txt"
    outranged.write_text("2 1 0 0\n2 1\n")
    with pytest.raises(ValueError, match="unit interval"):
        load_structuring(outranged, q)
    short = tmp_path / "short.txt"
    short.write_text("2 2 0 0\n1 0\n")
    with pytest.raises(ValueError, match="expected 4 weights"):
        load_structuring(short, q)
    # a zero denominator and a huge exponent are refused at once, by
    # the library and by `qkit morph`, with one error line and exit 2
    hostile = tmp_path / "hostile.txt"
    image = tmp_path / "img.pgm"
    write_pgm(image, PgmImage(2, 2, 4, (0, 1, 2, 4)))
    for token, message in (
        ("1/0", "zero denominator"),
        ("1e-999999999", "exponent past 400"),
        ("1e-9999999", "exponent past 400"),
    ):
        hostile.write_text(f"2 1 0 0\n1 {token}\n")
        for carrier in (q, None):
            with pytest.raises(ValueError, match=message):
                load_structuring(hostile, carrier)
        start = time.perf_counter()
        assert main(["morph", "dilate", str(image), str(hostile), str(tmp_path / "o.pgm")]) == 2
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
    # the exponents float reprs use still load
    hostile.write_text("2 1 0 0\n1 1e-05\n")
    assert load_structuring(hostile).weight((1, 0)) == 1e-05
    assert load_structuring(hostile, ChainQuantale(100000)).weight((1, 0)) == 1


def test_grey_image_validation():
    q = ChainQuantale(4, LUKASIEWICZ)
    with pytest.raises(ValueError):
        GreyImage(Grid(2, 2), q, (0, 1, 2))
    with pytest.raises(CarrierMismatchError):
        GreyImage(Grid(2, 1), q, (0, 9))
    img = GreyImage.from_rows(Grid(2, 2), q, ((0, 1), (2, 3)))
    assert img.values == (0, 1, 2, 3)


DIFFERENTIAL_CARRIERS = (
    ChainQuantale(6, LUKASIEWICZ),
    ChainQuantale(6, GODEL),
    FloatUnitQuantale(LUKASIEWICZ),
    FloatUnitQuantale(PRODUCT),
)


@st.composite
def grey_cases(draw):
    """An image and an element on one carrier, with sides down to 1 and
    offsets up to twice a side, so that wrap reads go round more than
    once and bounded reads can miss the grid entirely."""
    q = draw(st.sampled_from(DIFFERENTIAL_CARRIERS))
    if isinstance(q, ChainQuantale):
        value = st.integers(0, q.d)
    else:
        # ints 0 and 1 are float-carrier values too, equal to 0.0 and 1.0
        value = st.one_of(st.sampled_from((0, 1, 0.0, 1.0)), st.floats(0.0, 1.0))
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    grid = Grid(w, h, mode=draw(st.sampled_from((WRAP, BOUNDED))))
    image = GreyImage(grid, q, draw(st.lists(value, min_size=w * h, max_size=w * h)))
    offset = st.tuples(st.integers(-2 * w, 2 * w), st.integers(-2 * h, 2 * h))
    weights = draw(st.dictionaries(offset, value, min_size=1, max_size=6))
    weights[draw(offset)] = q.unit
    return image, StructuringElement.from_dict(q, weights), draw(offset)


@settings(max_examples=300, deadline=None)
@given(grey_cases())
def test_row_shift_forms_match_per_cell_reference(case):
    image, se, offset = case
    assert dilate_grey(image, se).values == ref_dilate_grey(image, se).values
    assert erode_grey(image, se).values == ref_erode_grey(image, se).values
    moved = translate_image(image, offset)
    assert moved.values == ref_translate_image(image, offset).values


def test_row_shift_forms_match_on_lines_and_points():
    q = ChainQuantale(4, LUKASIEWICZ)
    rng = random.Random(12)
    for (w, h), mode in itertools.product(((1, 1), (1, 5), (5, 1)), (WRAP, BOUNDED)):
        g = Grid(w, h, mode=mode)
        for _ in range(20):
            se = random_se(q, rng, span=6)
            img = random_image(g, q, rng)
            assert dilate_grey(img, se).values == ref_dilate_grey(img, se).values
            assert erode_grey(img, se).values == ref_erode_grey(img, se).values
            for off in ((7, 0), (0, -6), (-w, h)):
                moved = translate_image(img, off).values
                assert moved == ref_translate_image(img, off).values
