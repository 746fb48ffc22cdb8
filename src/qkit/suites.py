"""Stock law suites over the bundled carriers.

Each suite returns a list of LawReport, one per carrier or property
family, sized to finish in seconds; the exhaustive heavy runs live in
the acceptance tests.  The CLI prints each report summary and folds
the verdicts into its exit code.
"""
from __future__ import annotations

import itertools
import random

from qkit.quantale import (
    Carrier,
    ChainQuantale,
    GODEL,
    LUKASIEWICZ,
    LawReport,
    Monoid,
    PowersetMonoidQuantale,
    check_quantale_laws,
)
from qkit.qmodule import (
    FreeModule,
    ModuleVector,
    Nucleus,
    check_module_laws,
    enumerate_vectors,
    nucleus_check,
    random_vector,
    vec_eq,
    vec_leq,
)
from qkit.transform import (
    apply_direct,
    apply_direct_right,
    apply_inverse,
    apply_inverse_right,
    classify_coder,
    random_kernel,
    random_strong_kernel,
    transform_nucleus,
)
from qkit.morphology import (
    Grid,
    GreyImage,
    StructuringElement,
    dilate_binary,
    dilate_grey,
    erode_binary,
    erode_grey,
    image_eq,
    image_from_set,
    image_leq,
    closing_grey,
    opening_grey,
    kernel_of_structuring,
    random_image,
    set_from_image,
    translate_image,
)

STOCK_CHAIN_SIZES = (2, 3, 4, 5, 10)


def _elements_for(carrier: Carrier):
    if not carrier.is_finite:
        return tuple(carrier.grid(10))
    return None


def quantale_suite(carrier: Carrier | None = None) -> list[LawReport]:
    """Exhaustive quantale laws on the stock carriers, or just one."""
    if carrier is not None:
        return [check_quantale_laws(carrier, elements=_elements_for(carrier))]
    reports = []
    for d in STOCK_CHAIN_SIZES:
        for tnorm in (LUKASIEWICZ, GODEL):
            reports.append(check_quantale_laws(ChainQuantale(d, tnorm)))
    reports.append(check_quantale_laws(PowersetMonoidQuantale(Monoid.cyclic(3))))
    return reports


def module_suite(
    carrier: Carrier | None = None, rng: random.Random | None = None
) -> list[LawReport]:
    """Free-module laws: one exhaustive small case, one sampled large one."""
    rng = rng or random.Random(0)
    if carrier is not None:
        if carrier.is_finite and carrier.size() ** 2 <= 2500:
            return [check_module_laws(carrier, (0, 1))]
        return [check_module_laws(carrier, (0, 1), rng=rng, n_samples=200)]
    return [
        check_module_laws(ChainQuantale(3, LUKASIEWICZ), (0, 1)),
        check_module_laws(
            ChainQuantale(2, GODEL), (0, 1, 2), pair_cap=3_000, triple_cap=5_000
        ),
        check_module_laws(
            ChainQuantale(10, LUKASIEWICZ),
            tuple(range(16)),
            rng=rng,
            n_samples=120,
            pair_cap=3_000,
            triple_cap=5_000,
        ),
    ]


def transform_suite(
    carrier: Carrier | None = None, rng: random.Random | None = None
) -> list[LawReport]:
    rng = rng or random.Random(0)
    return [
        _adjunction_exhaustive(carrier or ChainQuantale(2, LUKASIEWICZ)),
        _composite_identities(rng),
        _strong_identity(rng),
        _transform_nuclei(rng),
    ]


def _adjunction_exhaustive(q: Carrier) -> LawReport:
    """Direct below g iff argument below inverse, all kernels and pairs."""
    report = LawReport(f"transform.adjunction[{q!r}]")
    if not q.is_finite:
        els = tuple(q.grid(4))
    else:
        els = tuple(q.elements())
        if len(els) > 3:
            els = els[:: max(1, len(els) // 3)]
    X = (0, 1)
    vectors = [ModuleVector(q, X, vals) for vals in itertools.product(els, repeat=2)]
    from qkit.transform import Kernel

    for entries in itertools.product(els, repeat=4):
        kern = Kernel(q, X, X, (entries[:2], entries[2:]))
        for f in vectors:
            hf = apply_direct(kern, f)
            for g in vectors:
                report.checked += 1
                lhs = vec_leq(hf, g)
                rhs = vec_leq(f, apply_inverse(kern, g))
                if lhs != rhs:
                    report.record(
                        "transform.adjunction", (kern.rows, f.values, g.values)
                    )
    return report


def _composite_identities(rng: random.Random) -> LawReport:
    """Direct-inverse-direct collapses; inverse-direct-inverse collapses."""
    q = ChainQuantale(10, LUKASIEWICZ)
    X, Y = tuple(range(8)), tuple(range(4))
    report = LawReport("transform.composite-identities")
    for _ in range(30):
        kern = random_kernel(q, X, Y, rng)
        for _ in range(5):
            f = random_vector(q, X, rng)
            g = random_vector(q, Y, rng)
            hf = apply_direct(kern, f)
            lg = apply_inverse(kern, g)
            report.checked += 2
            if not vec_eq(apply_direct(kern, apply_inverse(kern, hf)), hf):
                report.record("transform.direct-inverse-direct", (kern.rows, f.values))
            if not vec_eq(apply_inverse(kern, apply_direct(kern, lg)), lg):
                report.record("transform.inverse-direct-inverse", (kern.rows, g.values))
    return report


def _strong_identity(rng: random.Random) -> LawReport:
    """Strong kernels reconstruct every coefficient vector exactly."""
    q = ChainQuantale(4, LUKASIEWICZ)
    X, Y = tuple(range(5)), (1, 3)
    report = LawReport("transform.strong-reconstruction")
    targets = tuple(enumerate_vectors(q, Y))
    for _ in range(100):
        kern = random_strong_kernel(q, X, Y, rng)
        if not classify_coder(kern).is_strong:
            report.record("transform.strong-classification", (kern.rows,))
            continue
        for g in targets:
            report.checked += 1
            if not vec_eq(apply_direct(kern, apply_inverse(kern, g)), g):
                report.record("transform.strong-reconstruction", (kern.rows, g.values))
    return report


def _transform_nuclei(rng: random.Random) -> LawReport:
    """Inverse-after-direct passes the nucleus laws on sampled kernels."""
    q = ChainQuantale(10, LUKASIEWICZ)
    X, Y = tuple(range(8)), tuple(range(4))
    report = LawReport("transform.nucleus")
    for _ in range(10):
        kern = random_kernel(q, X, Y, rng)
        sub = nucleus_check(transform_nucleus(kern), rng=rng, n_samples=6)
        report.checked += sub.checked
        report.violations.extend(sub.violations)
    return report


def morphology_suite(
    carrier: Carrier | None = None, rng: random.Random | None = None
) -> list[LawReport]:
    rng = rng or random.Random(0)
    q = carrier or ChainQuantale(4, LUKASIEWICZ)
    if not q.is_finite:
        q = ChainQuantale(4, q.tnorm if q.tnorm != "product" else LUKASIEWICZ)
    return [
        _three_forms_binary(),
        _grey_forms(q, rng),
        _morph_adjunction(q, rng),
        _opening_closing(q, rng),
        _t_invariance(q, rng),
    ]


def _three_forms_binary() -> LawReport:
    """Set, membership and kernel dilation/erosion agree on the 4-cycle."""
    report = LawReport("morphology.three-forms-binary")
    g = Grid(4, 1)
    q = ChainQuantale(1, LUKASIEWICZ)
    cells = g.cells()
    singles = [(x, 0) for x in range(4)]
    for r in range(1, 5):
        for offs in itertools.combinations(singles, r):
            se = StructuringElement.flat(q, offs)
            kern = kernel_of_structuring(se, g)
            for bits in itertools.product((0, 1), repeat=4):
                image = frozenset(c for c, b in zip(cells, bits) if b)
                grey = image_from_set(g, q, image)
                vec = ModuleVector(q, cells, grey.values)
                report.checked += 1
                dil = dilate_grey(grey, se)
                ero = erode_grey(grey, se)
                if not (
                    set_from_image(dil) == dilate_binary(g, image, offs)
                    and apply_direct(kern, vec).values == dil.values
                    and set_from_image(ero) == erode_binary(g, image, offs)
                    and apply_inverse(kern, vec).values == ero.values
                ):
                    report.record("morphology.three-forms", (offs, sorted(image)))
    return report


def _random_se(q, rng, span=1):
    els = tuple(q.elements())
    entries = {
        (rng.randrange(-span, span + 1), rng.randrange(-span, span + 1)): rng.choice(els)
        for _ in range(rng.randrange(1, 4))
    }
    entries[(0, 0)] = q.unit
    return StructuringElement.from_dict(q, entries)


def _grey_forms(q, rng) -> LawReport:
    """Membership form and the right-hand transforms of the translate
    kernel agree on random grey images."""
    report = LawReport("morphology.grey-kernel-form")
    g = Grid(5, 4)
    cells = g.cells()
    for _ in range(8):
        se = _random_se(q, rng)
        kern = kernel_of_structuring(se, g)
        for _ in range(5):
            img = random_image(g, q, rng)
            vec = ModuleVector(q, cells, img.values)
            report.checked += 1
            if not (
                apply_direct_right(kern, vec).values == dilate_grey(img, se).values
                and apply_inverse_right(kern, vec).values == erode_grey(img, se).values
            ):
                report.record("morphology.grey-kernel-form", (se.entries,))
    return report


def _morph_adjunction(q, rng) -> LawReport:
    report = LawReport("morphology.adjunction")
    for mode in ("wrap", "bounded"):
        g = Grid(4, 3, mode=mode)
        for _ in range(40):
            se = _random_se(q, rng)
            x, y = random_image(g, q, rng), random_image(g, q, rng)
            report.checked += 1
            if image_leq(dilate_grey(x, se), y) != image_leq(x, erode_grey(y, se)):
                report.record("morphology.adjunction", (mode, se.entries))
    return report


def _opening_closing(q, rng) -> LawReport:
    report = LawReport("morphology.opening-closing")
    g = Grid(4, 3)
    for _ in range(30):
        se = _random_se(q, rng)
        img = random_image(g, q, rng)
        opened, closed = opening_grey(img, se), closing_grey(img, se)
        report.checked += 1
        if not (
            image_leq(opened, img)
            and image_leq(img, closed)
            and image_eq(opening_grey(opened, se), opened)
            and image_eq(closing_grey(closed, se), closed)
        ):
            report.record("morphology.opening-closing", (se.entries,))
    return report


def _t_invariance(q, rng) -> LawReport:
    report = LawReport("morphology.translation-invariance")
    g = Grid(4, 3)
    for _ in range(30):
        se = _random_se(q, rng)
        img = random_image(g, q, rng)
        h = (rng.randrange(4), rng.randrange(3))
        report.checked += 1
        if not (
            image_eq(
                dilate_grey(translate_image(img, h), se),
                translate_image(dilate_grey(img, se), h),
            )
            and image_eq(
                erode_grey(translate_image(img, h), se),
                translate_image(erode_grey(img, se), h),
            )
        ):
            report.record("morphology.translation-invariance", (h, se.entries))
    return report


SUITES = {
    "quantale": lambda carrier, rng: quantale_suite(carrier),
    "module": module_suite,
    "transform": transform_suite,
    "morphology": morphology_suite,
}


def run_suites(
    names, carrier: Carrier | None = None, rng: random.Random | None = None
) -> list[LawReport]:
    reports = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        reports.extend(SUITES[name](carrier, rng))
    return reports
