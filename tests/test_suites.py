import random

import pytest

from qkit.quantale import (
    GODEL,
    LUKASIEWICZ,
    PRODUCT,
    ChainQuantale,
    FloatUnitQuantale,
    Monoid,
    PowersetMonoidQuantale,
)
from qkit.suites import (
    SUITES,
    module_suite,
    morphology_suite,
    quantale_suite,
    run_suites,
    transform_suite,
)


def test_default_suites_all_clean():
    rng = random.Random(0)
    for name, fn in SUITES.items():
        reports = fn(None, rng)
        assert reports, name
        for report in reports:
            assert report.ok, (name, report.summary())
            assert report.checked > 0


def test_quantale_suite_single_carrier():
    reports = quantale_suite(ChainQuantale(7, GODEL))
    assert len(reports) == 1 and reports[0].ok
    freports = quantale_suite(FloatUnitQuantale(LUKASIEWICZ))
    assert freports[0].ok


def test_corrupted_monoid_fails_with_named_law():
    # Monoid checks shape only, so a non-associative table reaches the
    # law suite and must be reported there, not masked
    bad = Monoid(table=((0, 1, 2), (1, 2, 0), (2, 0, 0)), unit=0)
    reports = quantale_suite(PowersetMonoidQuantale(bad))
    assert not reports[0].ok
    laws = {v.law for v in reports[0].violations}
    assert any(law.startswith("monoid.") for law in laws)


def test_module_suite_carrier_paths():
    small = module_suite(ChainQuantale(3, LUKASIEWICZ))
    assert len(small) == 1 and small[0].ok
    big = module_suite(ChainQuantale(100, LUKASIEWICZ), rng=random.Random(1))
    assert len(big) == 1 and big[0].ok
    flt = module_suite(FloatUnitQuantale(GODEL), rng=random.Random(2))
    assert flt[0].ok


def test_transform_suite_float_adjunction():
    reports = transform_suite(FloatUnitQuantale(PRODUCT), rng=random.Random(3))
    assert all(r.ok for r in reports)


def test_morphology_suite_with_float_carrier_falls_back_to_chain():
    reports = morphology_suite(FloatUnitQuantale(LUKASIEWICZ), rng=random.Random(4))
    assert all(r.ok for r in reports)


@pytest.mark.parametrize("monoid", (Monoid.cyclic(3), Monoid.symmetric(3)), ids=("C3", "S3"))
def test_morphology_suite_on_powersets(monoid):
    # on the non-commutative S3 powerset the left and right transforms
    # differ; grey morphology is the right-hand pair
    reports = morphology_suite(PowersetMonoidQuantale(monoid), rng=random.Random(0))
    assert len(reports) == 5
    for report in reports:
        assert report.ok and report.checked > 0, report.summary()


def test_run_suites_rejects_unknown():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["algebra"])
