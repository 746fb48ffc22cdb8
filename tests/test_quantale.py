import itertools

import pytest
from hypothesis import given, strategies as st

from qkit.quantale import (
    CarrierMismatchError,
    ChainQuantale,
    FloatUnitQuantale,
    Monoid,
    NotFiniteError,
    PowersetMonoidQuantale,
    check_quantale_laws,
    parse_monoid,
    residual_by_search,
)

CHAIN4_LUK = ChainQuantale(4, "lukasiewicz")
CHAIN4_GODEL = ChainQuantale(4, "godel")
Z2 = PowersetMonoidQuantale(Monoid.cyclic(2))
Z3 = PowersetMonoidQuantale(Monoid.cyclic(3))
S3 = PowersetMonoidQuantale(Monoid.symmetric(3))


def test_chain_lukasiewicz_frozen_values():
    q = CHAIN4_LUK
    assert q.mul(2, 3) == 1
    assert q.rres(1, 2) == 3
    assert q.lres(2, 1) == 3
    assert q.unit == 4 and q.bot == 0 and q.top == 4


def test_chain_godel_frozen_values():
    q = CHAIN4_GODEL
    assert q.mul(2, 3) == 2
    assert q.rres(2, 3) == 2
    assert q.rres(3, 2) == 4


def test_powerset_frozen_values():
    # subsets of Z2 as bitmasks: {0,1} = 0b11, {0} = 0b01, {1} = 0b10
    q = Z2
    assert q.mul(0b11, 0b10) == 0b11
    assert q.mul(0b11, 0) == 0
    assert q.unit == 0b01
    # brute force says {0,1} \ {0} is empty: no b maps both 0 and 1 into {0}
    assert q.lres(0b11, 0b01) == 0
    assert residual_by_search(q, 0b11, 0b01, "left") == 0


@pytest.mark.parametrize(
    "carrier",
    [ChainQuantale(d, t) for d in (1, 2, 3, 4, 5) for t in ("lukasiewicz", "godel")]
    + [Z2, Z3],
    ids=str,
)
def test_residuals_match_defining_join(carrier):
    els = tuple(carrier.elements())
    for x, z in itertools.product(els, repeat=2):
        assert carrier.lres(x, z) == residual_by_search(carrier, x, z, "left")
        assert carrier.rres(z, x) == residual_by_search(carrier, x, z, "right")


def test_residuals_match_defining_join_noncommutative():
    els = tuple(S3.elements())
    # spot-check the full 64x64 grid on the symmetric-group powerset
    for x in els[::5]:
        for z in els[::3]:
            assert S3.lres(x, z) == residual_by_search(S3, x, z, "left")
            assert S3.rres(z, x) == residual_by_search(S3, x, z, "right")


def test_left_and_right_residuals_differ_on_noncommutative_carrier():
    els = tuple(S3.elements())
    assert any(
        S3.lres(x, z) != S3.rres(z, x) for x in els for z in els
    ), "expected an asymmetry witness over S3 subsets"


@pytest.mark.parametrize(
    "carrier",
    [ChainQuantale(d, t) for d in (2, 4) for t in ("lukasiewicz", "godel")] + [Z3],
    ids=str,
)
def test_law_suite_clean(carrier):
    rep = check_quantale_laws(carrier)
    assert rep.ok, rep.summary()


def test_law_suite_flags_corrupted_table():
    bad = Monoid(((0, 1, 2), (1, 2, 0), (2, 1, 1)))  # last row breaks the group
    rep = check_quantale_laws(PowersetMonoidQuantale(bad))
    assert not rep.ok
    laws = {v.law for v in rep.violations}
    assert "monoid.associative" in laws or "monoid.unit" in laws
    assert all(len(v.witness) >= 1 for v in rep.violations)


def test_float_carrier_laws_on_grid():
    for tnorm in ("lukasiewicz", "godel", "product"):
        q = FloatUnitQuantale(tnorm)
        rep = check_quantale_laws(q, elements=q.grid(12))
        assert rep.ok, rep.summary()


def test_float_residual_matches_grid_search():
    q = FloatUnitQuantale("product")
    grid = q.grid(50)
    for x in (0.0, 0.3, 0.74, 1.0):
        for z in (0.0, 0.12, 0.5, 1.0):
            best = residual_by_search(q, x, z, "left", candidates=grid)
            assert best <= q.lres(x, z) + q.tolerance + 1 / 50


def test_carrier_mismatch_rejected():
    with pytest.raises(CarrierMismatchError):
        CHAIN4_LUK.join([2, 9])
    with pytest.raises(CarrierMismatchError):
        CHAIN4_LUK.join([0.5])  # floats are not chain levels
    # bool is an int subclass, but neither True nor False is an element
    for q in (CHAIN4_LUK, CHAIN4_GODEL, FloatUnitQuantale()):
        assert not q.contains(True) and not q.contains(False)
        with pytest.raises(CarrierMismatchError):
            q.join([True])
    assert CHAIN4_LUK.contains(1) and FloatUnitQuantale().contains(1)
    assert Z2.contains(1) and Z2.contains(3)
    assert not Z2.contains(True) and not Z2.contains(False)
    with pytest.raises(CarrierMismatchError):
        Z2.join([True])
    with pytest.raises(NotFiniteError):
        residual_by_search(FloatUnitQuantale(), 0.5, 0.25)


def test_join_meet_of_families():
    q = CHAIN4_LUK
    assert q.join([]) == 0
    assert q.meet([]) == 4
    assert q.join([1, 3, 2]) == 3
    assert q.meet([1, 3, 2]) == 1
    assert Z3.join([0b001, 0b100]) == 0b101


def test_monoid_parsing_roundtrip():
    m = parse_monoid("3\n0 1 2\n1 2 0\n2 0 1\n")
    assert m == Monoid.cyclic(3)
    with pytest.raises(ValueError):
        parse_monoid("2\n0 1\n1")
    with pytest.raises(ValueError):
        parse_monoid("2\n0 7\n1 0")


def test_symmetric_monoid_is_noncommutative_group():
    m = Monoid.symmetric(3)
    assert m.size == 6
    assert any(
        m.op(a, b) != m.op(b, a) for a in range(6) for b in range(6)
    )
    rep = check_quantale_laws(PowersetMonoidQuantale(m), elements=range(0, 64, 7))
    assert rep.ok, rep.summary()


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
def test_chain_adjunction_property(x, y, z):
    for q in (ChainQuantale(10, "lukasiewicz"), ChainQuantale(10, "godel")):
        assert (q.mul(x, y) <= z) == (y <= q.lres(x, z)) == (x <= q.rres(z, y))


@given(
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
)
def test_float_adjunction_property(x, y, z):
    for tnorm in ("lukasiewicz", "godel", "product"):
        q = FloatUnitQuantale(tnorm)
        if q.mul(x, y) <= z:
            assert q.leq(y, q.lres(x, z)) and q.leq(x, q.rres(z, y))
        if y <= q.lres(x, z) - q.tolerance:
            assert q.leq(q.mul(x, y), z)
