import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from fractions import Fraction

from qkit.quantale import (
    EXPONENT_MAX,
    CarrierMismatchError,
    ChainQuantale,
    FloatUnitQuantale,
    Monoid,
    NotFiniteError,
    PowersetMonoidQuantale,
    carrier_from,
    check_quantale_laws,
    parse_fraction,
    parse_integer,
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
    [ChainQuantale(d, t) for d in (1, 4, 255) for t in ("lukasiewicz", "godel")]
    + [FloatUnitQuantale(t) for t in ("lukasiewicz", "godel", "product")],
    ids=str,
)
def test_left_residual_is_the_right_one_swapped_on_commutative_carriers(carrier):
    """Chains and the unit interval write lres out instead of calling
    rres; on these commutative carriers both give the same value, of the
    same type, on every level pair or every pair of the float grid."""
    els = tuple(carrier.elements()) if carrier.is_finite else carrier.grid()
    for x, z in itertools.product(els, repeat=2):
        got, want = carrier.lres(x, z), carrier.rres(z, x)
        assert got == want and type(got) is type(want), (x, z)


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
    with pytest.raises(ValueError, match=r"^monoid entry 'x' is not an integer$"):
        parse_monoid("2\n0 1 x 0")
    with pytest.raises(ValueError, match=r"^monoid size '2\.0' is not an integer$"):
        parse_monoid("2.0\n0 1 1 0")


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


TEXT_CARRIERS = (
    ChainQuantale(1, "lukasiewicz"),
    ChainQuantale(4, "godel"),
    ChainQuantale(255, "lukasiewicz"),
    ChainQuantale(2**70, "godel"),
    FloatUnitQuantale("lukasiewicz"),
    FloatUnitQuantale("godel"),
    FloatUnitQuantale("product"),
)


@pytest.mark.parametrize("q", TEXT_CARRIERS, ids=repr)
def test_text_form_names_the_carrier(q):
    assert carrier_from(q.kind, q.denominator, q.tnorm) == q
    assert q.denominator == (q.d if q.kind == "chain" else 0)


def test_carrier_from_refuses_unknown_kinds():
    for kind in ("ring", "Chain", "", None):
        with pytest.raises(ValueError, match="unknown carrier kind"):
            carrier_from(kind, 4, "lukasiewicz")
    # the chain checks its own arguments
    with pytest.raises(ValueError):
        carrier_from("chain", 0, "lukasiewicz")
    with pytest.raises(ValueError):
        carrier_from("chain", 4, "product")


def test_chain_values_round_trip_as_ints():
    for q in TEXT_CARRIERS[:3]:
        for v in q.elements():
            back = q.parse(q.format(v))
            assert back == v and type(back) is int
    big = TEXT_CARRIERS[3]
    for v in (0, 1, 2**69 + 3, big.d):
        assert big.parse(big.format(v)) == v


@given(st.one_of(st.sampled_from((0.1, 1e-05, 5e-324, 1.0, 0.0, 0, 1)), st.floats(0.0, 1.0)))
def test_float_values_round_trip_as_floats(v):
    q = FloatUnitQuantale("product")
    back = q.parse(q.format(v))
    # ints 0 and 1 are float-carrier values too; they read back as floats
    assert back == v and type(back) is float


def test_ratio_and_fraction():
    q = ChainQuantale(6, "lukasiewicz")
    assert [q.ratio(k, 3) for k in range(4)] == [0, 2, 4, 6]
    assert all(q.ratio(*q.fraction(v).as_integer_ratio()) == v for v in q.elements())
    assert q.fraction(3) == Fraction(1, 2)
    with pytest.raises(ValueError, match=r"^value 1/4 is not a multiple of 1/6$"):
        q.ratio(2, 8)
    with pytest.raises(ValueError, match=r"^weight 0\.25 is not a multiple of 1/6$"):
        q.ratio(1, 4, "weight 0.25")
    f = FloatUnitQuantale("lukasiewicz")
    assert f.ratio(1, 4) == 0.25 and f.ratio(1, 3) == 1 / 3
    assert f.fraction(0.5) == 0.5 and f.fraction(1) == 1


def test_powerset_has_no_text_form():
    assert Z2.kind is None
    for name, arg in (("parse", ("1",)), ("format", (1,)), ("ratio", (1, 2)), ("fraction", (1,))):
        with pytest.raises(ValueError, match="no text form"):
            getattr(Z2, name)(*arg)


def test_parse_fraction():
    for token, value in (
        ("1", 1),
        ("0", 0),
        ("1/2", Fraction(1, 2)),
        ("0.25", Fraction(1, 4)),
        (".5", Fraction(1, 2)),
        ("1e-05", Fraction(1, 100000)),
        ("2.5E-1", Fraction(1, 4)),
        ("1e0", 1),
        ("1e-0400", Fraction(1, 10**400)),
        ("5e-324", Fraction(5, 10**324)),
    ):
        assert parse_fraction(token) == value
    for token in ("1/0", "0/0", "1/00", "1/0_0"):
        with pytest.raises(ValueError, match=r"zero denominator$"):
            parse_fraction(token)
    for token in (f"1e{EXPONENT_MAX + 1}", "1e-999999999", "1.0E+99999999", "1e-9_999_999"):
        with pytest.raises(ValueError, match=f"exponent past {EXPONENT_MAX}$"):
            parse_fraction(token)
    for token in ("x", "1/2/3", "e5", "1e", "."):
        with pytest.raises(ValueError, match=rf"^value token '{re.escape(token)}' is not a number$"):
            parse_fraction(token)


def test_parse_names_the_bad_token():
    for q in (CHAIN4_LUK, ChainQuantale(255, "godel")):
        for token in ("x", "1.5", "1e3", "0x1"):
            with pytest.raises(ValueError, match=rf"^value token '{re.escape(token)}' is not an integer$"):
                q.parse(token)
    for token in ("x", "1/2", "0.5.1"):
        with pytest.raises(ValueError, match=rf"^value token '{re.escape(token)}' is not a number$"):
            FloatUnitQuantale().parse(token)
    with pytest.raises(ValueError, match=r"^rows value '3x' is not an integer$"):
        parse_integer("3x", "rows value")
    assert parse_integer("-12", "rows value") == -12


# Library-level fuzz of the monoid reader: every text either loads or is
# refused with a ValueError that names what was wrong.
MONOID_TOKEN = st.one_of(
    st.text(alphabet="0123456789-+.x", min_size=1, max_size=4),
    st.sampled_from(("0", "1", "2", "3")),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.lists(MONOID_TOKEN, max_size=4), max_size=5))
def test_monoid_reader_survives_token_fuzz(lines):
    text = "\n".join(" ".join(tokens) for tokens in lines)
    try:
        parse_monoid(text)
    except ValueError as exc:
        assert "invalid literal" not in str(exc).lower(), exc
