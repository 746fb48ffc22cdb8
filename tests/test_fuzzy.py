import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkit.fuzzy import (
    FuzzyPartition,
    GridAlignmentWarning,
    f_down,
    f_down_inverse,
    f_up,
    f_up_inverse,
    load_partition,
    luk_basis_eval,
    luk_kernel,
    luk_partition,
    save_partition,
)
from qkit.quantale import GODEL, LUKASIEWICZ, PRODUCT, ChainQuantale, FloatUnitQuantale
from qkit.qmodule import ModuleVector, enumerate_vectors, random_vector, vec_eq
from qkit.transform import (
    apply_direct,
    apply_inverse,
    classify_coder,
    projective_coder,
    transform_nucleus,
)


# Reference forms: the transforms written out as the joins and meets
# they are, independent of the kernel engine the library runs them on.

def ref_f_up(part, f):
    q = part.carrier
    return tuple(
        q.join(q.mul(f[j], row[j]) for j in range(part.l)) for row in part.table
    )


def ref_f_up_inverse(part, coeffs):
    q = part.carrier
    return tuple(
        q.meet(q.rres(coeffs[k], part.table[k][j]) for k in range(part.n))
        for j in range(part.l)
    )


def ref_f_down_meet(part, f):
    q = part.carrier
    return tuple(
        q.meet(q.rres(f[j], row[j]) for j in range(part.l)) for row in part.table
    )


def ref_f_down_inverse(part, coeffs):
    q = part.carrier
    return tuple(
        q.join(q.mul(coeffs[k], part.table[k][j]) for k in range(part.n))
        for j in range(part.l)
    )


def test_basis_values_frozen():
    assert luk_basis_eval(3, 0, 0) == 1
    assert luk_basis_eval(3, 1, Fraction(1, 2)) == 1
    assert luk_basis_eval(3, 1, Fraction(1, 4)) == Fraction(1, 2)
    for x in (0, Fraction(1, 4), Fraction(1, 2)):
        assert luk_basis_eval(3, 2, x) == 0
    # peaks are exactly the grid deltas
    for n in (2, 3, 5):
        for k in range(n):
            for j in range(n):
                expect = 1 if j == k else 0
                assert luk_basis_eval(n, k, Fraction(j, n - 1)) == expect


def test_basis_matches_hat_oracle():
    # independent closed form: max(0, 1 - |(n-1)x - k|)
    rng = random.Random(5)
    for n in (2, 3, 5, 7):
        xs = [Fraction(rng.randrange(0, 97), 96) for _ in range(40)]
        for k in range(n):
            for x in xs:
                hat = max(Fraction(0), 1 - abs((n - 1) * x - k))
                assert luk_basis_eval(n, k, x) == hat


def test_basis_argument_errors():
    with pytest.raises(ValueError):
        luk_basis_eval(3, 3, 0)
    with pytest.raises(ValueError):
        luk_basis_eval(3, -1, 0)
    with pytest.raises(ValueError):
        luk_basis_eval(3, 1, 2)
    with pytest.raises(ValueError):
        luk_basis_eval(1, 0, 0)


def test_luk_kernel_frozen_columns():
    k = luk_kernel(3, 5)
    assert k.carrier == ChainQuantale(4, LUKASIEWICZ)
    assert k.x_index == (0, 1, 2, 3, 4)
    assert k.y_index == (0, 2, 4)
    columns = tuple(tuple(row[j] for row in k.rows) for j in range(3))
    assert columns == ((4, 2, 0, 0, 0), (0, 2, 4, 2, 0), (0, 0, 0, 2, 4))
    assert classify_coder(k).grade() == "orthonormal"


def test_luk_kernel_endpoints_is_projection():
    k = luk_kernel(2, 2)
    pi = projective_coder(k.carrier, (0, 1), (0, 1))
    assert k.rows == pi.rows
    assert k.y_index == (0, 1)


def test_luk_kernel_aligned_grids_orthonormal():
    for n in (2, 3, 5):
        for m in (1, 2, 4):
            l = m * (n - 1) + 1
            k = luk_kernel(n, l)
            assert classify_coder(k).grade() == "orthonormal", (n, l)


def test_luk_kernel_strong_reconstruction_exact():
    # orthonormal implies strong implies direct . inverse = id on Q^Y
    k = luk_kernel(3, 3)
    q = k.carrier
    assert q.d == 2
    for g in enumerate_vectors(q, k.y_index):
        back = apply_direct(k, apply_inverse(k, g))
        assert vec_eq(back, g)


def test_luk_kernel_misaligned_flagged():
    with pytest.warns(GridAlignmentWarning):
        k = luk_kernel(3, 4)
    assert k.carrier.d == 6
    # peaks at grid positions 0, 3/2, 3 round to nodes 0, 2, 3
    assert k.y_index == (0, 2, 3)
    got = classify_coder(k)
    assert not got.is_coder
    assert got.grade() == "none"
    # the rounded diagonal sits strictly below the unit
    assert k.entry(2, 2) == 4 < k.carrier.unit


def test_luk_kernel_godel_carrier_not_orthogonal():
    k = luk_kernel(3, 5, carrier=ChainQuantale(4, GODEL))
    got = classify_coder(k)
    assert got.is_strong
    assert not got.is_orthogonal
    assert got.grade() == "strong"


def test_luk_kernel_float_carrier():
    k = luk_kernel(3, 5, carrier=FloatUnitQuantale(LUKASIEWICZ))
    assert k.entry(1, 0) == 0.5
    assert classify_coder(k).grade() == "orthonormal"


def test_luk_kernel_grid_matches_exact_basis():
    # the integer grid against the Fraction reference, value for
    # value and type for type, on aligned and misaligned grids
    for n in range(2, 9):
        for l in range(n, 30):
            d = math.lcm(l - 1, n - 1)
            carriers = (
                ChainQuantale(d, LUKASIEWICZ),
                ChainQuantale(d, GODEL),
                FloatUnitQuantale(LUKASIEWICZ),
                FloatUnitQuantale(PRODUCT),
            )
            for q in carriers:
                if isinstance(q, ChainQuantale):
                    conv = lambda v: int(v * d)  # noqa: E731
                else:
                    conv = float
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", GridAlignmentWarning)
                    k = luk_kernel(n, l, q)
                expect = tuple(
                    tuple(conv(luk_basis_eval(n, c, Fraction(j, l - 1))) for c in range(n))
                    for j in range(l)
                )
                assert k.rows == expect, (n, l, q)
                assert all(
                    type(v) is type(e)
                    for row, erow in zip(k.rows, expect)
                    for v, e in zip(row, erow)
                )
                peaks = tuple(
                    math.floor(Fraction(c * (l - 1), n - 1) + Fraction(1, 2))
                    for c in range(n)
                )
                assert k.y_index == peaks, (n, l)
                assert luk_partition(n, l, q).table == tuple(zip(*expect))


def test_luk_kernel_rejects_bad_shapes():
    with pytest.raises(ValueError):
        luk_kernel(1, 5)
    with pytest.raises(ValueError):
        luk_kernel(4, 3)
    # carrier too coarse for the grid values
    with pytest.raises(ValueError):
        luk_kernel(3, 5, carrier=ChainQuantale(3, LUKASIEWICZ))


def test_partition_validation():
    q = ChainQuantale(4, LUKASIEWICZ)
    FuzzyPartition(q, ((4, 2, 0), (0, 2, 4)))
    with pytest.raises(ValueError, match="node 2"):
        FuzzyPartition(q, ((4, 0, 0), (0, 4, 0)))
    with pytest.raises(ValueError, match="basis function 1"):
        FuzzyPartition(q, ((4, 4, 4), (0, 0, 0)))
    with pytest.raises(ValueError, match="basis function 1"):
        FuzzyPartition(q, ((4, 2, 0), (0, 2)))
    with pytest.raises(Exception):
        FuzzyPartition(q, ((4, 2, 9),))


def test_f_up_frozen_ramp():
    part = luk_partition(3, 5)
    ramp = (0, 1, 2, 3, 4)
    coeffs = f_up(part, ramp)
    assert coeffs == (0, 2, 4)
    back = f_up_inverse(part, coeffs)
    assert back == (0, 2, 2, 4, 4)
    # reconstruction dominates the input pointwise
    assert all(b >= a for a, b in zip(ramp, back))


def test_f_up_constants_and_single_basis():
    part = luk_partition(3, 5)
    q = part.carrier
    for c in q.elements():
        assert f_up(part, (c,) * 5) == (c,) * 3
    single = luk_partition(1, 3, carrier=ChainQuantale(4, LUKASIEWICZ))
    assert f_up(single, (1, 3, 2)) == (3,)
    assert f_down(single, (1, 3, 2)) == (1,)


def test_f_down_frozen_ramp():
    part = luk_partition(3, 5)
    ramp = (0, 1, 2, 3, 4)
    low = f_down(part, ramp)
    assert low == (0, 2, 4)
    back = f_down_inverse(part, low)
    assert back == (0, 0, 2, 2, 4)
    # lower reconstruction stays below the input pointwise
    assert all(b <= a for a, b in zip(ramp, back))


def test_f_up_matches_kernel_transform():
    rng = random.Random(11)
    cases = [luk_partition(3, 5), luk_partition(2, 4), luk_partition(5, 9)]
    q6 = ChainQuantale(6, LUKASIEWICZ)
    for _ in range(6):
        table = tuple(
            tuple(rng.randrange(0, 7) for _ in range(4)) for _ in range(3)
        )
        try:
            cases.append(FuzzyPartition(q6, table))
        except ValueError:
            continue
    for part in cases:
        k = part.kernel()
        assert part.kernel() is k
        for _ in range(25):
            f = random_vector(part.carrier, k.x_index, rng)
            assert f_up(part, f.values) == ref_f_up(part, f.values)
            g = random_vector(part.carrier, k.y_index, rng)
            assert f_up_inverse(part, g.values) == ref_f_up_inverse(part, g.values)


def test_f_up_matches_reference_on_float_carriers():
    rng = random.Random(14)
    for tnorm in (LUKASIEWICZ, GODEL, PRODUCT):
        part = luk_partition(4, 10, carrier=FloatUnitQuantale(tnorm))
        for _ in range(20):
            f = tuple(rng.random() for _ in range(part.l))
            c = tuple(rng.random() for _ in range(part.n))
            assert f_up(part, f) == ref_f_up(part, f)
            assert f_up_inverse(part, c) == ref_f_up_inverse(part, c)
            assert f_down(part, f) == ref_f_down_meet(part, f)
            assert f_down_inverse(part, c) == ref_f_down_inverse(part, c)


def test_f_down_matches_transposed_kernel_transform():
    rng = random.Random(12)
    part = luk_partition(3, 5)
    kt = part.kernel().transpose()
    for _ in range(40):
        f = random_vector(part.carrier, tuple(range(part.l)), rng)
        meet_form = ref_f_down_meet(part, f.values)
        assert f_down(part, f.values) == meet_form
        assert meet_form == apply_inverse(kt, f).values
        g = random_vector(part.carrier, tuple(range(part.n)), rng)
        assert f_down_inverse(part, g.values) == ref_f_down_inverse(part, g.values)
        assert ref_f_down_inverse(part, g.values) == apply_direct(kt, g).values


def test_f_down_dual_adjunction():
    rng = random.Random(13)
    part = luk_partition(3, 5)
    for _ in range(60):
        f = tuple(rng.randrange(0, 5) for _ in range(5))
        back = f_down_inverse(part, f_down(part, f))
        assert all(b <= a for a, b in zip(f, back))


def test_sample_length_checked():
    part = luk_partition(3, 5)
    with pytest.raises(ValueError):
        f_up(part, (0, 1, 2))
    with pytest.raises(ValueError):
        f_up_inverse(part, (0, 1, 2, 3))


def test_transform_nucleus_of_luk_kernel_idempotent():
    k = luk_kernel(3, 5)
    gamma = transform_nucleus(k)
    rng = random.Random(17)
    for _ in range(150):
        m = random_vector(k.carrier, k.x_index, rng)
        once = gamma(m)
        assert vec_eq(gamma(once), once)
        assert all(a <= b for a, b in zip(m.values, once.values))


def test_partition_file_roundtrip(tmp_path):
    part = luk_partition(3, 5)
    path = tmp_path / "part.txt"
    save_partition(path, part)
    again = load_partition(path, part.carrier)
    assert again.table == part.table

    fpart = luk_partition(3, 5, carrier=FloatUnitQuantale(LUKASIEWICZ))
    fpath = tmp_path / "fpart.txt"
    save_partition(fpath, fpart)
    fagain = load_partition(fpath, fpart.carrier)
    assert fagain.table == fpart.table


def test_partition_file_accepts_decimals_for_chains(tmp_path):
    path = tmp_path / "dec.txt"
    path.write_text("2 3\n1.0 0.5 0\n0 1/2 4\n")
    part = load_partition(path, ChainQuantale(4, LUKASIEWICZ))
    assert part.table == ((4, 2, 0), (0, 2, 4))
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n0.3 1\n")
    with pytest.raises(ValueError):
        load_partition(bad, ChainQuantale(4, LUKASIEWICZ))
    short = tmp_path / "short.txt"
    short.write_text("2 3\n1 0 0\n")
    with pytest.raises(ValueError):
        load_partition(short, ChainQuantale(4, LUKASIEWICZ))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=8), min_size=9, max_size=9))
def test_f_up_adjunction_property(samples):
    part = luk_partition(3, 9, carrier=ChainQuantale(8, LUKASIEWICZ))
    back = f_up_inverse(part, f_up(part, samples))
    assert all(b >= a for a, b in zip(samples, back))
    # and the pair is idempotent: compress, rebuild, compress again
    assert f_up(part, back) == f_up(part, samples)


def test_partition_file_writes_float_values_as_floats(tmp_path):
    # ints 0 and 1 are float-carrier values too; they are written as 0.0
    # and 1.0 and read back to equal values
    q = FloatUnitQuantale(LUKASIEWICZ)
    part = FuzzyPartition(q, ((1, 0.5, 0), (0, 0.5, 1.0)))
    path = tmp_path / "part.txt"
    save_partition(path, part)
    assert path.read_text() == "2 3\n1.0 0.5 0.0\n0.0 0.5 1.0\n"
    assert load_partition(path, q).table == part.table


def test_partition_file_refuses_hostile_fraction_tokens(tmp_path):
    q = ChainQuantale(4, LUKASIEWICZ)
    path = tmp_path / "part.txt"
    for token, message in (
        ("1/0", "zero denominator"),
        ("1.0e-999999999", "exponent past 400"),
        ("1e-999999999", "exponent past 400"),
    ):
        path.write_text(f"1 2\n{token} 1\n")
        with pytest.raises(ValueError, match=message):
            load_partition(path, q)


def test_partition_file_reads_exponents_with_or_without_a_point(tmp_path):
    q = ChainQuantale(4, LUKASIEWICZ)
    path = tmp_path / "part.txt"
    for token in ("1e-05", "1.0e-05"):
        path.write_text(f"1 2\n{token} 4\n")
        with pytest.raises(ValueError, match=r"^value 1/100000 is not a multiple of 1/4$"):
            load_partition(path, q)
    for token, level in (("5e-1", 2), ("5.0e-1", 2), ("25E-2", 1), ("2.5E-1", 1)):
        path.write_text(f"1 2\n{token} 4\n")
        assert load_partition(path, q).table == ((level, 4),)
