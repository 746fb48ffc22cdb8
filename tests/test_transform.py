import itertools
import os
import re
import random
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from qkit.fuzzy import GridAlignmentWarning, luk_kernel
from qkit.quantale import (
    GODEL,
    PRODUCT,
    ChainQuantale,
    FloatUnitQuantale,
    Monoid,
    PowersetMonoidQuantale,
)
from qkit.qmodule import (
    FreeModule,
    ModuleVector,
    basis_vector,
    enumerate_vectors,
    hom_join,
    hom_scalar,
    module_from_nucleus,
    nucleus_check,
    random_vector,
    scalar_mul,
    vec_eq,
    vec_join,
    vec_leq,
)
from qkit.suplattice import FiniteLattice, TabulatedMap, residual_of
from qkit.transform import (
    CoderClass,
    EmbeddingError,
    Kernel,
    KernelHom,
    LiftError,
    apply_direct,
    apply_direct_right,
    apply_inverse,
    apply_inverse_right,
    classify_coder,
    core,
    equivalent_up_to_projections,
    hom_of_kernel,
    is_irreducible,
    kernel_closure,
    kernel_of_hom,
    lift_through_projection,
    load_kernel,
    projective_coder,
    projective_extension,
    random_kernel,
    random_strong_kernel,
    save_kernel,
    support,
    transform_nucleus,
)

Q4 = ChainQuantale(4)


def test_direct_and_inverse_frozen_example():
    # X = {0, 1}, Y = {0}; p(0,0)=4, p(1,0)=2
    p = Kernel(Q4, (0, 1), (0,), ((4,), (2,)))
    f = ModuleVector(Q4, (0, 1), (3, 3))
    assert apply_direct(p, f).values == (3,)
    g = ModuleVector(Q4, (0,), (3,))
    assert apply_inverse(p, g).values == (3, 4)


def test_adjunction_exhaustive_small():
    q = ChainQuantale(2)
    X, Y = (0, 1), (0,)
    for entries in itertools.product(q.elements(), repeat=2):
        p = Kernel(q, X, Y, ((entries[0],), (entries[1],)))
        for f in enumerate_vectors(q, X):
            hf = apply_direct(p, f)
            for g in enumerate_vectors(q, Y):
                assert vec_leq(hf, g) == vec_leq(f, apply_inverse(p, g))


def test_inverse_equals_lattice_residual_oracle():
    # tabulate H as a map between the vector lattices and residuate it there
    q = ChainQuantale(2)
    X, Y = (0, 1), (0, 1)
    rng = random.Random(5)
    lat_x = FiniteLattice.from_relation(tuple(enumerate_vectors(q, X)), vec_leq)
    lat_y = FiniteLattice.from_relation(tuple(enumerate_vectors(q, Y)), vec_leq)
    for _ in range(10):
        p = random_kernel(q, X, Y, rng)
        h = TabulatedMap.from_function(lat_x, lat_y, lambda f: apply_direct(p, f))
        upper = residual_of(h)
        for g in lat_y.labels:
            assert vec_eq(upper(g), apply_inverse(p, g))


def test_direct_is_module_hom():
    rng = random.Random(9)
    X, Y = tuple(range(5)), tuple(range(3))
    for _ in range(20):
        p = random_kernel(Q4, X, Y, rng)
        f1, f2 = random_vector(Q4, X, rng), random_vector(Q4, X, rng)
        q = rng.randrange(5)
        assert vec_eq(
            apply_direct(p, vec_join([f1, f2])),
            vec_join([apply_direct(p, f1), apply_direct(p, f2)]),
        )
        assert vec_eq(
            apply_direct(p, scalar_mul(q, f1)), scalar_mul(q, apply_direct(p, f1))
        )


def test_composites_and_nucleus():
    rng = random.Random(21)
    X, Y = tuple(range(5)), tuple(range(3))
    for _ in range(30):
        p = random_kernel(Q4, X, Y, rng)
        for _ in range(5):
            f = random_vector(Q4, X, rng)
            g = random_vector(Q4, Y, rng)
            hf = apply_direct(p, f)
            lg = apply_inverse(p, g)
            assert vec_eq(apply_direct(p, apply_inverse(p, hf)), hf)
            assert vec_eq(apply_inverse(p, apply_direct(p, lg)), lg)
            assert vec_leq(f, apply_inverse(p, hf))
            assert vec_leq(apply_direct(p, lg), g)
    p = random_kernel(Q4, X, Y, random.Random(77))
    rep = nucleus_check(transform_nucleus(p), rng=random.Random(78), n_samples=25)
    assert rep.ok, rep.summary()


def test_dual_residual_laws():
    # the inverse transform preserves meets and commutes with scalar division
    rng = random.Random(14)
    X, Y = tuple(range(4)), tuple(range(3))
    from qkit.qmodule import scalar_ldiv, vec_meet

    for _ in range(20):
        p = random_kernel(Q4, X, Y, rng)
        g1, g2 = random_vector(Q4, Y, rng), random_vector(Q4, Y, rng)
        q = rng.randrange(5)
        assert vec_eq(
            apply_inverse(p, vec_meet([g1, g2])),
            vec_meet([apply_inverse(p, g1), apply_inverse(p, g2)]),
        )
        assert vec_eq(
            apply_inverse(p, scalar_ldiv(q, g1)), scalar_ldiv(q, apply_inverse(p, g1))
        )


def test_right_variant_adjunction_and_asymmetry():
    s3 = PowersetMonoidQuantale(Monoid.symmetric(3))
    X, Y = (0,), (0,)
    els = tuple(s3.elements())
    # exhaustive adjunction for the right pair on singleton index sets
    for pv in els[::7]:
        p = Kernel(s3, X, Y, ((pv,),))
        for fv in els[::5]:
            f = ModuleVector(s3, X, (fv,))
            hf = apply_direct_right(p, f)
            for gv in els[::5]:
                g = ModuleVector(s3, Y, (gv,))
                assert vec_leq(hf, g) == vec_leq(f, apply_inverse_right(p, g))
    # left and right transforms differ somewhere
    witness = False
    for pv in els:
        p = Kernel(s3, X, Y, ((pv,),))
        for fv in els:
            f = ModuleVector(s3, X, (fv,))
            if apply_direct(p, f).values != apply_direct_right(p, f).values:
                witness = True
                break
        if witness:
            break
    assert witness


def test_projective_coder_restricts():
    X, Y = (0, 1, 2, 3), (1, 3)
    pi = projective_coder(Q4, X, Y)
    for f in itertools.islice(enumerate_vectors(Q4, X), 0, None, 41):
        assert apply_direct(pi, f).values == (f.at(1), f.at(3))
    cls = classify_coder(pi)
    assert cls.is_strong and cls.is_orthonormal
    assert support(pi) == ()
    assert not is_irreducible(pi)


def test_classification_grades_and_implications():
    q = Q4
    X, Y = (0, 1, 2), (0, 1)
    e, b = q.unit, q.bot
    # coder but not normal: diagonal above the unit is impossible on chains,
    # so use a diagonal entry above e on the powerset carrier
    ps = PowersetMonoidQuantale(Monoid.cyclic(2))
    k_coder = Kernel(ps, X, Y, ((0b11, 0), (0, 0b01), (0b10, 0b10)))
    c = classify_coder(k_coder)
    assert c.is_coder and not c.is_normal
    # normal but not strong: diagonal e, off-diagonal leak
    k_normal = Kernel(q, X, Y, ((e, 1), (b, e), (0, 0)))
    c = classify_coder(k_normal)
    assert c.is_normal and not c.is_strong
    # strong but not orthogonal: third row shares mass between columns
    k_strong = Kernel(q, X, Y, ((e, b), (b, e), (3, 3)))
    c = classify_coder(k_strong)
    assert c.is_strong and not c.is_orthogonal and c.grade() == "strong"
    # orthonormal
    k_on = Kernel(q, X, Y, ((e, b), (b, e), (2, 2)))
    c = classify_coder(k_on)
    assert c.is_orthonormal  # 2*2 = max(0, 2+2-4) = 0 under this product
    with pytest.raises(ValueError):
        CoderClass(True, True, False, True, True)


def _dense_classify(p):
    """classify_coder as it was written over the dense rows, kept as the
    reference of the walk over the bands."""
    q = p.carrier
    eps = p.epsilon
    e, bot = q.unit, q.bot
    diag = [p.rows[p._x_pos[ex]][j] for j, ex in enumerate(eps)]
    coder = all(q.leq(e, v) for v in diag)
    normal = all(q.eq(v, e) for v in diag)
    strong = normal and all(
        q.eq(p.rows[p._x_pos[ex]][j2], bot)
        for j1, ex in enumerate(eps)
        for j2 in range(len(p.y_index))
        if j1 != j2
    )
    ncols = len(p.y_index)
    orthogonal = all(
        q.eq(q.mul(row[j1], row[j2]), bot) and q.eq(q.mul(row[j2], row[j1]), bot)
        for row in p.rows
        for j1 in range(ncols)
        for j2 in range(j1 + 1, ncols)
    )
    return CoderClass(coder, normal, strong, orthogonal, orthogonal and normal)


def _grade_values(q):
    """Values near bottom, values near the unit, and any value.  On the
    unit interval "near" takes in values within the tolerance and the
    integers 0 and 1; bottom and the unit come up as often as the rest,
    so that every grade occurs."""
    if q.is_finite:
        low, high = st.just(q.bot), st.just(q.unit)
        other = st.sampled_from(tuple(q.elements()))
    else:
        low, high = st.sampled_from((0.0, 1e-12, 0)), st.sampled_from((1.0, 1.0 - 1e-12, 1))
        other = st.one_of(st.just(0.5), st.floats(0.0, 1.0))
    return low, high, st.one_of(low, high, other)


@pytest.mark.parametrize(
    "q",
    (
        Q4,
        ChainQuantale(4, GODEL),
        FloatUnitQuantale(),
        FloatUnitQuantale(PRODUCT),
        PowersetMonoidQuantale(Monoid.symmetric(3)),
    ),
    ids=repr,
)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_classify_coder_matches_the_dense_reference(q, data):
    nx = data.draw(st.integers(1, 5))
    X = tuple(range(nx))
    Y = tuple(sorted(data.draw(st.sets(st.sampled_from(X), min_size=1))))
    low, high, value = _grade_values(q)
    rows = [[data.draw(value) for _ in Y] for _ in X]
    if data.draw(st.booleans()):  # (near) projection rows under the labels of Y
        for j, y in enumerate(Y):
            rows[y] = [data.draw(high if jj == j else low) for jj in range(len(Y))]
    embedding = data.draw(st.one_of(st.none(), st.tuples(*(st.sampled_from(X) for _ in Y))))
    p = Kernel(q, X, Y, tuple(map(tuple, rows)), embedding)
    assert classify_coder(p) == _dense_classify(p)


@pytest.mark.parametrize("q", (None, FloatUnitQuantale(), FloatUnitQuantale(PRODUCT)), ids=repr)
@pytest.mark.parametrize("n, l", ((2, 2), (3, 5), (5, 17), (9, 33), (3, 6), (4, 11), (6, 20)))
def test_classify_coder_matches_the_dense_reference_on_luk_kernels(q, n, l):
    # (3, 6), (4, 11) and (6, 20) miss the peaks
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridAlignmentWarning)
        p = luk_kernel(n, l, q)
    grades = classify_coder(p)
    assert grades == _dense_classify(p)
    aligned = (l - 1) % (n - 1) == 0
    assert grades.is_strong == aligned and grades.is_coder == aligned


def test_strong_kernels_reconstruct_exactly():
    rng = random.Random(3)
    q = ChainQuantale(10)
    X, Y = tuple(range(6)), (1, 4, 5)
    for _ in range(50):
        p = random_strong_kernel(q, X, Y, rng)
        assert classify_coder(p).is_strong
        for _ in range(4):
            g = random_vector(q, Y, rng)
            assert vec_eq(apply_direct(p, apply_inverse(p, g)), g)


def test_support_core_closure_equivalence():
    X = (0, 1, 2, 3)
    pi = projective_coder(Q4, X, (0, 2))
    # overwrite one column so it stops being projective
    rows = list(map(list, pi.rows))
    rows[1][0] = 3  # column of label 0 now leaks at x=1
    p = Kernel(Q4, X, (0, 2), tuple(map(tuple, rows)))
    assert support(p) == (0,)
    assert not is_irreducible(p)
    c = core(p)
    assert c.y_index == (0,)
    assert is_irreducible(c)
    # extending by projection columns does not change support or class
    ext = projective_extension(p, (0, 1, 2))
    assert support(ext) == (0,)
    assert equivalent_up_to_projections(p, ext)
    assert equivalent_up_to_projections(p, kernel_closure(p))
    # a genuinely different kernel is not equivalent
    other = projective_coder(Q4, X, (0, 2))
    assert not equivalent_up_to_projections(p, other)
    closure = kernel_closure(p)
    assert closure.y_index == X
    assert _kernel_entry_count(closure) == 16


def _kernel_entry_count(k):
    return sum(len(r) for r in k.rows)


def test_hom_kernel_roundtrip():
    rng = random.Random(31)
    X, Y = tuple(range(5)), tuple(range(3))
    for _ in range(40):
        p = random_kernel(Q4, X, Y, rng)
        h = hom_of_kernel(p)
        back = kernel_of_hom(h)
        assert back.rows == p.rows
    # hom -> kernel -> hom agrees beyond the basis
    p = random_kernel(Q4, X, Y, random.Random(4))
    h = hom_of_kernel(p)
    k = kernel_of_hom(h)
    h2 = hom_of_kernel(k)
    for _ in range(100):
        f = random_vector(Q4, X, random.Random(_))
        assert vec_eq(h(f), h2(f))


def test_distinct_kernels_give_distinct_homs():
    rng = random.Random(8)
    X, Y = (0, 1), (0, 1)
    p1 = random_kernel(Q4, X, Y, rng)
    rows = list(map(list, p1.rows))
    rows[0][1] = (rows[0][1] + 1) % 5
    p2 = Kernel(Q4, X, Y, tuple(map(tuple, rows)))
    h1, h2 = hom_of_kernel(p1), hom_of_kernel(p2)
    assert any(
        not vec_eq(h1(chi), h2(chi))
        for chi in FreeModule(Q4, X).basis()
    )


def test_hom_join_and_scalar_on_kernels():
    rng = random.Random(12)
    X, Y = tuple(range(4)), tuple(range(2))
    k1, k2 = random_kernel(Q4, X, Y, rng), random_kernel(Q4, X, Y, rng)
    h = hom_join([KernelHom(k1), KernelHom(k2)])
    assert h.kernel.rows == k1.pointwise_join([k2]).rows
    for _ in range(10):
        f = random_vector(Q4, X, rng)
        assert vec_eq(h(f), vec_join([apply_direct(k1, f), apply_direct(k2, f)]))
    scaled = hom_scalar(3, KernelHom(k1))
    for _ in range(10):
        f = random_vector(Q4, X, rng)
        assert vec_eq(scaled(f), apply_direct(k1, scalar_mul(3, f)))


def test_lift_identity_on_quotient_recovers_nucleus_action():
    # pi = pi' = the reflection onto a quotient, h = identity:
    # the lifted kernel's rows are gamma on the basis and the square commutes
    q = ChainQuantale(3)
    X = (0, 1)
    rng = random.Random(19)
    gamma = transform_nucleus(random_kernel(q, X, (0,), rng))
    quotient, refl = module_from_nucleus(gamma)
    from qkit.qmodule import FunctionHom

    ident = FunctionHom(quotient, quotient, lambda m: m)
    k = lift_through_projection(ident, refl, refl)
    for x, row in zip(X, k.rows):
        assert row == gamma(basis_vector(q, X, x)).values
    for f in enumerate_vectors(q, X):
        assert vec_eq(refl(f), refl(apply_direct(k, f)))


def test_lift_through_projection_square_commutes():
    # pi = identity on the free side, pi' = reflection onto a quotient,
    # h = gamma . H_p which is a hom into the quotient
    q = ChainQuantale(3)
    X, Y = (0, 1), (0, 1)
    rng = random.Random(19)
    module_x = FreeModule(q, X)
    gy = transform_nucleus(random_kernel(q, Y, (0,), rng))
    mod_y, pi_prime = module_from_nucleus(gy)
    h_kernel = random_kernel(q, X, Y, rng)
    from qkit.qmodule import FunctionHom

    ident = FunctionHom(module_x, module_x, lambda m: m, residual_fn=lambda m: m)
    h = FunctionHom(module_x, mod_y, lambda m: gy(apply_direct(h_kernel, m)))
    k = lift_through_projection(h, ident, pi_prime)
    for f in enumerate_vectors(q, X):
        left = h(ident(f))
        right = pi_prime(apply_direct(k, f))
        assert vec_eq(left, right)


def test_lift_identity_projections_recovers_kernel_of_hom():
    q = ChainQuantale(3)
    X = (0, 1)
    module = FreeModule(q, X)
    from qkit.qmodule import FunctionHom

    ident = FunctionHom(module, module, lambda m: m, residual_fn=lambda m: m)
    p = random_kernel(q, X, X, random.Random(2))
    h = hom_of_kernel(p)
    k = lift_through_projection(h, ident, ident, probes=tuple(module.elements()))
    assert k.rows == p.rows


def test_lift_rejects_non_surjective():
    q = ChainQuantale(2)
    X = (0, 1)
    module = FreeModule(q, X)
    from qkit.qmodule import FunctionHom

    collapse = FunctionHom(module, module, lambda m: module.bot, residual_fn=lambda m: module.top)
    ident = FunctionHom(module, module, lambda m: m, residual_fn=lambda m: m)
    with pytest.raises(LiftError):
        lift_through_projection(ident, collapse, ident)


def test_embedding_required_when_y_not_inside_x():
    p = Kernel(Q4, (0, 1), (9,), ((1,), (2,)))
    with pytest.raises(EmbeddingError):
        classify_coder(p)
    with pytest.raises(EmbeddingError):
        support(p)
    ok = Kernel(Q4, (0, 1), (9,), ((4,), (0,)), embedding=(0,))
    assert classify_coder(ok).is_normal


def test_kernel_serialization_roundtrip(tmp_path):
    rng = random.Random(6)
    p = random_kernel(Q4, tuple(range(3)), tuple(range(2)), rng)
    path = tmp_path / "kernel.txt"
    save_kernel(p, path)
    back = load_kernel(path)
    assert back.rows == p.rows
    assert back.carrier == Q4
    txt = path.read_text()
    assert txt.splitlines()[0] == "carrier=chain d=4 tnorm=lukasiewicz rows=3 cols=2"
    # the t-norm survives the round trip
    for q, x, y in (
        (ChainQuantale(4, GODEL), (0, 1, 2), (0, 1)),
        (FloatUnitQuantale(PRODUCT), (0, 1), (0, 1, 2)),
    ):
        if q.is_finite:
            p = random_kernel(q, x, y, rng)
        else:
            rows = tuple(tuple(rng.random() for _ in y) for _ in x)
            p = Kernel(q, x, y, rows)
        save_kernel(p, path)
        back = load_kernel(path)
        assert back.carrier == q and back.rows == p.rows
    # files without a t-norm field load as Lukasiewicz
    path.write_text("carrier=chain d=4 rows=1 cols=2\n4 0\n")
    assert load_kernel(path).carrier == Q4
    # Y labels and an explicit embedding survive, so the coder grade does
    aligned = luk_kernel(3, 5, Q4)
    with pytest.warns(GridAlignmentWarning):
        misaligned = luk_kernel(3, 6, ChainQuantale(5))
    for p, extra in (
        (aligned, " ylabels=0,2,4"),
        (misaligned, " ylabels=0,3,5 embedding=0,3,5"),
        (Kernel(Q4, (3, -1), (7,), ((4,), (2,)), (3,)), " xlabels=3,-1 ylabels=7 embedding=3"),
    ):
        save_kernel(p, path)
        assert path.read_text().splitlines()[0].endswith(extra)
        back = load_kernel(path)
        assert back == p
        assert classify_coder(back) == classify_coder(p)
    assert classify_coder(aligned).is_orthonormal
    # labels that are no integers are refused, not dropped
    for x, y in (((0, 1), ("a", "b")), (((0, 0), (1, 0)), (0, 1)), ((True, 1), (0, 1))):
        with pytest.raises(ValueError, match="integers"):
            save_kernel(Kernel(Q4, x, y, ((4, 0), (0, 4))), path)


def test_kernel_serialization_refuses_carriers_without_text_form(tmp_path):
    q = PowersetMonoidQuantale(Monoid.cyclic(2))
    path = tmp_path / "kernel.txt"
    with pytest.raises(ValueError, match=r"^only chain and float kernels serialize to text$"):
        save_kernel(Kernel(q, (0, 1), (0,), ((q.top,), (q.bot,))), path)
    assert not path.exists()


# Library-level fuzz of the kernel reader: headers mix well-formed and
# broken key=value fields, bodies mix number-shaped and stray tokens.
# Every file either loads or is refused with a ValueError that names
# what was wrong.
KERNEL_TOKEN = st.one_of(
    st.text(alphabet="0123456789.-+ex,=", min_size=1, max_size=6),
    st.sampled_from(("0", "1", "2", "4", "0.5", "1.0")),
)
KERNEL_FIELD = st.one_of(
    st.tuples(
        st.sampled_from(("carrier", "d", "tnorm", "rows", "cols", "xlabels", "ylabels", "embedding")),
        st.one_of(
            KERNEL_TOKEN,
            st.sampled_from(("chain", "float", "lukasiewicz", "godel", "product", "0,1", "1,0,2")),
        ),
    ).map("=".join),
    KERNEL_TOKEN,
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    head=st.lists(KERNEL_FIELD, max_size=7),
    body=st.lists(st.lists(KERNEL_TOKEN, max_size=3), max_size=3),
    valid=st.booleans(),
)
def test_kernel_reader_survives_token_fuzz(head, body, valid):
    if valid:
        head = ["carrier=chain", "d=4", "rows=2", "cols=2"] + head[:1]
    text = " ".join(head) + "\n" + "".join(" ".join(line) + "\n" for line in body)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "kernel.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        try:
            load_kernel(path)
        except ValueError as exc:
            assert "invalid literal" not in str(exc).lower(), exc


def test_kernel_reader_names_the_bad_field(tmp_path):
    path = tmp_path / "kernel.txt"
    for text, message in (
        ("", "empty kernel file"),
        ("carrier=chain d=4 rows=1\n4\n", "kernel header lacks keys: cols"),
        ("carrier=chain d=4 rows=1 cols=1 x\n4\n", "header token 'x' is not key=value"),
        ("carrier=chain d=4 rows=1 cols=x\n4\n", "cols value 'x' is not an integer"),
        ("carrier=chain d=4.0 rows=1 cols=1\n4\n", "d value '4.0' is not an integer"),
        ("carrier=chain d=4 rows=1 cols=1\n4x\n", "value token '4x' is not an integer"),
        ("carrier=float d=0 rows=1 cols=1\n.x\n", "value token '.x' is not a number"),
        ("carrier=chain d=4 rows=1 cols=1 xlabels=a\n4\n", "xlabels value 'a' is not an integer"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_kernel(path)
