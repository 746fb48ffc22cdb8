import itertools
import os
import random
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from qkit.quantale import (
    CarrierMismatchError,
    ChainQuantale,
    Monoid,
    PowersetMonoidQuantale,
)
from qkit.qmodule import (
    BasisHom,
    FreeModule,
    FunctionHom,
    ModuleVector,
    Nucleus,
    basis_vector,
    bottom_vector,
    check_module_laws,
    check_module_laws_on,
    constant_vector,
    enumerate_vectors,
    hom_join,
    hom_scalar,
    interval_module,
    is_cyclic_over,
    load_vector,
    module_from_nucleus,
    nucleus_check,
    nucleus_from_hom,
    product_module,
    random_vector,
    save_vector,
    scalar_ldiv,
    scalar_mul,
    span_membership,
    top_vector,
    vec_div,
    vec_eq,
    vec_join,
    vec_leq,
    vec_meet,
)

Q4 = ChainQuantale(4)
X2 = (0, 1)
M4 = FreeModule(Q4, X2)


def v(*values, carrier=Q4):
    return ModuleVector(carrier, tuple(range(len(values))), tuple(values))


def test_pointwise_action_frozen_values():
    assert scalar_mul(2, v(3, 4)).values == (1, 2)
    assert scalar_ldiv(2, v(1, 0)).values == (3, 2)
    assert vec_div(v(1, 2), v(3, 4)) == 2


def test_vec_div_is_the_largest_scalar():
    # defining-join oracle: scan all scalars
    for m in enumerate_vectors(Q4, X2):
        for n in enumerate_vectors(Q4, X2):
            best = Q4.join(
                q for q in Q4.elements() if vec_leq(scalar_mul(q, n), m)
            )
            assert vec_div(m, n) == best


def test_scalar_ldiv_is_the_largest_vector():
    for q in Q4.elements():
        for m in enumerate_vectors(Q4, X2):
            best = vec_join(
                [n for n in enumerate_vectors(Q4, X2) if vec_leq(scalar_mul(q, n), m)],
                carrier=Q4,
                index=X2,
            )
            assert scalar_ldiv(q, m) == best


def test_lattice_helpers():
    assert vec_join([v(1, 0), v(0, 2)]).values == (1, 2)
    assert vec_meet([v(1, 3), v(2, 2)]).values == (1, 2)
    assert vec_leq(v(0, 1), v(1, 1))
    assert not vec_leq(v(2, 0), v(1, 1))
    assert bottom_vector(Q4, X2).values == (0, 0)
    assert top_vector(Q4, X2).values == (4, 4)
    assert basis_vector(Q4, X2, 1).values == (0, 4)


def test_mismatches_rejected():
    with pytest.raises(CarrierMismatchError):
        vec_join([v(1, 0), v(1, 0, carrier=ChainQuantale(5))])
    with pytest.raises(CarrierMismatchError):
        vec_div(v(1, 0), ModuleVector(Q4, (5, 6), (1, 0)))


def test_free_module_laws_exhaustive_small():
    rep = check_module_laws(ChainQuantale(3), X2)
    assert rep.ok, rep.summary()
    rep = check_module_laws(ChainQuantale(2, "godel"), (0, 1, 2))
    assert rep.ok, rep.summary()


def test_free_module_laws_powerset_carrier():
    q = PowersetMonoidQuantale(Monoid.cyclic(2))
    rep = check_module_laws(q, X2)
    assert rep.ok, rep.summary()


def test_free_module_laws_sampled_large():
    rng = random.Random(42)
    rep = check_module_laws(ChainQuantale(10), tuple(range(16)), rng=rng, n_samples=300)
    assert rep.ok, rep.summary()


def test_span_membership_frozen():
    q2 = ChainQuantale(2)
    m = FreeModule(q2, X2)
    gen = ModuleVector(q2, X2, (2, 2))
    assert not span_membership(m, ModuleVector(q2, X2, (1, 2)), [gen])
    assert span_membership(m, ModuleVector(q2, X2, (1, 1)), [gen])
    # the basis spans everything
    for x in enumerate_vectors(q2, X2):
        assert span_membership(m, x, m.basis())


def test_cyclicity():
    q2 = ChainQuantale(2)
    m = FreeModule(q2, X2)
    probes = tuple(m.elements())
    assert not is_cyclic_over(m, ModuleVector(q2, X2, (2, 2)), probes)
    single = FreeModule(q2, (0,))
    assert is_cyclic_over(single, ModuleVector(q2, (0,), (2,)), tuple(single.elements()))


def test_interval_module_frozen_example():
    base = FreeModule(Q4, (0,))
    floor = ModuleVector(Q4, (0,), (2,))
    mod = interval_module(base, floor)
    assert mod.star(3, ModuleVector(Q4, (0,), (3,))).values == (2,)
    assert mod.bot == floor
    els = tuple(mod.elements())
    assert all(mod.leq(floor, m) for m in els)
    rep = check_module_laws_on(mod, els, tuple(Q4.elements()))
    assert rep.ok, rep.summary()


def test_interval_module_rejects_nonintegral_carrier():
    # powerset of Z2: unit {0} is not the top, so scalars can grow the floor
    q = PowersetMonoidQuantale(Monoid.cyclic(2))
    base = FreeModule(q, (0,))
    floor = ModuleVector(q, (0,), (0b01,))
    with pytest.raises(ValueError):
        interval_module(base, floor)


def test_product_module_is_biproduct():
    q2 = ChainQuantale(2)
    f1 = FreeModule(q2, (0,))
    f2 = FreeModule(q2, (0, 1))
    prod = product_module([f1, f2])
    els = tuple(prod.elements())
    assert len(els) == 3 * 9
    rep = check_module_laws_on(prod, els[::4], tuple(q2.elements()))
    assert rep.ok, rep.summary()
    mu0, mu1 = prod.injection(0), prod.injection(1)
    pi0, pi1 = prod.projection(0), prod.projection(1)
    for x in f1.elements():
        assert pi0(mu0(x)) == x
        assert prod.eq(mu0(x), (x, f2.bot))
    for t in els:
        assert pi1(t) == t[1]
        # projections residuate against injections' tops
        assert prod.eq(pi1.residual(t[1]), (f1.top, t[1]))
    # copairing through the injections reproduces the identity-like hom
    idl = FunctionHom(f1, f1, lambda x: x)
    collapse = FunctionHom(f2, f1, lambda x: ModuleVector(q2, (0,), (x.values[0],)))
    cop = prod.copair([idl, collapse], f1)
    for t in els:
        assert vec_eq(cop(t), vec_join([idl(t[0]), collapse(t[1])]))


def test_basis_hom_extension_and_residual():
    # images chosen freely in the target; extension is the unique hom
    target = FreeModule(Q4, (0, 1, 2))
    images = (v(1, 2, 0, carrier=Q4), v(4, 0, 3, carrier=Q4))

    def fix(vec, idx=(0, 1, 2)):
        return ModuleVector(Q4, idx, vec.values)

    h = BasisHom(M4, target, tuple(fix(i) for i in images))
    for x, img in zip(M4.index, h.images):
        assert vec_eq(h(basis_vector(Q4, X2, x)), img)
    # join preservation on every pair
    for m, n in itertools.product(enumerate_vectors(Q4, X2), repeat=2):
        if hash((m.values, n.values)) % 7:
            continue
        assert vec_eq(h(vec_join([m, n])), vec_join([h(m), h(n)]))
    # adjunction against the residual
    for m in enumerate_vectors(Q4, X2):
        for nv in itertools.product((0, 2, 4), repeat=3):
            n = ModuleVector(Q4, (0, 1, 2), nv)
            assert vec_leq(h(m), n) == vec_leq(m, h.residual(n))


def test_hom_join_and_scalar_on_basis_homs():
    target = FreeModule(Q4, (0,))
    h1 = BasisHom(M4, target, (ModuleVector(Q4, (0,), (2,)), ModuleVector(Q4, (0,), (0,))))
    h2 = BasisHom(M4, target, (ModuleVector(Q4, (0,), (1,)), ModuleVector(Q4, (0,), (4,))))
    joined = hom_join([h1, h2])
    scaled = hom_scalar(3, h1)
    for m in enumerate_vectors(Q4, X2):
        assert vec_eq(joined(m), vec_join([h1(m), h2(m)]))
        assert vec_eq(scaled(m), h1(scalar_mul(3, m)))
    empty = hom_join([], domain=M4, target=target)
    assert vec_eq(empty(v(3, 3)), target.bot)


def double_residual_nucleus(carrier, index, c):
    """Componentwise (x -> c) -> c; a nucleus over a commutative carrier."""

    def fn(m):
        return ModuleVector(
            carrier,
            m.index,
            tuple(carrier.rres(c, carrier.rres(c, x)) for x in m.values),
        )

    return Nucleus(FreeModule(carrier, index), fn)


def test_double_residual_nucleus_passes_check():
    gamma = double_residual_nucleus(Q4, X2, 1)
    rep = nucleus_check(gamma)
    assert rep.ok, rep.summary()


def test_nucleus_check_rejects_non_nucleus():
    # round-up-to-even is a closure but not action-compatible
    def fn(m):
        return ModuleVector(Q4, m.index, tuple(x + (x % 2) for x in m.values))

    rep = nucleus_check(Nucleus(FreeModule(Q4, X2), fn))
    assert not rep.ok
    assert any("nucleus" in viol.law for viol in rep.violations)


def test_module_from_nucleus_structure():
    gamma = double_residual_nucleus(Q4, (0,), 1)
    quotient, refl = module_from_nucleus(gamma)
    els = tuple(quotient.elements())
    assert all(gamma.is_closed(m) for m in els)
    # reflected structure: joins and action get corrected by gamma
    for m, n in itertools.product(els, repeat=2):
        assert gamma.is_closed(quotient.join2(m, n))
    rep = check_module_laws_on(quotient, els, tuple(Q4.elements()))
    assert rep.ok, rep.summary()
    # residual of the reflection is the inclusion; their composite is gamma
    base = gamma.module
    for m in base.elements():
        assert vec_eq(refl.residual(refl(m)), gamma(m))
    recovered = nucleus_from_hom(refl)
    for m in base.elements():
        assert vec_eq(recovered(m), gamma(m))


def test_quotient_of_carrier_is_cyclic():
    # the quotient of Q by any nucleus is generated by gamma(unit)
    gamma = double_residual_nucleus(Q4, (0,), 1)
    quotient, _ = module_from_nucleus(gamma)
    gen = gamma(ModuleVector(Q4, (0,), (Q4.unit,)))
    assert is_cyclic_over(quotient, gen, tuple(quotient.elements()))


def test_identity_hom_gives_identity_nucleus():
    ident = FunctionHom(M4, M4, lambda m: m, residual_fn=lambda m: m)
    gamma = nucleus_from_hom(ident)
    for m in itertools.islice(enumerate_vectors(Q4, X2), 0, None, 3):
        assert vec_eq(gamma(m), m)


def test_vector_serialization_roundtrip(tmp_path):
    m = v(0, 2, 4)
    p = tmp_path / "vec.txt"
    save_vector(m, p)
    back = load_vector(p)
    assert back.values == m.values and back.carrier.d == 4
    from qkit.quantale import FloatUnitQuantale

    fm = ModuleVector(FloatUnitQuantale(), (0, 1), (0.25, 1.0))
    save_vector(fm, tmp_path / "f.txt")
    fback = load_vector(tmp_path / "f.txt")
    assert fback.values == (0.25, 1.0)
    # the t-norm survives the round trip
    for m in (
        v(0, 2, 4, carrier=ChainQuantale(4, "godel")),
        ModuleVector(FloatUnitQuantale("product"), (0, 1), (0.25, 1.0)),
    ):
        save_vector(m, p)
        back = load_vector(p)
        assert back.carrier == m.carrier and back.values == m.values
    # files without a t-norm load as Lukasiewicz
    p.write_text("chain 4 3\n0\n2\n4\n")
    assert load_vector(p).carrier == Q4


def test_random_vector_respects_carrier():
    rng = random.Random(0)
    for _ in range(20):
        m = random_vector(Q4, X2, rng)
        assert all(0 <= x <= 4 for x in m.values)


def test_vector_serialization_refuses_carriers_without_text_form(tmp_path):
    q = PowersetMonoidQuantale(Monoid.cyclic(2))
    p = tmp_path / "vec.txt"
    with pytest.raises(ValueError, match=r"^only chain and float vectors serialize to text$"):
        save_vector(ModuleVector(q, (0, 1), (q.top, q.bot)), p)
    assert not p.exists()


# Library-level fuzz of the vector reader: every file either loads or is
# refused with a ValueError that names what was wrong.
VECTOR_TOKEN = st.one_of(
    st.text(alphabet="0123456789.-+ex", min_size=1, max_size=6),
    st.sampled_from(("0", "1", "2", "4", "0.5", "chain", "float", "godel", "product")),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    head=st.lists(VECTOR_TOKEN, max_size=4),
    body=st.lists(VECTOR_TOKEN, max_size=4),
    valid=st.booleans(),
)
def test_vector_reader_survives_token_fuzz(head, body, valid):
    if valid:
        head = ["chain", "4", str(len(body))] + head[:1]
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "vector.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(" ".join(head) + "\n" + "\n".join(body) + "\n")
        try:
            load_vector(path)
        except ValueError as exc:
            assert "invalid literal" not in str(exc).lower(), exc


def test_vector_reader_names_the_bad_field(tmp_path):
    path = tmp_path / "vector.txt"
    for text, message in (
        ("chain x 1\n4\n", "denominator value 'x' is not an integer"),
        ("chain 4 1.0\n4\n", "size value '1.0' is not an integer"),
        ("chain 4 2\n4\n2x\n", "value token '2x' is not an integer"),
        ("float 0 1\n0.x\n", "value token '0.x' is not a number"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_vector(path)
