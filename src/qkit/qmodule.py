"""Modules over a residuated carrier: free vector modules and friends.

The free module over index set X is Q^X with pointwise order and the
scalar action (q * f)(x) = q . f(x).  Scalar action residuates in both
slots:

    sdiv(q, m)  largest n with q * n <= m      (pointwise residual)
    vdiv(m, n)  largest q with q * n <= m      (a meet of residuals)

so the three-way adjunction  q * n <= m  iff  n <= sdiv(q, m)  iff
q <= vdiv(m, n)  holds.  Quotients by a nucleus, interval modules and
finite products reuse the same small interface: bot/top, join2/meet2,
leq/eq, star/sdiv/vdiv, elements().

Values are checked where they enter: the public `ModuleVector`
constructor, `load_vector`, and the scalar or constant handed to
`scalar_mul`, `scalar_ldiv` and `constant_vector`.  Results of carrier
operations on checked values are trusted: the vector operations build
their results with the private `ModuleVector._trusted`, which checks
nothing.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterable, Iterator, Sequence

from qkit.quantale import (
    LUKASIEWICZ,
    Carrier,
    CarrierMismatchError,
    LawReport,
    NotFiniteError,
    carrier_from,
    parse_integer,
)

# Sizes up to which the law checks below run exhaustively: over every
# element of a base, or (_SINGLE_CAP) every scalar with every element
_INTERVAL_VERIFY_CAP = 700
_MODULE_EXHAUSTIVE_CAP = 10_000
_NUCLEUS_EXHAUSTIVE_CAP = 512
_SINGLE_CAP = 100_000


@dataclass(frozen=True)
class ModuleVector:
    """Total map from a finite index set into a carrier."""

    carrier: Carrier
    index: tuple
    values: tuple

    def __post_init__(self) -> None:
        if len(self.index) != len(self.values):
            raise ValueError("index and value lengths differ")
        for v in self.values:
            self.carrier.require(v)

    @classmethod
    def _trusted(cls, carrier: Carrier, index: tuple, values: tuple) -> "ModuleVector":
        """A vector whose values tuple is known to hold elements of the
        carrier, one per label of index; builds it without checking."""
        m = object.__new__(cls)
        object.__setattr__(m, "carrier", carrier)
        object.__setattr__(m, "index", index)
        object.__setattr__(m, "values", values)
        return m

    @cached_property
    def _pos(self) -> dict:
        return {x: i for i, x in enumerate(self.index)}

    def at(self, label):
        return self.values[self._pos[label]]

    def replace(self, label, value) -> "ModuleVector":
        i = self._pos[label]
        vals = self.values[:i] + (value,) + self.values[i + 1 :]
        return ModuleVector(self.carrier, self.index, vals)

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.values)) + ")"


def _aligned(m: ModuleVector, n: ModuleVector) -> None:
    if m.carrier != n.carrier:
        raise CarrierMismatchError(f"carriers differ: {m.carrier} vs {n.carrier}")
    if m.index != n.index:
        raise CarrierMismatchError(f"index sets differ: {m.index} vs {n.index}")


def constant_vector(carrier: Carrier, index: Sequence, value) -> ModuleVector:
    carrier.require(value)
    index = tuple(index)
    return ModuleVector._trusted(carrier, index, (value,) * len(index))


def bottom_vector(carrier: Carrier, index: Sequence) -> ModuleVector:
    return constant_vector(carrier, index, carrier.bot)


def top_vector(carrier: Carrier, index: Sequence) -> ModuleVector:
    return constant_vector(carrier, index, carrier.top)


def basis_vector(carrier: Carrier, index: Sequence, label) -> ModuleVector:
    """Unit at one position, bottom elsewhere; these generate the module."""
    index = tuple(index)
    if label not in index:
        raise ValueError(f"{label!r} is not in the index set")
    return ModuleVector._trusted(
        carrier,
        index,
        tuple(carrier.unit if x == label else carrier.bot for x in index),
    )


def vec_leq(m: ModuleVector, n: ModuleVector) -> bool:
    _aligned(m, n)
    leq = m.carrier.leq
    return all(leq(a, b) for a, b in zip(m.values, n.values))


def vec_eq(m: ModuleVector, n: ModuleVector) -> bool:
    _aligned(m, n)
    eq = m.carrier.eq
    return all(eq(a, b) for a, b in zip(m.values, n.values))


def vec_join(ms: Iterable[ModuleVector], *, carrier=None, index=None) -> ModuleVector:
    ms = tuple(ms)
    if not ms:
        if carrier is None or index is None:
            raise ValueError("empty join needs an explicit carrier and index")
        return bottom_vector(carrier, index)
    out = ms[0]
    join2 = out.carrier.join2
    for m in ms[1:]:
        _aligned(out, m)
        out = ModuleVector._trusted(
            out.carrier, out.index, tuple(map(join2, out.values, m.values))
        )
    return out


def vec_meet(ms: Iterable[ModuleVector], *, carrier=None, index=None) -> ModuleVector:
    ms = tuple(ms)
    if not ms:
        if carrier is None or index is None:
            raise ValueError("empty meet needs an explicit carrier and index")
        return top_vector(carrier, index)
    out = ms[0]
    meet2 = out.carrier.meet2
    for m in ms[1:]:
        _aligned(out, m)
        out = ModuleVector._trusted(
            out.carrier, out.index, tuple(map(meet2, out.values, m.values))
        )
    return out


def scalar_mul(q, m: ModuleVector) -> ModuleVector:
    """(q * m)(x) = q . m(x)."""
    m.carrier.require(q)
    mul = m.carrier.mul
    return ModuleVector._trusted(m.carrier, m.index, tuple(mul(q, v) for v in m.values))


def scalar_ldiv(q, m: ModuleVector) -> ModuleVector:
    """Largest n with q * n <= m: pointwise left residual q \\ m(x)."""
    m.carrier.require(q)
    lres = m.carrier.lres
    return ModuleVector._trusted(m.carrier, m.index, tuple(lres(q, v) for v in m.values))


def vec_div(m: ModuleVector, n: ModuleVector):
    """Largest scalar q with q * n <= m: the meet over x of m(x) / n(x)."""
    _aligned(m, n)
    q = m.carrier
    return reduce(q.meet2, map(q.rres, m.values, n.values), q.top)


def enumerate_vectors(carrier: Carrier, index: Sequence) -> Iterator[ModuleVector]:
    if not carrier.is_finite:
        raise NotFiniteError("cannot enumerate vectors over an infinite carrier")
    index = tuple(index)
    els = tuple(carrier.elements())
    for values in itertools.product(els, repeat=len(index)):
        yield ModuleVector._trusted(carrier, index, values)


def random_vector(carrier: Carrier, index: Sequence, rng: random.Random) -> ModuleVector:
    els = tuple(carrier.elements()) if carrier.is_finite else tuple(carrier.grid())
    index = tuple(index)
    return ModuleVector._trusted(carrier, index, tuple(rng.choice(els) for _ in index))


class FreeModule:
    """Q^X with the pointwise structure; equality is by carrier and index."""

    def __init__(self, carrier: Carrier, index: Sequence):
        self.carrier = carrier
        self.index = tuple(index)
        if len(set(self.index)) != len(self.index):
            raise ValueError("duplicate index labels")

    def __repr__(self) -> str:
        return f"FreeModule({self.carrier}, |X|={len(self.index)})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreeModule)
            and self.carrier == other.carrier
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((self.carrier, self.index))

    @property
    def bot(self) -> ModuleVector:
        return bottom_vector(self.carrier, self.index)

    @property
    def top(self) -> ModuleVector:
        return top_vector(self.carrier, self.index)

    def contains(self, m) -> bool:
        return (
            isinstance(m, ModuleVector)
            and m.carrier == self.carrier
            and m.index == self.index
        )

    def basis(self) -> tuple[ModuleVector, ...]:
        return tuple(basis_vector(self.carrier, self.index, x) for x in self.index)

    def leq(self, m, n) -> bool:
        return vec_leq(m, n)

    def eq(self, m, n) -> bool:
        return vec_eq(m, n)

    def join2(self, m, n) -> ModuleVector:
        return vec_join([m, n])

    def meet2(self, m, n) -> ModuleVector:
        return vec_meet([m, n])

    def join(self, ms: Iterable) -> ModuleVector:
        return vec_join(ms, carrier=self.carrier, index=self.index)

    def star(self, q, m) -> ModuleVector:
        return scalar_mul(q, m)

    def sdiv(self, q, m) -> ModuleVector:
        return scalar_ldiv(q, m)

    def vdiv(self, m, n):
        return vec_div(m, n)

    def elements(self) -> Iterator[ModuleVector]:
        return enumerate_vectors(self.carrier, self.index)

    def size(self) -> int:
        if not self.carrier.is_finite:
            raise NotFiniteError("infinite carrier")
        return self.carrier.size() ** len(self.index)


@dataclass(frozen=True)
class Nucleus:
    """Closure operator compatible with the action: q * g(m) <= g(q * m)."""

    module: object
    fn: Callable

    def __call__(self, m):
        return self.fn(m)

    def is_closed(self, m) -> bool:
        return self.module.eq(self.fn(m), m)


class QuotientModule:
    """Image of a nucleus g: joins and the action are g-corrected.

    Division needs no correction: on g-closed arguments the plain
    residuals already land on g-closed elements.
    """

    def __init__(self, base, nucleus: Nucleus):
        self.base = base
        self.nucleus = nucleus
        self.carrier = base.carrier

    def __repr__(self) -> str:
        return f"QuotientModule({self.base!r})"

    @property
    def bot(self):
        return self.nucleus(self.base.bot)

    @property
    def top(self):
        return self.base.top

    def contains(self, m) -> bool:
        return self.base.contains(m) and self.nucleus.is_closed(m)

    def leq(self, m, n) -> bool:
        return self.base.leq(m, n)

    def eq(self, m, n) -> bool:
        return self.base.eq(m, n)

    def join2(self, m, n):
        return self.nucleus(self.base.join2(m, n))

    def meet2(self, m, n):
        return self.base.meet2(m, n)

    def join(self, ms: Iterable):
        return self.nucleus(self.base.join(ms))

    def star(self, q, m):
        return self.nucleus(self.base.star(q, m))

    def sdiv(self, q, m):
        return self.base.sdiv(q, m)

    def vdiv(self, m, n):
        return self.base.vdiv(m, n)

    def elements(self) -> Iterator:
        for m in self.base.elements():
            if self.nucleus.is_closed(m):
                yield m


class IntervalModule:
    """Elements above a floor m0, with action q *' n = m0 v (q * n).

    Only sound when scalars shrink the floor (q * m0 <= m0 for all q),
    which holds over carriers whose unit is the top; construction
    re-verifies the module laws on small instances and refuses
    otherwise.
    """

    def __init__(self, base, floor):
        self.base = base
        self.floor = floor
        self.carrier = base.carrier
        try:
            size = base.size()
        except (NotFiniteError, AttributeError):
            size = None
        if size is not None and size <= _INTERVAL_VERIFY_CAP:
            els = [m for m in base.elements() if base.leq(floor, m)]
            scalars = tuple(self.carrier.elements())
            rep = check_module_laws_on(self, els, scalars)
            if not rep.ok:
                raise ValueError(
                    f"interval over this carrier is not a module: {rep.violations[0]}"
                )

    def __repr__(self) -> str:
        return f"IntervalModule({self.base!r}, floor={self.floor})"

    @property
    def bot(self):
        return self.floor

    @property
    def top(self):
        return self.base.top

    def contains(self, m) -> bool:
        return self.base.contains(m) and self.base.leq(self.floor, m)

    def leq(self, m, n) -> bool:
        return self.base.leq(m, n)

    def eq(self, m, n) -> bool:
        return self.base.eq(m, n)

    def join2(self, m, n):
        return self.base.join2(m, n)

    def meet2(self, m, n):
        return self.base.meet2(m, n)

    def join(self, ms: Iterable):
        return self.base.join2(self.floor, self.base.join(ms))

    def star(self, q, m):
        return self.base.join2(self.floor, self.base.star(q, m))

    def sdiv(self, q, m):
        return self.base.join2(self.floor, self.base.sdiv(q, m))

    def vdiv(self, m, n):
        return self.base.vdiv(m, n)

    def elements(self) -> Iterator:
        for m in self.base.elements():
            if self.base.leq(self.floor, m):
                yield m


def interval_module(base, floor) -> IntervalModule:
    if not base.contains(floor):
        raise ValueError("floor must be an element of the base module")
    return IntervalModule(base, floor)


class ProductModule:
    """Finite product with componentwise structure; also the coproduct."""

    def __init__(self, factors: Sequence):
        self.factors = tuple(factors)
        if not self.factors:
            raise ValueError("need at least one factor")
        carrier = self.factors[0].carrier
        for f in self.factors[1:]:
            if f.carrier != carrier:
                raise CarrierMismatchError("factors live over different carriers")
        self.carrier = carrier

    def __repr__(self) -> str:
        return f"ProductModule({len(self.factors)} factors)"

    @property
    def bot(self) -> tuple:
        return tuple(f.bot for f in self.factors)

    @property
    def top(self) -> tuple:
        return tuple(f.top for f in self.factors)

    def contains(self, m) -> bool:
        return (
            isinstance(m, tuple)
            and len(m) == len(self.factors)
            and all(f.contains(x) for f, x in zip(self.factors, m))
        )

    def leq(self, m, n) -> bool:
        return all(f.leq(a, b) for f, a, b in zip(self.factors, m, n))

    def eq(self, m, n) -> bool:
        return all(f.eq(a, b) for f, a, b in zip(self.factors, m, n))

    def join2(self, m, n) -> tuple:
        return tuple(f.join2(a, b) for f, a, b in zip(self.factors, m, n))

    def meet2(self, m, n) -> tuple:
        return tuple(f.meet2(a, b) for f, a, b in zip(self.factors, m, n))

    def join(self, ms: Iterable) -> tuple:
        out = self.bot
        for m in ms:
            out = self.join2(out, m)
        return out

    def star(self, q, m) -> tuple:
        return tuple(f.star(q, x) for f, x in zip(self.factors, m))

    def sdiv(self, q, m) -> tuple:
        return tuple(f.sdiv(q, x) for f, x in zip(self.factors, m))

    def vdiv(self, m, n):
        return self.carrier.meet(
            f.vdiv(a, b) for f, a, b in zip(self.factors, m, n)
        )

    def elements(self) -> Iterator[tuple]:
        pools = [tuple(f.elements()) for f in self.factors]
        return itertools.product(*pools)

    def injection(self, i: int) -> "FunctionHom":
        bots = self.bot

        def into(x):
            return bots[:i] + (x,) + bots[i + 1 :]

        return FunctionHom(self.factors[i], self, into, residual_fn=lambda t: t[i])

    def projection(self, i: int) -> "FunctionHom":
        tops = self.top

        def res(x):
            return tops[:i] + (x,) + tops[i + 1 :]

        return FunctionHom(self, self.factors[i], lambda t: t[i], residual_fn=res)

    def copair(self, homs: Sequence, target) -> "FunctionHom":
        """Unique hom through the injections: f(t) = join_i f_i(t_i)."""
        if len(homs) != len(self.factors):
            raise ValueError("one hom per factor required")

        def fn(t):
            return target.join(h(x) for h, x in zip(homs, t))

        return FunctionHom(self, target, fn)


def product_module(factors: Sequence) -> ProductModule:
    return ProductModule(factors)


class FunctionHom:
    """Join-preserving map given as a callable, residual optional."""

    def __init__(self, domain, target, fn, residual_fn=None):
        self.domain = domain
        self.target = target
        self.fn = fn
        self.residual_fn = residual_fn

    def __call__(self, m):
        return self.fn(m)

    def residual(self, n):
        if self.residual_fn is None:
            raise ValueError("no residual attached to this hom")
        return self.residual_fn(n)


class BasisHom:
    """Hom out of a free module, stored by its images on the basis.

    Extension by joins: h(m) = join_x m(x) * h(chi_x).  The residual
    solves m(x) <= vdiv(n, image_x) pointwise in the target.
    """

    def __init__(self, domain: FreeModule, target, images: Sequence):
        if len(tuple(images)) != len(domain.index):
            raise ValueError("one image per basis vector required")
        self.domain = domain
        self.target = target
        self.images = tuple(images)

    def __call__(self, m: ModuleVector):
        if not self.domain.contains(m):
            raise CarrierMismatchError("vector is not in the hom's domain")
        return self.target.join(
            self.target.star(v, img) for v, img in zip(m.values, self.images)
        )

    def residual(self, n) -> ModuleVector:
        return ModuleVector(
            self.domain.carrier,
            self.domain.index,
            tuple(self.target.vdiv(n, img) for img in self.images),
        )


def hom_join(homs: Sequence, *, domain=None, target=None):
    """Pointwise join of parallel homs; empty join is the constant bottom."""
    homs = tuple(homs)
    if not homs:
        if domain is None or target is None:
            raise ValueError("empty hom join needs an explicit signature")
        return FunctionHom(domain, target, lambda m: target.bot,
                           residual_fn=lambda n: domain.top)
    first = homs[0]
    for h in homs[1:]:
        if h.domain != first.domain or h.target != first.target:
            raise CarrierMismatchError("hom signatures differ")
    if all(hasattr(h, "kernel") for h in homs):
        joined = homs[0].kernel.pointwise_join([h.kernel for h in homs[1:]])
        return homs[0].__class__(joined)
    if all(isinstance(h, BasisHom) for h in homs):
        tgt = first.target
        images = tuple(
            tgt.join(h.images[i] for h in homs) for i in range(len(first.images))
        )
        return BasisHom(first.domain, tgt, images)
    return FunctionHom(
        first.domain,
        first.target,
        lambda m: first.target.join(h(m) for h in homs),
    )


def hom_scalar(q, h):
    """Scalar action on homs, realized entrywise on the representation.

    On kernels this multiplies every entry by q on the left, which is
    the action transported through the hom/kernel isomorphism.
    """
    if hasattr(h, "kernel"):
        return h.__class__(h.kernel.scale_left(q))
    if isinstance(h, BasisHom):
        images = tuple(h.target.star(q, img) for img in h.images)
        return BasisHom(h.domain, h.target, images)
    return FunctionHom(h.domain, h.target, lambda m: h.target.star(q, h(m)))


def nucleus_from_hom(h) -> Nucleus:
    """residual . direct of any hom with a residual is a nucleus."""
    return Nucleus(h.domain, lambda m: h.residual(h(m)))


def module_from_nucleus(gamma: Nucleus) -> tuple[QuotientModule, FunctionHom]:
    """Quotient module plus the reflection hom m -> gamma(m).

    The reflection's residual is the inclusion, so residual . direct
    recovers gamma itself.
    """
    quotient = QuotientModule(gamma.module, gamma)
    refl = FunctionHom(gamma.module, quotient, gamma.fn, residual_fn=lambda n: n)
    return quotient, refl


def span_membership(module, m, spanning: Iterable) -> bool:
    """m lies in the sub-module generated by S iff the best
    approximation join_s vdiv(m, s) * s already reaches m."""
    approx = module.join(module.star(module.vdiv(m, s), s) for s in spanning)
    return module.eq(approx, m)


def is_cyclic_over(module, v, probes: Iterable) -> bool:
    """v generates the module iff vdiv(m, v) * v = m for every m."""
    return all(
        module.eq(module.star(module.vdiv(m, v), v), m) for m in probes
    )


def check_module_laws_on(
    module,
    elements: Sequence,
    scalars: Sequence,
    pair_cap: int = 60_000,
    triple_cap: int = 150_000,
) -> LawReport:
    """Action, distributivity and division laws over the given samples.

    Small element sets are swept exhaustively; past the caps the pair
    and triple loops fall back to rotating windows through the sample,
    and scalar-by-element products past _SINGLE_CAP pair each element
    with a rotating scalar instead.  Either way the instance count
    stays linear in the sample while every sampled element is used.
    """
    elements = tuple(elements)
    count = len(elements)
    scalars = tuple(scalars)

    def pairs():
        if count * count <= pair_cap:
            yield from itertools.product(elements, repeat=2)
        else:
            for shift in (1, max(2, count // 3)):
                rolled = elements[shift:] + elements[:shift]
                yield from zip(elements, rolled)
                # comparable pairs so the conditional laws get exercised
                for a, b in zip(elements, rolled):
                    yield a, module.join2(a, b)

    def triples():
        if count**3 <= triple_cap:
            yield from itertools.product(elements, repeat=3)
        else:
            half = max(3, count // 2)
            r1 = elements[1:] + elements[:1]
            r2 = elements[half:] + elements[:half]
            yield from zip(elements, r1, r2)

    rep = LawReport(name=f"module laws on {module!r}")
    q = module.carrier
    eq, leq = module.eq, module.leq
    qeq, qleq = q.eq, q.leq
    star, sdiv, vdiv = module.star, module.sdiv, module.vdiv
    join2, meet2 = module.join2, module.meet2
    bot = module.bot
    e = q.unit

    for m in elements:
        rep.checked += 1
        if not eq(star(e, m), m):
            rep.record("action.unit", (m,))
        if not eq(star(q.bot, m), bot):
            rep.record("action.bottom-scalar", (m,))
        if not qleq(e, vdiv(m, m)):
            rep.record("division.self-unit", (m,))
        if not eq(star(vdiv(m, m), m), m):
            rep.record("division.self-action", (m,))

    for a in scalars:
        rep.checked += 1
        if not eq(star(a, bot), bot):
            rep.record("action.bottom-vector", (a,))

    spairs = tuple(itertools.product(scalars, repeat=2))
    if len(spairs) * count <= _SINGLE_CAP:
        two_scalar = ((a, b, m) for a, b in spairs for m in elements)
    else:
        two_scalar = (
            (*spairs[i % len(spairs)], m) for i, m in enumerate(elements)
        )
    for a, b, m in two_scalar:
        rep.checked += 1
        if not eq(star(q.mul(a, b), m), star(a, star(b, m))):
            rep.record("action.associative", (a, b, m))
        if not eq(star(q.join2(a, b), m), join2(star(a, m), star(b, m))):
            rep.record("action.distributes-scalar", (a, b, m))
        if not eq(sdiv(q.join2(a, b), m), meet2(sdiv(a, m), sdiv(b, m))):
            rep.record("division.scalar-join-to-meet", (a, b, m))
        if not eq(sdiv(a, sdiv(b, m)), sdiv(q.mul(b, a), m)):
            rep.record("division.nesting", (a, b, m))

    pair_volume = count * count if count * count <= pair_cap else 4 * count
    if len(scalars) * pair_volume <= _SINGLE_CAP:
        scalar_pairs = ((a, m, n) for a in scalars for m, n in pairs())
    else:
        scalar_pairs = (
            (scalars[i % len(scalars)], m, n) for i, (m, n) in enumerate(pairs())
        )
    for a, m, n in scalar_pairs:
        rep.checked += 1
        if not eq(star(a, join2(m, n)), join2(star(a, m), star(a, n))):
            rep.record("action.distributes-vector", (a, m, n))
        if not eq(sdiv(a, meet2(m, n)), meet2(sdiv(a, m), sdiv(a, n))):
            rep.record("division.meet-numerator", (a, m, n))
        under = leq(star(a, m), n)
        if under != leq(m, sdiv(a, n)):
            rep.record("division.adjunction-vector", (a, m, n))
        if under != qleq(a, vdiv(n, m)):
            rep.record("division.adjunction-scalar", (a, m, n))
        if not qeq(vdiv(sdiv(a, m), n), q.lres(a, vdiv(m, n))):
            rep.record("division.mixed-slot", (a, m, n))

    for m, n in pairs():
        rep.checked += 1
        if not leq(star(vdiv(m, n), n), m):
            rep.record("division.bound-scalar", (m, n))
        if not qeq(vdiv(star(vdiv(m, n), n), n), vdiv(m, n)):
            rep.record("division.idempotent-triple", (m, n))
        if leq(m, n):
            for a in scalars[:4]:
                if not leq(star(a, m), star(a, n)):
                    rep.record("action.monotone", (a, m, n))

    if len(scalars) * count <= _SINGLE_CAP:
        one_scalar = ((a, m) for a in scalars for m in elements)
    else:
        one_scalar = ((scalars[i % len(scalars)], m) for i, m in enumerate(elements))
    for a, m in one_scalar:
        rep.checked += 1
        if not leq(star(a, sdiv(a, m)), m):
            rep.record("division.bound-vector", (a, m))
        if not leq(m, sdiv(a, star(a, m))):
            rep.record("division.expansive", (a, m))

    for m, n, k in triples():
        rep.checked += 1
        if not qeq(vdiv(meet2(m, n), k), q.meet2(vdiv(m, k), vdiv(n, k))):
            rep.record("division.meet-numerator-scalar", (m, n, k))
        if not qeq(vdiv(m, join2(n, k)), q.meet2(vdiv(m, n), vdiv(m, k))):
            rep.record("division.join-denominator", (m, n, k))
    return rep


def check_module_laws(
    carrier: Carrier,
    index: Sequence,
    rng: random.Random | None = None,
    n_samples: int = 0,
    pair_cap: int = 60_000,
    triple_cap: int = 150_000,
) -> LawReport:
    """Free-module law suite: exhaustive when Q^X is small, sampled otherwise."""
    module = FreeModule(carrier, index)
    if carrier.is_finite:
        size = module.size()
        scalars = tuple(carrier.elements())
    else:
        size = _MODULE_EXHAUSTIVE_CAP + 1
        scalars = tuple(carrier.grid(10))
    if size <= _MODULE_EXHAUSTIVE_CAP and n_samples == 0:
        elements = tuple(module.elements())
    else:
        if rng is None:
            raise ValueError("sampled law check needs an rng")
        n = n_samples or 1000
        elements = tuple(random_vector(carrier, index, rng) for _ in range(n))
        if len(scalars) > 12:
            scalars = tuple(rng.choice(scalars) for _ in range(12))
    return check_module_laws_on(
        module, elements, scalars, pair_cap=pair_cap, triple_cap=triple_cap
    )


def nucleus_check(
    gamma: Nucleus,
    elements: Sequence | None = None,
    scalars: Sequence | None = None,
    rng: random.Random | None = None,
    n_samples: int = 40,
) -> LawReport:
    """Closure axioms plus action compatibility and its consequences."""
    module = gamma.module
    if elements is None:
        base = module.base if hasattr(module, "base") else module
        try:
            size = base.size()
        except (NotFiniteError, AttributeError):
            size = None
        if size is not None and size <= _NUCLEUS_EXHAUSTIVE_CAP:
            elements = tuple(base.elements())
        else:
            if rng is None:
                raise ValueError("sampled nucleus check needs an rng")
            elements = tuple(
                random_vector(base.carrier, base.index, rng) for _ in range(n_samples)
            )
    if scalars is None:
        scalars = tuple(module.carrier.elements())
        if len(scalars) > 8:
            step = len(scalars) // 8
            scalars = scalars[::step]
    rep = LawReport(name="nucleus laws")
    leq, eq = module.leq, module.eq
    star, sdiv, vdiv = module.star, module.sdiv, module.vdiv

    for m in elements:
        rep.checked += 1
        gm = gamma(m)
        if not leq(m, gm):
            rep.record("closure.extensive", (m,))
        if not eq(gamma(gm), gm):
            rep.record("closure.idempotent", (m,))

    for m, n in zip(elements, elements[1:]):
        rep.checked += 1
        up = module.join2(m, n)
        if not leq(gamma(m), gamma(up)):
            rep.record("closure.monotone", (m, up))

    for a in scalars:
        for m in elements:
            rep.checked += 1
            gm = gamma(m)
            if not leq(star(a, gm), gamma(star(a, m))):
                rep.record("nucleus.action-compatible", (a, m))
            if not eq(gamma(star(a, gm)), gamma(star(a, m))):
                rep.record("nucleus.saturated-action", (a, m))
            if not leq(gamma(sdiv(a, m)), sdiv(a, gm)):
                rep.record("nucleus.division-dominates", (a, m))
            if not eq(gamma(sdiv(a, gm)), sdiv(a, gm)):
                rep.record("nucleus.division-closed", (a, m))

    for m, n in zip(elements, elements[1:]):
        rep.checked += 1
        gm = gamma(m)
        if not module.carrier.eq(vdiv(gm, n), vdiv(gm, gamma(n))):
            rep.record("nucleus.closed-numerator-division", (m, n))
    return rep


def save_vector(m: ModuleVector, path) -> None:
    """Text form: `<kind> <denominator> <size> <t-norm>` then one value
    per line."""
    q = m.carrier
    if q.kind is None:
        raise ValueError("only chain and float vectors serialize to text")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{q.kind} {q.denominator} {len(m.values)} {q.tnorm}\n")
        fh.write("\n".join(map(q.format, m.values)) + "\n")


def load_vector(path, carrier: Carrier | None = None) -> ModuleVector:
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise ValueError("truncated vector file")
    kind = tokens[0]
    denom = parse_integer(tokens[1], "denominator value")
    size = parse_integer(tokens[2], "size value")
    body = tokens[3:]
    # the t-norm is the one word among the numbers; files without it
    # predate it and are Lukasiewicz
    tnorm = body.pop(0) if body and body[0].isalpha() else LUKASIEWICZ
    if len(body) != size:
        raise ValueError(f"expected {size} values, found {len(body)}")
    spec = carrier_from(kind, denom, tnorm)
    values = tuple(map(spec.parse, body))
    return ModuleVector(carrier or spec, tuple(range(size)), values)
