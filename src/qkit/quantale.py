"""Complete residuated lattice carriers.

A carrier packages a complete lattice with a monoid product that
distributes over joins, plus the two residuals the adjunction

    x * y <= z   iff   y <= lres(x, z)   iff   x <= rres(z, y)

forces to exist.  Three concrete families are provided: integer chains
with Lukasiewicz or Godel product, the real unit interval with a
left-continuous t-norm, and the powerset of a finite monoid under
complex multiplication.  The first and last are exact; the float
carrier checks laws up to a tolerance.

Every file reader and writer goes through the text form of the chain
and float carriers: `kind` and `denominator` name one in a header, and
`carrier_from` builds it back; `parse`/`format` spell a value; `ratio`
and `fraction` map exact unit-interval numbers, as `parse_fraction`
reads them, to values and back.  The powerset carrier has no text form.
`parse_integer` reads the integer fields of every header.  A token that
does not parse is named in the error, never passed on in Python's words.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

LUKASIEWICZ = "lukasiewicz"
GODEL = "godel"
PRODUCT = "product"


class CarrierMismatchError(ValueError):
    """Raised when an element does not belong to the carrier using it."""


class NotFiniteError(ValueError):
    """Raised when an operation needs to enumerate an infinite carrier."""


@dataclass(frozen=True)
class LawViolation:
    law: str
    witness: tuple

    def __str__(self) -> str:
        return f"{self.law} at {self.witness!r}"


@dataclass
class LawReport:
    """Outcome of a law suite: how many instances ran and which failed."""

    name: str
    checked: int = 0
    violations: list[LawViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, law: str, witness: Iterable) -> None:
        self.violations.append(LawViolation(law, tuple(witness)))

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        head = f"{verdict} {self.name} ({self.checked} instances)"
        if self.ok:
            return head
        lines = [head] + [f"  {v}" for v in self.violations[:10]]
        if len(self.violations) > 10:
            lines.append(f"  ... {len(self.violations) - 10} more")
        return "\n".join(lines)


class Carrier:
    """Shared derived operations; concrete carriers fill in the primitives."""

    is_finite: bool = True
    # the text form's name; None on carriers that have no text form
    kind: str | None = None

    def _no_text_form(self, *args):
        raise ValueError(f"{self!r} has no text form")

    parse = format = ratio = fraction = _no_text_form

    def require(self, *xs) -> None:
        for x in xs:
            if not self.contains(x):
                raise CarrierMismatchError(f"{x!r} is not an element of {self}")

    def eq(self, x, y) -> bool:
        return x == y

    def join(self, xs: Iterable):
        out = self.bot
        for x in xs:
            self.require(x)
            out = self.join2(out, x)
        return out

    def meet(self, xs: Iterable):
        out = self.top
        for x in xs:
            self.require(x)
            out = self.meet2(out, x)
        return out

    # primitives expected from subclasses:
    #   bot, top, unit, contains, leq, join2, meet2, mul, lres, rres, elements


@dataclass(frozen=True)
class ChainQuantale(Carrier):
    """Integer levels 0..d ordered by <=, product Lukasiewicz or Godel.

    Everything is exact integer arithmetic; the unit of the product is
    the top level d in both variants.
    """

    d: int
    tnorm: str = LUKASIEWICZ

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("chain needs at least two levels")
        if self.tnorm not in (LUKASIEWICZ, GODEL):
            raise ValueError(f"unsupported chain product {self.tnorm!r}")

    @property
    def bot(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.d

    @property
    def unit(self) -> int:
        return self.d

    def contains(self, x) -> bool:
        # an exact type test: bool is an int subclass, and True is no level
        return type(x) is int and 0 <= x <= self.d

    def leq(self, x: int, y: int) -> bool:
        return x <= y

    def join2(self, x: int, y: int) -> int:
        return x if x >= y else y

    def meet2(self, x: int, y: int) -> int:
        return x if x <= y else y

    def mul(self, x: int, y: int) -> int:
        if self.tnorm == LUKASIEWICZ:
            s = x + y - self.d
            return s if s > 0 else 0
        return x if x <= y else y

    def rres(self, z: int, y: int) -> int:
        """Largest x with mul(x, y) <= z."""
        if self.tnorm == LUKASIEWICZ:
            s = self.d - y + z
            return s if s < self.d else self.d
        return self.d if y <= z else z

    def lres(self, x: int, z: int) -> int:
        """Largest y with mul(x, y) <= z; chains are commutative, so this
        is rres(z, x), written out to save a call."""
        if self.tnorm == LUKASIEWICZ:
            s = self.d - x + z
            return s if s < self.d else self.d
        return self.d if x <= z else z

    def elements(self) -> Iterator[int]:
        return iter(range(self.d + 1))

    def size(self) -> int:
        return self.d + 1

    # text form: levels are written as integers
    kind = "chain"
    format = staticmethod(str)

    @staticmethod
    def parse(token: str) -> int:
        return parse_integer(token, "value token")

    denominator = property(lambda self: self.d)

    def ratio(self, num: int, den: int, label: str | None = None) -> int:
        """The level num/den, refused (as `label`, if given) unless it is
        a multiple of 1/d."""
        if num * self.d % den:
            label = label or f"value {Fraction(num, den)}"
            raise ValueError(f"{label} is not a multiple of 1/{self.d}")
        return num * self.d // den

    def fraction(self, v: int) -> Fraction:
        return Fraction(v, self.d)


@dataclass(frozen=True)
class FloatUnitQuantale(Carrier):
    """The unit interval under a left-continuous t-norm.

    Not finite, so exhaustive checks sample a grid; order comparisons
    absorb `tolerance` so that closed-form residuals of the product
    t-norm survive rounding.
    """

    tnorm: str = LUKASIEWICZ
    tolerance: float = 1e-9

    is_finite = False

    def __post_init__(self) -> None:
        if self.tnorm not in (LUKASIEWICZ, GODEL, PRODUCT):
            raise ValueError(f"unsupported t-norm {self.tnorm!r}")

    @property
    def bot(self) -> float:
        return 0.0

    @property
    def top(self) -> float:
        return 1.0

    @property
    def unit(self) -> float:
        return 1.0

    def contains(self, x) -> bool:
        # exact types, so that booleans are rejected
        return type(x) in (float, int) and 0.0 <= x <= 1.0

    def eq(self, x: float, y: float) -> bool:
        return abs(x - y) <= self.tolerance

    def leq(self, x: float, y: float) -> bool:
        return x <= y + self.tolerance

    def join2(self, x: float, y: float) -> float:
        return x if x >= y else y

    def meet2(self, x: float, y: float) -> float:
        return x if x <= y else y

    def mul(self, x: float, y: float) -> float:
        if self.tnorm == LUKASIEWICZ:
            s = x + y - 1.0
            return s if s > 0.0 else 0.0
        if self.tnorm == GODEL:
            return x if x <= y else y
        return x * y

    def rres(self, z: float, y: float) -> float:
        if self.tnorm == LUKASIEWICZ:
            s = 1.0 - y + z
            return s if s < 1.0 else 1.0
        if self.tnorm == GODEL:
            return 1.0 if y <= z else z
        return 1.0 if y <= z else z / y

    def lres(self, x: float, z: float) -> float:
        """Largest y with mul(x, y) <= z; the t-norms are commutative, so
        this is rres(z, x), written out to save a call."""
        if self.tnorm == LUKASIEWICZ:
            s = 1.0 - x + z
            return s if s < 1.0 else 1.0
        if self.tnorm == GODEL:
            return 1.0 if x <= z else z
        return 1.0 if x <= z else z / x

    def elements(self) -> Iterator[float]:
        raise NotFiniteError("the unit interval cannot be enumerated")

    def grid(self, steps: int = 20) -> tuple[float, ...]:
        """Evenly spaced sample including both endpoints."""
        return tuple(k / steps for k in range(steps + 1))

    # text form: values are written as float reprs
    kind = "float"
    denominator = 0
    format = staticmethod(lambda v: repr(float(v)))

    @staticmethod
    def parse(token: str) -> float:
        try:
            return float(token)
        except ValueError:
            raise ValueError(f"value token '{token}' is not a number") from None

    def ratio(self, num: int, den: int, label: str | None = None) -> float:
        return num / den

    def fraction(self, v: float) -> float:
        return v


def carrier_from(kind: str, d: int, tnorm: str) -> Carrier:
    """The carrier a file header names by kind, denominator and t-norm;
    the float carrier ignores d."""
    if kind == "chain":
        return ChainQuantale(d, tnorm)
    if kind == "float":
        return FloatUnitQuantale(tnorm)
    raise ValueError(f"unknown carrier kind {kind!r}")


def parse_integer(token: str, what: str) -> int:
    """An integer token; anything else is refused with a message that
    names `what` was read and the token itself."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{what} '{token}' is not an integer") from None


# Fraction builds 10**e for an exponent e, so a few bytes can cost
# minutes; float reprs stay within -324..308.
EXPONENT_MAX = 400


def parse_fraction(token: str) -> Fraction:
    """An integer, decimal or n/m token as an exact fraction; refuses a
    zero denominator, and an exponent past EXPONENT_MAX in magnitude."""
    _, e, exp = token.upper().partition("E")
    digits = exp.lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdigit() and (len(digits) > 3 or int(digits) > EXPONENT_MAX):
        raise ValueError(f"value {token} has an exponent past {EXPONENT_MAX}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"value {token} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"value token '{token}' is not a number") from None


@dataclass(frozen=True)
class Monoid:
    """Finite monoid as an operation table; element 0 is the unit.

    The constructor only validates shape and index range.  Algebraic
    laws are the law checker's job, so a deliberately corrupted table
    is representable and gets reported rather than rejected.
    """

    table: tuple[tuple[int, ...], ...]
    unit: int = 0

    def __post_init__(self) -> None:
        n = len(self.table)
        if n == 0:
            raise ValueError("empty monoid table")
        for row in self.table:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise ValueError("monoid table is not square over valid indices")
        if not 0 <= self.unit < n:
            raise ValueError("unit index out of range")

    @property
    def size(self) -> int:
        return len(self.table)

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    @classmethod
    def cyclic(cls, n: int) -> "Monoid":
        return cls(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))

    @classmethod
    def symmetric(cls, n: int) -> "Monoid":
        """Permutations of range(n) under composition; non-commutative for n >= 3."""
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        table = tuple(
            tuple(index[tuple(p[q[k]] for k in range(n))] for q in perms)
            for p in perms
        )
        return cls(table, unit=index[tuple(range(n))])


def parse_monoid(text: str) -> Monoid:
    """Monoid table format: first line n, then n rows of n indices."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty monoid file")
    n = parse_integer(tokens[0], "monoid size")
    body = [parse_integer(t, "monoid entry") for t in tokens[1:]]
    if len(body) != n * n:
        raise ValueError(f"expected {n * n} entries, found {len(body)}")
    rows = tuple(tuple(body[i * n : (i + 1) * n]) for i in range(n))
    return Monoid(rows)


@dataclass(frozen=True)
class PowersetMonoidQuantale(Carrier):
    """Subsets of a finite monoid, bitmask encoded, under complex product.

    X * Y = { x*y : x in X, y in Y }, so the empty set annihilates.
    Join is union.  With a non-commutative monoid the two residuals
    genuinely differ.
    """

    monoid: Monoid

    @property
    def bot(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return (1 << self.monoid.size) - 1

    @property
    def unit(self) -> int:
        return 1 << self.monoid.unit

    def contains(self, x) -> bool:
        # exact type, as on the chains: True is no bitmask
        return type(x) is int and 0 <= x <= self.top

    def leq(self, x: int, y: int) -> bool:
        return x & ~y == 0

    def join2(self, x: int, y: int) -> int:
        return x | y

    def meet2(self, x: int, y: int) -> int:
        return x & y

    def _bits(self, x: int) -> Iterator[int]:
        while x:
            low = x & -x
            yield low.bit_length() - 1
            x ^= low

    def mul(self, x: int, y: int) -> int:
        table = self.monoid.table
        out = 0
        for a in self._bits(x):
            row = table[a]
            for b in self._bits(y):
                out |= 1 << row[b]
        return out

    def lres(self, x: int, z: int) -> int:
        """Largest Y with X * Y <= Z: all b such that a*b lands in Z for every a in X."""
        table = self.monoid.table
        out = 0
        for b in range(self.monoid.size):
            if all(z >> table[a][b] & 1 for a in self._bits(x)):
                out |= 1 << b
        return out

    def rres(self, z: int, y: int) -> int:
        """Largest X with X * Y <= Z."""
        table = self.monoid.table
        out = 0
        for a in range(self.monoid.size):
            if all(z >> table[a][b] & 1 for b in self._bits(y)):
                out |= 1 << a
        return out

    def elements(self) -> Iterator[int]:
        return iter(range(1 << self.monoid.size))

    def size(self) -> int:
        return 1 << self.monoid.size


def residual_by_search(carrier: Carrier, x, z, side: str = "left", candidates=None):
    """Defining-join fallback: join of all y whose product with x stays under z.

    side="left" scans mul(x, y) and must agree with lres(x, z);
    side="right" scans mul(y, x) and must agree with rres(z, x).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    if candidates is None:
        if not carrier.is_finite:
            raise NotFiniteError("need explicit candidates on an infinite carrier")
        candidates = carrier.elements()
    carrier.require(x, z)
    acc = carrier.bot
    for y in candidates:
        prod = carrier.mul(x, y) if side == "left" else carrier.mul(y, x)
        if carrier.leq(prod, z):
            acc = carrier.join2(acc, y)
    return acc


def check_quantale_laws(carrier: Carrier, elements: Sequence | None = None) -> LawReport:
    """Exhaustively verify the lattice, monoid, distributivity and residual laws.

    On a finite carrier every pair/triple is checked.  On the unit
    interval pass a sample grid; comparisons then absorb the carrier
    tolerance.
    """
    if elements is None:
        if not carrier.is_finite:
            raise NotFiniteError("need explicit elements on an infinite carrier")
        elements = tuple(carrier.elements())
    else:
        elements = tuple(elements)
    rep = LawReport(name=f"quantale laws on {carrier}")
    eq = carrier.eq
    leq = carrier.leq
    mul = carrier.mul
    lres = carrier.lres
    rres = carrier.rres
    join2 = carrier.join2
    meet2 = carrier.meet2
    bot = carrier.bot
    top = carrier.top
    e = carrier.unit

    for x in elements:
        rep.checked += 1
        if not leq(x, x):
            rep.record("order.reflexive", (x,))
        if not leq(bot, x):
            rep.record("order.bottom-least", (x,))
        if not leq(x, top):
            rep.record("order.top-greatest", (x,))
        if not eq(mul(x, bot), bot) or not eq(mul(bot, x), bot):
            rep.record("product.bottom-annihilates", (x,))
        if not eq(mul(x, e), x) or not eq(mul(e, x), x):
            rep.record("monoid.unit", (x,))
        if not eq(rres(x, e), x) or not eq(lres(e, x), x):
            rep.record("residual.unit-denominator", (x,))
        # empty-family cases: join of none is bottom, meet of none is top
        if not eq(rres(x, bot), top) or not eq(lres(bot, x), top):
            rep.record("residual.bottom-denominator", (x,))
        if not eq(rres(top, x), top) or not eq(lres(x, top), top):
            rep.record("residual.top-numerator", (x,))

    for x, y in itertools.product(elements, repeat=2):
        rep.checked += 1
        if leq(x, y) and leq(y, x) and not eq(x, y):
            rep.record("order.antisymmetric", (x, y))
        j = join2(x, y)
        if not leq(x, j) or not leq(y, j):
            rep.record("join.upper-bound", (x, y))
        m = meet2(x, y)
        if not leq(m, x) or not leq(m, y):
            rep.record("meet.lower-bound", (x, y))

    for x, y, z in itertools.product(elements, repeat=3):
        rep.checked += 1
        if leq(x, y) and leq(y, z) and not leq(x, z):
            rep.record("order.transitive", (x, y, z))
        if leq(x, z) and leq(y, z) and not leq(join2(x, y), z):
            rep.record("join.least-upper-bound", (x, y, z))
        if leq(z, x) and leq(z, y) and not leq(z, meet2(x, y)):
            rep.record("meet.greatest-lower-bound", (x, y, z))
        if not eq(mul(mul(x, y), z), mul(x, mul(y, z))):
            rep.record("monoid.associative", (x, y, z))
        if not eq(mul(x, join2(y, z)), join2(mul(x, y), mul(x, z))):
            rep.record("product.distributes-left", (x, y, z))
        if not eq(mul(join2(y, z), x), join2(mul(y, x), mul(z, x))):
            rep.record("product.distributes-right", (x, y, z))
        # the adjunction that defines both residuals
        under = leq(mul(x, y), z)
        if under != leq(y, lres(x, z)):
            rep.record("residual.adjunction-left", (x, y, z))
        if under != leq(x, rres(z, y)):
            rep.record("residual.adjunction-right", (x, y, z))
        if leq(x, y):
            if not leq(mul(x, z), mul(y, z)) or not leq(mul(z, x), mul(z, y)):
                rep.record("product.monotone", (x, y, z))
            if not leq(rres(x, z), rres(y, z)) or not leq(lres(z, x), lres(z, y)):
                rep.record("residual.monotone-numerator", (x, y, z))
            if not leq(rres(z, y), rres(z, x)) or not leq(lres(y, z), lres(x, z)):
                rep.record("residual.antitone-denominator", (x, y, z))
        if not leq(mul(rres(y, x), x), y) or not leq(mul(x, lres(x, y)), y):
            rep.record("residual.division-bound", (x, y))
        if not eq(rres(x, join2(y, z)), meet2(rres(x, y), rres(x, z))):
            rep.record("residual.join-denominator-to-meet.right", (x, y, z))
        if not eq(lres(join2(y, z), x), meet2(lres(y, x), lres(z, x))):
            rep.record("residual.join-denominator-to-meet.left", (x, y, z))
        if not eq(rres(meet2(x, y), z), meet2(rres(x, z), rres(y, z))):
            rep.record("residual.meet-numerator.right", (x, y, z))
        if not eq(lres(z, meet2(x, y)), meet2(lres(z, x), lres(z, y))):
            rep.record("residual.meet-numerator.left", (x, y, z))
        if not eq(lres(y, lres(x, z)), lres(mul(x, y), z)):
            rep.record("residual.nesting.left", (x, y, z))
        if not eq(rres(rres(z, y), x), rres(z, mul(x, y))):
            rep.record("residual.nesting.right", (x, y, z))
    return rep
