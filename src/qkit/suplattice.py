"""Finite sup-lattices, residuated maps, closure operators and quotients.

Lattices are explicit order tables.  Every subset of a finite lattice
with a bottom has a join, so "complete" here means: binary joins and
the empty join exist and arbitrary finite joins are folds of those.

The central facts exercised elsewhere in the package:

* a join-preserving map f has a unique upper adjoint
  f_*(y) = join of { x : f(x) <= y }, and the pair satisfies
  f(x) <= y  iff  x <= f_*(y);
* f_* . f is a closure operator, f . f_* an interior operator;
* S -> gamma_S, with gamma_S(x) the least member of S above x, is an
  order-reversing bijection between meet-closed subsets and closure
  operators.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Sequence


class LatticeError(ValueError):
    """The given order data does not describe a complete lattice."""


class NotResiduatedError(ValueError):
    """A map failed join preservation; carries a witness family."""

    def __init__(self, message: str, witness: tuple = ()):
        super().__init__(message)
        self.witness = witness


class NotMeetClosedError(ValueError):
    def __init__(self, message: str, witness: tuple = ()):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class FiniteLattice:
    """Complete lattice on an explicit element tuple with a leq matrix.

    Construction verifies the order axioms, the existence of a least
    element and of all binary joins and meets; join/meet tables are
    cached.  Elements may be any hashable labels (ints, tuples,
    vectors), and all public operations speak labels, not indices.
    """

    labels: tuple
    leq_matrix: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n == 0:
            raise LatticeError("empty carrier")
        if len(set(self.labels)) != n:
            raise LatticeError("duplicate labels")
        m = self.leq_matrix
        if len(m) != n or any(len(row) != n for row in m):
            raise LatticeError("order matrix shape mismatch")
        for i in range(n):
            if not m[i][i]:
                raise LatticeError(f"not reflexive at {self.labels[i]!r}")
            for j in range(n):
                if i != j and m[i][j] and m[j][i]:
                    raise LatticeError(
                        f"not antisymmetric at {self.labels[i]!r}, {self.labels[j]!r}"
                    )
                if m[i][j]:
                    for k in range(n):
                        if m[j][k] and not m[i][k]:
                            raise LatticeError("not transitive")
        # bottom = join of the empty family
        bots = [i for i in range(n) if all(m[i][j] for j in range(n))]
        if not bots:
            raise LatticeError("no bottom element")
        tops = [i for i in range(n) if all(m[j][i] for j in range(n))]
        if not tops:
            raise LatticeError("no top element")
        object.__setattr__(self, "_bot_i", bots[0])
        object.__setattr__(self, "_top_i", tops[0])
        join_t = [[-1] * n for _ in range(n)]
        meet_t = [[-1] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                ubs = [k for k in range(n) if m[i][k] and m[j][k]]
                least = [k for k in ubs if all(m[k][u] for u in ubs)]
                if not least:
                    raise LatticeError(
                        f"no join for {self.labels[i]!r}, {self.labels[j]!r}"
                    )
                join_t[i][j] = least[0]
                lbs = [k for k in range(n) if m[k][i] and m[k][j]]
                greatest = [k for k in lbs if all(m[u][k] for u in lbs)]
                if not greatest:
                    raise LatticeError(
                        f"no meet for {self.labels[i]!r}, {self.labels[j]!r}"
                    )
                meet_t[i][j] = greatest[0]
        object.__setattr__(self, "_join_t", tuple(map(tuple, join_t)))
        object.__setattr__(self, "_meet_t", tuple(map(tuple, meet_t)))

    @classmethod
    def from_relation(
        cls, labels: Sequence[Hashable], leq: Callable[[Hashable, Hashable], bool]
    ) -> "FiniteLattice":
        labels = tuple(labels)
        matrix = tuple(tuple(bool(leq(a, b)) for b in labels) for a in labels)
        return cls(labels, matrix)

    @classmethod
    def chain(cls, n: int) -> "FiniteLattice":
        """Total order 0 < 1 < ... < n-1."""
        return cls.from_relation(range(n), lambda a, b: a <= b)

    @classmethod
    def powerset(cls, n_atoms: int) -> "FiniteLattice":
        """Boolean lattice of bitmask subsets of n_atoms generators."""
        return cls.from_relation(range(1 << n_atoms), lambda a, b: a & ~b == 0)

    # --- label-level API -------------------------------------------------
    @cached_property
    def _pos(self) -> dict:
        return {x: i for i, x in enumerate(self.labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, x) -> bool:
        return x in self._pos

    def index(self, x) -> int:
        try:
            return self._pos[x]
        except KeyError:
            raise LatticeError(f"{x!r} is not a lattice element") from None

    @property
    def bot(self):
        return self.labels[self._bot_i]

    @property
    def top(self):
        return self.labels[self._top_i]

    def leq(self, x, y) -> bool:
        return self.leq_matrix[self.index(x)][self.index(y)]

    def join2(self, x, y):
        return self.labels[self._join_t[self.index(x)][self.index(y)]]

    def meet2(self, x, y):
        return self.labels[self._meet_t[self.index(x)][self.index(y)]]

    def join(self, xs: Iterable):
        i = self._bot_i
        for x in xs:
            i = self._join_t[i][self.index(x)]
        return self.labels[i]

    def meet(self, xs: Iterable):
        i = self._top_i
        for x in xs:
            i = self._meet_t[i][self.index(x)]
        return self.labels[i]

    def upset(self, x) -> tuple:
        i = self.index(x)
        return tuple(y for j, y in enumerate(self.labels) if self.leq_matrix[i][j])

    def join_irreducibles(self) -> tuple:
        """Elements that are not the join of the strictly smaller ones."""
        out = []
        for i, x in enumerate(self.labels):
            below = [y for j, y in enumerate(self.labels) if self.leq_matrix[j][i] and j != i]
            if self.join(below) != x:
                out.append(x)
        return tuple(out)

    def sublattice(self, members: Iterable) -> "FiniteLattice":
        members = tuple(members)
        for x in members:
            self.index(x)
        return FiniteLattice.from_relation(members, self.leq)


@dataclass(frozen=True)
class TabulatedMap:
    """Total map between finite lattices stored as a value tuple."""

    source: FiniteLattice
    target: FiniteLattice
    table: tuple

    def __post_init__(self) -> None:
        if len(self.table) != len(self.source):
            raise LatticeError("table length does not match the source")
        for v in self.table:
            self.target.index(v)

    @classmethod
    def from_function(
        cls, source: FiniteLattice, target: FiniteLattice, fn: Callable
    ) -> "TabulatedMap":
        return cls(source, target, tuple(fn(x) for x in source.labels))

    def __call__(self, x):
        return self.table[self.source.index(x)]

    def compose(self, inner: "TabulatedMap") -> "TabulatedMap":
        """self after inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise LatticeError("composition signature mismatch")
        return TabulatedMap(
            inner.source, self.target, tuple(self(v) for v in inner.table)
        )

    def is_join_preserving(self) -> tuple[bool, tuple]:
        """Check empty and binary joins; returns (ok, witness family)."""
        if self(self.source.bot) != self.target.bot:
            return False, ()
        for x, y in itertools.product(self.source.labels, repeat=2):
            if self(self.source.join2(x, y)) != self.target.join2(self(x), self(y)):
                return False, (x, y)
        return True, ()


def residual_of(f: TabulatedMap) -> TabulatedMap:
    """Upper adjoint of a join-preserving map via the defining join."""
    ok, witness = f.is_join_preserving()
    if not ok:
        raise NotResiduatedError(
            f"map does not preserve the join of the family {witness!r}", witness
        )
    src, tgt = f.source, f.target
    table = tuple(
        src.join(x for x in src.labels if tgt.leq(f(x), y)) for y in tgt.labels
    )
    return TabulatedMap(tgt, src, table)


def is_adjoint_pair(f: TabulatedMap, g: TabulatedMap) -> bool:
    """f(x) <= y iff x <= g(y), over all pairs."""
    if f.source != g.target or f.target != g.source:
        return False
    return all(
        f.target.leq(f(x), y) == f.source.leq(x, g(y))
        for x in f.source.labels
        for y in f.target.labels
    )


@dataclass(frozen=True)
class ClosureOperator:
    """Monotone, extensive, idempotent self-map on a finite lattice."""

    lattice: FiniteLattice
    table: tuple

    def __post_init__(self) -> None:
        lat = self.lattice
        if len(self.table) != len(lat):
            raise LatticeError("closure table length mismatch")
        g = dict(zip(lat.labels, self.table))
        for x in lat.labels:
            if not lat.leq(x, g[x]):
                raise LatticeError(f"not extensive at {x!r}")
            if g[g[x]] != g[x]:
                raise LatticeError(f"not idempotent at {x!r}")
            for y in lat.upset(x):
                if not lat.leq(g[x], g[y]):
                    raise LatticeError(f"not monotone at {x!r} <= {y!r}")

    def __call__(self, x):
        return self.table[self.lattice.index(x)]

    @cached_property
    def image(self) -> frozenset:
        return frozenset(self.table)


def closure_from_pair(f: TabulatedMap, g: TabulatedMap) -> ClosureOperator:
    """g . f for an adjoint pair (f, g); rejects non-adjoint input."""
    if not is_adjoint_pair(f, g):
        raise NotResiduatedError("maps are not an adjoint pair")
    return ClosureOperator(f.source, tuple(g(f(x)) for x in f.source.labels))


def interior_from_pair(f: TabulatedMap, g: TabulatedMap) -> TabulatedMap:
    """f . g for an adjoint pair (f, g): monotone, contractive, idempotent."""
    if not is_adjoint_pair(f, g):
        raise NotResiduatedError("maps are not an adjoint pair")
    lat = f.target
    table = tuple(f(g(y)) for y in lat.labels)
    h = dict(zip(lat.labels, table))
    for y in lat.labels:
        if not lat.leq(h[y], y) or h[h[y]] != h[y]:
            raise LatticeError(f"interior axioms fail at {y!r}")
    return TabulatedMap(lat, lat, table)


def gamma_from_meet_closed(lattice: FiniteLattice, members: Iterable) -> ClosureOperator:
    """Closure x -> least member of S above x, for a meet-closed S.

    Meet closure of a finite subset amounts to: contains the top
    (empty meet) and closed under binary meets.
    """
    s = frozenset(members)
    for x in s:
        lattice.index(x)
    if lattice.top not in s:
        raise NotMeetClosedError("missing the empty meet (top)", ())
    for x, y in itertools.combinations(sorted(s, key=lattice.index), 2):
        if lattice.meet2(x, y) not in s:
            raise NotMeetClosedError(f"meet of {x!r}, {y!r} escapes the subset", (x, y))
    table = tuple(
        lattice.meet(y for y in s if lattice.leq(x, y)) for x in lattice.labels
    )
    return ClosureOperator(lattice, table)


def image_of_closure(gamma: ClosureOperator) -> frozenset:
    """Fixed points of a closure operator; always meet-closed."""
    return gamma.image


def reflection(lattice: FiniteLattice, members: Iterable) -> TabulatedMap:
    """Surjective join-preserving map from L onto a meet-closed subset.

    The target carries the inherited order; its joins are gamma_S of the
    ambient join, which is what makes the reflection join-preserving.
    """
    gamma = gamma_from_meet_closed(lattice, members)
    sub = lattice.sublattice(sorted(gamma.image, key=lattice.index))
    return TabulatedMap(lattice, sub, gamma.table)


def enumerate_meet_closed_subsets(lattice: FiniteLattice) -> list[frozenset]:
    """All subsets containing top and closed under binary meets."""
    labels = lattice.labels
    top = lattice.top
    rest = [x for x in labels if x != top]
    out = []
    for r in range(len(rest) + 1):
        for picks in itertools.combinations(rest, r):
            s = frozenset(picks) | {top}
            if all(
                lattice.meet2(x, y) in s for x, y in itertools.combinations(s, 2)
            ):
                out.append(s)
    return out


def enumerate_closure_operators(lattice: FiniteLattice) -> list[ClosureOperator]:
    """Backtracking over extensive monotone tables, then an idempotence filter.

    Processes elements in a linear extension so monotonicity prunes the
    candidate set: gamma(x) must dominate x and every gamma(y) with y < x.
    """
    labels = sorted(
        lattice.labels, key=lambda x: sum(lattice.leq(y, x) for y in lattice.labels)
    )
    below = {
        x: [y for y in labels if y != x and lattice.leq(y, x)] for x in labels
    }
    out: list[ClosureOperator] = []
    assignment: dict = {}

    def extend(k: int) -> None:
        if k == len(labels):
            if all(assignment[assignment[x]] == assignment[x] for x in labels):
                table = tuple(assignment[x] for x in lattice.labels)
                out.append(ClosureOperator(lattice, table))
            return
        x = labels[k]
        floor = lattice.join([x] + [assignment[y] for y in below[x]])
        for v in lattice.upset(floor):
            assignment[x] = v
            extend(k + 1)
        del assignment[x]

    extend(0)
    return out


def enumerate_join_preserving_maps(
    source: FiniteLattice, target: FiniteLattice
) -> Iterator[TabulatedMap]:
    """Brute-force filter over all tables; meant for small lattice pairs."""
    for values in itertools.product(target.labels, repeat=len(source)):
        f = TabulatedMap(source, target, values)
        if f.is_join_preserving()[0]:
            yield f


def random_join_preserving_map(
    source: FiniteLattice, target: FiniteLattice, rng: random.Random
) -> TabulatedMap:
    """Random table on the join-irreducibles, extended by joins.

    The extension f(x) = join of g over the irreducibles below x is
    join-preserving on distributive sources (all lattices this package
    samples from); the result is verified and rejected otherwise.
    """
    irr = source.join_irreducibles()
    g = {j: rng.choice(target.labels) for j in irr}
    table = tuple(
        target.join(g[j] for j in irr if source.leq(j, x)) for x in source.labels
    )
    f = TabulatedMap(source, target, table)
    ok, witness = f.is_join_preserving()
    if not ok:
        raise NotResiduatedError(
            "join-irreducible extension failed; source is not distributive", witness
        )
    return f
