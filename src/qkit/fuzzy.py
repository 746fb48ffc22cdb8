"""Triangular basis transforms and fuzzy-partition compression.

The basis p_0..p_{n-1} tiles [0,1] with unit peaks at k/(n-1).
Sampled on a grid of l = m(n-1)+1 nodes the peaks land on grid
points and the sampled kernel is orthonormal over the Lukasiewicz
chain, so direct-then-inverse reconstruction of coefficient vectors
is exact.  A FuzzyPartition is the general sampled form: any basis
table satisfying the covering condition (every node is seen by some
basis function) and the density condition (every basis function sees
some node).  The upper and lower transforms are the kernel transforms
of the partition's node-by-component kernel and of its transpose, run
by `apply_direct`/`apply_inverse`: f_up is the join of products, f_down
the meet of residua.

The basis is sampled in integer arithmetic, p_k(j) = max(0, L -
|N j - k L|) / L with L = l-1 and N = n-1, and scaled onto integer
chain levels, so orthonormality and reconstruction checks are exact
rather than tolerance-based.  One loop computes the hats that cover
each node; it gives the triangular kernel its bands and the triangular
partition its table.

Partition files are tables in the carrier's text form (see
`qkit.quantale`): values are written with the carrier's `format`, and
read with its `parse`, except that a chain also takes decimal, exponent
and n/m tokens through `parse_fraction` and `ratio`, exactly or not at
all.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from qkit.quantale import (
    Carrier,
    ChainQuantale,
    LUKASIEWICZ,
    parse_fraction,
    parse_integer,
)
from qkit.qmodule import ModuleVector
from qkit.transform import Kernel, _bands_of, apply_direct, apply_inverse


class GridAlignmentWarning(UserWarning):
    """The sample grid misses the basis peaks; no coder grade can hold."""


def luk_basis_eval(n: int, k: int, x) -> Fraction:
    """Value of the k-th triangular basis function at x, exactly.

    Piecewise linear: rising from (k-1)/(n-1), peak 1 at k/(n-1),
    falling to (k+1)/(n-1), zero elsewhere; the outer components keep
    only the half that lies inside [0,1].
    """
    if n < 2:
        raise ValueError("need at least two basis functions")
    if not 0 <= k <= n - 1:
        raise ValueError(f"component {k} out of range for n={n}")
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"argument {x} outside the unit interval")
    s = (n - 1) * x
    if k == 0:
        return 1 - s if s <= 1 else Fraction(0)
    if k == n - 1:
        return s - (n - 2) if s >= n - 2 else Fraction(0)
    if k - 1 <= s <= k:
        return s - (k - 1)
    if k <= s <= k + 1:
        return (k + 1) - s
    return Fraction(0)


def _default_carrier(n: int, l: int) -> ChainQuantale:
    return ChainQuantale(math.lcm(l - 1, n - 1), LUKASIEWICZ)


def _hat_bands(n: int, l: int, carrier: Carrier) -> tuple:
    """Per node j, the (k, p_k(j)) pairs with p_k(j) > 0, in k order."""
    L, N = l - 1, n - 1
    # node j lies in the hats of k = N j // L and k + 1 only; every entry
    # is carrier.ratio of a level p_k(j) L in 1..L
    bands = []
    for j in range(l):
        k0 = N * j // L
        band = []
        for k in range(k0, min(k0 + 2, n)):
            v = L - abs(N * j - k * L)
            if v > 0:
                band.append((k, carrier.ratio(v, L)))
        bands.append(tuple(band))
    return tuple(bands)


def luk_kernel(n: int, l: int, carrier: Carrier | None = None) -> Kernel:
    """The triangular basis sampled on l nodes, one column per component.

    Column labels are the grid indices of the component peaks, so on
    an aligned grid (l = m(n-1)+1) the labels sit inside X and the
    kernel embeds by inclusion.  A misaligned grid rounds each peak to
    the nearest node and carries that as an explicit embedding; the
    diagonal then sits strictly below the unit, every coder grade
    fails, and a GridAlignmentWarning flags the construction.

    The kernel is built from its bands, the at most two hats that cover
    each node, never from the n l dense table.
    """
    if n < 2 or l < 2:
        raise ValueError("need n >= 2 and l >= 2")
    if l < n:
        raise ValueError("need at least as many nodes as components")
    if carrier is None:
        carrier = _default_carrier(n, l)
    L, N = l - 1, n - 1
    if L % N == 0:
        y_index = tuple(k * L // N for k in range(n))
        embedding = None
    else:
        # peak k sits at k L / N; round half up to the nearest node
        y_index = tuple((2 * k * L + N) // (2 * N) for k in range(n))
        embedding = y_index
        warnings.warn(
            f"grid of {l} nodes misses the peaks of {n} components; "
            "rounding to nearest nodes, reconstruction will not be exact",
            GridAlignmentWarning,
            stacklevel=2,
        )
    bands = _hat_bands(n, l, carrier)
    return Kernel._trusted(carrier, tuple(range(l)), y_index, bands, embedding)


@dataclass(frozen=True)
class FuzzyPartition:
    """Basis functions sampled at the nodes: table[k][j] = A_k at node j.

    Construction rejects tables violating covering (some node seen by
    no basis function) or density (some basis function seeing no node),
    naming the offending index.
    """

    carrier: Carrier
    table: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", rows)
        if not rows or not rows[0]:
            raise ValueError("a partition needs at least one basis function and one node")
        l = len(rows[0])
        for k, row in enumerate(rows):
            if len(row) != l:
                raise ValueError(f"basis function {k} has {len(row)} values, expected {l}")
            for v in row:
                self.carrier.require(v)
        bot, eq = self.carrier.bot, self.carrier.eq
        for j in range(l):
            if all(eq(row[j], bot) for row in rows):
                raise ValueError(f"covering fails: every basis function vanishes at node {j}")
        for k, row in enumerate(rows):
            if all(eq(v, bot) for v in row):
                raise ValueError(f"density fails: basis function {k} vanishes at every node")

    @property
    def n(self) -> int:
        return len(self.table)

    @property
    def l(self) -> int:
        return len(self.table[0])

    @cached_property
    def _kernel(self) -> Kernel:
        # __post_init__ checked every entry of the table
        bands = _bands_of(zip(*self.table), self.carrier.bot)
        return Kernel._trusted(self.carrier, tuple(range(self.l)), tuple(range(self.n)), bands)

    def kernel(self) -> Kernel:
        """Node-by-component kernel whose direct transform is f_up."""
        return self._kernel


def luk_partition(n: int, l: int, carrier: Carrier | None = None) -> FuzzyPartition:
    """The triangular basis as a partition table over l nodes."""
    if n < 1 or l < 2:
        raise ValueError("need n >= 1 and l >= 2")
    if carrier is None:
        carrier = _default_carrier(max(n, 2), l)
    if n == 1:
        # degenerate single basis: constant unit, trivially covering and dense
        return FuzzyPartition(carrier, ((carrier.unit,) * l,))
    table = [[carrier.bot] * l for _ in range(n)]
    for j, band in enumerate(_hat_bands(n, l, carrier)):
        for k, v in band:
            table[k][j] = v
    return FuzzyPartition(carrier, table)


def _samples(partition: FuzzyPartition, f: Sequence) -> ModuleVector:
    vals = tuple(f)
    if len(vals) != partition.l:
        raise ValueError(f"expected {partition.l} samples, got {len(vals)}")
    return ModuleVector(partition.carrier, tuple(range(partition.l)), vals)


def _coefficients(partition: FuzzyPartition, coeffs: Sequence) -> ModuleVector:
    vals = tuple(coeffs)
    if len(vals) != partition.n:
        raise ValueError(f"expected {partition.n} coefficients, got {len(vals)}")
    return ModuleVector(partition.carrier, tuple(range(partition.n)), vals)


def f_up(partition: FuzzyPartition, f: Sequence) -> tuple:
    """Upper coefficients: the direct transform of the partition kernel."""
    return apply_direct(partition.kernel(), _samples(partition, f)).values


def f_up_inverse(partition: FuzzyPartition, coeffs: Sequence) -> tuple:
    """Reconstruction, the inverse transform of the partition kernel;
    it dominates the input of f_up."""
    return apply_inverse(partition.kernel(), _coefficients(partition, coeffs)).values


def f_down(partition: FuzzyPartition, f: Sequence) -> tuple:
    """Lower coefficients, the meet over nodes of residua: the inverse
    transform of the transposed partition kernel.  With f_down_inverse
    it forms an adjoint pair whose reconstruction stays below the input."""
    kt = partition.kernel().transpose()
    return apply_inverse(kt, _samples(partition, f)).values


def f_down_inverse(partition: FuzzyPartition, coeffs: Sequence) -> tuple:
    """Reconstruction from lower coefficients: the direct transform of
    the transposed partition kernel."""
    kt = partition.kernel().transpose()
    return apply_direct(kt, _coefficients(partition, coeffs)).values


def save_partition(path, partition: FuzzyPartition) -> None:
    """Write `n l` then one line of node values per basis function."""
    lines = [f"{partition.n} {partition.l}"]
    for row in partition.table:
        lines.append(" ".join(map(partition.carrier.format, row)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_partition(path, carrier: Carrier) -> FuzzyPartition:
    """Read a partition table for the given carrier.

    Chain carriers accept integer levels directly; decimal, exponent or
    fraction tokens, read by `parse_fraction`, are scaled by the
    denominator and must land on a level exactly.  The float carrier
    parses every token as a float.
    """
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError("partition file too short")
    n, l = (parse_integer(t, "header token") for t in tokens[:2])
    body = tokens[2:]
    if len(body) != n * l:
        raise ValueError(f"expected {n * l} values, found {len(body)}")
    table = tuple(
        tuple(_parse_value(carrier, tok) for tok in body[k * l : (k + 1) * l])
        for k in range(n)
    )
    return FuzzyPartition(carrier, table)


def _parse_value(carrier: Carrier, token: str):
    if carrier.kind == "chain" and any(c in token for c in "./eE"):
        v = parse_fraction(token)
        return carrier.ratio(v.numerator, v.denominator)
    return carrier.parse(token)
