"""Kernel transforms between free modules and the coder taxonomy.

A kernel p over X x Y induces the adjoint pair

    direct:  (H f)(y) = join_x f(x) . p(x, y)
    inverse: (L g)(x) = meet_y g(y) / p(x, y)

with H f <= g  iff  f <= L g.  H is a module hom, L its residual,
L . H a nucleus on Q^X.  The right-module pair

    direct:  (H f)(y) = join_x p(x, y) . f(x)
    inverse: (L g)(x) = meet_y p(x, y) \\ g(y)

is adjoint in the same way and differs on non-commutative carriers;
grey dilation and erosion are this pair on the translate kernel (see
`qkit.morphology`).  Both pairs run one loop per direction, which
takes the product or residual as an argument.

Kernels with a distinguished embedding e: Y -> X classify into coder
grades; strong coders make H . L the identity on Q^Y, which is what
exact reconstruction rests on.

Bottom entries can never influence a join (they multiply to bottom)
nor a meet (they divide to top), so a kernel stores only its bands:
per x, the (y position, value) pairs whose value is not bottom.  Both
applications, the coder grades and `entry` walk the bands, so a kernel
costs its support, not |X| |Y|: the translate kernel of a 3x3 element
on an N-cell grid holds 9 N entries, the triangular basis on l nodes at
most 2 l.  The dense `rows` are derived on first use, or kept when a
kernel is built from them.  On an integer chain the CLI codec applies
the same pair to whole int64 arrays, in the private `qkit._int64`, the
one module that imports numpy.

Values are checked where they enter: the public `Kernel` and
`ModuleVector` constructors, `load_kernel`, and the scalar handed to
`scale_left`.  Results of carrier operations on checked values are
trusted: transforms, transposes, joins, the random and projective
kernels, cores and extensions are built from their bands by the private
`_trusted` constructors, which check nothing.  Only the public `Kernel`
takes dense rows, from a caller or a file; every kernel the library
makes it builds band by band, or column by column through `transpose`,
which swaps a kernel's bands and columns.
`kernel_of_hom` and `lift_through_projection` tabulate user-supplied
maps, so their kernels are checked.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from qkit.quantale import (
    Carrier,
    CarrierMismatchError,
    LUKASIEWICZ,
    carrier_from,
    parse_integer,
)
from qkit.qmodule import (
    FreeModule,
    ModuleVector,
    Nucleus,
    basis_vector,
)


class EmbeddingError(ValueError):
    """The kernel lacks a usable embedding of Y into X."""


class LiftError(ValueError):
    """A projection handed to the lifting construction is not surjective."""


@dataclass(frozen=True)
class CoderClass:
    """Classification flags; the definitional implications are enforced."""

    is_coder: bool
    is_normal: bool
    is_strong: bool
    is_orthogonal: bool
    is_orthonormal: bool

    def __post_init__(self) -> None:
        if self.is_orthonormal and not (self.is_orthogonal and self.is_normal):
            raise ValueError("orthonormal must be orthogonal and normal")
        if self.is_orthonormal and not self.is_strong:
            raise ValueError("orthonormal implies strong")
        if self.is_strong and not self.is_normal:
            raise ValueError("strong implies normal")
        if self.is_normal and not self.is_coder:
            raise ValueError("normal implies coder")

    def grade(self) -> str:
        for name in ("orthonormal", "strong", "normal", "coder"):
            if getattr(self, f"is_{name}"):
                return name
        return "none"


@dataclass(frozen=True, init=False)
class Kernel:
    """Kernel over X x Y, stored as its non-bottom bands.

    `_inverse_rows[i]` lists the (j, p(x_i, y_j)) pairs whose value is
    not the carrier's bottom, in y order; every other entry is bottom.
    `rows[i][j] = p(x_i, y_j)` is the dense form: the rows the kernel
    was built from, or derived from the bands on first use.

    `embedding` lists, per y label, the x label it sits under; when
    omitted, a y label that also occurs in X embeds as itself.
    """

    carrier: Carrier
    x_index: tuple
    y_index: tuple
    _inverse_rows: tuple
    embedding: tuple | None = None

    def __init__(
        self, carrier: Carrier, x_index: tuple, y_index: tuple, rows: tuple,
        embedding: tuple | None = None,
    ) -> None:
        if len(rows) != len(x_index):
            raise ValueError("one row per x label required")
        width = len(y_index)
        for row in rows:
            if len(row) != width:
                raise ValueError("row width must match the y index")
            carrier.require(*row)
        self._store(carrier, x_index, y_index, _bands_of(rows, carrier.bot), embedding)
        self._check_embedding()
        self.__dict__["rows"] = rows

    def _store(self, carrier, x_index, y_index, bands, embedding) -> None:
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "x_index", x_index)
        object.__setattr__(self, "y_index", y_index)
        object.__setattr__(self, "_inverse_rows", bands)
        object.__setattr__(self, "embedding", embedding)

    def _check_embedding(self) -> None:
        if self.embedding is not None and len(self.embedding) != len(self.y_index):
            raise ValueError("embedding must list one x label per y label")

    @classmethod
    def _trusted(
        cls, carrier: Carrier, x_index: tuple, y_index: tuple, bands: tuple,
        embedding: tuple | None = None,
    ) -> "Kernel":
        """A kernel from its bands, known to hold one band per x label,
        each a tuple of (y position, value) pairs in y order whose values
        are elements of the carrier other than bottom, with an embedding
        of the right length or none; builds it without checking."""
        p = object.__new__(cls)
        p._store(carrier, x_index, y_index, bands, embedding)
        return p

    @cached_property
    def rows(self) -> tuple:
        """Dense form: rows[i][j] = p(x_i, y_j)."""
        bot, width = self.carrier.bot, len(self.y_index)
        out = []
        for band in self._inverse_rows:
            row = [bot] * width
            for j, v in band:
                row[j] = v
            out.append(tuple(row))
        return tuple(out)

    @cached_property
    def _x_pos(self) -> dict:
        return {x: i for i, x in enumerate(self.x_index)}

    @cached_property
    def _y_pos(self) -> dict:
        return {y: j for j, y in enumerate(self.y_index)}

    def entry(self, x, y):
        return self._at(self._x_pos[x], self._y_pos[y])

    def _at(self, i: int, j: int):
        """p(x_i, y_j), looked up in band i."""
        for jj, v in self._inverse_rows[i]:
            if jj == j:
                return v
        return self.carrier.bot

    @cached_property
    def epsilon(self) -> tuple:
        """Resolved embedding: the x label under each y label."""
        if self.embedding is not None:
            for x in self.embedding:
                if x not in self._x_pos:
                    raise EmbeddingError(f"embedding target {x!r} is not in X")
            return self.embedding
        missing = [y for y in self.y_index if y not in self._x_pos]
        if missing:
            raise EmbeddingError(
                f"no embedding given and Y is not contained in X: {missing!r}"
            )
        return self.y_index

    @property
    def inclusion_embedded(self) -> bool:
        try:
            return self.epsilon == self.y_index
        except EmbeddingError:
            return False

    @cached_property
    def _direct_cols(self) -> tuple:
        """Per y: the (x position, value) pairs with a non-bottom value,
        in x order; the sparse transpose of the bands `_inverse_rows`."""
        cols = [[] for _ in self.y_index]
        for i, row in enumerate(self._inverse_rows):
            for j, v in row:
                cols[j].append((i, v))
        return tuple(map(tuple, cols))

    def transpose(self) -> "Kernel":
        """The kernel over Y x X: its bands are this kernel's columns, and
        its columns this kernel's bands."""
        t = Kernel._trusted(self.carrier, self.y_index, self.x_index, self._direct_cols)
        t.__dict__["_direct_cols"] = self._inverse_rows
        return t

    def pointwise_join(self, others: Sequence["Kernel"]) -> "Kernel":
        join2 = self.carrier.join2
        bands = self._inverse_rows
        for other in others:
            self._require_parallel(other)
            bands = tuple(
                _merge(band, oband, join2) for band, oband in zip(bands, other._inverse_rows)
            )
        return Kernel._trusted(self.carrier, self.x_index, self.y_index, bands, self.embedding)

    def scale_left(self, q) -> "Kernel":
        """q . p; entries that multiply to bottom leave the bands."""
        mul, bot = self.carrier.mul, self.carrier.bot
        self.carrier.require(q)
        bands = tuple(
            tuple((j, w) for j, v in band for w in (mul(q, v),) if w != bot)
            for band in self._inverse_rows
        )
        return Kernel._trusted(self.carrier, self.x_index, self.y_index, bands, self.embedding)

    def _require_parallel(self, other: "Kernel") -> None:
        if (
            self.carrier != other.carrier
            or self.x_index != other.x_index
            or self.y_index != other.y_index
        ):
            raise CarrierMismatchError("kernels are not parallel")


def _bands_of(rows, bot) -> tuple:
    """Per row: the (position, value) pairs with a value other than bot."""
    return tuple(
        tuple((j, v) for j, v in enumerate(row) if v != bot) for row in rows
    )


def _merge(a: tuple, b: tuple, join2) -> tuple:
    """Two bands joined entry by entry; an entry in one band only is kept
    as it is, since joining it with bottom leaves it."""
    merged = dict(a)
    for j, v in b:
        merged[j] = join2(merged[j], v) if j in merged else v
    return tuple(sorted(merged.items()))


def _same_band(a: tuple, b: tuple, eq, bot) -> bool:
    """Two bands agree under eq at every position, bottom filling the gaps."""
    da, db = dict(a), dict(b)
    return all(eq(da.get(j, bot), db.get(j, bot)) for j in da.keys() | db.keys())


def _direct(p: Kernel, f: ModuleVector, product) -> ModuleVector:
    """(H f)(y) = join_x product(f(x), p(x, y)), over the non-bottom
    entries of each column."""
    if f.carrier != p.carrier or f.index != p.x_index:
        raise CarrierMismatchError("vector does not match the kernel's X side")
    join2, bot = p.carrier.join2, p.carrier.bot
    fv = f.values
    out = []
    for col in p._direct_cols:
        acc = bot
        for i, v in col:
            acc = join2(acc, product(fv[i], v))
        out.append(acc)
    return ModuleVector._trusted(p.carrier, p.y_index, tuple(out))


def _inverse(p: Kernel, g: ModuleVector, residual) -> ModuleVector:
    """(L g)(x) = meet_y residual(g(y), p(x, y)), over the non-bottom
    entries of each row."""
    if g.carrier != p.carrier or g.index != p.y_index:
        raise CarrierMismatchError("vector does not match the kernel's Y side")
    meet2, top = p.carrier.meet2, p.carrier.top
    gv = g.values
    out = []
    for row in p._inverse_rows:
        acc = top
        for j, v in row:
            acc = meet2(acc, residual(gv[j], v))
        out.append(acc)
    return ModuleVector._trusted(p.carrier, p.x_index, tuple(out))


def apply_direct(p: Kernel, f: ModuleVector) -> ModuleVector:
    """(H f)(y) = join_x f(x) . p(x, y); a left-module hom Q^X -> Q^Y."""
    return _direct(p, f, p.carrier.mul)


def apply_inverse(p: Kernel, g: ModuleVector) -> ModuleVector:
    """(L g)(x) = meet_y g(y) / p(x, y); the upper adjoint of the direct map."""
    return _inverse(p, g, p.carrier.rres)


def apply_direct_right(p: Kernel, f: ModuleVector) -> ModuleVector:
    """Right-module variant: (H f)(y) = join_x p(x, y) . f(x)."""
    mul = p.carrier.mul
    return _direct(p, f, lambda a, v: mul(v, a))


def apply_inverse_right(p: Kernel, g: ModuleVector) -> ModuleVector:
    """Right-module variant: (L g)(x) = meet_y p(x, y) \\ g(y)."""
    lres = p.carrier.lres
    return _inverse(p, g, lambda z, v: lres(v, z))


class KernelHom:
    """The hom realized by a kernel, with its residual attached."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.domain = FreeModule(kernel.carrier, kernel.x_index)
        self.target = FreeModule(kernel.carrier, kernel.y_index)

    def __call__(self, m: ModuleVector) -> ModuleVector:
        return apply_direct(self.kernel, m)

    def residual(self, n: ModuleVector) -> ModuleVector:
        return apply_inverse(self.kernel, n)

    def __eq__(self, other) -> bool:
        return isinstance(other, KernelHom) and self.kernel == other.kernel

    def __hash__(self) -> int:
        return hash(self.kernel)


def hom_of_kernel(p: Kernel) -> KernelHom:
    return KernelHom(p)


def kernel_of_hom(h, domain: FreeModule | None = None, embedding=None) -> Kernel:
    """Tabulate a hom out of a free module back into its kernel:
    k(x, y) = h(chi_x)(y)."""
    dom = domain or h.domain
    if not isinstance(dom, FreeModule):
        raise ValueError("kernel representation needs a free domain")
    rows = []
    y_index = None
    for x in dom.index:
        img = h(basis_vector(dom.carrier, dom.index, x))
        if y_index is None:
            y_index = img.index
        rows.append(tuple(img.values))
    return Kernel(dom.carrier, dom.index, y_index, tuple(rows), embedding)


def transform_nucleus(p: Kernel) -> Nucleus:
    """inverse . direct, a nucleus on the source module."""
    module = FreeModule(p.carrier, p.x_index)
    return Nucleus(module, lambda m: apply_inverse(p, apply_direct(p, m)))


def classify_coder(p: Kernel) -> CoderClass:
    """Grade a kernel against its embedding.

    coder       unit below every diagonal entry p(e(y), y)
    normal      diagonal entries equal the unit
    strong      normal and off-diagonal embedded rows are bottom
    orthogonal  columns multiply to bottom pointwise (both orders)
    orthonormal orthogonal and normal
    """
    q = p.carrier
    eps = p.epsilon
    e, bot, eq, mul = q.unit, q.bot, q.eq, q.mul
    bands = p._inverse_rows
    embedded = [p._x_pos[ex] for ex in eps]
    diag = [p._at(i, j) for j, i in enumerate(embedded)]
    coder = all(q.leq(e, v) for v in diag)
    normal = all(eq(v, e) for v in diag)
    # an entry outside the bands is bottom, which passes both tests below:
    # it is bottom, and it multiplies to bottom on either side
    strong = normal and all(
        eq(v, bot) for j1, i in enumerate(embedded) for j2, v in bands[i] if j2 != j1
    )
    orthogonal = all(
        eq(mul(v1, v2), bot) and eq(mul(v2, v1), bot)
        for band in bands
        for k, (_, v1) in enumerate(band)
        for _, v2 in band[k + 1 :]
    )
    return CoderClass(
        is_coder=coder,
        is_normal=normal,
        is_strong=strong,
        is_orthogonal=orthogonal,
        is_orthonormal=orthogonal and normal,
    )


def projective_coder(carrier: Carrier, x_index: Sequence, y_index: Sequence) -> Kernel:
    """The restriction kernel: unit where the labels agree, bottom elsewhere."""
    x_index, y_index = tuple(x_index), tuple(y_index)
    xs = set(x_index)
    for y in y_index:
        if y not in xs:
            raise EmbeddingError(f"label {y!r} of Y does not occur in X")
    at = {}
    for j, y in enumerate(y_index):
        at.setdefault(y, []).append((j, carrier.unit))
    bands = tuple(tuple(at.get(x, ())) for x in x_index)
    return Kernel._trusted(carrier, x_index, y_index, bands)


def _require_inclusion(p: Kernel) -> None:
    if not p.inclusion_embedded:
        raise EmbeddingError("this operation needs Y inside X with the identity embedding")


def support(p: Kernel) -> tuple:
    """Labels whose column differs from the matching projection column."""
    _require_inclusion(p)
    q = p.carrier
    projection = projective_coder(q, p.x_index, p.y_index)._direct_cols
    return tuple(
        y
        for y, col, pcol in zip(p.y_index, p._direct_cols, projection)
        if not _same_band(col, pcol, q.eq, q.bot)
    )


def core(p: Kernel) -> Kernel:
    """Restriction of the kernel to its support columns."""
    keep = set(support(p))
    y_index = tuple(y for y in p.y_index if y in keep)
    cols = tuple(col for y, col in zip(p.y_index, p._direct_cols) if y in keep)
    return Kernel._trusted(p.carrier, y_index, p.x_index, cols).transpose()


def is_irreducible(p: Kernel) -> bool:
    return support(p) == p.y_index


def projective_extension(p: Kernel, z_index: Sequence) -> Kernel:
    """Extend with projection columns on the labels missing from Y."""
    _require_inclusion(p)
    z_index = tuple(z_index)
    zs = set(z_index)
    xs = set(p.x_index)
    if not set(p.y_index) <= zs or not zs <= xs:
        raise EmbeddingError("need Y inside Z inside X")
    ypos, cols = p._y_pos, p._direct_cols
    projection = projective_coder(p.carrier, p.x_index, z_index)._direct_cols
    ext = tuple(cols[ypos[z]] if z in ypos else pcol for z, pcol in zip(z_index, projection))
    return Kernel._trusted(p.carrier, z_index, p.x_index, ext).transpose()


def kernel_closure(p: Kernel) -> Kernel:
    """Extension all the way up to X x X."""
    return projective_extension(p, p.x_index)


def equivalent_up_to_projections(p: Kernel, p2: Kernel) -> bool:
    """Equal cores; the closures are compared as a cross-check."""
    if p.carrier != p2.carrier or p.x_index != p2.x_index:
        raise CarrierMismatchError("kernels must share a carrier and X")
    by_core = _same_kernel(core(p), core(p2))
    by_closure = _same_kernel(kernel_closure(p), kernel_closure(p2))
    if by_core != by_closure:
        raise AssertionError("core and closure comparisons disagree")
    return by_core


def _same_kernel(a: Kernel, b: Kernel) -> bool:
    if a.y_index != b.y_index:
        return False
    q = a.carrier
    return all(
        _same_band(ra, rb, q.eq, q.bot) for ra, rb in zip(a._inverse_rows, b._inverse_rows)
    )


def lift_through_projection(h, pi, pi_prime, probes: Iterable | None = None) -> Kernel:
    """Kernel k making the square commute: h . pi = pi' . H_k.

    pi: Q^X ->> M and pi': Q^Y ->> N must be surjective homs with
    residuals; then k(x, .) = residual of pi' at h(pi(chi_x)).
    Surjectivity is witnessed by direct . residual = id on the probes.
    """
    dom = pi.domain
    if not isinstance(dom, FreeModule) or not isinstance(pi_prime.domain, FreeModule):
        raise ValueError("both projections must start from free modules")
    for name, proj in (("pi", pi), ("pi_prime", pi_prime)):
        tgt = proj.target
        if probes is not None:
            sample = probes
        else:
            sample = tgt.elements()
        for m in sample:
            if not tgt.eq(proj(proj.residual(m)), m):
                raise LiftError(f"{name} is not surjective at {m!r}")
    rows = []
    for x in dom.index:
        chi = basis_vector(dom.carrier, dom.index, x)
        rows.append(tuple(pi_prime.residual(h(pi(chi))).values))
    return Kernel(dom.carrier, dom.index, pi_prime.domain.index, tuple(rows))


def random_kernel(
    carrier: Carrier, x_index: Sequence, y_index: Sequence, rng: random.Random,
    embedding=None,
) -> Kernel:
    els = tuple(carrier.elements())
    x_index, y_index = tuple(x_index), tuple(y_index)
    rows = tuple(
        tuple(rng.choice(els) for _ in y_index) for _ in x_index
    )
    p = Kernel._trusted(carrier, x_index, y_index, _bands_of(rows, carrier.bot), embedding)
    p._check_embedding()
    return p


def random_strong_kernel(
    carrier: Carrier, x_index: Sequence, y_index: Sequence, rng: random.Random
) -> Kernel:
    """Strong by construction: embedded rows are projection rows,
    everything else is random."""
    x_index, y_index = tuple(x_index), tuple(y_index)
    ys = set(y_index)
    if not ys <= set(x_index):
        raise EmbeddingError("strong kernels here use the identity embedding")
    els = tuple(carrier.elements())
    e, bot = carrier.unit, carrier.bot
    rows = []
    for x in x_index:
        if x in ys:
            rows.append(tuple(e if y == x else bot for y in y_index))
        else:
            rows.append(tuple(rng.choice(els) for _ in y_index))
    return Kernel._trusted(carrier, x_index, y_index, _bands_of(rows, carrier.bot))


def save_kernel(p: Kernel, path) -> None:
    """Text form: `carrier=<kind> d=<denominator> tnorm=<t-norm>
    rows=|X| cols=|Y|`, then one row of entries per line.

    Integer labels other than 0..rows-1 and 0..cols-1, and an explicit
    embedding, follow in the header as comma-separated `xlabels=`,
    `ylabels=` and `embedding=` fields; other labels are refused.
    """
    q = p.carrier
    if q.kind is None:
        raise ValueError("only chain and float kernels serialize to text")
    head = (
        f"carrier={q.kind} d={q.denominator} tnorm={q.tnorm} "
        f"rows={len(p.x_index)} cols={len(p.y_index)}"
    )
    for key, labels, default in (
        ("xlabels", p.x_index, tuple(range(len(p.x_index)))),
        ("ylabels", p.y_index, tuple(range(len(p.y_index)))),
        ("embedding", p.embedding, None),
    ):
        if labels is not None and any(type(v) is not int for v in labels):
            raise ValueError(f"{key} must be integers to serialize")
        if labels != default:
            head += f" {key}=" + ",".join(map(str, labels))
    lines = [head]
    for row in p.rows:
        lines.append(" ".join(map(q.format, row)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_kernel(path, carrier: Carrier | None = None) -> Kernel:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty kernel file")
    head = {}
    for tok in lines[0].split():
        key, eq, value = tok.partition("=")
        if not eq:
            raise ValueError(f"header token '{tok}' is not key=value")
        head[key] = value
    missing = [k for k in ("rows", "cols") if k not in head]
    if missing:
        raise ValueError(f"kernel header lacks keys: {', '.join(missing)}")
    kind = head.get("carrier")
    rows_n, cols_n = (parse_integer(head[k], f"{k} value") for k in ("rows", "cols"))
    body = lines[1:]
    if len(body) != rows_n:
        raise ValueError(f"expected {rows_n} rows, found {len(body)}")
    # files written before the t-norm was recorded are Lukasiewicz
    tnorm = head.get("tnorm", LUKASIEWICZ)
    spec = carrier_from(kind, parse_integer(head.get("d", "0"), "d value"), tnorm)
    rows = tuple(tuple(map(spec.parse, ln.split())) for ln in body)
    if any(len(row) != cols_n for row in rows):
        raise ValueError("ragged kernel row")

    def labels(key, default):
        text = head.get(key)
        if text is None:
            return default
        return tuple(parse_integer(t, f"{key} value") for t in text.split(",") if t)

    return Kernel(
        carrier or spec,
        labels("xlabels", tuple(range(rows_n))),
        labels("ylabels", tuple(range(cols_n))),
        rows,
        labels("embedding", None),
    )
