"""Finite fields GF(p^e) with q <= 256, and canonical subspaces of GF(q)^n.

A subspace is identified with its unique reduced-row-echelon basis, so equality
and hashing are componentwise. The ambient enumeration order, the per-dimension
index bijection, line masks and containment vectors all build on that
canonical form. Per-pair meet dimensions come from meet_dim, a rank count
against the stored pivot rows that builds no Subspace. Over GF(2) it reduces
rows packed as ints, one XOR a step, packed on a subspace's first meet;
every other field reads the arithmetic tables entry by entry. intersect,
which builds the meet itself, stays as the reference route. Questions about
a whole list of subspaces at once (which contain u, how many lines each
shares with u) go through LineIncidence, the line masks turned on their
side. Each Lattice holds one, over all its entries, built on first need
(with each half's reversed copy, built on the first descending list), and
compatible_rows, the one function that builds rows over a list of
lattice positions, cuts every list out of it by runs of consecutive
positions:
the lattice's containment table (containment_counts) and, under its
transpose, a certificate context's columns; over admitted positions, a
certificate context's compatibility table and search's graph rows. The
Lattice is its entries' dimensions, line masks and hyperplane masks (the
lines of U^⊥, indexed by normal vector). One walk of the canonical order
per dimension builds both, a pivot pattern at a time, as ANDs of the
[n 1]_q hyperplanes' line masks: over U's null-space vectors for its
lines, over its reduced rows for its hyperplanes. So the build makes no
Subspace, and Lattice.subspaces is built from the same walk only when
read. line_mask, for single subspaces of any ambient, enumerates the
span instead (_span_mask) and is the lattice's oracle. Since
dim(U^⊥ ∩ W^⊥) = n - dim(U+W), compatible_rows counts a d-space's
shared hyperplanes where it has fewer of them than lines. Sizes are
checked against the lattice budget of the budgets scope; the lattice
build and the LineIncidence transposition check its deadline. field(q)
and field_from_dict give one shared context per field, whose tables are
built on first use from the powers of one generator (a discrete log).

Enumeration order within one dimension, one table (_order, its C(n, d)
patterns checked against the lattice budget) for enumeration, the lattice
build, index_of and subspace_at: pivot patterns are sorted so that the
pattern on the rightmost columns comes first (compare the column sets
mirrored right-to-left), and within one pattern the free entries, read
row-major, run through base-q integers in ascending order. Under this
order the first 1-dim subspace of GF(2)^3 is span{(0,0,1)} and the last
is span{(1,1,1)}.
"""
from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .budgets import _require_budget, check_deadline
from .errors import DomainError
from .qcombin import is_prime, prime_power, qbinom
from .records import Record

MAX_Q = 256


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficients low-to-high


def _poly_mod(a: list[int], m: Sequence[int], p: int) -> list[int]:
    # m is monic
    a = a[:]
    dm = len(m) - 1
    while len(a) >= len(m):
        lead = a[-1]
        if lead:
            off = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[off + i] = (a[off + i] - lead * c) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Exhaustive trial division by all monic factors of degree 1..e//2."""
    e = len(coeffs) - 1
    for d in range(1, e // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            g = list(lower) + [1]
            if not _poly_mod(list(coeffs), g, p):
                return False
    return True


def _default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Monic irreducible of degree e with the smallest integer code (digits base p)."""
    for code in range(p ** e, 2 * p ** e):
        coeffs, c = [], code
        for _ in range(e + 1):
            coeffs.append(c % p)
            c //= p
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise ArithmeticError(f"no irreducible of degree {e} over GF({p})")  # unreachable


_TABLES = frozenset({"_add", "_mul", "_neg", "_inv"})


class FieldContext:
    """Arithmetic tables for GF(p^e), q = p^e <= 256, built on first use.

    Elements are integer codes in [0, q): the base-p digits of a code are the
    coefficients (constant term first) of the residue polynomial; for e = 1 the
    code is the residue mod p. The default modulus is the monic irreducible of
    degree e with the smallest integer code, so a given (p, e) always names the
    same field representation unless a modulus is passed explicitly.

    The constructor makes every check at once. The four tables (_add, _mul,
    _neg, _inv; about 0.01 s at q = 256) are built together on the first
    read of any of them; equality, hash, repr and to_dict read none. Only
    this module reads them.
    """

    __slots__ = ("p", "e", "q", "modulus", "_add", "_mul", "_neg", "_inv")

    def __init__(self, p: int, e: int = 1, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise DomainError(f"field characteristic must be prime, got {p}")
        if e < 1:
            raise DomainError(f"field degree must be >= 1, got {e}")
        if e >= MAX_Q.bit_length() or (p > MAX_Q and e > 1):
            # p^e > MAX_Q already; the power itself could be too big to compute or print
            raise DomainError(f"q = {p}^{e} exceeds the supported ceiling {MAX_Q}")
        q = p ** e
        if q > MAX_Q:
            raise DomainError(f"q = {q} exceeds the supported ceiling {MAX_Q}")
        self.p, self.e, self.q = p, e, q
        if e == 1:
            if modulus is not None:
                raise DomainError("prime fields take no modulus")
            self.modulus = None
        else:
            mod = tuple(modulus) if modulus is not None else _default_modulus(p, e)
            if len(mod) != e + 1 or mod[-1] != 1 or any(not 0 <= c < p for c in mod):
                raise DomainError(f"modulus must be monic of degree {e} with coefficients in [0,{p})")
            if not _is_irreducible(mod, p):
                raise DomainError(f"modulus {list(mod)} is reducible over GF({p})")
            self.modulus = mod

    def __getattr__(self, name):
        # Reached only for an empty slot or an unknown name.
        if name not in _TABLES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._build_tables()
        return object.__getattribute__(self, name)

    def _decode(self, code: int) -> list[int]:
        digits = []
        for _ in range(self.e):
            digits.append(code % self.p)
            code //= self.p
        return digits

    def _encode(self, coeffs: Sequence[int]) -> int:
        code = 0
        for c in reversed(list(coeffs) + [0] * (self.e - len(coeffs))):
            code = code * self.p + c
        return code

    def _build_tables(self):
        """Fill all four tables from one discrete log; each is set only once it is complete.

        exp lists the powers of a generator of the multiplicative group, log
        inverts it, and every product is exp[log a + log b]. Addition works
        digit by digit: XOR for p = 2, else the base-p digits one at a time.
        """
        p, q = self.p, self.q
        exp = self._generator_powers()
        log = [0] * q
        for k, code in enumerate(exp):
            log[code] = k
        nonzero = log[1:]
        exp2 = exp + exp
        mul = [[0] * q] + [[0] + [exp2[a + b] for b in nonzero] for a in nonzero]
        if p == 2:
            add = [[a ^ b for b in range(q)] for a in range(q)]
        else:
            # code a = a0 + p·rest: add its lowest digit and, p times over, the rest
            digit = [[(a + b) % p for b in range(p)] for a in range(p)]
            add = digit
            while len(add) < q:
                add = [
                    [c + p * r for r in add[a // p] for c in digit[a % p]]
                    for a in range(p * len(add))
                ]
        neg = [row.index(0) for row in add]
        inv: list[Optional[int]] = [None] + [exp[-k % (q - 1)] for k in nonzero]
        self._add, self._mul, self._neg, self._inv = add, mul, neg, inv

    def _generator_powers(self) -> list[int]:
        """Codes of g^0, ..., g^(q-2) for the generator g with the smallest code.

        Candidates are stepped through their powers by multiplying residue
        polynomials (a prime field's modulus is x) until the power returns
        to 1; the first whose cycle has q - 1 elements generates.
        """
        p, q = self.p, self.q
        modulus = self.modulus or (0, 1)
        for g in range(1, q):
            step, power, powers = self._decode(g), [1], [1]
            while True:
                power = _poly_mod(_poly_mul(power, step, p), modulus, p)
                if power == [1]:
                    break
                powers.append(self._encode(power))
            if len(powers) == q - 1:
                return powers
        raise ArithmeticError(f"GF({q}) has no generator")  # unreachable for a field

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("0 has no inverse")
        return self._inv[a]

    def __eq__(self, other):
        return (
            isinstance(other, FieldContext)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.q})"
        return f"GF({self.q}; modulus={list(self.modulus)})"

    def to_dict(self) -> dict:
        out = {"p": self.p, "e": self.e}
        if self.e > 1:
            out["modulus"] = list(self.modulus)
        return out


@lru_cache(maxsize=None)
def _field_cached(p: int, e: int, modulus: Optional[tuple]) -> FieldContext:
    """The one context per field value (p, e, modulus); None names the default.

    The default modulus is looked up under its explicit value too, so field(q)
    and field_from_dict(field(q).to_dict()) share one context and its tables.
    """
    ctx = FieldContext(p, e, modulus)
    if modulus is None and ctx.modulus is not None:
        return _field_cached(p, e, ctx.modulus)
    return ctx


def field(q: int) -> FieldContext:
    """The field with q elements (q a prime power <= 256), default modulus, cached.

    q is checked at once; the arithmetic tables are built on first use, so
    a command may call this before it checks its sizes.
    """
    pe = prime_power(q)
    if pe is None:
        raise DomainError(f"q = {q} is not a prime power")
    if q > MAX_Q:
        raise DomainError(f"q = {q} exceeds the supported ceiling {MAX_Q}")
    return _field_cached(*pe, None)


def field_from_dict(data: dict) -> FieldContext:
    """Field from its JSON form {"p":…, "e":…, "modulus":… (optional)}."""
    try:
        p, e = int(data["p"]), int(data["e"])
        modulus = data.get("modulus")
        modulus = tuple(map(int, modulus)) if modulus is not None else None
    except (KeyError, TypeError, ValueError):
        raise DomainError(f"malformed field description: {data!r}")
    return _field_cached(p, e, modulus)


# ---------------------------------------------------------------------------
# canonical subspaces


class Subspace(Record):
    """A subspace of GF(q)^n, held as its reduced-row-echelon basis.

    rows is a tuple of row tuples of element codes; the zero subspace has no
    rows. Construction validates canonical form, so equal subspaces are equal
    values. Use canonicalize() to build one from arbitrary spanning rows.
    Three slots are derived, not fields, and eq, hash and repr ignore them:
    pivots, each row's pivot column, set on construction; over GF(2)
    only, _gf2_rows, the rows packed as (pivot bit, row) ints with column 0
    as the top bit, which meet_dim fills on first use, so enumerating
    does not pay for them; and _index, the SubspaceIndex that
    index_of computes and keeps, so a certificate reading its members'
    lattice positions computes each one once per subspace. Only this
    module reads _gf2_rows and _index.
    """

    # Built on every enumeration and canonicalize path: slots, and eq and hash
    # written out, which are about twice as fast as the generic ones.
    __slots__ = ("ctx", "n", "rows", "pivots", "_gf2_rows", "_index")
    ctx: FieldContext
    n: int
    rows: tuple[tuple[int, ...], ...]

    def _validate(self):
        n, q = self.n, self.ctx.q
        if n < 0:
            raise DomainError(f"ambient dimension must be >= 0, got {n}")
        if len(self.rows) > n:
            raise DomainError("more rows than the ambient dimension")
        pivots = []
        for row in self.rows:
            if len(row) != n:
                raise DomainError("row length does not match the ambient dimension")
            if any(not 0 <= x < q for x in row):
                raise DomainError("entry out of field range")
            piv = next((i for i, x in enumerate(row) if x), None)
            if piv is None:
                raise DomainError("zero row in a canonical basis")
            if row[piv] != 1:
                raise DomainError("pivot entry must be 1")
            if pivots and piv <= pivots[-1]:
                raise DomainError("pivot columns must strictly increase")
            pivots.append(piv)
        for i, piv in enumerate(pivots):
            for j, row in enumerate(self.rows):
                if j != i and row[piv] != 0:
                    raise DomainError("nonzero entry in a pivot column off the pivot row")
        object.__setattr__(self, "pivots", tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        if other.__class__ is not Subspace:
            return NotImplemented
        return (self.ctx, self.n, self.rows) == (other.ctx, other.n, other.rows)

    def __hash__(self):
        return hash((self.ctx, self.n, self.rows))

    def __repr__(self):
        return f"Subspace(n={self.n}, dim={self.dim}, rows={self.rows})"


def _rref(ctx: FieldContext, n: int, rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = ctx.inv(mat[rank][col])
        if inv != 1:
            mat[rank] = [ctx.mul(inv, x) for x in mat[rank]]
        top = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(mat[i], top)]
        rank += 1
        if rank == len(mat):
            break
    return [tuple(r) for r in mat[:rank]]


def canonicalize(ctx: FieldContext, n: int, rows: Sequence[Sequence[int]]) -> Subspace:
    """Subspace spanned by arbitrary rows (need not be independent or reduced)."""
    for row in rows:
        if len(row) != n:
            raise DomainError("row length does not match the ambient dimension")
        if any(not 0 <= x < ctx.q for x in row):
            raise DomainError("entry out of field range")
    return Subspace(ctx, n, tuple(_rref(ctx, n, rows)))


def zero_subspace(ctx: FieldContext, n: int) -> Subspace:
    return Subspace(ctx, n, ())


def full_space(ctx: FieldContext, n: int) -> Subspace:
    rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return Subspace(ctx, n, rows)


def _check_same_ambient(a: Subspace, b: Subspace):
    if a.n != b.n or (a.ctx is not b.ctx and a.ctx != b.ctx):
        raise DomainError("subspaces live in different ambients")


def contains(outer: Subspace, inner: Subspace) -> bool:
    """True iff inner is a subspace of outer (reduce inner's rows by outer's pivots)."""
    _check_same_ambient(outer, inner)
    ctx = outer.ctx
    pivots = outer.pivots
    for row in inner.rows:
        work = list(row)
        for prow, piv in zip(outer.rows, pivots):
            f = work[piv]
            if f:
                work = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(work, prow)]
        if any(work):
            return False
    return True


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via block elimination on [A|A] stacked over [B|0]."""
    _check_same_ambient(a, b)
    ctx, n = a.ctx, a.n
    block = [list(r) + list(r) for r in a.rows] + [list(r) + [0] * n for r in b.rows]
    reduced = _rref(ctx, 2 * n, block)
    inter_rows = [row[n:] for row in reduced if not any(row[:n])]
    return canonicalize(ctx, n, [r for r in inter_rows if any(r)])


def _pack_gf2(space: Subspace) -> tuple[tuple[int, int], ...]:
    """space's (pivot bit, row) ints over GF(2), column 0 the top bit, kept on space."""
    try:
        return space._gf2_rows
    except AttributeError:
        top = (1 << space.n) >> 1
        packed = tuple(
            (top >> piv, int("".join(map(str, row)), 2))
            for piv, row in zip(space.pivots, space.rows)
        )
        object.__setattr__(space, "_gf2_rows", packed)
        return packed


def meet_dim(a: Subspace, b: Subspace) -> int:
    """dim(a ∩ b) = dim a + dim b - rank of a's rows stacked on b's.

    Each row of b is reduced against the pivot rows kept so far: a's reduced
    basis, then the residuals of earlier rows of b scaled to a leading 1. A
    row that leaves a nonzero residual raises the rank. Over GF(2) the rows
    are ints (Subspace._gf2_rows, packed on first use), a reduction step is
    one XOR and a residual's pivot is its top bit; every other field reads
    its arithmetic tables entry by entry. No Subspace and no lattice is
    built, so this works in every ambient, with no budget.
    """
    _check_same_ambient(a, b)
    ctx, n = a.ctx, a.n
    if ctx.q == 2:
        try:
            rows_a, rows_b = a._gf2_rows, b._gf2_rows
        except AttributeError:
            rows_a, rows_b = _pack_gf2(a), _pack_gf2(b)
        basis = list(rows_a)
        for _, row in rows_b:
            if len(basis) == n:
                break
            for bit, prow in basis:
                if row & bit:
                    row ^= prow
            if row:
                basis.append((1 << (row.bit_length() - 1), row))
        return len(rows_a) + len(rows_b) - len(basis)
    add, mul, neg, inv = ctx._add, ctx._mul, ctx._neg, ctx._inv
    basis = list(zip(a.pivots, a.rows))
    for row in b.rows:
        if len(basis) == n:
            break
        work = row
        for piv, prow in basis:
            f = work[piv]
            if f:
                scale = mul[neg[f]]
                work = [add[x][scale[y]] for x, y in zip(work, prow)]
        for lead, x in enumerate(work):
            if x:
                scale = mul[inv[x]]
                basis.append((lead, [scale[y] for y in work]))
                break
    return a.dim + b.dim - len(basis)


def union_space(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both (the lattice join: span of the union)."""
    _check_same_ambient(a, b)
    return canonicalize(a.ctx, a.n, list(a.rows) + list(b.rows))


# ---------------------------------------------------------------------------
# enumeration and indexing


class SubspaceIndex(NamedTuple):
    """Position of a subspace in the canonical order: (dimension, 1-based rank)."""

    dim: int
    pos: int


@lru_cache(maxsize=None)
def _order(n: int, dim: int, q: int) -> dict[tuple[int, ...], tuple[int, tuple]]:
    """Each pivot pattern of dimension dim, in canonical order: (start, free).

    start is the 0-based rank of the pattern's first subspace in GF(q)^n,
    free its free entries (row, column), read row-major, whose digits count
    in base q from there. Callers must not change the table. The C(n, dim)
    patterns are checked against the lattice budget before the table is
    built; they never outnumber the [n dim]_q subspaces they start.
    """
    _require_budget(math.comb(n, dim), f"pivot patterns of dimension {dim}")
    order, start = {}, 0
    # each (row, column) pair is one shared object: a pattern costs a pointer per free entry
    at = [[(i, c) for c in range(n)] for i in range(dim)]
    combos = itertools.combinations(range(n), dim)
    for cols in sorted(combos, key=lambda cols: sorted(n - 1 - c for c in cols)):
        free = tuple(at[i][c] for i, p in enumerate(cols) for c in range(p + 1, n) if c not in cols)
        order[cols] = (start, free)
        start += q ** len(free)
    return order


def _pattern_rows(n: int, cols: tuple[int, ...], free: tuple, digits: Sequence[int]) -> tuple:
    """The reduced rows of one pivot pattern: a 1 at each pivot, digits on the free entries."""
    rows = [[0] * n for _ in cols]
    for i, piv in enumerate(cols):
        rows[i][piv] = 1
    for (i, c), v in zip(free, digits):
        rows[i][c] = v
    return tuple(map(tuple, rows))


def _canonical_rows(n: int, dim: int, q: int) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """(pivots, rows) of every dim-dimensional subspace of GF(q)^n, in canonical order.

    The one walk of _order: enumerate_subspaces wraps each yield in a
    Subspace; Lattice, Lattice.subspaces and containment_vector read it.
    """
    for cols, (_, free) in _order(n, dim, q).items():
        for digits in itertools.product(range(q), repeat=len(free)):
            yield cols, _pattern_rows(n, cols, free, digits)


def enumerate_subspaces(ctx: FieldContext, n: int, dim: int) -> Iterator[Subspace]:
    """All dim-dimensional subspaces of GF(q)^n in canonical order.

    Streams qbinom(n, dim, q) subspaces, reading no field table. Raises at
    the call, before any subspace: DomainError for dim outside [0, n],
    ResourceLimitError when that count exceeds the lattice budget.
    """
    if not 0 <= dim <= n:
        raise DomainError(f"dimension {dim} outside [0, {n}]")
    _require_budget(qbinom(n, dim, ctx.q), f"subspaces of dimension {dim}")
    return (Subspace(ctx, n, rows) for _, rows in _canonical_rows(n, dim, ctx.q))


def index_of(space: Subspace) -> SubspaceIndex:
    """Canonical-order index of a subspace within its dimension (1-based), kept on it."""
    try:
        return space._index
    except AttributeError:
        q, rows = space.ctx.q, space.rows
        start, free = _order(space.n, len(rows), q)[space.pivots]
        value = 0
        for i, c in free:
            value = value * q + rows[i][c]
        index = SubspaceIndex(len(rows), start + value + 1)
        object.__setattr__(space, "_index", index)
        return index


def subspace_at(ctx: FieldContext, n: int, index: SubspaceIndex) -> Subspace:
    """Inverse of index_of: the subspace at (dim, pos) in the canonical order."""
    d, pos = index
    if not 0 <= d <= n:
        raise DomainError(f"dimension {d} outside [0, {n}]")
    total = qbinom(n, d, ctx.q)
    if not 1 <= pos <= total:
        raise DomainError(f"position {pos} outside [1, {total}] for dimension {d}")
    # the last pattern that starts at or before the rank holds it
    for cols, (start, free) in reversed(_order(n, d, ctx.q).items()):
        if start < pos:
            break
    remaining, digits = pos - 1 - start, [0] * len(free)
    for slot in range(len(free) - 1, -1, -1):
        remaining, digits[slot] = divmod(remaining, ctx.q)
    return Subspace(ctx, n, _pattern_rows(n, cols, free, digits))


def line_mask(space: Subspace) -> int:
    """Bitmask of the lines of a subspace: bit i is the i-th line of GF(q)^n.

    Lines are numbered in canonical dimension-1 order. U lies in W exactly
    when line_mask(U) & ~line_mask(W) == 0, and dim(U∩W) = d exactly when
    the masks share [d 1]_q lines. Raises ResourceLimitError when [n 1]_q is
    over budget.
    """
    ctx, n, q = space.ctx, space.n, space.ctx.q
    _require_budget(qbinom(n, 1, q), f"lines of GF({q})^{n}")
    return _span_mask(ctx, n, space.rows, space.pivots)


def _span_mask(ctx: FieldContext, n: int, rows: Sequence, pivots: Sequence[int]) -> int:
    """Line mask of the span of reduced rows with the given pivot columns; no budget check.

    Each line of the span has one generator combining the rows with first
    nonzero coefficient 1; it is already normalised, so its pivot column c
    and base-q tail t rank it at (q^(n-1-c) - 1)/(q - 1) + t.
    """
    q = ctx.q
    add, mul = ctx._add, ctx._mul
    mask = 0
    for r, (lead, col) in enumerate(zip(rows, pivots)):
        vectors = [lead]
        for row in rows[r + 1 :]:
            scaled = [[mul[c][x] for x in row] for c in range(1, q)]
            vectors += [[add[a][b] for a, b in zip(v, s)] for v in vectors for s in scaled]
        base = (q ** (n - 1 - col) - 1) // (q - 1)
        for v in vectors:
            tail = 0
            for x in v[col + 1 :]:
                tail = tail * q + x
            mask |= 1 << (base + tail)
    return mask


def _line_weights(n: int, q: int) -> tuple[list[int], list[int]]:
    """(first, weight): a line with pivot column c and tail digits t_j ranks at
    first[c] + Σ_j t_j·weight[j], weight[j] = q^(n-1-j), as in _span_mask."""
    weight = [q ** (n - 1 - c) for c in range(n)]
    return [(w - 1) // (q - 1) for w in weight], weight


def _normal_masks(ctx: FieldContext, n: int) -> list[int]:
    """Entry l: the line mask of w^⊥, w line l's generator: the lines v with v·w = 0.

    These are the line masks of the [n 1]_q hyperplanes, indexed by normal
    vector. Let J be w's last nonzero column. Every line pivoting after J
    lies in w^⊥, none pivots at J, and a line pivoting at p < J lies in it
    for one digit at J per choice of its digits strictly between p and J,
    with any digits after J: a run of q^(n-1-J) lines. So each bit is set
    once, a run at a time, with no Subspace and no span enumeration.
    """
    q, add, mul, neg, inv = ctx.q, ctx._add, ctx._mul, ctx._neg, ctx._inv
    first, weight = _line_weights(n, q)
    normals = []
    for c in reversed(range(n)):
        for tail in itertools.product(range(q), repeat=n - 1 - c):
            w = (0,) * c + (1, *tail)
            last = max(j for j, x in enumerate(w) if x)
            mask, run = (1 << first[last]) - 1, (1 << weight[last]) - 1
            scale = neg[inv[w[last]]]
            # (Σ v_j·w_j, Σ v_j·weight[j]) over the digits v_j of the columns between p and last
            between = [(0, 0)]
            for p in reversed(range(last)):
                wp, at = w[p], first[p]
                for dot, offset in between:
                    mask |= run << (at + offset + mul[add[wp][dot]][scale] * weight[last])
                if p:
                    between = [
                        (add[mul[a][wp]][dot], offset + a * weight[p])
                        for a in range(q) for dot, offset in between
                    ]
            normals.append(mask)
    return normals


def _pattern_masks(
    ctx: FieldContext, n: int, cols: tuple[int, ...], free: tuple, normals: Sequence[int]
) -> tuple[list[int], list[int]]:
    """(line masks, hyperplane masks) of one pivot pattern's subspaces, in canonical order.

    Both are ANDs of normals (_normal_masks). A subspace U is the meet of
    the hyperplanes normal to a basis of U^⊥, so lines(U) is the AND over
    U's null-space vectors, one per free column c: e_c - Σ_i R[i][c]·e_{cols[i]}
    over the rows i that pivot before c. U^⊥ is the meet of the
    hyperplanes normal to U's rows, so hyperplanes(U) is the AND over
    U's reduced rows. A row depends only on its own free digits and a
    null-space vector only on its column's, so each AND runs over the
    whole pattern at once, one row (or column) at a time; the column-wise
    list is then read back in row-major digit order.
    """
    q, mul, neg, inv = ctx.q, ctx._mul, ctx._neg, ctx._inv
    first, weight = _line_weights(n, q)
    full = (1 << len(normals)) - 1
    hyperplanes = [full]
    for i, p in enumerate(cols):
        ranks = [first[p]]
        for _, c in filter(lambda entry: entry[0] == i, free):
            ranks = [r + a * weight[c] for r in ranks for a in range(q)]
        row = [normals[r] for r in ranks]
        hyperplanes = [m & h for m in hyperplanes for h in row]
    lines, read = [full], []
    for c in range(n):
        if c in cols:
            continue
        # (scale, rank) per choice of the column's digits, row 0's slowest:
        # scale normalises the vector's first nonzero entry, None while all are 0
        vectors: list[tuple[Optional[int], int]] = [(None, 0)]
        for i in range(sum(p < c for p in cols)):
            at = cols[i]
            vectors = [
                ((None, 0) if not a else (inv[neg[a]], first[at])) if scale is None
                else (scale, rank + mul[scale][neg[a]] * weight[at])
                for scale, rank in vectors for a in range(q)
            ]
            read.append((i, c))
        column = [
            normals[first[c] if scale is None else rank + scale * weight[c]]
            for scale, rank in vectors
        ]
        lines = [m & h for m in lines for h in column]
    # entry k of lines has digits read column by column; walk the digits row by row
    stride = {entry: q ** k for k, entry in enumerate(reversed(read))}
    order = [0]
    for entry in free:
        order = [k + a * stride[entry] for k in order for a in range(q)]
    return list(map(lines.__getitem__, order)), hyperplanes


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class LineIncidence:
    """Vertical incidence of a list of line masks: which entries hold each line.

    up[l] is the mask, over the list's positions, of the entries that
    contain line l; it comes from transposing the masks as bit strings, 1024
    entries at a time, with a check of the budget deadline ("incidence")
    after each block. Given hyperplane masks as well (bit l: the entry lies
    in the hyperplane normal to line l), the same pass transposes them into
    hyperplanes_up, entry by entry beside the line masks. A Lattice builds
    one over all its line and hyperplane masks, on first need
    (Lattice.incidence), and every whole-list question reads that one:
    cut(positions) gives the up table of either half for any list of its
    entries, and down, the same table with the entries in reverse order,
    is reversed from its half on first read and kept. With an up table,
    whole-list questions about a mask u take a few big-int operations per
    line of u instead of one per entry:

    - planes(up, u) adds up[l] for each line l of u into bit planes with a
      ripple carry, so bit k of entry j's count of lines shared with u is
      bit j of plane k; about log2 [n 1]_q planes suffice.
    - select(planes, count, within) picks the entries of `within` whose
      count is `count`, with one AND per plane.
    - holders(up, u) ORs up[l] over the lines of u: the entries that share
      a line with u. A row that admits count 0 alone (meet 0, or dim(U+W)
      = n on the hyperplane side) is `within` less these, one OR per line
      of u and no planes (the meet-0 shortcut of compatible_rows).

    Shared counts say more than they seem to: dim(U∩W) = d exactly when
    the line masks of U and W share [d 1]_q lines, and U lies in W exactly
    when they share all [dim U 1]_q lines of U. In GF(q)^n the hyperplane
    masks of U and W share [n - dim(U+W) 1]_q hyperplanes, the same
    question asked of U^⊥ and W^⊥, and a d-space holds [n-d 1]_q of them
    against [d 1]_q lines. compatible_rows turns both into rows over any
    list of lattice positions, counting each entry on its cheaper side.
    Only this module reads the hyperplane half.
    """

    __slots__ = ("up", "hyperplanes_up", "size", "_down", "_hyperplanes_down")

    def __init__(self, masks: Sequence[int], hyperplane_masks: Sequence[int] = ()):
        width = max(masks, default=0).bit_length()
        both = width + max(hyperplane_masks, default=0).bit_length()
        up = [0] * both
        for start in range(0, len(masks), 1024) if both else ():
            # Character k of a row is column both-1-k (a hyperplane's
            # column is width past its line); column k, read backwards,
            # holds the block's entry j at bit j.
            block = masks[start : start + 1024]
            if hyperplane_masks:
                pairs = zip(block, hyperplane_masks[start : start + 1024])
                block = [mask | hyperplanes << width for mask, hyperplanes in pairs]
            rows = [format(mask, f"0{both}b") for mask in block]
            for line, column in enumerate(reversed(tuple(zip(*rows)))):
                up[line] |= int("".join(column)[::-1], 2) << start
            check_deadline("incidence", transposed=start + len(rows), masks=len(masks))
        self.up: tuple[int, ...] = tuple(up[:width])
        self.hyperplanes_up: tuple[int, ...] = tuple(up[width:])
        self.size = len(masks)
        self._down: Optional[tuple[int, ...]] = None
        self._hyperplanes_down: Optional[tuple[int, ...]] = None

    def _reversed(self, up: Sequence[int]) -> tuple[int, ...]:
        """up with the entries in reverse order: bit j of each mask moves to bit size-1-j."""
        return tuple(int(format(holders, f"0{self.size}b")[::-1], 2) for holders in up)

    @property
    def down(self) -> tuple[int, ...]:
        """up with the entries in reverse order: bit j of down[l] is bit size-1-j of up[l]."""
        if self._down is None:
            self._down = self._reversed(self.up)
        return self._down

    @property
    def hyperplanes_down(self) -> tuple[int, ...]:
        """hyperplanes_up with the entries in reverse order, as down is to up."""
        if self._hyperplanes_down is None:
            self._hyperplanes_down = self._reversed(self.hyperplanes_up)
        return self._hyperplanes_down

    def cut(self, positions: Sequence[int], *, hyperplanes: bool = False) -> list[int]:
        """The up table of the entries at positions: bit k of line l stands for positions[k].

        The line half, or the hyperplane half when hyperplanes is true.
        positions is read as maximal runs of consecutive entries, step +1
        or -1 (a lone entry is an ascending run). Each run costs one shift
        and one mask per line, of up for an ascending run and of down for a
        descending one, moved to the run's place in the list. So a list of
        whole dimension blocks, in either order, is a few runs, and a
        shuffled list is one run per entry.
        """
        up = self.hyperplanes_up if hyperplanes else self.up
        cut = [0] * len(up)
        steps = list(map(operator.sub, positions[1:], positions[:-1]))
        start, count = 0, len(positions)
        while start < count:
            step = steps[start] if start < count - 1 and steps[start] in (1, -1) else 1
            # the run ends at the first step after start that is not step
            unlike = map(step.__ne__, itertools.islice(steps, start, None))
            end = next(itertools.compress(itertools.count(start), unlike), count - 1) + 1
            first, window = positions[start], (1 << (end - start)) - 1
            if step > 0:
                table, shift = up, first
            else:
                table = self.hyperplanes_down if hyperplanes else self.down
                shift = self.size - 1 - first
            cut = [c | ((holders >> shift) & window) << start for c, holders in zip(cut, table)]
            start = end
        return cut

    @staticmethod
    def planes(up: Sequence[int], mask: int) -> list[int]:
        """Bit-sliced counts of the lines each entry of up shares with mask."""
        planes = []
        rest = mask & ((1 << len(up)) - 1)
        while rest:
            line = rest.bit_length() - 1
            rest ^= 1 << line
            carry = up[line]
            k = 0
            for plane in planes:
                planes[k] = plane ^ carry
                carry &= plane
                if not carry:
                    break
                k += 1
            else:
                if carry:
                    planes.append(carry)
        return planes

    @staticmethod
    def holders(up: Sequence[int], mask: int) -> int:
        """The entries of up that share a line with mask: the OR of up[l] over its lines."""
        held = 0
        rest = mask & ((1 << len(up)) - 1)
        while rest:
            line = rest.bit_length() - 1
            rest ^= 1 << line
            held |= up[line]
        return held

    @staticmethod
    def select(planes: Sequence[int], count: int, within: int) -> int:
        """The entries of within (a mask) whose count in planes is count."""
        if count >> len(planes):
            return 0
        for k, plane in enumerate(planes):
            within = within & plane if (count >> k) & 1 else within & ~plane
        return within


def dim_blocks(lat: Lattice, positions: Sequence[int]) -> dict[int, int]:
    """{dim: mask over positions of its entries}: one range mask per run of one dimension."""
    blocks: dict[int, int] = {}
    low = 0
    for d, run in itertools.groupby(map(lat.dims.__getitem__, positions)):
        high = low + len(list(run))
        blocks[d] = blocks.get(d, 0) | (1 << high) - (1 << low)
        low = high
    return blocks


def _row_plan(
    n: int, q: int, di: int, by_dim: dict[int, int], allowed: Sequence[frozenset[int]]
) -> tuple[int, bool, list[tuple[int, int]], bool]:
    """(fixed, hyperplanes, targets, flip): how the rows of di-dimensional entries are built.

    A di-space and a dj-space can meet in any dimension m of
    [max(0, di + dj - n), min(di, dj)], except m = di when dj = di, which
    only the entry itself reaches. A block of by_dim whose rule admits
    every possible meet, or none, is constant: fixed ORs the blocks that
    admit all, and flip says to toggle the entry's own bit, when its own
    block is constant and the rule says otherwise of the entry itself. The
    other blocks are counted, targets listing (count, entries), on the side
    with fewer bits per entry: [di 1]_q lines, or, when hyperplanes is
    true, [n-di 1]_q hyperplanes, of which a pair meeting in m shares
    [n - (di+dj-m) 1]_q.
    """
    hyperplanes = qbinom(n - di, 1, q) < qbinom(di, 1, q)
    fixed, within, flip = 0, {}, False
    for dj, members in by_dim.items():
        meets = range(max(0, di + dj - n), min(di, dj) + 1)
        admitted = [m for m in meets if qbinom(m, 1, q) in allowed[dj]]
        possible = [m for m in meets if m != di or dj != di]
        if all(m in admitted for m in possible):
            fixed |= members
            flip |= dj == di and di not in admitted
        elif not any(m in admitted for m in possible):
            flip |= dj == di and di in admitted
        else:
            for m in admitted:
                count = qbinom(n - di - dj + m, 1, q) if hyperplanes else qbinom(m, 1, q)
                within[count] = within.get(count, 0) | members
    return fixed, hyperplanes, sorted(within.items()), flip


def compatible_rows(
    lat: Lattice, positions: Sequence[int], allowed: Sequence[Sequence[frozenset[int]]]
) -> Iterator[int]:
    """Row k, for the lattice entry at positions[k] in turn: the entries it may pair with.

    Bit k' of row k stands for the entry at positions[k'], which must be
    distinct. It is set when the two entries' line masks share a count of
    lines in allowed[di][dj], di and dj their dimensions
    (families.shared_line_counts for a predicate, or containment_counts).
    Each dimension is planned once (_row_plan): a block whose rule is
    constant is one mask, and the rest is counted on the cheaper side of
    the lattice's duality, shared lines or shared hyperplanes. The counts
    come from the lattice's own LineIncidence, cut to positions once per
    side that a plan counts, so no call transposes masks, and a row whose
    blocks are all constant counts nothing. A plan whose one target is
    count 0 counts nothing either (the meet-0 shortcut): its row is the
    target's entries less LineIncidence.holders, the entries that share a
    line (or a hyperplane) with it. Other plans build the bit-sliced
    counts with planes and pick them with select. Rows come lazily, so a
    caller may stop early.
    """
    n, q, dims = lat.n, lat.ctx.q, lat.dims
    by_dim = dim_blocks(lat, positions)
    plans = {di: _row_plan(n, q, di, by_dim, allowed[di]) for di in by_dim}
    sides = {side for _, side, targets, _ in plans.values() if targets}
    cuts = {side: lat.incidence.cut(positions, hyperplanes=side) for side in sides}
    masks = {False: lat.lines, True: lat.hyperplanes}
    steps = {}
    for di, (fixed, side, targets, flip) in plans.items():
        # a plan whose one target is count 0 keeps the entries that share nothing
        disjoint = targets[0][1] if [count for count, _ in targets] == [0] else 0
        steps[di] = (fixed, masks[side], cuts.get(side), targets, disjoint, flip)
    planes, select, holders = LineIncidence.planes, LineIncidence.select, LineIncidence.holders
    for k, g in enumerate(positions):
        row, side_masks, up, targets, disjoint, flip = steps[dims[g]]
        if disjoint:
            row |= disjoint & ~holders(up, side_masks[g])
        elif targets:
            counts = planes(up, side_masks[g])
            for count, within in targets:
                row |= select(counts, count, within)
        if flip:
            row ^= 1 << k
        yield row


def containment_counts(n: int, q: int) -> list[list[frozenset[int]]]:
    """compatible_rows' rule for "u lies in w": allowed[dw][du] = {[du 1]_q} when du <= dw."""
    span = range(n + 1)
    return [[frozenset({qbinom(du, 1, q)} if du <= dw else ()) for du in span] for dw in span]


def lattice_size(n: int, q: int) -> int:
    """Total number of subspaces of GF(q)^n (all dimensions)."""
    return sum(qbinom(n, t, q) for t in range(n + 1))


def require_lattice_budget(n: int, q: int) -> None:
    """DomainError for n < 0, ResourceLimitError when the lattice of GF(q)^n is over budget."""
    if n < 0:
        raise DomainError(f"ambient dimension must be >= 0, got {n}")
    _require_budget(lattice_size(n, q), f"subspaces of GF({q})^{n}", "size")


class Lattice:
    """All subspaces of one ambient in canonical global order, held as line masks.

    Global order is dimension-major: all of dimension 0, then 1, and so on,
    each dimension in enumeration order, so global_index and index_at
    compute the position of (d, pos) as offsets[d] + pos - 1; no table maps
    subspaces to positions. dims[g] is the dimension of entry g, lines[g]
    its line_mask and hyperplanes[g] its hyperplane mask: bit l is set when
    entry g lies in the hyperplane normal to line l, so hyperplanes[g] is
    the line mask of the entry's orthogonal complement (one int object
    serves both tables). The build walks each dimension once, a pivot
    pattern at a time (_pattern_masks), and ANDs the hyperplanes' line
    masks (_normal_masks) over each entry's null-space vectors and reduced
    rows, so it makes no Subspace; subspaces, the entries as Subspace
    values, comes from the same walk on first read, and subspace(g), one
    entry, from subspace_at on its first read. Both keep what they build
    and share it, so an entry has at most one Subspace; a search builds
    its members with subspace(g). Every whole-lattice consumer reads
    positions instead. incidence, the LineIncidence of all
    the line and hyperplane masks, is built on first need and kept, and
    compatible_rows reads it for every list of positions, so a graph, a
    certificate context or contains_mask transposes no mask. Only this
    module reads the hyperplane masks. The lazy
    contains_mask table is compatible_rows under containment_counts: bit u
    of contains_mask[w] says u lies inside w, that is, w holds all
    [dim u 1]_q lines of u. Family checks use meet_dim per pair instead, as
    family files may live in ambients too big for a lattice. The build
    checks the budget deadline ("lattice") once per 1024 entries, after the
    pivot pattern that reaches them, and after each dimension; a build that
    runs out leaves nothing cached.
    """

    def __init__(self, ctx: FieldContext, n: int):
        require_lattice_budget(n, ctx.q)
        self.ctx, self.n = ctx, n
        self.offsets: list[int] = []
        lines: list[int] = []
        hyperplanes: list[int] = []
        dims: list[int] = []
        normals = _normal_masks(ctx, n)
        for d in range(n + 1):
            self.offsets.append(len(lines))
            for cols, (_, free) in _order(n, d, ctx.q).items():
                done = len(lines)
                pattern_lines, pattern_hyperplanes = _pattern_masks(ctx, n, cols, free, normals)
                lines += pattern_lines
                hyperplanes += pattern_hyperplanes
                for passed in range(done + 1024 - done % 1024, len(lines) + 1, 1024):
                    check_deadline("lattice", dim=d, line_masks=passed)
            dims += [d] * (len(lines) - self.offsets[d])
            check_deadline("lattice", dim=d, line_masks=len(lines))
        self.lines: tuple[int, ...] = tuple(lines)
        # hyperplanes(U) is lines(U^⊥), so both tables share one int per mask
        held = {mask: mask for mask in lines}
        self.hyperplanes: tuple[int, ...] = tuple(map(held.__getitem__, hyperplanes))
        self.dims: tuple[int, ...] = tuple(dims)
        self._contains_mask: Optional[list[int]] = None
        self._subspace: dict[int, Subspace] = {}

    def __len__(self):
        return len(self.dims)

    @cached_property
    def incidence(self) -> LineIncidence:
        """The LineIncidence of every line and hyperplane mask, built on first need and kept.

        Its build checks the deadline ("incidence") after every 1024 masks;
        one that runs out caches nothing.
        """
        return LineIncidence(self.lines, self.hyperplanes)

    @cached_property
    def subspaces(self) -> tuple[Subspace, ...]:
        """Every entry as a Subspace, in global order, built on first read.

        An entry that subspace(g) has built already is that same object.
        The budget is not read again: the lattice was admitted when it was built.
        """
        ctx, n, built = self.ctx, self.n, self._subspace
        walk = (rows for d in range(n + 1) for _, rows in _canonical_rows(n, d, ctx.q))
        return tuple(
            built[g] if g in built else Subspace(ctx, n, rows) for g, rows in enumerate(walk)
        )

    def subspace(self, g: int) -> Subspace:
        """Entry g as a Subspace, built on first read and kept; DomainError outside [0, len).

        It is subspaces[g] once that table is built, else subspace_at of
        index_at(g), a validated Subspace, so each entry has at most one.
        """
        space = self._subspace.get(g)
        if space is None:
            index = self.index_at(g)
            held = vars(self).get("subspaces")
            space = held[g] if held is not None else subspace_at(self.ctx, self.n, index)
            self._subspace[g] = space
        return space

    def global_index(self, space: Subspace) -> int:
        """Position of space in the global order; DomainError for another ambient."""
        if space.n != self.n or (space.ctx is not self.ctx and space.ctx != self.ctx):
            raise DomainError("subspace does not belong to this lattice")
        d, pos = index_of(space)
        return self.offsets[d] + pos - 1

    def index_at(self, g: int) -> SubspaceIndex:
        """The (dim, pos) of global position g; DomainError outside [0, len)."""
        if not 0 <= g < len(self.dims):
            raise DomainError(f"position {g} outside [0, {len(self.dims)})")
        d = self.dims[g]
        return SubspaceIndex(d, g - self.offsets[d] + 1)

    def positions(self, dims: Iterable[int]) -> list[int]:
        """Global positions of the entries whose dimension is in dims, in global order.

        Each listed dimension gives its whole block, from its offset to the
        next. DomainError for a dimension outside [0, n].
        """
        picked = sorted(set(dims))
        for d in picked:
            if not 0 <= d <= self.n:
                raise DomainError(f"dimension {d} outside [0, {self.n}]")
        ends = [*self.offsets[1:], len(self.dims)]
        return [g for d in picked for g in range(self.offsets[d], ends[d])]

    @property
    def contains_mask(self) -> list[int]:
        """Bit u of entry w: subspace u lies in w, so w holds all lines of u."""
        if self._contains_mask is None:
            inside = containment_counts(self.n, self.ctx.q)
            self._contains_mask = list(compatible_rows(self, range(len(self)), inside))
        return self._contains_mask

    def join(self, i: int, j: int) -> int:
        """Global index of the lattice join of entries i and j; DomainError outside [0, len).

        The join is the one entry of dimension dim i + dim j - m whose line
        mask covers both masks, m = dim(i ∩ j) read off the popcount of
        their AND, which is [m 1]_q. It builds no Subspace.
        """
        dim = self.index_at(i).dim + self.index_at(j).dim
        lines, q = self.lines, self.ctx.q
        shared, count = (lines[i] & lines[j]).bit_count(), 0
        while count < shared:
            count, dim = count * q + 1, dim - 1
        want = lines[i] | lines[j]
        start = self.offsets[dim]
        covers = map(want.__eq__, map(want.__and__, itertools.islice(lines, start, None)))
        return next(itertools.compress(itertools.count(start), covers))


@lru_cache(maxsize=None)
def _cached_lattice(ctx: FieldContext, n: int) -> Lattice:
    return Lattice(ctx, n)


def lattice(ctx: FieldContext, n: int) -> Lattice:
    """The cached Lattice of GF(q)^n; a lowered budget refuses a cached one too."""
    require_lattice_budget(n, ctx.q)
    return _cached_lattice(ctx, n)


# ---------------------------------------------------------------------------
# containment vectors


class ContainmentVector(Record):
    """0/1 incidence of one subspace against all subspaces of dimension <= s_cap.

    mask is one int over the lattice order, dimensions 0..min(s_cap, n): bit
    offset(x) + y - 1 is set exactly when the y-th x-dimensional subspace lies
    inside the carrier, so the dimension-1 block is the carrier's line mask.
    offset(x) sums qbinom(n, t, q) over t < x; blocks above n are empty.
    """

    ctx: FieldContext
    n: int
    s_cap: int
    mask: int

    def offset(self, x: int) -> int:
        return sum(qbinom(self.n, t, self.ctx.q) for t in range(x))

    def block_mask(self, x: int) -> int:
        """Block x as an int: bit y - 1 is the y-th x-dimensional subspace."""
        if not 0 <= x <= self.s_cap:
            raise DomainError(f"dimension {x} outside [0, {self.s_cap}]")
        return (self.mask >> self.offset(x)) & ((1 << qbinom(self.n, x, self.ctx.q)) - 1)

    def block(self, x: int) -> tuple[int, ...]:
        block = self.block_mask(x)
        return tuple((block >> k) & 1 for k in range(qbinom(self.n, x, self.ctx.q)))

    def bit_index(self, x: int, pos: int) -> int:
        """Bit of mask holding the (x, pos) incidence: offset(x) + pos - 1."""
        if not 0 <= x <= self.s_cap:
            raise DomainError(f"dimension {x} outside [0, {self.s_cap}]")
        width = qbinom(self.n, x, self.ctx.q)
        if not 1 <= pos <= width:
            raise DomainError(f"position {pos} outside [1, {width}] for dimension {x}")
        return self.offset(x) + pos - 1

    def get(self, x: int, pos: int) -> int:
        return (self.mask >> self.bit_index(x, pos)) & 1


def containment_vector(space: Subspace, s_cap: int) -> ContainmentVector:
    """Containment vector of a subspace against all subspaces of dim <= s_cap.

    Bit 0 (the zero subspace) is always set, so s_cap = 0 builds no line
    mask; higher candidates are tested by line masks from the canonical
    walk, with no Subspace each.
    """
    if s_cap < 0:
        raise DomainError(f"s_cap must be >= 0, got {s_cap}")
    ctx, n = space.ctx, space.n
    top = min(s_cap, n)
    total = sum(qbinom(n, t, ctx.q) for t in range(top + 1))
    _require_budget(total, f"subspaces of dimension <= {top}")
    mask, start = 1, 1
    outside = ~line_mask(space) if top else 0
    for t in range(1, min(top, space.dim) + 1):
        for u, (pivots, rows) in enumerate(_canonical_rows(n, t, ctx.q), start):
            if not _span_mask(ctx, n, rows, pivots) & outside:
                mask |= 1 << u
        start += qbinom(n, t, ctx.q)
    return ContainmentVector(ctx, n, s_cap, mask)
