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
side, and compatible_rows is the one builder of rows over a list of
lattice positions: the lattice's containment table (containment_counts)
and, under its transpose, a certificate context's columns; over admitted
positions, a certificate context's compatibility table and search's
graph rows. The Lattice is its entries' dimensions and line masks: one
walk of the canonical order per dimension feeds the mask kernel line_mask
also uses, so the build makes no Subspace, and Lattice.subspaces is built
from the same walk only when read. Sizes are checked against the lattice
budget of the budgets scope; the lattice build and the LineIncidence
transposition check its deadline. field(q) and field_from_dict give one
shared context per field, whose tables are built on first use from the
powers of one generator (a discrete log).

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
    after each block. With it, whole-list questions about a mask u take a
    few big-int operations per line of u instead of one per entry:

    - planes(u) adds up[l] for each line l of u into bit planes with a
      ripple carry, so bit k of entry j's count of lines shared with u is
      bit j of plane k; about log2 [n 1]_q planes suffice.
    - select(planes, count, within) picks the entries of `within` whose
      count is `count`, with one AND per plane.

    Shared counts say more than they seem to: dim(U∩W) = d exactly when
    the line masks of U and W share [d 1]_q lines, and U lies in W exactly
    when they share all [dim U 1]_q lines of U. compatible_rows turns both
    into rows over the whole list.
    """

    __slots__ = ("up",)

    def __init__(self, masks: Sequence[int]):
        width = max(masks, default=0).bit_length()
        up = [0] * width
        for start in range(0, len(masks), 1024) if width else ():
            # Character k of a row is line width-1-k; column k, read
            # backwards, holds the block's entry j at bit j.
            rows = [format(mask, f"0{width}b") for mask in masks[start : start + 1024]]
            for line, column in enumerate(reversed(tuple(zip(*rows)))):
                up[line] |= int("".join(column)[::-1], 2) << start
            check_deadline("incidence", transposed=start + len(rows), masks=len(masks))
        self.up: tuple[int, ...] = tuple(up)

    def planes(self, mask: int) -> list[int]:
        """Bit-sliced counts of the lines each entry shares with mask."""
        up, planes = self.up, []
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
    def select(planes: Sequence[int], count: int, within: int) -> int:
        """The entries of within (a mask) whose count in planes is count."""
        if count >> len(planes):
            return 0
        for k, plane in enumerate(planes):
            within = within & plane if (count >> k) & 1 else within & ~plane
        return within


def compatible_rows(
    lat: Lattice, positions: Sequence[int], allowed: Sequence[Sequence[frozenset[int]]]
) -> Iterator[int]:
    """Row k, for the lattice entry at positions[k] in turn: the entries it may pair with.

    Bit k' of row k stands for the entry at positions[k']. It is set when
    the two entries' line masks share a count of lines in allowed[di][dj],
    di and dj their dimensions (families.shared_line_counts for a
    predicate, or containment_counts). LineIncidence counts a whole row at
    once. Rows come lazily, so a caller may stop early.
    """
    lines = list(map(lat.lines.__getitem__, positions))
    dims = list(map(lat.dims.__getitem__, positions))
    by_dim: dict[int, int] = {}
    for j, d in enumerate(dims):
        by_dim[d] = by_dim.get(d, 0) | 1 << j
    # targets[d]: for each line count c, the entries a d-dimensional entry
    # accepts when they share c lines with it.
    targets = {}
    for di in by_dim:
        within: dict[int, int] = {}
        for dj, members in by_dim.items():
            for count in allowed[di][dj]:
                within[count] = within.get(count, 0) | members
        targets[di] = sorted(within.items())
    incidence = LineIncidence(lines)
    select = incidence.select
    for mask, d in zip(lines, dims):
        planes = incidence.planes(mask)
        row = 0
        for count, within in targets[d]:
            row |= select(planes, count, within)
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
    subspaces to positions. dims[g] is the dimension of entry g and lines[g]
    its line_mask. The build walks each dimension once and computes every
    mask from the pattern rows, so it makes no Subspace; subspaces, the
    entries as Subspace values, comes from the same walk on first read.
    Every whole-lattice consumer reads positions instead. The lazy
    contains_mask table is compatible_rows under containment_counts: bit u
    of contains_mask[w] says u lies inside w, that is, w holds all
    [dim u 1]_q lines of u. Family checks use meet_dim per pair instead, as
    family files may live in ambients too big for a lattice. The build
    checks the budget deadline ("lattice") every 1024 entries and after each
    dimension; a build that runs out leaves nothing cached.
    """

    def __init__(self, ctx: FieldContext, n: int):
        require_lattice_budget(n, ctx.q)
        self.ctx, self.n = ctx, n
        self.offsets: list[int] = []
        lines: list[int] = []
        dims: list[int] = []
        for d in range(n + 1):
            self.offsets.append(len(lines))
            for pivots, rows in _canonical_rows(n, d, ctx.q):
                lines.append(_span_mask(ctx, n, rows, pivots))
                if not len(lines) % 1024:
                    check_deadline("lattice", dim=d, line_masks=len(lines))
            dims += [d] * (len(lines) - self.offsets[d])
            check_deadline("lattice", dim=d, line_masks=len(lines))
        self.lines: tuple[int, ...] = tuple(lines)
        self.dims: tuple[int, ...] = tuple(dims)
        self._contains_mask: Optional[list[int]] = None

    def __len__(self):
        return len(self.dims)

    @cached_property
    def subspaces(self) -> tuple[Subspace, ...]:
        """Every entry as a Subspace, in global order, built on first read.

        The budget is not read again: the lattice was admitted when it was built.
        """
        ctx, n = self.ctx, self.n
        return tuple(
            Subspace(ctx, n, rows) for d in range(n + 1) for _, rows in _canonical_rows(n, d, ctx.q)
        )

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
        """Global index of the lattice join of entries i and j; DomainError outside [0, len)."""
        a, b = (subspace_at(self.ctx, self.n, self.index_at(g)) for g in (i, j))
        return self.global_index(union_space(a, b))


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
