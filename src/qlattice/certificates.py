"""Linear-independence certificates over F_p for subspace-family functionals.

The machinery works with three function families on containment vectors: the
raw incidence functionals f (one bit of the vector), the grid functionals
g_xy (an incidence bit times a product of line-count factors over K), and the
member functionals g_i (a product over L of shared-line counts). Evaluating a
chosen row set on the containment vectors of every subspace of the ambient
space and computing the rank mod p yields a sound one-sided certificate:
full row rank proves linear independence, anything less is inconclusive.

The points are the lattice's entries, read by position with no record per
point: the f row (column) of u, dim u <= s, is row u of compatible_rows under
the transposed containment rule. A point's line count is the popcount of its
line mask (gfspace.line_mask), the lines it shares with a member the popcount
of the AND of the two masks. The members' lattice positions come from
Lattice.global_index, their masks from the context lattice's lines.

The rank argument holds only for a family that follows the profile, so
every certificate first re-checks the family. Which pairs the profile
allows depends only on the context, so each context builds once, on first
use, one compatibility row per lattice entry whose dimension the profile
admits (gfspace.compatible_rows over those positions and the
shared_line_counts table, as search.CompatGraph builds its rows). A
call then walks its members from last to first with the mask of the later
ones: one AND per member, and one meet_dim only for the witness pair of a
failing family. The verdict is check_modular's, and so is the detail: the
profile's member_fault or pair_fault. The table holds A^2 bits for A
admitted entries, so it grows with the square of the lattice.

Rank and span run over packed rows: a row is one int whose lane j, a fixed
number of whole bytes wide, holds entry j mod p. A row operation is one
big-int multiply-add, after which a Barrett multiply, shift and mask reduces
every lane at once (_Lanes). Rows are converted through array, _restride
and int.from_bytes, never entry by entry. The rows that depend only on the
context, not on the family, are built once per CertificateContext, on first
use: the f rows (the columns), the g_xy rows, the echelon basis of the f
rows, and one grid block per filter (every g_xy row, or those lemma52 and
swallow2 keep) with its labels, packed rows, entries and rank. lemma41 and
lemma52 take their labels, entries and rank from the block once the family
has passed its re-check. swallow1 and swallow2 eliminate their member rows
ahead of the block's rows, the order their labels run in: grid rows
first, even from a cached grid basis, was slower for swallow1 on
gen_example_uniform(3, 2, 2), with 155 member rows against 32 grid rows.
CertificateMatrix.from_entries and rank_mod_p, which take lists of
entries, remain the reference route.

A member's g_i row depends on its lattice position and the context, not on
the family, so the context keeps every row it has built, by position, as
a packed row and its entries tuple (CertificateContext._member_rows). A
position's row is built and packed the first time a swallow certificate
of a family that passed its re-check, or a span_check g_i sample, asks for
it; every later call reads it, and the returned CertificateMatrix shares
the stored entries tuples. A stored row holds one entry per point. The
store grows with the distinct members seen and is never cleared: the
context is the unit of memory, and a caller bounds the store by dropping
the context.
"""

from __future__ import annotations

import struct
import sys
from array import array
from functools import cached_property
from itertools import chain, islice, repeat
from operator import mod
from typing import Iterable, Optional, Sequence

from .errors import DomainError
from .qcombin import has_order, is_prime, qbinom, require_zsigmondy_prime
from .gfspace import (
    ContainmentVector,
    FieldContext,
    Subspace,
    SubspaceIndex,
    compatible_rows,
    containment_counts,
    index_of,
    lattice,
    line_mask,
    meet_dim,
    subspace_at,
    union_space,
)
from .families import Family, ModularProfile, shared_line_counts
from .options import VARIANTS
from .records import Record


# ---------------------------------------------------------------------------
# context


class CertificateContext(Record):
    """Frozen evaluation setting: ambient, profile and prime.

    The evaluation points are the containment vectors (capped at dimension s)
    of every subspace of the ambient space, in canonical lattice order; all
    that is read per point (S, point_labels, the rows) comes from the
    context's lattice on first use.

    The context is the unit of memory. Besides the rows that depend only on
    it, it keeps the g_i row of every member position any certificate or
    span_check has asked for, one entry per point each, and never clears
    them; a caller that certifies many families bounds that store by
    building a new context and dropping the old one.
    """

    ctx: FieldContext
    n: int
    profile: ModularProfile
    p: int

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def s(self) -> int:
        return self.profile.s

    @property
    def r(self) -> int:
        return self.profile.r

    # Family-independent rows, built on first use. cached_property writes the
    # instance __dict__ directly, so it works on the frozen record, and eq,
    # hash and repr, which read the fields only, ignore what it stores.

    @cached_property
    def S(self) -> int:
        """The number of f rows: the positions of dimension <= s, the lowest ones."""
        return len(lattice(self.ctx, self.n).positions(range(min(self.s, self.n) + 1)))

    @cached_property
    def point_labels(self) -> tuple[SubspaceIndex, ...]:
        lat = lattice(self.ctx, self.n)
        return tuple(map(lat.index_at, range(len(lat))))

    @cached_property
    def _lanes(self) -> "_Lanes":
        return _Lanes(self.p, len(lattice(self.ctx, self.n)))

    @cached_property
    def _columns(self) -> tuple[int, ...]:
        """Column u of the points, packed: lane w is 1 when subspace u lies in point w.

        Row u of compatible_rows under the transposed containment rule, for
        the S lowest u, as 0/1 bytes that _restride widens to lanes.
        """
        lat = lattice(self.ctx, self.n)
        above = tuple(zip(*containment_counts(self.n, self.q)))
        rows = islice(compatible_rows(lat, range(len(lat)), above), self.S)
        bits = (format(row, f"0{len(lat)}b")[::-1].encode().translate(_ZERO_ONE) for row in rows)
        return tuple(int.from_bytes(_restride(b, 1, self._lanes.width), "little") for b in bits)

    @cached_property
    def _grid_rows(self) -> tuple[int, ...]:
        """Packed g_xy rows for 0 <= x <= s - r, by the lattice position of (x, y).

        g_xy is column u of (x, y) with every lane set to the K factor of
        its point: the column's 0/1 lanes widened to all-ones, ANDed with
        the packed factors.
        """
        lanes = self._lanes
        factors = lanes.pack(_k_factors(self, lattice(self.ctx, self.n).lines))
        count = sum(map(len, self._grid_blocks))
        return tuple(column * lanes.lane & factors for column in self._columns[:count])

    @cached_property
    def _grid_blocks(self) -> list[list[int]]:
        """The lattice positions of dimension x for 0 <= x <= s - r, none above n."""
        lat = lattice(self.ctx, self.n)
        return [lat.positions([x] if x <= self.n else []) for x in range(self.s - self.r + 1)]

    @cached_property
    def _grid(self) -> "_GridBlock":
        """Every g_xy row, the grid of lemma41 and swallow1."""
        return _GridBlock(self, filtered=False)

    @cached_property
    def _grid_filtered(self) -> "_GridBlock":
        """The g_xy rows lemma52 and swallow2 keep."""
        return _GridBlock(self, filtered=True)

    @cached_property
    def _f_basis(self) -> dict[int, int]:
        """Echelon basis of the f rows: the columns of every subspace of dim <= s."""
        return self._lanes.echelon(self._columns)

    @cached_property
    def _compatible(self) -> tuple[tuple[int, ...], tuple[Optional[int], ...]]:
        """Rows of allowed pairs over the admitted lattice entries, and each position's row.

        The entries are the subspaces whose dimension the profile admits, in
        lattice order, picked by Lattice.positions as search.build_graph
        picks its vertices; build_graph's CompatGraph holds the same
        positions, from the last one down. Bit j of row i is set when
        entries i and j may meet, by the profile's shared_line_counts
        table, the one CompatGraph reads, which refuses a meet rule that
        is not symmetric.
        index[g] is the row of lattice position g, None where the profile
        does not admit its dimension.
        """
        lat = lattice(self.ctx, self.n)
        positions = lat.positions(filter(self.profile.admits, range(self.n + 1)))
        index: list[Optional[int]] = [None] * len(lat)
        for row, g in enumerate(positions):
            index[g] = row
        rows = compatible_rows(lat, positions, shared_line_counts(self.profile, self.n, self.q))
        return tuple(rows), tuple(index)

    @cached_property
    def _member_rows(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        """g_i rows by the member's lattice position: (packed row, entries).

        A g_i row depends on the member's position and the context only,
        never on the family it came in, so _g_i_rows fills this store once
        per position, on first use, and every later family reads it.
        """
        return {}

    @cached_property
    def _g_i_values(self) -> dict[int, int]:
        """g_i at a point, by the line count [d 1]_q it shares with the member."""
        mu_counts = _line_counts(self.profile.L, self.q, self.p)
        counts = (qbinom(d, 1, self.q) for d in range(self.n + 1))
        return {c: _product_minus(c, mu_counts, self.p) for c in counts}


def certificate_context(
    ctx: FieldContext, n: int, profile: ModularProfile, p: Optional[int] = None
) -> CertificateContext:
    """Build a CertificateContext, deriving p from (q, b) unless given.

    A caller-supplied p must be a prime at which q has multiplicative order
    exactly b; only b is factored for that test, never p - 1, so any size of
    p is checked at once. The derived default comes from the
    primitive-prime-divisor search and inherits its unsupported-parameter
    errors. The context lattice is built (or found cached) here, so its
    budget errors surface at this call; nothing is built per point.
    """
    if n < 0:
        raise DomainError(f"ambient dimension must be >= 0, got {n}")
    if p is None:
        p = require_zsigmondy_prime(ctx.q, profile.b)
    else:
        if not is_prime(p):
            raise DomainError(f"p = {p} is not prime")
        if not has_order(ctx.q, p, profile.b):
            raise DomainError(
                f"q = {ctx.q} does not have multiplicative order exactly {profile.b} mod {p}"
            )
    lattice(ctx, n)
    return CertificateContext(ctx, n, profile, p)


# ---------------------------------------------------------------------------
# function evaluation


def eval_f(x: int, y: int, v: ContainmentVector) -> int:
    """The (x, y) incidence bit of v, as a residue."""
    return v.get(x, y)


def _line_counts(values: Iterable[int], q: int, p: int) -> list[int]:
    return [qbinom(v, 1, q) % p for v in values]


def _product_minus(count: int, counts: Iterable[int], p: int) -> int:
    """Product of (count - c) over counts, mod p; the empty product is 1."""
    out = 1
    for c in counts:
        out = out * (count - c) % p
    return out


def eval_g_xy(cctx: CertificateContext, x: int, y: int, v: ContainmentVector) -> int:
    """f(x, y, v) times the product over K of (line count of v minus [k_t 1]).

    Only x between 0 and s - r is admitted. An empty K gives the empty
    product 1, reducing g_xy to the bare incidence bit.
    """
    if not 0 <= x <= cctx.s - cctx.r:
        raise DomainError(f"x = {x} outside [0, {cctx.s - cctx.r}]")
    bit = eval_f(x, y, v)
    if bit == 0 or not cctx.profile.K:
        return bit
    count = v.block_mask(1).bit_count()
    return _product_minus(count, _line_counts(cctx.profile.K, cctx.q, cctx.p), cctx.p)


def _k_factors(cctx: CertificateContext, lines: Iterable[int]) -> list[int]:
    """Product over K of (line count minus [k_t 1]) at each point, mod p."""
    kt_counts = _line_counts(cctx.profile.K, cctx.q, cctx.p)
    return [_product_minus(mask.bit_count(), kt_counts, cctx.p) for mask in lines]


def _grid_index(cctx: CertificateContext, x: int, y: int) -> int:
    """The lattice position of (x, y), the row of g_xy in the context's grid."""
    if not 0 <= x <= cctx.s - cctx.r:
        raise DomainError(f"x = {x} outside [0, {cctx.s - cctx.r}]")
    block = cctx._grid_blocks[x]
    if not 1 <= y <= len(block):
        raise DomainError(f"position {y} outside [1, {len(block)}] for dimension {x}")
    return block[y - 1]


def _member(family: Family, i: int) -> Subspace:
    if not 0 <= i < len(family):
        raise DomainError(f"member index {i} outside [0, {len(family)})")
    return family[i]


def _member_lines(family: Family, i: int) -> int:
    return line_mask(_member(family, i))


def _recheck(cctx: CertificateContext, family: Family, where: Sequence[int]) -> None:
    """DomainError with check_modular's detail unless the family follows the profile.

    where[i] is member i's lattice position. A member with no row has a
    dimension the profile does not admit, and member failures come first,
    as in check_modular. Otherwise the walk runs from the last member to
    the first with the mask of the later members' rows: member i fails
    when its row of cctx._compatible misses one of them. The witness is
    the first failing member with its first failing later partner, whose
    meet dimension comes from one meet_dim. The detail is the profile's
    member_fault or pair_fault, as in check_modular.
    """
    rows, index = cctx._compatible
    profile = cctx.profile
    bits = list(map(index.__getitem__, where))
    if None in bits:
        i = bits.index(None)
        detail = profile.member_fault(i, family[i].dim)
    else:
        later, first = 0, None
        for i in range(len(bits) - 1, -1, -1):
            bit = bits[i]
            if later & rows[bit] != later:
                first = i
            later |= 1 << bit
        if first is None:
            return
        row = rows[bits[first]]
        j = next(j for j in range(first + 1, len(bits)) if not row >> bits[j] & 1)
        d = meet_dim(family[first], family[j])
        detail = profile.pair_fault(first, j, d, family[first].dim, family[j].dim)
    raise DomainError(f"family violates the profile: {detail}")


def _g_i_row(cctx: CertificateContext, member: int, points: Iterable[int]) -> list[int]:
    """g_i of the member with line mask `member` at each point, given their line masks."""
    shared = map(int.bit_count, map(member.__and__, points))
    return list(map(cctx._g_i_values.__getitem__, shared))


def _g_i_rows(cctx: CertificateContext, where: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """(packed row, entries) of g_i for the members at lattice positions `where`.

    Rows come from cctx._member_rows; a position not yet there is built
    with _g_i_row and packed once, then stored.
    """
    store, lines = cctx._member_rows, lattice(cctx.ctx, cctx.n).lines
    for g in where:
        if g not in store:
            entries = _g_i_row(cctx, lines[g], lines)
            store[g] = cctx._lanes.pack(entries), tuple(entries)
    return [store[g] for g in where]


def eval_g_i(cctx: CertificateContext, i: int, family: Family, v: ContainmentVector) -> int:
    """Product over L of (shared line count of member i and v minus [mu 1]).

    The shared line count is the popcount of the AND of the member's line
    mask with v's dimension-1 block, which is v's line mask. An empty L gives 1.
    """
    member = _member_lines(family, i)
    point = 0
    if cctx.profile.L:
        if v.s_cap < 1:
            raise DomainError("evaluation point must carry a dimension-1 block")
        point = v.block_mask(1)
    mu_counts = _line_counts(cctx.profile.L, cctx.q, cctx.p)
    return _product_minus((member & point).bit_count(), mu_counts, cctx.p)


def product_reduce(x: int, y: int, z: int, ctx: FieldContext, n: int) -> SubspaceIndex:
    """Index (x', w) of the join of subspace (x, y) with line (1, z).

    Pointwise, f(x, y)·f(1, z) equals f(x', w) on every containment vector;
    x' is x when the line lies inside (x, y) and x + 1 otherwise.
    """
    base = subspace_at(ctx, n, SubspaceIndex(x, y))
    line = subspace_at(ctx, n, SubspaceIndex(1, z))
    return index_of(union_space(base, line))


# ---------------------------------------------------------------------------
# packed rows mod p

_LITTLE = sys.byteorder == "little"
_ITEM_CODES = {array(code).itemsize: code for code in "QLIHB"}
_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


def _restride(data: bytes, src: int, dst: int) -> bytearray:
    """Little-endian items of src bytes laid out again as items of dst bytes.

    Each item keeps its low min(src, dst) bytes, so its value must fit there.
    """
    out = bytearray(len(data) // src * dst)
    for i in range(min(src, dst)):
        out[i::dst] = data[i::src]
    return out


class _Lanes:
    """Rows of `count` residues mod p, each packed into one int: entry j in lane j.

    A lane is `width` whole bytes, at least 2a + 1 bits for a the bit length
    of p(p - 1). p(p - 1) bounds every lane of r + c·b for r, c and b below
    p, and Barrett's product of a lane below 2^a stays inside 2a + 1 bits, so
    `reduce` takes every lane mod p at once with one multiply, shift and
    mask, no lane spilling into the next. The quotient is exact: magic is
    ceil(2^(a+l) / p) with 2^l >= p (Granlund and Montgomery 1994, Thm 4.2).
    A reduced row's lowest nonzero lane is its lowest set bit.

    Lanes of at most 8 bytes convert through array; wider ones (p above
    about 46000) through int.to_bytes and struct, still with no Python loop
    per entry.
    """

    def __init__(self, p: int, count: int):
        a = (p * (p - 1)).bit_length()
        ell = (p - 1).bit_length()
        self.p, self.count = p, count
        self.shift = a + ell
        self.magic = -(-(1 << self.shift) // p)
        self.width = (2 * a + 8) // 8
        self.bits = 8 * self.width
        self.lane = (1 << self.bits) - 1
        ones = int.from_bytes((1).to_bytes(self.width, "little") * count, "little")
        self.quotient_mask = ones * ((1 << (a - ell + 1)) - 1)
        sizes = [size for size in _ITEM_CODES if size >= self.width]
        self.itemsize = min(sizes) if sizes else 0

    def pack(self, values: Iterable[int]) -> int:
        """One row from its lane values, each below 2^bits."""
        if not self.itemsize:
            data = b"".join(map(int.to_bytes, values, repeat(self.width), repeat("little")))
            return int.from_bytes(data, "little")
        items = array(_ITEM_CODES[self.itemsize], values)
        if not _LITTLE:
            items.byteswap()
        data = items.tobytes()
        if self.itemsize != self.width:
            data = _restride(data, self.itemsize, self.width)
        return int.from_bytes(data, "little")

    def unpack(self, row: int) -> tuple[int, ...]:
        """The `count` lane values of one row."""
        data = row.to_bytes(self.count * self.width, "little")
        if not self.itemsize:
            chunks = chain.from_iterable(struct.iter_unpack(f"{self.width}s", data))
            return tuple(map(int.from_bytes, chunks, repeat("little")))
        if self.itemsize != self.width:
            data = _restride(data, self.width, self.itemsize)
        items = array(_ITEM_CODES[self.itemsize], data)
        if not _LITTLE:
            items.byteswap()
        return tuple(items)

    def reduce(self, row: int) -> int:
        """Every lane mod p, for lanes below 2^a."""
        return row - ((row * self.magic >> self.shift) & self.quotient_mask) * self.p

    def lead(self, basis: dict[int, int], row: int) -> tuple[int, int]:
        """Reduce a row by basis until its lowest nonzero lane holds no pivot.

        basis maps a pivot lane to a reduced row with 1 in that lane and
        shifted down to start there. Returns (lane, tail), tail being the
        reduced row shifted the same way; tail is 0 when the row lies in the
        span of basis.
        """
        bits, lane, p, pos = self.bits, self.lane, self.p, 0
        while row:
            skip = ((row & -row).bit_length() - 1) // bits
            row >>= skip * bits
            pos += skip
            unit = basis.get(pos)
            if unit is None:
                return pos, row
            row = self.reduce(row + (p - (row & lane)) * unit) >> bits
            pos += 1
        return pos, 0

    def echelon(self, rows: Iterable[int]) -> dict[int, int]:
        """Echelon basis {pivot lane: unit row} of the span of reduced rows."""
        basis: dict[int, int] = {}
        for row in rows:
            pos, tail = self.lead(basis, row)
            if tail:
                basis[pos] = self.reduce(tail * pow(tail & self.lane, -1, self.p))
        return basis


def rank_mod_p(rows: Iterable[Sequence[int]], p: int) -> int:
    """Rank of an integer matrix over F_p."""
    rows = list(rows)
    if not rows:
        return 0
    lanes = _Lanes(p, len(rows[0]))
    if any(len(row) != lanes.count for row in rows):
        raise DomainError("matrix rows differ in length")
    return len(lanes.echelon(lanes.pack(map(mod, row, repeat(p))) for row in rows))


# ---------------------------------------------------------------------------
# certificates


class CertificateMatrix(Record):
    """Evaluation matrix with its rank and one-sided verdict.

    Row labels are ("g_i", i) or ("g_xy", x, y); columns are labeled by the
    SubspaceIndex of each evaluation point. The verdict is "independent"
    exactly when the rank equals the row count, and "inconclusive" otherwise:
    rank deficiency on a finite point set never proves dependence.
    """

    rows: tuple[tuple, ...]
    points: tuple[SubspaceIndex, ...]
    entries: tuple[tuple[int, ...], ...]
    rank: int
    verdict: str
    p: int

    def _validate(self):
        if self.rank > min(len(self.rows), len(self.points)):
            raise DomainError("rank exceeds matrix shape")
        expected = "independent" if self.rank == len(self.rows) else "inconclusive"
        if self.verdict != expected:
            raise DomainError(f"verdict {self.verdict!r} inconsistent with rank")

    @classmethod
    def from_entries(
        cls,
        rows: Sequence[tuple],
        points: Sequence[SubspaceIndex],
        entries: Sequence[Sequence[int]],
        p: int,
    ) -> "CertificateMatrix":
        normalized = tuple(tuple(map(mod, row, repeat(p))) for row in entries)
        rank = rank_mod_p(normalized, p)
        verdict = "independent" if rank == len(normalized) else "inconclusive"
        return cls(tuple(rows), tuple(points), normalized, rank, verdict, p)

    def to_json_dict(self) -> dict:
        return {
            "rows": [list(label) for label in self.rows],
            "points": [[d, e] for d, e in self.points],
            "rank": self.rank,
            "verdict": self.verdict,
            "p": self.p,
        }


class _GridBlock:
    """The g_xy rows one filter selects: labels, packed rows, entries and rank.

    Rows run in canonical (x, y) order. The rank is taken on first use, so a
    swallow certificate, which eliminates its member rows ahead of these
    rows, does not pay for it.
    """

    def __init__(self, cctx: CertificateContext, filtered: bool):
        self._lanes = cctx._lanes
        labels: list[tuple] = []
        rows: list[int] = []
        for x, block in enumerate(cctx._grid_blocks):
            if filtered and cctx.profile.admits(x):
                continue
            labels += [("g_xy", x, y) for y in range(1, len(block) + 1)]
            rows += map(cctx._grid_rows.__getitem__, block)
        self.labels = tuple(labels)
        self.rows = tuple(rows)
        self.entries = tuple(map(self._lanes.unpack, rows))

    @cached_property
    def rank(self) -> int:
        return len(self._lanes.echelon(self.rows))


def independence_certificate(
    cctx: CertificateContext, family: Family, variant: str
) -> CertificateMatrix:
    """Evaluation matrix of the selected row set with rank-based verdict.

    Variants select rows: "lemma41" takes every grid functional g_xy with
    0 <= x <= s - r; "lemma52" keeps only those x not congruent mod b to any
    member of K; "swallow1" and "swallow2" append one g_i per family member
    ahead of the respective grid set. Rows are ordered members first, then
    grid indices, both in canonical order.
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    if family.ctx != cctx.ctx or family.n != cctx.n:
        raise DomainError("family ambient does not match the certificate context")
    lat = lattice(cctx.ctx, cctx.n)
    where = list(map(lat.global_index, family))
    _recheck(cctx, family, where)

    grid = cctx._grid_filtered if variant in ("lemma52", "swallow2") else cctx._grid
    labels, entries = grid.labels, grid.entries
    if variant in ("lemma41", "lemma52"):
        rank = grid.rank
    else:
        g_i = _g_i_rows(cctx, where)
        labels = tuple(("g_i", i) for i in range(len(g_i))) + labels
        entries = tuple(row[1] for row in g_i) + entries
        rank = len(cctx._lanes.echelon(chain([row[0] for row in g_i], grid.rows)))
    verdict = "independent" if rank == len(labels) else "inconclusive"
    return CertificateMatrix(labels, cctx.point_labels, entries, rank, verdict, cctx.p)


class SpanReport(Record):
    """Per-sample answer to "does this g lie in the span of the f rows"."""

    samples: tuple[tuple, ...]
    solvable: tuple[bool, ...]

    @property
    def all_solvable(self) -> bool:
        return all(self.solvable)

    def to_json_dict(self) -> dict:
        return {
            "samples": [list(t) for t in self.samples],
            "solvable": list(self.solvable),
            "all_solvable": self.all_solvable,
        }


def span_check(cctx: CertificateContext, family: Family, sample: Iterable[tuple]) -> SpanReport:
    """Check that sampled g functionals lie in the span of all f rows.

    The f basis runs over every (x, y) with 0 <= x <= s; each sampled
    ("g_xy", x, y) or ("g_i", i) is reduced against its echelon form, and
    counts as solvable when the residual vanishes.
    """
    lanes, basis = cctx._lanes, cctx._f_basis
    lat = lattice(cctx.ctx, cctx.n)
    ids, flags = [], []
    for item in sample:
        tag = tuple(item)
        if tag[0] == "g_xy" and len(tag) == 3:
            row = cctx._grid_rows[_grid_index(cctx, tag[1], tag[2])]
        elif tag[0] == "g_i" and len(tag) == 2:
            row = _g_i_rows(cctx, [lat.global_index(_member(family, tag[1]))])[0][0]
        else:
            raise DomainError(f"sample id {item!r} must be ('g_xy', x, y) or ('g_i', i)")
        ids.append(tag)
        flags.append(not lanes.lead(basis, row)[1])
    return SpanReport(tuple(ids), tuple(flags))
