"""Linear-independence certificates over F_p for subspace-family functionals.

The machinery works with three function families on containment vectors: the
raw incidence functionals f (one bit of the vector), the grid functionals
g_xy (an incidence bit times a product of line-count factors over K), and the
member functionals g_i (a product over L of shared-line counts). Evaluating a
chosen row set on the containment vectors of every subspace of the ambient
space and computing the rank mod p yields a sound one-sided certificate:
full row rank proves linear independence, anything less is inconclusive.

Each point is an int mask cut from Lattice.contains_mask, so an f or g_xy
row reads one bit per point. A point's line count is the popcount of its line
mask (gfspace.line_mask), the lines it shares with a member the popcount of
the AND of the two masks. The profile check is check_modular, which takes
each member pair's meet dimension from gfspace.meet_dim (see families).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DomainError
from .qcombin import is_prime, multiplicative_order, qbinom, require_zsigmondy_prime
from .gfspace import (
    ContainmentVector,
    FieldContext,
    Subspace,
    SubspaceIndex,
    index_of,
    lattice,
    line_mask,
    subspace_at,
    union_space,
)
from .families import Family, ModularProfile, check_modular

__all__ = [
    "VARIANTS",
    "CertificateContext",
    "CertificateMatrix",
    "SpanReport",
    "certificate_context",
    "eval_f",
    "eval_g_xy",
    "eval_g_i",
    "product_reduce",
    "independence_certificate",
    "span_check",
]

VARIANTS = ("lemma41", "swallow1", "lemma52", "swallow2")


# ---------------------------------------------------------------------------
# context


@dataclass(frozen=True)
class CertificateContext:
    """Frozen evaluation setting: ambient, profile, prime, and point set.

    The evaluation points are the containment vectors (capped at dimension s)
    of every subspace of the ambient space, in canonical lattice order; the
    matching SubspaceIndex labels are kept alongside for export.
    """

    ctx: FieldContext
    n: int
    profile: ModularProfile
    p: int
    S: int
    points: tuple[ContainmentVector, ...]
    point_labels: tuple[SubspaceIndex, ...]

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def s(self) -> int:
        return self.profile.s

    @property
    def r(self) -> int:
        return self.profile.r


def certificate_context(
    ctx: FieldContext, n: int, profile: ModularProfile, p: Optional[int] = None
) -> CertificateContext:
    """Build a CertificateContext, deriving p from (q, b) unless given.

    A caller-supplied p must be a prime at which q has multiplicative order
    exactly b; the derived default comes from the primitive-prime-divisor
    search and inherits its unsupported-parameter errors. Point w is
    contains_mask[w] cut to its low S bits, the subspaces of dimension <= s.
    """
    if n < 0:
        raise DomainError(f"ambient dimension must be >= 0, got {n}")
    if p is None:
        p = require_zsigmondy_prime(ctx.q, profile.b)
    else:
        if not is_prime(p):
            raise DomainError(f"p = {p} is not prime")
        order = multiplicative_order(ctx.q, p)
        if order != profile.b:
            raise DomainError(
                f"q = {ctx.q} has order {order} mod {p}, need exactly {profile.b}"
            )
    s = profile.s
    total = sum(qbinom(n, t, ctx.q) for t in range(s + 1))
    lat = lattice(ctx, n)
    low = (1 << total) - 1
    points = tuple(ContainmentVector(ctx, n, s, mask & low) for mask in lat.contains_mask)
    labels = tuple(SubspaceIndex(d, w - lat.offsets[d] + 1) for w, d in enumerate(lat.dims))
    return CertificateContext(ctx, n, profile, p, total, points, labels)


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


def _g_xy_row(cctx: CertificateContext, x: int, y: int, factors: Sequence[int]) -> list[int]:
    """g_xy at each point, given the K factors of the points."""
    if not 0 <= x <= cctx.s - cctx.r:
        raise DomainError(f"x = {x} outside [0, {cctx.s - cctx.r}]")
    u = cctx.points[0].bit_index(x, y)
    return [(v.mask >> u & 1) * f for v, f in zip(cctx.points, factors)]


def _g_i_row(cctx: CertificateContext, family: Family, i: int, points: Iterable[int]) -> list[int]:
    """g_i of member i at each point, the points given by their line masks."""
    if not 0 <= i < len(family):
        raise DomainError(f"member index {i} outside [0, {len(family)})")
    member, p = line_mask(family[i]), cctx.p
    mu_counts = _line_counts(cctx.profile.L, cctx.q, p)
    return [_product_minus((member & point).bit_count(), mu_counts, p) for point in points]


def eval_g_i(cctx: CertificateContext, i: int, family: Family, v: ContainmentVector) -> int:
    """Product over L of (shared line count of member i and v minus [mu 1]).

    The shared line count is the popcount of the AND of the member's line
    mask with v's dimension-1 block, which is v's line mask. An empty L gives 1.
    """
    point = 0
    if cctx.profile.L:
        if v.s_cap < 1:
            raise DomainError("evaluation point must carry a dimension-1 block")
        point = v.block_mask(1)
    return _g_i_row(cctx, family, i, (point,))[0]


def product_reduce(x: int, y: int, z: int, ctx: FieldContext, n: int) -> SubspaceIndex:
    """Index (x', w) of the join of subspace (x, y) with line (1, z).

    Pointwise, f(x, y)·f(1, z) equals f(x', w) on every containment vector;
    x' is x when the line lies inside (x, y) and x + 1 otherwise.
    """
    base = subspace_at(ctx, n, SubspaceIndex(x, y))
    line = subspace_at(ctx, n, SubspaceIndex(1, z))
    return index_of(union_space(base, line))


# ---------------------------------------------------------------------------
# rank and span helpers mod p


def _reduce_mod_p(basis: list[tuple[int, list[int]]], row: Sequence[int], p: int) -> list[int]:
    """Residual of row mod p after elimination by an _echelon_mod_p basis."""
    r = [v % p for v in row]
    for pc, b in basis:
        f = r[pc]
        if f:
            r = [(a - f * bb) % p for a, bb in zip(r, b)]
    return r


def _echelon_mod_p(rows: Iterable[Sequence[int]], p: int) -> list[tuple[int, list[int]]]:
    """Echelon basis [(pivot_col, unit_row), ...] of the row span."""
    basis: list[tuple[int, list[int]]] = []
    for row in rows:
        r = _reduce_mod_p(basis, row, p)
        pivot = next((c for c, v in enumerate(r) if v), None)
        if pivot is not None:
            inv = pow(r[pivot], -1, p)
            basis.append((pivot, [v * inv % p for v in r]))
    return basis


def rank_mod_p(rows: Iterable[Sequence[int]], p: int) -> int:
    """Rank of an integer matrix over F_p."""
    return len(_echelon_mod_p(rows, p))


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CertificateMatrix:
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

    def __post_init__(self):
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
        normalized = tuple(tuple(v % p for v in row) for row in entries)
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


def _grid_xs(cctx: CertificateContext, filtered: bool) -> list[int]:
    span = cctx.s - cctx.r
    xs = list(range(span + 1)) if span >= 0 else []
    if filtered:
        b = cctx.profile.b
        xs = [x for x in xs if all((x - kt) % b != 0 for kt in cctx.profile.K)]
    return xs


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
    verdict = check_modular(family, cctx.profile)
    if not verdict:
        raise DomainError(f"family violates the profile: {verdict.detail}")

    p, q = cctx.p, cctx.q
    labels: list[tuple] = []
    rows: list[list[int]] = []
    lines = lattice(cctx.ctx, cctx.n).lines
    if variant in ("swallow1", "swallow2"):
        for i in range(len(family)):
            labels.append(("g_i", i))
            rows.append(_g_i_row(cctx, family, i, lines))

    factors = _k_factors(cctx, lines)
    for x in _grid_xs(cctx, filtered=variant in ("lemma52", "swallow2")):
        for y in range(1, qbinom(cctx.n, x, q) + 1):
            labels.append(("g_xy", x, y))
            rows.append(_g_xy_row(cctx, x, y, factors))

    return CertificateMatrix.from_entries(labels, cctx.point_labels, rows, p)


@dataclass(frozen=True)
class SpanReport:
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
    p = cctx.p
    masks = [v.mask for v in cctx.points]
    basis = _echelon_mod_p(([m >> u & 1 for m in masks] for u in range(cctx.S)), p)
    lines = lattice(cctx.ctx, cctx.n).lines
    factors = _k_factors(cctx, lines)

    ids, flags = [], []
    for item in sample:
        tag = tuple(item)
        if tag[0] == "g_xy" and len(tag) == 3:
            row = _g_xy_row(cctx, tag[1], tag[2], factors)
        elif tag[0] == "g_i" and len(tag) == 2:
            row = _g_i_row(cctx, family, tag[1], lines)
        else:
            raise DomainError(f"sample id {item!r} must be ('g_xy', x, y) or ('g_i', i)")
        ids.append(tag)
        flags.append(not any(_reduce_mod_p(basis, row, p)))
    return SpanReport(tuple(ids), tuple(flags))
