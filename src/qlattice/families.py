"""Family-level semantics for subspace systems.

A Family is an ordered collection of distinct canonical subspaces of one
ambient space. This module checks the two intersection disciplines (modular
profiles and fraction sets), evaluates the three size bounds with their exact
case analysis, partitions families by dimension residues and by base-power
cells, and runs the Gram-matrix rank analysis on a single cell.

Each discipline is a rule on member dimensions and one on meet dimensions,
written once as the admits and meets methods of ModularProfile and
FractionSet; their member_fault and pair_fault say why a member or a pair
breaks it. meets is read in _allowed_meets alone. check_modular and
check_fractional are one walk: members by admits, then the first pair of
offending_pairs, which uses gfspace.meet_dim, a rank count that needs no
lattice and no line masks (over GF(2) it works on rows packed as ints): a
family file may live in an ambient such as GF(256)^40, too big for either.
offending_pairs keeps _allowed_meets per pair of member dimensions that
occur. Callers that hold a whole lattice's line masks (a certificate
context, search.CompatGraph) map it through [d 1]_q into a
shared_line_counts table and read rows of allowed pairs over lattice
positions from gfspace.compatible_rows, the one line-count row builder.
"""

from __future__ import annotations

import math
from functools import cmp_to_key, lru_cache
from itertools import combinations
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import DomainError, ResourceLimitError, StructureError
from .qcombin import (
    BoundReport,
    capital_N,
    ceil_log,
    g_of,
    h_of,
    is_prime,
    qbinom,
    require_zsigmondy_prime,
)
from .gfspace import (
    FieldContext,
    Subspace,
    canonicalize,
    field_from_dict,
    line_mask,
    meet_dim,
)
from .records import Record


# ---------------------------------------------------------------------------
# domain types


class Family(Record):
    """Ordered list of pairwise-distinct canonical subspaces of one ambient."""

    ctx: FieldContext
    n: int
    members: tuple[Subspace, ...]

    def _validate(self):
        seen = set()
        for i, m in enumerate(self.members):
            if not isinstance(m, Subspace):
                raise DomainError(f"member {i} is not a Subspace")
            if m.ctx != self.ctx or m.n != self.n:
                raise DomainError(f"member {i} lives in a different ambient space")
            if m in seen:
                raise DomainError(f"member {i} duplicates an earlier member")
            seen.add(m)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Subspace]:
        return iter(self.members)

    def __getitem__(self, i: int) -> Subspace:
        return self.members[i]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.dim for m in self.members)


def family_to_dict(family: Family) -> dict:
    return {
        "q": family.ctx.to_dict(),
        "n": family.n,
        "subspaces": [[list(row) for row in m.rows] for m in family.members],
    }


def family_from_dict(data: dict) -> Family:
    """Family from its JSON form; basis rows are canonicalized on load.

    A field that cannot be built reports its own error, not a malformed family.
    """
    try:
        field_data, n, raw = data["q"], int(data["n"]), data["subspaces"]
    except (KeyError, TypeError, ValueError):
        raise DomainError("malformed family description: keys q, n, subspaces required")
    ctx = field_from_dict(field_data)
    members = tuple(canonicalize(ctx, n, rows) for rows in raw)
    return Family(ctx, n, members)


class ModularProfile(Record):
    """Dimension discipline mod b: member dims in K, intersection dims in L.

    K and L are disjoint subsets of [0, b). K may be empty only for
    checker-style uses; the bound evaluators require both nonempty. Member
    dims obey d mod b in K (admits), meet dims d mod b in L (meets).
    """

    b: int
    K: tuple[int, ...]
    L: tuple[int, ...]

    def _validate(self):
        if self.b < 2:
            raise DomainError(f"modulus b must be >= 2, got {self.b}")
        K = tuple(sorted(set(self.K)))
        L = tuple(sorted(set(self.L)))
        for name, vals in (("K", K), ("L", L)):
            for v in vals:
                if not 0 <= v < self.b:
                    raise DomainError(f"{name} entry {v} outside [0, {self.b})")
        if set(K) & set(L):
            raise DomainError(f"K and L must be disjoint, share {sorted(set(K) & set(L))}")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "L", L)

    @property
    def r(self) -> int:
        return len(self.K)

    @property
    def s(self) -> int:
        return len(self.L)

    def admits(self, d: int) -> bool:
        """Whether a member may have dimension d: d mod b in K."""
        return d % self.b in self.K

    def meets(self, d: int, di: int, dj: int) -> bool:
        """Whether members of dimensions di and dj may meet in dimension d: d mod b in L."""
        return d % self.b in self.L

    def member_fault(self, i: int, d: int) -> str:
        """Why member i, of dimension d, fails admits."""
        return f"member {i} has dim {d} ≡ {d % self.b} (mod {self.b}), not in K"

    def pair_fault(self, i: int, j: int, d: int, di: int, dj: int) -> str:
        """Why members i and j, of dimensions di and dj, fail meets in dimension d."""
        return f"pair ({i}, {j}) meets in dim {d} ≡ {d % self.b} (mod {self.b}), not in L"

    def to_dict(self) -> dict:
        return {"b": self.b, "K": list(self.K), "L": list(self.L)}


def profile_from_dict(data: dict) -> ModularProfile:
    try:
        return ModularProfile(int(data["b"]), tuple(data["K"]), tuple(data["L"]))
    except (KeyError, TypeError):
        raise DomainError("malformed profile description: keys b, K, L required")


class FractionSet(Record):
    """Distinct irreducible fractions 0 < a/b < 1, kept in ascending order.

    Members of dims di, dj may meet in dim d when d·b == a·di or a·dj for
    some listed a/b (meets), and a member must have dim d > 0 (admits). The
    zero subspace meets every member in dim 0 = (a/b)·0, so only admits
    keeps it out; the bounds count nonzero subspaces, and with it
    {0, a line, GF(2)^2} would pass {1/4, 1/3, 1/2} above bound_frac_general's 2.
    """

    fractions: tuple[tuple[int, int], ...]

    def _validate(self):
        seen = set()
        for a, b in self.fractions:
            _require_fraction(a, b)
            if (a, b) in seen:
                raise DomainError(f"fraction {a}/{b} repeated")
            seen.add((a, b))
        # a/b < c/d exactly when a·d < c·b, the denominators being positive;
        # each is stored as a tuple, so [[1, 2]] and ((1, 2),) give equal,
        # hashable sets
        by_value = cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])
        ordered = tuple(sorted(seen, key=by_value))
        object.__setattr__(self, "fractions", ordered)

    def __len__(self) -> int:
        return len(self.fractions)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.fractions)

    def admits(self, d: int) -> bool:
        """Whether a member may have dimension d: d > 0."""
        return d > 0

    def meets(self, d: int, di: int, dj: int) -> bool:
        """Whether dims di and dj may meet in dim d: d·b == a·di or a·dj, some a/b."""
        return any(d * b == a * di or d * b == a * dj for a, b in self.fractions)

    def member_fault(self, i: int, d: int) -> str:
        """Why member i, of dimension d, fails admits."""
        return f"member {i} has dim {d}, not positive"

    def pair_fault(self, i: int, j: int, d: int, di: int, dj: int) -> str:
        """Why members i and j, of dimensions di and dj, fail meets in dimension d."""
        return f"pair ({i}, {j}) meets in dim {d}, no listed fraction of dims {di} or {dj}"

    @property
    def max_denominator(self) -> int:
        if not self.fractions:
            raise DomainError("empty fraction set has no denominators")
        return max(b for _, b in self.fractions)


def _require_fraction(a: int, b: int) -> None:
    """DomainError unless a/b lies in (0, 1) and is in lowest terms."""
    if not (0 < a < b):
        raise DomainError(f"fraction {a}/{b} outside (0, 1)")
    if gcd(a, b) != 1:
        raise DomainError(f"fraction {a}/{b} is not in lowest terms")


def parse_fraction(text: str) -> tuple[int, int]:
    """(a, b) from "a/b", literally: its value is not checked, and 2/4 stays 2/4."""
    head, sep, tail = text.strip().partition("/")
    if not sep:
        raise DomainError(f"fraction {text!r} must look like a/b")
    try:
        return int(head), int(tail)
    except ValueError:
        raise DomainError(f"fraction {text!r} must have integer parts")


def fractions_from_strings(items: Iterable[str]) -> FractionSet:
    """Parse "a/b" strings literally; non-reduced input is rejected, not fixed."""
    return FractionSet(tuple(map(parse_fraction, items)))


def fractions_to_strings(fractions: FractionSet) -> list[str]:
    return [f"{a}/{b}" for a, b in fractions]


class CheckResult(Record):
    """Verdict of a family check, with the first offending witness on failure.

    witness is None on pass, (i,) for a bad member dimension, (i, j) for a bad
    pair, indices into the family's member order.
    """

    ok: bool
    witness: Optional[tuple[int, ...]]
    detail: str

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "witness": list(self.witness) if self.witness is not None else None,
            "detail": self.detail,
        }


_PASS = CheckResult(True, None, "all members and pairs conform")


# ---------------------------------------------------------------------------
# checkers


def _allowed_meets(predicate: Union[ModularProfile, FractionSet], di: int, dj: int) -> frozenset:
    """The meet dimensions d <= min(di, dj) that predicate.meets allows.

    Every meet rule is read here and nowhere else: shared_line_counts maps
    it through [d 1]_q, and offending_pairs keeps it per pair of dimensions.
    """
    return frozenset(d for d in range(min(di, dj) + 1) if predicate.meets(d, di, dj))


def _require_symmetric(
    predicate: Union[ModularProfile, FractionSet], dims: Iterable[int]
) -> None:
    """DomainError when the meet rule reads two of dims one way only.

    Both readers that pair members without an order call it over the dims
    they pair: shared_line_counts over the admitted dims of an ambient, the
    checkers over the dims of a family whose members all pass admits.
    """
    for di, dj in combinations(sorted(set(dims)), 2):
        if _allowed_meets(predicate, di, dj) != _allowed_meets(predicate, dj, di):
            raise DomainError(
                f"{type(predicate).__name__}.meets is not symmetric in member dims {di} and {dj}"
            )


@lru_cache(maxsize=256)
def shared_line_counts(
    predicate: Union[ModularProfile, FractionSet], n: int, q: int
) -> tuple[tuple[frozenset[int], ...], ...]:
    """Allowed shared-line counts of a pair, by the pair's two dimensions.

    Entry [di][dj] holds [d 1]_q for every d of _allowed_meets(predicate,
    di, dj). Two subspaces meet in dimension d exactly when their line
    masks share [d 1]_q lines, so this one table turns either predicate
    into a question about line counts.

    The rule must be symmetric (_require_symmetric over the dimensions the
    predicate admits), so rows read from the table are symmetric too. The
    table is computed once per (predicate, n, q), in a bounded cache, and
    shared by every caller (search.CompatGraph and a certificate context's
    compatibility rows, built once per context); it is made of tuples and
    frozensets, so no caller can change it.
    """
    span = range(n + 1)
    _require_symmetric(predicate, filter(predicate.admits, span))
    return tuple(
        tuple(frozenset(qbinom(d, 1, q) for d in _allowed_meets(predicate, di, dj)) for dj in span)
        for di in span
    )


def offending_pairs(
    family: Family, predicate: Union[ModularProfile, FractionSet]
) -> Iterator[tuple[int, int, int]]:
    """(i, j, meet dim) of each pair the predicate's meets refuses, in canonical order.

    Each meet is one gfspace.meet_dim, judged by a table of
    _allowed_meets keyed by the pair's two dimensions and spanning only
    the member dimensions that occur. A row of the table is built once per
    call, when a member of its dimension first leads a pair, so a family
    that fails early pays for few rows. Member dims are left to admits, and
    the rule's symmetry to the checkers: pair (i, j) is judged as
    (dims[i], dims[j]) only.
    """
    members, dims = family.members, family.dims
    present = set(dims)
    allowed: dict[int, dict[int, frozenset[int]]] = {}
    for i, vi in enumerate(members):
        di = dims[i]
        row = allowed.get(di)
        if row is None:
            row = allowed[di] = {dj: _allowed_meets(predicate, di, dj) for dj in present}
        for j in range(i + 1, len(members)):
            d = meet_dim(vi, members[j])
            if d not in row[dims[j]]:
                yield i, j, d


def _check(family: Family, predicate: Union[ModularProfile, FractionSet]) -> CheckResult:
    """The first member admits refuses, else the first pair of offending_pairs, else a pass.

    The witness is (i,) or (i, j) in canonical order, and the detail is
    the predicate's member_fault or pair_fault. Between the two, a meet
    rule one-sided in two member dims raises DomainError
    (_require_symmetric), so no verdict depends on member order.
    """
    for i, m in enumerate(family):
        if not predicate.admits(m.dim):
            return CheckResult(False, (i,), predicate.member_fault(i, m.dim))
    _require_symmetric(predicate, family.dims)
    bad = next(offending_pairs(family, predicate), None)
    if bad is None:
        return _PASS
    i, j, d = bad
    return CheckResult(False, (i, j), predicate.pair_fault(i, j, d, family[i].dim, family[j].dim))


def check_modular(family: Family, profile: ModularProfile) -> CheckResult:
    """Every member dim in K mod b; every pairwise intersection dim in L mod b.

    Empty and singleton families pass vacuously on the pair side. The first
    offending member or pair (canonical order) is returned as the witness.
    A profile whose meets is one-sided in two member dims raises DomainError.
    """
    return _check(family, profile)


def check_fractional(family: Family, fractions: FractionSet) -> CheckResult:
    """Every member nonzero; every pair meets in a listed fraction of a member dim.

    The rules are FractionSet's, members first; the first offending member
    or pair (canonical order) is returned as the witness. A subclass whose
    meets is one-sided in two member dims raises DomainError.
    """
    return _check(family, fractions)


# ---------------------------------------------------------------------------
# bound evaluators


def _echo_profile(n: int, q: int, profile: ModularProfile) -> dict:
    return {"n": n, "q": q, "b": profile.b, "K": list(profile.K), "L": list(profile.L)}


def bound_theorem1(n: int, q: int, profile: ModularProfile) -> BoundReport:
    """Size bound for families following a modular profile.

    Returns capital_N(n, s, r, q) when (s + max K <= n and r(s-r+1) <= b-1) or
    (s < min K + r); otherwise that plus sum of qbinom(n, k, q) over k in K.
    The branch label records which disjunct fired. Moduli with no prime of
    multiplicative order b raise UnsupportedParametersError.
    """
    if n < 0:
        raise DomainError(f"ambient dimension must be >= 0, got {n}")
    if not profile.K or not profile.L:
        raise DomainError("bound evaluation needs nonempty K and L")
    p = require_zsigmondy_prime(q, profile.b)
    r, s = profile.r, profile.s
    k_lo, k_hi = profile.K[0], profile.K[-1]
    base = capital_N(n, s, r, q)
    first = s + k_hi <= n and r * (s - r + 1) <= profile.b - 1
    second = s < k_lo + r
    aux = {"p": str(p), "N": str(base), "r": str(r), "s": str(s)}
    if first or second:
        branch = "both-disjuncts" if (first and second) else (
            "first-disjunct" if first else "second-disjunct"
        )
        return BoundReport("theorem_main", _echo_profile(n, q, profile), branch, base, aux)
    correction = sum(qbinom(n, k, q) for k in profile.K)
    aux["correction"] = str(correction)
    return BoundReport(
        "theorem_main", _echo_profile(n, q, profile), "otherwise", base + correction, aux
    )


def bound_frankl_graham(n: int, q: int, k: int, b: int, mus: Iterable[int]) -> BoundReport:
    """Single-dimension-class specialization: K = {k mod b}, r = 1.

    bound_theorem1's report for that profile, under its own id and with k
    added to the echoed inputs.
    """
    profile = ModularProfile(b, (k % b,), tuple(mus))
    main = bound_theorem1(n, q, profile)
    return BoundReport(
        "frankl_graham", {**main.inputs_echo, "k": k}, main.branch, main.bound, main.auxiliaries
    )


def bound_frac_general(n: int, q: int, fractions: FractionSet) -> BoundReport:
    """General fractional bound 2·g·h·ln(g)·[n s] + h·(sum of [n i], i < s).

    g and h come from g_of/h_of at t = max denominator. The tail sum is
    dropped when 2·g·ln(g) <= n + 2 (branch "refined", else "full"). The
    float value is kept as a decimal string; bound is its ceiling. A value
    beyond the float range raises ResourceLimitError.
    """
    if n < 2:
        raise DomainError(f"ambient dimension must be >= 2, got {n}")
    if len(fractions) == 0:
        raise DomainError("bound evaluation needs a nonempty fraction set")
    s = len(fractions)
    t = fractions.max_denominator
    g = g_of(t, n)
    h = h_of(t, n)
    refined = 2.0 * g * math.log(g) <= n + 2
    try:
        main = 2.0 * g * h * math.log(g) * qbinom(n, s, q)
        value = main if refined else main + h * sum(qbinom(n, i, q) for i in range(1, s))
        bound = math.ceil(value)
    except OverflowError:
        raise ResourceLimitError(f"the fractional bound for n={n}, q={q} overflows a float")
    aux = {
        "g": repr(g),
        "h": repr(h),
        "t": str(t),
        "s": str(s),
        "decimal": repr(value),
    }
    return BoundReport(
        "frac_general",
        {"n": n, "q": q, "fractions": fractions_to_strings(fractions)},
        "refined" if refined else "full",
        bound,
        aux,
    )


def bound_singleton(n: int, q: int, a: int, b: int) -> BoundReport:
    """Single-fraction bound (b-1)·([n 1] + 1)·ceil_log(b, n) + 2, b prime."""
    _require_fraction(a, b)
    if not is_prime(b):
        raise DomainError(f"denominator {b} must be prime")
    if n < 1:
        raise DomainError(f"ambient dimension must be >= 1, got {n}")
    lines = qbinom(n, 1, q)
    steps = ceil_log(b, n)
    value = (b - 1) * (lines + 1) * steps + 2
    return BoundReport(
        "frac_singleton",
        {"n": n, "q": q, "a": a, "b": b},
        "exact",
        value,
        {"lines": str(lines), "ceil_log": str(steps)},
    )


# ---------------------------------------------------------------------------
# partitions


def partition_mod_prime(family: Family, p: int) -> dict[int, Family]:
    """Split by dimension residue mod p; cells keyed by residue, order kept."""
    if not is_prime(p):
        raise DomainError(f"modulus {p} must be prime")
    buckets: dict[int, list[Subspace]] = {}
    for m in family:
        buckets.setdefault(m.dim % p, []).append(m)
    return {
        res: Family(family.ctx, family.n, tuple(members))
        for res, members in sorted(buckets.items())
    }


def power_cell(d: int, b: int) -> Optional[tuple[int, int, int]]:
    """Cell coordinates (j, k, r) of a dimension d under base b.

    k is the exponent of the largest power of b dividing d, j = (d / b^k) mod b,
    and r the quotient, so d = r·b^(k+1) + j·b^k with 1 <= j < b. Returns None
    for d = 0 and for d not divisible by b (the leftover dimensions).
    """
    if b < 2:
        raise DomainError(f"base b must be >= 2, got {b}")
    if d < 0:
        raise DomainError(f"dimension must be >= 0, got {d}")
    if d == 0 or d % b != 0:
        return None
    k = 0
    rest = d
    while rest % b == 0:
        rest //= b
        k += 1
    j = rest % b
    r = rest // b
    return (j, k, r)


def partition_dims(dims: Sequence[int], b: int) -> tuple[dict[tuple[int, int], list[int]], list[int]]:
    """Index-level power-cell partition of a dimension multiset.

    Returns ({(j, k): [indices]}, leftover indices). At most one index may
    carry a positive dimension not divisible by b; a second one is a
    StructureError. Zero dimensions always land in the leftovers.
    """
    cells: dict[tuple[int, int], list[int]] = {}
    leftovers: list[int] = []
    stray = None
    for i, d in enumerate(dims):
        coords = power_cell(d, b)
        if coords is None:
            if d != 0:
                if stray is not None:
                    raise StructureError(
                        f"members {stray} and {i} both have dimension not divisible by {b}; "
                        f"a conforming family allows at most one"
                    )
                stray = i
            leftovers.append(i)
            continue
        j, k, _ = coords
        cells.setdefault((j, k), []).append(i)
    return {key: cells[key] for key in sorted(cells)}, leftovers


class PartitionJK(Record):
    """Power-cell partition: cells keyed by (j, k), plus leftover indices."""

    cells: dict[tuple[int, int], tuple[int, ...]]
    leftovers: tuple[int, ...]

    def cell_family(self, family: Family, j: int, k: int) -> Family:
        idx = self.cells.get((j, k))
        if idx is None:
            raise DomainError(f"no cell ({j}, {k}) in this partition")
        return Family(family.ctx, family.n, tuple(family[i] for i in idx))

    def to_json_dict(self) -> dict:
        return {
            "cells": {f"{j},{k}": list(idx) for (j, k), idx in self.cells.items()},
            "leftovers": list(self.leftovers),
        }


def partition_jk(family: Family, b: int) -> PartitionJK:
    """Partition members into power cells F^(j,k) under base b.

    Every member of cell (j, k) has dim = r·b^(k+1) + j·b^k with 1 <= j < b,
    r >= 0; the zero-dimensional member and the at most one member whose
    dimension b does not divide go to the leftovers.
    """
    cells, leftovers = partition_dims(family.dims, b)
    return PartitionJK(
        {key: tuple(idx) for key, idx in cells.items()}, tuple(leftovers)
    )


def fractional_cell_bound(
    n: int, q: int, fractions: FractionSet, p: int, k: int
) -> tuple[ModularProfile, BoundReport]:
    """Derived profile and size bound for the residue-k cell of a fractional family.

    Members of the cell have dim ≡ k (mod p), so each intersection dimension is
    a_i·k·b_i^(-1) mod p for some listed fraction; the distinct residues form L
    with s' = |L|. The bound is qbinom(n, s', q) when 2p <= n + 2 or s' < k + 1,
    and gains a qbinom(n, k, q) term otherwise.
    """
    if not is_prime(p):
        raise DomainError(f"modulus {p} must be prime")
    if len(fractions) == 0:
        raise DomainError("cell bound needs a nonempty fraction set")
    if p <= fractions.max_denominator:
        raise DomainError(
            f"modulus {p} must exceed the largest denominator {fractions.max_denominator}"
        )
    if not 0 < k < p:
        raise DomainError(f"cell residue {k} outside (0, {p})")
    zp = require_zsigmondy_prime(q, p)
    residues = sorted({(a * k * pow(b, -1, p)) % p for a, b in fractions})
    profile = ModularProfile(p, (k,), tuple(residues))
    s_prime = len(residues)
    base = qbinom(n, s_prime, q)
    aux = {"p": str(zp), "s_prime": str(s_prime)}
    if 2 * p <= n + 2 or s_prime < k + 1:
        return profile, BoundReport(
            "theorem_main",
            _echo_profile(n, q, profile),
            "cell-base",
            base,
            aux,
        )
    aux["correction"] = str(qbinom(n, k, q))
    return profile, BoundReport(
        "theorem_main",
        _echo_profile(n, q, profile),
        "cell-augmented",
        base + qbinom(n, k, q),
        aux,
    )


# ---------------------------------------------------------------------------
# exact integer linear algebra (Bareiss determinant, fraction-free rank)


def _bareiss(m: list[list[int]], lead: int = 0) -> tuple[int, int, int]:
    """Fraction-free elimination of m in place: (rank, signed last pivot, leading minor).

    Pivots column by column and skips a column with no pivot left. Every
    entry stays an integer minor of the input, so each division is exact. For
    a square matrix of full rank the signed last pivot is the determinant.
    While the first lead columns (lead <= the number of rows) are processed,
    pivots come only from the first lead rows, so the signed pivot after lead
    steps is the determinant of the leading lead×lead block; if one of those
    columns has no pivot there, that determinant is 0 and pivots come from
    any row from then on.
    """
    rows, cols = len(m), len(m[0]) if m else 0
    rank, prev, sign = 0, 1, 1
    minor, restricted = int(lead == 0), lead > 0
    for col in range(cols):
        limit = lead if restricted else rows
        pivot_row = next((r for r in range(rank, limit) if m[r][col]), None)
        if pivot_row is None and restricted:
            restricted = False
            pivot_row = next((r for r in range(rank, rows) if m[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            sign = -sign
        top, pivot = m[rank][col:], m[rank][col]
        # entries left of col are already zero below the pivot row
        for r in range(rank + 1, rows):
            row = m[r]
            f = row[col]
            row[col:] = [(a * pivot - f * b) // prev for a, b in zip(row[col:], top)]
        prev = pivot
        rank += 1
        if restricted and rank == lead:
            minor, restricted = sign * prev, False
        if rank == rows:
            break
    return rank, sign * prev, minor


def det_bareiss(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by Bareiss elimination."""
    m = [list(row) for row in matrix]
    if any(len(row) != len(m) for row in m):
        raise DomainError("determinant needs a square matrix")
    rank, last, _ = _bareiss(m)
    return last if rank == len(m) else 0


def integer_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix over the rationals (Bareiss elimination)."""
    return _bareiss([list(row) for row in matrix])[0]


# ---------------------------------------------------------------------------
# Gram analysis of one power cell


class GramReport(Record):
    """Results of the Gram-matrix analysis of a single (j, k) power cell.

    N counts shared lines between members, P is N divided entrywise by the
    cell's common line-count divisor, and the congruence checks compare P mod
    the reduction modulus against the constant off-diagonal pattern whose
    determinant has a closed form. det_q_* fields are None for 1x1 cells.
    """

    m: int
    divisor: int
    modulus: int
    r3: int
    unit: int
    entry_identities_hold: bool
    diag_congruent: bool
    offdiag_congruent: bool
    det_p: int
    det_p_expected: int
    det_p_matches: bool
    det_q: Optional[int]
    det_q_expected: Optional[int]
    det_q_matches: Optional[bool]
    rank_n: int
    rank_lower_bound_holds: bool

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "divisor": str(self.divisor),
            "modulus": str(self.modulus),
            "r3": self.r3,
            "unit": str(self.unit),
            "entry_identities_hold": self.entry_identities_hold,
            "diag_congruent": self.diag_congruent,
            "offdiag_congruent": self.offdiag_congruent,
            "det_p": str(self.det_p),
            "det_p_expected": str(self.det_p_expected),
            "det_p_matches": self.det_p_matches,
            "det_q": str(self.det_q) if self.det_q is not None else None,
            "det_q_expected": str(self.det_q_expected) if self.det_q_expected is not None else None,
            "det_q_matches": self.det_q_matches,
            "rank_n": self.rank_n,
            "rank_lower_bound_holds": self.rank_lower_bound_holds,
        }


def gram_analysis(subfamily: Family, b: int, a: int, j: int, k: int) -> GramReport:
    """Gram-matrix rank analysis of one (j, k) cell of an {a/b}-fractional family.

    Builds N = M·Mᵀ for the member-by-line incidence M over exact integers,
    N[i][l] being the popcount of the AND of the two members' line masks;
    cross-checks the entries against the line-count identities with per-pair
    meet_dim as an independent route; divides N entrywise by
    qbinom(b^(k-1), 1, q) (exact, or StructureError), reduces mod
    D = [b 1] over the base q^(b^(k-1)), checks the diagonal-zero and constant
    off-diagonal congruences, compares det(P) and det(Q) against their closed
    forms, and reports the exact integer rank of N against m - 1. One
    fraction-free elimination of P gives rank(N), det(P) and det(Q).
    """
    if b < 2:
        raise DomainError(f"base b must be >= 2, got {b}")
    if not (0 < a < b) or gcd(a, b) != 1:
        raise DomainError(f"fraction {a}/{b} must be irreducible and inside (0, 1)")
    if k < 1:
        raise DomainError(f"cell power k must be >= 1, got {k}")
    if not 1 <= j < b:
        raise DomainError(f"cell residue j must lie in [1, {b}), got {j}")
    m = len(subfamily)
    if m == 0:
        raise DomainError("gram analysis needs a nonempty cell")
    for i, member in enumerate(subfamily):
        if power_cell(member.dim, b) is None or power_cell(member.dim, b)[:2] != (j, k):
            raise StructureError(
                f"member {i} (dim {member.dim}) does not belong to cell ({j}, {k}) under base {b}"
            )

    q = subfamily.ctx.q
    masks = [line_mask(member) for member in subfamily]
    gram = [[(masks[i] & masks[l]).bit_count() for l in range(m)] for i in range(m)]

    identities = all(
        gram[i][i] == qbinom(member.dim, 1, q) for i, member in enumerate(subfamily)
    ) and all(
        gram[i][l] == qbinom(meet_dim(subfamily[i], subfamily[l]), 1, q)
        for i in range(m)
        for l in range(i + 1, m)
    )
    if not identities:
        raise StructureError("gram entries disagree with the line-count identities")

    divisor = qbinom(b ** (k - 1), 1, q)
    for i in range(m):
        for l in range(m):
            if gram[i][l] % divisor:
                raise StructureError(
                    f"gram entry ({i}, {l}) = {gram[i][l]} is not divisible by {divisor}; "
                    f"the cell invariant is violated"
                )
    reduced = [[v // divisor for v in row] for row in gram]

    big_q = q ** (b ** (k - 1))
    modulus = qbinom(b, 1, big_q)
    r3 = (j * a) % b
    unit = qbinom(r3, 1, big_q) % modulus
    diag_ok = all(reduced[i][i] % modulus == 0 for i in range(m))
    offdiag_ok = all(
        reduced[i][l] % modulus == unit
        for i in range(m)
        for l in range(m)
        if i != l
    )

    # N = divisor·P, so one elimination of P gives rank(N) and det(P), and
    # its first m - 1 steps give det(Q) of the leading (m-1)×(m-1) block.
    rank_n, last, leading = _bareiss([list(row) for row in reduced], m - 1)
    det_p = (last if rank_n == m else 0) % modulus
    det_p_expected = (pow(unit, m, modulus) * (-1) ** (m - 1) * (m - 1)) % modulus
    if m >= 2:
        det_q: Optional[int] = leading % modulus
        det_q_expected: Optional[int] = (
            pow(unit, m - 1, modulus) * (-1) ** (m - 2) * (m - 2)
        ) % modulus
        det_q_matches: Optional[bool] = det_q == det_q_expected
    else:
        det_q = det_q_expected = det_q_matches = None

    return GramReport(
        m=m,
        divisor=divisor,
        modulus=modulus,
        r3=r3,
        unit=unit,
        entry_identities_hold=identities,
        diag_congruent=diag_ok,
        offdiag_congruent=offdiag_ok,
        det_p=det_p,
        det_p_expected=det_p_expected,
        det_p_matches=det_p == det_p_expected,
        det_q=det_q,
        det_q_expected=det_q_expected,
        det_q_matches=det_q_matches,
        rank_n=rank_n,
        rank_lower_bound_holds=rank_n >= m - 1,
    )
