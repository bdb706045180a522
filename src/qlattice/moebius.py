"""Zeta/Moebius machinery on the subspace lattice, mod a caller-chosen modulus.

Transforms gather, for each subspace W, the values of every U inside W with
one operator.itemgetter built from Lattice.contains_mask, so a transform is
one C-level gather and sum per subspace instead of a Python walk over
containment bits. A lattice's getters are built on its first transform and
kept in a small bounded cache. They hold one position per containment pair,
drawn from one shared list of ints, so their memory grows with the number
of containment pairs, which grows faster than the lattice itself.
Values are residues. Join fibres are read from containment and shared line
counts, so no join is built. Nothing here assumes the modulus arises from a
full-order prime search, so the module is reusable for generic poset
experiments.
"""
from __future__ import annotations

import random as _random
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Optional

from .errors import DomainError
from .gfspace import Lattice, Subspace, _bits, lattice
from .qcombin import qbinom
from .records import Record


def moebius_value(dim_lower: int, dim_upper: int, q: int) -> int:
    """Moebius number of a lattice interval: (-1)^d q^(d(d-1)/2), d the dim gap.

    Depends only on the interval's dimension difference; 0 when the difference
    is negative.
    """
    if q < 2:
        raise DomainError(f"q must be >= 2, got {q}")
    d = dim_upper - dim_lower
    if d < 0:
        return 0
    return (-1) ** d * q ** (d * (d - 1) // 2)


class LatticeFunction(Record):
    """Residue-valued function on every subspace of one ambient.

    values are stored reduced mod p in canonical global order (dimension-major).
    p is typically prime but only p >= 2 is required; the transforms use no
    division.
    """

    lat: Lattice
    p: int
    values: tuple[int, ...]

    def _validate(self):
        if self.p < 2:
            raise DomainError(f"modulus must be >= 2, got {self.p}")
        if len(self.values) != len(self.lat):
            raise DomainError(
                f"expected {len(self.lat)} values for this lattice, got {len(self.values)}"
            )
        object.__setattr__(self, "values", tuple(v % self.p for v in self.values))

    def value_at(self, space: Subspace) -> int:
        return self.values[self.lat.global_index(space)]

    def is_zero(self) -> bool:
        return not any(self.values)

    @staticmethod
    def zeros(lat: Lattice, p: int) -> "LatticeFunction":
        return LatticeFunction(lat, p, (0,) * len(lat))

    @staticmethod
    def indicator(lat: Lattice, p: int, space: Subspace) -> "LatticeFunction":
        pos = lat.global_index(space)
        return LatticeFunction(lat, p, tuple(1 if i == pos else 0 for i in range(len(lat))))

    @staticmethod
    def from_callable(lat: Lattice, p: int, fn: Callable[[Subspace], int]) -> "LatticeFunction":
        return LatticeFunction(lat, p, tuple(fn(s) for s in lat.subspaces))

    @staticmethod
    def random(lat: Lattice, p: int, rng: Optional[_random.Random] = None) -> "LatticeFunction":
        rng = rng or _random.Random()
        return LatticeFunction(lat, p, tuple(rng.randrange(p) for _ in range(len(lat))))


@lru_cache(maxsize=4)
def _gatherers(lat: Lattice) -> tuple[Callable[[tuple[int, ...]], tuple[int, ...]], ...]:
    """For each subspace w, an itemgetter over the positions of the subspaces inside w.

    Each getter also takes the sentinel position len(lat), so applied to
    values with a trailing 0 it returns a tuple even when w holds one
    subspace. Positions come from one shared list, so the getters hold
    references to shared ints rather than an int object per pair.
    """
    positions = list(range(len(lat) + 1))
    sentinel = positions[-1]
    return tuple(
        itemgetter(*[positions[u] for u in _bits(mask)], sentinel) for mask in lat.contains_mask
    )


def zeta_transform(alpha: LatticeFunction) -> LatticeFunction:
    """beta(W) = sum of alpha(U) over all U inside W, mod p."""
    lat, p = alpha.lat, alpha.p
    padded = alpha.values + (0,)
    # LatticeFunction reduces each sum mod p
    return LatticeFunction(lat, p, tuple(sum(get(padded)) for get in _gatherers(lat)))


def moebius_transform(beta: LatticeFunction) -> LatticeFunction:
    """alpha(W) = sum over U inside W of moebius_value(dim U, dim W) beta(U), mod p.

    Inverse of zeta_transform in both composition orders.
    """
    lat, p, vals = beta.lat, beta.p, beta.values
    dims = lat.dims
    # Interval weights depend only on the dimension gap, so one scaled copy
    # of the values per dimension of W serves every W of that dimension;
    # entries above that dimension are never gathered and stay 0.
    weight = [moebius_value(0, d, lat.ctx.q) % p for d in range(lat.n + 1)]
    scaled = [
        tuple(weight[dw - du] * v if du <= dw else 0 for du, v in zip(dims, vals)) + (0,)
        for dw in range(lat.n + 1)
    ]
    return LatticeFunction(
        lat, p, tuple(sum(get(scaled[dw])) for get, dw in zip(_gatherers(lat), dims))
    )


def interval_sum(alpha: LatticeFunction, lower: Subspace, upper: Subspace) -> int:
    """sum over T in [lower, upper] of moebius_value(dim T, dim upper) zeta(alpha)(T).

    zeta(alpha)(T) is gathered for the T of the interval only; the sum is
    reduced mod p once, at the end.
    """
    lat, p, q = alpha.lat, alpha.p, alpha.lat.ctx.q
    wi, yi = lat.global_index(lower), lat.global_index(upper)
    masks = lat.contains_mask
    if not (masks[yi] >> wi) & 1:
        raise DomainError("lower is not contained in upper")
    dims, getters = lat.dims, _gatherers(lat)
    weight = [moebius_value(d, dims[yi], q) for d in range(lat.n + 1)]
    padded = alpha.values + (0,)
    acc = 0
    for t in _bits(masks[yi]):
        if (masks[t] >> wi) & 1:
            acc += weight[dims[t]] * sum(getters[t](padded))
    return acc % p


def join_sum(alpha: LatticeFunction, lower: Subspace, upper: Subspace) -> int:
    """sum of alpha(U) over all U whose join with lower equals upper.

    With W = lower inside Y = upper, U ∨ W = Y exactly when U lies in Y and
    dim(U∩W) = dim U - (dim Y - dim W), that is, U and W share
    [dim U - dim Y + dim W 1]_q lines; no join is built.
    """
    lat, p = alpha.lat, alpha.p
    wi, yi = lat.global_index(lower), lat.global_index(upper)
    inside = lat.contains_mask[yi]
    if not (inside >> wi) & 1:
        raise DomainError("lower is not contained in upper")
    lines, dims, gap = lat.lines, lat.dims, lat.dims[yi] - lat.dims[wi]
    # shared[d]: the line count a d-dimensional U shares with W; -1 matches none
    shared = [qbinom(d - gap, 1, lat.ctx.q) if d >= gap else -1 for d in range(lat.n + 1)]
    acc = 0
    for u in _bits(inside):
        if (lines[u] & lines[wi]).bit_count() == shared[dims[u]]:
            acc += alpha.values[u]
    return acc % p


class InversionCheck(Record):
    holds: bool
    interval_side: int
    join_side: int

    def __bool__(self):
        return self.holds


def generalized_inversion_check(
    alpha: LatticeFunction, lower: Subspace, upper: Subspace
) -> InversionCheck:
    """Compare the weighted interval sum with the join-fiber sum of alpha.

    The two agree for every nested pair; the check recomputes both sides so a
    regression in either transform surfaces as a mismatch.
    """
    lhs = interval_sum(alpha, lower, upper)
    rhs = join_sum(alpha, lower, upper)
    return InversionCheck(lhs == rhs, lhs, rhs)


def gap_of(H: Iterable[int], n: int) -> int:
    """Largest g such that the dimension set H has a gap of size >= g in [0, n].

    g = max(h_1 + 1, n - h_t + 1, max consecutive difference). The two boundary
    terms are deliberately one larger than the interior differences (they come
    from one-sided conditions); empty H returns the sentinel n + 2, which
    compares >= any g + 1 that matters.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    hs = sorted(set(H))
    if any(h < 0 or h > n for h in hs):
        raise DomainError(f"H must be contained in [0, {n}], got {hs}")
    if not hs:
        return n + 2
    candidates = [hs[0] + 1, n - hs[-1] + 1]
    candidates.extend(b - a for a, b in zip(hs, hs[1:]))
    return max(candidates)


class VanishingReport(Record):
    """Premise/conclusion flags for the support-vanishing argument.

    Premises: alpha vanishes on dimensions >= g; beta = zeta(alpha) is supported
    on H; gap_of(H) >= g + 1. Conclusion: alpha and beta both vanish everywhere.
    The contract is premises => conclusion (implication_holds is False only on a
    counterexample, which would falsify the argument).
    """

    alpha_vanishes_from_g: bool
    beta_supported_on_h: bool
    gap_sufficient: bool
    alpha_is_zero: bool
    beta_is_zero: bool

    @property
    def premises_hold(self) -> bool:
        return self.alpha_vanishes_from_g and self.beta_supported_on_h and self.gap_sufficient

    @property
    def conclusion_holds(self) -> bool:
        return self.alpha_is_zero and self.beta_is_zero

    @property
    def implication_holds(self) -> bool:
        return not self.premises_hold or self.conclusion_holds


def vanishing_check(alpha: LatticeFunction, H: Iterable[int], g: int) -> VanishingReport:
    """Evaluate the vanishing argument's premises and conclusion for alpha."""
    lat = alpha.lat
    hset = set(H)
    if any(h < 0 or h > lat.n for h in hset):
        raise DomainError(f"H must be contained in [0, {lat.n}]")
    beta = zeta_transform(alpha)
    dims = lat.dims
    prem_alpha = all(v == 0 for v, d in zip(alpha.values, dims) if d >= g)
    prem_beta = all(v == 0 for v, d in zip(beta.values, dims) if d not in hset)
    prem_gap = gap_of(hset, lat.n) >= g + 1
    return VanishingReport(
        alpha_vanishes_from_g=prem_alpha,
        beta_supported_on_h=prem_beta,
        gap_sufficient=prem_gap,
        alpha_is_zero=alpha.is_zero(),
        beta_is_zero=beta.is_zero(),
    )
