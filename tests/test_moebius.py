"""Zeta/Moebius transforms on the subspace lattice and the vanishing argument."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlattice import (
    DomainError,
    Lattice,
    LatticeFunction,
    field,
    full_space,
    gap_of,
    generalized_inversion_check,
    interval_sum,
    join_sum,
    lattice,
    moebius_transform,
    moebius_value,
    vanishing_check,
    zero_subspace,
    zeta_transform,
)
from qlattice import moebius
from qlattice.gfspace import _bits


class TestMoebiusValue:
    def test_spot_values(self):
        assert moebius_value(0, 0, 2) == 1
        assert moebius_value(0, 1, 2) == -1
        assert moebius_value(0, 2, 2) == 2
        assert moebius_value(0, 3, 2) == -8
        assert moebius_value(1, 3, 2) == 2
        assert moebius_value(0, 2, 3) == 3
        assert moebius_value(0, 3, 3) == -27

    def test_depends_only_on_gap(self):
        assert moebius_value(4, 6, 2) == moebius_value(0, 2, 2)

    def test_negative_gap_is_zero(self):
        assert moebius_value(3, 1, 2) == 0

    def test_bad_q(self):
        with pytest.raises(DomainError):
            moebius_value(0, 1, 1)

    @given(d=st.integers(0, 8), q=st.sampled_from([2, 3, 4, 5]))
    def test_sign_and_magnitude(self, d, q):
        v = moebius_value(0, d, q)
        assert abs(v) == q ** (d * (d - 1) // 2)
        assert (v < 0) == (d % 2 == 1)


class TestLatticeFunction:
    def test_values_reduced_mod_p(self):
        lat = lattice(field(2), 2)
        f = LatticeFunction(lat, 3, (5, -1, 0, 1, 2))
        assert f.values == (2, 2, 0, 1, 2)

    def test_length_checked(self):
        lat = lattice(field(2), 2)
        with pytest.raises(DomainError):
            LatticeFunction(lat, 3, (1, 2))

    def test_modulus_checked(self):
        lat = lattice(field(2), 2)
        with pytest.raises(DomainError):
            LatticeFunction.zeros(lat, 1)

    def test_indicator_and_value_at(self):
        F2 = field(2)
        lat = lattice(F2, 2)
        full = full_space(F2, 2)
        f = LatticeFunction.indicator(lat, 7, full)
        assert f.value_at(full) == 1
        assert f.value_at(zero_subspace(F2, 2)) == 0
        assert sum(f.values) == 1


class TestTransforms:
    def test_zeta_of_zero_indicator_is_all_ones(self):
        # every subspace contains the zero subspace
        F2 = field(2)
        lat = lattice(F2, 2)
        beta = zeta_transform(LatticeFunction.indicator(lat, 5, zero_subspace(F2, 2)))
        assert beta.values == (1,) * 5

    def test_zeta_counts_lines(self):
        F2 = field(2)
        lat = lattice(F2, 2)
        alpha = LatticeFunction.from_callable(lat, 5, lambda s: 1 if s.dim == 1 else 0)
        beta = zeta_transform(alpha)
        assert beta.value_at(full_space(F2, 2)) == 3
        assert beta.value_at(zero_subspace(F2, 2)) == 0
        assert beta.values == (0, 1, 1, 1, 3)

    def test_transforms_preserve_zero(self):
        lat = lattice(field(3), 2)
        z = LatticeFunction.zeros(lat, 7)
        assert zeta_transform(z).is_zero()
        assert moebius_transform(z).is_zero()

    def test_round_trips_random_grid(self):
        # both composition orders are the identity, across the whole grid
        rng = random.Random(20260817)
        for n in (1, 2, 3):
            for q in (2, 3):
                lat = lattice(field(q), n)
                for p in (3, 5, 7):
                    for _ in range(100):
                        alpha = LatticeFunction.random(lat, p, rng)
                        assert moebius_transform(zeta_transform(alpha)) == alpha
                        assert zeta_transform(moebius_transform(alpha)) == alpha

    def test_zeta_linearity(self):
        lat = lattice(field(2), 3)
        rng = random.Random(11)
        a = LatticeFunction.random(lat, 7, rng)
        b = LatticeFunction.random(lat, 7, rng)
        s = LatticeFunction(lat, 7, tuple(x + y for x, y in zip(a.values, b.values)))
        za, zb, zs = zeta_transform(a), zeta_transform(b), zeta_transform(s)
        assert zs.values == tuple((x + y) % 7 for x, y in zip(za.values, zb.values))


def _zeta_reference(alpha):
    """The bit walk: beta(W) sums alpha(U) over each bit U of contains_mask[W]."""
    lat, p, vals = alpha.lat, alpha.p, alpha.values
    out = []
    for w in range(len(lat)):
        acc = 0
        for u in _bits(lat.contains_mask[w]):
            acc += vals[u]
        out.append(acc % p)
    return tuple(out)


def _moebius_reference(beta):
    """The bit walk with the interval weight moebius_value(dim U, dim W)."""
    lat, p, vals, dims = beta.lat, beta.p, beta.values, beta.lat.dims
    out = []
    for w in range(len(lat)):
        acc = 0
        for u in _bits(lat.contains_mask[w]):
            acc += moebius_value(dims[u], dims[w], lat.ctx.q) * vals[u]
        out.append(acc % p)
    return tuple(out)


# n = 0 has one subspace, whose getter returns a tuple only through the sentinel
GATHER_AMBIENTS = [(2, n) for n in range(6)] + [(3, n) for n in range(5)] + [(4, 3), (5, 3)]


class TestGatheredTransforms:
    @pytest.mark.parametrize("q,n", GATHER_AMBIENTS)
    def test_match_the_bit_walk(self, q, n):
        lat = lattice(field(q), n)
        rng = random.Random(1000 * q + n)
        for p in (2, 6, 7, 2 ** 61 - 1):
            for alpha in (
                LatticeFunction.random(lat, p, rng),
                LatticeFunction.from_callable(lat, p, lambda s: p - 1),
                LatticeFunction.indicator(lat, p, lat.subspaces[-1]),
            ):
                beta = zeta_transform(alpha)
                assert beta.values == _zeta_reference(alpha), (q, n, p)
                assert moebius_transform(alpha).values == _moebius_reference(alpha), (q, n, p)
                assert moebius_transform(beta) == alpha

    @staticmethod
    def _count_reads(monkeypatch):
        reads = []
        getter = vars(Lattice)["contains_mask"].fget

        def counted(self):
            reads.append(self)
            return getter(self)

        monkeypatch.setattr(Lattice, "contains_mask", property(counted))
        return reads

    def test_table_built_once_per_lattice(self, monkeypatch):
        reads = self._count_reads(monkeypatch)
        lat = Lattice(field(2), 3)  # not the cached lattice, so no table yet
        alpha = LatticeFunction.random(lat, 7, random.Random(4))
        beta = zeta_transform(alpha)
        assert len(reads) == 1
        assert moebius_transform(beta) == alpha
        assert zeta_transform(alpha) == beta
        assert len(reads) == 1

    def test_cache_is_bounded(self, monkeypatch):
        cap = moebius._gatherers.cache_info().maxsize
        assert cap is not None
        reads = self._count_reads(monkeypatch)
        lattices = [Lattice(field(2), 2) for _ in range(cap + 2)]
        for lat in lattices:
            zeta_transform(LatticeFunction.zeros(lat, 3))
            assert moebius._gatherers.cache_info().currsize <= cap
        assert len(reads) == cap + 2
        # the oldest lattice was evicted, so its table is rebuilt
        zeta_transform(LatticeFunction.zeros(lattices[0], 3))
        assert len(reads) == cap + 3


class TestIntervalAndJoinSums:
    def test_nesting_required(self):
        F2 = field(2)
        lat = lattice(F2, 2)
        alpha = LatticeFunction.zeros(lat, 5)
        a = lat.subspaces[1]
        b = lat.subspaces[2]
        with pytest.raises(DomainError):
            interval_sum(alpha, a, b)
        with pytest.raises(DomainError):
            join_sum(alpha, a, b)

    def test_join_sum_from_zero_recovers_alpha(self):
        # joining with the zero subspace changes nothing, so each fiber is a singleton
        F2 = field(2)
        lat = lattice(F2, 3)
        alpha = LatticeFunction.random(lat, 5, random.Random(3))
        z = zero_subspace(F2, 3)
        for y in lat.subspaces:
            assert join_sum(alpha, z, y) == alpha.value_at(y)

    def test_interval_sum_degenerate_pair(self):
        lat = lattice(field(2), 3)
        alpha = LatticeFunction.random(lat, 7, random.Random(9))
        z = zero_subspace(field(2), 3)
        assert interval_sum(alpha, z, z) == alpha.value_at(z)

    def test_join_sum_manual_fiber(self):
        # over GF(2)^2 with lower a fixed line, the fiber over full is
        # {full} plus the two other lines
        F2 = field(2)
        lat = lattice(F2, 2)
        alpha = LatticeFunction(lat, 11, (1, 2, 3, 4, 5))
        line = lat.subspaces[1]
        full = full_space(F2, 2)
        expected = (alpha.values[2] + alpha.values[3] + alpha.values[4]) % 11
        assert join_sum(alpha, line, full) == expected

    @pytest.mark.parametrize("q,n", [(2, 3), (3, 2)])
    def test_inversion_identity_exhaustive_pairs(self, q, n):
        # interval side equals join side for every nested pair
        lat = lattice(field(q), n)
        rng = random.Random(100 * q + n)
        for p in (3, 7):
            alpha = LatticeFunction.random(lat, p, rng)
            masks = lat.contains_mask
            for yi, y in enumerate(lat.subspaces):
                for wi, w in enumerate(lat.subspaces):
                    if (masks[yi] >> wi) & 1:
                        chk = generalized_inversion_check(alpha, w, y)
                        assert chk.holds, (w.rows, y.rows, chk)
                        assert chk.interval_side == chk.join_side

    @pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (2, 4)])
    def test_join_sum_matches_union_space_fibre(self, q, n):
        # the fibre over Y is every U with U ∨ W = Y, each join canonicalised
        lat = lattice(field(q), n)
        alpha = LatticeFunction.random(lat, 11, random.Random(10 * q + n))
        joins = [[lat.join(u, w) for u in range(len(lat))] for w in range(len(lat))]
        masks = lat.contains_mask
        for yi, y in enumerate(lat.subspaces):
            for wi, w in enumerate(lat.subspaces):
                if (masks[yi] >> wi) & 1:
                    fibre = [u for u, j in enumerate(joins[wi]) if j == yi]
                    want = sum(alpha.values[u] for u in fibre) % 11
                    assert join_sum(alpha, w, y) == want, (w.rows, y.rows)

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
    def test_interval_sum_matches_the_full_zeta(self, q, n):
        # the weighted sum of the whole zeta transform over [W, Y], reduced mod p
        lat = lattice(field(q), n)
        rng = random.Random(1000 * q + n)
        masks, dims = lat.contains_mask, lat.dims
        for p in (2, 7, 2 ** 61 - 1):
            alpha = LatticeFunction.random(lat, p, rng)
            beta = zeta_transform(alpha).values
            for yi, y in enumerate(lat.subspaces):
                for wi in _bits(masks[yi]):
                    want = sum(
                        moebius_value(dims[t], dims[yi], q) * beta[t]
                        for t in _bits(masks[yi])
                        if (masks[t] >> wi) & 1
                    ) % p
                    assert interval_sum(alpha, lat.subspaces[wi], y) == want, (wi, yi, p)

    def test_all_join_sums_vanish_iff_alpha_zero(self):
        F2 = field(2)
        lat = lattice(F2, 3)
        z = LatticeFunction.zeros(lat, 5)
        masks = lat.contains_mask
        nested = [
            (w, y)
            for yi, y in enumerate(lat.subspaces)
            for wi, w in enumerate(lat.subspaces)
            if (masks[yi] >> wi) & 1
        ]
        assert all(join_sum(z, w, y) == 0 for w, y in nested)
        nonzero = LatticeFunction.indicator(lat, 5, lat.subspaces[4])
        assert any(join_sum(nonzero, w, y) != 0 for w, y in nested)


class TestGap:
    def test_examples(self):
        assert gap_of({2, 5}, 7) == 3
        assert gap_of(range(8), 7) == 1
        assert gap_of((), 7) == 9
        assert gap_of({0}, 3) == 4
        assert gap_of({3}, 3) == 4
        assert gap_of({0, 3}, 3) == 3

    def test_duplicates_ignored(self):
        assert gap_of([2, 2, 5, 5], 7) == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            gap_of({8}, 7)
        with pytest.raises(DomainError):
            gap_of({-1}, 7)
        with pytest.raises(DomainError):
            gap_of((), -1)

    @given(data=st.data(), n=st.integers(0, 12))
    @settings(max_examples=80)
    def test_adding_elements_never_widens(self, data, n):
        h = data.draw(st.sets(st.integers(0, n)))
        extra = data.draw(st.integers(0, n))
        assert gap_of(h | {extra}, n) <= gap_of(h, n)

    @given(data=st.data(), n=st.integers(0, 12))
    @settings(max_examples=80)
    def test_bounds(self, data, n):
        h = data.draw(st.sets(st.integers(0, n)))
        g = gap_of(h, n)
        assert 1 <= g <= n + 2
        assert (g == n + 2) == (not h)


class TestVanishing:
    def test_zero_function_satisfies_everything(self):
        lat = lattice(field(2), 3)
        rep = vanishing_check(LatticeFunction.zeros(lat, 3), {0}, 2)
        assert rep.premises_hold and rep.conclusion_holds and rep.implication_holds

    def test_h_out_of_range(self):
        lat = lattice(field(2), 2)
        with pytest.raises(DomainError):
            vanishing_check(LatticeFunction.zeros(lat, 3), {5}, 2)

    def test_premise_failure_reported(self):
        # indicator of a plane is not zero from dimension 2 up
        F2 = field(2)
        lat = lattice(F2, 3)
        alpha = LatticeFunction.indicator(lat, 3, lat.subspaces[8])
        rep = vanishing_check(alpha, {0}, 2)
        assert not rep.alpha_vanishes_from_g
        assert not rep.premises_hold
        assert rep.implication_holds

    def test_gap_premise(self):
        lat = lattice(field(2), 3)
        z = LatticeFunction.zeros(lat, 3)
        # gap_of({0,1,2,3}, 3) = 1 < g + 1 for g = 2
        rep = vanishing_check(z, {0, 1, 2, 3}, 2)
        assert not rep.gap_sufficient

    def test_exhaustive_slice(self):
        # every alpha supported on dimensions <= 1 of GF(2)^3, mod 3, with
        # H = {0} and g = 2: the implication must hold on all 3^8 functions,
        # and the premises must force alpha = 0
        lat = lattice(field(2), 3)
        free = lat.offsets[2]
        tail = (0,) * (len(lat) - free)
        premise_count = 0
        for head in itertools.product(range(3), repeat=free):
            alpha = LatticeFunction(lat, 3, head + tail)
            rep = vanishing_check(alpha, {0}, 2)
            assert rep.alpha_vanishes_from_g
            assert rep.gap_sufficient
            assert rep.implication_holds, head
            if rep.premises_hold:
                premise_count += 1
                assert alpha.is_zero()
        assert premise_count == 1
