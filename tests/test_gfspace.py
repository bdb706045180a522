"""Finite fields, canonical subspaces, enumeration, and the subspace lattice."""

import copy
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlattice import (
    DomainError,
    Family,
    FieldContext,
    Lattice,
    LineIncidence,
    ResourceLimitError,
    Subspace,
    SubspaceIndex,
    budget,
    canonicalize,
    check_deadline,
    containment_vector,
    contains,
    enumerate_subspaces,
    family_from_dict,
    family_to_dict,
    field,
    field_from_dict,
    full_space,
    index_of,
    intersect,
    lattice,
    lattice_budget,
    lattice_size,
    line_mask,
    meet_dim,
    prime_power,
    qbinom,
    subspace_at,
    union_space,
    zero_subspace,
)
from qlattice.budgets import DEFAULT_LATTICE_BUDGET, current_deadline
from qlattice.gfspace import (
    _cached_lattice,
    _poly_mod,
    _poly_mul,
    require_lattice_budget,
)


class TestField:
    def test_prime_field_arithmetic(self):
        F5 = field(5)
        assert F5.add(3, 4) == 2
        assert F5.mul(3, 4) == 2
        assert F5.inv(3) == 2
        assert F5.neg(2) == 3
        assert F5.sub(1, 3) == 3

    def test_gf4_tables(self):
        F4 = field(4)
        assert F4.mul(2, 2) == 3
        assert F4.mul(2, 3) == 1
        assert F4.mul(3, 3) == 2
        assert [F4.inv(a) for a in (1, 2, 3)] == [1, 3, 2]
        assert F4.add(2, 3) == 1
        assert F4.add(2, 2) == 0

    def test_gf8_and_gf9_are_fields(self):
        # every nonzero element invertible, inverse consistent with mul
        for q in (8, 9):
            F = field(q)
            for a in range(1, q):
                assert F.mul(a, F.inv(a)) == 1

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(DomainError):
            field(4).inv(0)

    def test_degree_over_the_ceiling_refused_before_the_power(self):
        # 2^(10^9) would take seconds and hundreds of MB to compute
        start = time.monotonic()
        for e in (9, 20000, 10 ** 9):
            with pytest.raises(DomainError, match=rf"^q = 2\^{e} exceeds the supported ceiling 256$"):
                FieldContext(2, e)
        assert time.monotonic() - start < 1
        with pytest.raises(DomainError, match=r"^q = 289 exceeds the supported ceiling 256$"):
            FieldContext(17, 2)
        with pytest.raises(DomainError, match=r"^q = 257 exceeds the supported ceiling 256$"):
            FieldContext(257, 1)
        # a Mersenne prime of 664 digits: its 7th power has more digits than str() allows
        big = 2 ** 2203 - 1
        with pytest.raises(DomainError, match=rf"^q = {big}\^7 exceeds the supported ceiling 256$"):
            FieldContext(big, 7)

    def test_non_prime_power_rejected(self):
        for q in (0, 1, 6, 12, 100):
            with pytest.raises(DomainError):
                field(q)

    def test_to_dict_round_trip(self):
        for q in (2, 3, 4, 5, 8, 9, 16, 25):
            d = field(q).to_dict()
            back = field_from_dict(d)
            assert back.q == q
            assert back.to_dict() == d

    def test_prime_field_dict_omits_modulus(self):
        assert field(7).to_dict() == {"p": 7, "e": 1}
        assert field(9).to_dict() == {"p": 3, "e": 2, "modulus": [1, 0, 1]}

    def test_reducible_modulus_rejected(self):
        # x^2 + 1 factors over GF(2)
        with pytest.raises(DomainError):
            field_from_dict({"p": 2, "e": 2, "modulus": [1, 0, 1]})

    @pytest.mark.parametrize("q", [4, 9, 256])
    def test_one_context_per_field(self, q):
        F = field(q)
        assert field_from_dict(F.to_dict()) is F
        assert field_from_dict({"p": F.p, "e": F.e}) is F


def _reference_tables(ctx):
    """The four tables built the direct way: every sum and product of residues.

    For e > 1 each product multiplies two residue polynomials and reduces
    mod the modulus, q^2 times; kept as the oracle of the discrete-log build.
    """
    p, e, q = ctx.p, ctx.e, ctx.q
    if e == 1:
        add = [[(a + b) % p for b in range(q)] for a in range(q)]
        mul = [[a * b % p for b in range(q)] for a in range(q)]
        neg = [(-a) % p for a in range(q)]
    else:
        polys = [ctx._decode(c) for c in range(q)]
        add = [
            [ctx._encode([(x + y) % p for x, y in zip(polys[a], polys[b])]) for b in range(q)]
            for a in range(q)
        ]
        mul = [
            [ctx._encode(_poly_mod(_poly_mul(polys[a], polys[b], p), ctx.modulus, p)) for b in range(q)]
            for a in range(q)
        ]
        neg = [ctx._encode([(-x) % p for x in polys[a]]) for a in range(q)]
    inv = [None] * q
    for a in range(1, q):
        inv[a] = mul[a].index(1)
    return add, mul, neg, inv


class TestDiscreteLogTables:
    PRIME_POWERS = [q for q in range(2, 65) if prime_power(q)] + [243, 256]
    # x^4+x^3+x^2+x+1 is irreducible but not primitive: x has order 5
    MODULI = [
        (2, 3, (1, 0, 1, 1)),
        (2, 4, (1, 0, 0, 1, 1)),
        (2, 4, (1, 1, 1, 1, 1)),
        (3, 2, (2, 1, 1)),
        (3, 2, (1, 0, 1)),
        (3, 3, (1, 2, 0, 1)),
        (5, 2, (2, 0, 1)),
        (2, 6, (1, 1, 0, 1, 1, 0, 1)),
    ]

    @staticmethod
    def _built(ctx):
        return ctx._add, ctx._mul, ctx._neg, ctx._inv

    @pytest.mark.parametrize("q", PRIME_POWERS)
    def test_default_modulus_matches_reference(self, q):
        ctx = FieldContext(*prime_power(q))
        assert self._built(ctx) == _reference_tables(ctx)

    @pytest.mark.parametrize("p,e,modulus", MODULI)
    def test_explicit_modulus_matches_reference(self, p, e, modulus):
        ctx = FieldContext(p, e, modulus)
        assert self._built(ctx) == _reference_tables(ctx)

    def test_generator_powers_cover_the_group(self):
        ctx = FieldContext(2, 8)
        powers = ctx._generator_powers()
        assert powers[0] == 1 and sorted(powers) == list(range(1, 256))
        # x (code 2) has order 51 under the default modulus, so x + 1 generates
        assert powers[1] == 3
        assert FieldContext(2)._generator_powers() == [1]
        assert FieldContext(7)._generator_powers() == [1, 3, 2, 6, 4, 5]


class _Refused(Exception):
    pass


@pytest.fixture
def refused(monkeypatch):
    """Contexts that tried to build their tables; each attempt raises _Refused."""
    from qlattice import gfspace

    attempts = []

    def refuse(ctx):
        attempts.append(ctx)
        raise _Refused

    # a field cached by an earlier test may hold its tables already
    gfspace._field_cached.cache_clear()
    monkeypatch.setattr(gfspace.FieldContext, "_build_tables", refuse)
    return attempts


class TestTablesOnFirstUse:
    @pytest.mark.parametrize("first_use", [
        lambda F: F.add(1, 2),
        lambda F: F.mul(3, 5),
        lambda F: line_mask(Subspace(F, 2, ((1, 7),))),
    ], ids=["add", "mul", "line_mask"])
    def test_field_256_builds_at_the_first_arithmetic(self, refused, first_use):
        F = field(256)
        assert refused == []
        with pytest.raises(_Refused):
            first_use(F)
        assert refused == [F]

    def test_handle_reads_no_table(self, refused):
        F = field(256)
        assert F == field(256) and F is field(256) and F != field(2)
        assert hash(F) == hash(FieldContext(2, 8))
        assert repr(F) == "GF(256; modulus=[1, 1, 0, 1, 1, 0, 0, 0, 1])"
        assert F.to_dict() == {"p": 2, "e": 8, "modulus": [1, 1, 0, 1, 1, 0, 0, 0, 1]}
        assert field_from_dict(F.to_dict()) == F
        space = Subspace(F, 3, ((1, 0, 200), (0, 1, 7)))
        assert space == Subspace(F, 3, ((1, 0, 200), (0, 1, 7)))
        assert {space: 1}[space] == 1 and space.dim == 2 and space.pivots == (0, 1)
        assert index_of(space) == SubspaceIndex(2, 1 + 256 + 200 * 256 + 7 + 1)
        assert subspace_at(F, 3, index_of(space)) == space
        assert len(list(enumerate_subspaces(F, 2, 1))) == 257
        assert refused == []

    def test_both_routes_share_a_fresh_context(self, refused):
        # the fixture emptied the cache, so no route finds a context with tables
        F = field_from_dict({"p": 2, "e": 8, "modulus": [1, 1, 0, 1, 1, 0, 0, 0, 1]})
        assert field(256) is F and field_from_dict({"p": 2, "e": 8}) is F
        with pytest.raises(_Refused):
            F.add(1, 2)
        assert refused == [F]

    def test_unknown_attribute_builds_nothing(self, refused):
        F = field(256)
        with pytest.raises(AttributeError, match="'FieldContext' object has no attribute 'tables'"):
            F.tables
        assert refused == []

    @pytest.mark.parametrize("make", [
        lambda: field(6),
        lambda: field(512),
        lambda: field_from_dict({"p": 2, "e": 2, "modulus": [1, 0, 1]}),
        lambda: FieldContext(6),
        lambda: FieldContext(2, 0),
        lambda: FieldContext(2, 9),
        lambda: FieldContext(2, 2, modulus=(1, 1, 0)),
        lambda: FieldContext(5, 1, modulus=(1, 1)),
    ])
    def test_refused_constructor_builds_nothing(self, refused, make):
        with pytest.raises(DomainError):
            make()
        assert refused == []

    def test_tables_built_once(self, monkeypatch):
        from qlattice import gfspace

        builds = []
        original = gfspace.FieldContext._build_tables

        def counting(ctx):
            builds.append(ctx)
            original(ctx)

        monkeypatch.setattr(gfspace.FieldContext, "_build_tables", counting)
        F = FieldContext(2, 4)
        assert builds == []
        assert F.mul(2, 9) == F.mul(9, 2) and F.add(5, 5) == 0
        assert [F.mul(a, F.inv(a)) for a in range(1, 16)] == [1] * 15
        assert F.sub(3, 3) == F.neg(0) == 0
        line = canonicalize(F, 3, ((2, 4, 6),))
        assert line_mask(line) == 1 << (index_of(line).pos - 1)
        assert meet_dim(line, full_space(F, 3)) == 1
        assert builds == [F]

    def test_tables_built_once_across_both_routes(self, monkeypatch):
        from qlattice import gfspace

        builds = []
        original = gfspace.FieldContext._build_tables

        def counting(ctx):
            builds.append(ctx)
            original(ctx)

        monkeypatch.setattr(gfspace.FieldContext, "_build_tables", counting)
        gfspace._field_cached.cache_clear()
        F = field_from_dict({"p": 2, "e": 4, "modulus": [1, 1, 0, 0, 1]})
        assert F.mul(2, 9) == field(16).mul(2, 9)
        assert field_from_dict({"p": 2, "e": 4}).inv(7) == field(16).inv(7)
        assert builds == [F]


class TestSubspace:
    def test_strict_rref_enforced(self):
        F2 = field(2)
        with pytest.raises(DomainError):
            Subspace(F2, 3, ((1, 1, 0), (0, 1, 0)))
        with pytest.raises(DomainError):
            Subspace(F2, 3, ((0, 1, 0), (1, 0, 0)))
        with pytest.raises(DomainError):
            Subspace(F2, 3, ((0, 0, 0),))

    def test_row_length_checked(self):
        with pytest.raises(DomainError):
            Subspace(field(2), 3, ((1, 0),))

    def test_canonicalize_reduces(self):
        F2 = field(2)
        s = canonicalize(F2, 3, ((1, 1, 0), (0, 1, 0)))
        assert s.rows == ((1, 0, 0), (0, 1, 0))

    def test_canonicalize_drops_dependent_rows(self):
        F2 = field(2)
        s = canonicalize(F2, 3, ((1, 1, 1), (1, 1, 1), (0, 0, 0)))
        assert s.rows == ((1, 1, 1),)
        assert s.dim == 1

    def test_canonicalize_scales_pivots(self):
        F3 = field(3)
        s = canonicalize(F3, 2, ((2, 1),))
        assert s.rows == ((1, 2),)

    @given(
        q=st.sampled_from([2, 3, 4]),
        n=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_canonicalize_idempotent(self, q, n, data):
        ctx = field(q)
        k = data.draw(st.integers(0, n))
        rows = data.draw(
            st.lists(
                st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                min_size=k,
                max_size=k,
            )
        )
        once = canonicalize(ctx, n, rows)
        twice = canonicalize(ctx, n, once.rows)
        assert once == twice

    def test_zero_and_full(self):
        F2 = field(2)
        z = zero_subspace(F2, 3)
        f = full_space(F2, 3)
        assert z.dim == 0 and z.rows == ()
        assert f.dim == 3
        assert f.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_contains(self):
        F2 = field(2)
        line = Subspace(F2, 3, ((0, 0, 1),))
        plane = Subspace(F2, 3, ((1, 0, 0), (0, 0, 1)))
        assert contains(plane, line)
        assert not contains(line, plane)
        assert contains(plane, zero_subspace(F2, 3))
        assert contains(full_space(F2, 3), plane)

    def test_intersect_and_union(self):
        F2 = field(2)
        a = Subspace(F2, 4, ((1, 0, 0, 0), (0, 1, 0, 0)))
        b = Subspace(F2, 4, ((0, 1, 0, 0), (0, 0, 1, 0)))
        meet = intersect(a, b)
        join = union_space(a, b)
        assert meet.rows == ((0, 1, 0, 0),)
        assert join.dim == 3

    def test_ambient_mismatch_rejected(self):
        F2 = field(2)
        a = Subspace(F2, 3, ((0, 0, 1),))
        b = Subspace(F2, 4, ((0, 0, 0, 1),))
        with pytest.raises(DomainError):
            intersect(a, b)

    @given(
        q=st.sampled_from([2, 3]),
        n=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_dimension_formula(self, q, n, data):
        # dim(A) + dim(B) = dim(A meet B) + dim(A join B)
        ctx = field(q)
        rows_a = data.draw(
            st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), max_size=n)
        )
        rows_b = data.draw(
            st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), max_size=n)
        )
        a = canonicalize(ctx, n, rows_a)
        b = canonicalize(ctx, n, rows_b)
        assert a.dim + b.dim == intersect(a, b).dim + union_space(a, b).dim


class TestEnumeration:
    def test_counts_match_gaussian_binomials(self):
        for q in (2, 3, 4):
            ctx = field(q)
            for n in range(5 if q == 2 else 4):
                for d in range(n + 1):
                    got = sum(1 for _ in enumerate_subspaces(ctx, n, d))
                    assert got == qbinom(n, d, q), (q, n, d)

    def test_first_line_of_gf2_cubed(self):
        first = next(iter(enumerate_subspaces(field(2), 3, 1)))
        assert first.rows == ((0, 0, 1),)

    def test_gf3_plane_lines_order(self):
        got = [s.rows for s in enumerate_subspaces(field(3), 2, 1)]
        assert got == [((0, 1),), ((1, 0),), ((1, 1),), ((1, 2),)]

    def test_all_distinct_and_canonical(self):
        ctx = field(3)
        seen = set()
        for d in range(4):
            for s in enumerate_subspaces(ctx, 3, d):
                assert s.dim == d
                assert s not in seen
                seen.add(s)
        assert len(seen) == lattice_size(3, 3)

    def test_index_round_trip_exhaustive(self):
        ctx = field(2)
        for d in range(4):
            for pos, s in enumerate(enumerate_subspaces(ctx, 3, d), start=1):
                idx = index_of(s)
                assert idx == SubspaceIndex(d, pos)
                assert subspace_at(ctx, 3, idx) == s

    def test_subspace_at_rejects_bad_position(self):
        ctx = field(2)
        with pytest.raises(DomainError):
            subspace_at(ctx, 3, SubspaceIndex(1, 8))
        with pytest.raises(DomainError):
            subspace_at(ctx, 3, SubspaceIndex(1, 0))
        with pytest.raises(DomainError):
            subspace_at(ctx, 3, SubspaceIndex(4, 1))

    def test_lattice_size_values(self):
        assert lattice_size(3, 2) == 16
        assert lattice_size(2, 3) == 6
        assert lattice_size(4, 2) == 67


class TestLattice:
    def test_global_order_dimension_major(self):
        lat = lattice(field(2), 3)
        assert len(lat) == 16
        assert lat.offsets == [0, 1, 8, 15]
        assert lat.dims == (0,) + (1,) * 7 + (2,) * 7 + (3,)

    def test_global_index_and_position(self):
        lat = lattice(field(2), 3)
        plane = Subspace(field(2), 3, ((1, 0, 0), (0, 1, 0)))
        gi = lat.global_index(plane)
        assert gi == 11
        assert lat.subspaces[gi] == plane
        foreign = Subspace(field(2), 4, ((1, 0, 0, 0),))
        with pytest.raises(DomainError):
            lat.global_index(foreign)

    def test_contains_mask_popcounts(self):
        lat = lattice(field(2), 3)
        # a plane holds zero, three lines, itself
        plane_gi = lat.global_index(Subspace(field(2), 3, ((1, 0, 0), (0, 1, 0))))
        assert bin(lat.contains_mask[plane_gi]).count("1") == 5
        # the full space holds everything
        assert bin(lat.contains_mask[15]).count("1") == 16
        # the zero subspace holds only itself
        assert lat.contains_mask[0] == 1

    def test_contains_mask_matches_contains(self):
        for q, n in ((2, 3), (3, 2), (4, 3)):
            lat = lattice(field(q), n)
            for w_pos, w in enumerate(lat.subspaces):
                mask = lat.contains_mask[w_pos]
                for u_pos, u in enumerate(lat.subspaces):
                    assert bool(mask >> u_pos & 1) == contains(w, u)

    @pytest.mark.parametrize("q,n", [(2, 4), (2, 5), (3, 3), (4, 3), (5, 2)])
    def test_contains_mask_matches_comprehension_oracle(self, q, n):
        # the pair loop the table was built with before LineIncidence
        lat = Lattice(field(q), n)
        lines = lat.lines
        want = [
            sum(1 << u for u, inner in enumerate(lines) if not inner & ~outer)
            for outer in lines
        ]
        assert lat.contains_mask == want

    def test_contains_mask_matches_contains_gf2_4(self):
        lat = Lattice(field(2), 4)
        for w_pos, w in enumerate(lat.subspaces):
            mask = lat.contains_mask[w_pos]
            assert mask.bit_length() <= len(lat)
            for u_pos, u in enumerate(lat.subspaces):
                assert bool(mask >> u_pos & 1) == contains(w, u)

    def test_join(self):
        lat = lattice(field(2), 3)
        j = lat.join(1, 2)
        assert lat.dims[j] == 2
        assert lat.join(0, 5) == 5
        assert lat.join(15, 3) == 15

    def test_budget_enforced(self):
        _cached_lattice.cache_clear()
        with budget(lattice=10):
            with pytest.raises(ResourceLimitError) as exc:
                lattice(field(2), 3)
        assert exc.value.partial == {"size": 16}
        assert _cached_lattice.cache_info().currsize == 0

    def test_huge_count_named_by_its_bits(self):
        # [200 100]_256 has about 80000 bits, far more digits than Python
        # turns into a string by default; the message must not try
        with pytest.raises(ResourceLimitError) as info:
            enumerate_subspaces(field(256), 200, 100)
        count = qbinom(200, 100, 256)
        assert str(info.value).startswith(f"at least 2^{count.bit_length() - 1} subspaces")
        assert info.value.partial == {"count": count}


class TestBudgetScope:
    def test_validation_messages(self):
        with pytest.raises(DomainError, match=r"^lattice budget must be positive$"):
            with budget(lattice=0):
                pass
        for seconds in (0, -2.0, float("nan")):
            with pytest.raises(DomainError, match=r"^time_budget must be positive, got "):
                with budget(seconds=seconds):
                    pass

    def test_lattice_budget_scopes_nest(self):
        assert lattice_budget() == DEFAULT_LATTICE_BUDGET
        with budget(lattice=7):
            assert lattice_budget() == 7
            with budget(seconds=5):
                assert lattice_budget() == 7
            with budget(lattice=9):
                assert lattice_budget() == 9
            assert lattice_budget() == 7
        assert lattice_budget() == DEFAULT_LATTICE_BUDGET

    def test_lowered_scope_refuses_cached_lattice(self):
        lattice(field(2), 3)
        with budget(lattice=10):
            with pytest.raises(ResourceLimitError) as exc:
                lattice(field(2), 3)
        assert exc.value.partial == {"size": 16}
        assert len(lattice(field(2), 3)) == 16

    def test_deadline_counts_from_entry(self, fake_clock):
        fake_clock.now = 100.0
        assert current_deadline() is None
        with budget(seconds=2.5):
            assert current_deadline() == 102.5
            check_deadline("lattice")
            fake_clock.now = 102.5
            check_deadline("lattice")
            fake_clock.now = 102.6
            with pytest.raises(ResourceLimitError, match=r"^time budget ran out in graph$") as exc:
                check_deadline("graph", rows=3, vertices=9)
            assert exc.value.partial == {"phase": "graph", "rows": 3, "vertices": 9}
        assert current_deadline() is None
        check_deadline("graph")

    def test_infinite_seconds_set_no_deadline(self, fake_clock):
        with budget(seconds=float("inf")):
            assert current_deadline() is None
            fake_clock.now = 1e300
            check_deadline("search")

    def test_nested_scope_cannot_extend_the_deadline(self, fake_clock):
        with budget(seconds=10):
            with budget(seconds=100):
                assert current_deadline() == 10
            with budget(seconds=1):
                assert current_deadline() == 1
            with budget(lattice=5, seconds=float("inf")):
                assert current_deadline() == 10
            assert current_deadline() == 10

    def test_scope_restored_after_an_error(self):
        with pytest.raises(RuntimeError):
            with budget(lattice=3, seconds=60):
                raise RuntimeError("boom")
        assert current_deadline() is None
        assert lattice_budget() == DEFAULT_LATTICE_BUDGET

    @pytest.mark.parametrize("seconds, partial", [
        (2.5, {"dim": 2, "subspaces": 15}),
        (6.5, {"dim": 2, "line_masks": 15}),
    ])
    def test_expiry_during_the_lattice_build(self, fake_clock, seconds, partial):
        # entry reads 0; enumerating dimensions 0..3 reads 1..4, their line
        # masks 5..8, so dimension 2 of either step is the first refused
        _cached_lattice.cache_clear()
        fake_clock.step = 1
        with budget(seconds=seconds):
            with pytest.raises(ResourceLimitError, match=r"^time budget ran out in lattice$") as exc:
                lattice(field(2), 3)
        assert exc.value.partial == {"phase": "lattice", **partial}
        assert _cached_lattice.cache_info().currsize == 0
        fake_clock.step = 0
        built = lattice(field(2), 3)
        assert (len(built), len(built.lines), built.offsets) == (16, 16, [0, 1, 8, 15])
        assert built.lines == tuple(line_mask(s) for s in built.subspaces)

    def test_distant_deadline_builds_the_same_lattice(self, fake_clock):
        fake_clock.step = 1
        with budget(seconds=1e6):
            timed = Lattice(field(3), 3)
        plain = Lattice(field(3), 3)
        assert (timed.subspaces, timed.offsets, timed.lines) == (
            plain.subspaces, plain.offsets, plain.lines)

    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_ambient_rejected(self, n):
        message = rf"^ambient dimension must be >= 0, got {n}$"
        with pytest.raises(DomainError, match=message):
            require_lattice_budget(n, 2)
        with pytest.raises(DomainError, match=message):
            lattice(field(2), n)
        with pytest.raises(DomainError, match=message):
            Lattice(field(2), n)


class TestLineMask:
    AMBIENTS = ((2, 4), (3, 3), (4, 3), (5, 2))

    @pytest.mark.parametrize("q,n", AMBIENTS)
    def test_lines_are_unit_masks_in_canonical_order(self, q, n):
        for i, line in enumerate(enumerate_subspaces(field(q), n, 1)):
            assert line_mask(line) == 1 << i

    @given(ambient=st.sampled_from(AMBIENTS), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_masks_agree_with_contains_and_intersect(self, ambient, data):
        q, n = ambient
        subs = lattice(field(q), n).subspaces
        u = subs[data.draw(st.integers(0, len(subs) - 1))]
        w = subs[data.draw(st.integers(0, len(subs) - 1))]
        mu, mw = line_mask(u), line_mask(w)
        assert (mu & ~mw == 0) == contains(w, u)
        assert (mu & mw).bit_count() == qbinom(intersect(u, w).dim, 1, q)

    def test_lattice_holds_the_masks(self):
        lat = lattice(field(3), 3)
        assert lat.lines == tuple(line_mask(s) for s in lat.subspaces)

    def test_budget_enforced(self):
        with budget(lattice=6):
            with pytest.raises(ResourceLimitError) as exc:
                line_mask(zero_subspace(field(2), 3))
        assert exc.value.partial == {"count": 7}
        with budget(lattice=7):
            assert line_mask(zero_subspace(field(2), 3)) == 0


def _count_at(planes, j):
    return sum(((plane >> j) & 1) << k for k, plane in enumerate(planes))


PLANES_LATTICES = {"GF(2)^4": (2, 4), "GF(3)^3": (3, 3), "GF(4)^3": (4, 3), "GF(5)^2": (5, 2)}


def _planes_case(name):
    """(entry masks, query masks) of one test_planes_count_shared_lines case."""
    if name in PLANES_LATTICES:
        q, n = PLANES_LATTICES[name]
        lines = lattice(field(q), n).lines
        return lines, lines
    rng = random.Random(name)
    if name == "below-top-lines":
        # The entries hold none of the top lines of GF(2)^5, so up is shorter
        # than the queries, which also carry lines beyond the whole space.
        full = lattice(field(2), 5).lines
        lines = [m for m in full if m.bit_length() <= 20]
        return lines, [*full, (1 << 40) - 1, *(rng.getrandbits(50) for _ in range(20))]
    # Nested runs of low lines: the shared counts min(a, c) fall on both
    # sides of each power of two up to 64, so carries ripple through every
    # plane and the top plane is added. Line 70 alone leaves lines 65 to 69
    # held by no entry: a query made of them adds no plane.
    runs = [(1 << c) - 1 for c in (0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65)]
    runs.append(1 << 70)
    unheld = (1 << 70) - (1 << 65)
    return runs, [*runs, unheld, unheld | 1, *(rng.getrandbits(72) for _ in range(20))]


class TestLineIncidence:
    @pytest.mark.parametrize("name", [*PLANES_LATTICES, "below-top-lines", "nested-runs"])
    def test_planes_count_shared_lines(self, name):
        lines, queries = _planes_case(name)
        incidence = LineIncidence(lines)
        for u in queries:
            planes = incidence.planes(u)
            counts = [(u & v).bit_count() for v in lines]
            assert all(plane >> len(lines) == 0 for plane in planes)
            assert len(planes) == max(counts).bit_length()
            assert [_count_at(planes, j) for j in range(len(lines))] == counts

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
    def test_up_lists_the_holders_of_each_line(self, q, n):
        lines = lattice(field(q), n).lines
        up = LineIncidence(lines).up
        assert len(up) == qbinom(n, 1, q)
        for line, holders in enumerate(up):
            assert holders == sum(1 << j for j, v in enumerate(lines) if v >> line & 1)

    def test_select_picks_counts_within(self):
        rng = random.Random(5)
        lines = lattice(field(2), 4).lines
        incidence = LineIncidence(lines)
        for _ in range(40):
            u = rng.choice(lines)
            planes = incidence.planes(u)
            counts = set(rng.sample(range(17), rng.randint(0, 4)))
            within = rng.getrandbits(len(lines))
            want = sum(
                1 << j
                for j, v in enumerate(lines)
                if within >> j & 1 and (u & v).bit_count() in counts
            )
            chosen = 0
            for count in counts:
                chosen |= LineIncidence.select(planes, count, within)
            assert chosen == want

    def test_degenerate_lists(self):
        empty = LineIncidence([])
        assert empty.up == () and empty.planes(0b111) == []
        zeros = LineIncidence([0, 0])
        assert zeros.planes(0b11) == []
        # no planes: every entry shares 0 lines
        assert LineIncidence.select([], 0, 0b11) == 0b11
        assert LineIncidence.select([], 1, 0b11) == 0
        # lines that no entry holds count for nothing
        pair = LineIncidence([0b01, 0b11])
        assert [_count_at(pair.planes(0b111), j) for j in (0, 1)] == [1, 2]


class TestMeetDim:
    AMBIENTS = ((2, 4), (3, 3), (4, 3), (5, 2))

    @given(ambient=st.sampled_from(AMBIENTS), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_intersect(self, ambient, data):
        q, n = ambient
        subs = lattice(field(q), n).subspaces
        u = subs[data.draw(st.integers(0, len(subs) - 1))]
        w = subs[data.draw(st.integers(0, len(subs) - 1))]
        assert meet_dim(u, w) == intersect(u, w).dim
        assert meet_dim(w, u) == intersect(w, u).dim

    @pytest.mark.parametrize("q,n", AMBIENTS)
    def test_zero_and_full_space(self, q, n):
        ctx = field(q)
        zero, full = zero_subspace(ctx, n), full_space(ctx, n)
        for space in lattice(ctx, n).subspaces:
            for a, b in ((zero, space), (space, zero), (full, space), (space, full)):
                assert meet_dim(a, b) == intersect(a, b).dim
            assert meet_dim(zero, space) == 0
            assert meet_dim(space, full) == space.dim

    def test_large_ambient_needs_no_budget(self):
        # 33 random vectors of GF(256)^40; a spans the first 20, b the last 20
        ctx, n = field(256), 40
        rng = random.Random(5)
        vectors = [[rng.randrange(256) for _ in range(n)] for _ in range(33)]
        with budget(lattice=1):
            assert canonicalize(ctx, n, vectors).dim == 33
            a, b = canonicalize(ctx, n, vectors[:20]), canonicalize(ctx, n, vectors[13:])
            assert meet_dim(a, b) == meet_dim(b, a) == intersect(a, b).dim == 7
            with pytest.raises(ResourceLimitError):
                line_mask(a)

    def test_different_ambients_rejected(self):
        with pytest.raises(DomainError):
            meet_dim(zero_subspace(field(2), 3), zero_subspace(field(2), 4))
        with pytest.raises(DomainError):
            meet_dim(zero_subspace(field(2), 3), zero_subspace(field(3), 3))
        # also once the GF(2) rows are packed
        small, large = full_space(field(2), 3), full_space(field(2), 4)
        assert meet_dim(small, small) == 3 and meet_dim(large, large) == 4
        for a, b in ((small, large), (large, small), (small, full_space(field(3), 3)),
                     (full_space(field(4), 3), small)):
            with pytest.raises(DomainError):
                meet_dim(a, b)

    def test_gf2_every_ordered_pair_matches_intersect(self):
        subs = list(lattice(field(2), 4).subspaces)
        for u in subs:
            for w in subs:
                assert meet_dim(u, w) == intersect(u, w).dim, (u, w)
        assert all(len(s._gf2_rows) == s.dim for s in subs)

    @given(
        n=st.integers(0, 12),
        seeds=st.tuples(st.integers(0, 2 ** 32), st.integers(0, 2 ** 32)),
        counts=st.tuples(st.integers(0, 14), st.integers(0, 14)),
    )
    @settings(max_examples=200, deadline=None)
    def test_gf2_random_rows_match_intersect(self, n, seeds, counts):
        ctx, rngs = field(2), [random.Random(seed) for seed in seeds]
        a, b = (
            canonicalize(ctx, n, [[rng.randrange(2) for _ in range(n)] for _ in range(count)])
            for rng, count in zip(rngs, counts)
        )
        assert meet_dim(a, b) == intersect(a, b).dim
        assert meet_dim(b, a) == intersect(b, a).dim

    def test_gf2_large_ambient_needs_no_budget(self):
        # a spans the first 25 of 40 random vectors of GF(2)^200, b the last 25
        ctx, n = field(2), 200
        rng = random.Random(18)
        vectors = [[rng.randrange(2) for _ in range(n)] for _ in range(40)]
        with budget(lattice=1):
            a, b = canonicalize(ctx, n, vectors[:25]), canonicalize(ctx, n, vectors[15:])
            assert (a.dim, b.dim, canonicalize(ctx, n, vectors).dim) == (25, 25, 40)
            assert meet_dim(a, b) == meet_dim(b, a) == intersect(a, b).dim == 10
            with pytest.raises(ResourceLimitError):
                line_mask(a)

    def test_rows_packed_on_first_meet_over_gf2_only(self):
        fresh = list(enumerate_subspaces(field(2), 4, 2))
        assert not any(hasattr(s, "_gf2_rows") for s in fresh)
        a = canonicalize(field(2), 4, [[1, 1, 0, 1], [0, 0, 1, 1]])
        assert not hasattr(a, "_gf2_rows")
        assert meet_dim(a, fresh[0]) == intersect(a, fresh[0]).dim
        assert a._gf2_rows == ((0b1000, 0b1101), (0b0010, 0b0011))
        assert hasattr(fresh[0], "_gf2_rows")
        u = canonicalize(field(3), 3, [[1, 2, 0]])
        assert meet_dim(u, u) == 1 and not hasattr(u, "_gf2_rows")

    def test_packed_subspace_is_the_same_value(self):
        ctx = field(2)
        packed = canonicalize(ctx, 3, [[1, 1, 0], [0, 1, 1]])
        meet_dim(packed, packed)
        fresh = Subspace(ctx, 3, packed.rows)
        assert not hasattr(fresh, "_gf2_rows") and hasattr(packed, "_gf2_rows")
        assert packed == fresh and hash(packed) == hash(fresh) and repr(packed) == repr(fresh)
        assert {fresh: 1}[packed] == 1
        assert Subspace._fields == ("ctx", "n", "rows")
        # records stay unsupported by copy and pickle, packed or not
        for space in (packed, fresh):
            for clone in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
                with pytest.raises(AttributeError):
                    clone(space)

    def test_packed_and_hashed_subspace_is_the_same_value(self):
        ctx = field(2)
        packed = canonicalize(ctx, 4, [[1, 1, 0, 1], [0, 1, 1, 1]])
        meet_dim(packed, packed)
        hash(packed)
        assert hasattr(packed, "_gf2_rows") and hasattr(packed, "_hash")
        fresh = Subspace(ctx, 4, packed.rows)
        assert not hasattr(fresh, "_gf2_rows") and not hasattr(fresh, "_hash")
        assert packed == fresh and repr(packed) == repr(fresh)
        assert not hasattr(fresh, "_hash")
        assert hash(packed) == hash(fresh) == hash((ctx, 4, packed.rows))
        assert {fresh: 1}[packed] == 1 and {packed: 1}[fresh] == 1
        assert "_hash" not in repr(packed) and Subspace._fields == ("ctx", "n", "rows")
        for space in (packed, fresh):
            for clone in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
                with pytest.raises(AttributeError):
                    clone(space)


class TestStoredPivots:
    def test_pivots_match_rows(self):
        for space in lattice(field(3), 3).subspaces:
            assert space.pivots == tuple(
                next(i for i, x in enumerate(row) if x) for row in space.rows
            )

    def test_identity_ignores_pivots(self):
        ctx = field(2)
        a = canonicalize(ctx, 3, [[1, 1, 0], [0, 1, 1]])
        b = Subspace(ctx, 3, a.rows)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert Subspace._fields == ("ctx", "n", "rows")
        assert "pivots" not in repr(a)


class TestStoredHash:
    """The first hash of a subspace is kept on it; every route to a value agrees."""

    @pytest.mark.parametrize("q, n", [(2, 4), (3, 3), (4, 3)])
    def test_every_route_hashes_and_compares_equal(self, q, n):
        ctx, rng = field(q), random.Random(f"hash {q} {n}")
        for d in range(n + 1):
            enumerated = list(enumerate_subspaces(ctx, n, d))
            for space in enumerated:
                # spanning rows: the basis plus a random combination of it, shuffled
                extra = [0] * n
                for row in space.rows:
                    c = rng.randrange(q)
                    extra = [ctx.add(a, ctx.mul(c, b)) for a, b in zip(extra, row)]
                spanning = [list(row) for row in space.rows] + [extra]
                rng.shuffle(spanning)
                routes = [
                    space,
                    canonicalize(ctx, n, spanning),
                    subspace_at(ctx, n, index_of(space)),
                    Subspace(ctx, n, space.rows),
                ]
                assert not any(hasattr(s, "_hash") for s in routes)
                for rounds in range(2):  # before any hash, then with every hash kept
                    for a in routes:
                        for b in routes:
                            assert a == b and hash(a) == hash(b)
                    assert all(hasattr(s, "_hash") for s in routes), rounds
                assert hash(space) == hash((ctx, n, space.rows))
            # members loaded from JSON were hashed by the duplicate check
            loaded = family_from_dict(family_to_dict(Family(ctx, n, tuple(enumerated))))
            assert all(hasattr(s, "_hash") for s in loaded)
            assert loaded.members == tuple(enumerated)
            assert list(map(hash, loaded)) == list(map(hash, enumerated))
            assert {s: i for i, s in enumerate(loaded)} == {s: i for i, s in enumerate(enumerated)}

    def test_unequal_values_stay_apart(self):
        # equal hashes never make equal values: eq reads the fields only
        ctx = field(2)
        a, b = Subspace(ctx, 3, ((1, 0, 0),)), Subspace(ctx, 3, ((0, 1, 0),))
        hash(a)
        object.__setattr__(b, "_hash", a._hash)
        assert a != b and hash(a) == hash(b) and len({a, b}) == 2
        assert Subspace(field(3), 3, a.rows) != a and Subspace(ctx, 4, ((1, 0, 0, 0),)) != a

    def test_global_index_rejects_outsiders_once_hashed(self):
        lat = lattice(field(2), 3)
        outsiders = [
            Subspace(field(2), 4, ((1, 0, 0, 0),)),
            Subspace(field(3), 3, ((1, 0, 0),)),
            Subspace(field(4), 3, ((1, 0, 0),)),
            Subspace(field(2), 2, ()),
        ]
        for space in outsiders:
            for _ in range(2):  # with the hash not yet kept, then kept
                with pytest.raises(DomainError):
                    lat.global_index(space)
            assert hasattr(space, "_hash")
        inside = Subspace(field(2), 3, ((1, 0, 0), (0, 1, 0)))
        assert lat.global_index(inside) == lat.global_index(inside) == 11


class TestContainmentVector:
    def test_plane_blocks(self):
        plane = Subspace(field(2), 3, ((1, 0, 0), (0, 1, 0)))
        cv = containment_vector(plane, 2)
        assert cv.block(0) == (1,)
        assert cv.block(1) == (0, 1, 0, 1, 0, 1, 0)
        assert sum(cv.block(1)) == qbinom(2, 1, 2)
        assert cv.block(2) == (0, 0, 0, 1, 0, 0, 0)

    def test_get_is_one_indexed(self):
        plane = Subspace(field(2), 3, ((1, 0, 0), (0, 1, 0)))
        cv = containment_vector(plane, 2)
        assert cv.get(2, 4) == 1
        assert cv.get(0, 1) == 1
        with pytest.raises(DomainError):
            cv.get(1, 0)
        with pytest.raises(DomainError):
            cv.get(1, 8)
        with pytest.raises(DomainError):
            cv.get(3, 1)

    def test_cap_above_ambient_gives_empty_blocks(self):
        line = Subspace(field(2), 2, ((1, 0),))
        cv = containment_vector(line, 4)
        assert cv.block(3) == ()
        assert cv.block(4) == ()
        assert sum(len(cv.block(x)) for x in range(5)) == lattice_size(2, 2)

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 3), (5, 2)])
    def test_blocks_match_contains_reference(self, q, n):
        F = field(q)
        subs = lattice(F, n).subspaces
        for space in subs:
            reference = [
                tuple(int(contains(space, cand)) for cand in enumerate_subspaces(F, n, x))
                for x in range(n + 1)
            ]
            for cap in range(n + 2):
                cv = containment_vector(space, cap)
                for x in range(cap + 1):
                    assert cv.block(x) == (reference[x] if x <= n else ()), (space, cap, x)

    def test_cap_zero_builds_no_line_mask(self):
        # [30 1]_2 lines are far over the default budget; cap 0 never needs them
        line = Subspace(field(2), 30, ((1,) + (0,) * 29,))
        cv = containment_vector(line, 0)
        assert cv.block(0) == (1,)
        assert cv.mask == 1

    def test_block_ones_count_dim_counts(self):
        # an s-dim carrier holds qbinom(s, x, q) subspaces of dimension x
        space = Subspace(field(3), 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        cv = containment_vector(space, 3)
        for x in range(4):
            assert sum(cv.block(x)) == qbinom(3, x, 3)
