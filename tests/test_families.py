"""Family checkers, bound evaluators, partitions, and the Gram rank argument."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlattice import (
    BoundReport,
    DomainError,
    Family,
    FractionSet,
    ModularProfile,
    ResourceLimitError,
    StructureError,
    Subspace,
    UnsupportedParametersError,
    bound_frac_general,
    bound_frankl_graham,
    bound_singleton,
    bound_theorem1,
    build_graph,
    check_fractional,
    check_modular,
    det_bareiss,
    enumerate_subspaces,
    family_from_dict,
    family_to_dict,
    field,
    fractional_cell_bound,
    fractions_from_strings,
    fractions_to_strings,
    gen_example_bisection,
    gen_example_uniform,
    gram_analysis,
    intersect,
    integer_rank,
    partition_jk,
    partition_mod_prime,
    power_cell,
    profile_from_dict,
    qbinom,
    shared_line_counts,
)
from qlattice.families import CheckResult, _bareiss, offending_pairs, partition_dims
from qlattice.budgets import budget
from qlattice.gfspace import canonicalize, lattice, line_mask, meet_dim


def coordinate_subspace(ctx, n, dim):
    rows = tuple(tuple(1 if c == i else 0 for c in range(n)) for i in range(dim))
    return Subspace(ctx, n, rows)


class TestFamilyType:
    def test_duplicates_rejected(self):
        F2 = field(2)
        s = Subspace(F2, 3, ((0, 0, 1),))
        with pytest.raises(DomainError):
            Family(F2, 3, (s, s))

    def test_mixed_ambient_rejected(self):
        F2 = field(2)
        a = Subspace(F2, 3, ((0, 0, 1),))
        b = Subspace(F2, 4, ((0, 0, 0, 1),))
        with pytest.raises(DomainError):
            Family(F2, 3, (a, b))

    def test_dims(self):
        F2 = field(2)
        fam = Family(F2, 3, tuple(enumerate_subspaces(F2, 3, 2)))
        assert fam.dims == (2,) * 7

    def test_json_round_trip(self):
        F2 = field(2)
        fam = Family(F2, 3, tuple(enumerate_subspaces(F2, 3, 2))[:3])
        d = family_to_dict(fam)
        assert set(d) == {"q", "n", "subspaces"}
        assert family_from_dict(d) == fam

    def test_load_canonicalizes(self):
        d = {"q": {"p": 2, "e": 1}, "n": 3, "subspaces": [[[1, 1, 0], [0, 1, 0]]]}
        fam = family_from_dict(d)
        assert fam.members[0].rows == ((1, 0, 0), (0, 1, 0))


class TestProfileAndFractions:
    def test_profile_validation(self):
        with pytest.raises(DomainError):
            ModularProfile(1, (0,), ())
        with pytest.raises(DomainError):
            ModularProfile(3, (2,), (2,))  # K and L overlap
        with pytest.raises(DomainError):
            ModularProfile(3, (3,), (1,))  # residue out of range
        with pytest.raises(DomainError):
            ModularProfile(3, (-1,), (1,))

    def test_profile_r_s(self):
        p = ModularProfile(5, (1, 2), (0, 3, 4))
        assert p.r == 2 and p.s == 3

    def test_profile_json_round_trip(self):
        p = ModularProfile(3, (2,), (1,))
        d = p.to_dict()
        assert d == {"b": 3, "K": [2], "L": [1]}
        assert profile_from_dict(d) == p

    def test_fraction_validation(self):
        with pytest.raises(DomainError):
            FractionSet(((2, 4),))  # not reduced
        with pytest.raises(DomainError):
            FractionSet(((0, 2),))  # zero numerator
        with pytest.raises(DomainError):
            FractionSet(((3, 2),))  # improper
        with pytest.raises(DomainError):
            FractionSet(((1, 2), (1, 2)))

    def test_fractions_sorted_by_value(self):
        fs = FractionSet(((2, 3), (1, 2), (1, 3)))
        assert fs.fractions == ((1, 3), (1, 2), (2, 3))
        assert fs.max_denominator == 3

    def test_order_matches_fraction_order(self):
        # the set is sorted by cross-multiplication; Fraction is the oracle
        from fractions import Fraction

        rng = random.Random(2020)
        for trial in range(300):
            top = rng.choice((10, 10 ** 6, 10 ** 40, 2 ** 200))
            size, pairs = rng.randint(1, 12), set()
            while len(pairs) < size:
                b = rng.randint(2, top)
                a = rng.randint(1, b - 1)
                g = math.gcd(a, b)
                pairs.add((a // g, b // g))
                if b < top // 2:
                    # a neighbour one part in 2b^2 away
                    near = Fraction(a, b) + Fraction(1, 2 * b * b)
                    if near < 1:
                        pairs.add((near.numerator, near.denominator))
            items = list(pairs)
            rng.shuffle(items)
            fs = FractionSet(tuple(items))
            assert fs.fractions == tuple(sorted(items, key=lambda ab: Fraction(*ab))), trial

    def test_list_fractions_are_stored_as_tuples(self):
        from_lists = FractionSet([[1, 2], [1, 3]])
        from_tuples = FractionSet(((1, 3), (1, 2)))
        assert from_lists.fractions == ((1, 3), (1, 2))
        assert from_lists == from_tuples
        assert hash(from_lists) == hash(from_tuples)
        assert len({from_lists, from_tuples}) == 1
        F2 = field(2)
        assert build_graph(F2, 3, from_lists) == build_graph(F2, 3, from_tuples)

    def test_profile_rules(self):
        p = ModularProfile(4, (1, 2), (0, 3))
        assert [d for d in range(9) if p.admits(d)] == [1, 2, 5, 6]
        assert [d for d in range(9) if p.meets(d, 5, 6)] == [0, 3, 4, 7, 8]

    def test_fraction_rules(self):
        fs = FractionSet(((1, 3), (1, 2)))
        assert [d for d in range(5) if fs.admits(d)] == [1, 2, 3, 4]
        # 1/3 of 6 or 1/2 of 4 or 6, exactly; no rounding of 1/3 of 4
        assert [d for d in range(7) if fs.meets(d, 4, 6)] == [2, 3]
        assert [d for d in range(7) if fs.meets(d, 4, 5)] == [2]
        # every fraction of dimension 0 is 0: the meet rule alone would
        # admit the zero subspace next to anything
        assert fs.meets(0, 0, 5)

    def test_fraction_strings(self):
        fs = fractions_from_strings(["1/2", "2/3"])
        assert fs.fractions == ((1, 2), (2, 3))
        assert fractions_to_strings(fs) == ["1/2", "2/3"]
        for bad in ("2/4", "1/0", "0/3", "3/2", "x/2", "1/2/3", "", "1"):
            with pytest.raises(DomainError):
                fractions_from_strings([bad])


class TestSharedLineCounts:
    def test_table_matches_meets(self):
        rng = random.Random(16)
        predicates = []
        for _ in range(10):
            b = rng.randint(2, 6)
            residues = rng.sample(range(b), rng.randint(1, b))
            cut = rng.randint(0, len(residues) - 1)
            predicates.append(ModularProfile(b, tuple(residues[:cut]), tuple(residues[cut:])))
        for _ in range(10):
            pairs = set()
            while len(pairs) < rng.randint(1, 4):
                b = rng.randint(2, 7)
                a = rng.randint(1, b - 1)
                pairs.add((a // math.gcd(a, b), b // math.gcd(a, b)))
            predicates.append(FractionSet([list(pair) for pair in pairs]))
        # each table is asked for twice, so the second answer comes from the cache
        asks = [(pred, n, q) for pred in predicates for n in range(7) for q in (2, 3, 4)] * 2
        rng.shuffle(asks)
        for pred, n, q in asks:
            table = shared_line_counts(pred, n, q)
            assert isinstance(table, tuple) and len(table) == n + 1
            for di, dj in itertools.product(range(n + 1), repeat=2):
                allowed = table[di][dj]
                assert isinstance(allowed, frozenset)
                counts = {qbinom(d, 1, q): d for d in range(min(di, dj) + 1)}
                assert allowed <= counts.keys()
                for count, d in counts.items():
                    assert (count in allowed) == pred.meets(d, di, dj), (pred, n, q, di, dj, d)


def _reference_offending_pairs(family, predicate):
    """offending_pairs as one predicate.meets call per pair, meets built by intersect."""
    for i, vi in enumerate(family):
        for j in range(i + 1, len(family)):
            vj = family[j]
            d = intersect(vi, vj).dim
            if not predicate.meets(d, vi.dim, vj.dim):
                yield i, j, d


class _CountingPredicate:
    """A predicate that records each meets call it answers."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def meets(self, d, di, dj):
        self.calls.append((d, di, dj))
        return self.inner.meets(d, di, dj)


def _random_predicates(rng, count):
    predicates = []
    for _ in range(count):
        b = rng.randint(2, 5)
        residues = rng.sample(range(b), rng.randint(1, b))
        cut = rng.randint(0, len(residues) - 1)
        predicates.append(ModularProfile(b, tuple(residues[:cut]), tuple(residues[cut:])))
        pairs = {(1, 2)} if rng.random() < 0.3 else set()
        while len(pairs) < rng.randint(1, 3):
            b = rng.randint(2, 6)
            a = rng.randint(1, b - 1)
            pairs.add((a // math.gcd(a, b), b // math.gcd(a, b)))
        predicates.append(FractionSet(tuple(pairs)))
    return predicates


class TestOffendingPairs:
    @pytest.mark.parametrize("q,n", [(2, 5), (3, 3), (4, 3)])
    def test_table_matches_per_pair_meets(self, q, n):
        rng = random.Random(180 + 10 * q + n)
        subs = list(lattice(field(q), n).subspaces)
        predicates = _random_predicates(rng, 6)
        for _ in range(8):
            family = Family(field(q), n, tuple(rng.sample(subs, rng.randint(0, 14))))
            for predicate in predicates:
                want = list(_reference_offending_pairs(family, predicate))
                assert list(offending_pairs(family, predicate)) == want, (family.dims, predicate)

    def test_half_depends_on_which_member(self):
        # 1/2 of dim 2 allows a meet of 1, 1/2 of dim 4 a meet of 2
        F2, n = field(2), 5
        plane = canonicalize(F2, n, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
        space = canonicalize(F2, n, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]])
        other = canonicalize(F2, n, [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1]])
        spread = canonicalize(F2, n, [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
        family = Family(F2, n, (plane, space, other, spread))
        assert family.dims == (2, 4, 2, 4)
        half = FractionSet(((1, 2),))
        got = list(offending_pairs(family, half))
        # plane ⊂ space (2 = half of 4), other meets space in a line (1 = half
        # of 2), plane and other are disjoint, the two 4-spaces meet in dim 3
        assert got == list(_reference_offending_pairs(family, half))
        assert got == [(0, 2, 0), (1, 3, 3)]
        assert [meet_dim(family[i], family[j]) for i, j in ((0, 1), (1, 2), (0, 3), (2, 3))] == [
            2, 1, 1, 2
        ]
        reversed_family = Family(F2, n, family.members[::-1])
        assert list(offending_pairs(reversed_family, half)) == [(0, 2, 3), (1, 3, 0)]

    @pytest.mark.parametrize("make", [
        lambda: ModularProfile(3, (1, 2), (0,)),
        lambda: FractionSet(((1, 2), (1, 3))),
    ], ids=["modular", "fractional"])
    def test_table_asks_only_for_dimensions_that_occur(self, make):
        subs = list(lattice(field(2), 5).subspaces)
        rng = random.Random(7)
        family = Family(field(2), 5, tuple(rng.sample([s for s in subs if s.dim in (1, 4)], 10)))
        counting = _CountingPredicate(make())
        list(offending_pairs(family, counting))
        dims = set(family.dims)
        assert dims == {1, 4}
        assert len(counting.calls) == len(set(counting.calls))
        assert {(di, dj) for _, di, dj in counting.calls} == set(itertools.product(dims, repeat=2))
        assert all(0 <= d <= min(di, dj) for d, di, dj in counting.calls)

    def test_empty_family_asks_nothing(self):
        counting = _CountingPredicate(FractionSet(((1, 2),)))
        with budget(lattice=1):
            assert list(offending_pairs(Family(field(256), 100000, ()), counting)) == []
        assert counting.calls == []


class TestCheckers:
    def test_modular_pass_on_planes(self):
        F2 = field(2)
        fam = Family(F2, 3, tuple(enumerate_subspaces(F2, 3, 2)))
        res = check_modular(fam, ModularProfile(3, (2,), (1,)))
        assert res.ok and res.witness is None

    def test_modular_pair_witness(self):
        F2 = field(2)
        fam = Family(F2, 3, tuple(enumerate_subspaces(F2, 3, 2)))
        res = check_modular(fam, ModularProfile(3, (2,), (0,)))
        assert not res.ok
        assert res.witness == (0, 1)

    def test_modular_member_witness(self):
        F2 = field(2)
        fam = Family(F2, 3, tuple(enumerate_subspaces(F2, 3, 2)))
        res = check_modular(fam, ModularProfile(3, (1,), (0,)))
        assert not res.ok
        assert res.witness == (0,)

    def test_modular_vacuous(self):
        F2 = field(2)
        prof = ModularProfile(3, (2,), (1,))
        assert check_modular(Family(F2, 3, ()), prof).ok
        single = Family(F2, 3, (next(iter(enumerate_subspaces(F2, 3, 2))),))
        assert check_modular(single, prof).ok

    def test_fractional_pass_on_bisection(self):
        ex = gen_example_bisection(3, 2)
        assert check_fractional(ex.family, ex.fractions).ok

    def test_fractional_disjoint_pair_fails(self):
        F2 = field(2)
        fam = Family(
            F2, 4, (Subspace(F2, 4, ((1, 0, 0, 0),)), Subspace(F2, 4, ((0, 1, 0, 0),)))
        )
        res = check_fractional(fam, FractionSet(((1, 2),)))
        assert not res.ok and res.witness == (0, 1)

    def test_fractional_singleton_passes(self):
        F2 = field(2)
        fam = Family(F2, 4, (Subspace(F2, 4, ((1, 0, 0, 0),)),))
        assert check_fractional(fam, FractionSet(((1, 2),))).ok

    def test_fractional_zero_subspace_fails_as_a_member(self):
        # the search graph has no dimension-0 vertex; the checker agrees,
        # and the family stays within bound_frac_general's 2
        F2 = field(2)
        zero = canonicalize(F2, 2, [])
        line, plane = canonicalize(F2, 2, [[1, 0]]), canonicalize(F2, 2, [[1, 0], [0, 1]])
        fs = fractions_from_strings(["1/2", "1/3", "1/4"])
        res = check_fractional(Family(F2, 2, (zero, line, plane)), fs)
        assert res == CheckResult(False, (0,), "member 0 has dim 0, not positive")
        assert check_fractional(Family(F2, 2, (line, plane)), fs).ok
        assert bound_frac_general(2, 2, fs).bound == 2
        # members are checked before pairs, as in check_modular
        other = canonicalize(F2, 2, [[0, 1]])
        res = check_fractional(Family(F2, 2, (line, other, zero)), FractionSet(((1, 2),)))
        assert res.witness == (2,)

    def test_fractional_exact_arithmetic(self):
        # dims 3 and 2 with intersection dim 1: 1/2 matches via the dim-2 member,
        # 1/3 matches via the dim-3 member
        F2 = field(2)
        a = coordinate_subspace(F2, 5, 3)
        b = Subspace(F2, 5, ((1, 0, 0, 0, 0), (0, 0, 0, 1, 0)))
        fam = Family(F2, 5, (a, b))
        assert check_fractional(fam, FractionSet(((1, 2),))).ok
        assert check_fractional(fam, FractionSet(((1, 3),))).ok
        assert not check_fractional(fam, FractionSet(((2, 3),))).ok
        # the detail names the pair's dims in member order
        res = check_fractional(Family(F2, 5, (b, a)), FractionSet(((2, 3),)))
        assert res.detail == "pair (0, 1) meets in dim 1, no listed fraction of dims 2 or 3"


# The checkers as they were before meet_dim: each pair's meet is built with
# intersect. Kept as the oracle the rank-based checkers must agree with.
def _oracle_check_modular(family, profile):
    b = profile.b
    for i, m in enumerate(family):
        if m.dim % b not in profile.K:
            return CheckResult(
                False, (i,), f"member {i} has dim {m.dim} ≡ {m.dim % b} (mod {b}), not in K"
            )
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            d = intersect(family[i], family[j]).dim
            if d % b not in profile.L:
                return CheckResult(
                    False, (i, j), f"pair ({i}, {j}) meets in dim {d} ≡ {d % b} (mod {b}), not in L"
                )
    return CheckResult(True, None, "all members and pairs conform")


def _oracle_check_fractional(family, fractions):
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            vi, vj = family[i], family[j]
            d = intersect(vi, vj).dim
            if not any(d * b == a * vi.dim or d * b == a * vj.dim for a, b in fractions):
                return CheckResult(
                    False,
                    (i, j),
                    f"pair ({i}, {j}) meets in dim {d}, no listed fraction of dims "
                    f"{vi.dim} or {vj.dim}",
                )
    return CheckResult(True, None, "all members and pairs conform")


def _with_stray_plane(k, s, q):
    """gen_example_uniform(k, s, q) with one plane inserted mid-family."""
    ex = gen_example_uniform(k, s, q)
    members = list(ex.family.members)
    plane = next(p for p in enumerate_subspaces(ex.family.ctx, ex.family.n, 2) if p not in members)
    members.insert(len(members) // 2, plane)
    return Family(ex.family.ctx, ex.family.n, tuple(members))


ORACLE_FAMILIES = [
    *(gen_example_uniform(k, s, q).family for k, s, q in [(2, 1, 2), (1, 2, 3), (2, 2, 2)]),
    *(_with_stray_plane(k, s, q) for k, s, q in [(1, 2, 2), (3, 1, 2), (1, 3, 2), (1, 2, 3)]),
    *(gen_example_bisection(n, q).family for n, q in [(3, 2), (4, 2), (4, 3), (5, 2)]),
]
ORACLE_PROFILES = [
    ModularProfile(b, K, L)
    for b in (2, 3)
    for K in itertools.chain.from_iterable(
        itertools.combinations(range(b), r) for r in range(1, b)
    )
    for L in itertools.chain.from_iterable(
        itertools.combinations(sorted(set(range(b)) - set(K)), r) for r in range(1, b)
    )
]
ORACLE_FRACTIONS = [
    FractionSet(fr) for fr in [((1, 2),), ((1, 3),), ((1, 2), (2, 3)), ((1, 3), (1, 2)), ((3, 4),)]
]


class TestCheckersMatchIntersectOracle:
    @pytest.mark.parametrize("index", range(len(ORACLE_FAMILIES)))
    def test_modular(self, index):
        family = ORACLE_FAMILIES[index]
        for profile in ORACLE_PROFILES:
            assert check_modular(family, profile) == _oracle_check_modular(family, profile), profile

    @pytest.mark.parametrize("index", range(len(ORACLE_FAMILIES)))
    def test_fractional(self, index):
        family = ORACLE_FAMILIES[index]
        for fractions in ORACLE_FRACTIONS:
            got = check_fractional(family, fractions)
            assert got == _oracle_check_fractional(family, fractions), fractions

    def test_oracle_cases_cover_both_verdicts(self):
        verdicts = {
            (check_modular(f, p).ok, len(check_modular(f, p).witness or ()))
            for f in ORACLE_FAMILIES
            for p in ORACLE_PROFILES
        }
        assert verdicts == {(True, 0), (False, 1), (False, 2)}
        assert {check_fractional(f, fr).ok for f in ORACLE_FAMILIES for fr in ORACLE_FRACTIONS} == {
            True,
            False,
        }


class TestLargeAmbient:
    def test_gf256_40_family_checks_without_a_lattice(self):
        # any lattice or line mask of GF(256)^40 would trip a budget of 1
        ctx, n = field(256), 40
        rng = random.Random(11)
        vectors = [[rng.randrange(256) for _ in range(n)] for _ in range(33)]
        with budget(lattice=1):
            assert canonicalize(ctx, n, vectors).dim == 33
            a, b = canonicalize(ctx, n, vectors[:20]), canonicalize(ctx, n, vectors[13:])
            fam = Family(ctx, n, (a, b))  # dims 20 and 20, meeting in dim 7
            assert check_modular(fam, ModularProfile(3, (2,), (1,))).ok
            res = check_modular(fam, ModularProfile(3, (2,), (0,)))
            assert (res.ok, res.witness) == (False, (0, 1))
            assert res.detail == "pair (0, 1) meets in dim 7 ≡ 1 (mod 3), not in L"
            assert check_fractional(fam, FractionSet(((7, 20),))).ok
            res = check_fractional(fam, FractionSet(((1, 2),)))
            assert (res.ok, res.witness) == (False, (0, 1))
            with pytest.raises(ResourceLimitError):
                line_mask(a)


class TestBoundTheorem1:
    def test_tight_case(self):
        rep = bound_theorem1(3, 2, ModularProfile(3, (2,), (1,)))
        assert rep.bound == 7
        assert rep.branch == "both-disjuncts"
        assert rep.theorem_id == "theorem_main"
        assert rep.auxiliaries["p"] == "7"

    def test_otherwise_branch(self):
        rep = bound_theorem1(2, 2, ModularProfile(5, (1,), (0, 2, 3, 4)))
        assert rep.bound == 3
        assert rep.branch == "otherwise"
        assert rep.auxiliaries["correction"] == "3"

    def test_second_disjunct(self):
        rep = bound_theorem1(3, 2, ModularProfile(4, (2,), (0, 1)))
        assert rep.bound == 7
        assert rep.branch == "second-disjunct"

    def test_first_disjunct(self):
        # s + k_max <= n and r(s-r+1) <= b-1 hold; s < k_min + r fails
        rep = bound_theorem1(6, 2, ModularProfile(4, (1,), (0, 2)))
        assert rep.branch == "first-disjunct"
        assert rep.bound == qbinom(6, 2, 2) == 651

    def test_zsigmondy_exceptions(self):
        with pytest.raises(UnsupportedParametersError) as exc:
            bound_theorem1(6, 2, ModularProfile(6, (1,), (0,)))
        assert exc.value.clause == "q_2_b_6"
        with pytest.raises(UnsupportedParametersError) as exc:
            bound_theorem1(6, 3, ModularProfile(2, (1,), (0,)))
        assert exc.value.clause == "q_plus_one_power_of_two"

    def test_empty_parts_rejected(self):
        with pytest.raises(DomainError):
            bound_theorem1(3, 2, ModularProfile(3, (), (1,)))
        with pytest.raises(DomainError):
            bound_theorem1(3, 2, ModularProfile(3, (2,), ()))

    def test_report_shape(self):
        rep = bound_theorem1(3, 2, ModularProfile(3, (2,), (1,)))
        d = rep.to_json_dict()
        assert set(d) == {"theorem_id", "inputs", "branch", "bound", "auxiliaries"}
        assert d["bound"] == 7


class TestFranklGraham:
    def test_reduces_to_theorem1(self):
        fg = bound_frankl_graham(3, 2, 2, 3, (1,))
        t1 = bound_theorem1(3, 2, ModularProfile(3, (2,), (1,)))
        assert fg.bound == t1.bound == 7
        assert fg.theorem_id == "frankl_graham"
        assert fg.inputs_echo["k"] == 2

    def test_is_theorem1_under_its_own_id(self):
        # the "otherwise" branch adds a correction, the disjuncts do not
        cases = ((2, 4, (0, 2), "otherwise"), (3, 5, (0, 1), "second-disjunct"))
        for n, k, mus, branch in cases:
            fg = bound_frankl_graham(n, 2, k, 3, mus)
            t1 = bound_theorem1(n, 2, ModularProfile(3, (k % 3,), mus))
            assert fg == BoundReport(
                "frankl_graham", {**t1.inputs_echo, "k": k}, branch, t1.bound, t1.auxiliaries
            )
            assert t1.branch == branch and t1.theorem_id == "theorem_main"
            assert "k" not in t1.inputs_echo

    def test_k_reduced_mod_b(self):
        fg = bound_frankl_graham(3, 2, 5, 3, (1,))
        assert fg.bound == bound_frankl_graham(3, 2, 2, 3, (1,)).bound

    def test_exceptional_pair_inherited(self):
        with pytest.raises(UnsupportedParametersError):
            bound_frankl_graham(8, 2, 1, 6, (0, 2, 3))


class TestBoundFracGeneral:
    def test_full_branch_value(self):
        rep = bound_frac_general(4, 2, FractionSet(((1, 2),)))
        assert rep.bound == 713
        assert rep.branch == "full"
        assert rep.auxiliaries["decimal"].startswith("712.401")

    def test_n16_spot(self):
        rep = bound_frac_general(16, 2, FractionSet(((1, 2),)))
        assert rep.branch == "full"
        assert rep.bound == 7266801
        assert rep.auxiliaries["g"] == "7.081026202669314"
        assert rep.auxiliaries["h"] == "4.0"

    def test_refined_branch_reachable(self):
        rep = bound_frac_general(64, 2, FractionSet(((1, 2),)))
        assert rep.branch == "refined"

    def test_s1_second_sum_empty(self):
        # with one fraction the correction sum has no terms, so both branches agree
        import math

        from qlattice import g_of, h_of

        rep = bound_frac_general(8, 2, FractionSet(((1, 2),)))
        g, h = g_of(2, 8), h_of(2, 8)
        expected = 2 * g * h * math.log(g) * qbinom(8, 1, 2)
        assert rep.bound == math.ceil(expected)

    def test_monotone_in_n(self):
        for frs in (FractionSet(((1, 2),)), FractionSet(((1, 2), (2, 3)))):
            prev = 0
            for n in range(4, 65):
                bound = bound_frac_general(n, 2, frs).bound
                assert bound >= prev, n
                prev = bound

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            bound_frac_general(1, 2, FractionSet(((1, 2),)))

    def test_empty_fractions_rejected(self):
        with pytest.raises(DomainError):
            bound_frac_general(4, 2, FractionSet(()))


class TestBoundSingleton:
    def test_values(self):
        assert bound_singleton(3, 2, 1, 2).bound == 18
        assert bound_singleton(4, 2, 1, 2).bound == 34
        assert bound_singleton(5, 2, 1, 2).bound == 98

    def test_n1_degenerate(self):
        rep = bound_singleton(1, 2, 1, 2)
        assert rep.bound == 2
        assert rep.branch == "exact"

    def test_composite_denominator_rejected(self):
        with pytest.raises(DomainError):
            bound_singleton(4, 2, 1, 4)

    def test_unreduced_rejected(self):
        with pytest.raises(DomainError):
            bound_singleton(4, 2, 2, 2)

    def test_dominates_bisection_sizes(self):
        for n in (3, 4, 5):
            ex = gen_example_bisection(n, 2)
            assert len(ex.family.members) <= bound_singleton(n, 2, 1, 2).bound


class TestPartitions:
    def test_mod_prime_cells(self):
        F2 = field(2)
        members = tuple(coordinate_subspace(F2, 8, d) for d in (2, 4, 7))
        fam = Family(F2, 8, members)
        cells = partition_mod_prime(fam, 5)
        assert sorted(cells) == [2, 4]
        assert [m.dim for m in cells[2].members] == [2, 7]
        assert [m.dim for m in cells[4].members] == [4]

    def test_mod_prime_large_p_uses_dims(self):
        F2 = field(2)
        members = tuple(coordinate_subspace(F2, 5, d) for d in (1, 2, 3))
        cells = partition_mod_prime(Family(F2, 5, members), 7)
        assert sorted(cells) == [1, 2, 3]

    def test_mod_prime_empty(self):
        assert partition_mod_prime(Family(field(2), 3, ()), 5) == {}

    def test_mod_prime_requires_prime(self):
        with pytest.raises(DomainError):
            partition_mod_prime(Family(field(2), 3, ()), 6)

    def test_power_cell_spots(self):
        assert power_cell(12, 2) == (1, 2, 1)
        assert power_cell(15, 3) == (2, 1, 1)
        assert power_cell(8, 2) == (1, 3, 0)
        assert power_cell(0, 2) is None

    def test_jk_exact_powers(self):
        F2 = field(2)
        members = tuple(coordinate_subspace(F2, 9, d) for d in (2, 4, 8))
        part = partition_jk(Family(F2, 9, members), 2)
        assert sorted(part.cells) == [(1, 1), (1, 2), (1, 3)]
        assert part.leftovers == ()

    def test_jk_leftovers(self):
        F2 = field(2)
        members = (
            coordinate_subspace(F2, 6, 0),
            coordinate_subspace(F2, 6, 3),
            coordinate_subspace(F2, 6, 4),
        )
        part = partition_jk(Family(F2, 6, members), 2)
        # zero-dim member and the single b-indivisible member are set aside
        assert part.leftovers == (0, 1)
        assert part.cells == {(1, 2): (2,)}

    def test_jk_two_stray_dims_rejected(self):
        F2 = field(2)
        members = (coordinate_subspace(F2, 6, 3), coordinate_subspace(F2, 6, 5))
        with pytest.raises(StructureError):
            partition_jk(Family(F2, 6, members), 2)

    def test_jk_json_shape(self):
        F2 = field(2)
        members = tuple(coordinate_subspace(F2, 9, d) for d in (2, 4))
        part = partition_jk(Family(F2, 9, members), 2)
        assert part.to_json_dict() == {"cells": {"1,1": [0], "1,2": [1]}, "leftovers": []}

    @given(
        b=st.sampled_from([2, 3, 5, 7]),
        dims=st.lists(st.integers(0, 200), min_size=0, max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_jk_reconstruction_fuzz(self, b, dims):
        stray = [d for d in dims if d > 0 and d % b != 0]
        if len(stray) >= 2:
            with pytest.raises(StructureError):
                partition_dims(dims, b)
            return
        cells, leftovers = partition_dims(dims, b)
        seen = sorted(i for idxs in cells.values() for i in idxs) + sorted(leftovers)
        assert sorted(seen) == list(range(len(dims)))
        for (j, k), idxs in cells.items():
            assert 1 <= j < b and k >= 1
            for i in idxs:
                d = dims[i]
                r = (d - j * b**k) // b ** (k + 1)
                assert r >= 0
                assert d == r * b ** (k + 1) + j * b**k

    def test_cell_pairs_share_residue(self):
        # within one (j,k) cell, dims agree mod b^(k+1)
        rng = random.Random(5)
        for _ in range(50):
            b = rng.choice([2, 3, 5])
            dims = [rng.randrange(0, 100) for _ in range(8)]
            stray = [d for d in dims if d > 0 and d % b != 0]
            if len(stray) >= 2:
                continue
            cells, _ = partition_dims(dims, b)
            for (j, k), idxs in cells.items():
                residues = {dims[i] % b ** (k + 1) for i in idxs}
                assert residues == {j * b**k}


class TestFractionalCellBound:
    def test_residues_and_base_branch(self):
        prof, rep = fractional_cell_bound(6, 2, FractionSet(((1, 2),)), 3, 1)
        assert (prof.b, prof.K, prof.L) == (3, (1,), (2,))
        assert rep.bound == qbinom(6, 1, 2) == 63
        assert rep.branch == "cell-base"

    def test_residues_k2(self):
        prof, rep = fractional_cell_bound(6, 2, FractionSet(((1, 2),)), 3, 2)
        assert (prof.K, prof.L) == ((2,), (1,))
        assert rep.branch == "cell-base"

    def test_augmented_branch(self):
        prof, rep = fractional_cell_bound(3, 2, FractionSet(((1, 2), (1, 3))), 5, 1)
        assert prof.L == (2, 3)
        assert rep.branch == "cell-augmented"
        assert rep.bound == qbinom(3, 2, 2) + qbinom(3, 1, 2) == 14
        assert rep.auxiliaries["s_prime"] == "2"

    def test_duplicate_residues_collapse(self):
        # 2/3 and 3/11 agree mod 13 (2*11 = 3*3 + 13), so two fractions
        # contribute a single residue
        prof, rep = fractional_cell_bound(10, 2, FractionSet(((2, 3), (3, 11))), 13, 1)
        assert prof.L == (5,)
        assert rep.auxiliaries["s_prime"] == "1"
        assert rep.bound == qbinom(10, 1, 2) == 1023
        assert rep.branch == "cell-base"

    def test_validation(self):
        fs = FractionSet(((1, 2),))
        with pytest.raises(DomainError):
            fractional_cell_bound(6, 2, fs, 4, 1)  # p not prime
        with pytest.raises(DomainError):
            fractional_cell_bound(6, 2, FractionSet(((1, 3),)), 3, 1)  # p <= max denom
        with pytest.raises(DomainError):
            fractional_cell_bound(6, 2, fs, 3, 0)
        with pytest.raises(DomainError):
            fractional_cell_bound(6, 2, fs, 3, 3)

    def test_derived_profile_accepts_bisection(self):
        ex = gen_example_bisection(4, 2)
        prof, _ = fractional_cell_bound(4, 2, ex.fractions, 3, 2)
        assert check_modular(ex.family, prof).ok

    def test_cell_size_respects_bound(self):
        ex = gen_example_bisection(4, 2)
        cells = partition_mod_prime(ex.family, 3)
        for k, cell in cells.items():
            if k == 0:
                continue
            _, rep = fractional_cell_bound(4, 2, ex.fractions, 3, k)
            assert len(cell.members) <= rep.bound


class TestExactLinearAlgebra:
    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20201)
        for _ in range(200):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            # a product through k inner dimensions has rank at most k
            k = rng.randint(0, min(rows, cols))
            a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(rows)]
            b = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(k)]
            m = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]
            assert integer_rank(m) == sympy.Matrix(m).rank(), m
            if rows == cols:
                assert det_bareiss(m) == sympy.Matrix(m).det(), m

    def test_one_elimination_of_p_gives_rank_of_n_and_det_of_p(self):
        # N = d·P entrywise, so rank(N) = rank(P); gram_analysis reads both
        # rank(N) and det(P) from a single _bareiss of P
        rng = random.Random(1302)
        for _ in range(200):
            m, k, d = rng.randint(1, 7), rng.randint(0, 7), rng.choice((1, 3, 7, 2 ** 61 - 1))
            a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
            b = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)]
            p = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(m)]
            rank, last, minor = _bareiss([list(row) for row in p])
            assert rank == integer_rank([[d * v for v in row] for row in p]), (p, d)
            assert (last if rank == m else 0) == det_bareiss(p), p
            assert minor == 1  # the empty leading block

    @staticmethod
    def _leading_singular(rng, m):
        # a leading (m-1)×(m-1) block of rank m - 2, bordered by a random
        # last row and column, so the whole is usually nonsingular
        k = m - 2
        a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m - 1)]
        b = [[rng.randint(-4, 4) for _ in range(m - 1)] for _ in range(k)]
        rows = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m - 1)] for i in range(m - 1)]
        rows = [row + [rng.randint(-6, 6)] for row in rows]
        return rows + [[rng.randint(-6, 6) for _ in range(m)]]

    def test_leading_minor_from_one_pass(self):
        # one _bareiss of P with lead m - 1 gives rank(P), det(P) and det(Q)
        # of the leading block, as sympy and the two-pass route do
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1703)
        leading_singular_whole_not = 0
        for trial in range(300):
            m = rng.randint(1, 7)
            if trial % 3 == 0 and m >= 2:
                p = self._leading_singular(rng, m)
            else:
                k = rng.randint(0, m)
                a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
                b = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)]
                p = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(m)]
            rank, last, minor = _bareiss([list(row) for row in p], m - 1)
            det_p = last if rank == m else 0
            leading = [row[: m - 1] for row in p[: m - 1]]
            assert rank == sympy.Matrix(p).rank(), p
            assert det_p == sympy.Matrix(p).det(), p
            assert minor == (sympy.Matrix(leading).det() if m >= 2 else 1), p
            two_pass_rank, two_pass_last, _ = _bareiss([list(row) for row in p])
            assert (rank, det_p) == (two_pass_rank, two_pass_last if two_pass_rank == m else 0)
            assert minor == det_bareiss(leading), p
            if minor == 0 and det_p != 0:
                leading_singular_whole_not += 1
        assert leading_singular_whole_not >= 20

    def test_leading_minor_edge_cases(self):
        # a singular leading block whose pivots come from the last row
        assert _bareiss([[0, 1], [1, 0]], 1) == (2, -1, 0)
        assert _bareiss([[0, 0, 1], [0, 1, 0], [1, 0, 0]], 2) == (3, -1, 0)
        # a column without any pivot inside the leading block, rows = lead
        assert _bareiss([[0, 1], [0, 2]], 2) == (1, 1, 0)
        assert _bareiss([[2, 1], [1, 1]], 2) == (2, 1, 1)
        assert _bareiss([[2, 1], [1, 1]], 1) == (2, 1, 2)
        assert _bareiss([[0, 3], [1, 0]], 2) == (2, -3, -3)

    def test_edge_shapes(self):
        assert integer_rank([]) == 0
        assert integer_rank([[0, 0, 0]]) == 0
        assert integer_rank([[0, 2], [0, 3], [1, 0]]) == 2  # first column needs a swap
        assert det_bareiss([]) == 1
        assert det_bareiss([[0, 1], [1, 0]]) == -1
        assert det_bareiss([[1, 2], [2, 4]]) == 0
        with pytest.raises(DomainError):
            det_bareiss([[1, 2]])


class TestGram:
    def test_bisection_n3(self):
        ex = gen_example_bisection(3, 2)
        rep = gram_analysis(ex.family, 2, 1, 1, 1)
        assert rep.m == 3
        assert rep.entry_identities_hold
        assert rep.diag_congruent and rep.offdiag_congruent
        assert rep.det_p == 2 and rep.det_p_matches
        assert rep.det_q == 2 and rep.det_q_matches
        assert rep.rank_n == 3
        assert rep.rank_lower_bound_holds

    def test_bisection_n4(self):
        ex = gen_example_bisection(4, 2)
        rep = gram_analysis(ex.family, 2, 1, 1, 1)
        assert rep.m == 7
        assert rep.rank_n >= 6
        assert rep.rank_lower_bound_holds
        assert rep.det_p_matches and rep.det_q_matches

    @pytest.mark.parametrize("n", range(3, 8))
    def test_rank_n_is_the_rank_of_the_gram_matrix(self, n):
        family = gen_example_bisection(n, 2).family
        masks = [line_mask(member) for member in family]
        gram = [[(x & y).bit_count() for y in masks] for x in masks]
        rep = gram_analysis(family, 2, 1, 1, 1)
        assert rep.rank_n == integer_rank(gram)
        # det(P) and det(Q) agree with separate eliminations of P and Q
        reduced = [[v // rep.divisor for v in row] for row in gram]
        leading = [row[:-1] for row in reduced[:-1]]
        assert rep.det_p == det_bareiss(reduced) % rep.modulus
        assert rep.det_q == det_bareiss(leading) % rep.modulus

    def test_singleton_cell(self):
        F2 = field(2)
        fam = Family(F2, 3, (Subspace(F2, 3, ((1, 0, 0), (0, 1, 0))),))
        rep = gram_analysis(fam, 2, 1, 1, 1)
        assert rep.m == 1
        assert rep.rank_n == 1
        assert rep.rank_lower_bound_holds
        assert rep.det_q is None and rep.det_q_matches is None

    def test_wrong_cell_rejected(self):
        F2 = field(2)
        fam = Family(F2, 7, (coordinate_subspace(F2, 7, 4),))
        with pytest.raises(StructureError):
            gram_analysis(fam, 2, 1, 1, 1)

    def test_non_exact_division_rejected(self):
        # two dim-4 members meeting in dim 1: the off-diagonal entry
        # [1 1]_2 = 1 is not divisible by [2 1]_2 = 3
        F2 = field(2)
        a = coordinate_subspace(F2, 7, 4)
        b = Subspace(
            F2,
            7,
            tuple(tuple(1 if c == i else 0 for c in range(7)) for i in (0, 4, 5, 6)),
        )
        fam = Family(F2, 7, (a, b))
        with pytest.raises(StructureError):
            gram_analysis(fam, 2, 1, 1, 2)

    def test_json_shape(self):
        ex = gen_example_bisection(3, 2)
        d = gram_analysis(ex.family, 2, 1, 1, 1).to_json_dict()
        assert d["m"] == 3
        assert d["det_p"] == "2"
        assert d["rank_lower_bound_holds"] is True
