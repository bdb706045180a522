"""Compatibility graphs, exact maximum-family search, and the three generators."""

import pytest

from qlattice import (
    CompatGraph,
    DomainError,
    FractionSet,
    ModularProfile,
    SearchLimits,
    bound_theorem1,
    build_graph,
    check_fractional,
    check_modular,
    bound_singleton,
    field,
    gen_example_bisection,
    gen_example_frac_uniform,
    gen_example_uniform,
    intersect,
    max_family,
    qbinom,
)
from qlattice.search import ENV_TIME_BUDGET


class TestLimits:
    def test_defaults(self):
        lim = SearchLimits()
        assert lim.max_nodes == 10**7
        assert lim.time_budget is None
        assert lim.dim_filter is None

    def test_validation(self):
        with pytest.raises(DomainError):
            SearchLimits(max_nodes=0)
        with pytest.raises(DomainError):
            SearchLimits(time_budget=0)
        with pytest.raises(DomainError):
            SearchLimits(time_budget=-2.0)

    def test_env_time_budget(self, monkeypatch):
        monkeypatch.setenv(ENV_TIME_BUDGET, "2.5")
        assert SearchLimits().effective_time_budget() == 2.5
        monkeypatch.setenv(ENV_TIME_BUDGET, "junk")
        with pytest.raises(DomainError):
            SearchLimits().effective_time_budget()

    def test_explicit_budget_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_TIME_BUDGET, "2.5")
        assert SearchLimits(time_budget=9.0).effective_time_budget() == 9.0


class TestCompatGraph:
    def test_symmetry_enforced(self):
        F2 = field(2)
        with pytest.raises(DomainError):
            CompatGraph(F2, 3, "modular", (1, 2), (0b10, 0b00))

    def test_self_loop_rejected(self):
        F2 = field(2)
        with pytest.raises(DomainError):
            CompatGraph(F2, 3, "modular", (1,), (0b1,))

    def test_tight_profile_graph_is_complete(self):
        g = build_graph(field(2), 3, ModularProfile(3, (2,), (1,)), SearchLimits())
        assert g.size == 7
        assert g.edge_count() == 21
        assert all(v.dim == 2 for v in g.vertices)

    def test_fractional_graph_n3(self):
        g = build_graph(field(2), 3, FractionSet(((1, 2),)), SearchLimits())
        # all positive-dim subspaces are candidate vertices
        assert g.size == 15
        # plane pairs meeting in dim 1, plus each line inside each of its
        # planes (1 = (1/2)*2 via the plane's dimension)
        def dims_of_edge(i, j):
            return tuple(sorted((g.vertices[i].dim, g.vertices[j].dim)))

        edges = [
            (i, j)
            for i in range(g.size)
            for j in range(i + 1, g.size)
            if (g.adjacency[i] >> j) & 1
        ]
        assert len(edges) == g.edge_count() == 42
        assert sum(1 for e in edges if dims_of_edge(*e) == (2, 2)) == 21
        assert sum(1 for e in edges if dims_of_edge(*e) == (1, 2)) == 21
        assert not any(dims_of_edge(*e) == (1, 1) for e in edges)

    def test_dim_filter(self):
        g = build_graph(
            field(2), 3, ModularProfile(3, (2,), (1,)), SearchLimits(dim_filter=(1,))
        )
        assert g.size == 0
        g2 = build_graph(
            field(2), 3, FractionSet(((1, 2),)), SearchLimits(dim_filter=(1,))
        )
        assert g2.size == 7 and g2.edge_count() == 0

    def test_edges_match_checkers(self):
        # adjacency agrees with the pairwise checker on every vertex pair
        from qlattice import Family, subspace_at

        F2 = field(2)
        fs = FractionSet(((1, 2),))
        g = build_graph(F2, 3, fs, SearchLimits())
        for i in range(g.size):
            for j in range(i + 1, g.size):
                a = subspace_at(F2, 3, g.vertices[i])
                b = subspace_at(F2, 3, g.vertices[j])
                pair_ok = check_fractional(Family(F2, 3, (a, b)), fs).ok
                assert bool((g.adjacency[i] >> j) & 1) == pair_ok

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
    @pytest.mark.parametrize(
        "predicate", [ModularProfile(2, (1,), (0,)), FractionSet(((1, 3), (1, 2)))]
    )
    def test_edges_match_intersect_reference(self, q, n, predicate):
        from qlattice import subspace_at

        ctx = field(q)
        g = build_graph(ctx, n, predicate, SearchLimits())
        subs = [subspace_at(ctx, n, v) for v in g.vertices]
        want = set()
        for i in range(g.size):
            for j in range(i + 1, g.size):
                d, di, dj = intersect(subs[i], subs[j]).dim, subs[i].dim, subs[j].dim
                if isinstance(predicate, ModularProfile):
                    ok = d % predicate.b in predicate.L
                else:
                    ok = any(d * b == a * di or d * b == a * dj for a, b in predicate)
                if ok:
                    want.add((i, j))
        got = {(i, j) for i in range(g.size) for j in range(i + 1, g.size) if g.adjacency[i] >> j & 1}
        assert got == want


class TestMaxFamily:
    def test_complete_graph(self):
        g = build_graph(field(2), 3, ModularProfile(3, (2,), (1,)), SearchLimits())
        res = max_family(g, SearchLimits())
        assert res.size == 7
        assert res.exhausted
        assert len(res.family.members) == 7

    def test_matches_bound_on_tight_case(self):
        g = build_graph(field(2), 3, ModularProfile(3, (2,), (1,)), SearchLimits())
        res = max_family(g, SearchLimits())
        assert res.size == bound_theorem1(3, 2, ModularProfile(3, (2,), (1,))).bound

    def test_result_family_satisfies_profile(self):
        prof = ModularProfile(3, (2,), (1,))
        g = build_graph(field(2), 3, prof, SearchLimits())
        res = max_family(g, SearchLimits())
        assert check_modular(res.family, prof).ok

    def test_fractional_n3(self):
        g = build_graph(field(2), 3, FractionSet(((1, 2),)), SearchLimits())
        res = max_family(g, SearchLimits())
        assert res.size == 7
        assert res.exhausted

    def test_fractional_n4(self):
        g = build_graph(field(2), 4, FractionSet(((1, 2),)), SearchLimits())
        res = max_family(g, SearchLimits())
        assert g.size == 66
        assert res.size == 8
        assert res.exhausted
        assert check_fractional(res.family, FractionSet(((1, 2),))).ok

    def test_edgeless_graph(self):
        g = build_graph(field(2), 3, FractionSet(((1, 2),)), SearchLimits(dim_filter=(1,)))
        res = max_family(g, SearchLimits())
        assert res.size == 1
        assert res.exhausted

    def test_empty_graph(self):
        g = build_graph(
            field(2), 3, ModularProfile(3, (2,), (1,)), SearchLimits(dim_filter=(1,))
        )
        res = max_family(g, SearchLimits())
        assert res.size == 0
        assert res.exhausted

    def test_node_budget_is_result_state(self):
        g = build_graph(field(2), 4, FractionSet(((1, 2),)), SearchLimits())
        res = max_family(g, SearchLimits(max_nodes=1))
        assert not res.exhausted
        assert res.nodes <= 1
        assert res.size <= 8

    def test_time_budget_is_result_state(self):
        g = build_graph(field(2), 4, FractionSet(((1, 2),)), SearchLimits())
        res = max_family(g, SearchLimits(time_budget=1e-9))
        assert not res.exhausted

    def test_determinism(self):
        g = build_graph(field(2), 4, FractionSet(((1, 2),)), SearchLimits())
        a = max_family(g, SearchLimits())
        b = max_family(g, SearchLimits())
        assert a.family == b.family
        assert a.nodes == b.nodes

    def test_members_in_canonical_order(self):
        from qlattice import index_of

        g = build_graph(field(2), 3, ModularProfile(3, (2,), (1,)), SearchLimits())
        res = max_family(g, SearchLimits())
        order = [index_of(m) for m in res.family.members]
        assert order == sorted(order)

    def test_json_shape(self):
        g = build_graph(field(2), 3, ModularProfile(3, (2,), (1,)), SearchLimits())
        d = max_family(g, SearchLimits()).to_json_dict()
        assert set(d) == {"size", "exhausted", "nodes", "family"}
        assert d["size"] == 7
        assert d["exhausted"] is True


class TestGenerators:
    def test_uniform_tight_cases(self):
        for k, s, q in ((2, 1, 2), (2, 1, 3), (1, 1, 2)):
            ex = gen_example_uniform(k, s, q)
            assert len(ex.family.members) == qbinom(k + s, k, q)
            assert check_modular(ex.family, ex.profile).ok
            bound = bound_theorem1(k + s, q, ex.profile).bound
            assert len(ex.family.members) == bound

    def test_uniform_2_1_2(self):
        ex = gen_example_uniform(2, 1, 2)
        assert len(ex.family.members) == 7
        assert ex.profile.b == 3
        assert ex.profile.K == (2,)
        assert ex.profile.L == (1,)
        dims = {intersect(a, b).dim for a in ex.family.members for b in ex.family.members if a != b}
        assert dims == {1}

    def test_uniform_1_1_3(self):
        ex = gen_example_uniform(1, 1, 3)
        assert len(ex.family.members) == 4
        assert ex.profile.K == (1,)
        assert ex.profile.L == (0,)
        dims = {intersect(a, b).dim for a in ex.family.members for b in ex.family.members if a != b}
        assert dims == {0}

    def test_uniform_validation(self):
        with pytest.raises(DomainError):
            gen_example_uniform(0, 1, 2)
        with pytest.raises(DomainError):
            gen_example_uniform(1, 0, 2)

    def test_frac_uniform_2_3_2(self):
        ex = gen_example_frac_uniform(2, 3, 2)
        assert len(ex.family.members) == 7
        assert ex.fractions.fractions == ((1, 2),)
        assert ex.violations == ()
        assert check_fractional(ex.family, ex.fractions).ok

    def test_frac_uniform_2_4_2_reports_violations(self):
        ex = gen_example_frac_uniform(2, 4, 2)
        assert len(ex.family.members) == 35
        assert len(ex.violations) == 280  # disjoint plane pairs of GF(2)^4
        assert not check_fractional(ex.family, ex.fractions).ok
        # each reported pair really is disjoint
        i, j = ex.violations[0]
        assert intersect(ex.family.members[i], ex.family.members[j]).dim == 0

    def test_frac_uniform_s1_empty_fractions(self):
        ex = gen_example_frac_uniform(1, 3, 2)
        assert ex.fractions.fractions == ()
        assert len(ex.family.members) == 7

    def test_frac_uniform_dedupes_reduced_fractions(self):
        # s = 4 yields 1/4, 1/2, 3/4 after reduction
        ex = gen_example_frac_uniform(4, 5, 2)
        assert ex.fractions.fractions == ((1, 4), (1, 2), (3, 4))

    def test_bisection_sizes(self):
        assert len(gen_example_bisection(3, 2).family.members) == 3
        assert len(gen_example_bisection(4, 2).family.members) == 7
        assert len(gen_example_bisection(5, 2).family.members) == 15
        assert len(gen_example_bisection(3, 3).family.members) == 4

    def test_bisection_common_line(self):
        ex = gen_example_bisection(4, 2)
        members = ex.family.members
        assert all(m.dim == 2 for m in members)
        meets = {
            intersect(a, b).rows
            for i, a in enumerate(members)
            for b in members[i + 1 :]
        }
        assert meets == {((1, 0, 0, 0),)}

    def test_bisection_passes_checker_and_bound(self):
        for n, q in ((3, 2), (4, 2), (5, 2), (3, 3)):
            ex = gen_example_bisection(n, q)
            assert check_fractional(ex.family, ex.fractions).ok
            assert len(ex.family.members) <= bound_singleton(n, q, 1, 2).bound

    def test_bisection_validation(self):
        with pytest.raises(DomainError):
            gen_example_bisection(1, 2)


class TestDominance:
    def test_small_profile_sweep(self):
        # spot slice of the oracle-dominance property; the full grid runs in
        # the acceptance suite
        F2 = field(2)
        for prof in (
            ModularProfile(3, (2,), (1,)),
            ModularProfile(3, (1,), (0,)),
            ModularProfile(4, (2,), (1,)),
            ModularProfile(4, (3,), (0, 1, 2)),
        ):
            g = build_graph(F2, 4, prof, SearchLimits())
            res = max_family(g, SearchLimits())
            assert res.exhausted
            assert res.size <= bound_theorem1(4, 2, prof).bound, prof
