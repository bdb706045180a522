"""Compatibility graphs, exact maximum-family search, and the three generators."""

import random
import time
from typing import NamedTuple

import pytest

from qlattice import (
    CompatGraph,
    DomainError,
    FractionSet,
    ResourceLimitError,
    Family,
    ModularProfile,
    SearchLimits,
    SubspaceIndex,
    bound_theorem1,
    budget,
    build_graph,
    canonicalize,
    check_fractional,
    check_modular,
    bound_singleton,
    certificate_context,
    field,
    gen_example_bisection,
    gen_example_frac_uniform,
    gen_example_uniform,
    independence_certificate,
    intersect,
    max_family,
    meet_dim,
    qbinom,
    shared_line_counts,
    subspace_at,
    zsigmondy_prime,
)
from qlattice.gfspace import compatible_rows, lattice
from qlattice.search import SearchResult


# The recursive branch and bound that max_family replaced, kept as the
# oracle: the iterative search must visit exactly the same nodes.
def _greedy_coloring(candidates, adjacency):
    out = []
    color = 0
    rest = candidates
    while rest:
        color += 1
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            out.append((v, color))
            avail &= ~adjacency[v]
            avail ^= low
            rest ^= low
    return out


def _reference_max_family(graph, limits):
    count = graph.size
    adjacency = graph.adjacency
    budget_nodes = limits.max_nodes
    best, current = [], []
    nodes = 0
    aborted = False

    def expand(candidates):
        nonlocal nodes, aborted, best
        if nodes >= budget_nodes:
            aborted = True
            return
        nodes += 1
        for v, color in reversed(_greedy_coloring(candidates, adjacency)):
            if aborted:
                return
            if len(current) + color <= len(best):
                return
            current.append(v)
            rest = candidates & adjacency[v]
            if rest:
                expand(rest)
            elif len(current) > len(best):
                best = current.copy()
            current.pop()
            candidates &= ~(1 << v)

    if count:
        expand((1 << count) - 1)
    members = tuple(subspace_at(graph.ctx, graph.n, graph.vertices[v]) for v in sorted(best))
    return SearchResult(Family(graph.ctx, graph.n, members), len(members), not aborted, nodes)


def _complement(rows):
    """The rows of the complement graph, the diagonal kept: adjacency to conflicts and back."""
    full = (1 << len(rows)) - 1
    return tuple(full ^ row ^ (1 << k) for k, row in enumerate(rows))


# Each byte with its eight bits in reverse order.
_BIT_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _reversed_conflicts(adjacency):
    """The table max_family built before it read the graph's own rows, kept as the oracle.

    From adjacency rows in index order, the conflict rows of the same graph
    with its vertices listed from the last one down: row count - 1 - v is
    the complement of adjacency[v], v itself left out, with bit j moved to
    bit count - 1 - j by reversing whole bytes and shifting the padding out.
    """
    count = len(adjacency)
    width = -(-count // 8)
    pad = 8 * width - count
    full = (1 << count) - 1
    rows = []
    for v in reversed(range(count)):
        row = (full ^ adjacency[v] ^ (1 << v)).to_bytes(width, "little")
        rows.append(int.from_bytes(row.translate(_BIT_REVERSED), "big") >> pad)
    return tuple(rows)


class _RowGraph(NamedTuple):
    """A graph given by its conflict rows, with no predicate behind it.

    It has what max_family reads (ctx, n, size, vertices, conflicts) and
    the adjacency the reference reads, so random graphs and reversed
    lattice graphs can be searched; a CompatGraph derives its rows instead.
    Having no predicate, it is searched from one root, the whole vertex
    set, as the reference is.
    """

    ctx: object
    n: int
    vertices: tuple
    conflicts: tuple

    @property
    def size(self):
        return len(self.vertices)

    @property
    def adjacency(self):
        return _complement(self.conflicts)


def _reversed(graph):
    """The same graph with its vertices listed from the last one down."""
    return _RowGraph(
        graph.ctx, graph.n, graph.vertices[::-1], _reversed_conflicts(graph.adjacency)
    )


def _row_view(graph):
    """The same graph as bare conflict rows: max_family searches it from one root."""
    return _RowGraph(graph.ctx, graph.n, graph.vertices, graph.conflicts)


def _pairwise_graph(ctx, n, predicate, limits):
    """The pair loop build_graph ran before LineIncidence, kept as the oracle.

    One popcount of the AND of two line masks per vertex pair, against the
    line counts of the meet dimensions the predicate allows.
    """
    lat = lattice(ctx, n)
    if isinstance(predicate, ModularProfile):
        admissible = {d for d in range(n + 1) if d % predicate.b in predicate.K}

        def allowed(d, di, dj):
            return d % predicate.b in predicate.L

    else:
        admissible = set(range(1, n + 1))

        def allowed(d, di, dj):
            return any(d * b == a * di or d * b == a * dj for a, b in predicate)

    if limits.dim_filter is not None:
        admissible &= set(limits.dim_filter)
    span = range(n + 1)
    shared = [
        [{qbinom(d, 1, ctx.q) for d in range(min(di, dj) + 1) if allowed(d, di, dj)} for dj in span]
        for di in span
    ]
    positions = [g for g in range(len(lat)) if lat.dims[g] in admissible]
    lines = [lat.lines[g] for g in positions]
    dims = [lat.dims[g] for g in positions]
    adjacency = [0] * len(positions)
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            if (lines[i] & lines[j]).bit_count() in shared[dims[i]][dims[j]]:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    vertices = tuple(
        SubspaceIndex(lat.dims[g], g - lat.offsets[lat.dims[g]] + 1) for g in positions
    )
    return vertices, tuple(adjacency)


def _random_adjacency(rng, size, density):
    adjacency = [0] * size
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < density:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return adjacency


# Every subspace of GF(2)^5 as a graph vertex, in global lattice order.
POOL = [SubspaceIndex(d, pos) for d in range(6) for pos in range(1, qbinom(5, d, 2) + 1)]


def _random_graph(size, density):
    """A seeded random graph whose vertices are distinct subspaces of GF(2)^5."""
    rng = random.Random(size * 100 + round(density * 10))
    vertices = tuple(rng.sample(POOL, size))
    return _RowGraph(field(2), 5, vertices, _complement(_random_adjacency(rng, size, density)))


def _checker(predicate):
    return check_modular if isinstance(predicate, ModularProfile) else check_fractional


def _networkx_clique_number(graph):
    nx = pytest.importorskip("networkx")
    adjacency = graph.adjacency
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.size))
    nxg.add_edges_from(
        (i, j) for i in range(graph.size) for j in range(i) if adjacency[i] >> j & 1
    )
    return nx.max_weight_clique(nxg, weight=None)[1]


def _outcome(result):
    return result.size, result.exhausted, result.nodes, result.family.members


SIZES = [1, 2, 3, 5, 8, 13, 21, 34, 47, 60]
DENSITIES = [0.1, 0.3, 0.5, 0.7, 0.9]
NODE_BUDGETS = [None, 1, 2, 3, 10, 100]
LATTICE_PREDICATES = [
    FractionSet(((1, 2),)),
    FractionSet(((1, 3), (1, 2))),
    FractionSet(((1, 2), (2, 3))),
    ModularProfile(2, (1,), (0,)),
    ModularProfile(3, (2,), (1,)),
    ModularProfile(3, (1, 2), (0,)),
]


def _assert_same_search(graph):
    """max_family on graph and the reference on the vertex-reversed graph, at every budget.

    max_family takes the last vertex first and the reference the first one,
    so the two visit the same tree node for node and list the same members.
    """
    original = _reversed(graph)
    for max_nodes in NODE_BUDGETS:
        limits = SearchLimits() if max_nodes is None else SearchLimits(max_nodes=max_nodes)
        assert _outcome(max_family(graph, limits)) == _outcome(
            _reference_max_family(original, limits)
        ), max_nodes


class TestLimits:
    def test_defaults(self):
        lim = SearchLimits()
        assert lim.max_nodes == 10**7
        assert lim.dim_filter is None

    def test_validation(self):
        with pytest.raises(DomainError):
            SearchLimits(max_nodes=0)
        with pytest.raises(DomainError):
            with budget(seconds=0):
                pass
        with pytest.raises(DomainError):
            with budget(seconds=-2.0):
                pass


# Meet rules read one way only: _SkewedHalf lets dims di and dj meet in
# half of di but not in half of dj, and _SkewedProfile reads L only when
# di <= dj. Both are one-sided on the admitted dims 1 and 2.
class _SkewedHalf(FractionSet):
    def meets(self, d, di, dj):
        return any(d * b == a * di for a, b in self)


class _SkewedProfile(ModularProfile):
    def meets(self, d, di, dj):
        return di <= dj and super().meets(d, di, dj)


# Rules one-sided only where a dimension is not admitted: dim 0 for a
# fraction set, a dim outside K for a profile. Rows pair admitted dims only.
class _SkewedAtZero(FractionSet):
    def meets(self, d, di, dj):
        return di != 0 and super().meets(d, di, dj)


class _SkewedOutsideK(ModularProfile):
    def meets(self, d, di, dj):
        return (di <= dj or self.admits(di)) and super().meets(d, di, dj)


class _Reflexive(FractionSet):
    """A fraction set that also lets two subspaces of one dim meet in all of it."""

    def meets(self, d, di, dj):
        return d == di == dj or super().meets(d, di, dj)


SKEWED = [_SkewedHalf(((1, 2),)), _SkewedProfile(3, (1, 2), (0,))]
SKEW_MESSAGE = r"\.meets is not symmetric in member dims 1 and 2$"

# GF(2)^3 by lattice position: the zero space 0, lines 1..7, planes 8..14
# and the whole space 15. PLANES admits the planes alone.
PLANES = ModularProfile(3, (2,), (1,))


class TestCompatGraph:
    def test_symmetry_enforced(self):
        # a one-sided meet rule is refused, whichever positions are given
        for predicate in SKEWED:
            for positions in ((), (5, 20), range(1, 51)):
                with pytest.raises(DomainError, match=SKEW_MESSAGE):
                    CompatGraph(field(2), 4, predicate, positions)

    def test_self_loop_rejected(self):
        # a rule that lets a subspace meet itself sets its own bit in every
        # compatible_rows row; the graph leaves vertex k out of row k anyway
        ctx, predicate = field(2), _Reflexive(((1, 2),))
        graph = build_graph(ctx, 4, predicate)
        allowed = shared_line_counts(predicate, 4, 2)
        rows = compatible_rows(lattice(ctx, 4), graph.positions, allowed)
        assert all(row >> k & 1 for k, row in enumerate(rows))
        assert not any(row >> k & 1 for k, row in enumerate(graph.adjacency))
        assert graph.conflicts == build_graph(ctx, 4, FractionSet(((1, 2),))).conflicts

    def test_defect_messages(self):
        ctx = field(2)
        cases = [
            ((8, 16), r"^positions\[1\] = 16 is not a lattice position in \[0, 16\)$"),
            ((-1,), r"^positions\[0\] = -1 is not a lattice position in \[0, 16\)$"),
            ((8, 9.0), r"^positions\[1\] = 9\.0 is not a lattice position in \[0, 16\)$"),
            ((8, "9"), r"^positions\[1\] = '9' is not a lattice position in \[0, 16\)$"),
            ((8, 14, 8), r"^positions\[2\] = 8 is listed twice$"),
            ((8, 1), r"^positions\[1\] = 1 has dim 1, not admitted$"),
            ((15,), r"^positions\[0\] = 15 has dim 3, not admitted$"),
        ]
        for positions, message in cases:
            with pytest.raises(DomainError, match=message):
                CompatGraph(ctx, 3, PLANES, positions)
        # the predicate comes first; a row table cannot be passed in its place
        for predicate in (None, (1, 2), ((2, 1), (2, 2))):
            with pytest.raises(DomainError, match="^predicate must be a ModularProfile or"):
                CompatGraph(ctx, 3, predicate, (8, 16))

    @pytest.mark.parametrize(
        "vertex",
        [1, (1,), (1, 2, 3), (1.0, 1), ("1", 1), (-1, 1), (4, 1), (1, 0), (1, 8), (2, 8)],
    )
    def test_malformed_vertex_rejected(self, vertex):
        # a vertex is a lattice position, an int: the (dim, pos) spellings
        # the record once took, well formed or not, are refused, and so is
        # position 1, a line, which PLANES does not admit
        with pytest.raises(DomainError, match=r"^positions\[1\] = "):
            CompatGraph(field(2), 3, PLANES, (8, vertex))

    def test_valid_vertex_shapes_accepted(self):
        # positions may come as any iterable of ints; the record keeps a tuple
        ctx = field(2)
        graph = CompatGraph(ctx, 3, PLANES, (14, 8, 11))
        for positions in ([14, 8, 11], iter((14, 8, 11)), (g for g in (14, 8, 11))):
            again = CompatGraph(ctx, 3, PLANES, positions)
            assert again == graph and again.positions == (14, 8, 11)
        assert graph.vertices == ((2, 7), (2, 1), (2, 4))
        assert graph.conflicts == (0, 0, 0) and max_family(graph).size == 3
        assert CompatGraph(ctx, 3, PLANES, range(8, 15)).positions == tuple(range(8, 15))
        assert CompatGraph(ctx, 3, PLANES, ()).size == 0

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

        adjacency = g.adjacency
        edges = [
            (i, j)
            for i in range(g.size)
            for j in range(i + 1, g.size)
            if (adjacency[i] >> j) & 1
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
        adjacency = g.adjacency
        for i in range(g.size):
            for j in range(i + 1, g.size):
                a = subspace_at(F2, 3, g.vertices[i])
                b = subspace_at(F2, 3, g.vertices[j])
                pair_ok = check_fractional(Family(F2, 3, (a, b)), fs).ok
                assert bool((adjacency[i] >> j) & 1) == pair_ok

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
        adjacency = g.adjacency
        got = {(i, j) for i in range(g.size) for j in range(i + 1, g.size) if adjacency[i] >> j & 1}
        assert got == want


KERNEL_PREDICATES = [
    ModularProfile(2, (1,), (0,)),
    ModularProfile(3, (2,), (1,)),
    ModularProfile(3, (0, 2), (1,)),
    ModularProfile(4, (1, 2), (0, 3)),
    FractionSet(((1, 2),)),
    FractionSet(((1, 3), (1, 2))),
    FractionSet(((1, 3), (2, 3), (3, 4))),
]


class TestGraphKernel:
    """build_graph against the pair loop it replaced, vertex for vertex and bit for bit.

    The pair loop gives index-order adjacency; build_graph lists the same
    vertices from the last one down, with the conflict rows that the
    byte-reversal oracle makes of that adjacency.
    """

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 3), (5, 2)])
    @pytest.mark.parametrize("predicate", KERNEL_PREDICATES, ids=repr)
    def test_matches_pairwise_oracle(self, q, n, predicate):
        ctx = field(q)
        for dims in (None, (), (1,), (2,), (1, 2), (0, 2, 3), tuple(range(n + 1))):
            limits = SearchLimits(dim_filter=dims)
            if max(dims or (0,)) > n:
                with pytest.raises(DomainError, match=f"^dim_filter entry {max(dims)} "):
                    build_graph(ctx, n, predicate, limits)
                continue
            graph = build_graph(ctx, n, predicate, limits)
            vertices, adjacency = _pairwise_graph(ctx, n, predicate, limits)
            assert graph.vertices == vertices[::-1], dims
            assert graph.conflicts == _reversed_conflicts(adjacency), dims

    def test_matches_pairwise_oracle_gf2_5(self):
        ctx = field(2)
        for predicate in (FractionSet(((1, 2),)), ModularProfile(3, (2,), (1,))):
            graph = build_graph(ctx, 5, predicate)
            vertices, adjacency = _pairwise_graph(ctx, 5, predicate, SearchLimits())
            assert graph.vertices == vertices[::-1]
            assert graph.conflicts == _reversed_conflicts(adjacency)

    @pytest.mark.parametrize("dim_filter", [None, (2, 3)])
    @pytest.mark.parametrize("predicate", LATTICE_PREDICATES)
    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (2, 5), (3, 4)])
    def test_conflicts_are_the_reversed_table(self, q, n, predicate, dim_filter):
        # every ambient and vertex filter the reference searches below run on
        ctx, limits = field(q), SearchLimits(dim_filter=dim_filter)
        graph = build_graph(ctx, n, predicate, limits)
        vertices, adjacency = _pairwise_graph(ctx, n, predicate, limits)
        assert graph.vertices == vertices[::-1]
        assert graph.conflicts == _reversed_conflicts(adjacency)
        assert graph.edge_count() == sum(row.bit_count() for row in adjacency) // 2


class TestRuleSymmetry:
    """A one-sided meet rule is refused wherever rows are read from it.

    shared_line_counts checks the rule once per (predicate, n, q), over the
    dims the predicate admits; rows built from a symmetric rule are
    symmetric, so no graph checks its rows.
    """

    @pytest.mark.parametrize("predicate", SKEWED, ids=lambda p: type(p).__name__)
    def test_refused_by_build_graph(self, predicate):
        for n in (2, 4):
            with pytest.raises(DomainError, match=SKEW_MESSAGE):
                build_graph(field(2), n, predicate)
        with pytest.raises(DomainError, match=SKEW_MESSAGE):
            shared_line_counts(predicate, 4, 3)

    @pytest.mark.parametrize("predicate", SKEWED, ids=lambda p: type(p).__name__)
    def test_refused_by_the_checkers(self, predicate):
        # a plane of GF(2)^3 and a line inside it, in both member orders
        ctx = field(2)
        plane = canonicalize(ctx, 3, [(1, 0, 0), (0, 1, 0)])
        line = canonicalize(ctx, 3, [(1, 0, 0)])
        for members in ((plane, line), (line, plane)):
            with pytest.raises(DomainError, match=SKEW_MESSAGE):
                _checker(predicate)(Family(ctx, 3, members), predicate)

    @pytest.mark.parametrize("variant", ["lemma41", "lemma52", "swallow1", "swallow2"])
    def test_refused_by_a_certificate_context(self, variant):
        ctx = field(2)
        cctx = certificate_context(ctx, 4, _SkewedProfile(3, (1, 2), (0,)))
        family = Family(ctx, 4, (subspace_at(ctx, 4, (1, 1)),))
        with pytest.raises(DomainError, match=SKEW_MESSAGE):
            independence_certificate(cctx, family, variant)

    @pytest.mark.parametrize(
        "skewed,plain",
        [
            (_SkewedAtZero(((1, 2),)), FractionSet(((1, 2),))),
            (_SkewedOutsideK(3, (2,), (1,)), ModularProfile(3, (2,), (1,))),
        ],
        ids=["fractions", "profile"],
    )
    def test_one_sided_off_the_admitted_dims_is_accepted(self, skewed, plain):
        ctx, span = field(2), range(5)
        table = shared_line_counts(skewed, 4, 2)
        assert any(table[di][dj] != table[dj][di] for di in span for dj in span)
        for limits in (None, SearchLimits(dim_filter=(2, 3))):
            graph = build_graph(ctx, 4, skewed, limits)
            assert graph.conflicts == build_graph(ctx, 4, plain, limits).conflicts
        if isinstance(plain, ModularProfile):
            # the planes through a line meet pairwise in it
            family = gen_example_bisection(4, 2).family
            certificates = [
                independence_certificate(certificate_context(ctx, 4, p), family, "lemma41")
                for p in (skewed, plain)
            ]
            assert certificates[0] == certificates[1]


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
        with budget(seconds=1e-9):
            res = max_family(g, SearchLimits())
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


class TestDeadline:
    """The deadline of a budget scope, read through a patched time.monotonic."""

    PREDICATE = FractionSet(((1, 2),))

    @pytest.fixture(autouse=True)
    def built_lattice(self):
        """Build GF(2)^4 before any clock is faked. A first build checks the
        deadline once per dimension step, so the clock reads counted below
        are those of a cached lattice."""
        lattice(field(2), 4)

    def test_expiry_after_the_lattice(self, fake_clock):
        with budget(seconds=5):
            fake_clock.now = 6
            with pytest.raises(ResourceLimitError, match=r"in lattice$") as exc:
                build_graph(field(2), 4, self.PREDICATE)
        assert exc.value.partial == {"phase": "lattice"}

    def test_expiry_between_rows(self, fake_clock):
        fake_clock.step = 1
        # entry reads 0, the lattice check 1, the check after the one block of
        # the line-mask transposition 2, and the check after row r reads r + 2
        with budget(seconds=5.5):
            with pytest.raises(ResourceLimitError, match=r"^time budget ran out in graph$") as exc:
                build_graph(field(2), 4, self.PREDICATE)
        assert exc.value.partial == {"phase": "graph", "rows": 4, "vertices": 66}

    def test_graph_unchanged_under_a_distant_deadline(self, fake_clock):
        fake_clock.step = 1
        with budget(seconds=1e6):
            graph = build_graph(field(2), 4, self.PREDICATE)
        again = build_graph(field(2), 4, self.PREDICATE)
        assert graph == again and graph.conflicts == again.conflicts

    def test_expiry_during_search_returns_best_so_far(self, fake_clock):
        graph = build_graph(field(2), 4, self.PREDICATE)
        fake_clock.step = 1
        # entry reads 0; node k's check reads k, so node 11 is refused
        with budget(seconds=10.5):
            res = max_family(graph, SearchLimits())
        assert not res.exhausted
        assert res.nodes == 10
        assert 1 <= res.size <= 8
        assert check_fractional(res.family, self.PREDICATE).ok
        assert _outcome(res) == _outcome(max_family(graph, SearchLimits(max_nodes=10)))

    def test_expiry_while_conflict_rows_are_built(self, fake_clock):
        # GF(2)^6 {1/2} has 2824 vertices, more than one 1024-row block
        lattice(field(2), 6)
        fake_clock.step = 1
        # entry reads 0, the lattice check 1, the three blocks of the
        # line-mask transposition 2 to 4, and the check after row r reads r + 4
        with budget(seconds=2052.5):
            with pytest.raises(ResourceLimitError, match=r"^time budget ran out in graph$") as exc:
                build_graph(field(2), 6, self.PREDICATE)
        assert exc.value.partial == {"phase": "graph", "rows": 2049, "vertices": 2824}

    def test_expiry_at_a_node_returns_best_so_far(self, fake_clock):
        # the search reads the graph's own conflict rows: it builds no table
        # first, so even a graph of 2824 vertices gets to its first nodes
        graph = build_graph(field(2), 6, self.PREDICATE)
        fake_clock.step = 1
        # entry reads 0; node k's check reads k, so node 101 is refused
        with budget(seconds=100.5):
            res = max_family(graph, SearchLimits())
        assert not res.exhausted
        assert res.nodes == 100
        assert res.size >= 1
        assert check_fractional(res.family, self.PREDICATE).ok
        assert _outcome(res) == _outcome(max_family(graph, SearchLimits(max_nodes=100)))


def _assert_same_tree(graph, max_nodes):
    """max_family on graph and the reference on its reverse agree on one budget."""
    limits = SearchLimits(max_nodes=max_nodes)
    original = _reversed(graph)
    assert _outcome(max_family(graph, limits)) == _outcome(_reference_max_family(original, limits))


# The oracle reverses each row through whole bytes and shifts the padding
# back out: sizes on both sides of byte and 30-bit digit widths.
WIDTH_SIZES = [0, 7, 8, 9, 15, 16, 17, 29, 30, 31, 63, 64, 65]


class TestAgainstReference:
    """max_family node for node against the recursive reference, on one root.

    A build_graph graph is searched by orbital branching, which visits
    another tree, so the lattice cases search its _row_view: the same
    conflict rows with no predicate, which max_family searches from one
    root, as the reference does.
    """

    @pytest.mark.parametrize("density", DENSITIES)
    @pytest.mark.parametrize("size", sorted(set(SIZES + WIDTH_SIZES)))
    def test_random_graphs(self, size, density):
        _assert_same_search(_random_graph(size, density))

    @pytest.mark.parametrize("predicate", LATTICE_PREDICATES)
    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
    def test_lattice_graphs(self, q, n, predicate):
        _assert_same_search(_row_view(build_graph(field(q), n, predicate, SearchLimits())))

    # At 7 and 1000 nodes the budget runs out deep in the tree, mostly with
    # siblings of the node it stops at still untaken; 1000 also lets some
    # searches finish.
    @pytest.mark.parametrize("max_nodes", [1, 7, 100, 1000, 20000])
    @pytest.mark.parametrize("dim_filter", [None, (2, 3)])
    @pytest.mark.parametrize("predicate", LATTICE_PREDICATES)
    @pytest.mark.parametrize("q,n", [(2, 5), (3, 4)])
    def test_full_lattice_graphs(self, q, n, predicate, dim_filter, max_nodes):
        limits = SearchLimits(dim_filter=dim_filter)
        _assert_same_tree(_row_view(build_graph(field(q), n, predicate, limits)), max_nodes)

    def test_gf2_6_half_first_nodes(self):
        _assert_same_tree(_row_view(build_graph(field(2), 6, FractionSet(((1, 2),)))), 2000)

    @pytest.mark.parametrize("density", DENSITIES)
    def test_clique_size_matches_networkx(self, density):
        for size in SIZES:
            g = _random_graph(size, density)
            assert max_family(g).size == _networkx_clique_number(g), size


class TestOrders:
    """Another search order is another positions tuple.

    Over ascending positions the one-root search takes the highest
    dimension first. Where two orders both exhaust, they prove one size.
    """

    @pytest.mark.parametrize("predicate", LATTICE_PREDICATES)
    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (2, 5), (3, 4)])
    def test_ascending_positions_prove_the_same_size(self, q, n, predicate):
        ctx, limits = field(q), SearchLimits(max_nodes=20000)
        down = build_graph(ctx, n, predicate)
        up = CompatGraph(ctx, n, predicate, down.positions[::-1])
        assert up.edge_count() == down.edge_count()
        assert up.vertices == down.vertices[::-1]
        first, second = max_family(down, limits), max_family(up, limits)
        check = _checker(predicate)
        assert check(first.family, predicate).ok and check(second.family, predicate).ok
        if first.exhausted and second.exhausted:
            assert first.size == second.size

    def test_gf2_5_half_highest_dimension_first(self):
        ctx, predicate = field(2), FractionSet(((1, 2),))
        down = build_graph(ctx, 5, predicate)
        up = CompatGraph(ctx, 5, predicate, down.positions[::-1])
        # From one root, ascending positions take the highest dimension
        # first and finish 30 times sooner.
        assert _outcome(max_family(_row_view(down)))[:3] == (16, True, 9122)
        assert _outcome(max_family(_row_view(up)))[:3] == (16, True, 271)
        # Orbital branching takes the highest dimension first in either
        # order; the position order only picks the fixed representatives.
        assert _outcome(max_family(down))[:3] == (16, True, 40)
        assert _outcome(max_family(up))[:3] == (16, True, 35)


class TestOrbitalBranching:
    """max_family on whole-block graphs: one root per fixed subspace and orbit.

    Its oracles are the one-root search on the same rows (_row_view), the
    family checkers and networkx. Budgets count every node, the fixed
    subspaces included, and stop the search wherever they run out.
    """

    @pytest.mark.parametrize("ascending", [False, True], ids=["down", "up"])
    @pytest.mark.parametrize("dim_filter", [None, (2, 3)])
    @pytest.mark.parametrize("predicate", LATTICE_PREDICATES)
    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 3), (2, 5), (3, 4)])
    def test_same_size_as_one_root(self, q, n, predicate, dim_filter, ascending):
        ctx = field(q)
        graph = build_graph(ctx, n, predicate, SearchLimits(dim_filter=dim_filter))
        if ascending:
            graph = CompatGraph(ctx, n, predicate, graph.positions[::-1])
        rooted = max_family(graph, SearchLimits(max_nodes=20000))
        plain = max_family(_row_view(graph), SearchLimits(max_nodes=20000))
        assert rooted.exhausted
        assert _checker(predicate)(rooted.family, predicate).ok
        order = list(map(lattice(ctx, n).global_index, rooted.family))
        assert order == sorted(order)
        if plain.exhausted:
            assert rooted.size == plain.size

    @pytest.mark.parametrize("predicate", LATTICE_PREDICATES)
    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
    def test_size_matches_networkx(self, q, n, predicate):
        graph = build_graph(field(q), n, predicate)
        assert max_family(graph).size == _networkx_clique_number(graph)

    @pytest.mark.parametrize(
        "q,n,predicate,size",
        [
            (2, 5, FractionSet(((1, 3), (1, 2))), 16),
            (3, 5, FractionSet(((1, 2),)), 41),
            # one root takes 7.57 M nodes to prove this one
            (2, 5, FractionSet(((1, 3),)), 9),
        ],
        ids=["gf2_5_third_half", "gf3_5_half", "gf2_5_third"],
    )
    def test_proofs(self, q, n, predicate, size):
        res = max_family(build_graph(field(q), n, predicate))
        assert (res.size, res.exhausted) == (size, True)
        assert check_fractional(res.family, predicate).ok

    def test_part_of_a_block_is_one_root(self):
        ctx, predicate = field(2), FractionSet(((1, 2),))
        positions = build_graph(ctx, 4, predicate).positions
        rng = random.Random(29)
        # positions[0] is GF(2)^4 itself, a whole block: [2:] leaves out a 3-space too
        for part in (positions[2:], positions[:-1], rng.sample(positions, 40)):
            _assert_same_search(CompatGraph(ctx, 4, predicate, part))

    def test_node_budget_stops_in_any_root(self):
        predicate = FractionSet(((1, 2), (2, 3)))
        graph = build_graph(field(2), 5, predicate)
        total = max_family(graph)
        assert (total.size, total.exhausted, total.nodes) == (23, True, 317)
        sizes = []
        for max_nodes in range(1, total.nodes):
            res = max_family(graph, SearchLimits(max_nodes=max_nodes))
            assert (res.exhausted, res.nodes) == (False, max_nodes)
            assert check_fractional(res.family, predicate).ok
            sizes.append(res.size)
        # the best family so far only grows, and is found before the proof ends
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1] == 23
        assert _outcome(max_family(graph, SearchLimits(max_nodes=total.nodes))) == _outcome(total)

    def test_deadline_stops_in_any_root(self, fake_clock):
        predicate = FractionSet(((1, 2), (2, 3)))
        graph = build_graph(field(2), 4, predicate)
        total = max_family(graph).nodes
        fake_clock.step = 1
        for k in range(1, total):
            # entry reads 0; node j's check reads j, so node k + 1 is refused
            fake_clock.now = 0
            with budget(seconds=k + 0.5):
                res = max_family(graph)
            assert _outcome(res) == _outcome(max_family(graph, SearchLimits(max_nodes=k)))
            assert (res.exhausted, res.nodes) == (False, k)


def _compacted(full, positions):
    """Rows of full for the entries at positions, with bit k' for positions[k']."""
    return [
        sum((full[g] >> h & 1) << k for k, h in enumerate(positions)) for g in positions
    ]


def _subsets(rng, size):
    """Seeded position subsets: empty, single entries, random ones in random order, all."""
    subsets = [[], [0], [size - 1], [rng.randrange(size)], list(range(size))]
    for _ in range(4):
        subsets.append(rng.sample(range(size), rng.randint(2, size)))
    subsets.append(sorted(rng.sample(range(size), size // 2)))
    return subsets


class TestRowsOverPositions:
    """compatible_rows over a subset of lattice positions: the full rows, cut to it."""

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 3)])
    def test_containment_rows(self, q, n):
        lat, span = lattice(field(q), n), range(n + 1)
        inside = [
            [frozenset({qbinom(du, 1, q)} if du <= dw else ()) for du in span] for dw in span
        ]
        full = list(compatible_rows(lat, range(len(lat)), inside))
        assert full == lat.contains_mask
        for positions in _subsets(random.Random(f"inside {q} {n}"), len(lat)):
            got = list(compatible_rows(lat, positions, inside))
            assert got == _compacted(full, positions), positions

    @pytest.mark.parametrize("predicate", LATTICE_PREDICATES)
    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 3)])
    def test_predicate_rows(self, q, n, predicate):
        ctx = field(q)
        lat, allowed = lattice(ctx, n), shared_line_counts(predicate, n, q)
        full = list(compatible_rows(lat, range(len(lat)), allowed))
        subs, dims = lat.subspaces, lat.dims
        for g, row in enumerate(full):
            for h, other in enumerate(subs):
                meets = predicate.meets(meet_dim(subs[g], other), dims[g], dims[h])
                assert bool(row >> h & 1) == meets, (g, h)
        for positions in _subsets(random.Random(f"{predicate} {q} {n}"), len(lat)):
            got = list(compatible_rows(lat, positions, allowed))
            assert got == _compacted(full, positions), positions
        # build_graph's conflicts complement the same cut, over its admitted
        # positions from the last one down
        for dim_filter in (None, (1, 2), (n,)):
            graph = build_graph(ctx, n, predicate, SearchLimits(dim_filter=dim_filter))
            positions = [
                g for g, d in enumerate(dims)
                if predicate.admits(d) and (dim_filter is None or d in dim_filter)
            ][::-1]
            assert graph.vertices == tuple(map(lat.index_at, positions))
            assert graph.conflicts == _complement(_compacted(full, positions))
        # a certificate context needs a prime of order b at q: none for (q, b) = (3, 2)
        if isinstance(predicate, ModularProfile) and (q, predicate.b) != (3, 2):
            assert isinstance(zsigmondy_prime(q, predicate.b), int)
            cctx = certificate_context(ctx, n, predicate)
            rows, index = cctx._compatible
            admitted = [g for g, d in enumerate(dims) if predicate.admits(d)]
            assert list(rows) == _compacted(full, admitted)
            assert [g for g, row in enumerate(index) if row is not None] == admitted


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

    @pytest.mark.parametrize("s,n,q", [(2, 4, 2), (2, 3, 3), (3, 4, 2)])
    def test_frac_uniform_violations_match_intersect_reference(self, s, n, q):
        ex = gen_example_frac_uniform(s, n, q)
        members = ex.family.members
        want = tuple(
            (i, j)
            for i in range(len(members))
            for j in range(i + 1, len(members))
            if not any(
                intersect(members[i], members[j]).dim * b == a * s for a, b in ex.fractions
            )
        )
        assert ex.violations == want

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
