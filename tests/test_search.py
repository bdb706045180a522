"""Compatibility graphs, exact maximum-family search, and the three generators."""

import itertools
import operator
import random
import time
from fractions import Fraction
from typing import NamedTuple

import pytest

from qlattice import (
    CompatGraph,
    DomainError,
    FractionSet,
    Lattice,
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
    union_space,
    zsigmondy_prime,
)
from qlattice import search
from qlattice.gfspace import _cached_lattice, compatible_rows, lattice
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

    It has what max_family reads (ctx, n, size, positions, conflicts) and
    the vertices and adjacency the reference reads, so random graphs and
    reversed lattice graphs can be searched; a CompatGraph derives its rows
    instead. Having no predicate, it is searched from one root, the whole
    vertex set, as the reference is.
    """

    ctx: object
    n: int
    positions: tuple
    conflicts: tuple

    @property
    def size(self):
        return len(self.positions)

    @property
    def vertices(self):
        return tuple(map(lattice(self.ctx, self.n).index_at, self.positions))

    @property
    def adjacency(self):
        return _complement(self.conflicts)


def _reversed(graph):
    """The same graph with its vertices listed from the last one down."""
    return _RowGraph(
        graph.ctx, graph.n, graph.positions[::-1], _reversed_conflicts(graph.adjacency)
    )


def _row_view(graph):
    """The same graph as bare conflict rows: max_family searches it from one root."""
    return _RowGraph(graph.ctx, graph.n, graph.positions, graph.conflicts)


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


# Every lattice position of GF(2)^5, one per subspace, as a graph vertex.
POOL = range(sum(qbinom(5, d, 2) for d in range(6)))


def _random_graph(size, density):
    """A seeded random graph whose vertices are distinct subspaces of GF(2)^5."""
    rng = random.Random(size * 100 + round(density * 10))
    positions = tuple(rng.sample(POOL, size))
    return _RowGraph(field(2), 5, positions, _complement(_random_adjacency(rng, size, density)))


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

    def test_first_of_several_faults_is_named(self):
        # the checks run in bulk; when one fails, the entries are walked in
        # order and the first fault of any kind is the one named
        ctx = field(2)
        cases = [
            ((8, 8, 16), r"^positions\[1\] = 8 is listed twice$"),
            ((9, 1, 9, 16), r"^positions\[1\] = 1 has dim 1, not admitted$"),
            ((16, 8, 8, 1), r"^positions\[0\] = 16 is not a lattice position in \[0, 16\)$"),
            ((8, 9, "x", 9, 0), r"^positions\[2\] = 'x' is not a lattice position in \[0, 16\)$"),
            ((10, 11, 15, -1, 11), r"^positions\[2\] = 15 has dim 3, not admitted$"),
        ]
        for positions, message in cases:
            with pytest.raises(DomainError, match=message):
                CompatGraph(ctx, 3, PLANES, positions)

    def test_int_subclass_positions_accepted(self):
        # an int subclass fails the bulk type check, and the entry-by-entry
        # check it falls back to accepts it, as it always has
        class Position(int):
            pass

        ctx, half = field(2), FractionSet(((1, 2),))
        plain = CompatGraph(ctx, 3, half, range(14, 0, -1))
        graph = CompatGraph(ctx, 3, half, tuple(map(Position, range(14, 0, -1))))
        assert graph == plain and graph.conflicts == plain.conflicts
        assert plain.conflicts == build_graph(ctx, 3, half, SearchLimits(dim_filter=(1, 2))).conflicts

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
        """Build GF(2)^4 afresh before any clock is faked. A first build
        checks the deadline once per dimension step, so the clock reads
        counted below are those of a cached lattice whose LineIncidence the
        graph builds first."""
        _cached_lattice.cache_clear()
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
        # the lattice's line-mask transposition (67 masks) 2, and the check
        # after row r reads r + 2
        with budget(seconds=5.5):
            with pytest.raises(ResourceLimitError, match=r"^time budget ran out in graph$") as exc:
                build_graph(field(2), 4, self.PREDICATE)
        assert exc.value.partial == {"phase": "graph", "rows": 4, "vertices": 66}

    def test_expiry_after_the_first_row(self, fake_clock):
        # entry reads 0, the lattice check 1, the incidence check 2 and the
        # check after row 1 reads 3
        fake_clock.step = 1
        with budget(seconds=2.5):
            with pytest.raises(ResourceLimitError, match=r"^time budget ran out in graph$") as exc:
                build_graph(field(2), 4, self.PREDICATE)
        assert exc.value.partial == {"phase": "graph", "rows": 1, "vertices": 66}

    def test_every_row_is_checked_under_a_deadline(self, monkeypatch):
        # a scope with a deadline checks it after each row; with none, the
        # rows are taken in one pass and no row check is made
        checked = []
        real = search.check_deadline

        def recorded(phase, **progress):
            checked.append((phase, progress))
            real(phase, **progress)

        monkeypatch.setattr(search, "check_deadline", recorded)
        plain = build_graph(field(2), 4, self.PREDICATE)
        assert [phase for phase, _ in checked] == ["lattice"]
        checked.clear()
        with budget(seconds=1e6):
            timed = build_graph(field(2), 4, self.PREDICATE)
        rows = [progress for phase, progress in checked if phase == "graph"]
        assert rows == [{"rows": k, "vertices": 66} for k in range(1, 67)]
        assert timed.conflicts == plain.conflicts

    def test_graph_unchanged_under_a_distant_deadline(self, fake_clock):
        fake_clock.step = 1
        with budget(seconds=1e6):
            graph = build_graph(field(2), 4, self.PREDICATE)
        again = build_graph(field(2), 4, self.PREDICATE)
        assert graph == again and graph.conflicts == again.conflicts

    def test_expiry_during_search_returns_best_so_far(self, fake_clock):
        graph = build_graph(field(2), 4, self.PREDICATE)
        fake_clock.step = 1
        # entry reads 0; node k's check reads k, so node 6 is refused. The
        # whole search takes 10 nodes since the fixed v_d became a probe
        # (13 before), so the deadline stops it halfway.
        with budget(seconds=5.5):
            res = max_family(graph, SearchLimits())
        assert not res.exhausted
        assert res.nodes == 5
        assert 1 <= res.size <= 8
        assert check_fractional(res.family, self.PREDICATE).ok
        assert _outcome(res) == _outcome(max_family(graph, SearchLimits(max_nodes=5)))

    def test_expiry_while_conflict_rows_are_built(self, fake_clock):
        # GF(2)^6 {1/2} has 2824 vertices, more than one 1024-row block
        lattice(field(2), 6)
        fake_clock.step = 1
        # entry reads 0, the lattice check 1, the three blocks of the
        # lattice's line-mask transposition (2825 masks) 2 to 4, and the
        # check after row r reads r + 4
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


class TestMembers:
    """Each member is the lattice's own Subspace of its position, built once per entry."""

    def test_lattice_subspace_is_built_once(self):
        ctx, n = field(3), 3
        lat = Lattice(ctx, n)
        for g in (0, 1, 13, 20, len(lat) - 1):
            space = lat.subspace(g)
            assert lat.subspace(g) is space
            assert space == subspace_at(ctx, n, lat.index_at(g))
        # the whole table, built later, holds the same objects, and entries
        # read after it come from it
        assert lat.subspaces[13] is lat.subspace(13)
        assert lat.subspace(14) is lat.subspaces[14]
        for g in (-1, len(lat), len(lat) + 5):
            with pytest.raises(DomainError, match=rf"^position {g} outside \[0, {len(lat)}\)$"):
                lat.subspace(g)

    def test_answers_searches(self, answers_searches):
        # every search the benchmark records: the graph's V and E, a size
        # no larger than the known maximum and equal to it when exhausted,
        # and members that are the entries' subspace_at values and each
        # entry's one Subspace
        for key, ref, predicate, limits in answers_searches:
            ctx, n = field(ref["q"]), ref["n"]
            lat = lattice(ctx, n)
            graph = build_graph(ctx, n, predicate, limits)
            result = max_family(graph, limits)
            assert (graph.size, graph.edge_count()) == (ref["V"], ref["E"]), key
            best = ref["max_size"]
            assert best is None or result.size <= best, key
            assert not result.exhausted or best in (None, result.size), key
            members = result.family.members
            at = [lat.global_index(member) for member in members]
            assert set(at) <= set(graph.positions), key
            assert members == tuple(subspace_at(ctx, n, lat.index_at(g)) for g in at), key
            assert all(map(operator.is_, members, map(lat.subspace, at))), key
            assert _checker(predicate)(result.family, predicate).ok, key


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
        # With three levels and the plane block as the first incumbent it
        # takes 22 and 24 nodes: 25 and 29 when each fixed v_d was a bare
        # node, not a probe whose coloring may settle its root (40 and 35
        # with two levels).
        assert _outcome(max_family(down))[:3] == (16, True, 22)
        assert _outcome(max_family(up))[:3] == (16, True, 24)


ORDERS = ["down", "up", "shuffled"]


def _in_order(graph, order):
    """graph over its positions as build_graph lists them, reversed, or in a seeded shuffle."""
    positions = graph.positions
    if order == "up":
        positions = positions[::-1]
    elif order == "shuffled":
        positions = random.Random(len(positions)).sample(positions, len(positions))
    return CompatGraph(graph.ctx, graph.n, graph.predicate, positions)


class TestOrbitalBranching:
    """max_family on whole-block graphs: one root per fixed subspace and orbit.

    Its oracles are the one-root search on the same rows (_row_view), the
    family checkers and networkx. Budgets count every node, the probes of
    the (v_d) and (v_d, r) roots included, and stop the search wherever
    they run out.
    """

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("dim_filter", [None, (2, 3)])
    @pytest.mark.parametrize("predicate", LATTICE_PREDICATES)
    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 3), (2, 5), (3, 4)])
    def test_same_size_as_one_root(self, q, n, predicate, dim_filter, order):
        ctx = field(q)
        graph = build_graph(ctx, n, predicate, SearchLimits(dim_filter=dim_filter))
        graph = _in_order(graph, order)
        rooted = max_family(graph, SearchLimits(max_nodes=20000))
        plain = max_family(_row_view(graph), SearchLimits(max_nodes=20000))
        assert rooted.exhausted
        assert _checker(predicate)(rooted.family, predicate).ok
        order = list(map(lattice(ctx, n).global_index, rooted.family))
        assert order == sorted(order)
        if plain.exhausted:
            assert rooted.size == plain.size

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
    def test_blocks_are_the_per_vertex_masks(self, q, n, order):
        ctx, predicate = field(q), FractionSet(((1, 2),))
        graph = _in_order(build_graph(ctx, n, predicate), order)
        lat = lattice(ctx, n)
        masks = {}
        for k, g in enumerate(graph.positions):
            masks[lat.dims[g]] = masks.get(lat.dims[g], 0) | 1 << k
        assert search._whole_blocks(lat, graph) == masks
        # less one line, the block of lines is not whole
        line = lat.positions([1])[0]
        part = CompatGraph(ctx, n, predicate, [g for g in graph.positions if g != line])
        assert search._whole_blocks(lat, part) == {}

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

    def test_node_budget_stops_in_any_root(self, monkeypatch):
        predicate = FractionSet(((1, 2), (2, 3)))
        graph = build_graph(field(2), 5, predicate)
        total = max_family(graph)
        # 74 nodes when each fixed v_d was a bare node rather than a probe,
        # 317 with two levels and no first incumbent
        assert (total.size, total.exhausted, total.nodes) == (23, True, 70)
        engine, calls = search._branch_and_bound, []

        def spy(nonadj, bits, candidates, prefix, *rest):
            found, used, finished = engine(nonadj, bits, candidates, prefix, *rest)
            calls.append((len(prefix), finished))
            return found, used, finished

        monkeypatch.setattr(search, "_branch_and_bound", spy)
        sizes, stops = [], set()
        for max_nodes in range(1, total.nodes):
            calls.clear()
            res = max_family(graph, SearchLimits(max_nodes=max_nodes))
            assert (res.exhausted, res.nodes) == (False, max_nodes)
            assert check_fractional(res.family, predicate).ok
            sizes.append(res.size)
            # The last root run is the one the budget stopped: the probe of
            # a (v_d) or a (v_d, r) root, or a level-3 root.
            depth, finished = calls[-1]
            assert not finished
            stops.add(f"prefix of {depth}")
        assert stops == {"prefix of 1", "prefix of 2", "prefix of 3"}
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

    # The partial line spreads of PG(4,2) and their duals: two levels took
    # 6816 to 8602 nodes over each of them, the benchmark's slowest searches.
    @pytest.mark.parametrize(
        "profile, dims",
        [
            (ModularProfile(3, (0,), (1,)), (3, 4)),
            (ModularProfile(4, (2,), (0,)), None),
            (ModularProfile(4, (2,), (0, 3)), None),
            (ModularProfile(4, (3,), (1,)), (1, 3)),
            (ModularProfile(5, (2, 3), (1,)), (3, 4)),
            (ModularProfile(5, (2,), (0, 3)), (2, 3)),
        ],
    )
    def test_spreads_are_proved(self, profile, dims):
        graph = build_graph(field(2), 5, profile, SearchLimits(dim_filter=dims))
        res = max_family(graph, SearchLimits(max_nodes=1000))
        assert (res.size, res.exhausted) == (9, True)
        assert check_modular(res.family, profile).ok

    def test_deep_clique_from_one_root(self):
        # all 1057 lines of GF(32)^3 pairwise meet in 0: orbital branching
        # starts from the block of lines and proves it in 1 node, the probe
        # of v_1 (3 when each fixed v_d was a bare node), so the 1057-deep
        # tree, beyond the interpreter's recursion limit, is walked from one
        # root over the same rows
        graph = build_graph(field(32), 3, ModularProfile(2, (1,), (0,)))
        assert max_family(graph).nodes == 1
        assert _outcome(max_family(_row_view(graph)))[:3] == (1057, True, 1057)


def _gl_generators(ctx):
    """Maps of row vectors generating GL(n,q): a transvection, the n-cycle, diag(ω, 1, ...)."""

    def order(w):
        power, k = w, 1
        while power != 1:
            power, k = ctx.mul(power, w), k + 1
        return k

    omega = next(w for w in range(1, ctx.q) if order(w) == ctx.q - 1)
    return (
        lambda x: (x[0], ctx.add(x[1], x[0]), *x[2:]),
        lambda x: (x[-1], *x[:-1]),
        lambda x: (ctx.mul(omega, x[0]), *x[1:]),
    )


class TestTripleKey:
    """The level-3 key is a complete invariant of GL(n,q) orbits on triples.

    Over all triples (v, r, u) of one ambient, the key is (dim v, dim r,
    dim v ∩ r) followed by u's level-3 key (dim u, dim u ∩ v, dim u ∩ r,
    dim u ∩ (v ∩ r), dim u ∩ (v + r)), each read as a popcount of line masks.
    """

    @pytest.mark.parametrize("q,n,orbits", [(2, 3, 128), (3, 3, 128), (2, 4, 367)])
    def test_orbits_are_key_classes(self, q, n, orbits):
        ctx = field(q)
        lat = lattice(ctx, n)
        size, lines = len(lat), lat.lines
        perms = [
            [lat.global_index(canonicalize(ctx, n, [g(row) for row in s.rows])) for s in lat.subspaces]
            for g in _gl_generators(ctx)
        ]
        # The orbits of the generated group on triples t = (v * size + r) * size + u.
        seen = bytearray(size**3)
        found = 0
        for first in range(size**3):
            if seen[first]:
                continue
            found += 1
            seen[first] = 1
            stack = [first]
            while stack:
                vr, u = divmod(stack.pop(), size)
                v, r = divmod(vr, size)
                for p in perms:
                    image = (p[v] * size + p[r]) * size + p[u]
                    if not seen[image]:
                        seen[image] = 1
                        stack.append(image)
        keys = set()
        for v, r in itertools.product(range(size), repeat=2):
            lv, lr = lines[v], lines[r]
            meet, join = lv & lr, lines[lat.join(v, r)]
            head = (lv.bit_count(), lr.bit_count(), meet.bit_count())
            for lu in lines:
                keys.add((
                    *head,
                    lu.bit_count(),
                    (lu & lv).bit_count(),
                    (lu & lr).bit_count(),
                    (lu & meet).bit_count(),
                    (lu & join).bit_count(),
                ))
        # Keys are invariant, so there are at most as many classes as orbits
        # of GL(n,q), and these in turn at most as many as the generated
        # group's: equality makes the key complete.
        assert found == len(keys) == orbits

    def test_functionals_have_rank_9_on_the_indecomposables(self):
        ctx = field(2)
        line = [(1,)]
        # The eight triples on a 1-dimensional V, each of v, r, u 0 or V,
        # and three distinct lines in a plane.
        triples = [
            (1, *(canonicalize(ctx, 1, line if on else []) for on in pick))
            for pick in itertools.product((0, 1), repeat=3)
        ]
        triples.append((2, *(canonicalize(ctx, 2, [row]) for row in ((1, 0), (0, 1), (1, 1)))))
        rows = []
        for ambient, v, r, u in triples:
            rows.append([
                ambient, v.dim, r.dim, meet_dim(v, r), u.dim, meet_dim(u, v), meet_dim(u, r),
                meet_dim(u, intersect(v, r)), meet_dim(u, union_space(v, r)),
            ])
        assert _rank(rows) == 9


def _rank(rows):
    """Rank of an integer matrix, by elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


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

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 3)])
    def test_constant_pair_rows(self, q, n, constant_pair_rule):
        # pairs that admit every possible meet, or none, are one constant
        # mask each; rows still agree with meet_dim on every pair
        lat, allowed = lattice(field(q), n), constant_pair_rule(n, q)
        subs, dims = lat.subspaces, lat.dims
        full = [
            sum(
                1 << h
                for h, other in enumerate(subs)
                if qbinom(meet_dim(subs[g], other), 1, q) in allowed[dims[g]][dims[h]]
            )
            for g in range(len(lat))
        ]
        assert list(compatible_rows(lat, range(len(lat)), allowed)) == full
        for positions in _subsets(random.Random(f"constant {q} {n}"), len(lat)):
            got = list(compatible_rows(lat, positions, allowed))
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
