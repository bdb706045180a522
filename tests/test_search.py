"""Compatibility graphs, exact maximum-family search, and the three generators."""

import random
import time

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
    check_fractional,
    check_modular,
    bound_singleton,
    certificate_context,
    field,
    gen_example_bisection,
    gen_example_frac_uniform,
    gen_example_uniform,
    intersect,
    max_family,
    meet_dim,
    qbinom,
    shared_line_counts,
    subspace_at,
    zsigmondy_prime,
)
from qlattice import search as search_module
from qlattice.gfspace import compatible_rows, lattice
from qlattice.search import SearchResult, _symmetric


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


def _reversed(graph):
    """The same graph with its vertices listed from the last one down."""
    return CompatGraph(
        graph.ctx, graph.n, graph.vertices[::-1], _reversed_conflicts(graph.adjacency)
    )


def _reference_defect(conflicts):
    """The message of the per-edge check that CompatGraph used to run alone."""
    adjacency = _complement(conflicts)
    for i, mask in enumerate(adjacency):
        if (mask >> i) & 1:
            return f"vertex {i} carries a self-loop"
    for i, mask in enumerate(adjacency):
        rest = mask
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            if not (adjacency[j] >> i) & 1:
                return f"edge ({i}, {j}) is not symmetric"
    return None


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


def _graph(conflicts):
    """A CompatGraph over GF(2)^5 on the first len(conflicts) subspaces."""
    return CompatGraph(field(2), 5, tuple(POOL[: len(conflicts)]), tuple(conflicts))


def _random_graph(size, density):
    """A seeded random graph whose vertices are distinct subspaces of GF(2)^5."""
    rng = random.Random(size * 100 + round(density * 10))
    vertices = tuple(rng.sample(POOL, size))
    return CompatGraph(field(2), 5, vertices, _complement(_random_adjacency(rng, size, density)))


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


class TestCompatGraph:
    def test_symmetry_enforced(self):
        # vertex 1 conflicts with vertex 0, but not 0 with 1
        with pytest.raises(DomainError):
            _graph((0b00, 0b01))

    def test_self_loop_rejected(self):
        with pytest.raises(DomainError):
            _graph((0b1,))

    def test_defect_messages(self):
        with pytest.raises(DomainError, match=r"^edge \(0, 1\) is not symmetric$"):
            _graph((0b00, 0b01))
        with pytest.raises(DomainError, match=r"^vertex 0 carries a self-loop$"):
            _graph((0b1,))

    def test_self_loop_reported_before_asymmetry(self):
        # vertex 2 holds its own bit; edge (0, 1) is one-sided and comes first
        # in edge order
        with pytest.raises(DomainError, match=r"^vertex 2 carries a self-loop$"):
            _graph((0b100, 0b101, 0b111))

    @pytest.mark.parametrize("seed", range(8))
    def test_first_asymmetric_edge_named(self, seed):
        rng = random.Random(seed)
        size = rng.randint(3, 40)
        adjacency = _random_adjacency(rng, size, 0.5)
        conflicts = list(_complement(adjacency))
        edges = [(i, j) for i in range(size) for j in range(size) if adjacency[i] >> j & 1]
        for i, j in rng.sample(edges, min(len(edges), 4)):
            conflicts[i] |= 1 << j
        want = _reference_defect(conflicts)
        assert want is not None and want.startswith("edge (")
        with pytest.raises(DomainError) as info:
            _graph(conflicts)
        assert str(info.value) == want

    @pytest.mark.parametrize("adjacency", [(0b10,), (0b100, 0b000), (-1, 0)])
    def test_adjacency_outside_vertex_range_rejected(self, adjacency):
        with pytest.raises(DomainError, match="adjacent to a vertex outside"):
            _graph(_complement(adjacency))

    @pytest.mark.parametrize(
        "vertex",
        [1, (1,), (1, 2, 3), (1.0, 1), ("1", 1), (-1, 1), (4, 1), (1, 0), (1, 8), (2, 8)],
    )
    def test_malformed_vertex_rejected(self, vertex):
        # GF(2)^3 has 7 lines, 7 planes and one 3-space; a bare int vertex used
        # to pass here and crash max_family in subspace_at
        with pytest.raises(DomainError, match=r"^vertex 1 is not a \(dim, pos\) index"):
            CompatGraph(field(2), 3, (SubspaceIndex(1, 1), vertex), (0, 0))

    def test_valid_vertex_shapes_accepted(self):
        g = CompatGraph(field(2), 3, ((0, 1), SubspaceIndex(3, 1), (2, 7)), (0b110, 0b101, 0b011))
        assert max_family(g).size == 1

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


class TestSymmetryCheck:
    """The tile transpose of CompatGraph's symmetry check against the per-edge walk."""

    @pytest.mark.parametrize("size", [0, 1, 2, 7, 8, 9, 17, 23])
    def test_every_one_sided_edge_found(self, monkeypatch, size):
        # tiles of 8 bits, so most sizes span several tiles and a partial one
        monkeypatch.setattr(search_module, "_TILE", 8)
        conflicts = _complement(_random_adjacency(random.Random(size), size, 0.5))
        assert _symmetric(conflicts)
        for i in range(size):
            for j in range(size):
                if i != j:
                    broken = list(conflicts)
                    broken[i] ^= 1 << j
                    assert not _symmetric(broken), (i, j)

    @pytest.mark.parametrize("tile", [8, 16, 64, 2048])
    def test_random_graphs_at_every_tile_size(self, monkeypatch, tile):
        monkeypatch.setattr(search_module, "_TILE", tile)
        rng = random.Random(tile)
        for _ in range(10):
            size = rng.randint(1, 90)
            conflicts = list(_complement(_random_adjacency(rng, size, rng.random())))
            assert _symmetric(conflicts)
            i, j = rng.sample(range(size), 2) if size > 1 else (0, 0)
            if i != j:
                conflicts[i] ^= 1 << j
                assert not _symmetric(conflicts)
                with pytest.raises(DomainError) as info:
                    _graph(conflicts)
                assert str(info.value) == _reference_defect(conflicts)

    def test_lattice_graph_across_tiles(self, monkeypatch):
        monkeypatch.setattr(search_module, "_TILE", 64)
        graph = build_graph(field(2), 5, FractionSet(((1, 2),)))
        assert graph.size == 373 and _symmetric(graph.conflicts)


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

    def test_expiry_in_the_symmetry_check(self, fake_clock):
        fake_clock.step = 1
        # all 66 rows pass; the check before the first band reads 69
        with budget(seconds=68.5):
            with pytest.raises(ResourceLimitError) as exc:
                build_graph(field(2), 4, self.PREDICATE)
        assert exc.value.partial == {"phase": "graph", "bands_checked": 0, "bands": 1}

    def test_graph_unchanged_under_a_distant_deadline(self, fake_clock):
        fake_clock.step = 1
        with budget(seconds=1e6):
            graph = build_graph(field(2), 4, self.PREDICATE)
        assert graph == build_graph(field(2), 4, self.PREDICATE)

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
    @pytest.mark.parametrize("density", DENSITIES)
    @pytest.mark.parametrize("size", sorted(set(SIZES + WIDTH_SIZES)))
    def test_random_graphs(self, size, density):
        _assert_same_search(_random_graph(size, density))

    @pytest.mark.parametrize("predicate", LATTICE_PREDICATES)
    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
    def test_lattice_graphs(self, q, n, predicate):
        _assert_same_search(build_graph(field(q), n, predicate, SearchLimits()))

    # At 7 and 1000 nodes the budget runs out deep in the tree, mostly with
    # siblings of the node it stops at still untaken; 1000 also lets some
    # searches finish.
    @pytest.mark.parametrize("max_nodes", [1, 7, 100, 1000, 20000])
    @pytest.mark.parametrize("dim_filter", [None, (2, 3)])
    @pytest.mark.parametrize("predicate", LATTICE_PREDICATES)
    @pytest.mark.parametrize("q,n", [(2, 5), (3, 4)])
    def test_full_lattice_graphs(self, q, n, predicate, dim_filter, max_nodes):
        limits = SearchLimits(dim_filter=dim_filter)
        _assert_same_tree(build_graph(field(q), n, predicate, limits), max_nodes)

    def test_gf2_6_half_first_nodes(self):
        _assert_same_tree(build_graph(field(2), 6, FractionSet(((1, 2),))), 2000)

    @pytest.mark.parametrize("density", DENSITIES)
    def test_clique_size_matches_networkx(self, density):
        nx = pytest.importorskip("networkx")
        for size in SIZES:
            g = _random_graph(size, density)
            adjacency = g.adjacency
            nxg = nx.Graph()
            nxg.add_nodes_from(range(size))
            nxg.add_edges_from(
                (i, j) for i in range(size) for j in range(i + 1, size) if adjacency[i] >> j & 1
            )
            assert max_family(g).size == nx.max_weight_clique(nxg, weight=None)[1], size


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
