"""Exhaustive maximum-family search and the three canonical generators.

Both family disciplines are a unary condition on member dimensions plus a
pairwise condition on intersections, so the valid families over an ambient
space are exactly the cliques of a compatibility graph. Maximum cliques are
found by an iterative branch and bound over an explicit stack, so clique
depth is not limited by the interpreter's recursion limit. Greedy coloring
gives the bounds. The search is fully deterministic, and budget exhaustion
is reported as a result state rather than an error. The time budget is the
budgets.budget deadline: build_graph checks it between phases and rows,
max_family every 1024 rows of its table build (raising, like build_graph)
and at every node.

max_family holds candidate sets in reversed bit order, vertex v at bit
position count - v counted from 1. Greedy coloring takes the lowest-index
vertex of a set next, and in this order that vertex is the set's top bit,
found by one bit_length() with no negate-and-AND to isolate it; clearing
top bits also shrinks the ints. Almost all of a search's time is that
coloring, and most of it is spent on the colors that cannot beat the best
clique at node entry (1 .. k_min = best size - depth). Those are colored in
a loop that records nothing; only a node with a color above k_min records
branches and pushes a frame. The tree is node for node the one of index
order, and the graph's own adjacency stays in index order.

Vertices are the subspaces whose dimension the predicate admits, and edges
join the pairs whose meet it allows (its admits and meets methods). The
adjacency rows come from gfspace.compatible_rows, which counts the lines a
vertex shares with every vertex at once. The symmetry check of CompatGraph
transposes the adjacency in square tiles of big ints, so its memory stays
at one band of tiles. The frac-uniform generator takes its violations from
families.offending_pairs, per-pair meet_dim on the members alone: it builds
no lattice.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

from .budgets import check_deadline, current_deadline
from .errors import DomainError, StructureError
from .qcombin import qbinom
from .gfspace import (
    FieldContext,
    SubspaceIndex,
    canonicalize,
    compatible_rows,
    enumerate_subspaces,
    field,
    lattice,
    require_lattice_budget,
    subspace_at,
)
from .families import (
    Family,
    FractionSet,
    ModularProfile,
    offending_pairs,
    shared_line_counts,
)
from .options import DEFAULT_MAX_NODES
from .records import Record


class SearchLimits(Record):
    """Node budget and vertex dimensions for graph construction and clique search.

    dim_filter, when given, restricts graph vertices to the listed
    dimensions on top of the unary condition. Time is budgets.budget's.
    """

    max_nodes: int = DEFAULT_MAX_NODES
    dim_filter: Optional[tuple[int, ...]] = None

    def _validate(self):
        if self.max_nodes < 1:
            raise DomainError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if self.dim_filter is not None:
            object.__setattr__(self, "dim_filter", tuple(sorted(set(self.dim_filter))))


class CompatGraph(Record):
    """Compatibility graph: vertices pass the unary condition, edges the pairwise one.

    Each vertex is a (dim, pos) SubspaceIndex of GF(q)^n; the adjacency is a
    symmetric loop-free bitmask per vertex. Both are validated on construction.
    """

    ctx: FieldContext
    n: int
    vertices: tuple[SubspaceIndex, ...]
    adjacency: tuple[int, ...]

    def _validate(self):
        n, q = self.n, self.ctx.q
        widths = [qbinom(n, d, q) for d in range(n + 1)]
        for i, v in enumerate(self.vertices):
            if not (
                isinstance(v, tuple)
                and len(v) == 2
                and isinstance(v[0], int)
                and isinstance(v[1], int)
                and 0 <= v[0] <= n
                and 1 <= v[1] <= widths[v[0]]
            ):
                raise DomainError(f"vertex {i} is not a (dim, pos) index into GF({q})^{n}: {v!r}")
        count = len(self.vertices)
        if count != len(self.adjacency):
            raise DomainError("adjacency size disagrees with the vertex count")
        for i, mask in enumerate(self.adjacency):
            if mask < 0 or mask >> count:
                raise DomainError(f"vertex {i} is adjacent to a vertex outside 0..{count - 1}")
        # Only a failing check walks the edges to name the first bad one.
        if any((mask >> i) & 1 for i, mask in enumerate(self.adjacency)) or not _symmetric(
            self.adjacency
        ):
            self._raise_first_defect()

    def _raise_first_defect(self):
        for i, mask in enumerate(self.adjacency):
            if (mask >> i) & 1:
                raise DomainError(f"vertex {i} carries a self-loop")
        for i, mask in enumerate(self.adjacency):
            rest = mask
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                rest ^= low
                if not (self.adjacency[j] >> i) & 1:
                    raise DomainError(f"edge ({i}, {j}) is not symmetric")

    @property
    def size(self) -> int:
        return len(self.vertices)

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2


# Side of the square tiles the symmetry check transposes, at most.
_TILE = 1024


@lru_cache(maxsize=None)
def _swap_masks(tile: int) -> tuple[tuple[int, int], ...]:
    """(delta, mask) of each stage of the tile x tile bit-matrix transpose.

    Row r of a tile is bits r·tile .. r·tile + tile - 1 of one int. The
    stage of width w swaps, in every 2w x 2w block, the top-right w x w
    block with the bottom-left one: mask holds the top-right bits (rows r
    with r mod 2w < w, columns c with c mod 2w >= w), and delta = w(tile - 1)
    moves each onto its partner. After the stages w = tile/2, ..., 1 the
    tile is transposed (Warren, Hacker's Delight, section 7-3).
    """
    stages = []
    width = tile // 2
    while width:
        row = sum(((1 << width) - 1) << c for c in range(width, tile, 2 * width))
        block = row.to_bytes(tile // 8, "little") * width + bytes(tile // 8) * width
        stages.append((width * (tile - 1), int.from_bytes(block * (tile // (2 * width)), "little")))
        width //= 2
    return tuple(stages)


def _symmetric(rows: Sequence[int]) -> bool:
    """Whether bit j of rows[i] equals bit i of rows[j] for every i and j.

    The matrix, padded with zero rows to whole tiles, is cut into square
    tiles; tile (i, j) must be the transpose of tile (j, i), so only tiles
    with i <= j are read. Band j holds column tiles j of rows 0 .. (j+1)·tile
    as bytes. Each of its tiles is transposed in a few big-int operations
    per stage (_swap_masks), and the transposed tiles, laid side by side,
    must give back the low (j+1)·tile bits of the band's own rows. Memory
    stays at about one band of bits; the budget deadline is checked per band.
    """
    count = len(rows)
    tile = 8
    while tile < min(count, _TILE):
        tile *= 2
    width, tiles = tile // 8, -(-count // tile)
    stages = _swap_masks(tile)
    lane = (1 << tile) - 1
    padding = [bytes(width)] * (tiles * tile - count)
    for j in range(tiles):
        check_deadline("graph", bands_checked=j, bands=tiles)
        band = [
            ((mask >> (j * tile)) & lane).to_bytes(width, "little")
            for mask in rows[: (j + 1) * tile]
        ]
        band += padding[: (j + 1) * tile - len(band)]
        transposed = []
        for i in range(j + 1):
            matrix = int.from_bytes(b"".join(band[i * tile : (i + 1) * tile]), "little")
            for delta, swap in stages:
                moved = (matrix ^ (matrix >> delta)) & swap
                matrix ^= moved | (moved << delta)
            transposed.append(matrix.to_bytes(tile * width, "little"))
        low = (1 << ((j + 1) * tile)) - 1
        for r in range(min(tile, count - j * tile)):
            row = b"".join(block[r * width : (r + 1) * width] for block in transposed)
            if int.from_bytes(row, "little") != rows[j * tile + r] & low:
                return False
    return True


def build_graph(
    ctx: FieldContext,
    n: int,
    predicate: Union[ModularProfile, FractionSet],
    limits: Optional[SearchLimits] = None,
) -> CompatGraph:
    """Compatibility graph of all candidate subspaces under a predicate.

    The vertices are the subspaces of every dimension d with
    predicate.admits(d) (and in limits.dim_filter, when given), in lattice
    order; two vertices are joined when predicate.meets allows their meet.
    The rows come from gfspace.compatible_rows over the lattice's line
    masks. The lattice budget is checked first, so an ambient over it
    raises ResourceLimitError before anything else is looked at; then a
    dim_filter entry outside [0, n] raises DomainError. The budget deadline
    raises ResourceLimitError too, checked after the lattice ("lattice")
    and per row ("graph").
    """
    require_lattice_budget(n, ctx.q)
    limits = limits or SearchLimits()
    keep = limits.dim_filter
    for d in keep or ():
        if not 0 <= d <= n:
            raise DomainError(f"dim_filter entry {d} lies outside [0, {n}]")
    if not isinstance(predicate, (ModularProfile, FractionSet)):
        raise DomainError("predicate must be a ModularProfile or a FractionSet")
    lat = lattice(ctx, n)
    check_deadline("lattice")
    dims = {d for d in range(n + 1) if predicate.admits(d) and (keep is None or d in keep)}
    positions = [g for g, d in enumerate(lat.dims) if d in dims]
    # No row holds its own vertex: the [d 1]_q lines it shares with itself
    # are a meet of dimension d, which no predicate admitting d allows (K
    # and L are disjoint, and every listed fraction is below 1).
    adjacency = []
    for row in compatible_rows(
        [lat.lines[g] for g in positions],
        [lat.dims[g] for g in positions],
        shared_line_counts(predicate, n, ctx.q),
    ):
        adjacency.append(row)
        check_deadline("graph", rows=len(adjacency), vertices=len(positions))
    vertices = tuple(
        SubspaceIndex(lat.dims[g], g - lat.offsets[lat.dims[g]] + 1) for g in positions
    )
    return CompatGraph(ctx, n, vertices, tuple(adjacency))


class SearchResult(Record):
    """Best family found, whether the search space was exhausted, and the node count."""

    family: Family
    size: int
    exhausted: bool
    nodes: int

    def to_json_dict(self) -> dict:
        from .families import family_to_dict

        return {
            "size": self.size,
            "exhausted": self.exhausted,
            "nodes": self.nodes,
            "family": family_to_dict(self.family),
        }


# Each byte with its eight bits in reverse order.
_BIT_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def max_family(graph: CompatGraph, limits: Optional[SearchLimits] = None) -> SearchResult:
    """Exact maximum clique of the compatibility graph, within budgets.

    Iterative branch and bound over an explicit stack, with greedy coloring
    upper bounds, visiting vertices in canonical index order; repeated runs
    return the identical family. Each node colors its candidates greedily
    and branches on them from the highest color down, pruning a vertex whose
    color cannot lift the current clique above the best one. Colors 1 ..
    k_min = best_size - depth at node entry are colored but not recorded,
    because the best clique only grows, so those vertices are always
    pruned; a node with no higher color records nothing and pushes no
    frame. When limits.max_nodes or the budget deadline runs out, the best
    family found so far is returned with exhausted False.

    Candidate sets are held in reversed bit order: vertex v sits at bit
    position b = count - v, counted from 1, so b = x.bit_length() names the
    lowest-index vertex of x, the next one greedy coloring takes, without
    isolating its bit first. The tables are indexed by b (entry 0 unused):
    bits[b] is that bit, and nonadj[b] the reversed row of the vertex's
    non-neighbours, the vertex itself left out, so that the coloring step
    avail &= nonadj[b] also drops the vertex it has just colored. The rows
    are built once per call, with the budget deadline ("search") checked
    after every 1024 rows. A child's candidates are its parent's, less b,
    & ~nonadj[b]. The tree is the one index order gives.

    A vertex leaves a set it belongs to by rest -= bits[b], not ^=, because
    CPython specializes int subtraction and not the bitwise operators. The
    bits table stays, at one int per vertex: computing 1 << (b - 1) at each
    step instead made max_family about a quarter slower on the benchmark's
    warm searches (CPython 3.11).
    """
    limits = limits or SearchLimits()
    count = graph.size
    adjacency = graph.adjacency
    budget_nodes = limits.max_nodes
    deadline = current_deadline()

    # Bit j of a row in index order lands on bit count - 1 - j once reversed.
    width = -(-count // 8)
    pad = 8 * width - count
    full = (1 << count) - 1
    nonadj = [0]
    for v in reversed(range(count)):
        row = (full ^ adjacency[v] ^ (1 << v)).to_bytes(width, "little")
        nonadj.append(int.from_bytes(row.translate(_BIT_REVERSED), "big") >> pad)
        if not (count - v) % 1024:
            check_deadline("search", rows=count - v, vertices=count)
    bits = [0, *(1 << j for j in range(count))]
    # The clique so far is current[:depth], as bit positions.
    current = [0] * count
    best: list[int] = []
    best_size = depth = nodes = 0
    aborted = False
    # A branch is one int, bound << shift | b: vertex b and the size its
    # subtree may reach, the node's depth plus b's color. It is pruned when
    # bound <= best_size, that is when the int is below floor.
    shift = count.bit_length()
    stride = 1 << shift
    low = stride - 1
    floor = (best_size + 1) << shift
    # A frame is (candidates, branches): a node's remaining candidates and
    # its recorded branches, taken from the end. Each branch list starts
    # with a 0, below every floor, so an exhausted node reads as pruned. The
    # innermost frame is held in top_candidates and top_branches, the ones
    # around it on the stack; the frame at depth d sits under current[:d],
    # and the bottom one is a sentinel with no branch.
    stack: list[tuple[int, list[int]]] = []
    top_candidates = 0
    top_branches: list[int] = [0]
    candidates = full
    while True:
        if candidates:
            # Enter a node on the candidate set.
            if nodes >= budget_nodes or (deadline is not None and time.monotonic() > deadline):
                aborted = True
                break
            nodes += 1
            rest = candidates
            # Colors 1 .. k_min = best_size - depth are never branched on.
            for _ in range(best_size - depth):
                avail = rest
                while avail:
                    b = avail.bit_length()
                    rest -= bits[b]
                    avail &= nonadj[b]
                if not rest:
                    break
            if rest:
                # The first recorded color is max(k_min, 0) + 1.
                branches = [0]
                key = max(best_size, depth) << shift
                while rest:
                    key += stride
                    avail = rest
                    while avail:
                        b = avail.bit_length()
                        branches.append(key | b)
                        rest -= bits[b]
                        avail &= nonadj[b]
                stack.append((top_candidates, top_branches))
                top_candidates = candidates
                top_branches = branches
            else:
                # No color above k_min: back out of the node at once.
                depth -= 1
        elif depth:
            # A leaf: the clique cannot grow.
            if depth > best_size:
                best = current[:depth]
                best_size = depth
                floor = (best_size + 1) << shift
            depth -= 1
        # Leave every exhausted or pruned node, then take the next branch.
        while top_branches[-1] < floor:
            if not stack:
                break
            top_candidates, top_branches = stack.pop()
            depth -= 1
        else:
            b = top_branches.pop() & low
            # b leaves the node's candidates before its subtree rather than
            # after, so the child's candidates, which must lack b, are the
            # remaining ones outside nonadj[b].
            top_candidates -= bits[b]
            candidates = top_candidates & ~nonadj[b]
            current[depth] = b
            depth += 1
            continue
        # Only the bottom sentinel is left: the root is exhausted.
        break

    chosen = sorted(count - b for b in best)
    members = tuple(
        subspace_at(graph.ctx, graph.n, graph.vertices[v]) for v in chosen
    )
    family = Family(graph.ctx, graph.n, members)
    return SearchResult(family, len(members), not aborted, nodes)


# ---------------------------------------------------------------------------
# generators


class UniformExample(NamedTuple):
    family: Family
    profile: ModularProfile


class FracUniformExample(NamedTuple):
    family: Family
    fractions: FractionSet
    violations: tuple[tuple[int, int], ...]


class BisectionExample(NamedTuple):
    family: Family
    fractions: FractionSet


def gen_example_uniform(k: int, s: int, q: int) -> UniformExample:
    """All k-dimensional subspaces of GF(q)^(k+s), with a matching profile.

    The default modulus b = s + 2 makes K = {k mod b} disjoint from the s
    consecutive intersection residues L = {k-s, ..., k-1 mod b}: k - i with
    1 <= i <= s can only collide with k mod (s + 2) when i is a multiple of
    s + 2, which the range excludes.
    """
    if k < 1 or s < 1:
        raise DomainError(f"need k >= 1 and s >= 1, got k={k}, s={s}")
    n = k + s
    ctx = field(q)
    members = tuple(enumerate_subspaces(ctx, n, k))
    b = s + 2
    K = (k % b,)
    L = tuple(sorted({(k - i) % b for i in range(1, s + 1)}))
    return UniformExample(Family(ctx, n, members), ModularProfile(b, K, L))


def gen_example_frac_uniform(s: int, n: int, q: int) -> FracUniformExample:
    """All s-dimensional subspaces of GF(q)^n with fractions {i/s: 0 < i < s}.

    The fractions are reduced and deduplicated. Pairs meeting in dimension 0
    fail every positive fraction, so the construction is a valid fractional
    family exactly when no two members are disjoint; all violating pairs are
    reported.
    """
    if not 1 <= s <= n:
        raise DomainError(f"need 1 <= s <= n, got s={s}, n={n}")
    ctx = field(q)
    family = Family(ctx, n, tuple(enumerate_subspaces(ctx, n, s)))
    reduced = sorted({(i // math.gcd(i, s), s // math.gcd(i, s)) for i in range(1, s)})
    fractions = FractionSet(tuple(reduced))
    violations = tuple((i, j) for i, j, _ in offending_pairs(family, fractions))
    return FracUniformExample(family, fractions, violations)


def gen_example_bisection(n: int, q: int) -> BisectionExample:
    """The planes through a fixed line: span(v1, u) over all lines u of V'.

    V' is the span of the last n - 1 standard basis vectors; any two members
    meet exactly in span(v1), so the family is {1/2}-intersecting and has
    qbinom(n-1, 1, q) members.
    """
    if n < 2:
        raise DomainError(f"ambient dimension must be >= 2, got {n}")
    ctx = field(q)
    e1 = (1,) + (0,) * (n - 1)
    members = []
    for line in enumerate_subspaces(ctx, n - 1, 1):
        padded = (0,) + line.rows[0]
        members.append(canonicalize(ctx, n, [e1, padded]))
    family = Family(ctx, n, tuple(members))
    if len(family) != qbinom(n - 1, 1, q):
        raise StructureError("generator produced an unexpected member count")
    return BisectionExample(family, FractionSet(((1, 2),)))
