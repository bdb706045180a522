"""Exhaustive maximum-family search and the three canonical generators.

Both family disciplines are a unary condition on member dimensions plus a
pairwise condition on intersections, so the valid families over an ambient
space are exactly the cliques of a compatibility graph. Maximum cliques are
found by an iterative branch and bound over an explicit stack, so clique
depth is not limited by the interpreter's recursion limit. Greedy coloring
gives the bounds. GL(n,q) preserves every graph build_graph makes, so the
search fixes one subspace per vertex dimension and one per orbit of its
stabiliser (orbital branching) and runs the branch and bound under each
such pair. The search is fully deterministic, and budget exhaustion
is reported as a result state rather than an error. The time budget is the
budgets.budget deadline: build_graph checks it between phases and rows,
max_family at every node.

A CompatGraph is its predicate over a tuple of lattice positions, and it
derives one table from them, the one the search reads: conflicts[k] is
the mask of the vertices that may not join vertex k, k itself left out.
Vertex k is bit k; the search takes the top bit first; build_graph lists
vertices from the last lattice position down, and another order is
another positions tuple. Greedy coloring takes the top bit of a set
next, found by one bit_length() with no negate-and-AND to isolate it,
and clearing top bits also shrinks the ints. Almost all of
a search's time is that coloring, and most of it is spent on the colors
that cannot beat the best clique at node entry (1 .. k_min = best size -
depth). Those are colored in a loop that records nothing; only a node with
a color above k_min records branches and pushes a frame.

Vertices are the subspaces whose dimension the predicate admits, and edges
join the pairs whose meet it allows (its admits and meets methods). The
rows come from gfspace.compatible_rows over the vertices' lattice
positions; it counts the lines a vertex shares with every vertex at once.
The rows are symmetric because the rule is: families.shared_line_counts
refuses a meet rule that is not. The frac-uniform generator takes its
violations from families.offending_pairs, per-pair meet_dim on the
members alone: it builds no lattice.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple, Optional, Union

from .budgets import check_deadline, current_deadline
from .errors import DomainError, StructureError
from .qcombin import qbinom
from .gfspace import (
    FieldContext,
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
    """Compatibility graph of a predicate over lattice positions of GF(q)^n.

    The record holds what the graph is built from: the predicate and the
    lattice positions of its vertices, vertex k at positions[k] and bit k.
    positions is normalised to a tuple, and each entry must be an int in
    [0, len(lattice)), listed once, of a dimension the predicate admits;
    DomainError names the first that is not. The rest is derived:
    vertices[k] is the (dim, pos) SubspaceIndex of positions[k], and
    conflicts[k] the mask of the vertices that may not join vertex k, k
    itself left out. Its rows come from gfspace.compatible_rows under the
    predicate's shared_line_counts table, which refuses a meet rule that
    is not symmetric, so the rows are symmetric by construction; no row
    table is taken from outside. The budget deadline is checked after
    every row ("graph").
    """

    ctx: FieldContext
    n: int
    predicate: Union[ModularProfile, FractionSet]
    positions: tuple[int, ...]

    def _validate(self):
        predicate = self.predicate
        if not isinstance(predicate, (ModularProfile, FractionSet)):
            raise DomainError("predicate must be a ModularProfile or a FractionSet")
        positions = tuple(self.positions)
        object.__setattr__(self, "positions", positions)
        lat = lattice(self.ctx, self.n)
        dims, size = lat.dims, len(lat)
        admitted = [predicate.admits(d) for d in range(self.n + 1)]
        seen = set()
        for k, g in enumerate(positions):
            if not isinstance(g, int) or not 0 <= g < size:
                raise DomainError(f"positions[{k}] = {g!r} is not a lattice position in [0, {size})")
            if g in seen:
                raise DomainError(f"positions[{k}] = {g} is listed twice")
            if not admitted[dims[g]]:
                raise DomainError(f"positions[{k}] = {g} has dim {dims[g]}, not admitted")
            seen.add(g)
        # The | 1 << k leaves vertex k out of its own row.
        full = (1 << len(positions)) - 1
        rows = compatible_rows(lat, positions, shared_line_counts(predicate, self.n, self.ctx.q))
        conflicts = []
        for k, row in enumerate(rows):
            conflicts.append(full ^ (row | 1 << k))
            check_deadline("graph", rows=k + 1, vertices=len(positions))
        object.__setattr__(self, "vertices", tuple(map(lat.index_at, positions)))
        object.__setattr__(self, "conflicts", tuple(conflicts))

    @property
    def size(self) -> int:
        return len(self.positions)

    @property
    def adjacency(self) -> tuple[int, ...]:
        """Row k: the vertices joined to vertex k, derived; the search never reads it."""
        full = (1 << len(self.conflicts)) - 1
        return tuple(full ^ row ^ (1 << k) for k, row in enumerate(self.conflicts))

    def edge_count(self) -> int:
        count = self.size
        return (count * (count - 1) - sum(mask.bit_count() for mask in self.conflicts)) // 2


def build_graph(
    ctx: FieldContext,
    n: int,
    predicate: Union[ModularProfile, FractionSet],
    limits: Optional[SearchLimits] = None,
) -> CompatGraph:
    """Compatibility graph of all candidate subspaces under a predicate.

    The vertices are the subspaces of every dimension d with
    predicate.admits(d) (and in limits.dim_filter, when given), as the
    CompatGraph over their lattice positions from the last one down. The
    lattice budget is checked first, so an ambient over it raises
    ResourceLimitError before anything else is looked at; then a
    dim_filter entry outside [0, n] raises DomainError, and so does a
    predicate of another type. The budget deadline raises
    ResourceLimitError too, checked after the lattice ("lattice"), per 1024
    masks of the line-mask transposition ("incidence") and per row ("graph").
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
    admitted = filter(predicate.admits, range(n + 1))
    positions = lat.positions(d for d in admitted if keep is None or d in keep)[::-1]
    return CompatGraph(ctx, n, predicate, positions)


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


def max_family(graph: CompatGraph, limits: Optional[SearchLimits] = None) -> SearchResult:
    """Exact maximum clique of the compatibility graph, within budgets.

    A CompatGraph whose positions cover whole dimension blocks (every
    build_graph graph, with or without a dim_filter) is searched by orbital
    branching: for each vertex dimension d a node fixes one d-space v_d,
    and under it runs one branch and bound (_branch_and_bound) per root of
    _orbit_tree, each starting from the best size found so far. Its family
    is listed in lattice order. Every other graph (part of a dimension
    block, or any table with ctx, n, size, vertices and conflicts) is one
    branch and bound over all its vertices, and its family is listed from
    the last vertex down (for a build_graph graph, lattice order too).

    nodes counts every node, each v_d included, and limits.max_nodes and
    the budget deadline are checked at each: when either runs out, the
    best family found so far is returned with exhausted False.
    """
    limits = limits or SearchLimits()
    count = graph.size
    nonadj = [0, *graph.conflicts]
    bits = [0, *(1 << j for j in range(count))]
    deadline = current_deadline()
    tree = _orbit_tree(graph, nonadj, bits)
    if tree is None:
        found, nodes, exhausted = _branch_and_bound(
            nonadj, bits, (1 << count) - 1, [], 0, limits.max_nodes, deadline
        )
        best = sorted(found or (), reverse=True)
    else:
        best, nodes, exhausted = [], 0, True
        for roots in tree:
            # Fixing v_d is a node of the search too.
            if nodes >= limits.max_nodes or (deadline is not None and time.monotonic() > deadline):
                exhausted = False
                break
            nodes += 1
            for candidates, prefix in roots:
                found, used, exhausted = _branch_and_bound(
                    nonadj, bits, candidates, prefix, len(best), limits.max_nodes - nodes, deadline
                )
                nodes += used
                best = found or best
                if not exhausted:
                    break
            if not exhausted:
                break
        best.sort(key=lambda b: graph.positions[b - 1])
    members = tuple(subspace_at(graph.ctx, graph.n, graph.vertices[b - 1]) for b in best)
    family = Family(graph.ctx, graph.n, members)
    return SearchResult(family, len(members), exhausted, nodes)


def _orbit_tree(
    graph, nonadj: list[int], bits: list[int]
) -> Optional[list[list[tuple[int, list[int]]]]]:
    """The roots of orbital branching, one list per vertex dimension.

    None unless graph is a CompatGraph whose positions cover whole
    dimension blocks. A root is (candidates, prefix), with vertices as bit
    lengths b (vertex b - 1). Both predicates read only dimensions and meet
    dimensions, so GL(n,q) preserves the graph; it is transitive on
    d-spaces, and the orbits of a d-space's stabiliser on e-spaces are
    named by the meet dimension. So, by orbital branching (Ostrowski,
    Linderoth, Rossi and Smriglio, Math. Programming 2011):

    - Level 1. Take each vertex dimension d, highest first. A clique with a
      d-space and none of a higher vertex dimension may be assumed to hold
      v_d, the top vertex of block d, and its other members are v_d's
      neighbours in the blocks not yet closed. Then block d is closed.
    - Level 2. Split those neighbours into classes by (dim u, dim u ∩ v_d),
      the meet read as the popcount of the two line masks, which is
      [m 1]_q, and take the classes in ascending order of that key. A
      clique holding v_d, a member of the class and none of an earlier
      class may be assumed to hold r, the class's top vertex: the root is
      (v_d, r) over the remaining neighbours adjacent to r. Then the class
      is dropped.

    A v_d with no neighbours left has one root, the clique {v_d}. Highest
    dimension first matters: ascending, GF(2)^5 under the profile b = 5,
    K = {2, 4}, L = {0, 3} takes 8632 nodes instead of 32.
    """
    if not isinstance(graph, CompatGraph):
        return None
    lat = lattice(graph.ctx, graph.n)
    positions = graph.positions
    dims = [lat.dims[g] for g in positions]
    blocks: dict[int, int] = {}
    for k, d in enumerate(dims):
        blocks[d] = blocks.get(d, 0) | 1 << k
    # Positions are distinct, so a block is whole when it holds all [n d]_q d-spaces.
    if any(mask.bit_count() != qbinom(graph.n, d, graph.ctx.q) for d, mask in blocks.items()):
        return None
    tree = []
    unclosed = (1 << len(positions)) - 1
    for d in sorted(blocks, reverse=True):
        v = blocks[d].bit_length()
        # v's neighbours: the unclosed vertices outside its conflict row, less v
        around = (unclosed & ~nonadj[v]) - bits[v]
        unclosed -= blocks[d]
        line_v = lat.lines[positions[v - 1]]
        classes: dict[tuple[int, int], int] = {}
        rest = around
        while rest:
            u = rest.bit_length()
            rest -= bits[u]
            key = (dims[u - 1], (lat.lines[positions[u - 1]] & line_v).bit_count())
            classes[key] = classes.get(key, 0) | bits[u]
        roots = [] if around else [(0, [v])]
        for key in sorted(classes):
            r = classes[key].bit_length()
            roots.append(((around - bits[r]) & ~nonadj[r], [v, r]))
            around &= ~classes[key]
        tree.append(roots)
    return tree


def _branch_and_bound(
    nonadj: list[int],
    bits: list[int],
    candidates: int,
    prefix: list[int],
    best_size: int,
    budget_nodes: int,
    deadline: Optional[float],
) -> tuple[Optional[list[int]], int, bool]:
    """(clique, nodes, finished) of one root: the prefix extended from candidates.

    clique is the best clique found above best_size, the prefix first, as
    bit lengths b (vertex b - 1), or None when none was; nodes is the count
    of nodes entered; finished is False when budget_nodes or the deadline
    ran out first. Each child of the prefix lies in candidates.

    Iterative branch and bound over an explicit stack, with greedy coloring
    upper bounds, visiting vertices from the last one down; repeated runs
    visit the identical tree. Each node colors its candidates greedily
    and branches on them from the highest color down, pruning a vertex whose
    color cannot lift the current clique above the best one. Colors 1 ..
    k_min = best_size - depth at node entry are colored but not recorded,
    because the best clique only grows, so those vertices are always
    pruned; a node with no higher color records nothing and pushes no
    frame.

    Vertex k is bit k; the search takes the top bit first, so b =
    x.bit_length() names the vertex b - 1 greedy coloring takes next,
    without isolating its bit first. The tables are indexed by b (entry 0
    unused): bits[b] is that bit, and nonadj[b] the graph's conflict row of
    vertex b - 1, which leaves the vertex itself out, so that the coloring
    step avail &= nonadj[b] also drops the vertex it has just colored. A
    child's candidates are its parent's, less b, & ~nonadj[b].

    A vertex leaves a set it belongs to by rest -= bits[b], not ^=, because
    CPython specializes int subtraction and not the bitwise operators. The
    bits table stays, at one int per vertex: computing 1 << (b - 1) at each
    step instead made max_family about a quarter slower on the benchmark's
    warm searches (CPython 3.11).
    """
    count = len(bits) - 1
    # The clique so far is current[:depth], as bit lengths.
    current = [*prefix, *[0] * count]
    depth = len(prefix)
    best: Optional[list[int]] = None
    nodes = 0
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
    return best, nodes, not aborted


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
