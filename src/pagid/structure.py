"""PAG analytics: edge visibility, buckets, the partial topological order,
and the possible/definite/composite component notions used by identification.

All functions accept a full PAG or any of its induced subgraphs.
Visibility and composite pc-components are closed forms on the node masks
of :func:`.graphs.adjacency_masks` and :func:`.graphs.mark_masks`, each
argued in its docstring; neither walks the kernel.  pc-component paths run
on the reachability kernel :func:`.graphs.reach` with every non-collider
refused, so the kernel's walks have only colliders inside.  A walk becomes a
simple path by joining the first and last visit of the first node that
repeats: both visits are colliders, so the joined node is a collider from
the same allowed set, and a repeated start is cut off.  A
:class:`.graphs.Pag` settles its visible-edge set when it is built;
:func:`visible_edges` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import ARROW, CIRCLE, MixedGraph, Pag, _close, adjacency_masks, bits, find_closure_violation, flagged_edges, mark_masks, mask_of, names_of, partition, reach


def graphical_visible_edges(g: MixedGraph) -> frozenset[tuple[str, str]]:
    """Directed edges x -> y certified visible by the graphical condition.

    x -> y is visible when some node z not adjacent to y either has an edge
    into x, or reaches x by a collider path into x whose every collider is a
    parent of y (Zhang, JMLR 9, 2008).  Closed form, one pass per child y
    over :func:`.graphs.adjacency_masks`: with Pa the parents of y and far
    the nodes other than y not adjacent to y, the seeds are the members of
    Pa with an edge into them from far, and the visible parents are the
    seeds closed under bidirected edges inside Pa.  That is what the
    kernel's walk from far, with the parents of y as the allowed colliders
    and no non-colliders, reaches into: it leaves a far start along any
    edge, and goes on only from a node of Pa that it entered through an
    arrowhead, along an edge with arrowheads at both ends; Pa, inside the
    neighbours of y, is disjoint from far.
    """
    adj, nodes = adjacency_masks(g), g.nodes
    everything = (1 << len(nodes)) - 1
    bidirected = [head & out for _, head, out in adj]
    out = set()
    for j, pa in enumerate(mark_masks(g)[0]):
        if not pa:
            continue
        far = everything & ~adj[j][0] & ~(1 << j)
        seen = frontier = sum(1 << i for i in bits(pa) if adj[i][1] & far)
        while frontier:
            step = 0
            for i in bits(frontier):
                step |= bidirected[i]
            frontier = step & pa & ~seen
            seen |= frontier
        out.update((nodes[i], nodes[j]) for i in bits(seen))
    return frozenset(out)


def visible_edges(g: MixedGraph) -> frozenset[tuple[str, str]]:
    """Visible directed edges (x, y): the flagged edges together with those
    the graphical condition certifies.

    A :class:`.graphs.Pag` settles this set when it is built and carries it
    in its flags, so an induced subgraph keeps every edge visible in its
    parent; for a PAG this returns the stored set.  Other mixed graphs
    compute the same union on first use and cache it.
    """
    if g._visible is None:
        g._visible = graphical_visible_edges(g) | flagged_edges(g)
    return g._visible


def buckets(g: MixedGraph) -> tuple[tuple[str, ...], ...]:
    """Partition of the nodes into circle-connected components."""
    circle_pairs = (pair for pair, (ma, mb, _) in g._edges.items() if (ma, mb) == (CIRCLE, CIRCLE))
    return partition(g.nodes, circle_pairs)


@dataclass(frozen=True)
class PartialOrder:
    """Buckets ordered so that arrows between buckets always point forward."""

    buckets: tuple[tuple[str, ...], ...]

    def position(self, v: str) -> int:
        for i, b in enumerate(self.buckets):
            if v in b:
                return i
        raise KeyError(v)

    def preceding(self, i: int) -> tuple[str, ...]:
        """All nodes in buckets strictly before bucket ``i``."""
        return tuple(v for b in self.buckets[:i] for v in b)


def pto(g: MixedGraph) -> PartialOrder:
    """Partial topological order over the buckets of ``g``.

    Repeatedly extracts a bucket with only arrowheads incident on it from
    other buckets and returns the reverse extraction order.  Ties are broken
    by extracting the bucket whose smallest member is lexicographically
    largest, which fixes a deterministic total choice; any choice is sound.
    A :class:`.graphs.Pag` and its induced subgraphs are valid PAGs by
    construction; any other mixed graph raises on a closure violation.
    """
    if not isinstance(g, Pag):
        violation = find_closure_violation(g)
        if violation is not None:
            raise ValueError(f"arrowhead closure violated at triple {violation}")
    return _pto_with_preference(g, None)


def _pto_with_preference(g: MixedGraph, extract_first: tuple[str, ...] | None) -> PartialOrder:
    """Partial order extraction, optionally pulling one bucket forward.

    ``extract_first`` is taken whenever it is extractable, which places it as
    late as possible in the resulting order; every extraction choice yields a
    sound order, so callers may pick whichever produces a simpler reduction.
    """
    remaining = list(buckets(g))
    removed: set[str] = set()
    extracted: list[tuple[str, ...]] = []
    while remaining:
        candidates = []
        for b in remaining:
            members = set(b)
            ok = all(
                g.mark_at(u, w) is ARROW
                for u in b
                for w in g.neighbors(u)
                if w not in members and w not in removed
            )
            if ok:
                candidates.append(b)
        if not candidates:
            raise ValueError("no extractable bucket; input is not a valid PAG")
        if extract_first is not None and extract_first in candidates:
            pick = extract_first
        else:
            pick = max(candidates, key=lambda b: min(b))
        extracted.append(pick)
        remaining.remove(pick)
        removed.update(pick)
    return PartialOrder(tuple(reversed(extracted)))


def pc_component(g: MixedGraph, seed: Iterable[str]) -> tuple[str, ...]:
    """Possible c-component of ``seed``: nodes connected to it by a path whose
    non-endpoints are all colliders and whose edges are all invisible."""
    starts = mask_of(g, seed)
    reached, _ = reach(_invisible_masks(g), starts, -1, 0)
    return names_of(g.nodes, reached | starts)


def _invisible_masks(g: MixedGraph) -> list[tuple[int, int, int]]:
    """:func:`.graphs.adjacency_masks` without the visible edges."""
    index = g._index
    adj = list(adjacency_masks(g))
    for a, b in visible_edges(g):
        i, j = index[a], index[b]
        adj[i] = tuple(m & ~(1 << j) for m in adj[i])
        adj[j] = tuple(m & ~(1 << i) for m in adj[j])
    return adj


def dc_component(g: MixedGraph, seed: Iterable[str]) -> tuple[str, ...]:
    """Definite c-component: transitive closure of bidirected edges."""
    bidirected = [head & out for _, head, out in adjacency_masks(g)]
    return names_of(g.nodes, _close(bidirected, mask_of(g, seed)))


def cpc_components(g: MixedGraph) -> tuple[tuple[str, ...], ...]:
    """Unique partition into composite pc-components (transitive closure of
    the pc-component relation); members in node order, blocks by first
    member.

    The blocks are the connected components of the invisible edges.  A
    single invisible edge is a collider path with no interior, so its ends
    share a pc-component, and every pc path runs over invisible edges.
    Each block starts at the lowest node not yet placed and is closed under
    invisible adjacency.
    """
    steps = [nbr for nbr, _, _ in _invisible_masks(g)]
    left = (1 << len(g.nodes)) - 1
    blocks = []
    while left:
        block = _close(steps, left & -left)
        blocks.append(names_of(g.nodes, block))
        left &= ~block
    return tuple(blocks)


def possible_children(g: MixedGraph, xs: Iterable[str]) -> tuple[str, ...]:
    """Nodes adjacent to some member of ``xs`` by an edge not into that member."""
    xs = list(xs)
    for v in xs:
        if not g.has_node(v):
            raise ValueError(f"unknown node {v!r}")
    out = set()
    for x in xs:
        for w in g.neighbors(x):
            if g.mark_at(x, w) is not ARROW:
                out.add(w)
    return g.sort_nodes(out)
