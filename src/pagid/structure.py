"""PAG analytics: edge visibility, buckets, the partial topological order,
and the possible/definite/composite component notions used by identification.

All functions accept a full PAG or any of its induced subgraphs.
Visibility and composite pc-components are closed forms on the node masks
of :func:`.graphs.adjacency_masks` and :func:`.graphs.mark_masks`, each
argued in its docstring; neither walks the kernel.

The buckets, the partial order, pc, dc and the cpc blocks each have one
kernel, a private function that takes a ``within`` node mask and reads the
graph's own table ANDed with it.  On a :class:`.graphs.Pag` that is the
public function on the induced subgraph over the mask, as a restriction
keeps its parent's marks and visibility flags; the public functions are the
kernels with every node within.  Buckets and cpc blocks are the
:func:`.graphs._blocks` components of the ``o-o`` and the invisible edges.

pc-component paths run on the reachability kernel :func:`.graphs.reach`
with every non-collider refused, so the kernel's walks have only colliders
inside.  A walk becomes a
simple path by joining the first and last visit of the first node that
repeats: both visits are colliders, so the joined node is a collider from
the same allowed set, and a repeated start is cut off.  A
:class:`.graphs.Pag` settles its visible-edge set when it is built;
:func:`visible_edges` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import MixedGraph, Pag, _blocks, _close, _directed_pairs, adjacency_masks, bits, find_closure_violation, flag_masks, mark_masks, mask_of, names_of, reach


def graphical_visible_edges(g: MixedGraph) -> frozenset[tuple[str, str]]:
    """Directed edges x -> y certified visible by the graphical condition.

    x -> y is visible when some node z not adjacent to y either has an edge
    into x, or reaches x by a collider path into x whose every collider is a
    parent of y (Zhang, JMLR 9, 2008).  Read off :func:`_graphical_visible`.
    """
    return _directed_pairs(g, _graphical_visible(g))


def _graphical_visible(g: MixedGraph) -> tuple[int, ...]:
    """Per node index, the neighbours joined to it by a graphically visible
    edge, as :func:`.graphs.flag_masks` holds the flagged ones.

    Closed form, one pass per child y over :func:`.graphs.adjacency_masks`:
    with Pa the parents of y and far the nodes other than y not adjacent to
    y, the seeds are the members of Pa with an edge into them from far, and
    the visible parents are the seeds closed under bidirected edges inside
    Pa.  That is what the kernel's walk from far, with the parents of y as
    the allowed colliders and no non-colliders, reaches into: it leaves a
    far start along any edge, and goes on only from a node of Pa that it
    entered through an arrowhead, along an edge with arrowheads at both
    ends; Pa, inside the neighbours of y, is disjoint from far.
    """
    adj = adjacency_masks(g)
    everything = (1 << len(adj)) - 1
    bidirected = [head & out for _, head, out in adj]
    visible = [0] * len(adj)
    for j, pa in enumerate(mark_masks(g)[0]):
        if not pa:
            continue
        far = everything & ~adj[j][0] & ~(1 << j)
        seeds = sum(1 << i for i in bits(pa) if adj[i][1] & far)
        for i in bits(_close(bidirected, seeds, pa)):
            visible[i] |= 1 << j
            visible[j] |= 1 << i
    return tuple(visible)


def visible_edges(g: MixedGraph) -> frozenset[tuple[str, str]]:
    """Visible directed edges (x, y): the flagged edges together with those
    the graphical condition certifies.

    A :class:`.graphs.Pag` settles this set when it is built and carries it
    in its flags, so an induced subgraph keeps every edge visible in its
    parent; for a PAG this reads the flags.  Other mixed graphs compute the
    union on each call.
    """
    return _directed_pairs(g, _visible_masks(g))


def _visible_masks(g: MixedGraph) -> tuple[int, ...]:
    """:func:`visible_edges` as masks: per node index, the neighbours joined
    to it by a visible edge."""
    if isinstance(g, Pag):
        return flag_masks(g)
    return tuple(f | v for f, v in zip(flag_masks(g), _graphical_visible(g)))


def buckets(g: MixedGraph) -> tuple[tuple[str, ...], ...]:
    """Partition of the nodes into circle-connected components."""
    return tuple(names_of(g.nodes, b) for b in _buckets(g, (1 << len(g.nodes)) - 1))


def _buckets(g: MixedGraph, within: int) -> list[int]:
    """:func:`buckets` of the subgraph over ``within``, as masks."""
    circle = mark_masks(g)[1]
    circle_circle = [sum(1 << j for j in bits(c) if circle[j] >> i & 1) for i, c in enumerate(circle)]
    return _blocks(circle_circle, within)


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
    return PartialOrder(tuple(names_of(g.nodes, b) for b in _order(g, (1 << len(g.nodes)) - 1)))


def _order(g: MixedGraph, within: int, first: int = 0) -> list[int]:
    """:func:`pto`'s bucket masks over ``within``.  A bucket is extractable
    when no member has a possible child left outside it.  The bucket
    ``first`` is taken whenever it is extractable, which places it as late
    as possible in the order; every extraction choice yields a sound order,
    so callers may pick whichever produces a simpler reduction."""
    children, nodes = _child_masks(g), g.nodes
    remaining = _buckets(g, within)
    least = {b: min(names_of(nodes, b)) for b in remaining}
    extracted: list[int] = []
    while remaining:
        candidates = [b for b in remaining if not any(children[u] & within & ~b for u in bits(b))]
        if not candidates:
            raise ValueError("no extractable bucket; input is not a valid PAG")
        pick = first if first in candidates else max(candidates, key=least.__getitem__)
        extracted.append(pick)
        remaining.remove(pick)
        within &= ~pick
    return extracted[::-1]


def pc_component(g: MixedGraph, seed: Iterable[str]) -> tuple[str, ...]:
    """Possible c-component of ``seed``: nodes connected to it by a path whose
    non-endpoints are all colliders and whose edges are all invisible."""
    return names_of(g.nodes, _pc(g, mask_of(g, seed), -1))


def _pc(g: MixedGraph, seed: int, within: int) -> int:
    """:func:`pc_component` of the mask ``seed`` in the subgraph over
    ``within``: walks pass only colliders inside it, and keep ends inside it."""
    reached, _ = reach(_invisible_masks(g), seed, within, 0)
    return reached & within | seed


def _invisible_masks(g: MixedGraph) -> list[tuple[int, int, int]]:
    """:func:`.graphs.adjacency_masks` without the visible edges."""
    return [
        (nbr & ~vis, head & ~vis, out & ~vis) for (nbr, head, out), vis in zip(adjacency_masks(g), _visible_masks(g))
    ]


def dc_component(g: MixedGraph, seed: Iterable[str]) -> tuple[str, ...]:
    """Definite c-component: transitive closure of bidirected edges."""
    return names_of(g.nodes, _dc(g, mask_of(g, seed), -1))


def _dc(g: MixedGraph, seed: int, within: int) -> int:
    """:func:`dc_component` of the mask ``seed`` in the subgraph over ``within``."""
    return _close([head & out for _, head, out in adjacency_masks(g)], seed, within)


def cpc_components(g: MixedGraph) -> tuple[tuple[str, ...], ...]:
    """Unique partition into composite pc-components (transitive closure of
    the pc-component relation); members in node order, blocks by first
    member.

    The blocks are the connected components of the invisible edges.  A
    single invisible edge is a collider path with no interior, so its ends
    share a pc-component, and every pc path runs over invisible edges.
    """
    return tuple(names_of(g.nodes, b) for b in _cpc(g, (1 << len(g.nodes)) - 1))


def _cpc(g: MixedGraph, within: int) -> list[int]:
    """:func:`cpc_components` of the subgraph over ``within``, as masks."""
    return _blocks([nbr for nbr, _, _ in _invisible_masks(g)], within)


def possible_children(g: MixedGraph, xs: Iterable[str]) -> tuple[str, ...]:
    """Nodes adjacent to some member of ``xs`` by an edge not into that member."""
    children, out = _child_masks(g), 0
    for u in bits(mask_of(g, xs)):
        out |= children[u]
    return names_of(g.nodes, out)


def _child_masks(g: MixedGraph) -> list[int]:
    """Per node u: its possible children, the neighbours w with no
    arrowhead at u on the edge to w."""
    return [nbr & ~head for nbr, head, _ in adjacency_masks(g)]
