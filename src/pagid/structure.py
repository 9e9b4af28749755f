"""PAG analytics: edge visibility, buckets, the partial topological order,
and the possible/definite/composite component notions used by identification.

All functions accept a full PAG or any of its induced subgraphs.
Visibility (:func:`.graphs._graphical_visible`), pc-components and
composite pc-components are closed forms on the node masks of
:func:`.graphs.adjacency_masks` and :func:`.graphs.mark_masks`, each
argued in its docstring; none walks the kernel.

The buckets, the partial order, pc, dc and the cpc blocks each have one
kernel, a private function that takes a ``within`` node mask and reads the
graph's own table ANDed with it.  On a :class:`.graphs.Pag` that is the
public function on the induced subgraph over the mask, as a restriction
keeps its parent's marks and visibility flags; the public functions are the
kernels with every node within.  Buckets and cpc blocks are the
:func:`.graphs._blocks` components of the ``o-o`` and the invisible edges,
and a pc-component is a :func:`.graphs._close` closure over the invisible
bidirected edges (:func:`_pc`, or :func:`_pcs` for each node of a mask).
A :class:`.graphs.Pag` settles its visible-edge set when it is built;
:func:`visible_edges` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import MixedGraph, Pag, _blocks, _close, _directed_pairs, _graphical_visible, adjacency_masks, bits, find_closure_violation, flag_masks, mark_masks, mask_of, names_of


def graphical_visible_edges(g: MixedGraph) -> frozenset[tuple[str, str]]:
    """Directed edges x -> y certified visible by the graphical condition.

    x -> y is visible when some node z not adjacent to y either has an edge
    into x, or reaches x by a collider path into x whose every collider is a
    parent of y (Zhang, JMLR 9, 2008).  Read off
    :func:`.graphs._graphical_visible`.
    """
    return _directed_pairs(g, _graphical_visible(g))


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
    ``within``, in closed form over the invisible edges (:func:`_pc_in`)."""
    adj = _invisible_masks(g)
    return _pc_in(adj, [head & out for _, head, out in adj], seed, within)


def _pcs(g: MixedGraph, within: int) -> dict[int, int]:
    """Per node index v of ``within``, ``_pc(g, 1 << v, within)``, with
    the invisible masks and their bidirected edges read once."""
    adj = _invisible_masks(g)
    bidirected = [head & out for _, head, out in adj]
    return {v: _pc_in(adj, bidirected, 1 << v, within) for v in bits(within)}


def _pc_in(adj: list[tuple[int, int, int]], bidirected: list[int], seed: int, within: int) -> int:
    """The pc-component of the mask ``seed`` inside ``within`` on the
    invisible masks ``adj``, whose bidirected edges are ``bidirected``.

    A path from the seed whose interior is all colliders, each with an
    arrowhead at it on both of its path edges, is an edge from a seed node
    into the first collider c1, then c1 <-> c2 <-> ... <-> ck, then an edge
    from ck, with an arrowhead at ck, to the end.  So the component is the seed,
    its neighbours, and the arrowhead neighbours of C, the closure inside
    ``within`` under bidirected edges of the seed's arrowhead neighbours
    in ``within``; a walk of that shape shortens to a path of it, as in
    :func:`.graphs._inducing`.  The ends are kept inside ``within``.
    """
    near = heads = 0
    for s in bits(seed):
        near |= adj[s][0]
        heads |= adj[s][2]
    colliders = _close(bidirected, heads & within, within)
    for c in bits(colliders):
        near |= adj[c][1]
    return near & within | seed


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


def _child_masks(g: MixedGraph) -> list[int]:
    """Per node u: its possible children, the neighbours w with no
    arrowhead at u on the edge to w."""
    return [nbr & ~head for nbr, head, _ in adjacency_masks(g)]
