"""PAG analytics: edge visibility, buckets, the partial topological order,
and the possible/definite/composite component notions used by identification.

All functions accept a full PAG or any of its induced subgraphs.
Visibility (:func:`.graphs._graphical_visible`), pc-components and
composite pc-components are closed forms on the node masks of
:func:`.graphs.adjacency_masks` and :func:`.graphs.mark_masks`, each
argued in its docstring; none walks the kernel.

One class builds the rows that the buckets, the partial order, pc, dc and
the cpc blocks read: :class:`_ScopeRows` takes each of a graph's
possible-children, ``o-o``, invisible and bidirected rows off its table
once, on its first read, and each of its methods takes a ``within`` node
mask and reads those rows ANDed with it.
On a :class:`.graphs.Pag` that is the public function on the induced
subgraph over the mask, as a restriction keeps its parent's marks and
visibility flags.  The public functions build one table and call its
method with every node within; an identification query builds one for
P and serves every scope from it.  Buckets and cpc blocks are the
:func:`.graphs._blocks` components of the ``o-o`` and the invisible edges,
and a pc-component is a :func:`.graphs._close` closure over the invisible
bidirected edges (:meth:`_ScopeRows.pc`).
A :class:`.graphs.Pag` settles its visible-edge set when it is built;
:func:`visible_edges` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    return tuple(names_of(g.nodes, b) for b in _ScopeRows(g).buckets(_every(g)))


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
    return PartialOrder(tuple(names_of(g.nodes, b) for b in _ScopeRows(g).order(_every(g))))


def pc_component(g: MixedGraph, seed: Iterable[str]) -> tuple[str, ...]:
    """Possible c-component of ``seed``: nodes connected to it by a path whose
    non-endpoints are all colliders and whose edges are all invisible."""
    return names_of(g.nodes, _ScopeRows(g).pc(mask_of(g, seed), _every(g)))


def dc_component(g: MixedGraph, seed: Iterable[str]) -> tuple[str, ...]:
    """Definite c-component: transitive closure of bidirected edges."""
    return names_of(g.nodes, _ScopeRows(g).dc(mask_of(g, seed), _every(g)))


def cpc_components(g: MixedGraph) -> tuple[tuple[str, ...], ...]:
    """Unique partition into composite pc-components (transitive closure of
    the pc-component relation); members in node order, blocks by first
    member.

    The blocks are the connected components of the invisible edges.  A
    single invisible edge is a collider path with no interior, so its ends
    share a pc-component, and every pc path runs over invisible edges.
    """
    return tuple(names_of(g.nodes, b) for b in _ScopeRows(g).cpc(_every(g)))


def _every(g: MixedGraph) -> int:
    """The mask of every node of ``g``."""
    return (1 << len(g.nodes)) - 1


class _ScopeRows:
    """The rows of one mixed graph's table that the kernels of its scopes
    read, each built in one pass over the nodes: per node u, its possible
    children (the neighbours w with no arrowhead at u on the edge to w),
    its ``o-o`` neighbours, its invisible rows (:func:`.graphs.adjacency_masks`
    without the visible edges) with their bidirected part, and its
    invisible neighbours.  A visible edge is directed, so the invisible rows
    keep every bidirected edge.

    Each row is built on its first read and kept in the table, so a table
    builds only the rows its calls read: :func:`cpc_components` reads only
    the invisible neighbours, and an identification query that takes no
    removal step builds no pc or dc rows.

    An ``o-o`` neighbour has a circle at both ends.  A :class:`.graphs.Pag`
    refuses a tail facing a circle, so there a circle neighbour with no
    arrowhead at its own end is one; any other graph reads the far end's
    circle off the transposed circle rows, as such a neighbour may face a
    tail.

    Each method takes a ``within`` node mask and returns, as masks, what
    :func:`buckets`, :func:`pto`, :func:`pc_component`, :func:`dc_component`
    or :func:`cpc_components` returns on the subgraph over ``within``.  An
    identification query builds one table and reads every scope off it.
    """

    def __init__(self, g: MixedGraph):
        self.nodes = g.nodes
        self._graph = g

    @cached_property
    def children(self) -> list[int]:
        return [nbr & ~head for nbr, head, _ in adjacency_masks(self._graph)]

    @cached_property
    def circle_circle(self) -> list[int]:
        g = self._graph
        circle = mark_masks(g)[1]
        if isinstance(g, Pag):
            return [c & ~out for c, (_, _, out) in zip(circle, adjacency_masks(g))]
        return [sum(1 << j for j in bits(c) if circle[j] >> i & 1) for i, c in enumerate(circle)]

    @cached_property
    def invisible(self) -> list[tuple[int, int, int]]:
        g = self._graph
        return [(nbr & ~vis, head & ~vis, out & ~vis) for (nbr, head, out), vis in zip(adjacency_masks(g), _visible_masks(g))]

    @cached_property
    def bidirected(self) -> list[int]:
        return [head & out for _, head, out in self.invisible]

    @cached_property
    def linked(self) -> list[int]:
        g = self._graph
        return [nbr & ~vis for (nbr, _, _), vis in zip(adjacency_masks(g), _visible_masks(g))]

    def buckets(self, within: int) -> list[int]:
        """The buckets: the components of the ``o-o`` edges."""
        return _blocks(self.circle_circle, within)

    def order(self, within: int, first: int = 0) -> list[int]:
        """:func:`pto`'s bucket masks.  A bucket is extractable when no member
        has a possible child left outside it.  The bucket ``first`` is taken
        whenever it is extractable, which places it as late as possible in
        the order; every extraction choice yields a sound order, so callers
        may pick whichever produces a simpler reduction.  Each bucket reads
        its members' children outside it as one mask, and the buckets wait in
        falling order of their smallest member name, so the first extractable
        one is the one whose smallest member is largest."""
        children, nodes = self.children, self.nodes
        pending, lead = [], None
        for b in self.buckets(within):
            kids, least = 0, nodes[(b & -b).bit_length() - 1]
            for u in bits(b):
                kids |= children[u]
                if nodes[u] < least:
                    least = nodes[u]
            if b == first:
                lead = (b, kids & ~b)
            else:
                pending.append((least, b, kids & ~b))
        pending.sort(reverse=True)
        extracted: list[int] = []
        while pending or lead:
            if lead and not lead[1] & within:
                pick, lead = lead[0], None
            else:
                for i, (_, _, kids) in enumerate(pending):
                    if not kids & within:
                        break
                else:
                    raise ValueError("no extractable bucket; input is not a valid PAG")
                pick = pending.pop(i)[1]
            extracted.append(pick)
            within &= ~pick
        return extracted[::-1]

    def pc(self, seed: int, within: int) -> int:
        """The pc-component of the mask ``seed``, in closed form over the
        invisible edges.

        A path from the seed whose interior is all colliders, each with an
        arrowhead at it on both of its path edges, is an edge from a seed
        node into the first collider c1, then c1 <-> c2 <-> ... <-> ck, then
        an edge from ck, with an arrowhead at ck, to the end.  So the
        component is the seed, its neighbours, and the arrowhead neighbours
        of C, the closure inside ``within`` under bidirected edges of the
        seed's arrowhead neighbours in ``within``; a walk of that shape
        shortens to a path of it, as in :func:`.graphs._inducing`.  The ends
        are kept inside ``within``.
        """
        near = heads = 0
        for s in bits(seed):
            near |= self.invisible[s][0]
            heads |= self.invisible[s][2]
        colliders = _close(self.bidirected, heads & within, within)
        for c in bits(colliders):
            near |= self.invisible[c][1]
        return near & within | seed

    def dc(self, seed: int, within: int) -> int:
        """The dc-component of the mask ``seed``: its closure under
        bidirected edges."""
        return _close(self.bidirected, seed, within)

    def cpc(self, within: int) -> list[int]:
        """The cpc blocks: the components of the invisible edges."""
        return _blocks(self.linked, within)
