"""Separation tests for DAGs, MAGs and PAGs.

m- and d-separation run one slice of the walk kernel
:func:`.graphs.sliced_walk`: from ``xs``, colliders may be passed when they
lie in ``zs`` and non-colliders when they are outside ``zs``, and the sets
are separated iff the walk enters no member of ``ys``.  On walks this
reaches the nodes that opening every collider in An(``zs``), the rule for
paths, reaches.  Suppose a walk passes a collider c in An(zs) but not in
zs.  Let c -> d1 -> ... -> dk be a shortest directed path from c into zs:
only dk lies in zs.  Detour there and back: arrive into c, go down to dk
and come back up, and leave c as before.  Each pass of c and of d1 ..
d(k-1) on the detour is a non-collider pass, outside zs; the turn at dk,
into it and back out through the same arrowhead, is a collider pass in zs;
and the walk's later steps keep their marks.

A connecting walk of this kind yields a connecting path, whose colliders
lie in An(zs): a collider in zs is one.  Take the first node v that repeats
and join its first arrival to its last departure.  If v is a non-collider
there and lies in ``zs``, every visit of v was a collider, so the joined v
is a collider: contradiction.  If v is a collider there, one of its visits
was a collider, so v is an ancestor of ``zs``; or else the walk leaves v on
a directed edge and follows directed edges through non-colliders until it
meets a collider, an ancestor of ``zs``.  It cannot follow them all the way
back into v, since an ancestral graph and a DAG have no directed cycle.  The
joined walk's colliders lie in An(``zs``), and the same argument goes on
from there.  A repeated start is cut off, and the walk is cut at its first
member of ``ys``.

The PAG test looks only at definite status paths, opening colliders that
are *possible* ancestors of the conditioning set, so a separation verdict is
conservative: it certifies independence in every graph of the represented
class.  On a MAG (no circles) it coincides with plain m-separation.
Definite status does not survive the walk shortcut (whether a circle-circle
node is a definite non-collider depends on its two path neighbours being
non-adjacent, and joining a walk changes those neighbours), so the test runs
on :func:`proper_paths`, a depth-first search over simple paths that takes a
step only when ``extend(path, w)`` allows it.  It walks node indices on the
graph's mask table, its step rules read the arrowhead and circle masks, and
it yields each path as a tuple of names.  Being open and of definite
status is prefix-closed: a node's status depends only on its two path
neighbours, so the step that leaves it settles it, and a blocked or
undetermined prefix has no open extension.  Pruning there cuts whole
subtrees, so the open paths keep their order in the unpruned search, which
the adjustment criterion's certificates rely on.  The worst case stays
exponential: a dense graph may have exponentially many open prefixes that
all miss ``ys``.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import (
    LatentDag,
    MixedGraph,
    adjacency_masks,
    bits,
    mark_masks,
    mask_of,
    possible_ancestors,
    sliced_walk,
)


def m_separated(g: MixedGraph, xs: Iterable[str], ys: Iterable[str], zs: Iterable[str]) -> bool:
    """m-separation in a MAG: no path connects ``xs`` and ``ys`` given ``zs``."""
    return _separated(g, xs, ys, zs)


def d_separated(d: LatentDag, xs: Iterable[str], ys: Iterable[str], zs: Iterable[str]) -> bool:
    """d-separation in a latent DAG, latents treated as ordinary path nodes."""
    return _separated(d, xs, ys, zs)


def _separated(g, xs: Iterable[str], ys: Iterable[str], zs: Iterable[str]) -> bool:
    x, y, z = mask_of(g, xs), mask_of(g, ys), mask_of(g, zs)
    if x & y:
        raise ValueError("overlapping node sets")
    return separated_mask(g, x, y, z) == y


def separated_mask(g, x: int, y: int, z: int) -> int:
    """Mask of the members of ``y`` that ``z`` separates from ``x``: those
    that the walk from ``x``, colliders in ``z`` and non-colliders outside
    it, does not enter, read as the one slice of
    :func:`.graphs.sliced_walk`.  Node masks in, mask out."""
    adj = adjacency_masks(g)
    collider = [z >> w & 1 for w in range(len(adj))]
    entered = sliced_walk(adj, x, 1, collider, [c ^ 1 for c in collider])
    return sum(1 << w for w in bits(y) if not entered[w])


def proper_paths(g: MixedGraph, sources: Iterable[str], targets: Iterable[str], extend):
    """Yield, as tuples of names, the simple paths from a source to a target
    whose later nodes avoid the sources, exploring ``path + [w]`` only when
    the prefix-closed ``extend(path, w)`` allows it; ``path`` and ``w`` are
    node indices on :func:`.graphs.adjacency_masks`.

    Depth-first preorder: sources by name, neighbours in node order, and a
    prefix ending at a target before its extensions through that target.
    """
    nodes, adj = g.nodes, adjacency_masks(g)
    sources = sorted(set(sources))
    src, tgt = mask_of(g, sources), mask_of(g, targets)
    for start in sources:
        s = g._index[start]
        # ``blocked`` holds the sources and the path; each pending iterator
        # lists a node's neighbours outside it when the node was entered
        path, blocked, pending = [s], src, [bits(adj[s][0] & ~src)]
        while pending:
            for w in pending[-1]:
                if not extend(path, w):
                    continue
                path.append(w)
                blocked |= 1 << w
                if tgt >> w & 1:
                    yield tuple(nodes[i] for i in path)
                pending.append(bits(adj[w][0] & ~blocked))
                break
            else:
                pending.pop()
                blocked ^= 1 << path.pop()


def open_definite_step(g: MixedGraph, zs: Iterable[str], open_collider: Iterable[str]):
    """``extend`` for :func:`proper_paths` that keeps the definite status
    paths open given ``zs``: each interior collider lies in ``open_collider``
    and each interior non-collider outside ``zs``.

    The middle node v of prev - v - w is a collider when both marks at v are
    arrowheads, and a definite non-collider when one of them is a tail, or
    both are circles and prev and w are not adjacent; otherwise its status
    is not definite and the step is refused.
    """
    adj, circle = adjacency_masks(g), mark_masks(g)[1]
    z, open_c = mask_of(g, zs), mask_of(g, open_collider)

    def extend(path: list[int], w: int) -> bool:
        if len(path) < 2:
            return True
        prev, v = path[-2], path[-1]
        pair, head, circ = 1 << prev | 1 << w, adj[v][1], circle[v]
        if head & pair == pair:
            return bool(open_c >> v & 1)
        if z >> v & 1:
            return False
        return bool(pair & ~(head | circ)) or (circ & pair == pair and not adj[prev][0] >> w & 1)

    return extend


def definitely_m_separated(
    g: MixedGraph, xs: Iterable[str], ys: Iterable[str], zs: Iterable[str]
) -> bool:
    """True when every definite status path between ``xs`` and ``ys`` is blocked.

    Colliders count as open when they are possible ancestors of ``zs``; the
    verdict therefore implies m-separation in every MAG represented by ``g``.
    """
    xs, ys, zs = set(xs), set(ys), set(zs)
    if xs & ys:
        raise ValueError("overlapping node sets")
    open_collider = set(possible_ancestors(g, zs)) if zs else set()
    return not any(proper_paths(g, xs, ys, open_definite_step(g, zs, open_collider)))
