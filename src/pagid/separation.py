"""Separation tests for DAGs, MAGs and PAGs.

m- and d-separation run on the reachability kernel :func:`.graphs.reach`:
from ``xs``, colliders may be passed when they are ancestors of ``zs`` and
non-colliders when they are outside ``zs``, and the sets are separated iff
no member of ``ys`` is reached.  A connecting walk of this kind yields a
connecting path.  Take the first node v that repeats and join its first
arrival to its last departure.  If v is a non-collider there and lies in
``zs``, every visit of v was a collider, so the joined v is a collider:
contradiction.  If v is a collider there, one of its visits was a collider,
so v is an ancestor of ``zs``; or else the walk leaves v on a directed edge
and follows directed edges through non-colliders until it meets a collider,
an ancestor of ``zs``.  It cannot follow them all the way back into v,
since an ancestral graph and a DAG have no directed cycle.  A repeated start
is cut off, and the walk is cut at its first member of ``ys``.

The PAG test enumerates simple paths and looks only at definite status
paths, opening colliders that are *possible* ancestors of the conditioning
set, so a separation verdict is conservative: it certifies independence in
every graph of the represented class.  On a MAG (no circles) it coincides
with plain m-separation.  It stays enumerative because definite status does
not survive the walk shortcut: whether a circle-circle node is a definite
non-collider depends on its two path neighbours being non-adjacent, and
joining a walk changes those neighbours.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import (
    ARROW,
    CIRCLE,
    TAIL,
    LatentDag,
    MixedGraph,
    adjacency_masks,
    ancestor_masks,
    bits,
    mask_of,
    possible_ancestors,
    reach,
)


def _paths(neigh: dict[str, list[str]], sources: set[str], targets: set[str]):
    """Yield all simple paths from any source to any target."""
    stack = [[s] for s in sorted(sources)]
    while stack:
        path = stack.pop()
        v = path[-1]
        for w in neigh[v]:
            if w in path or w in sources:
                continue
            if w in targets:
                yield path + [w]
            else:
                stack.append(path + [w])


def m_separated(g: MixedGraph, xs: Iterable[str], ys: Iterable[str], zs: Iterable[str]) -> bool:
    """m-separation in a MAG: no path connects ``xs`` and ``ys`` given ``zs``."""
    return _separated(g, xs, ys, zs)


def d_separated(d: LatentDag, xs: Iterable[str], ys: Iterable[str], zs: Iterable[str]) -> bool:
    """d-separation in a latent DAG, latents treated as ordinary path nodes."""
    return _separated(d, xs, ys, zs)


def _separated(g, xs: Iterable[str], ys: Iterable[str], zs: Iterable[str]) -> bool:
    an = ancestor_masks(g)
    x, y, z = mask_of(g, xs), mask_of(g, ys), mask_of(g, zs)
    if x & y:
        raise ValueError("overlapping node sets")
    open_collider = 0
    for i in bits(z):
        open_collider |= an[i]
    reached, _ = reach(adjacency_masks(g), x, open_collider, ~z)
    return not reached & y


def definite_status_interior(g: MixedGraph, path: list[str]) -> list[str] | None:
    """Per-interior-node statuses, or None when some node has no definite status.

    A node is a definite collider when both path edges point into it, and a
    definite non-collider when one path edge carries a tail at it, or both
    carry circles while its path neighbours are non-adjacent.
    """
    statuses = []
    for i in range(1, len(path) - 1):
        prev, v, nxt = path[i - 1], path[i], path[i + 1]
        m_prev, m_nxt = g.mark_at(v, prev), g.mark_at(v, nxt)
        if m_prev is ARROW and m_nxt is ARROW:
            statuses.append("collider")
        elif m_prev is TAIL or m_nxt is TAIL:
            statuses.append("noncollider")
        elif m_prev is CIRCLE and m_nxt is CIRCLE and not g.adjacent(prev, nxt):
            statuses.append("noncollider")
        else:
            return None
    return statuses


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
    neigh = {v: list(g.neighbors(v)) for v in g.nodes}
    for path in _paths(neigh, xs, ys):
        statuses = definite_status_interior(g, path)
        if statuses is None:
            continue
        connecting = True
        for v, status in zip(path[1:-1], statuses):
            if status == "collider":
                if v not in open_collider:
                    connecting = False
                    break
            elif v in zs:
                connecting = False
                break
        if connecting:
            return False
    return True
