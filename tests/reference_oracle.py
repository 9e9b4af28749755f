"""Reference oracle code, kept for the tests after the library stopped
using it: :func:`truncations` gives the tables of
:func:`pagid.oracle.interventional` one value at a time;
:func:`equivalence_class` walks every tail/arrow assignment and builds each
member from an edge list, :func:`pag_of_class` reads the invariant marks
edge by edge through names, and :func:`mag_of_dag` builds the projection
from an edge list, as the library did before it enumerated and built on
mask tables."""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from pagid.exprs import JointTable
from pagid.graphs import (
    ARROW,
    CIRCLE,
    TAIL,
    LatentDag,
    Mag,
    Pag,
    _almost_cycles,
    _ancestors,
    _confounded,
    _directed_cycle,
    _inducing,
    _inducing_pair,
    adjacency_masks,
    ancestor_masks,
)
from pagid.oracle import MAX_CLASS_EDGES, Scm, _clamp, _observed_table, _product, _sliced_model


def truncations(s: Scm, x_vars: Sequence[str]) -> Iterator[tuple[tuple[int, ...], JointTable]]:
    """``(vals, truncated(s, dict(zip(x_vars, vals))))`` for every value
    ``vals`` of ``x_vars``, in ``itertools.product`` order.

    The product of the factors outside ``x_vars`` and the summed axes and
    permutation of the tables are worked out once; each value only clamps
    the product, so each table is bitwise the one :func:`truncated` returns.
    The checks run when the first table is drawn.
    """
    order, prod = _product(s, x_vars)
    table = _observed_table(s, order, x_vars)
    for vals in itertools.product(*(range(s.cards[v]) for v in x_vars)):
        yield vals, table(_clamp(s, order, prod, dict(zip(x_vars, vals))))


def equivalence_class(m: Mag) -> tuple[Mag, ...]:
    """All MAGs over the skeleton of ``m`` with the same separation model.

    Enumerates every tail/arrow assignment.  A candidate goes on to the full
    model comparison only if its unshielded colliders (a necessary
    condition) match those of ``m``; they are read off its mark tuple over
    the unshielded triples of the shared skeleton, before any graph is built,
    and the first triple that differs rejects it.  A survivor is tested on
    the arrowhead, parent and ancestor masks that its marks give on the
    skeleton's node indices: it must be ancestral and maximal
    (:func:`.graphs._inducing_pair`), and its :func:`_sliced_model` must
    equal that of ``m``, compared source by source and rejected at the first
    difference.  Each z-slice of :func:`.graphs.sliced_walk` is the walk
    under that z alone (see the module docstring), so this is the model that
    one walk per (source, z) reads.  Only a member is built, as a
    :class:`.graphs.Mag`.
    """
    skeleton = [(a, b) for a, b, *_ in m.edges()]
    if len(skeleton) > MAX_CLASS_EDGES:
        raise ValueError(
            f"{len(skeleton)} edges exceeds the enumeration guard {MAX_CLASS_EDGES}"
        )
    ends: dict[str, list[tuple[int, int, str]]] = {v: [] for v in m.nodes}
    for k, (a, b) in enumerate(skeleton):
        ends[a].append((k, 0, b))
        ends[b].append((k, 1, a))
    ref = [(ma, mb) for _, _, ma, mb, _ in m.edges()]
    triples = [
        (k, side_k, l, side_l, ref[k][side_k] is ARROW and ref[l][side_l] is ARROW)
        for b in m.nodes
        for (k, side_k, a), (l, side_l, c) in itertools.combinations(ends[b], 2)
        if not m.adjacent(a, c)
    ]
    n, index = len(m.nodes), m._index
    ends_of = [(index[a], index[b]) for a, b in skeleton]
    nbr = [mask for mask, _, _ in adjacency_masks(m)]
    reference = tuple(_sliced_model(adjacency_masks(m)))
    options = ((TAIL, ARROW), (ARROW, TAIL), (ARROW, ARROW))
    members = []
    for marks in itertools.product(options, repeat=len(skeleton)):
        for k, side_k, l, side_l, collider in triples:
            if (marks[k][side_k] is ARROW and marks[l][side_l] is ARROW) != collider:
                break
        else:
            # filled inline: a shared table builder made enumeration 10-15% slower
            head, out, parents = [0] * n, [0] * n, [0] * n
            for (a, b), (ma, mb) in zip(ends_of, marks):
                if ma is ARROW:
                    head[a] |= 1 << b
                    out[b] |= 1 << a
                else:
                    parents[b] |= 1 << a
                if mb is ARROW:
                    head[b] |= 1 << a
                    out[a] |= 1 << b
                else:
                    parents[a] |= 1 << b
            an, adj = _ancestors(parents), tuple(zip(nbr, head, out))
            if _directed_cycle(parents, an) or any(_almost_cycles(adj, an)):
                continue
            if _inducing_pair(adj, an) is None and all(
                got == want for got, want in zip(_sliced_model(adj), reference)
            ):
                edges = [(a, b, ma, mb, False) for (a, b), (ma, mb) in zip(skeleton, marks)]
                members.append(Mag(m.nodes, edges, validate=False))
    return tuple(members)


def pag_of_class(members: Sequence[Mag]) -> Pag:
    """Invariant marks across the class; circles elsewhere; visibility
    settled by :class:`.graphs.Pag`."""
    if not members:
        raise ValueError("empty equivalence class")
    skeleton = [(a, b) for a, b, *_ in members[0].edges()]
    for other in members[1:]:
        if [(a, b) for a, b, *_ in other.edges()] != skeleton or set(other.nodes) != set(
            members[0].nodes
        ):
            raise ValueError("equivalence class members disagree on the skeleton")
    edges = []
    for a, b in skeleton:
        marks_a = {g.mark_at(a, b) for g in members}
        marks_b = {g.mark_at(b, a) for g in members}
        ma = marks_a.pop() if len(marks_a) == 1 else CIRCLE
        mb = marks_b.pop() if len(marks_b) == 1 else CIRCLE
        edges.append((a, b, ma, mb, False))
    return Pag(members[0].nodes, edges)


def mag_of_dag(d: LatentDag) -> Mag:
    """Project a latent-variable DAG onto its observed margin.

    Observed X, Y become adjacent iff the DAG has an inducing path between
    them relative to the latents; the mark at X is a tail iff X is an
    ancestor of Y.  A latent is a root with two observed children, so it is
    a non-collider wherever a path passes it, between two arrowheads: the
    test is :func:`_inducing` on the observed nodes, each latent read as a
    bidirected edge between its children by :func:`_confounded`.  Either
    end of such an edge, or of a directed one, is adjacent to the other end
    directly.  A row of :func:`_confounded` holds the node's own bit too,
    which changes no answer for a pair i, j tested: i's bit meets ``out[j]``
    only if j has an edge into i, and j's bit joins the closure only from a
    bidirected neighbour of j, which ``out[j]`` holds already.
    """
    an, index = ancestor_masks(d), d._index
    bidirected = _confounded(d)
    out = [children | bi for (_, _, children), bi in zip(adjacency_masks(d), bidirected)]
    edges = []
    for x, y in itertools.combinations(d.observed, 2):
        i, j = index[x], index[y]
        if not (out[i] >> j & 1 or out[j] >> i & 1 or _inducing(bidirected, out, an, i, j)):
            continue
        mark_x = TAIL if an[j] >> i & 1 else ARROW
        mark_y = TAIL if an[i] >> j & 1 else ARROW
        edges.append((x, y, mark_x, mark_y, False))
    return Mag(d.sort_nodes(d.observed), edges)
