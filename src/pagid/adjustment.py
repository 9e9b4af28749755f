"""Generalized adjustment criterion over PAGs.

Decision procedure only: amenability, the forbidden set, the canonical
adjustment set, and the definite-status blocking test.  By completeness of
the criterion, the canonical set works whenever any set does, so a failure
here certifies that no adjustment set exists.

The forbidden set is two closures on the mask table (see
:func:`forbidden_set`).  The two tests that need a witness path get it from
:func:`.separation.proper_paths` under a prefix-closed step rule:
amenability walks the proper possibly directed paths (no edge has an
arrowhead at its near end), and blocking walks the definite-status paths
left open by the canonical set.  Each rule cuts whole subtrees of one
depth-first search, so a :class:`Fail` names the first failing proper path
in that search's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .exprs import Conditional, DistRef, Expr, Product, SumOver, simplify, vsort
from .graphs import ARROW, MixedGraph, Pag, _close, _possible_ancestors, adjacency_masks, bits, mask_of, names_of, possible_ancestors
from .separation import open_definite_step, proper_paths
from .structure import visible_edges


@dataclass(frozen=True)
class Fail:
    """Adjustment is impossible: either some proper possibly directed path
    starts with an invisible edge (amenability), or the canonical set leaves
    a proper definite-status non-causal path open (blocking)."""

    reason: str
    path: tuple[str, ...]

    def describe(self) -> str:
        route = " - ".join(self.path)
        if self.reason == "amenability":
            return f"not amenable: possibly directed path {route} starts with an invisible edge"
        return f"no adjustment set: non-causal path {route} stays open"


def _possibly_directed_step(g: MixedGraph):
    """``extend`` for :func:`.separation.proper_paths` that keeps the possibly
    directed paths: no edge has an arrowhead at its near end."""
    adj = adjacency_masks(g)
    return lambda path, w: not adj[path[-1]][1] >> w & 1


def forbidden_set(p: MixedGraph, x: Iterable[str], y: Iterable[str]) -> tuple[str, ...]:
    """Possible descendants of the non-treatment nodes lying on proper
    possibly directed paths from ``x`` to ``y``, in closed form.

    Let W be the nodes that x's possible children outside x reach by
    possibly directed steps outside x and that are possible ancestors of y
    by such steps; the forbidden set is PossDe(W).  Every non-source node v
    on a proper possibly directed path lies in W: the path before v reaches
    it from a possible child of its source, and the path after v leads into
    y, both outside x.  Conversely, for w in W take possibly directed walks
    from a source to w and from w into y, both outside x after the source.
    Loop erasure keeps a walk's first and last nodes and some of its steps,
    each in its direction, so it turns them into possibly directed paths A
    (source to w) and B (w into y).  Let t be the first node of A on B; w is
    one, and the source is not.  A up to t, then B from t, is a proper
    possibly directed path through t, and A from t puts w in PossDe(t).  So
    the path nodes lie in W and W in their possible descendants, and both
    sets have the same PossDe.
    """
    xs, ys = set(x), set(y)
    if xs & ys:
        raise ValueError("treatment and outcome overlap")
    rest, y_mask = ~mask_of(p, sorted(xs)), mask_of(p, ys)
    steps = [nbr & ~head for nbr, head, _ in adjacency_masks(p)]
    children = 0
    for u in bits(~rest):
        children |= steps[u]
    on_causal = _close(steps, children & rest, rest) & _possible_ancestors(p, y_mask, rest)
    return names_of(p.nodes, _close(steps, on_causal))


def adjust_set(p: MixedGraph, x: Iterable[str], y: Iterable[str]) -> tuple[str, ...]:
    """Canonical candidate: possible ancestors of x and y, minus the
    forbidden set, minus x and y themselves."""
    xs, ys = set(x), set(y)
    anc = set(possible_ancestors(p, p.sort_nodes(xs | ys)))
    forb = set(forbidden_set(p, xs, ys))
    return p.sort_nodes(anc - forb - xs - ys)


def gac(x: Iterable[str], y: Iterable[str], p: Pag) -> tuple[str, ...] | Fail:
    """Adjustment set for (x, y), or a :class:`Fail` certificate.

    Succeeds iff the graph is amenable (every proper possibly directed path
    out of x starts with a visible directed edge) and the canonical set
    blocks every proper definite-status non-causal path from x to y.
    """
    xs, ys = set(x), set(y)
    if not xs or not ys or xs & ys:
        raise ValueError("treatment and outcome must be nonempty and disjoint")
    if not xs | ys <= set(p.nodes):
        raise ValueError("treatment/outcome outside the observed graph nodes")
    visible = visible_edges(p)
    for path in proper_paths(p, xs, ys, _possibly_directed_step(p)):
        if path[:2] not in visible:
            return Fail(reason="amenability", path=path)
    z = adjust_set(p, xs, ys)
    open_collider = set(possible_ancestors(p, z)) if z else set()
    for path in proper_paths(p, xs, ys, open_definite_step(p, set(z), open_collider)):
        if any(p.mark_at(a, b) is ARROW for a, b in zip(path, path[1:])):
            return Fail(reason="blocking", path=path)
    return z


def adjustment_formula(z: Iterable[str], x: Iterable[str], y: Iterable[str]) -> Expr:
    """sum_z P(y | x, z) P(z); collapses to P(y | x) for an empty set."""
    z, x, y = vsort(z), vsort(x), vsort(y)
    cond = Conditional(y, vsort(x + z), DistRef(vsort(y + x + z)))
    if not z:
        return simplify(cond)
    return simplify(SumOver(z, Product((cond, DistRef(z)))))
