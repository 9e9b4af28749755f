"""Generalized adjustment criterion over PAGs.

Decision procedure only: amenability, the forbidden set, the canonical
adjustment set, and the definite-status blocking test.  By completeness of
the criterion, the canonical set works whenever any set does, so a failure
here certifies that no adjustment set exists.

Proper paths from x to y come from :func:`.separation.proper_paths` under
two prefix-closed step rules.  Amenability and the forbidden set walk the
possibly directed paths (no edge has an arrowhead at its near end); blocking
walks the definite-status paths left open by the canonical set.  Each rule
cuts whole subtrees of one depth-first search, so a :class:`Fail` names the
first failing proper path in that search's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .exprs import Conditional, DistRef, Expr, Product, SumOver, simplify, vsort
from .graphs import ARROW, MixedGraph, Pag, possible_ancestors, possible_descendants
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
    return lambda path, w: g.mark_at(path[-1], w) is not ARROW


def forbidden_set(p: MixedGraph, x: Iterable[str], y: Iterable[str]) -> tuple[str, ...]:
    """Possible descendants of the non-treatment nodes lying on proper
    possibly directed paths from ``x`` to ``y``."""
    xs, ys = set(x), set(y)
    if xs & ys:
        raise ValueError("treatment and outcome overlap")
    on_causal: set[str] = set()
    for path in proper_paths(p, xs, ys, _possibly_directed_step(p)):
        on_causal.update(path[1:])
    if not on_causal:
        return ()
    return possible_descendants(p, p.sort_nodes(on_causal))


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
