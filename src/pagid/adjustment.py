"""Generalized adjustment criterion over PAGs.

Decision procedure only: amenability, the forbidden set, the canonical
adjustment set, and the definite-status blocking test.  By completeness of
the criterion, the canonical set works whenever any set does, so a failure
here certifies that no adjustment set exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .exprs import Conditional, DistRef, Expr, Product, SumOver, simplify, vsort
from .graphs import ARROW, MixedGraph, Pag, possible_ancestors, possible_descendants
from .separation import definite_status_interior
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


def _proper_simple_paths(g: MixedGraph, xs: set[str], ys: set[str]):
    """Simple paths from ``xs`` to ``ys`` whose non-initial nodes avoid ``xs``.

    Interior nodes from ``ys`` are allowed; each prefix reaching ``ys`` is
    reported separately.
    """
    out: list[list[str]] = []
    for start in sorted(xs):
        _extend_proper_paths(g, [start], xs, ys, out)
    return out


def _extend_proper_paths(g: MixedGraph, path: list[str], xs: set[str], ys: set[str], out: list) -> None:
    # module-level: a recursive closure is a reference cycle that would keep
    # the graph and every path alive until the next full collection
    for w in g.neighbors(path[-1]):
        if w in path or w in xs:
            continue
        nxt = path + [w]
        if w in ys:
            out.append(nxt)
        _extend_proper_paths(g, nxt, xs, ys, out)


def _is_possibly_directed(g: MixedGraph, path: list[str]) -> bool:
    return all(g.mark_at(path[i], path[i + 1]) is not ARROW for i in range(len(path) - 1))


def forbidden_set(p: MixedGraph, x: Iterable[str], y: Iterable[str]) -> tuple[str, ...]:
    """Possible descendants of the non-treatment nodes lying on proper
    possibly directed paths from ``x`` to ``y``."""
    xs, ys = set(x), set(y)
    if xs & ys:
        raise ValueError("treatment and outcome overlap")
    on_causal: set[str] = set()
    for path in _proper_simple_paths(p, xs, ys):
        if _is_possibly_directed(p, path):
            on_causal.update(v for v in path if v not in xs)
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


def _blocked(g: MixedGraph, path: list[str], zs: set[str], open_collider: set[str]) -> bool:
    statuses = definite_status_interior(g, path)
    if statuses is None:
        return True  # not of definite status; never counts as open
    for v, status in zip(path[1:-1], statuses):
        if status == "collider":
            if v not in open_collider:
                return True
        elif v in zs:
            return True
    return False


def gac(p: Pag, x: Iterable[str], y: Iterable[str]) -> tuple[str, ...] | Fail:
    """Adjustment set for (x, y), or a :class:`Fail` certificate.

    Succeeds iff the graph is amenable (every proper possibly directed path
    out of x starts with a visible directed edge) and the canonical set
    blocks every proper definite-status non-causal path from x to y.
    """
    xs, ys = set(x), set(y)
    if not xs or not ys or xs & ys:
        raise ValueError("treatment and outcome must be nonempty and disjoint")
    visible = visible_edges(p)
    paths = _proper_simple_paths(p, xs, ys)
    for path in paths:
        if _is_possibly_directed(p, path):
            if (path[0], path[1]) not in visible:
                return Fail(reason="amenability", path=tuple(path))
    z = adjust_set(p, xs, ys)
    z_set = set(z)
    open_collider = set(possible_ancestors(p, z)) if z else set()
    for path in paths:
        if _is_possibly_directed(p, path):
            continue
        if not _blocked(p, path, z_set, open_collider):
            return Fail(reason="blocking", path=tuple(path))
    return z


def adjustment_formula(z: Iterable[str], x: Iterable[str], y: Iterable[str]) -> Expr:
    """sum_z P(y | x, z) P(z); collapses to P(y | x) for an empty set."""
    z, x, y = vsort(z), vsort(x), vsort(y)
    cond = Conditional(y, vsort(x + z), DistRef(vsort(y + x + z)))
    if not z:
        return simplify(cond)
    return simplify(SumOver(z, Product((cond, DistRef(z)))))
