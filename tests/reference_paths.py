"""Simple-path reference oracles for the package's path searches.

These are the enumerating searches that ``pagid`` used before its path
searches moved onto ``graphs.reach`` and, for definite status paths and the
adjustment criterion, onto the pruned ``separation.proper_paths``.  They are
exponential in the graph size and exist only so that the differential tests
can compare the production searches against an independent path-by-path
reading of each definition.  Ancestor sets are recomputed here by plain
search rather than read from the cached masks under test.
"""

from __future__ import annotations

import itertools

from pagid.graphs import ARROW, CIRCLE, TAIL, LatentDag, Mag, MixedGraph


def ancestors(g, targets) -> set[str]:
    """Ancestors along directed edges, targets included (MixedGraph or LatentDag)."""
    out = set(targets)
    frontier = list(targets)
    while frontier:
        v = frontier.pop()
        for u in g.parents(v):
            if u not in out:
                out.add(u)
                frontier.append(u)
    return out


def _paths(neigh, sources, targets):
    """All simple paths from any source to any target, avoiding other sources
    and stopping at the first target."""
    stack = [[s] for s in sorted(sources)]
    while stack:
        path = stack.pop()
        for w in neigh[path[-1]]:
            if w in path or w in sources:
                continue
            if w in targets:
                yield path + [w]
            else:
                stack.append(path + [w])


def _connects(path, arrow_at, zs, open_collider) -> bool:
    for prev, v, nxt in zip(path, path[1:], path[2:]):
        if arrow_at(v, prev) and arrow_at(v, nxt):
            if v not in open_collider:
                return False
        elif v in zs:
            return False
    return True


def _dag_arrows(d: LatentDag):
    neigh = {v: [] for v in d.nodes}
    head = set()  # (v, u): arrowhead at v on the edge u -> v
    for p, c in d.edges():
        neigh[p].append(c)
        neigh[c].append(p)
        head.add((c, p))
    return neigh, lambda v, u: (v, u) in head


def m_separated(g: MixedGraph, xs, ys, zs) -> bool:
    xs, ys, zs = set(xs), set(ys), set(zs)
    open_collider = ancestors(g, zs)
    neigh = {v: list(g.neighbors(v)) for v in g.nodes}
    arrow_at = lambda v, u: g.mark_at(v, u) is ARROW  # noqa: E731
    return not any(_connects(p, arrow_at, zs, open_collider) for p in _paths(neigh, xs, ys))


def d_separated(d: LatentDag, xs, ys, zs) -> bool:
    xs, ys, zs = set(xs), set(ys), set(zs)
    open_collider = ancestors(d, zs)
    neigh, arrow_at = _dag_arrows(d)
    return not any(_connects(p, arrow_at, zs, open_collider) for p in _paths(neigh, xs, ys))


def _collider_walk(neigh, arrow_at, start, target, interior_ok, into_target=False) -> bool:
    """Simple path start ... target whose interior nodes pass ``interior_ok``
    (prev, v, nxt); with ``into_target`` the last edge must point into target."""

    def step(path):
        v = path[-1]
        for w in neigh[v]:
            if w in path:
                continue
            if len(path) >= 2 and not interior_ok(path[-2], v, w):
                continue
            if w == target:
                if not into_target or arrow_at(target, v):
                    return True
                continue
            if step(path + [w]):
                return True
        return False

    return step([start])


def has_inducing_path(g: MixedGraph, x: str, y: str) -> bool:
    ok = ancestors(g, [x]) | ancestors(g, [y])
    neigh = {v: list(g.neighbors(v)) for v in g.nodes}
    arrow_at = lambda v, u: g.mark_at(v, u) is ARROW  # noqa: E731
    return _collider_walk(
        neigh, arrow_at, x, y, lambda p, v, n: arrow_at(v, p) and arrow_at(v, n) and v in ok
    )


def dag_inducing_path(d: LatentDag, x: str, y: str) -> bool:
    ok = ancestors(d, [x]) | ancestors(d, [y])
    latent = set(d.latent)
    neigh, arrow_at = _dag_arrows(d)
    return _collider_walk(
        neigh, arrow_at, x, y,
        lambda p, v, n: v in latent or (arrow_at(v, p) and arrow_at(v, n) and v in ok),
    )


def collider_path_into(g: MixedGraph, z: str, x: str, allowed) -> bool:
    neigh = {v: list(g.neighbors(v)) for v in g.nodes}
    arrow_at = lambda v, u: g.mark_at(v, u) is ARROW  # noqa: E731
    return _collider_walk(
        neigh, arrow_at, z, x,
        lambda p, v, n: arrow_at(v, p) and arrow_at(v, n) and v in allowed,
        into_target=True,
    )


def graphical_visible_edges(g: MixedGraph) -> frozenset:
    out = set()
    for x, y in g.directed_edges():
        parents_y = set(g.parents(y))
        if any(
            collider_path_into(g, z, x, parents_y)
            for z in g.nodes
            if z not in (x, y) and not g.adjacent(z, y)
        ):
            out.add((x, y))
    return frozenset(out)


def pc_component(g: MixedGraph, seed, visible) -> set[str]:
    """Nodes joined to ``seed`` by a collider path over invisible edges."""
    reached = set(seed)

    def step(path):
        v = path[-1]
        for w in g.neighbors(v):
            if w in path or (v, w) in visible or (w, v) in visible:
                continue
            if len(path) >= 2 and not (
                g.mark_at(v, path[-2]) is ARROW and g.mark_at(v, w) is ARROW
            ):
                continue
            reached.add(w)
            step(path + [w])

    for s in seed:
        step([s])
    return reached


def cpc_components(g: MixedGraph, visible) -> set[frozenset]:
    """Transitive closure of the path-based pc-component relation."""
    groups = {v: {v} for v in g.nodes}
    for v in g.nodes:
        for w in pc_component(g, [v], visible):
            if groups[w] is not groups[v]:
                merged = groups[v] | groups[w]
                for u in merged:
                    groups[u] = merged
    return {frozenset(c) for c in groups.values()}


def mag_violation(g: MixedGraph) -> str | None:
    an = {v: ancestors(g, [v]) for v in g.nodes}
    for v in g.nodes:
        if any(u != v and v in an[u] and u in an[v] for u in g.nodes):
            return "directed cycle"
    for a, b, ma, mb, _ in g.edges():
        if ma is ARROW and mb is ARROW and (a in an[b] or b in an[a]):
            return f"almost directed cycle at {a!r}<->{b!r}"
    for a, b in itertools.combinations(g.nodes, 2):
        if not g.adjacent(a, b) and has_inducing_path(g, a, b):
            return f"inducing path between non-adjacent {a!r} and {b!r}"
    return None


def mag_of_dag_edges(d: LatentDag) -> tuple:
    """Edges of the projection of ``d`` as (a, b, mark_a, mark_b) tuples."""
    edges = []
    for x, y in itertools.combinations(d.observed, 2):
        if dag_inducing_path(d, x, y):
            mark_x = TAIL if x in ancestors(d, [y]) else ARROW
            mark_y = TAIL if y in ancestors(d, [x]) else ARROW
            edges.append((x, y, mark_x, mark_y))
    return tuple(edges)


def unshielded_colliders(g: MixedGraph) -> frozenset:
    out = set()
    for b in g.nodes:
        for a, c in itertools.combinations(g.neighbors(b), 2):
            if not g.adjacent(a, c) and g.mark_at(b, a) is ARROW and g.mark_at(b, c) is ARROW:
                out.add((min(a, c), b, max(a, c)))
    return frozenset(out)


def separation_signature(g: MixedGraph) -> frozenset:
    """All separations (x, y, Z) over disjoint singleton pairs and subsets,
    each tested by path enumeration."""
    out = set()
    for x, y in itertools.combinations(g.nodes, 2):
        rest = [v for v in g.nodes if v not in (x, y)]
        for r in range(len(rest) + 1):
            for z in itertools.combinations(rest, r):
                if m_separated(g, [x], [y], z):
                    out.add((x, y, z))
    return frozenset(out)


def equivalence_class(m: Mag) -> tuple:
    """Builds every candidate graph, then filters by unshielded colliders,
    the reference MAG test and the full separation model."""
    skeleton = [(a, b) for a, b, *_ in m.edges()]
    reference_sig = separation_signature(m)
    reference_colliders = unshielded_colliders(m)
    options = ((TAIL, ARROW), (ARROW, TAIL), (ARROW, ARROW))
    members = []
    for marks in itertools.product(options, repeat=len(skeleton)):
        edges = [(a, b, ma, mb, False) for (a, b), (ma, mb) in zip(skeleton, marks)]
        candidate = MixedGraph(m.nodes, edges)
        if unshielded_colliders(candidate) != reference_colliders:
            continue
        if mag_violation(candidate) is not None:
            continue
        if separation_signature(candidate) != reference_sig:
            continue
        members.append(Mag(m.nodes, edges, validate=False))
    return tuple(members)


def possible_ancestors(g: MixedGraph, targets) -> set[str]:
    """Nodes with a possibly directed path into some target, targets included."""
    out = set(targets)
    frontier = list(targets)
    while frontier:
        v = frontier.pop()
        for u in g.neighbors(v):
            if u not in out and g.mark_at(u, v) is not ARROW:
                out.add(u)
                frontier.append(u)
    return out


def possible_descendants(g: MixedGraph, sources) -> set[str]:
    """Nodes reached from some source by a possibly directed path, sources included."""
    out = set(sources)
    frontier = list(sources)
    while frontier:
        v = frontier.pop()
        for w in g.neighbors(v):
            if w not in out and g.mark_at(v, w) is not ARROW:
                out.add(w)
                frontier.append(w)
    return out


def definite_status_interior(g: MixedGraph, path):
    statuses = []
    for prev, v, nxt in zip(path, path[1:], path[2:]):
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


def _blocked(g: MixedGraph, path, zs, open_collider) -> bool:
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


def definitely_m_separated(g: MixedGraph, xs, ys, zs) -> bool:
    """Every definite status path between ``xs`` and ``ys`` is blocked."""
    xs, ys, zs = set(xs), set(ys), set(zs)
    open_collider = possible_ancestors(g, zs)
    neigh = {v: list(g.neighbors(v)) for v in g.nodes}
    return all(_blocked(g, path, zs, open_collider) for path in _paths(neigh, xs, ys))


def proper_simple_paths(g: MixedGraph, xs, ys) -> list[tuple[str, ...]]:
    """Simple paths from ``xs`` to ``ys`` whose non-initial nodes avoid ``xs``,
    in depth-first preorder: sources by name, neighbours in node order, each
    prefix reaching ``ys`` before its extensions."""
    xs, ys = set(xs), set(ys)
    out: list[tuple[str, ...]] = []

    def extend(path):
        for w in g.neighbors(path[-1]):
            if w in path or w in xs:
                continue
            if w in ys:
                out.append((*path, w))
            extend(path + [w])

    for start in sorted(xs):
        extend([start])
    return out


def _possibly_directed(g: MixedGraph, path) -> bool:
    return all(g.mark_at(a, b) is not ARROW for a, b in zip(path, path[1:]))


def gac(x, y, p: MixedGraph):
    """``("set", z)`` or ``(reason, first failing path)``, from every proper
    path materialised up front."""
    xs, ys = set(x), set(y)
    visible = graphical_visible_edges(p) | {
        (a, b) if ma is TAIL else (b, a) for a, b, ma, _, vis in p.edges() if vis
    }
    paths = proper_simple_paths(p, xs, ys)
    causal = [path for path in paths if _possibly_directed(p, path)]
    for path in causal:
        if path[:2] not in visible:
            return "amenability", path
    on_causal = {v for path in causal for v in path[1:]}
    forbidden = possible_descendants(p, on_causal)
    z = possible_ancestors(p, xs | ys) - forbidden - xs - ys
    open_collider = possible_ancestors(p, z)
    for path in paths:
        if not _possibly_directed(p, path) and not _blocked(p, path, z, open_collider):
            return "blocking", path
    return "set", p.sort_nodes(z)
