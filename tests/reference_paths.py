"""Simple-path reference oracles for the package's path searches.

These are the enumerating searches that ``pagid`` used before its path
searches moved onto a reachability walk and, for definite status paths and
the adjustment criterion, onto the pruned ``separation.proper_paths``.  They are
exponential in the graph size and exist only so that the differential tests
can compare the production searches against an independent path-by-path
reading of each definition.  Ancestor sets are recomputed here by plain
search rather than read from the masks under test.  The closure
check walks every adjacent triple, as ``graphs.find_closure_violation`` did
before it moved onto node masks.  At the end, the kernel forms of
visibility, composite pc-components and the directed-cycle test keep the
per-edge, per-node and per-pair shape that their closed forms replaced, and
so do the maximality test (one walk per non-adjacent pair) and the
separation model of a class candidate (one walk per source and
conditioning set) that ``graphs.mag_violation`` and
``oracle.equivalence_class`` read before their closed and sliced forms.
The union-find ``partition`` that the package's one component kernel
replaced, and the edge predicates that only tests read (among them
``possible_children``, which ``structure`` exported with no caller in the
package), live here too, as
do the name-keyed neighbour, parent and child lists and the Kahn order on
them that the graphs kept before the mask table became their one adjacency;
every search here walks those lists, not the table under test.  The last
forms are the walk that opened colliders in the ancestors of the
conditioning set, which ``separation.separated_mask`` ran before it opened
them in the set alone; the forbidden set read off the proper possibly
directed paths, before ``adjustment.forbidden_set`` became two closures;
and the name-keyed edge store (``EdgeDict``) that a mixed graph kept next
to its mask table before the table became its one store.  The walk
itself, ``reach``, is kept too: it is the one-walk kernel that separation and
pc-components ran before ``graphs.sliced_walk`` became the one walk and
pc-components a closure, and every kernel form here walks it.
"""

from __future__ import annotations

import itertools

from pagid.graphs import (
    ARROW,
    CIRCLE,
    TAIL,
    LatentDag,
    Mag,
    MixedGraph,
    adjacency_masks,
    ancestor_masks,
    ancestral_violation,
    bits,
    mask_of,
    names_of,
)
from pagid.adjustment import _possibly_directed_step
from pagid.separation import proper_paths
from pagid.structure import _ScopeRows


def is_directed_edge(g, a, b) -> bool:
    """True iff ``g`` has the edge a -> b (tail at a, arrow at b)."""
    return g.adjacent(a, b) and g.mark_at(a, b) is TAIL and g.mark_at(b, a) is ARROW


def is_circle_circle(g, a, b) -> bool:
    """True iff ``g`` has the edge a o-o b."""
    return g.adjacent(a, b) and g.mark_at(a, b) is CIRCLE and g.mark_at(b, a) is CIRCLE


def is_visible(g, a, b) -> bool:
    """The visible flag stored on the edge between a and b."""
    return any(vis for u, v, _, _, vis in g.edges() if {u, v} == {a, b})


def partition(nodes, links) -> tuple:
    """Classes of ``nodes`` once the members of each group in ``links`` are
    joined (union-find); members in node order, classes by first member."""
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for first, *rest in links:
        for v in rest:
            parent[find(v)] = find(first)
    classes: dict = {}
    for v in nodes:
        classes.setdefault(find(v), []).append(v)
    return tuple(tuple(members) for members in classes.values())


def _node_order(g, lists: dict) -> dict:
    index = {v: i for i, v in enumerate(g.nodes)}
    for members in lists.values():
        members.sort(key=index.__getitem__)
    return lists


def neighbor_lists(g: MixedGraph) -> dict[str, list[str]]:
    """Each node's neighbours in node order, keyed by name and read off the
    edge entries, not off the mask table under test."""
    lists: dict[str, list[str]] = {v: [] for v in g.nodes}
    for a, b, *_ in g.edges():
        lists[a].append(b)
        lists[b].append(a)
    return _node_order(g, lists)


def dag_lists(d: LatentDag) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Each node's parents and children in node order, keyed by name and
    read off the arcs, as ``LatentDag`` kept them before its one table."""
    parent_lists: dict[str, list[str]] = {v: [] for v in d.nodes}
    child_lists: dict[str, list[str]] = {v: [] for v in d.nodes}
    for p, c in d.edges():
        parent_lists[c].append(p)
        child_lists[p].append(c)
    return _node_order(d, parent_lists), _node_order(d, child_lists)


def kahn_order(d: LatentDag) -> tuple[str, ...]:
    """Kahn's order on the name-keyed lists: of the ready nodes, kept sorted
    by node index, the first goes next."""
    parent_lists, child_lists = dag_lists(d)
    index = {v: i for i, v in enumerate(d.nodes)}
    indeg = {v: len(parent_lists[v]) for v in d.nodes}
    ready = [v for v in d.nodes if indeg[v] == 0]
    out: list[str] = []
    while ready:
        v = ready.pop(0)
        out.append(v)
        for c in child_lists[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
        ready.sort(key=index.__getitem__)
    return tuple(out)


def parents(g, v) -> list[str]:
    """Parents of ``v``: a DAG's own, or a mixed graph's u with u -> v."""
    if isinstance(g, LatentDag):
        return dag_lists(g)[0][v]
    return [u for u in neighbor_lists(g)[v] if is_directed_edge(g, u, v)]


def ancestors(g, targets) -> set[str]:
    """Ancestors along directed edges, targets included (MixedGraph or LatentDag)."""
    out = set(targets)
    frontier = list(targets)
    while frontier:
        v = frontier.pop()
        for u in parents(g, v):
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
    neigh = neighbor_lists(g)
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
    neigh = neighbor_lists(g)
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
    neigh = neighbor_lists(g)
    arrow_at = lambda v, u: g.mark_at(v, u) is ARROW  # noqa: E731
    return _collider_walk(
        neigh, arrow_at, z, x,
        lambda p, v, n: arrow_at(v, p) and arrow_at(v, n) and v in allowed,
        into_target=True,
    )


def graphical_visible_edges(g: MixedGraph) -> frozenset:
    out = set()
    for y in g.nodes:
        parents_y = set(parents(g, y))
        for x in parents_y:
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
    neigh = neighbor_lists(g)

    def step(path):
        v = path[-1]
        for w in neigh[v]:
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


def find_closure_violation(g: MixedGraph) -> tuple[str, str, str] | None:
    """The first violating (A, B, C) triple of the PAG closure property, by
    B in node order and then by ordered neighbour pair, or None."""
    neigh = neighbor_lists(g)
    for b in g.nodes:
        for a, c in itertools.permutations(neigh[b], 2):
            if g.mark_at(b, a) is not ARROW:
                continue
            if g.mark_at(b, c) is not CIRCLE:
                continue
            if not g.adjacent(a, c):
                continue
            if g.mark_at(c, a) is not ARROW:
                return (a, b, c)
            if is_directed_edge(g, a, b) and g.mark_at(a, c) is ARROW:
                return (a, b, c)
    return None


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
    neigh = neighbor_lists(g)
    for b in g.nodes:
        for a, c in itertools.combinations(neigh[b], 2):
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
    neigh = neighbor_lists(g)
    while frontier:
        v = frontier.pop()
        for u in neigh[v]:
            if u not in out and g.mark_at(u, v) is not ARROW:
                out.add(u)
                frontier.append(u)
    return out


def possible_descendants(g: MixedGraph, sources) -> set[str]:
    """Nodes reached from some source by a possibly directed path, sources included."""
    out = set(sources)
    frontier = list(sources)
    neigh = neighbor_lists(g)
    while frontier:
        v = frontier.pop()
        for w in neigh[v]:
            if w not in out and g.mark_at(v, w) is not ARROW:
                out.add(w)
                frontier.append(w)
    return out


def possible_children(g: MixedGraph, xs) -> tuple[str, ...]:
    """Nodes adjacent to some member of ``xs`` by an edge not into that
    member, in node order."""
    neigh = neighbor_lists(g)
    return g.sort_nodes({w for u in xs for w in neigh[u] if g.mark_at(u, w) is not ARROW})


def definite_status_interior(g: MixedGraph, path):
    """Per-interior-node statuses, or None when some node has no definite status.

    A node is a definite collider when both path edges point into it, and a
    definite non-collider when one path edge carries a tail at it, or both
    carry circles while its path neighbours are non-adjacent.
    """
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
    neigh = neighbor_lists(g)
    return all(_blocked(g, path, zs, open_collider) for path in _paths(neigh, xs, ys))


def proper_simple_paths(g: MixedGraph, xs, ys) -> list[tuple[str, ...]]:
    """Simple paths from ``xs`` to ``ys`` whose non-initial nodes avoid ``xs``,
    in depth-first preorder: sources by name, neighbours in node order, each
    prefix reaching ``ys`` before its extensions."""
    xs, ys = set(xs), set(ys)
    out: list[tuple[str, ...]] = []
    neigh = neighbor_lists(g)

    def extend(path):
        for w in neigh[path[-1]]:
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


def reach(adj, starts: int, collider_ok: int, noncollider_ok: int) -> tuple[int, int]:
    """Walk reachability from ``starts`` over (node, arrived-into) states.

    A start may leave along any edge.  A node arrived at through an
    arrowhead and left through an arrowhead is a collider and may be passed
    only if it is in ``collider_ok``; any other pass is a non-collider pass
    and needs ``noncollider_ok``.  Returns the masks of nodes reached by at
    least one step and of those reached through an arrowhead.
    """
    seen_into = seen_plain = 0
    stack = [(v, adj[v][0]) for v in bits(starts)]
    while stack:
        v, moves = stack.pop()
        arrow = adj[v][2]
        fresh = moves & arrow & ~seen_into
        seen_into |= fresh
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            w = low.bit_length() - 1
            nbr, head, _ = adj[w]
            step = (head if collider_ok & low else 0) | (nbr & ~head if noncollider_ok & low else 0)
            if step:
                stack.append((w, step))
        fresh = moves & ~arrow & ~seen_plain
        seen_plain |= fresh
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            if noncollider_ok & low:
                w = low.bit_length() - 1
                stack.append((w, adj[w][0]))
    return seen_into | seen_plain, seen_into


# The kernel forms that ``graphs`` and ``structure`` ran before a Pag was
# settled in closed form on its mask table: one reach per directed edge for
# visibility, one reach per node and a union-find for the composite
# pc-components, and a scan over every ancestor pair for directed cycles.


def kernel_visible_edges(g: MixedGraph) -> frozenset:
    """One reach per directed edge x -> y: from the nodes not adjacent to y,
    with the parents of y as the allowed colliders, into x."""
    adj, index = adjacency_masks(g), g._index
    out = set()
    for y in g.nodes:
        parents_y = parents(g, y)
        for x in parents_y:
            i, j = index[x], index[y]
            far = ~adj[j][0] & ~(1 << i | 1 << j) & ((1 << len(adj)) - 1)
            _, reached_into = reach(adj, far, mask_of(g, parents_y), 0)
            if reached_into >> i & 1:
                out.add((x, y))
    return frozenset(out)


def kernel_cpc_components(g: MixedGraph) -> tuple:
    """Each node's pc-component by its own reach, joined by ``partition``."""
    adj = _ScopeRows(g).invisible
    pcs = (reach(adj, 1 << i, -1, 0)[0] | 1 << i for i in range(len(g.nodes)))
    return partition(g.nodes, (names_of(g.nodes, pc) for pc in pcs))


def pair_scan_ancestral_violation(g: MixedGraph) -> str | None:
    """``graphs.ancestral_violation`` with its directed-cycle test as a scan
    over every node and each of its other ancestors."""
    an, index = ancestor_masks(g), g._index
    if any(an[u] >> v & 1 for v, mask in enumerate(an) for u in bits(mask & ~(1 << v))):
        return "directed cycle"
    cyclic = [
        (index[a], index[b])
        for a, b, ma, mb, _ in g.edges()
        if ma is mb is ARROW and (an[index[a]] >> index[b] | an[index[b]] >> index[a]) & 1
    ]
    if not cyclic:
        return None
    i, j = min(cyclic)
    return f"almost directed cycle at {g.nodes[i]!r}<->{g.nodes[j]!r}"


def kernel_mag_violation(g: MixedGraph) -> str | None:
    """``graphs.mag_violation`` with its maximality test as one reach per
    non-adjacent pair: from one end, colliders open in the ancestors of
    either end and no non-colliders, into the other."""
    problem = ancestral_violation(g)
    if problem:
        return problem
    nodes, adj, an = g.nodes, adjacency_masks(g), ancestor_masks(g)
    for i, (nbr, _, _) in enumerate(adj):
        for j in bits(~nbr & (1 << len(nodes)) - (2 << i)):
            if reach(adj, 1 << i, an[i] | an[j], 0)[0] >> j & 1:
                return f"inducing path between non-adjacent {nodes[i]!r} and {nodes[j]!r}"
    return None


def kernel_separation_signature(g: MixedGraph):
    """The separation model of ``g``, one walk per source and conditioning set.

    Yields ``(i, z, sep)`` for each node index ``i`` and each mask ``z`` of
    the other nodes, ``z`` ascending: ``sep`` masks the nodes ``y`` that
    ``z`` m-separates from node ``i``, among the candidates: ``y`` later than
    ``i``, outside ``z`` and not adjacent to ``i``.  A pair ``(i, z)`` with
    no candidate is skipped.
    """
    everyone, adj = (1 << len(g.nodes)) - 1, adjacency_masks(g)
    for i, (nbr, _, _) in enumerate(adj):
        later = everyone & ~((2 << i) - 1) & ~nbr
        if not later:
            continue
        for z in range(everyone + 1):
            targets = later & ~z
            if targets and not z >> i & 1:
                yield i, z, targets & ~reach(adj, 1 << i, z, ~z)[0]


def ancestor_table(g) -> list[int]:
    """Per node index, the mask of its ancestors, itself included, each by
    plain search."""
    return [mask_of(g, ancestors(g, [v])) for v in g.nodes]


def reach_opening_ancestors(g, x: int, z: int, an) -> tuple[int, int]:
    """:func:`reach` from the mask ``x`` given the mask ``z`` as
    ``separation.separated_mask`` ran it before it opened colliders in ``z``
    alone: colliders open in An(z), non-colliders outside z.  ``an`` is the
    :func:`ancestor_table` of ``g``."""
    open_collider = 0
    for i in bits(z):
        open_collider |= an[i]
    return reach(adjacency_masks(g), x, open_collider, ~z)


def forbidden_set(p: MixedGraph, x, y) -> tuple[str, ...]:
    """``adjustment.forbidden_set`` as it read the paths: the possible
    descendants of the non-source nodes on the proper possibly directed
    paths that ``separation.proper_paths`` enumerates."""
    on_causal: set[str] = set()
    for path in proper_paths(p, set(x), set(y), _possibly_directed_step(p)):
        on_causal.update(path[1:])
    return p.sort_nodes(possible_descendants(p, on_causal))


class EdgeDict:
    """The name-keyed edge store a ``MixedGraph`` kept before its mask table
    became its only one: per node pair, keyed in node order, the two marks
    and the visible flag, with the queries read off it."""

    def __init__(self, nodes, edges):
        self.nodes = tuple(nodes)
        self.index = {v: i for i, v in enumerate(self.nodes)}
        self.entries = {}
        for a, b, ma, mb, vis in edges:
            key = self.key(a, b)
            self.entries[key] = (ma, mb, vis) if key == (a, b) else (mb, ma, vis)

    def key(self, a, b):
        return (a, b) if self.index[a] < self.index[b] else (b, a)

    def adjacent(self, a, b) -> bool:
        return a != b and self.key(a, b) in self.entries

    def mark_at(self, v, other):
        key = self.key(v, other)
        marks = self.entries[key]
        return marks[0] if key[0] == v else marks[1]

    def neighbors(self, v) -> tuple[str, ...]:
        return tuple(w for w in self.nodes if self.adjacent(v, w))

    def edges(self) -> tuple:
        entries = ((a, b, *marks) for (a, b), marks in self.entries.items())
        return tuple(sorted(entries, key=lambda e: (self.index[e[0]], self.index[e[1]])))

    def flagged_edges(self) -> frozenset:
        return frozenset((a, b) if ma is TAIL else (b, a) for (a, b), (ma, _, vis) in self.entries.items() if vis)

    def structure(self) -> tuple:
        """What graph equality compares: the nodes, and each edge with its
        names in sorted order."""
        edges = ((a, b, *m) if a < b else (b, a, m[1], m[0], m[2]) for (a, b), m in self.entries.items())
        return frozenset(self.nodes), frozenset(edges)

    def restrict(self, keep) -> "EdgeDict":
        """The store of the subgraph induced on ``keep``, in this node order."""
        keep = set(keep)
        nodes = [v for v in self.nodes if v in keep]
        return EdgeDict(nodes, [e for e in self.edges() if e[0] in keep and e[1] in keep])
