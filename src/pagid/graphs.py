"""Mixed-graph core: one representation shared by latent-variable DAGs, MAGs and PAGs.

Edges carry one mark per endpoint (tail / arrow / circle) plus a visibility
flag that is meaningful only on directed edges.  All graph values are
immutable after construction; every operation here is a pure function.
Each graph is stored once, as a table of per-node bitmasks: the
neighbours, the arrowhead marks, the parents and the circle marks
(:func:`adjacency_masks`, :func:`mark_masks`), and on a mixed graph the
visible flags (:func:`flag_masks`).  Every graph kind fills it when built,
in the pass that validates its edges; a :class:`LatentDag` also keeps its
arcs, in input order, as its latents are named in that order.  Every query
(adjacency, marks, the edge list, neighbours, parents, children, the
topological order, equality) reads it, and so do ancestry, the closure and
ancestral checks and visibility; no module but this one reads the table
directly.  A :class:`Pag` settles its visible-edge set into its flags when
it is built, walking no kernel.

One edge-token table, :data:`EDGE_TOKENS`, maps each token to its marks,
the graph file kinds that accept it and the table rows its edge sets at
either end.  :func:`read_edge` and :func:`parse_edge` read edge specs by
it, :data:`TOKEN_OF_MARKS` writes edges back with it, a mixed graph fills
its table by it (:meth:`MixedGraph._fill`), and a latent DAG reads each
edge's token as an arc or, for ``<->``, a latent root
(:meth:`LatentDag._read`, behind :meth:`LatentDag.from_edges`).

Each graph kind has one builder, its constructor, and a graph file one
reader, :func:`read_graph`, which reads the edge lines into tokens and
hands them to the kind's ``_read``: the constructor's own fill and checks,
less the lookup of each edge's token by its marks.  :meth:`LatentDag._read`
turns confounding arcs into latent roots.  Code whose table holds by
construction what the constructor checks hands over the table instead:
the members and the PAG of a class (:meth:`MixedGraph._of_table`, then the
kind's own checks where it has any), the projection of a latent DAG
(:func:`mag_of_dag`, then the MAG checks) and the canonical DAG of a MAG
(:meth:`LatentDag._of_mag`, which names its latents by the rule of
``_read``, :func:`_latent_name`).  Identification and
verification read a subgraph as a node mask on its parent's one table: a
closure (:func:`_close`) or a component split (:func:`_blocks`, which takes
the place of a union-find) stays inside a ``within`` mask.
:func:`induced_subgraph` stays for the API and the tests; it restricts a
mixed graph's table onto the kept nodes instead of building anew.

The package has one walk kernel, :func:`sliced_walk`: Bayes-ball
reachability (Shachter 1998; van der Zander, Liskiewicz & Textor, AIJ 2019)
over (node, arrived through an arrowhead) states on int bitmasks, run under
many slices at once, each slice with its own masks of the nodes that may be
passed as colliders and as non-colliders.  m- and d-separation run it on
one slice (:mod:`.separation`, where its walks are argued to give paths),
and the brute-force class enumeration on all 2**n conditioning sets at once
(:mod:`.oracle`).  ``definitely_m_separated`` and the adjustment criterion
share one pruned simple-path search over node indices on the same table,
:func:`.separation.proper_paths`, for the reasons given in
:mod:`.separation`.  A path whose interior is all colliders needs no walk:
two colliders in a row share a bidirected edge, so such paths are closures
(:func:`_close`) over bidirected edges.  :func:`_inducing` reads inducing
paths that way, for the maximality check and for the projection of a latent
DAG (:func:`mag_of_dag`, each latent read as a bidirected edge by
:func:`_confounded`); so do visibility (:func:`_graphical_visible`) and the
pc-components of :mod:`.structure`.
"""

from __future__ import annotations

from enum import Enum
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

MAX_NODES = 12


class EdgeMark(Enum):
    TAIL = "-"
    ARROW = ">"
    CIRCLE = "o"

    # members compare by identity, so they may hash by it: C-level, where
    # Enum's own __hash__ hashes the name in Python on every mark-pair lookup
    __hash__ = object.__hash__


TAIL = EdgeMark.TAIL
ARROW = EdgeMark.ARROW
CIRCLE = EdgeMark.CIRCLE

# An endpoint's mark from its (arrowhead, circle) bits on the mask table.
_MARK_OF_BITS = (TAIL, ARROW, CIRCLE)

# The rows of the mask table, per node index: the neighbours, those with an
# arrowhead at this node, those with an arrowhead at their own end, the
# parents, those with a circle at this node, and the visible flags.
_NBR, _HEAD, _OUT, _PARENTS, _CIRCLES, _FLAGS = range(6)


class EdgeToken(NamedTuple):
    """An edge token: its marks at the left and the right node, the graph
    file kinds that accept it, and the table rows in which the left node
    gains the right one (``left``) and the right node the left (``right``)."""

    marks: tuple[EdgeMark, EdgeMark]
    kinds: frozenset[str]
    left: tuple[int, ...]
    right: tuple[int, ...]


def _rows_at(here: EdgeMark, there: EdgeMark) -> tuple[int, ...]:
    """The rows in which an endpoint with mark ``here`` gains the far end,
    whose mark is ``there``."""
    rows = [_NBR]
    if here is ARROW:
        rows.append(_HEAD)
        if there is TAIL:
            rows.append(_PARENTS)
    elif here is CIRCLE:
        rows.append(_CIRCLES)
    if there is ARROW:
        rows.append(_OUT)
    return tuple(rows)


def _token(left: EdgeMark, right: EdgeMark, kinds: str) -> EdgeToken:
    return EdgeToken((left, right), frozenset(kinds.split()), _rows_at(left, right), _rows_at(right, left))


# The one edge-token table: every reader of an edge spec and every fill of a
# mixed graph's mask table reads it.
EDGE_TOKENS: Mapping[str, EdgeToken] = {
    "-->": _token(TAIL, ARROW, "pag mag"),
    "<--": _token(ARROW, TAIL, "pag mag"),
    "<->": _token(ARROW, ARROW, "pag mag dag"),
    "o->": _token(CIRCLE, ARROW, "pag"),
    "<-o": _token(ARROW, CIRCLE, "pag"),
    "o-o": _token(CIRCLE, CIRCLE, "pag"),
    "o--": _token(CIRCLE, TAIL, "pag"),
    "--o": _token(TAIL, CIRCLE, "pag"),
    "->": _token(TAIL, ARROW, "dag"),
    "<-": _token(ARROW, TAIL, "dag"),
}

# Mark pair -> the first token listed for it ("-->", not the dag-only "->").
TOKEN_OF_MARKS: Mapping[tuple[EdgeMark, EdgeMark], str] = {
    token.marks: name for name, token in reversed(EDGE_TOKENS.items())
}
_EDGE_OF_MARKS = {marks: EDGE_TOKENS[name] for marks, name in TOKEN_OF_MARKS.items()}
_DAG_EDGE_OF_MARKS = {token.marks: token for token in EDGE_TOKENS.values() if "dag" in token.kinds}


def parse_edge(kind: str, spec: str) -> tuple[str, str, EdgeMark, EdgeMark, bool]:
    """Read ``"A <tok> B [visible]"`` under the rules of graph ``kind`` (pag,
    mag or dag) into (a, b, mark at a, mark at b, visible).

    The one edge grammar, shared by graph files (:func:`read_graph`) and
    every ``from_specs``, is :func:`read_edge`'s lookup in the one token
    table, :data:`EDGE_TOKENS`: a token is known if listed there and allowed
    in the file kinds it names, so ``->`` and ``<-`` are dag-only and a dag
    takes only those and ``<->``; the ``visible`` tag is pag-only and a mag
    has no circles.  Raises ValueError.
    """
    a, b, token, visible = read_edge(kind, spec)
    return a, b, token.marks[0], token.marks[1], visible


def read_edge(kind: str, spec: str) -> tuple[str, str, EdgeToken, bool]:
    """:func:`parse_edge`, giving the token's :data:`EDGE_TOKENS` entry in
    place of its marks."""
    parts = spec.split()
    if len(parts) == 3:
        a, name, b = parts
        visible = False
    elif len(parts) == 4 and parts[3] == "visible":
        a, name, b, _ = parts
        visible = True
    else:
        raise ValueError("expected 'edge: A <tok> B [visible]'")
    token = EDGE_TOKENS.get(name)
    if token is None:
        raise ValueError(f"unknown edge token {name!r}")
    accepted = kind in token.kinds
    if not accepted and kind == "dag":
        raise ValueError(f"token {name!r} not allowed in dag files")
    if not accepted and "dag" in token.kinds:
        raise ValueError(f"token {name!r} is dag-only")
    if visible and kind != "pag":
        raise ValueError("'visible' tag is pag-only")
    if not accepted:  # what a mag refuses beyond those: circles
        raise ValueError("circle marks not allowed in mag files")
    return a, b, token, visible


def check_nodes(named: Sequence[str], latent: Sequence[str] = ()) -> None:
    """The node rules of every graph kind: names are unique, and the nodes a
    user names (not a DAG's latents) are at most ``MAX_NODES`` and distinct
    when lowercased, as rendering lowercases them.  Raises ValueError."""
    if len(set(named).union(latent)) != len(named) + len(latent):
        raise ValueError("duplicate node identifiers")
    if len(named) > MAX_NODES:
        raise ValueError(f"graph exceeds the {MAX_NODES}-node cap")
    lowered: dict[str, str] = {}
    for v in named:
        if lowered.setdefault(v.lower(), v) != v:
            raise ValueError(f"node names {lowered[v.lower()]!r} and {v!r} collide when lowercased")


class MixedGraph:
    """Nodes plus per-edge endpoint marks; at most one edge per node pair.

    The graph is its mask table, filled by the constructor in the pass that
    validates the edges: per node index, :func:`adjacency_masks` (the
    neighbours, and those with an arrowhead at either end), :func:`mark_masks`
    (the parents and the circles) and :func:`flag_masks` (the neighbours
    across an edge that carries the visible flag).  Every query reads it.
    """

    __slots__ = ("nodes", "_index", "_masks", "_marks", "_flags")
    _grammar = "pag"  # the parse_edge kind read by from_specs

    def __init__(
        self,
        nodes: Sequence[str],
        edges: Iterable[tuple[str, str, EdgeMark, EdgeMark, bool]] = (),
    ):
        tokens = _EDGE_OF_MARKS.get
        self._fill(nodes, ((a, b, tokens((mark_a, mark_b)), visible) for a, b, mark_a, mark_b, visible in edges))

    def _fill(self, nodes: Sequence[str], edges: Iterable[tuple[str, str, EdgeToken | None, bool]]) -> None:
        """Check the nodes, then validate each (a, b, token, visible) edge and
        enter it into the table by its token's rows.  A ``None`` token stands
        for two tails: no graph kind has that edge, and no token spells it."""
        nodes = tuple(nodes)
        check_nodes(nodes)
        index = {v: i for i, v in enumerate(nodes)}
        rows = [[0] * len(nodes) for _ in range(6)]
        nbr, flags = rows[_NBR], rows[_FLAGS]
        for a, b, token, visible in edges:
            if a not in index or b not in index:
                raise ValueError(f"unknown node in edge {a!r}-{b!r}")
            if a == b:
                raise ValueError(f"self-loop at {a!r}")
            i, j = index[a], index[b]
            if nbr[i] >> j & 1:
                raise ValueError(f"duplicate edge {a!r}-{b!r}")
            if visible and (token is None or {*token.marks} != {TAIL, ARROW}):
                raise ValueError(f"visible flag on non-directed edge {a!r}-{b!r}")
            if token is None:
                raise ValueError(f"undirected edge {a!r}-{b!r} not supported")
            bit_i, bit_j = 1 << i, 1 << j
            for row in token.left:
                rows[row][i] |= bit_j
            for row in token.right:
                rows[row][j] |= bit_i
            if visible:
                flags[i] |= bit_j
                flags[j] |= bit_i
        _, head, out, parents, circles, _ = rows
        self.nodes = nodes
        self._index = index
        self._masks = tuple(zip(nbr, head, out))
        self._marks = (tuple(parents), tuple(circles))
        self._flags = tuple(flags)

    @classmethod
    def _read(cls, nodes: Sequence[str], edges: Iterable[tuple[str, str, EdgeToken, bool]]):
        """A :class:`Pag` or :class:`Mag` from a graph file's (a, b, token,
        visible) edges, checked as the file's kind is: a pag file's flags
        against the graphical condition, a mag file's graph as a MAG."""
        graph = cls.__new__(cls)
        graph._fill(nodes, edges)
        graph._settle(True)
        return graph

    @classmethod
    def _of_table(cls, nodes: tuple[str, ...], index: dict[str, int], masks, marks, flags) -> "MixedGraph":
        """A graph of this kind that is the given table, as :meth:`_fill`
        leaves it, with no check run: for a caller whose table holds by
        construction what ``_fill`` checks (known nodes, no self-loop, one
        edge per pair, no edge with two tails).  ``index`` maps ``nodes``
        to their positions and may be shared with another graph over the
        same nodes; a kind's own checks are its ``_settle``."""
        graph = object.__new__(cls)
        graph.nodes, graph._index, graph._masks, graph._marks, graph._flags = nodes, index, masks, marks, flags
        return graph

    @classmethod
    def from_specs(cls, nodes: Sequence[str], specs: Iterable[str]) -> "MixedGraph":
        """Build from edge strings like ``"X --> V3 visible"``, read by
        :func:`parse_edge` with the class's ``_grammar``."""
        return cls(nodes, [parse_edge(cls._grammar, spec) for spec in specs])

    # -- queries ---------------------------------------------------------

    def has_node(self, v: str) -> bool:
        return v in self._index

    def adjacent(self, a: str, b: str) -> bool:
        return a != b and bool(self._masks[self._index[a]][0] >> self._index[b] & 1)

    def neighbors(self, v: str) -> tuple[str, ...]:
        """Neighbours of ``v`` in node order, read off :func:`adjacency_masks`."""
        return names_of(self.nodes, self._masks[self._index[v]][0])

    def mark_at(self, v: str, other: str) -> EdgeMark:
        """Mark at endpoint ``v`` on the edge between ``v`` and ``other``;
        KeyError when they are not adjacent."""
        i, j = self._index[v], self._index[other]
        nbr, head, _ = self._masks[i]
        if not nbr >> j & 1:
            raise KeyError((v, other) if i < j else (other, v))
        return _MARK_OF_BITS[head >> j & 1 | (self._marks[1][i] >> j & 1) << 1]

    def edges(self) -> tuple[tuple[str, str, EdgeMark, EdgeMark, bool], ...]:
        """All edges as (a, b, mark_a, mark_b, visible), a before b in node
        order, by a and then b."""
        nodes, adj, circle, flags = self.nodes, self._masks, self._marks[1], self._flags
        return tuple(
            (nodes[i], nodes[j], _MARK_OF_BITS[adj[i][1] >> j & 1 | (circle[i] >> j & 1) << 1],
             _MARK_OF_BITS[adj[j][1] >> i & 1 | (circle[j] >> i & 1) << 1], bool(flags[i] >> j & 1))
            for i, (nbr, _, _) in enumerate(adj)
            for j in bits(nbr >> i + 1 << i + 1)
        )

    def sort_nodes(self, items: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(items, key=self._index.__getitem__))

    def _structure(self) -> tuple:
        """What equality compares, whatever the node order: the nodes, and
        each edge as its names in sorted order, each with its mark, and the flag."""
        edges = ((a, b, ma, mb, vis) if a < b else (b, a, mb, ma, vis) for a, b, ma, mb, vis in self.edges())
        return frozenset(self.nodes), frozenset(edges)

    def __eq__(self, other: object) -> bool:
        """:meth:`_structure` equality.  Over one node tuple the neighbour,
        arrowhead, circle and flag masks spell the same edges, each mark and
        flag, so they are compared instead."""
        if not isinstance(other, MixedGraph):
            return NotImplemented
        if self.nodes == other.nodes:
            return (
                self._masks == other._masks
                and self._marks[1] == other._marks[1]
                and self._flags == other._flags
            )
        return self._structure() == other._structure()

    def __hash__(self) -> int:
        return hash(self._structure())

    def __repr__(self) -> str:
        parts = [
            f"{a} {TOKEN_OF_MARKS[(ma, mb)]} {b}" + (" v" if vis else "")
            for a, b, ma, mb, vis in self.edges()
        ]
        return f"{type(self).__name__}({', '.join(parts)})"


class Pag(MixedGraph):
    """Partial ancestral graph; refuses what no PAG has and settles edge
    visibility once, when it is built.

    A PAG's tails and arrowheads hold in every MAG of its class, so its
    arrowheads are closed and its definite marks have no directed or almost
    directed cycle; every induced subgraph keeps both.  Construction fills
    the mask table, then computes the graphically visible directed edges
    (:func:`_graphical_visible`).  With ``check_visibility``
    the given flags must equal that set; otherwise every graphically visible
    edge is flagged too, so the flags are complete and are the graph's
    visible set.  An induced subgraph restricts its parent's table without
    this constructor and keeps the restricted flags as its visible set, as
    its own graphical set lies inside its parent's.  The closure and
    ancestral checks and visibility read the table, in closed form.

    A tail facing a circle is refused first: a MAG has no undirected edge,
    so a tail that every member shares forces an arrowhead at the other end
    of that edge in every member.
    """

    def __init__(self, nodes, edges=(), *, check_visibility: bool = False):
        super().__init__(nodes, edges)
        self._settle(check_visibility)

    def _settle(self, check_visibility: bool) -> None:
        """The checks on the filled table, then the visible set."""
        for i, ((nbr, head, out), circle) in enumerate(zip(self._masks, self._marks[1])):
            # a tail at i and no arrowhead at the far end, so a circle there:
            # no mixed graph has an edge with two tails
            facing = nbr & ~head & ~circle & ~out
            if facing:
                j = next(bits(facing))
                raise ValueError(f"tail facing a circle in edge {self.nodes[i]!r} --o {self.nodes[j]!r}")
        violation = find_closure_violation(self)
        if violation is not None:
            raise ValueError(f"arrowhead closure violated at triple {violation}")
        problem = ancestral_violation(self)
        if problem:
            raise ValueError(problem)
        computed = _graphical_visible(self)
        if check_visibility and computed != self._flags:
            raise ValueError(
                f"visibility flags {sorted(flagged_edges(self))} disagree with the "
                f"graphical condition {sorted(_directed_pairs(self, computed))}"
            )
        self._flags = tuple(f | v for f, v in zip(self._flags, computed))

    @classmethod
    def from_specs(cls, nodes, specs, *, check_visibility: bool = True) -> "Pag":
        edges = [parse_edge("pag", spec) for spec in specs]
        return cls(nodes, edges, check_visibility=check_visibility)


class Mag(MixedGraph):
    """Maximal ancestral graph: tail/arrow marks, ancestral and maximal."""

    _grammar = "mag"

    def __init__(self, nodes, edges=(), *, validate: bool = True):
        super().__init__(nodes, edges)
        self._settle(validate)

    def _settle(self, validate: bool) -> None:
        """The checks on the filled table."""
        if any(self._marks[1]):
            a, b = next((a, b) for a, b, ma, mb, _ in self.edges() if CIRCLE in (ma, mb))
            raise ValueError(f"circle mark in MAG edge {a!r}-{b!r}")
        if validate:
            problem = mag_violation(self)
            if problem:
                raise ValueError(problem)


def flagged_edges(g: MixedGraph) -> frozenset[tuple[str, str]]:
    """Directed edges (x, y) of ``g`` that carry a visible flag."""
    return _directed_pairs(g, g._flags)


def _directed_pairs(g: MixedGraph, masks: Sequence[int]) -> frozenset[tuple[str, str]]:
    """The directed edges x -> y of ``g``, as name pairs, with x in ``masks[y]``."""
    nodes = g.nodes
    return frozenset(
        (nodes[i], nodes[j]) for j, (mask, pa) in enumerate(zip(masks, g._marks[0])) for i in bits(mask & pa)
    )


def bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def names_of(nodes: Sequence[str], mask: int) -> tuple[str, ...]:
    """Members of ``mask`` as node names, in node order."""
    return tuple(nodes[i] for i in bits(mask))


def mask_of(g, names: Iterable[str]) -> int:
    """Mask of ``names`` in ``g``; unknown names raise ValueError."""
    mask = 0
    for t in names:
        if t not in g._index:
            raise ValueError(f"unknown node {t!r}")
        mask |= 1 << g._index[t]
    return mask


def adjacency_masks(g) -> tuple[tuple[int, int, int], ...]:
    """Per node index: (neighbours, neighbours w with an arrowhead at this
    node on the edge to w, neighbours w with an arrowhead at w).  Every
    graph kind fills it when it is built."""
    return g._masks


def mark_masks(g) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per node index: the mask of its parents (u with u -> v), and that of
    the neighbours w with a circle at this node on the edge to w.  On a
    :class:`LatentDag` a node's parents are its arrowhead neighbours and
    there are no circles."""
    return g._marks


def flag_masks(g: MixedGraph) -> tuple[int, ...]:
    """Per node index of a mixed graph: the neighbours joined to it by an
    edge that carries the visible flag; the marks tell tail from head."""
    return g._flags


def ancestor_masks(g) -> tuple[int, ...]:
    """Per node index: the mask of its ancestors along directed edges,
    itself included; terminates on cyclic input as well.  One Warshall
    pass over the parent masks: after step k, a node that has k among its
    ancestors has k's ancestors too; parentless nodes add nothing."""
    return _ancestors(mark_masks(g)[0])


def _ancestors(parents: Sequence[int]) -> tuple[int, ...]:
    """:func:`ancestor_masks` of the parent masks ``parents``."""
    an = [pa | 1 << v for v, pa in enumerate(parents)]
    for k, pa in enumerate(parents):
        if pa:
            row, bit = an[k], 1 << k
            an = [a | row if a & bit else a for a in an]
    return tuple(an)


def _close(steps: Sequence[int], mask: int, within: int = -1) -> int:
    """``mask`` plus every node of ``within`` reachable from it inside
    ``within``, node ``u`` stepping to ``steps[u]``."""
    frontier = mask
    while frontier:
        nxt = 0
        for u in bits(frontier):
            nxt |= steps[u]
        frontier = nxt & within & ~mask
        mask |= frontier
    return mask


def _blocks(steps: Sequence[int], within: int) -> list[int]:
    """The components of ``within`` under the symmetric ``steps``, each
    closed inside ``within`` from its lowest node not yet placed: blocks come
    by first member, and ``names_of`` lists each in node order."""
    blocks = []
    while within:
        block = _close(steps, within & -within, within)
        blocks.append(block)
        within &= ~block
    return blocks


def sliced_walk(adj, starts: int, slices: int, collider: Sequence[int], noncollider: Sequence[int]) -> list[int]:
    """Per node index w, the mask of the slices in ``slices`` under which
    the walk from the nodes of ``starts`` enters w; a start counts as
    entered under all of them.

    The walk runs on the mask table ``adj`` (:func:`adjacency_masks`) over
    (node, arrived through an arrowhead) and (node, arrived otherwise)
    states.  A start leaves along every edge.  A node w entered through an
    arrowhead and left through an arrowhead at w is passed as a collider,
    which slice s allows when bit s of ``collider[w]`` is set; any other
    departure passes w as a non-collider, which needs bit s of
    ``noncollider[w]``.

    Each state holds a mask of slices, those under which it was entered.  A
    step passes a state's slices on to the next state ANDed with the
    allowing mask of the pass it makes, so bit s moves exactly as the walk
    under slice s's own masks would move, and no bit ever moves into another
    slice: the fixpoint holds bit s in a state iff slice s's walk enters
    it.  Each slice is thus a separate walk, and one fixpoint over
    ``slices``-wide integers does the work of one walk per slice.  The work
    mask holds the nodes with slices not yet passed on.  A start's own
    departures, under all of ``slices``, cover any later one, so it counts
    as entered under all of them from the outset.
    """
    n = len(adj)
    into, plain = [0] * n, [0] * n
    new_into, new_plain = [0] * n, [0] * n
    work = 0
    for s in bits(starts):
        into[s] = plain[s] = slices
        nbr, _, out = adj[s]
        for w in bits(nbr & ~starts):
            if out >> w & 1:
                into[w] = new_into[w] = slices
            else:
                plain[w] = new_plain[w] = slices
            work |= 1 << w
    while work:
        low = work & -work
        work ^= low
        w = low.bit_length() - 1
        arrived, passing = new_into[w], new_plain[w]
        new_into[w] = new_plain[w] = 0
        nbr, head, out = adj[w]
        # an arrival into w leaving through an arrowhead at w is a collider
        # pass; every other departure is a non-collider pass
        to_rest = (arrived | passing) & noncollider[w]
        to_head = arrived & collider[w] | passing & noncollider[w]
        nbr = (head if to_head else 0) | (nbr & ~head if to_rest else 0)
        while nbr:
            bit = nbr & -nbr
            nbr ^= bit
            u = bit.bit_length() - 1
            flow = to_head if head & bit else to_rest
            if out & bit:
                flow &= ~into[u]
                if flow:
                    into[u] |= flow
                    new_into[u] |= flow
                    work |= bit
            else:
                flow &= ~plain[u]
                if flow:
                    plain[u] |= flow
                    new_plain[u] |= flow
                    work |= bit
    return [a | b for a, b in zip(into, plain)]


def ancestors_in(g, targets: Iterable[str]) -> tuple[str, ...]:
    """Nodes with a directed path (all -> edges) into some target; includes targets."""
    anc = ancestor_masks(g)
    out = 0
    for i in bits(mask_of(g, targets)):
        out |= anc[i]
    return names_of(g.nodes, out)


def possible_ancestors(g: MixedGraph, y: Iterable[str]) -> tuple[str, ...]:
    """Nodes with a potentially directed path into some member of ``y``.

    A path is potentially directed out of a node when no edge on it has an
    arrowhead pointing back toward the source; the edge-local test makes a
    plain reverse reachability search exact.
    """
    return names_of(g.nodes, _possible_ancestors(g, mask_of(g, y), -1))


def _possible_ancestors(g: MixedGraph, y: int, within: int) -> int:
    """:func:`possible_ancestors` of the mask ``y`` in the subgraph over ``within``."""
    return _close([nbr & ~arrow for nbr, _, arrow in adjacency_masks(g)], y, within)


def possible_descendants(g: MixedGraph, x: Iterable[str]) -> tuple[str, ...]:
    """Nodes reachable from ``x`` by a potentially directed path; includes ``x``."""
    steps = [nbr & ~head for nbr, head, _ in adjacency_masks(g)]
    return names_of(g.nodes, _close(steps, mask_of(g, x)))


def find_closure_violation(g: MixedGraph) -> tuple[str, str, str] | None:
    """Check the PAG closure property on every adjacent triple.

    Whenever A*->B with a circle at B toward C and A, C adjacent, the A-C
    edge must have an arrowhead at C; and if additionally A -> B, the A-C
    edge must not be bidirected.  Returns a violating (A, B, C) or None:
    the first B in node order, its first A, and the lowest C.  One pass
    over node masks: for B and each A with an arrowhead at B, the
    candidate C are the neighbours of A with a circle at B.
    """
    adj, nodes = adjacency_masks(g), g.nodes
    parents, circle = mark_masks(g)
    for j, (_, head_b, _) in enumerate(adj):
        for i in bits(head_b):
            nbr_a, head_a, out_a = adj[i]
            cs = circle[j] & nbr_a
            bad = cs & ~out_a
            if parents[j] >> i & 1:  # A -> B
                bad |= cs & head_a
            if bad:
                return nodes[i], nodes[j], nodes[(bad & -bad).bit_length() - 1]
    return None


def ancestral_violation(g: MixedGraph) -> str | None:
    """Describe a directed or almost directed cycle among the definite marks
    of ``g``, or None; the first bidirected edge in node order is named.
    A directed cycle exists iff some edge u -> v has v among u's ancestors,
    and an almost directed one iff some node has a bidirected neighbour
    among its ancestors."""
    return _ancestral_violation(g, ancestor_masks(g))


def _ancestral_violation(g: MixedGraph, an: Sequence[int]) -> str | None:
    """:func:`ancestral_violation` of ``g``, whose ancestor masks are ``an``."""
    if _directed_cycle(mark_masks(g)[0], an):
        return "directed cycle"
    cyclic = [(min(u, v), max(u, v)) for u, v in _almost_cycles(adjacency_masks(g), an)]
    if not cyclic:
        return None
    i, j = min(cyclic)
    return f"almost directed cycle at {g.nodes[i]!r}<->{g.nodes[j]!r}"


def _directed_cycle(parents: Sequence[int], an: Sequence[int]) -> bool:
    """True when some node is an ancestor of one of its parents."""
    return any(an[u] >> v & 1 for v, pa in enumerate(parents) for u in bits(pa))


def _almost_cycles(adj, an: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The bidirected edges (u, v) of the table ``adj`` with u among the
    ancestors ``an[v]`` of v."""
    return ((u, v) for v, (_, head, out) in enumerate(adj) for u in bits(head & out & an[v]))


def mag_violation(g: MixedGraph) -> str | None:
    """Return a description of an ancestrality/maximality failure, or None."""
    an = ancestor_masks(g)
    problem = _ancestral_violation(g, an)
    if problem:
        return problem
    pair = _inducing_pair(adjacency_masks(g), an)
    if pair is None:
        return None
    i, j = pair
    return f"inducing path between non-adjacent {g.nodes[i]!r} and {g.nodes[j]!r}"


def _inducing_pair(adj, an: Sequence[int]) -> tuple[int, int] | None:
    """The first non-adjacent pair (i, j), i < j, joined by an inducing path,
    or None; ``adj`` is a table as :func:`adjacency_masks` gives, ``an`` its
    ancestor masks."""
    n = len(adj)
    bidirected = [head & out for _, head, out in adj]
    out = [out for _, _, out in adj]
    for i, (nbr, _, _) in enumerate(adj):
        for j in bits(~nbr & (1 << n) - (2 << i)):
            if _inducing(bidirected, out, an, i, j):
                return i, j
    return None


def _inducing(bidirected: Sequence[int], out: Sequence[int], an: Sequence[int], i: int, j: int) -> bool:
    """True when non-adjacent nodes i and j are joined by an inducing path:
    ``out[v]`` masks the nodes with an arrowhead on their edge from v,
    ``bidirected[v]`` those joined to v by an arrowhead at both ends.

    An inducing path i *-> w1 <-> ... <-> wk <-* j has only colliders
    inside, each in A = An(i) | An(j), so two colliders in a row share a
    bidirected edge.  Such a path exists iff the closure under bidirected
    edges inside A of i's arrowhead neighbours in A meets ``out[j]``.  A walk
    of that shape shortens to a path of it: cut the stretch between two
    visits of a node, and a visit of i or j starts or ends a shorter one.
    This is what a walk from i with the colliders in A and no non-colliders
    allowed reaches, in closed form.
    """
    within = an[i] | an[j]
    return bool(_close(bidirected, out[i] & within, within) & out[j])


def _graphical_visible(g: MixedGraph) -> tuple[int, ...]:
    """Per node index, the neighbours joined to it by a graphically visible
    edge, as :func:`flag_masks` holds the flagged ones.

    Closed form, one pass per child y over :func:`adjacency_masks`: with Pa
    the parents of y and far the nodes other than y not adjacent to y, the
    seeds are the members of Pa with an edge into them from far, and the
    visible parents are the seeds closed under bidirected edges inside Pa.
    That is what a walk from far, with the parents of y as the allowed
    colliders and no non-colliders, reaches into: it leaves a far start
    along any edge, and goes on only from a node of Pa that it entered
    through an arrowhead, along an edge with arrowheads at both ends; Pa,
    inside the neighbours of y, is disjoint from far.
    """
    adj = adjacency_masks(g)
    everything = (1 << len(adj)) - 1
    bidirected = [head & out for _, head, out in adj]
    visible = [0] * len(adj)
    for j, pa in enumerate(mark_masks(g)[0]):
        if not pa:
            continue
        far = everything & ~adj[j][0] & ~(1 << j)
        seeds = sum(1 << i for i in bits(pa) if adj[i][1] & far)
        for i in bits(_close(bidirected, seeds, pa)):
            visible[i] |= 1 << j
            visible[j] |= 1 << i
    return tuple(visible)


def _latent_name(k: int, taken: Collection[str]) -> str:
    """The name of a DAG's k-th latent, counting from 1: ``U<k>``, with
    ``_`` appended while ``taken`` holds it.  Names for different k differ
    before their ``_`` suffixes, so they never collide with each other."""
    name = f"U{k}"
    while name in taken:
        name += "_"
    return name


def _confounded(d: LatentDag) -> list[int]:
    """Per node index of ``d``: the observed nodes that share a latent
    parent with it, itself among them when it has one; a latent's row is
    empty.  Each latent reads as a bidirected edge between its children."""
    steps = [0] * len(d.nodes)
    for _, _, kids in adjacency_masks(d)[len(d.observed):]:
        for c in bits(kids):
            steps[c] |= kids
    return steps


class LatentDag:
    """Acyclic causal diagram in canonical semi-Markovian form.

    Latent nodes are roots with exactly two observed children, at most one
    per pair, standing for bidirected confounding arcs; the node cap counts
    the observed nodes only.
    """

    __slots__ = ("observed", "latent", "_edges", "_index", "_masks", "_marks", "_topo")

    def __init__(
        self,
        observed: Sequence[str],
        latent: Sequence[str],
        edges: Iterable[tuple[str, str]],
    ):
        observed = tuple(observed)
        latent = tuple(latent)
        names = observed + latent
        check_nodes(observed, latent)
        self.observed = observed
        self.latent = latent
        self._index = index = {v: i for i, v in enumerate(names)}
        self._edges = tuple(edges)
        n = len(names)
        nbr, parents, children = [0] * n, [0] * n, [0] * n
        for p, c in self._edges:
            if p not in index or c not in index:
                raise ValueError(f"unknown node in edge {p!r}->{c!r}")
            i, j = index[p], index[c]
            if i == j or nbr[i] >> j & 1:
                raise ValueError(f"bad edge {p!r}->{c!r}")
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
            parents[j] |= 1 << i
            children[i] |= 1 << j
        self._masks = tuple(zip(nbr, parents, children))
        self._marks = (tuple(parents), (0,) * n)
        confounded = set()
        for u in range(len(observed), n):
            if parents[u]:
                raise ValueError(f"latent {names[u]!r} has parents")
            if children[u].bit_count() != 2 or children[u] >> len(observed):
                raise ValueError(f"latent {names[u]!r} must have exactly two observed children")
            if children[u] in confounded:
                a, b = (c for p, c in self._edges if p == names[u])  # arc order, for the message
                raise ValueError(f"duplicate edge {a!r}-{b!r}")
            confounded.add(children[u])
        self._topo = self._kahn_order()  # raises on cycles

    @classmethod
    def _of_mag(cls, m: MixedGraph) -> "LatentDag":
        """The canonical DAG of the MAG ``m`` (see
        :func:`.oracle.canonical_dag_of_mag`), filled from its masks: the
        arcs and the latents come in ``m.edges()`` order, each edge read off
        the parent masks as an arc or, with neither end a parent of the
        other, as a latent root after ``m``'s nodes.  Only the cycle check
        of :meth:`_kahn_order` runs."""
        observed = m.nodes
        adj = m._masks
        parents = list(m._marks[0])
        children = [out & ~head for _, head, out in adj]
        nbr = [pa | kids for pa, kids in zip(parents, children)]
        arcs: list[tuple[str, str]] = []
        latent: list[str] = []
        for i, (around, _, _) in enumerate(adj):
            a = observed[i]
            for j in bits(around >> i + 1 << i + 1):
                b = observed[j]
                if parents[j] >> i & 1:
                    arcs.append((a, b))
                elif parents[i] >> j & 1:
                    arcs.append((b, a))
                else:
                    name = _latent_name(len(latent) + 1, m._index)
                    u = 1 << len(observed) + len(latent)
                    latent.append(name)
                    arcs += [(name, a), (name, b)]
                    pair = 1 << i | 1 << j
                    nbr.append(pair)
                    parents.append(0)
                    children.append(pair)
                    for k in (i, j):
                        nbr[k] |= u
                        parents[k] |= u
        dag = object.__new__(cls)
        dag.observed, dag.latent, dag._edges = observed, tuple(latent), tuple(arcs)
        dag._index = {v: k for k, v in enumerate(observed + dag.latent)}
        dag._masks = tuple(zip(nbr, parents, children))
        dag._marks = (tuple(parents), (0,) * len(nbr))
        dag._topo = dag._kahn_order()  # raises on cycles
        return dag

    @classmethod
    def from_edges(cls, observed: Sequence[str], edges: Iterable[tuple]) -> "LatentDag":
        """Build from (a, b, mark_a, mark_b, visible) edges, each read as the
        dag-file token of its marks (:data:`EDGE_TOKENS`) by :meth:`_read`;
        marks that no dag token has raise."""
        tokens = []
        for a, b, mark_a, mark_b, visible in edges:
            token = _DAG_EDGE_OF_MARKS.get((mark_a, mark_b))
            if token is None:
                raise ValueError(f"edge {a!r}-{b!r} is neither directed nor bidirected")
            tokens.append((a, b, token, visible))
        return cls._read(observed, tokens)

    @classmethod
    def _read(cls, observed: Sequence[str], edges: Iterable[tuple[str, str, EdgeToken, bool]]) -> "LatentDag":
        """Build from (a, b, token, visible) dag edges, as a graph file and
        :meth:`from_edges` give them: a token with a tail is an arc, and each
        ``<->`` becomes a latent root ``U<n>`` (``_`` appended while that is
        an observed name) over its endpoints."""
        arcs: list[tuple[str, str]] = []
        latent: list[str] = []
        for a, b, token, _ in edges:
            mark_a, mark_b = token.marks
            if mark_a is TAIL:
                arcs.append((a, b))
            elif mark_b is TAIL:
                arcs.append((b, a))
            else:
                name = _latent_name(len(latent) + 1, observed)
                latent.append(name)
                arcs += [(name, a), (name, b)]
        return cls(observed, latent, arcs)

    @classmethod
    def from_specs(cls, observed: Sequence[str], specs: Iterable[str]) -> "LatentDag":
        """Build from strings ``"A -> B"`` plus ``"A <-> B"`` confounding arcs,
        read by :func:`parse_edge` under the dag rules."""
        return cls.from_edges(observed, [parse_edge("dag", spec) for spec in specs])

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.observed + self.latent

    def parents(self, v: str) -> tuple[str, ...]:
        return names_of(self.nodes, self._marks[0][self._index[v]])

    def children(self, v: str) -> tuple[str, ...]:
        return names_of(self.nodes, self._masks[self._index[v]][2])

    def edges(self) -> tuple[tuple[str, str], ...]:
        return self._edges

    def sort_nodes(self, items: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(items, key=self._index.__getitem__))

    def topological_order(self) -> tuple[str, ...]:
        """Deterministic topological order over all nodes (Kahn, node order)."""
        return self._topo

    def _kahn_order(self) -> tuple[str, ...]:
        """Kahn's order in one pass over the parent masks: the lowest-index
        ready node goes next, and a child is ready once its parents are placed."""
        names, masks, parents = self.nodes, self._masks, self._marks[0]
        ready = sum(1 << v for v, pa in enumerate(parents) if not pa)
        placed, out = 0, []
        while ready:
            low = ready & -ready
            ready ^= low
            placed |= low
            v = low.bit_length() - 1
            out.append(names[v])
            kids = masks[v][2]
            while kids:
                kid = kids & -kids
                kids ^= kid
                if not parents[kid.bit_length() - 1] & ~placed:
                    ready |= kid
        if len(out) != len(names):
            raise ValueError("cycle in DAG")
        return tuple(out)

    def _structure(self) -> tuple:
        """What equality compares: the observed nodes, the observed edges and
        the confounded pairs, one per latent.  Latent names do not count, as
        :meth:`from_edges` assigns them in arc order."""
        latent = set(self.latent)
        return (
            frozenset(self.observed),
            frozenset(e for e in self._edges if e[0] not in latent),
            frozenset(frozenset(self.children(u)) for u in self.latent),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatentDag):
            return NotImplemented
        return self._structure() == other._structure()

    def __hash__(self) -> int:
        return hash(self._structure())

    def __repr__(self) -> str:
        arcs = ", ".join(f"{p}->{c}" for p, c in self._edges)
        return f"LatentDag(observed={list(self.observed)}, latent={list(self.latent)}, {arcs})"


def read_graph(text: str):
    """Read a graph file into (kind, graph).

    A file is a header line (``pag``, ``dag`` or ``mag``), at most one
    ``nodes:`` line fixing the node order, and one ``edge:`` line per edge,
    read by :func:`read_edge` under the rules of the header's kind into
    (a, b, token, visible); ``#`` starts a comment, and lines break where
    :meth:`str.splitlines` breaks.  The nodes are the ``nodes:`` line's, or
    the edges' in first-seen order without one, and the kind's builder
    (:meth:`MixedGraph._read`, :meth:`LatentDag._read`) fills the table by
    each edge's token and runs the kind's checks.  Errors come in that
    order: a line's own error, naming the line; a node missing from the
    ``nodes:`` line; then the builder's.  Raises ValueError.
    """
    kind = named = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if kind is None:
            if line not in ("pag", "dag", "mag"):
                raise ValueError(f"line {lineno}: header must be pag, dag or mag")
            kind = line
        elif line.startswith("edge:"):
            try:
                edges.append(read_edge(kind, line[len("edge:"):]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
        elif line.startswith("nodes:"):
            if named is not None:
                raise ValueError(f"line {lineno}: duplicate nodes line")
            named = line[len("nodes:"):].split()
        else:
            raise ValueError(f"line {lineno}: expected 'nodes:' or 'edge:'")
    if kind is None:
        raise ValueError("empty graph file")
    seen = dict.fromkeys(v for a, b, _, _ in edges for v in (a, b))
    if named is None:
        named = seen
    for v in seen:
        if v not in named:
            raise ValueError(f"edge references node {v!r} missing from nodes line")
    builder = LatentDag if kind == "dag" else Pag if kind == "pag" else Mag
    return kind, builder._read(tuple(named), edges)


def induced_subgraph(g, a: Iterable[str]):
    """Induced subgraph over ``a``, in the parent's node order.

    A mixed graph is restricted, not rebuilt: each mask of the parent's
    validated table (adjacency, marks and flags) is mapped onto the kept
    indices, and a :class:`Pag` keeps the restricted flags as its visible
    set, which is complete (see :class:`Pag`).  Over every node the graph
    itself is returned.  A :class:`LatentDag` is rebuilt, with the latents
    whose children are both kept, as its topological order must be
    recomputed.
    """
    a = list(a)
    if isinstance(g, LatentDag):
        for v in a:
            if v not in g.observed:
                raise ValueError(f"unknown observed node {v!r}")
        keep_obs = set(a)
        keep_lat = [u for u in g.latent if all(c in keep_obs for c in g.children(u))]
        keep = keep_obs | set(keep_lat)
        edges = [(p, c) for p, c in g.edges() if p in keep and c in keep]
        return LatentDag(g.sort_nodes(keep_obs), tuple(keep_lat), edges)

    for v in a:
        if not g.has_node(v):
            raise ValueError(f"unknown node {v!r}")
    kept = sorted({g._index[v] for v in a})
    if len(kept) == len(g.nodes):
        return g

    def restrict(mask: int) -> int:
        return sum(1 << k for k, i in enumerate(kept) if mask >> i & 1)

    nodes = tuple(g.nodes[i] for i in kept)
    return type(g)._of_table(
        nodes,
        {v: k for k, v in enumerate(nodes)},
        tuple(tuple(map(restrict, g._masks[i])) for i in kept),
        tuple(tuple(restrict(masks[i]) for i in kept) for masks in g._marks),
        tuple(restrict(g._flags[i]) for i in kept),
    )


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

    The observed nodes are the DAG's first indices, so the MAG's table is
    filled at the same indices, pair by pair: an arrowhead at each end that
    is not an ancestor of the other.  No pair gets two tails, as the DAG is
    acyclic, and each pair is filled once, so the table holds what
    :meth:`MixedGraph._fill` checks; the MAG checks (:func:`mag_violation`)
    run on it as on any MAG built.
    """
    an = ancestor_masks(d)
    bidirected = _confounded(d)
    out = [children | bi for (_, _, children), bi in zip(adjacency_masks(d), bidirected)]
    n = len(d.observed)
    nbr, head, arrow_out = [0] * n, [0] * n, [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if not (out[i] >> j & 1 or out[j] >> i & 1 or _inducing(bidirected, out, an, i, j)):
                continue
            bit_i, bit_j = 1 << i, 1 << j
            nbr[i] |= bit_j
            nbr[j] |= bit_i
            if not an[j] & bit_i:  # i is no ancestor of j: an arrowhead at i
                head[i] |= bit_j
                arrow_out[j] |= bit_i
            if not an[i] & bit_j:
                head[j] |= bit_i
                arrow_out[i] |= bit_j
    none = (0,) * n
    # a parent has an arrowhead at this end and a tail at its own
    parents = tuple(h & ~o for h, o in zip(head, arrow_out))
    index = {v: i for i, v in enumerate(d.observed)}
    mag = Mag._of_table(d.observed, index, tuple(zip(nbr, head, arrow_out)), (parents, none), none)
    mag._settle(True)
    return mag
