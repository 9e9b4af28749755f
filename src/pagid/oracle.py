"""Ground-truth machinery for verification.

Provides discrete structural models with exact joints and truncated
(interventional) distributions, the canonical DAG of a MAG, brute-force
Markov equivalence class enumeration by separation-model comparison, and
seeded random generators.  Everything here is deliberately exhaustive; the
size guards keep it at desk scale.  Random latent DAGs are built by
:meth:`.graphs.LatentDag.from_edges` from marked edges.

A class is enumerated on node masks and never through names.  The edges of
the skeleton are marked one at a time, and an assignment is cut off at its
first mark that breaks an unshielded collider of the reference
(:func:`_collider_survivors`); the survivors come in the order of the full
product of marks, and each is tested on the masks its marks give.  A
candidate's separation model is read with one :func:`.graphs.sliced_walk`
per source i, run under all 2**n conditioning sets at once: bit z of node
w's collider mask is set iff w lies in z, and of its non-collider mask iff
it does not (:func:`_slices`).  The kernel's slices are separate walks (see
its docstring), so slice z is the walk that opens the colliders in z and
the non-colliders outside it; opening the colliders in An(z) instead
reaches no more on walks (see :mod:`.separation`).  Node y is
m-separated from i by z iff the walk under z never enters y.  The cost is
one fixpoint over 2**n-bit integers per source instead of 2**n walks.

What follows a class reads its members' tables as well: each member is the
table its tests computed, and the PAG's marks are the AND and OR of the
members' arrowhead masks (:func:`pag_of_class`).  A member's canonical DAG
is built as every latent DAG is, by :meth:`.graphs.LatentDag.from_edges`
from its edges (:func:`canonical_dag_of_mag`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterator, Mapping, Sequence

import numpy as np

from .exprs import JointTable, vsort
from .graphs import (
    ARROW,
    TAIL,
    LatentDag,
    Mag,
    Pag,
    _almost_cycles,
    _ancestors,
    _directed_cycle,
    _inducing_pair,
    adjacency_masks,
    bits,
    mag_of_dag,
    sliced_walk,
)

MAX_JOINT_STATES = 1 << 20
MAX_CLASS_EDGES = 10
CPT_FLOOR = 1e-6
CPT_ROW_TOL = 1e-12


@dataclass(frozen=True)
class Scm:
    """Discrete structural model over a latent DAG with explicit CPTs, or a
    batch of ``models`` such models over one graph.

    ``cpts[v]`` has one axis per parent of ``v`` (in graph parent order)
    plus a final axis for ``v``; every row sums to one.  In a batch each CPT
    has a leading model axis before those; everything below reads a CPT's
    trailing axes, so a batch holds its models side by side and each model is
    computed exactly as it would be alone.  ``factors[k]`` is the CPT of the
    k-th node in topological order with its axes in that order, shaped to
    broadcast over the full joint; it is derived from ``cpts``, so equality,
    hashing and the repr ignore it.  Two models are equal when their graphs,
    cards and every CPT entry are; the hash reads the graph and the cards
    only, so equal models hash equal.

    Construction checks every CPT for its shape, for a negative entry and
    for a row that misses one by more than ``CPT_ROW_TOL``.  The sign and
    row checks run batched, once per card over the rows of all CPTs.  When
    the batch cannot pass every CPT, the per-node checks run in topological
    order and raise for the first faulty node, shape before sign before rows,
    with the messages the per-node checks always gave; in a batch the shape
    they want starts with the model axis.
    """

    graph: LatentDag
    cards: Mapping[str, int]
    cpts: Mapping[str, np.ndarray]
    models: int | None = None
    factors: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.models is not None and self.models < 1:
            raise ValueError(f"a batch needs at least one model, not {self.models!r}")
        lead = self.lead
        order = self.graph.topological_order()
        axis = {v: len(lead) + i for i, v in enumerate(order)}
        dims = [(*self.graph.parents(v), v) for v in order]
        wants = [lead + tuple(self.cards[d] for d in ds) for ds in dims]
        cpts = [np.asarray(self.cpts[v], dtype=float) for v in order]
        if not _cpts_pass(cpts, wants):
            for v, cpt, want in zip(order, cpts, wants):
                _check_cpt(v, cpt, want)
        factors = []
        for cpt, ds in zip(cpts, dims):
            shape = [*lead, *[1] * len(order)]
            for d in ds:
                shape[axis[d]] = self.cards[d]
            perm = sorted(range(len(ds)), key=lambda i: axis[ds[i]])
            arranged = np.transpose(cpt, [*range(len(lead)), *(len(lead) + i for i in perm)])
            factors.append(arranged.reshape(shape))
        object.__setattr__(self, "factors", tuple(factors))

    @property
    def lead(self) -> tuple[int, ...]:
        """The shape of the model axes: ``()`` for one model."""
        return () if self.models is None else (self.models,)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scm):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.cards == other.cards
            and self.cpts.keys() == other.cpts.keys()
            and all(np.array_equal(self.cpts[v], other.cpts[v]) for v in self.cpts)
        )

    def __hash__(self) -> int:
        return hash((self.graph, tuple(sorted(self.cards.items()))))


def _check_cpt(v: str, cpt: np.ndarray, want: tuple[int, ...]) -> None:
    """The checks on the CPT of one node, in the order they report."""
    if cpt.shape != want:
        raise ValueError(f"CPT shape for {v!r}: {cpt.shape} != {want}")
    if (cpt < 0).any():
        raise ValueError(f"negative CPT entry for {v!r}")
    # absolute tolerance only; written so that a NaN row fails too
    if not np.abs(cpt.sum(axis=-1) - 1.0).max() <= CPT_ROW_TOL:
        raise ValueError(f"CPT rows for {v!r} do not sum to 1")


def _cpts_pass(cpts: Sequence[np.ndarray], wants: Sequence[tuple[int, ...]]) -> bool:
    """True when every CPT passes :func:`_check_cpt`, with one sign and one
    row check per card over the stacked rows of its CPTs.

    False leaves the verdict to :func:`_check_cpt`.  An empty CPT or one not
    in C order gives False too: stacked, its rows could sum in another
    grouping than its own ``sum(axis=-1)`` uses.  A C-ordered CPT's rows sum
    the same either way.
    """
    rows_by_card: dict[int, list[np.ndarray]] = {}
    for cpt, want in zip(cpts, wants):
        if cpt.shape != want or not cpt.size or not cpt.flags.c_contiguous:
            return False
        rows_by_card.setdefault(want[-1], []).append(cpt.reshape(-1, want[-1]))
    for blocks in rows_by_card.values():
        rows = np.concatenate(blocks)
        # as in _check_cpt, a NaN row fails the comparison
        if (rows < 0).any() or not np.abs(rows.sum(axis=-1) - 1.0).max() <= CPT_ROW_TOL:
            return False
    return True


def _product(s: Scm, x: Collection[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Product over all nodes of the CPT factors of the nodes outside the
    intervened ``x``, after the model axes.  The guard bounds the states of
    one model."""
    for v in x:
        if v not in s.graph.observed:
            raise ValueError(f"intervention on unknown observed node {v!r}")
    order = s.graph.topological_order()
    states = 1
    for v in order:
        states *= s.cards[v]
    if states > MAX_JOINT_STATES:
        raise ValueError(f"joint state space {states} exceeds guard {MAX_JOINT_STATES}")
    out = np.ones(s.lead + tuple(s.cards[v] for v in order))
    for v, factor in zip(order, s.factors):
        if v not in x:
            out = out * factor
    return order, out


def _clamp(s: Scm, order: tuple[str, ...], out: np.ndarray, x: Mapping[str, int]) -> np.ndarray:
    """``out`` with each node of ``x`` clamped to its value."""
    for v, val in x.items():
        keep = np.zeros(s.cards[v])
        keep[val] = 1.0
        out = out * keep.reshape([s.cards[v] if u == v else 1 for u in order])
    return out


def _full_joint(s: Scm, x: Mapping[str, int]) -> tuple[tuple[str, ...], np.ndarray]:
    """Joint over all nodes with the CPTs of the intervened ``x`` dropped and
    their values clamped."""
    order, out = _product(s, x)
    return order, _clamp(s, order, out, x)


def _observed_table(s: Scm, order: tuple[str, ...], x: Collection[str], values: int = 0) -> Callable[[np.ndarray], JointTable]:
    """The map from a joint over ``order`` to its table over the observed
    nodes outside ``x``, in :func:`.exprs.vsort` order.  The summed axes
    and the permutation are worked out once, here; both count from the
    right, past the model axes and ``values`` more leading axes."""
    drop = set(s.graph.latent) | set(x)
    axes = tuple(i - len(order) for i, v in enumerate(order) if v in drop)
    keep = tuple(v for v in order if v not in drop)
    keep_sorted = vsort(keep)
    lead = len(s.lead) + values
    perm = [*range(lead), *(lead + keep.index(v) for v in keep_sorted)]
    cards = tuple(s.cards[v] for v in keep_sorted)
    return lambda arr: JointTable(keep_sorted, cards, np.transpose(arr.sum(axis=axes) if axes else arr, perm))


def joint(s: Scm) -> JointTable:
    """Exact observational distribution over the observed variables (one
    table per model of a batch, on its leading axis)."""
    return truncated(s, {})


def truncated(s: Scm, x: Mapping[str, int]) -> JointTable:
    """Exact interventional distribution: drop intervened CPTs, clamp values."""
    order, arr = _full_joint(s, x)
    return _observed_table(s, order, x)(arr)


def interventional(s: Scm, x_vars: Sequence[str]) -> JointTable:
    """Every truncation of ``s`` on ``x_vars`` as one table: after the model
    axes come one value axis per variable of ``x_vars``, then the observed
    nodes outside them, so that the slice at ``vals`` is
    ``truncated(s, dict(zip(x_vars, vals)))``, bitwise.

    One product of the factors outside ``x_vars`` is clamped against all
    values at once, each x axis multiplied by an identity against its value
    axis, and summed and transposed once.  Each (model, value) block of the
    clamped product is laid out in memory as :func:`truncated`'s joint for
    that value, so numpy sums it in the same order.  The guard bounds the
    states times the values of ``x_vars`` of one model.
    """
    x_vars = tuple(x_vars)
    order, prod = _product(s, x_vars)
    lead, n = len(s.lead), len(x_vars)
    states = math.prod(prod.shape[lead:]) * math.prod(s.cards[v] for v in x_vars)
    if states > MAX_JOINT_STATES:
        raise ValueError(f"interventional state space {states} exceeds guard {MAX_JOINT_STATES}")
    arr = prod.reshape(s.lead + (1,) * n + prod.shape[lead:])
    for k, v in enumerate(x_vars):
        shape = [1] * arr.ndim
        shape[lead + k] = shape[lead + n + order.index(v)] = s.cards[v]
        arr = arr * np.eye(s.cards[v]).reshape(shape)
    return _observed_table(s, order, x_vars, n)(arr)


def canonical_dag_of_mag(m: Mag) -> LatentDag:
    """The canonical DAG of the MAG ``m``: its directed edges kept, and each
    bidirected edge a fresh latent root ``U<n>`` (``_`` appended while that
    is a node of ``m``), built by :meth:`.graphs.LatentDag.from_edges` from
    ``m.edges()``, arcs and latents in that order.  Raises ValueError where
    ``m`` is no MAG the constructor accepts as a DAG: an edge with a circle,
    or a directed cycle.
    """
    return LatentDag.from_edges(m.nodes, m.edges())


def _slices(n: int) -> tuple[int, tuple[int, ...]]:
    """The conditioning sets of ``n`` nodes as bit positions: returns the
    mask of all 2**n sets and, per node k, the mask of the sets z that hold
    k.  That mask is the block of 2**k clear bits then 2**k set ones,
    repeated; multiplying one block by a ones-every-block pattern repeats it
    without carries."""
    every = (1 << (1 << n)) - 1
    return every, tuple(
        ((1 << (1 << k)) - 1 << (1 << k)) * (every // ((1 << (2 << k)) - 1)) for k in range(n)
    )


def _sliced_model(adj) -> Iterator[tuple[int, int, int]]:
    """The separation model of the graph with mask table ``adj``, one
    :func:`.graphs.sliced_walk` per source over the conditioning sets.

    Yields ``(i, y, seps)`` for each node index ``i`` and each later node
    ``y`` not adjacent to it, ``i`` then ``y`` ascending: ``seps`` masks the
    conditioning sets z, none holding ``i`` or ``y``, that m-separate them.
    Adjacent nodes are never m-separated and m-separation is symmetric, so
    over graphs that share a skeleton (and so the pairs and the order),
    equal sequences are equal models.
    """
    n = len(adj)
    every, inz = _slices(n)
    outz = [~held for held in inz]
    for i, (nbr, _, _) in enumerate(adj):
        later = ~nbr & (1 << n) - (2 << i)
        if later:
            start = every & ~inz[i]
            entered = sliced_walk(adj, 1 << i, start, inz, outz)
            for y in bits(later):
                yield i, y, start & ~inz[y] & ~entered[y]


def _collider_survivors(m: Mag) -> Iterator[tuple[list[int], list[int], list[int]]]:
    """The tail/arrow assignments over the skeleton of ``m`` with the
    unshielded colliders of ``m``, in :func:`itertools.product` order over
    its edges (each edge's marks ``-->``, ``<--``, ``<->``, the first edge
    slowest), each as its arrowhead, out and parent masks
    (:func:`.graphs.adjacency_masks`, :func:`.graphs.mark_masks`).

    The edges are marked one at a time, in ``m.edges()`` order, each
    prefix's marks held as one int with bit 2k (2k + 1) set for an arrowhead
    at the first (second) end of edge k.  An unshielded triple a *-* b *-* c
    is tested as soon as its later edge is marked: under each mark of that
    edge it asks for an arrowhead or a tail at b on the earlier edge, or
    refuses the mark outright (a tail at b where ``m`` has a collider), so
    each (edge, mark) step is one masked comparison, and a prefix that
    breaks a triple is dropped with every assignment that extends it.  Each
    level keeps its prefixes in order and extends each under the three
    marks in turn, so the assignments that survive come in product order;
    no other is lost, as every triple is tested once all its marks are set.
    An edgeless ``m`` has one assignment, the empty one.
    """
    adj = adjacency_masks(m)
    n = len(adj)
    ends_of = [(i, j) for i, (nbr, _, _) in enumerate(adj) for j in bits(nbr >> i + 1 << i + 1)]
    at: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # per node: (edge, its end's bit)
    for k, (a, b) in enumerate(ends_of):
        at[a].append((k, 2 * k))
        at[b].append((k, 2 * k + 1))
    # per edge l: the (earlier end's bit, l's end's bit, collider in m) of
    # each unshielded triple whose later edge is l
    triples: list[list[tuple[int, int, bool]]] = [[] for _ in ends_of]
    for b, incident in enumerate(at):
        head_b = adj[b][1]
        for (k, end_k), (l, end_l) in itertools.combinations(incident, 2):
            a, c = (ends_of[e][0] ^ ends_of[e][1] ^ b for e in (k, l))
            if not adj[a][0] >> c & 1:
                triples[l].append((end_k, end_l, bool(head_b >> a & 1 and head_b >> c & 1)))
    prefixes = [0]
    for l, rules in enumerate(triples):
        steps = []
        for arrows in (2 << 2 * l, 1 << 2 * l, 3 << 2 * l):  # -->, <--, <->
            care = want = 0
            for end_k, end_l, collider in rules:
                if arrows >> end_l & 1:
                    care |= 1 << end_k
                    want |= collider << end_k
                elif collider:
                    break
            else:
                steps.append((arrows, care, want))
        prefixes = [p | arrows for p in prefixes for arrows, care, want in steps if p & care == want]
    for marks in prefixes:
        head, out = [0] * n, [0] * n
        for a, b in ends_of:
            if marks & 1:
                head[a] |= 1 << b
                out[b] |= 1 << a
            if marks & 2:
                head[b] |= 1 << a
                out[a] |= 1 << b
            marks >>= 2
        # a parent has an arrowhead at this end and a tail at its own
        yield head, out, [h & ~o for h, o in zip(head, out)]


def equivalence_class(m: Mag) -> tuple[Mag, ...]:
    """All MAGs over the skeleton of ``m`` with the same separation model,
    in :func:`itertools.product` order over the marks of its edges.

    The candidates are the tail/arrow assignments with the unshielded
    colliders of ``m`` (a necessary condition), which
    :func:`_collider_survivors` enumerates without walking the others.  A
    candidate is tested on the arrowhead, parent and ancestor masks that its
    marks give on the skeleton's node indices: it must be ancestral and
    maximal (:func:`.graphs._inducing_pair`), and its :func:`_sliced_model`
    must equal that of ``m``, compared source by source and rejected at the
    first difference.  Each z-slice of :func:`.graphs.sliced_walk` is the
    walk under that z alone (see the module docstring), so this is the
    model that one walk per (source, z) reads.  Each member is the table
    its tests read, taken as a :class:`.graphs.Mag` over ``m``'s nodes: the
    tests are the MAG checks.
    """
    if len(m.edges()) > MAX_CLASS_EDGES:
        raise ValueError(f"{len(m.edges())} edges exceeds the enumeration guard {MAX_CLASS_EDGES}")
    nbr = [mask for mask, _, _ in adjacency_masks(m)]
    reference = tuple(_sliced_model(adjacency_masks(m)))
    none = (0,) * len(nbr)
    members = []
    for head, out, parents in _collider_survivors(m):
        an, adj = _ancestors(parents), tuple(zip(nbr, head, out))
        if _directed_cycle(parents, an) or any(_almost_cycles(adj, an)):
            continue
        if _inducing_pair(adj, an) is None and all(
            got == want for got, want in zip(_sliced_model(adj), reference)
        ):
            members.append(Mag._of_table(m.nodes, m._index, adj, (tuple(parents), none), none))
    return tuple(members)


def pag_of_class(members: Sequence[Mag]) -> Pag:
    """The PAG of a class: the marks that every member shares, circles
    elsewhere, the visible flags settled by :class:`.graphs.Pag`.

    The marks are read off the members' arrowhead masks: the AND over the
    members holds the invariant arrowheads, the OR every arrowhead some
    member has, so an end outside the OR is an invariant tail and one in
    the OR and not the AND a circle.  The out masks combine the same way,
    so a tail that every member has at u, facing an arrowhead that every
    member has at v, makes u a parent of v.  The members must share the
    node tuple and the neighbour masks.
    """
    if not members:
        raise ValueError("empty equivalence class")
    first = members[0]
    tables = [adjacency_masks(g) for g in members]
    nbr = [mask for mask, _, _ in tables[0]]
    for other, adj in zip(members[1:], tables[1:]):
        if other.nodes != first.nodes or [mask for mask, _, _ in adj] != nbr:
            raise ValueError("equivalence class members disagree on the skeleton")
    head_all, head_any = list(nbr), [0] * len(nbr)
    out_all, out_any = list(nbr), [0] * len(nbr)
    for adj in tables:
        for i, (_, head, out) in enumerate(adj):
            head_all[i] &= head
            head_any[i] |= head
            out_all[i] &= out
            out_any[i] |= out
    parents = tuple(always & ~sometimes for always, sometimes in zip(head_all, out_any))
    circles = tuple(some & ~every for some, every in zip(head_any, head_all))
    none = (0,) * len(nbr)
    pag = Pag._of_table(first.nodes, first._index, tuple(zip(nbr, head_all, out_all)), (parents, circles), none)
    pag._settle(False)
    return pag


def class_of_dag(d: LatentDag) -> tuple[tuple[Mag, ...], Pag]:
    """Equivalence class and PAG of the projection of ``d``."""
    members = equivalence_class(mag_of_dag(d))
    return members, pag_of_class(members)


def random_latent_dag(
    seed: int | np.random.Generator,
    n_obs: int,
    n_latent: int,
    edge_prob: float,
) -> LatentDag:
    """Seed-deterministic random DAG in canonical semi-Markovian form: its
    directed and ``<->`` edges go through :meth:`.graphs.LatentDag.from_edges`,
    which makes each arc a latent root ``U<n>``."""
    if not 1 <= n_obs <= 6:
        raise ValueError("n_obs must be between 1 and 6")
    if not 0 <= n_latent <= 3:
        raise ValueError("n_latent must be between 0 and 3")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    observed = tuple(f"V{i + 1}" for i in range(n_obs))
    edges = [
        (observed[i], observed[j], TAIL, ARROW, False)
        for i in range(n_obs)
        for j in range(i + 1, n_obs)
        if rng.random() < edge_prob
    ]
    pairs = list(itertools.combinations(observed, 2))
    if pairs and n_latent:
        chosen = rng.choice(len(pairs), size=min(n_latent, len(pairs)), replace=False)
        for pick in sorted(int(i) for i in chosen):
            edges.append((*pairs[pick], ARROW, ARROW, False))
    return LatentDag.from_edges(observed, edges)


def random_scm(seed: int | np.random.Generator, d: LatentDag, card: int = 2, size: int | None = None) -> Scm:
    """Random CPTs with Dirichlet(1, ..., 1) rows, floored away from zero:
    one model, or with ``size=k`` a batch of k models (see :class:`Scm`).

    One ``rng.dirichlet`` call draws the rows of every CPT of every model,
    model after model, node after node in ``d.nodes`` order.  numpy draws
    the rows of one call in sequence, so the CPTs and the generator state
    afterwards are those of one call per node and model in that order; the
    floor and the normalisation act row by row.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    cards = {v: card for v in d.nodes}
    shapes = [tuple(cards[p] for p in d.parents(v)) + (card,) for v in d.nodes]
    sizes = [math.prod(shape[:-1]) for shape in shapes]
    lead = () if size is None else (size,)
    rows = rng.dirichlet(np.ones(card), size=math.prod(lead) * sum(sizes))
    rows = np.clip(rows, CPT_FLOOR, None)
    rows = rows / rows.sum(axis=-1, keepdims=True)
    rows = rows.reshape(*lead, sum(sizes), card)
    cpts, start = {}, 0
    for v, shape, n in zip(d.nodes, shapes, sizes):
        # a batch's slice strides over the models: copied, so that every CPT
        # is C-ordered for the batched row check
        cpts[v] = np.ascontiguousarray(rows[..., start:start + n, :].reshape(*lead, *shape))
        start += n
    return Scm(d, cards, cpts, size)
