"""Ground-truth machinery for verification.

Provides discrete structural models with exact joints and truncated
(interventional) distributions, the canonical DAG of a MAG, brute-force
Markov equivalence class enumeration by separation-model comparison, and
seeded random generators.  Everything here is deliberately exhaustive; the
size guards keep it at desk scale.  Latent DAGs are built by
:meth:`.graphs.LatentDag.from_edges` from marked edges.

The class enumeration tests each candidate on node masks and builds only
its members, each once, as a :class:`.graphs.Mag`.  A candidate's
separation model is read with one :func:`.graphs.sliced_walk` per source
i, run under all 2**n conditioning sets at once: bit z of node w's
collider mask is set iff w lies in z, and of its non-collider mask iff it
does not (:func:`_slices`).  The kernel's slices are separate walks (see
its docstring), so slice z is the walk that opens the colliders in z and
the non-colliders outside it; opening the colliders in An(z) instead
reaches no more on walks (see :mod:`.separation`).  Node y is
m-separated from i by z iff the walk under z never enters y.  The cost is
one fixpoint over 2**n-bit integers per source instead of 2**n walks.
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
    CIRCLE,
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
    """Directed edges kept; every bidirected edge becomes a fresh latent root
    ``U<n>``, named by :meth:`.graphs.LatentDag.from_edges`."""
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
