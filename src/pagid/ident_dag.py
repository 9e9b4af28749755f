"""Identification of interventional distributions given a latent-variable DAG,
and the identification driver it shares with the PAG recursion.

Shared (:func:`identify`, behind both :func:`id_dag` and
:func:`.ident_pag.idp`): the input checks, pruning to the ancestors of the
outcome once the treatment is cut, the split into components, reducing Q to
each component by repeated removals from a start inside A, the observed
(possible) ancestors of the outcome, marginalising the pruned set outside
the outcome, and the cleanup by :func:`simplify` and
independence-certified conditioning drops and marginal joins.  Every
removal ends in the one rewrite :func:`.exprs.reduced_q`,
Q[t \\ x] = q / Q[S] * sum_x Q[S], given the S and the order that the
step's own removability test derived; the public :func:`q_reduce` and
:func:`.ident_pag.q_reduce_bucket` derive and check them again for direct
callers.

Specific to latent DAGs: ancestors along directed paths, c-components
(shared-latent connectivity), d-separation as the certificate, a start at
Q[S], S the component's c-component of G[A], read off P(A) in closed form
by :func:`.exprs.q_of_joint`, and removal of single nodes that are not
confounded with any of their children, scanned in reverse topological
order.  Such a node has no descendant in its c-component, so it is the
descendant set that :func:`q_reduce` checks for.
Nothing reads a subgraph: D is the set of observed ancestors of the outcome
along directed paths that avoid the treatment, and the components and the
steps read a scope t off the input DAG: the latents
with both children in t join G[t]'s c-components, and the DAG's order
restricted to t is topological in G[t], as each edge of G[t] is the DAG's;
the Q-decomposition takes any topological order (Tian & Pearl, AAAI 2002).
Non-identifiability is reported as a value carrying the offending node and
its confounded component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .exprs import (
    Expr,
    Product,
    SumOver,
    drop_certified_givens,
    join_certified_marginals,
    q_of_joint,
    reduced_q,
    simplify,
)
from .graphs import LatentDag, _blocks, _close, adjacency_masks, bits, mark_masks, mask_of, names_of
from .separation import d_separated


@dataclass(frozen=True)
class Fail:
    """Non-identifiability certificate: ``node`` shares its confounded
    component with one of its children inside the ``scope`` subgraph."""

    node: str
    component: tuple[str, ...]
    scope: tuple[str, ...]
    target: tuple[str, ...]

    def describe(self) -> str:
        comp = ",".join(self.component)
        return (
            f"Q[{','.join(self.target)}] is not computable from Q[{','.join(self.scope)}]: "
            f"node {self.node} shares the confounded component {{{comp}}} with a child"
        )


def c_components(d: LatentDag) -> tuple[tuple[str, ...], ...]:
    """Partition of the observed nodes by shared-latent connectivity."""
    return tuple(names_of(d.nodes, b) for b in _blocks(_confounded(d), (1 << len(d.observed)) - 1))


def _confounded(d: LatentDag) -> list[int]:
    """Per node index: the observed nodes that share a latent parent with it."""
    steps = [0] * len(d.nodes)
    for _, _, kids in adjacency_masks(d)[len(d.observed):]:
        for c in bits(kids):
            steps[c] |= kids
    return steps


def q_reduce(d: LatentDag, t: Iterable[str], x: Iterable[str], q: Expr) -> Expr:
    """Reduce Q[t] to Q[t \\ x] when ``x`` is a descendant set inside its
    composite confounded component S, that is when no node of ``x`` has a
    child in S outside ``x``: :func:`.exprs.reduced_q` over the scope's
    order, after checking that condition.
    """
    t, x = tuple(t), tuple(x)
    t_set, x_set = set(t), set(x)
    if not x_set or not x_set < t_set:
        raise ValueError("x must be a nonempty strict subset of t")
    comp_of, topo = _scope(d, t_set)
    s_union = set().union(*(comp_of[v] for v in x))
    adj, x_mask = adjacency_masks(d), mask_of(d, x)
    children = 0
    for v in bits(x_mask):
        children |= adj[v][2]
    escaped = names_of(d.nodes, children & mask_of(d, s_union) & ~x_mask)
    if escaped:
        raise ValueError(
            f"{sorted(x_set)} is not a descendant set in its component: "
            f"descendants {sorted(escaped)} escape"
        )
    return reduced_q(q, [(v,) for v in topo], s_union, x, t)


def _scope(d: LatentDag, t_set: set[str]) -> tuple[dict[str, tuple[str, ...]], list[str]]:
    """Each node's c-component in G[t], and G[t]'s order (see the module)."""
    comps = (names_of(d.nodes, b) for b in _blocks(_confounded(d), mask_of(d, t_set)))
    comp_of = {v: comp for comp in comps for v in comp}
    return comp_of, [v for v in d.topological_order() if v in t_set]


def identify(g, observed, x, y, *, prune, components, start, separated, remove, choice_seed):
    """Effect of ``x`` on ``y`` in ``g``, whose observed nodes are
    ``observed``, or the failure value of the first removal that gets stuck.

    The caller supplies its graph's parts, looked up at each call:
    ``prune(ys, avoid)`` gives the observed (possible) ancestors of ``ys``
    in ``g`` along paths that avoid the set ``avoid``, which is empty or
    ``x``; ``components(big_d)`` partitions the list ``big_d`` into the
    components of the subgraph over it; ``start(a, comps)`` gives, for
    each component, the scope t (a list in ``observed`` order) its removals
    start from and Q[t], given A as the list ``a``; ``separated(g, a, b, z)``
    certifies the cleanup rewrites; ``remove(t, c_set, q, rng)`` takes one
    step from Q[t], held in ``q``, towards Q[c_set], over the components and
    a (partial) topological order of G[t], and returns ``(removed, reduced
    q)`` or a failure value.

    The components are those of G[D], D the ancestors of ``y`` in G without
    ``x``.  Every component's removals start inside A = ``prune(y, {})``,
    the ancestors of ``y`` in G, not at Q[V] (line 2 of ID; Tian & Pearl,
    AAAI 2002; with possible ancestors, Jaber, Zhang & Bareinboim, UAI
    2018): :func:`id_dag` starts each at Q[S], S its c-component of G[A],
    and :func:`.ident_pag.idp` at Q[C], C its composite pc-component of
    P_A.  As y <= D <= An(y), A is also the ancestral closure of D, so every
    component lies inside it.  Why Q[A] = P(A), and why the removals from A
    stay valid:

    - latent DAG: A with its latent ancestors is an ancestral set, and
      the observed margin of an ancestral set is Q of it, so Q[A] = P(A);
    - PAG: a set closed under possible ancestors is ancestral in every DAG
      of the class.  No bucket straddles A, as an ``o-o`` neighbour of a
      node in A is its possible ancestor, so the buckets inside A are the
      same in P_t and in P_{t & A}.  Both removal tests (the possible
      children and the pc-component) can only shrink in an induced
      subgraph, so any removal sequence from V, restricted to A, is a
      valid sequence from A.

    Why :func:`id_dag` may start at Q[S] instead: a component of G[D] lies
    inside one c-component S of G[A], as D <= A.  S stays a c-component of
    G[t] for every t between S and A, so the topologically last node of
    t \\ S, whose children in G[t] all lie in S, is removable, and the
    removals from A can reach S, where Q[S] is the product of P(v | the
    nodes of A before v) over S (Tian & Pearl, AAAI 2002, Lemma 2).

    Why :func:`.ident_pag.idp` may start at Q[C]: two nodes in one
    c-component of any DAG of the class, restricted to A, lie in one
    pc-component of P_A, so C, a component's block of ``cpc_components``
    of P_A (a component of P_D lies in one, as D <= A), is a union of
    c-components of every DAG of the class, and Q[C] is the product of
    P(B | the buckets before B) over the buckets B inside C of a partial
    order of P_A.  The removals from A reach C: for any t between C and A,
    every possible child of the last bucket of t \\ C in P_t's order lies in
    that bucket or in C, and its pc-component lies in its own cpc block of
    P_A, since cpc blocks only split in induced subgraphs, which keep their
    parent's visibility flags; so that bucket is removable.

    In both, removability only grows as the scope shrinks, so every order of
    removals gets stuck at the same scope, and the verdict and the failure
    value of the default scan stay the same.
    """
    x_set, y_set = set(x), set(y)
    obs = set(observed)
    if not x_set or not y_set or x_set & y_set:
        raise ValueError("treatment and outcome must be nonempty and disjoint")
    if not x_set <= obs or not y_set <= obs:
        raise ValueError("treatment/outcome outside the observed graph nodes")
    rng = np.random.default_rng(choice_seed) if choice_seed is not None else None

    ys = g.sort_nodes(y_set)
    a_set = set(prune(ys, set()))
    ancestors = [v for v in observed if v in a_set]
    big_d = prune(ys, x_set)
    comps = components(big_d)
    parts: list[Expr] = []
    for comp, (t, q) in zip(comps, start(ancestors, comps)):
        c_set = set(comp)
        while set(t) != c_set:
            step = remove(t, c_set, q, rng)
            if not isinstance(step, tuple):
                return step
            removed, q = step
            t = [v for v in t if v not in removed]
        parts.append(q)
    expr = parts[0] if len(parts) == 1 else Product(tuple(parts))
    leftover = set(big_d) - y_set
    if leftover:
        expr = SumOver(tuple(leftover), expr)
    expr = simplify(expr)
    eligible = set(expr.free_vars()) - x_set - y_set
    expr = drop_certified_givens(
        expr, lambda target, var, rest: separated(g, target, [var], rest), eligible
    )
    return join_certified_marginals(expr, lambda a, b: separated(g, a, b, ()))


def id_dag(
    x: Iterable[str], y: Iterable[str], d: LatentDag, *, choice_seed: int | None = None
) -> Expr | Fail:
    """Expression for the effect of ``x`` on ``y``, or a :class:`Fail` value.

    ``choice_seed`` shuffles the scan order over removal candidates; the
    default is a reverse-topological scan.  Any valid choice is sound and the
    verdict does not depend on it.
    """
    return identify(
        d, d.observed, x, y,
        prune=lambda ys, avoid: _observed_ancestors(d, ys, avoid),
        components=lambda big_d: tuple(dict.fromkeys(_scope(d, set(big_d))[0].values())),
        start=lambda a, comps: _c_component_starts(d, a, comps),
        separated=d_separated,
        remove=lambda t, c_set, q, rng: _remove_node(d, t, c_set, q, rng),
        choice_seed=choice_seed,
    )


def _observed_ancestors(d: LatentDag, ys: Iterable[str], avoid: Iterable[str] = ()) -> tuple[str, ...]:
    """Observed ancestors of ``ys`` along directed paths that avoid
    ``avoid``: those of G without ``avoid``, with no subgraph built."""
    reached = _close(mark_masks(d)[0], mask_of(d, ys), ~mask_of(d, avoid))
    return names_of(d.nodes, reached & ((1 << len(d.observed)) - 1))


def _c_component_starts(d: LatentDag, a: list[str], comps) -> list[tuple[list[str], Expr]]:
    """Each component starts at Q[S], S its c-component of G[A]."""
    comp_of, topo = _scope(d, set(a))
    s_sets = [set(comp_of[comp[0]]) for comp in comps]
    return [([v for v in a if v in s], q_of_joint(topo, s)) for s in s_sets]


def _remove_node(d: LatentDag, t: list[str], c_set: set[str], q: Expr, rng):
    """Remove the first node of ``t \\ c_set`` in the scan order that shares
    its c-component with none of its children."""
    comp_of, topo = _scope(d, set(t))
    scan = [v for v in reversed(topo) if v not in c_set]
    if rng is not None:
        scan = [scan[i] for i in rng.permutation(len(scan))]
    adj = adjacency_masks(d)
    for b in scan:
        if not mask_of(d, comp_of[b]) & adj[d._index[b]][2]:
            return (b,), reduced_q(q, [(v,) for v in topo], set(comp_of[b]), (b,), tuple(t))
    b = scan[0]
    return Fail(node=b, component=comp_of[b], scope=tuple(t), target=d.sort_nodes(c_set))
