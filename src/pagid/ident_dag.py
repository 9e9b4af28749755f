"""Identification of interventional distributions given a latent-variable DAG,
and the identification driver it shares with the PAG recursion.

Shared (:func:`identify`, behind both :func:`id_dag` and
:func:`.ident_pag.idp`), on node masks of the graph's one table: the input
checks; A, the observed (possible) ancestors of the outcome, and D, those
along paths that avoid the treatment; the split of D into components; each
component's start at Q of the block of A that holds it, read off P(A) in
closed form by :func:`.exprs.q_of_joint`; the repeated removals from that
start; marginalising D outside the outcome; and the cleanup by
:func:`simplify` and independence-certified conditioning drops and marginal
joins.  Every removal ends in the one rewrite :func:`.exprs.reduced_q`,
Q[t \\ x] = q / Q[S] * sum_x Q[S], given the S and the order that the
step's own removability test derived; the public :func:`q_reduce` and
:func:`.ident_pag.q_reduce_bucket` derive and check them again for direct
callers.

Specific to latent DAGs: the blocks are c-components (shared-latent
connectivity) and single nodes in the DAG's topological order,
d-separation is the certificate, and a step removes a single node that is
not confounded with any of its children, scanned in reverse topological
order.  Such a node has no descendant in its c-component, so it is the
descendant set that :func:`q_reduce` checks for.  Nothing reads a
subgraph: a node's parents are its neighbours without its children, so
the possible ancestors on the DAG's table are its ancestors, and the
components and the steps read a scope t off the input DAG: the latents
with both children in t join G[t]'s c-components, and the DAG's order
restricted to t is topological in G[t], as each edge of G[t] is the DAG's;
the Q-decomposition takes any topological order (Tian & Pearl, AAAI 2002).
A query reads the latent pairs once, as :func:`.graphs._confounded` rows:
the components close over them, and each step closes a candidate's
c-component in G[t] over them inside t.  Non-identifiability is reported
as a value carrying the offending node and its confounded component.
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
from .graphs import LatentDag, _blocks, _close, _confounded, _possible_ancestors, adjacency_masks, bits, mask_of, names_of
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


def identify(g, observed, x, y, *, components, order, separated, remove, choice_seed):
    """Effect of ``x`` on ``y`` in ``g``, whose observed nodes are
    ``observed``, or the failure value of the first removal that gets stuck.

    The driver reads A, the observed (possible) ancestors of ``y``, and D,
    those along paths that avoid ``x``, off ``g``'s mask table with
    :func:`.graphs._possible_ancestors`; on a :class:`LatentDag` a node's
    neighbours without its children are its parents, so there they are
    the ancestors along directed paths.  The caller supplies its graph's
    parts, each on node masks: ``components(within)`` splits a mask into
    the components of the subgraph over it, and ``order(within)`` lists
    that subgraph's blocks (nodes or buckets) in a (partial) topological
    order; ``separated(g, a, b, z)`` certifies the cleanup rewrites, and
    each distinct (a, b, z) is asked once per query, its answer kept in a
    dict that lives only as long as the query; and
    ``remove(t, c_set, q, rng)`` takes one step from Q[t], held in ``q``,
    towards Q[c_set], over the components and a (partial) topological
    order of G[t], and returns ``(removed, reduced q)`` or a failure value.
    Each component of D starts at Q[t], t the block of ``components(A)``
    that meets it, read off P(A) along ``order(A)`` by
    :func:`.exprs.q_of_joint`.

    The components are those of G[D], D the ancestors of ``y`` in G without
    ``x``.  Every component's removals start inside A, the ancestors of
    ``y`` in G, not at Q[V] (line 2 of ID; Tian & Pearl, AAAI 2002; with
    possible ancestors, Jaber, Zhang & Bareinboim, UAI 2018):
    :func:`id_dag` starts each at Q[S], S its c-component of G[A], and
    :func:`.ident_pag.idp` at Q[C], C its composite pc-component of P_A.
    As y <= D <= An(y), A is also the ancestral closure of D, so every
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

    nodes, kept, y_mask = g.nodes, mask_of(g, obs), mask_of(g, y_set)
    a = _possible_ancestors(g, y_mask, -1) & kept
    d = _possible_ancestors(g, y_mask, ~mask_of(g, x_set)) & kept
    comps = components(d)
    blocks = comps if d == a else components(a)  # with no x in A, D = A
    joint_order = [v for b in order(a) for v in names_of(nodes, b)]
    parts: list[Expr] = []
    for comp in comps:
        t = list(names_of(nodes, next(b for b in blocks if b & comp)))
        q, c_set = q_of_joint(joint_order, set(t)), set(names_of(nodes, comp))
        while set(t) != c_set:
            step = remove(t, c_set, q, rng)
            if not isinstance(step, tuple):
                return step
            removed, q = step
            t = [v for v in t if v not in removed]
        parts.append(q)
    expr = parts[0] if len(parts) == 1 else Product(tuple(parts))
    if d & ~y_mask:
        expr = SumOver(names_of(nodes, d & ~y_mask), expr)
    expr = simplify(expr)
    eligible = set(expr.free_vars()) - x_set - y_set
    answers: dict[tuple, bool] = {}  # this query's certificates

    def certified(a: tuple[str, ...], b: tuple[str, ...], z: tuple[str, ...]) -> bool:
        key = (a, b, z)
        if key not in answers:
            answers[key] = separated(g, a, b, z)
        return answers[key]

    expr = drop_certified_givens(expr, lambda target, var, rest: certified(target, (var,), rest), eligible)
    return join_certified_marginals(expr, lambda a, b: certified(a, b, ()))


def id_dag(
    x: Iterable[str], y: Iterable[str], d: LatentDag, *, choice_seed: int | None = None
) -> Expr | Fail:
    """Expression for the effect of ``x`` on ``y``, or a :class:`Fail` value.

    ``choice_seed`` shuffles the scan order over removal candidates; the
    default is a reverse-topological scan.  Any valid choice is sound and the
    verdict does not depend on it.
    """
    confounded = _confounded(d)
    return identify(
        d, d.observed, x, y,
        components=lambda within: _blocks(confounded, within),
        order=lambda within: [b for b in (1 << d._index[v] for v in d.topological_order()) if b & within],
        separated=d_separated,
        remove=lambda t, c_set, q, rng: _remove_node(d, t, c_set, q, rng, confounded),
        choice_seed=choice_seed,
    )


def _remove_node(d: LatentDag, t: list[str], c_set: set[str], q: Expr, rng, confounded: list[int]):
    """Remove the first node of ``t \\ c_set`` in the scan order that shares
    its c-component with none of its children.  A candidate's c-component
    in G[t] is its closure inside ``t`` over the query's ``confounded``
    rows (:func:`.graphs._confounded`), read only for the candidates the
    scan tests."""
    scope, index = mask_of(d, t), d._index
    topo = [v for v in d.topological_order() if scope >> index[v] & 1]
    scan = [v for v in reversed(topo) if v not in c_set]
    if rng is not None:
        scan = [scan[i] for i in rng.permutation(len(scan))]
    adj = adjacency_masks(d)
    for b in scan:
        comp = _close(confounded, 1 << index[b], scope)
        if not comp & adj[index[b]][2]:
            return (b,), reduced_q(q, [(v,) for v in topo], set(names_of(d.nodes, comp)), (b,), tuple(t))
    b = scan[0]
    comp = names_of(d.nodes, _close(confounded, 1 << index[b], scope))
    return Fail(node=b, component=comp, scope=tuple(t), target=d.sort_nodes(c_set))
