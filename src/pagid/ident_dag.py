"""Identification of interventional distributions given a latent-variable DAG,
and the identification driver and removal step it shares with the PAG
recursion.

Shared (:func:`identify`, behind both :func:`id_dag` and
:func:`.ident_pag.idp`), on node masks of the graph's one table: the input
checks; A, the observed (possible) ancestors of the outcome, and D, those
along paths that avoid the treatment; the split of D into components; the
starts, read off P(A) in closed form by :func:`.exprs.q_of_joint`: one
factor chain over the union of the components that are whole blocks of A
and take no removal step, and Q of its block of A for every other
component; the repeated removals from a start; marginalising D outside the
outcome; and the cleanup by :func:`simplify` and independence-certified
conditioning drops and marginal joins.  The caller gives a row table of
its graph, its certificate and the builder of its failure value.  A row
table has the ``nodes``, the
``children`` rows and the methods of :class:`.structure._ScopeRows` that
the driver and the step read, each on a ``within`` node mask: ``order``,
the blocks (nodes or buckets) in a (partial) topological order, ``cpc``,
the components, and ``pc`` and ``dc``, the component of a seed that blocks
its removal and the one its removal rewrites.  There is one removal step,
:func:`_remove_bucket`: it removes the first block outside the target, in a
reverse scan of the order, of which no member has a child in the scope and
in its own ``pc`` component, and ends in the one rewrite
:func:`.exprs.reduced_q`, Q[t \\ x] = q / Q[S] * sum_x Q[S], S the block's
``dc`` component, along the order; the public :func:`q_reduce` and
:func:`.ident_pag.q_reduce_bucket` derive and check them again for direct
callers.

Specific to latent DAGs (:class:`_DagRows`): a node is the one-node case of
a PAG's bucket, and its c-component the case of its pc- and dc-component,
as a DAG's c-component lies in one pc-component of its PAG (Tian & Pearl,
AAAI 2002; Jaber, Zhang & Bareinboim, UAI 2018).  So the blocks are single
nodes in the DAG's topological order, pc and dc are both the c-component
and cpc the c-components, d-separation is the certificate, and a step
removes a single node that is not confounded with any of its children.
Such a node has no descendant in its c-component, so it is the descendant
set that :func:`q_reduce` checks for.  Nothing reads a subgraph: a node's
parents are its neighbours without its children, so the possible ancestors
on the DAG's table are its ancestors, and the rows read a scope t off the
input DAG: the latents with both children in t join G[t]'s c-components,
and the DAG's order restricted to t is topological in G[t], as each edge of
G[t] is the DAG's; the Q-decomposition takes any topological order (Tian &
Pearl, AAAI 2002).  A query reads the latent pairs once, as
:func:`.graphs._confounded` rows, and every component closes over them
inside its scope.  Non-identifiability is reported as a value carrying the
first node the step found blocked and its confounded component.
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
    expr_size,
    join_certified_marginals,
    q_of_joint,
    reduced_q,
    render_text,
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


@dataclass
class TraceStep:
    """One removal: Q[scope \\ bucket] was derived from Q[scope]."""

    scope: tuple[str, ...]
    bucket: tuple[str, ...]
    reduced: Expr

    def __str__(self) -> str:
        return f"Q[{','.join(v for v in self.scope if v not in self.bucket)}] = {render_text(self.reduced)}"


class _DagRows:
    """The row table of a latent DAG, with the names of
    :class:`.structure._ScopeRows` (see the module): per node index its
    children, and the :func:`.graphs._confounded` rows, read once.  Each
    method takes a ``within`` mask of observed nodes and answers on G[within]:
    ``order`` lists its nodes as one-node masks in the DAG's topological
    order, ``pc`` and ``dc`` close a seed into its c-component, and ``cpc``
    splits it into its c-components.  ``order`` ignores ``first``: a latent
    DAG's step reduces along the one order, so it builds no late-order
    alternative.
    """

    __slots__ = ("nodes", "children", "confounded", "topo")

    def __init__(self, d: LatentDag):
        self.nodes = d.nodes
        self.children = [out for _, _, out in adjacency_masks(d)]
        self.confounded = _confounded(d)
        self.topo = [1 << d._index[v] for v in d.topological_order()]

    def order(self, within: int, first: int = 0) -> list[int]:
        return [b for b in self.topo if b & within]

    def pc(self, seed: int, within: int) -> int:
        return _close(self.confounded, seed, within)

    dc = pc

    def cpc(self, within: int) -> list[int]:
        return _blocks(self.confounded, within)


def c_components(d: LatentDag) -> tuple[tuple[str, ...], ...]:
    """Partition of the observed nodes by shared-latent connectivity."""
    return tuple(names_of(d.nodes, b) for b in _DagRows(d).cpc((1 << len(d.observed)) - 1))


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
    rows, scope, x_mask = _DagRows(d), mask_of(d, t_set), mask_of(d, x_set)
    s_mask, children = rows.dc(x_mask, scope), 0
    for v in bits(x_mask):
        children |= rows.children[v]
    escaped = names_of(d.nodes, children & s_mask & ~x_mask)
    if escaped:
        raise ValueError(
            f"{sorted(x_set)} is not a descendant set in its component: "
            f"descendants {sorted(escaped)} escape"
        )
    return reduced_q(q, [names_of(d.nodes, b) for b in rows.order(scope)], set(names_of(d.nodes, s_mask)), x, t)


def identify(g, observed, x, y, *, rows, separated, fail, choice_seed, trace=None):
    """Effect of ``x`` on ``y`` in ``g``, whose observed nodes are
    ``observed``, or the failure value of the first removal that gets stuck.

    The driver reads A, the observed (possible) ancestors of ``y``, and D,
    those along paths that avoid ``x``, off ``g``'s mask table with
    :func:`.graphs._possible_ancestors`; on a :class:`LatentDag` a node's
    neighbours without its children are its parents, so there they are
    the ancestors along directed paths.  The caller gives ``rows``, the row
    table of ``g`` (see the module): ``rows.cpc(within)`` splits a mask into
    the components of the subgraph over it, and ``rows.order(within)`` lists
    that subgraph's blocks (nodes or buckets) in a (partial) topological
    order.  ``separated(g, a, b, z)`` certifies the cleanup rewrites, and
    each distinct (a, b, z) is asked once per query, its answer kept in a
    dict that lives only as long as the query.  Every removal is one call of
    :func:`_remove_bucket` from Q[t] towards Q[c], both read off ``rows``;
    when every candidate is blocked, the query answers ``fail(t, c,
    witness)``, t and c as node names in node order and ``witness`` the
    step's first.  ``choice_seed`` seeds the generator that shuffles each
    step's candidates, and ``trace`` gets a :class:`TraceStep` per removal.
    Each component of D starts at Q[t], t the block of ``rows.cpc(A)`` that
    meets it, read off P(A) along ``rows.order(A)`` by
    :func:`.exprs.q_of_joint`.  A component that is itself such a block
    takes no removal step, so the driver ORs every such component into one
    mask U and reads Q[U] off P(A) with one ``q_of_joint`` call; only the
    other components get a start of their own and the removal loop.

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

    Why one chain over U, the union of the components that take no step, is
    sound: U is a union of c-components of G[A] (for a PAG, of blocks of
    ``cpc_components`` of P_A, each a union of c-components of every DAG of
    the class, as argued above), so by the Q-decomposition Q[U] is the
    product of the Q of its blocks, and it is the product of P(v | the
    nodes of A before v) over U (Tian & Pearl, AAAI 2002, Lemma 2; for a
    PAG, P(B | the buckets before B) over the buckets B inside U).
    :func:`.exprs.q_of_joint` merges each maximal run of U in A's order
    into one factor.  Why it is the fixed point that :func:`simplify`
    reaches from the product of the blocks' own chains: each of those is
    one factor P(R | the nodes before R) per maximal run R of its block,
    and two such factors chain-merge, P(R1 | H) * P(R2 | H u R1), exactly
    when R2 follows R1 with no node outside U between them.  Merging every
    such pair leaves one factor per maximal run of U, the chain built here.
    The untouched components take no step and cannot fail, so the failures
    and traces are those of one start per component; that the answers are
    too, once ``simplify`` has merged the chain with the stepped
    components' results, the differential tests check against that driver
    (``tests/reference_ident.py``).
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
    comps = rows.cpc(d)
    blocks = comps if d == a else rows.cpc(a)  # with no x in A, D = A
    joint_order = [v for b in rows.order(a) for v in names_of(nodes, b)]
    parts: list[Expr] = []
    untouched = 0
    for comp in comps:
        t = next(b for b in blocks if b & comp)
        if t == comp:
            untouched |= comp
            continue
        q = q_of_joint(joint_order, set(names_of(nodes, t)))
        while t != comp:
            pick, reduced = _remove_bucket(rows, t, comp, q, rng)
            if not pick:  # every candidate is blocked, and ``reduced`` is the first witness
                return fail(names_of(nodes, t), names_of(nodes, comp), reduced)
            if trace is not None:
                trace.append(TraceStep(names_of(nodes, t), names_of(nodes, pick), reduced))
            t, q = t & ~pick, reduced
        parts.append(q)
    if untouched:
        parts.insert(0, q_of_joint(joint_order, set(names_of(nodes, untouched))))
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


def _remove_bucket(rows, scope: int, target: int, q: Expr, rng) -> tuple[int, Expr | tuple[str, str] | None]:
    """The one removal step of both engines, from Q[scope], held in ``q``,
    towards Q[target], both node masks on ``rows``.

    Takes the first block of ``rows.order(scope)`` outside ``target``, in
    reverse order or, given the generator ``rng``, in its shuffle of the
    forward list, that :func:`_blocking_child` finds unblocked, and returns
    it as a mask with Q[scope without it]: the rewrite along the order, over
    the block's ``dc`` component, or, where ``rows.order(scope, block)``
    differs, the smaller of that and the rewrite along it.  Any valid
    partial order is sound.  When every candidate is blocked it returns 0
    and the first witness (None when there is no candidate)."""
    order = rows.order(scope)
    candidates = [b for b in order if not b & target]
    sequence = candidates[::-1] if rng is None else [candidates[i] for i in rng.permutation(len(candidates))]
    witness = None
    for pick in sequence:
        wit = _blocking_child(rows, pick, scope)
        if wit is None:
            break
        witness = witness or wit
    else:
        return 0, witness
    nodes = rows.nodes
    bucket, s_union, t = names_of(nodes, pick), set(names_of(nodes, rows.dc(pick, scope))), names_of(nodes, scope)
    reduced = reduced_q(q, [names_of(nodes, b) for b in order], s_union, bucket, t)
    late_order = rows.order(scope, pick)
    if late_order != order:
        alternative = reduced_q(q, [names_of(nodes, b) for b in late_order], s_union, bucket, t)
        if expr_size(alternative) < expr_size(reduced):
            reduced = alternative
    return pick, reduced


def _blocking_child(rows, bucket: int, within: int) -> tuple[str, str] | None:
    """The first (member, child) pair, in node order, that blocks removing
    ``bucket`` from the subgraph over ``within``, or None: a child outside
    the bucket in the member's ``pc`` component, read off ``rows``."""
    for u in bits(bucket):
        hit = rows.children[u] & within & ~bucket
        hit = hit and hit & rows.pc(1 << u, within)
        if hit:
            return rows.nodes[u], rows.nodes[(hit & -hit).bit_length() - 1]
    return None


def id_dag(
    x: Iterable[str], y: Iterable[str], d: LatentDag, *, choice_seed: int | None = None
) -> Expr | Fail:
    """Expression for the effect of ``x`` on ``y``, or a :class:`Fail` value.

    ``choice_seed`` seeds the shuffle of each step's candidate nodes, taken
    in topological order; the default scans them in reverse topological
    order.  :func:`.ident_pag.idp` shuffles its buckets the same way.  Any
    valid choice is sound and the verdict does not depend on it.
    """
    rows = _DagRows(d)

    def fail(t: tuple[str, ...], c: tuple[str, ...], witness: tuple[str, str]) -> Fail:
        component = names_of(d.nodes, rows.dc(mask_of(d, witness[:1]), mask_of(d, t)))
        return Fail(node=witness[0], component=component, scope=t, target=c)

    return identify(d, d.observed, x, y, rows=rows, separated=d_separated, fail=fail, choice_seed=choice_seed)
