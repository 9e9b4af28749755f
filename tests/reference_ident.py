"""Reference identification that starts every component at Q[V].

``ident_dag.identify`` starts each component's reduction inside A, the
observed (possible) ancestors of the outcome, at the closed-form Q of the
component's c-component of G[A] (``id_dag``) or composite pc-component of
P_A (``idp``).  This module keeps the version that starts at the whole
observed distribution P(V) and removes every node or bucket outside the
component one step at a time, with the production's one removal step and
cleanup, so that the differential tests can compare the verdicts, the
failure values and the values of the answers of the two.  Its DAG prune,
:func:`_observed_ancestors`, reads ancestors on node names, and
:func:`c_components` reads c-components on them; the tests hold the
driver's mask closure and the DAG's row table against them.
"""

from __future__ import annotations

import numpy as np

from pagid import ident_dag, ident_pag
from pagid.exprs import DistRef, Product, SumOver, drop_certified_givens, join_certified_marginals, simplify
from pagid.graphs import _close, induced_subgraph, mark_masks, mask_of, names_of, possible_ancestors
from pagid.separation import d_separated, definitely_m_separated
from pagid.structure import _ScopeRows, cpc_components
from reference_paths import partition


def identify(g, observed, x, y, *, prune, components, rows, separated, fail, choice_seed):
    """``ident_dag.identify`` with every component started at Q[V] = P(V),
    each removal taken by the one step ``ident_dag._remove_bucket`` on
    ``rows``."""
    x, y = tuple(x), tuple(y)
    x_set, y_set = set(x), set(y)
    obs = set(observed)
    if not x_set or not y_set or x_set & y_set:
        raise ValueError("treatment and outcome must be nonempty and disjoint")
    if not x_set <= obs or not y_set <= obs:
        raise ValueError("treatment/outcome outside the observed graph nodes")
    rng = np.random.default_rng(choice_seed) if choice_seed is not None else None

    big_d = prune(induced_subgraph(g, g.sort_nodes(obs - x_set)), g.sort_nodes(y_set))
    q0 = DistRef(tuple(observed))
    parts = []
    for comp in components(induced_subgraph(g, big_d)):
        target, t, q = mask_of(g, comp), mask_of(g, observed), q0
        while t != target:
            pick, q = ident_dag._remove_bucket(rows, t, target, q, rng)
            if not pick:
                return fail(names_of(g.nodes, t), comp, q)
            t &= ~pick
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


def idp(x, y, p, *, choice_seed=None):
    """``ident_pag.idp`` through the reference :func:`identify`, its steps
    reading one ``_ScopeRows`` of ``p``."""
    return identify(
        p, p.nodes, x, y, prune=possible_ancestors, components=cpc_components, rows=_ScopeRows(p),
        separated=definitely_m_separated, fail=ident_pag.Fail, choice_seed=choice_seed,
    )


def id_dag(x, y, d, *, choice_seed=None):
    """``ident_dag.id_dag`` through the reference :func:`identify`, its
    steps reading one ``_DagRows`` of ``d``, with the components and the
    failure's c-component read on names."""
    def fail(t, c, witness):
        comp = next(b for b in c_components(induced_subgraph(d, t)) if witness[0] in b)
        return ident_dag.Fail(node=witness[0], component=comp, scope=t, target=c)

    return identify(
        d, d.observed, x, y, prune=_observed_ancestors, components=c_components, rows=ident_dag._DagRows(d),
        separated=d_separated, fail=fail, choice_seed=choice_seed,
    )


def c_components(d):
    """The c-components of a latent DAG on names: its observed nodes, joined
    through the children of each latent; members in node order, blocks by
    first member."""
    return partition(d.observed, (d.children(u) for u in d.latent))


def scope_by_names(d, t):
    """Each node's c-component in G[t], read on names, and the DAG's
    topological order restricted to ``t``, which is topological in G[t]."""
    comp_of = {v: comp for comp in c_components(induced_subgraph(d, t)) for v in comp}
    return comp_of, [v for v in d.topological_order() if v in comp_of]


def _observed_ancestors(d, ys, avoid=()):
    """Observed ancestors of ``ys`` along directed paths that avoid
    ``avoid``: those of G without ``avoid``, with no subgraph built."""
    reached = _close(mark_masks(d)[0], mask_of(d, ys), ~mask_of(d, avoid))
    return names_of(d.nodes, reached & ((1 << len(d.observed)) - 1))
