"""Reference identification that starts every component at Q[V].

``ident_dag.identify`` starts each component's reduction inside A, the
observed (possible) ancestors of the outcome, at the closed-form Q of the
component's c-component of G[A] (``id_dag``) or composite pc-component of
P_A (``idp``).  This module keeps the version that starts at the whole
observed distribution P(V) and removes every node or bucket outside the
component one step at a time, with the production removal steps and
cleanup, so that the differential tests can compare the verdicts, the
failure values and the values of the answers of the two.  Its DAG prune,
:func:`_observed_ancestors`, reads ancestors on node names; the tests hold
the driver's mask closure against it.
"""

from __future__ import annotations

import numpy as np

from pagid import ident_dag, ident_pag
from pagid.exprs import DistRef, Product, SumOver, drop_certified_givens, join_certified_marginals, simplify
from pagid.graphs import _close, _confounded, induced_subgraph, mark_masks, mask_of, names_of, possible_ancestors
from pagid.separation import d_separated, definitely_m_separated
from pagid.structure import _ScopeRows, cpc_components


def identify(g, observed, x, y, *, prune, components, separated, remove, choice_seed):
    """``ident_dag.identify`` with every component started at Q[V] = P(V)."""
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
        c_set, t, q = set(comp), list(observed), q0
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


def idp(x, y, p, *, choice_seed=None):
    """``ident_pag.idp`` through the reference :func:`identify`, its steps
    reading one ``_ScopeRows`` of ``p``."""
    rows = _ScopeRows(p)
    return identify(
        p, p.nodes, x, y,
        prune=possible_ancestors,
        components=cpc_components,
        separated=definitely_m_separated,
        remove=lambda t, c_set, q, rng: ident_pag._remove_bucket(p, t, c_set, q, rng, None, rows),
        choice_seed=choice_seed,
    )


def id_dag(x, y, d, *, choice_seed=None):
    """``ident_dag.id_dag`` through the reference :func:`identify`, its
    steps reading one ``_confounded`` table of ``d``."""
    confounded = _confounded(d)
    return identify(
        d, d.observed, x, y,
        prune=_observed_ancestors,
        components=ident_dag.c_components,
        separated=d_separated,
        remove=lambda t, c_set, q, rng: ident_dag._remove_node(d, t, c_set, q, rng, confounded),
        choice_seed=choice_seed,
    )


def _observed_ancestors(d, ys, avoid=()):
    """Observed ancestors of ``ys`` along directed paths that avoid
    ``avoid``: those of G without ``avoid``, with no subgraph built."""
    reached = _close(mark_masks(d)[0], mask_of(d, ys), ~mask_of(d, avoid))
    return names_of(d.nodes, reached & ((1 << len(d.observed)) - 1))
