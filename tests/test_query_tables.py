"""The removal steps of one query read tables built once for that query.

``idp`` builds one ``structure._ScopeRows`` per query and ``id_dag`` one
``ident_dag._DagRows``, and every call of the one removal step reads its
scope's blocks, early and late partial orders, blocking witnesses and
components off it.  Over every scope that the queries visit, on the catalog
and on 300 ``verify._sample_graph`` draws, each PAG step is held against
the scope's induced subgraph, read by name: its ``pto``, the order of
``test_scopes.order_by_names`` that postpones each bucket, its
``dc_component`` and the blocking witness of
``test_scopes.blocking_child_by_names``; and each DAG step, its one
``reduced_q`` call and each ``id_dag`` failure against
``reference_ident.scope_by_names``.  The queries also run through
``reference_ident``, whose Q[V] start takes many more steps with one table
each.  About 5 s of tier-1 time on a 2-core x86 host.
"""

import numpy as np
import pytest

import reference_ident
from pagid import catalog, ident_dag, ident_pag
from pagid.graphs import induced_subgraph, names_of
from pagid.oracle import equivalence_class, pag_of_class
from pagid.structure import dc_component, pto
from pagid.verify import _sample_graph, _sample_query
from reference_ident import scope_by_names
from test_removal_steps import _queries
from test_scopes import _names, blocking_child_by_names, order_by_names


@pytest.fixture
def checked_tables(monkeypatch, remembered_graphs):
    """Spy on the one removal step; check each step's tables against the
    scope's induced subgraph and count the scopes checked, and check each
    ``id_dag`` failure's component on names."""
    checked = {"bucket": 0, "node": 0, "failed": 0}
    remove_bucket, reduced_q = ident_dag._remove_bucket, ident_dag.reduced_q
    reductions = []

    def bucket_step(rows, scope, target, q, rng):
        p = rows.graph
        sub = induced_subgraph(p, names_of(p.nodes, scope))
        order = rows.order(scope)
        assert _names(p, order) == pto(sub).buckets
        for b in order:
            bucket = names_of(p.nodes, b)
            assert _names(p, rows.order(scope, b)) == order_by_names(sub, bucket)
            assert names_of(p.nodes, rows.dc(b, scope)) == dc_component(sub, bucket)
            assert ident_dag._blocking_child(rows, b, scope) == blocking_child_by_names(sub, bucket)
        checked["bucket"] += 1
        return remove_bucket(rows, scope, target, q, rng)

    def reduce(q, blocks, s_union, x, t):
        reductions.append((blocks, s_union, x, t))
        return reduced_q(q, blocks, s_union, x, t)

    def node_step(rows, scope, target, q, rng):
        del reductions[:]
        d, t, c_set = rows.graph, names_of(rows.nodes, scope), set(names_of(rows.nodes, target))
        pick, reduced = remove_bucket(rows, scope, target, q, rng)
        comp_of, topo = scope_by_names(d, t)
        scan = [v for v in reversed(topo) if v not in c_set]
        if not pick:
            node, child = reduced
            assert node in scan and child in set(comp_of[node]) & set(d.children(node))
            assert rng is not None or node == scan[0]
        else:
            (b,) = names_of(rows.nodes, pick)
            assert not set(comp_of[b]) & set(d.children(b))
            assert reductions == [([(v,) for v in topo], set(comp_of[b]), (b,), t)]
            if rng is None:
                assert b == next(v for v in scan if not set(comp_of[v]) & set(d.children(v)))
        checked["node"] += 1
        return pick, reduced

    def step(rows, *args):
        return (node_step if isinstance(rows, ident_dag._DagRows) else bucket_step)(rows, *args)

    def failures_named(answer):
        def run(*args, **kwargs):
            result = answer(*args, **kwargs)
            if isinstance(result, ident_dag.Fail):
                assert result.component == scope_by_names(args[2], result.scope)[0][result.node]
                checked["failed"] += 1
            return result
        return run

    monkeypatch.setattr(ident_dag, "_remove_bucket", step)
    monkeypatch.setattr(ident_dag, "reduced_q", reduce)
    monkeypatch.setattr(ident_dag, "id_dag", failures_named(ident_dag.id_dag))
    monkeypatch.setattr(reference_ident, "id_dag", failures_named(reference_ident.id_dag))
    return checked


def test_catalog_steps_read_the_scope_kernels(checked_tables):
    for pag in (catalog.confounded_chain_pag(), catalog.two_treatment_pag(),
                catalog.beyond_adjustment_pag(), catalog.circle_pair_pag()):
        for query in _queries(pag.nodes):
            for seed in (None, 3):
                ident_pag.idp(*query, pag, choice_seed=seed)
                if len(query[1]) != 2:
                    reference_ident.idp(*query, pag, choice_seed=seed)
    for dag in (catalog.confounded_chain_dag(), catalog.confounded_chain_dag_alt(), catalog.bow_dag()):
        for query in _queries(dag.observed):
            for seed in (None, 3):
                ident_dag.id_dag(*query, dag, choice_seed=seed)
                reference_ident.id_dag(*query, dag, choice_seed=seed)
    # 2,252 bucket steps and 1,486 node steps
    assert checked_tables["bucket"] > 1000 and checked_tables["node"] > 500 and checked_tables["failed"] > 0


def test_sampled_steps_read_the_scope_kernels(checked_tables):
    rng = np.random.default_rng(34)
    for _ in range(300):
        d, m = _sample_graph(rng)
        pag = pag_of_class(equivalence_class(m))
        for _ in range(3):
            query = _sample_query(rng, list(pag.nodes))
            if query is not None:
                for seed in (None, int(rng.integers(1000))):
                    ident_pag.idp(*query, pag, choice_seed=seed)
                    reference_ident.idp(*query, pag, choice_seed=seed)
                    ident_dag.id_dag(*query, d, choice_seed=seed)
                    reference_ident.id_dag(*query, d, choice_seed=seed)
    # 4,932 bucket steps and 8,340 node steps
    assert checked_tables["bucket"] > 3000 and checked_tables["node"] > 5000 and checked_tables["failed"] > 0
