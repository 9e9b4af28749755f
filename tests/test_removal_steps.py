"""The one removal step reduces with what its own test derived, skipping the
checks and re-derivations of the public reducers.  These tests show on the
catalog and on seeded verification draws that every skipped check would have
passed, that each step's reduction is the one the checked entry points give
(``q_reduce`` on a latent DAG, ``q_reduce_bucket`` under both partial orders
on a PAG),
that every removal rewrite, closed form or not, is the simplified quotient
of ``reference_exprs``, that few of the steps' rewrites take the generic
path, and that on the worked examples only a q that is no factor chain
does.  ``id_dag`` and ``idp`` start most components at their own Q[S] and
Q[C] and take few steps, so the queries also run through
``reference_ident``, whose Q[V] start calls the same removal step
thousands of times."""

import itertools

import numpy as np
import pytest

import reference_exprs
import reference_ident
from pagid import catalog, exprs, ident_dag, ident_pag
from pagid.exprs import expr_size, render_text
from pagid.graphs import find_closure_violation, induced_subgraph, names_of
from pagid.ident_pag import bucket_identifiable, q_reduce_bucket
from pagid.oracle import canonical_dag_of_mag, equivalence_class, pag_of_class
from pagid.structure import PartialOrder, pto
from pagid.verify import _sample_graph, _sample_query
from test_scopes import order_by_names


@pytest.fixture
def checked_steps(monkeypatch, referenced_rewrites, remembered_graphs):
    """Spy on the one removal step; count the steps taken, each checked, and
    the steps' own ``reduced_q`` calls that took the generic path (not those
    of the checked reducers, nor those of ``reference_ident``, whose Q[V]
    start is no production path)."""
    taken = {"bucket": 0, "node": 0, "generic": 0}
    remove_bucket = ident_dag._remove_bucket

    def uncounted(reference):
        def run(*args, **kwargs):
            generic = taken["generic"]
            result = reference(*args, **kwargs)
            taken["generic"] = generic
            return result
        return run

    def step(rows, scope, target, q, rng):
        before = len(referenced_rewrites)
        pick, reduced = remove_bucket(rows, scope, target, q, rng)
        taken["generic"] += sum(referenced_rewrites[before:])
        if not pick:
            return pick, reduced
        g = rows.graph
        t, removed = names_of(g.nodes, scope), names_of(g.nodes, pick)
        if isinstance(rows, ident_dag._DagRows):
            assert reduced == ident_dag.q_reduce(g, t, removed, q)
            taken["node"] += 1
        else:
            p_t = induced_subgraph(g, t)
            assert bucket_identifiable(p_t, removed) == (True, None)
            assert find_closure_violation(p_t) is None
            early = q_reduce_bucket(p_t, removed, q, pto(p_t))
            late = q_reduce_bucket(p_t, removed, q, PartialOrder(order_by_names(p_t, removed)))
            assert reduced == min((early, late), key=expr_size)
            taken["bucket"] += 1
        return pick, reduced

    monkeypatch.setattr(ident_dag, "_remove_bucket", step)
    monkeypatch.setattr(reference_ident, "id_dag", uncounted(reference_ident.id_dag))
    monkeypatch.setattr(reference_ident, "idp", uncounted(reference_ident.idp))
    return taken


@pytest.fixture
def referenced_rewrites(monkeypatch):
    """Check every ``reduced_q`` call of both identification modules, the
    one removal step's and the checked reducers', against the reference
    quotient; record for each call whether it took the generic path, that
    is, reached ``exprs.conditional_of``."""
    calls, reached = [], []
    conditional_of = exprs.conditional_of

    def spy(*args, **kwargs):
        reached.append(True)
        return conditional_of(*args, **kwargs)

    def checked(q, blocks, s_union, x, t):
        reached.clear()
        e = exprs.reduced_q(q, blocks, s_union, x, t)
        calls.append(bool(reached))
        expected = reference_exprs.reduced_q(q, blocks, s_union, x, t)
        assert e == expected and e._fixed and expected._fixed
        return e

    monkeypatch.setattr(exprs, "conditional_of", spy)
    monkeypatch.setattr(ident_pag, "reduced_q", checked)
    monkeypatch.setattr(ident_dag, "reduced_q", checked)
    return calls


def _queries(nodes):
    """For each treatment node, every outcome set of one or two other nodes,
    and the whole rest."""
    queries = []
    for x in nodes:
        rest = tuple(v for v in nodes if v != x)
        for k in sorted({1, 2, len(rest)}):
            queries += [((x,), ys) for ys in itertools.combinations(rest, k)]
    return queries


def test_catalog_steps_match_the_checked_reducers(checked_steps, referenced_rewrites):
    acceptance = (("X1", "X2"), ("Y1", "Y2", "Y3"))
    for pag in (catalog.confounded_chain_pag(), catalog.two_treatment_pag(),
                catalog.beyond_adjustment_pag(), catalog.circle_pair_pag()):
        queries = _queries(pag.nodes) + [acceptance] * set(acceptance[0]).issubset(pag.nodes)
        for xs, ys in queries:
            for seed in (None, 3):
                ident_pag.idp(xs, ys, pag, choice_seed=seed)
                # the Q[V] start takes the steps the Q[C] start skips; on
                # single-node outcomes and the whole rest, within seconds
                if len(ys) != 2:
                    reference_ident.idp(xs, ys, pag, choice_seed=seed)
    for dag in (catalog.confounded_chain_dag(), catalog.confounded_chain_dag_alt(), catalog.bow_dag()):
        for xs, ys in _queries(dag.observed):
            for seed in (None, 3):
                ident_dag.id_dag(xs, ys, dag, choice_seed=seed)
                reference_ident.id_dag(xs, ys, dag, choice_seed=seed)
    # 2,064 bucket steps, 538 of them production ones (1,402 node steps, 24)
    assert checked_steps["bucket"] > 1000 and checked_steps["node"] > 500
    assert len(referenced_rewrites) >= checked_steps["bucket"] + checked_steps["node"]


def test_sampled_steps_match_the_checked_reducers(checked_steps, referenced_rewrites):
    rng = np.random.default_rng(20)
    for _ in range(60):
        d, m = _sample_graph(rng)
        pag = pag_of_class(equivalence_class(m))
        for _ in range(20):
            query = _sample_query(rng, list(pag.nodes))
            if query is None:
                continue
            seed = int(rng.integers(1000))
            for choice_seed in (None, seed):
                ident_pag.idp(*query, pag, choice_seed=choice_seed)
                for dag in (d, canonical_dag_of_mag(m)):
                    ident_dag.id_dag(*query, dag, choice_seed=choice_seed)
            # the shuffled Q[V] start takes the steps the Q[S] and Q[C]
            # starts skip
            reference_ident.idp(*query, pag, choice_seed=seed)
            reference_ident.id_dag(*query, d, choice_seed=seed)
    # 1,847 bucket steps, 48 of them production ones (5,621 node steps, 140)
    assert checked_steps["bucket"] > 500 and checked_steps["node"] > 3000
    assert len(referenced_rewrites) >= checked_steps["bucket"] + checked_steps["node"]
    # the closed form answers all but a few hundred of the production steps'
    # rewrites (14 here, 16 when seeded id_dag steps shuffled the reversed
    # scan; 58 when it took x inside one chain factor only, 103
    # when idp started every component at Q[A] as well, 244 when id_dag did
    # too, 2,175 when the closed form took one canonical factor only)
    assert checked_steps["generic"] <= 300


@pytest.mark.parametrize(
    "pag, query, reached, answer, steps",
    [
        (catalog.two_treatment_pag(), (("X1", "X2"), ("Y1", "Y2", "Y3")), 0, "P(y1,y2|x1) * P(y3|x2)", [
            "P(v1,v2,x1,x2,y1,y2)", "P(v1,v2,x1,y1,y2)", "P(v1,v2) * P(y1,y2|v1,v2,x1)",
            "P(v1) * P(y1,y2|v1,v2,x1)", "P(y1,y2|v1,v2,x1)", "P(v1,v2,x1,x2,y1,y3)", "P(v1,v2,x1,x2,y3)",
            "P(v1,v2,x2,y3)", "P(v1,v2) * P(y3|v1,v2,x2)", "P(v1) * P(y3|v1,v2,x2)", "P(y3|v1,v2,x2)",
        ]),
        (catalog.beyond_adjustment_pag(), (("X",), ("Y",)), 2,
         "sum_{v2,v4,z} [P(v2) * P(y|v2,v4,x,z) * sum_{v3} [P(v3,v4) * P(z|v3,v4,x)]]", [
             "P(v1,v2,v3,v4,x)", "P(v1,v2,v3,v4)", "P(v1,v2,v3)", "P(v1,v2)", "P(v2)", "P(v1,v3,v4,x,z)",
             "P(v1,v3,v4) * P(z|v1,v3,v4,x)", "P(v1) * sum_{v3} [P(v3,v4|v1) * P(z|v1,v3,v4,x)]",
             "sum_{v3} [P(v3,v4|v1) * P(z|v1,v3,v4,x)]",
         ]),
    ],
)
def test_worked_examples_build_a_quotient_only_off_chains(monkeypatch, pag, query, reached, answer, steps):
    # about 0.01 s.  Every removal of the README quick start is answered
    # from its factor chain; the ring builds its 2 quotient conditionals for
    # the removal from P(v1) * sum_{v3} [...], which is no chain
    calls = []
    conditional_of = exprs.conditional_of
    monkeypatch.setattr(exprs, "conditional_of", lambda *a, **k: calls.append(a) or conditional_of(*a, **k))
    trace = []
    result = ident_pag.idp(*query, pag, trace=trace)
    assert len(calls) == reached
    assert render_text(result) == answer
    assert [render_text(step.reduced) for step in trace] == steps


def test_both_engines_remove_through_the_one_step(monkeypatch):
    # every reduced_q call of idp and id_dag comes from inside the one
    # removal step, and every trace entry of idp from one of its successful
    # calls; a latent DAG's step calls reduced_q exactly once and a PAG's
    # once or twice (the late order).  On the catalog and 40 seeded
    # verification draws, about 1 s
    real_step, real_reduced = ident_dag._remove_bucket, exprs.reduced_q
    inside, outside, steps = [0], [0], []

    def reduced(*args):
        if inside[0]:
            steps[-1][2] += 1
        else:
            outside[0] += 1
        return real_reduced(*args)

    def step(rows, *args):
        steps.append([type(rows), False, 0])
        inside[0] += 1
        try:
            pick, out = real_step(rows, *args)
        finally:
            inside[0] -= 1
        steps[-1][1] = bool(pick)
        return pick, out

    for module in (ident_dag, ident_pag):
        monkeypatch.setattr(module, "reduced_q", reduced)
    monkeypatch.setattr(ident_dag, "_remove_bucket", step)
    pags = [catalog.confounded_chain_pag(), catalog.two_treatment_pag(), catalog.beyond_adjustment_pag(), catalog.circle_pair_pag()]
    dags = [catalog.confounded_chain_dag(), catalog.confounded_chain_dag_alt(), catalog.bow_dag()]
    rng = np.random.default_rng(36)
    for _ in range(40):
        d, m = _sample_graph(rng)
        pags.append(pag_of_class(equivalence_class(m)))
        dags.append(d)
    for pag in pags:
        for xs, ys in _queries(pag.nodes):
            for seed in (None, 3):
                trace, before = [], len(steps)
                ident_pag.idp(xs, ys, pag, choice_seed=seed, trace=trace)
                assert len(trace) == sum(ok for _, ok, _ in steps[before:])
    for dag in dags:
        for xs, ys in _queries(dag.observed):
            for seed in (None, 3):
                ident_dag.id_dag(xs, ys, dag, choice_seed=seed)
    assert outside == [0]
    kinds = {(kind.__name__, ok, n) for kind, ok, n in steps}
    assert {("_DagRows", True, 1), ("_DagRows", False, 0), ("_ScopeRows", True, 1), ("_ScopeRows", False, 0)} <= kinds
    assert kinds <= {("_DagRows", True, 1), ("_DagRows", False, 0), ("_ScopeRows", True, 1), ("_ScopeRows", True, 2), ("_ScopeRows", False, 0)}
