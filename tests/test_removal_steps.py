"""The removal steps reduce with what their own test derived, skipping the
checks and re-derivations of the public reducers.  These tests show on the
catalog and on seeded verification draws that every skipped check would have
passed, that each step's reduction is the one the checked entry points give,
that every removal rewrite, closed form or not, is the simplified quotient
of ``reference_exprs``, and that few of the steps' rewrites take the generic
path."""

import itertools

import numpy as np
import pytest

import reference_exprs
from pagid import catalog, exprs, ident_dag, ident_pag
from pagid.exprs import expr_size
from pagid.graphs import find_closure_violation, induced_subgraph
from pagid.ident_pag import bucket_identifiable, q_reduce_bucket
from pagid.oracle import canonical_dag_of_mag, equivalence_class, pag_of_class
from pagid.structure import _pto_with_preference, pto
from pagid.verify import _sample_graph, _sample_query


@pytest.fixture
def checked_steps(monkeypatch, referenced_rewrites):
    """Spy on both removal steps; count the steps taken, each checked, and
    the steps' own ``reduced_q`` calls that took the generic path (not those
    of the checked reducers)."""
    taken = {"bucket": 0, "node": 0, "generic": 0}
    remove_bucket, remove_node = ident_pag._remove_bucket, ident_dag._remove_node

    def bucket_step(p, t, c_set, q, rng, trace):
        before = len(referenced_rewrites)
        step = remove_bucket(p, t, c_set, q, rng, trace)
        taken["generic"] += sum(referenced_rewrites[before:])
        if isinstance(step, tuple):
            pick, reduced = step
            p_t = induced_subgraph(p, t)
            assert bucket_identifiable(p_t, pick) == (True, None)
            assert find_closure_violation(p_t) is None
            early = q_reduce_bucket(p_t, pick, q, pto(p_t))
            late = q_reduce_bucket(p_t, pick, q, _pto_with_preference(p_t, pick))
            assert reduced == min((early, late), key=expr_size)
            taken["bucket"] += 1
        return step

    def node_step(d, t, c_set, q, rng):
        before = len(referenced_rewrites)
        step = remove_node(d, t, c_set, q, rng)
        taken["generic"] += sum(referenced_rewrites[before:])
        if isinstance(step, tuple):
            removed, reduced = step
            assert reduced == ident_dag.q_reduce(d, t, removed, q)
            taken["node"] += 1
        return step

    monkeypatch.setattr(ident_pag, "_remove_bucket", bucket_step)
    monkeypatch.setattr(ident_dag, "_remove_node", node_step)
    return taken


@pytest.fixture
def referenced_rewrites(monkeypatch):
    """Check every ``reduced_q`` call of both identification modules against
    the reference quotient; record for each call whether it took the generic
    path, that is, reached ``exprs.conditional_of``."""
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
    for dag in (catalog.confounded_chain_dag(), catalog.confounded_chain_dag_alt(), catalog.bow_dag()):
        for xs, ys in _queries(dag.observed):
            for seed in (None, 3):
                ident_dag.id_dag(xs, ys, dag, choice_seed=seed)
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
    assert checked_steps["bucket"] > 500 and checked_steps["node"] > 3000
    assert len(referenced_rewrites) >= checked_steps["bucket"] + checked_steps["node"]
    # the closed form answers all but a few hundred of the steps' ~10,000
    # rewrites (244 here; 2,175 when it took one canonical factor only)
    assert checked_steps["generic"] <= 300
