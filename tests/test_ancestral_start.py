"""Every component's reduction starts inside A, the observed (possible)
ancestors of the outcome, not at Q[V]: ``idp`` at Q[C], C the component's
composite pc-component of P_A, ``id_dag`` at Q[S], S its c-component of
G[A].

Differential tests against ``reference_ident``, which starts every
component at Q[V]: on seeded verification draws, on every induced subgraph
of the catalog graphs and on the ladder families up to 8 nodes, the two give
the same verdicts and the same failure values, and every pair of answers
takes the same value on random models of the DAGs the graph describes.  Two
motivating cases and one answer with a stray free variable are pinned."""

import itertools

import numpy as np
import pytest

import reference_ident
from pagid import catalog, ident_dag, ident_pag
from pagid.exprs import render_text
from pagid.graphs import (
    ARROW,
    CIRCLE,
    TAIL,
    LatentDag,
    Mag,
    Pag,
    induced_subgraph,
    mag_violation,
    parse_edge,
)
from pagid.oracle import (
    MAX_JOINT_STATES,
    canonical_dag_of_mag,
    equivalence_class,
    pag_of_class,
    random_scm,
)
from pagid.verify import _sample_graph, expression_gap, interventional_gap

TOL = 1e-9
CLASS_SEARCH_EDGES = 8  # a 10-edge class takes seconds to enumerate
FAILS = (ident_pag.Fail, ident_dag.Fail)


def _queries(nodes):
    """Every single-node query, and the whole rest as the outcome of each
    treatment of one or two nodes."""
    pairs = [((x,), (y,)) for x in nodes for y in nodes if x != y]
    treatments = [xs for k in (1, 2) for xs in itertools.combinations(nodes, k) if k < len(nodes)]
    return pairs + [(xs, tuple(v for v in nodes if v not in xs)) for xs in treatments]


def _class_dags(p):
    """Canonical DAGs of the class whose PAG is ``p``, visibility included,
    or () when ``p`` is no class PAG or has more than
    ``CLASS_SEARCH_EDGES`` edges.  Each filling of ``p``'s circles with
    tails and arrowheads that gives a MAG is tried until one's class has
    ``p`` as its PAG."""
    edges = p.edges()
    if len(edges) > CLASS_SEARCH_EDGES:
        return ()
    circles = [(k, side) for k, edge in enumerate(edges) for side in (2, 3) if edge[side] is CIRCLE]
    for fill in itertools.product((TAIL, ARROW), repeat=len(circles)):
        marks = [list(edge[:4]) for edge in edges]
        for (k, side), mark in zip(circles, fill):
            marks[k][side] = mark
        if any(ma is TAIL and mb is TAIL for _, _, ma, mb in marks):
            continue
        m = Mag(p.nodes, [(*edge, False) for edge in marks], validate=False)
        if mag_violation(m) is None:
            members = equivalence_class(m)
            q = pag_of_class(members)
            if q == p:  # equality compares the visible flags too
                return tuple(canonical_dag_of_mag(mm) for mm in members)
    return ()


@pytest.fixture
def agreement():
    """Compare one query answered both ways; count what was compared."""
    counts = {"identified": 0, "failed": 0, "valued": 0}
    rng = np.random.default_rng(0)

    def check(new, old, dags):
        assert isinstance(new, FAILS) == isinstance(old, FAILS)
        if isinstance(new, FAILS):
            assert new == old
            counts["failed"] += 1
            return
        counts["identified"] += 1
        for d in dags:
            if 2 ** len(d.nodes) > MAX_JOINT_STATES:
                continue
            assert expression_gap(new, old, random_scm(rng, d)) <= TOL
            counts["valued"] += 1

    check.counts = counts
    return check


def test_verify_draws_agree_with_the_reference(agreement):
    rng = np.random.default_rng(15)
    for _ in range(30):
        d, m = _sample_graph(rng)
        members = equivalence_class(m)
        pag = pag_of_class(members)
        # classes reach 257 members: the first and the last stand for the rest
        class_dags = [canonical_dag_of_mag(mm) for mm in (members[0], members[-1])]
        for xs, ys in _queries(pag.nodes):
            agreement(ident_pag.idp(xs, ys, pag), reference_ident.idp(xs, ys, pag), [d, *class_dags])
            for dag in (d, *class_dags):
                agreement(ident_dag.id_dag(xs, ys, dag), reference_ident.id_dag(xs, ys, dag), [dag])
    assert agreement.counts["valued"] > 3000 and agreement.counts["failed"] > 500


def test_catalog_subgraphs_agree_with_the_reference(agreement):
    for pag in (catalog.confounded_chain_pag(), catalog.two_treatment_pag(),
                catalog.beyond_adjustment_pag(), catalog.circle_pair_pag()):
        for k in range(2, len(pag.nodes) + 1):
            for nodes in itertools.combinations(pag.nodes, k):
                sub = induced_subgraph(pag, nodes)
                dags = _class_dags(sub)
                for xs, ys in _queries(sub.nodes):
                    agreement(ident_pag.idp(xs, ys, sub), reference_ident.idp(xs, ys, sub), dags)
    for dag in (catalog.confounded_chain_dag(), catalog.confounded_chain_dag_alt(), catalog.bow_dag()):
        for k in range(2, len(dag.observed) + 1):
            for nodes in itertools.combinations(dag.observed, k):
                sub = induced_subgraph(dag, nodes)
                for xs, ys in _queries(sub.observed):
                    agreement(ident_dag.id_dag(xs, ys, sub), reference_ident.id_dag(xs, ys, sub), [sub])
    assert agreement.counts["valued"] > 2000 and agreement.counts["failed"] > 700


def _ladder(family, n):
    """The benchmark's density ladder graphs: a PAG and a latent DAG."""
    nodes = [f"V{i + 1}" for i in range(n)]
    if family == "bidirected_chain":
        pairs = list(zip(nodes, nodes[1:]))
    elif family == "bidirected_cycle":
        pairs = list(zip(nodes, nodes[1:] + nodes[:1]))
    else:
        pairs = list(itertools.combinations(nodes, 2))
    pag_token, dag_token = ("o-o", "->") if family == "circle_clique" else ("<->", "<->")
    pag = Pag(nodes, [parse_edge("pag", f"{a} {pag_token} {b}") for a, b in pairs])
    return pag, LatentDag.from_specs(nodes, [f"{a} {dag_token} {b}" for a, b in pairs])


@pytest.mark.parametrize(
    "family", ["complete_bidirected", "bidirected_chain", "bidirected_cycle", "circle_clique"]
)
def test_ladders_agree_with_the_reference(agreement, family):
    for n in range(4, 9):
        pag, dag = _ladder(family, n)
        pag_dags = _class_dags(pag)
        for xs, ys in _queries(pag.nodes):
            agreement(ident_pag.idp(xs, ys, pag), reference_ident.idp(xs, ys, pag), pag_dags)
            agreement(ident_dag.id_dag(xs, ys, dag), reference_ident.id_dag(xs, ys, dag), [dag])
    assert agreement.counts["identified"] + agreement.counts["failed"] == 2 * sum(
        len(_queries(range(n))) for n in range(4, 9)
    )


@pytest.fixture
def removals(monkeypatch):
    taken = []
    remove_bucket = ident_dag._remove_bucket

    def spy(*args):
        step = remove_bucket(*args)
        taken.append(step)
        return step

    monkeypatch.setattr(ident_dag, "_remove_bucket", spy)
    return taken


def test_treatment_outside_the_outcome_ancestors(removals):
    # V7 is no ancestor of V6, and {V6} is a c-component of G[{V6, V8}], so
    # the reduction starts at Q[V6] and takes no step; from Q[A] it took two
    # removals, and from Q[V] 20 grew the running expression to 279 nodes
    d = LatentDag.from_specs(
        [f"V{i}" for i in range(1, 12)],
        ["V2 -> V11", "V4 -> V5", "V5 -> V11", "V8 -> V6", "V10 -> V9", "V11 -> V9",
         "V3 <-> V9", "V4 <-> V6", "V5 <-> V11", "V9 <-> V11"],
    )
    assert render_text(ident_dag.id_dag(["V7"], ["V6"], d)) == "P(v6)"
    assert removals == []


def test_no_stray_variables_on_a_ten_node_dag():
    # from Q[V] this answer was 1,652 characters with v3, v4, v5 free
    d = LatentDag.from_specs(
        [f"V{i}" for i in range(1, 11)],
        ["V3 -> V2", "V5 -> V4", "V6 -> V10", "V8 -> V2", "V8 -> V4", "V8 -> V6",
         "V9 -> V1", "V9 -> V6", "V10 -> V7", "V5 <-> V6", "V7 <-> V9", "V8 <-> V9"],
    )
    xs, ys = ("V10", "V2"), ("V7", "V9")
    res = ident_dag.id_dag(xs, ys, d)
    assert render_text(res) == "sum_{v8} [P(v7|v10,v8,v9) * P(v8,v9)]"
    assert set(res.free_vars()) <= set(xs) | set(ys)
    # against oracle.truncated, the interventional truth, on random models
    for seed in range(10):
        assert interventional_gap(res, random_scm(seed, d), xs, ys) <= TOL


def test_stray_variable_answer():
    # v2 is still free in this answer.  V2's one child is the treatment V3,
    # so do(V2, V3) has the effect of do(V3) on V5 and V6, and the gap below
    # checks the answer at every value of v2
    d = LatentDag.from_specs(
        [f"V{i}" for i in range(1, 7)],
        ["V1 -> V3", "V1 -> V4", "V1 -> V5", "V1 -> V6", "V2 -> V3", "V3 -> V5", "V4 -> V5",
         "V4 -> V6", "V2 <-> V3", "V3 <-> V6", "V4 <-> V5"],
    )
    res = ident_dag.id_dag(["V3"], ["V5", "V6"], d)
    assert render_text(res) == (
        "sum_{v1,v4} [[P(v1) * P(v4,v5|v1,v3) * sum_{v3} "
        "[P(v2,v3|v1) * P(v6|v1,v2,v3,v4,v5)] / P(v2|v1)]]"
    )
    assert set(res.free_vars()) == {"V2", "V3", "V5", "V6"}
    for seed in range(10):
        assert interventional_gap(res, random_scm(seed, d), ("V2", "V3"), ("V5", "V6")) <= TOL
