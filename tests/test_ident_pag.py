import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import driver_starts, max_value_gap
from reference_paths import definite_status_interior, possible_children
from pagid import catalog, ident_dag
from pagid.exprs import Conditional, DistRef, Product, render_text, simplify
from pagid.graphs import ARROW, CIRCLE, TAIL, LatentDag, Mag, Pag, induced_subgraph, mag_of_dag, possible_ancestors
from pagid.ident_dag import Fail as DagFail
from pagid.ident_dag import id_dag
from pagid.ident_pag import Fail, TraceStep, bucket_identifiable, idp, q_reduce_bucket
from pagid.oracle import (
    canonical_dag_of_mag,
    class_of_dag,
    equivalence_class,
    joint,
    pag_of_class,
    random_latent_dag,
    random_scm,
)
from pagid.separation import m_separated
from pagid.structure import buckets, cpc_components, pc_component, pto
from pagid.verify import _sample_graph, expression_gap, interventional_gap


class TestBucketIdentifiable:
    def test_treatment_with_only_visible_children(self, chain_pag):
        ok, witness = bucket_identifiable(chain_pag, ("X",))
        assert ok and witness is None

    def test_childless_node(self, twin_pag):
        ok, _ = bucket_identifiable(twin_pag, ("Y3",))
        assert ok

    def test_invisible_child_in_component(self, chain_pag):
        ok, witness = bucket_identifiable(chain_pag, ("V2",))
        assert not ok
        assert witness == ("V2", "X")

    def test_witnesses_satisfy_the_criterion_negation(self, chain_pag, twin_pag, ring_pag):
        for g in (chain_pag, twin_pag, ring_pag):
            for bucket in buckets(g):
                if set(bucket) == set(g.nodes):
                    continue
                ok, witness = bucket_identifiable(g, bucket)
                if ok:
                    continue
                member, child = witness
                assert member in bucket and child not in bucket
                assert child in possible_children(g, [member])
                assert child in pc_component(g, [member])

    def test_rejects_non_buckets(self, chain_pag):
        with pytest.raises(ValueError, match="not a bucket"):
            bucket_identifiable(chain_pag, ("V3",))


class TestQReduceBucket:
    def test_first_twin_reduction(self, twin_pag):
        order = pto(twin_pag)
        q = DistRef(tuple(twin_pag.nodes))
        out = q_reduce_bucket(twin_pag, ("Y3",), q, order)
        assert render_text(out) == "P(v1,v2,x1,x2,y1,y2)"

    def test_second_twin_reduction(self, twin_pag):
        sub = induced_subgraph(twin_pag, ["V1", "V2", "X1", "X2", "Y1", "Y2"])
        q = DistRef(("V1", "V2", "X1", "X2", "Y1", "Y2"))
        out = q_reduce_bucket(sub, ("X2",), q, pto(sub))
        assert render_text(out) == "P(v1,v2,x1,y1,y2)"

    def test_third_twin_reduction(self, twin_pag):
        sub = induced_subgraph(twin_pag, ["V1", "V2", "X1", "Y1", "Y2"])
        q = DistRef(("V1", "V2", "X1", "Y1", "Y2"))
        out = q_reduce_bucket(sub, ("X1",), q, pto(sub))
        assert render_text(out) == "P(v1,v2) * P(y1,y2|v1,v2,x1)"

    def test_rejects_criterion_violation(self, chain_pag):
        # S is the one bucket {V2}, so the check alone keeps reduced_q's
        # closed form away
        q = DistRef(tuple(chain_pag.nodes))
        with pytest.raises(ValueError, match="not removable"):
            q_reduce_bucket(chain_pag, ("V2",), q, pto(chain_pag))

    def test_single_application_on_chain_pag(self, chain_pag):
        # one bucket removal on the full graph already yields the effect of X
        q = DistRef(tuple(chain_pag.nodes))
        out = q_reduce_bucket(chain_pag, ("X",), q, pto(chain_pag))
        assert render_text(out) == "P(v1,v2) * P(v3,v4|v1,v2,x)"


class TestIdp:
    def test_twin_treatments(self, twin_pag):
        out = idp(["X1", "X2"], ["Y1", "Y2", "Y3"], twin_pag)
        assert render_text(out) == "P(y1,y2|x1) * P(y3|x2)"

    def test_chain_full_outcome(self, chain_pag):
        out = idp(["X"], ["V1", "V2", "V3", "V4"], chain_pag)
        assert render_text(out) == "P(v1,v2) * P(v3,v4|v1,v2,x)"

    def test_circle_pair_fails_without_witness(self, circle_pair):
        res = idp(["X"], ["Y"], circle_pair)
        assert isinstance(res, Fail)
        assert set(res.scope) == {"X", "Y"} and res.component == ("Y",)
        assert res.witness is None
        assert "no removable bucket" in res.describe()

    def test_ring_pag_succeeds_where_adjustment_cannot(self, ring_pag):
        out = idp(["X"], ["Y"], ring_pag)
        assert not isinstance(out, Fail)
        members, _ = class_of_dag_of(ring_pag)
        for i, member in enumerate(members):
            cdag = canonical_dag_of_mag(member)
            for s in range(3):
                gap = interventional_gap(out, random_scm(41 + 13 * i + s, cdag), ("X",), ("Y",))
                assert gap <= 1e-9

    def test_marginal_outcome_collapses_fully(self, chain_pag, chain_dag, chain_dag_alt):
        # summing out V3 marginalises the joint conditional and the context
        # variables drop by certified independence, leaving a bare conditional
        out = idp(["X"], ["V4"], chain_pag)
        assert render_text(out) == "P(v4|x)"
        for dag in (chain_dag, chain_dag_alt):
            for seed in range(5):
                gap = interventional_gap(out, random_scm(seed, dag), ("X",), ("V4",))
                assert gap <= 1e-9

    def test_input_validation(self, twin_pag):
        with pytest.raises(ValueError, match="disjoint"):
            idp(["X1"], ["X1"], twin_pag)
        with pytest.raises(ValueError, match="graph nodes"):
            idp(["W"], ["Y1"], twin_pag)

    def test_verdict_invariant_to_bucket_choice(self, twin_pag, chain_pag, circle_pair, ring_pag):
        queries = [
            (twin_pag, ("X1", "X2"), ("Y1", "Y2", "Y3")),
            (chain_pag, ("X",), ("V4",)),
            (circle_pair, ("X",), ("Y",)),
            (ring_pag, ("X",), ("Y",)),
        ]
        for g, xs, ys in queries:
            base = isinstance(idp(xs, ys, g), Fail)
            for seed in (1, 2, 3):
                assert isinstance(idp(xs, ys, g, choice_seed=seed), Fail) == base

    def test_trace_records_reductions(self, twin_pag):
        trace: list[TraceStep] = []
        idp(["X1", "X2"], ["Y1", "Y2", "Y3"], twin_pag, trace=trace)
        assert trace[0].bucket == ("Y3",)
        assert render_text(trace[0].reduced) == "P(v1,v2,x1,x2,y1,y2)"
        assert render_text(trace[1].reduced) == "P(v1,v2,x1,y1,y2)"

    @given(st.integers(0, 3000))
    @settings(max_examples=25, deadline=None)
    def test_sound_for_every_class_member(self, seed):
        rng = np.random.default_rng(seed)
        d = random_latent_dag(rng, int(rng.integers(2, 6)), int(rng.integers(0, 3)), 0.4)
        members, pag = class_of_dag(d)
        nodes = list(pag.nodes)
        if len(nodes) < 2:
            return
        perm = [nodes[i] for i in rng.permutation(len(nodes))]
        xs, ys = (perm[0],), (perm[1],)
        res = idp(xs, ys, pag)
        if isinstance(res, Fail):
            return
        for member in members:
            cdag = canonical_dag_of_mag(member)
            dag_res = id_dag(xs, ys, cdag)
            assert not isinstance(dag_res, DagFail)
            scm = random_scm(rng, cdag)
            assert interventional_gap(res, scm, xs, ys) <= 1e-9
            assert expression_gap(res, dag_res, scm) <= 1e-9


def class_of_dag_of(pag):
    """Equivalence class of a PAG with a single circle completion."""
    from pagid.graphs import CIRCLE, Mag, TAIL
    from pagid.oracle import equivalence_class

    edges = []
    for a, b, ma, mb, vis in pag.edges():
        edges.append(
            (a, b, TAIL if ma is CIRCLE else ma, TAIL if mb is CIRCLE else mb, False)
        )
    m = Mag(pag.nodes, edges)
    members = equivalence_class(m)
    return members, m


def _proper_definite_paths(g, xs, ys):
    """Definite status paths from ``xs`` to ``ys`` with interiors outside both."""
    out = []

    def step(path):
        v = path[-1]
        for w in g.neighbors(v):
            if w in path or w in xs:
                continue
            nxt = path + [w]
            if w in ys:
                if definite_status_interior(g, nxt) is not None:
                    out.append(nxt)
                continue
            step(nxt)

    for s in sorted(xs):
        step([s])
    return out


class TestBucketIndependence:
    """A bucket is independent of a group of earlier buckets given the rest of
    its predecessors when the two are non-adjacent and every proper definite
    status path between them has a definite non-collider or is out of the
    bucket."""

    @staticmethod
    def _condition_holds(pag, bucket, group):
        from pagid.graphs import ARROW

        for a in bucket:
            for b in group:
                if pag.adjacent(a, b):
                    return False
        for path in _proper_definite_paths(pag, set(bucket), set(group)):
            statuses = definite_status_interior(pag, path)
            if "noncollider" in statuses:
                continue
            if pag.mark_at(path[0], path[1]) is not ARROW:
                continue
            return False
        return True

    @given(st.integers(0, 2000))
    @settings(max_examples=30, deadline=None)
    def test_independence_holds_in_every_class_member(self, seed):
        rng = np.random.default_rng(seed)
        d = random_latent_dag(rng, int(rng.integers(3, 6)), int(rng.integers(0, 3)), 0.4)
        members, pag = class_of_dag(d)
        order = pto(pag)
        for i, bucket in enumerate(order.buckets):
            before = order.buckets[:i]
            for r in (1, 2):
                for group_parts in itertools.combinations(before, r):
                    group = tuple(v for b in group_parts for v in b)
                    if not group:
                        continue
                    if not self._condition_holds(pag, bucket, group):
                        continue
                    given = tuple(
                        v for v in order.preceding(i) if v not in set(group)
                    )
                    for m in members:
                        assert m_separated(m, bucket, group, given)


def _start_pags():
    """(PAG, a latent DAG of its class): the catalog PAGs, 120 seeded class
    PAGs and the MAGs of 20 random 8-12-node DAGs read as PAGs, each also
    with its node list reversed, which moves the partial order's ties and
    the runs of C."""
    rng = np.random.default_rng(0)
    pairs = []
    for pag in (catalog.confounded_chain_pag(), catalog.two_treatment_pag(),
                catalog.beyond_adjustment_pag(), catalog.circle_pair_pag()):
        # a member MAG: circles at o-> tails become tails, o-o edges point
        # forward in node order; each catalog circle component is one edge
        m = Mag(pag.nodes, [
            (a, b, TAIL if ma is CIRCLE else ma, (ARROW if ma is CIRCLE else TAIL) if mb is CIRCLE else mb, False)
            for a, b, ma, mb, _ in pag.edges()
        ])
        assert pag_of_class(equivalence_class(m)) == pag
        pairs.append((pag, canonical_dag_of_mag(m)))
    for _ in range(120):
        d, m = _sample_graph(rng)
        pairs.append((pag_of_class(equivalence_class(m)), d))
    # the draws reach 6 nodes; at 8-12, as in the cap12 benchmark, C splits
    # into more runs
    for _ in range(20):
        nodes = [f"V{i}" for i in range(1, int(rng.integers(8, 13)))]
        pairs_of = list(itertools.combinations(nodes, 2))
        specs = [f"{a} -> {b}" for a, b in pairs_of if rng.random() < 0.3]
        specs += [f"{a} <-> {b}" for a, b in pairs_of if rng.random() < 0.06]
        d = LatentDag.from_specs(nodes, specs)
        m = mag_of_dag(d)
        pairs.append((Pag(m.nodes, m.edges()), d))
    return pairs + [(Pag(p.nodes[::-1], p.edges()), d) for p, d in pairs]


def test_component_starts_match_the_product_and_the_removals(monkeypatch):
    # the start the driver derives for each component of P_D, over the
    # queries (x, y) of single nodes: Q[C], C the component's composite
    # pc-component of P_A, A = PossAn(y).  The closed-form Q[C] is the
    # simplified product of P(B | the buckets before B) over the buckets B
    # inside C, and takes the value of removing A \ C from P(A) bucket by
    # bucket with the checked q_reduce_bucket, on the observed joint of a
    # random model of a DAG in the class; a first removal step from it gets
    # C in node order.  The walk takes the last bucket outside C each time,
    # which the checked reducer refuses unless it is removable, as the
    # identify docstring argues.  About 2 s of tier-1 time
    starts, steps = driver_starts(monkeypatch)
    rng = np.random.default_rng(1)
    checked, walked, unequal, runs, stepped, seen = 0, 0, 0, 0, 0, set()
    for k, (p, d) in enumerate(_start_pags()):
        table = joint(random_scm(rng, d))
        for y in p.nodes:
            a = list(possible_ancestors(p, [y]))
            p_a = induced_subgraph(p, a)
            order = pto(p_a).buckets
            blocks = cpc_components(p_a)
            for x in p.nodes:
                if x == y:
                    continue
                del starts[:], steps[:]
                idp([x], [y], p)
                first = {}
                for t, q in steps:
                    first.setdefault(id(q), t)
                for joint_order, c_set, q in starts:
                    c = p.sort_nodes(c_set)
                    assert joint_order == [v for b in order for v in b] and c in blocks
                    if id(q) in first:
                        assert first[id(q)] == list(c)
                        stepped += 1
                    if (k, y, c) in seen:
                        continue
                    seen.add((k, y, c))
                    factors, before = [], ()
                    for b in order:
                        if c_set.issuperset(b):
                            factors.append(Conditional(b, before, DistRef(b + before)) if before else DistRef(b))
                        before += b
                    assert q == simplify(Product(tuple(factors))) and q._fixed
                    runs += isinstance(q, Product)
                    walk, q_walk = list(a), DistRef(tuple(a))
                    while set(walk) != c_set:
                        p_t = induced_subgraph(p, walk)
                        order_t = pto(p_t)
                        bucket = [b for b in order_t.buckets if c_set.isdisjoint(b)][-1]
                        q_walk = q_reduce_bucket(p_t, bucket, q_walk, order_t)
                        walk = [v for v in walk if v not in bucket]
                    if q_walk != q:
                        assert max_value_gap(q, q_walk, table) <= 1e-12
                        unequal += 1
                    walked += len(a) > len(c)
                    checked += 1
    # all 1,582 components of some P_A are started; 320 walks take a step,
    # 16 of them end in another form of Q[C]; 106 starts have more than one
    # run; the driver takes 2,465 first steps from a start
    assert checked > 1500 and walked > 300 and unequal > 10 and runs > 100 and stepped > 2000


def test_cap12_bucket_walk_is_gone(monkeypatch):
    # the 9-node PAG of the cap12 benchmark's op g5, whose idp query took 21
    # bucket steps from Q[A]: V1 is no possible ancestor of V2 or V5, and
    # every component now starts at its own Q[C]
    p = Pag.from_specs(
        [f"V{i}" for i in range(1, 10)],
        ["V1 <-> V9", "V2 <-- V6 visible", "V2 <-- V9 visible", "V3 --> V6", "V3 <-- V7",
         "V4 <-- V7", "V4 <-- V8", "V5 <-- V9 visible", "V6 <-- V7", "V8 --> V9"],
    )
    calls = []
    remove_bucket = ident_dag._remove_bucket
    monkeypatch.setattr(ident_dag, "_remove_bucket", lambda *args: calls.append(args) or remove_bucket(*args))
    assert render_text(idp(["V1"], ["V2", "V5"], p)) == "P(v2,v5)"
    assert calls == []
