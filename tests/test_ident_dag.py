import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ident
from conftest import driver_starts
from reference_ident import _observed_ancestors, scope_by_names
from pagid import catalog, ident_dag, ident_pag
from pagid.exprs import Conditional, DistRef, Expr, Product, render_text, simplify
from pagid.graphs import LatentDag, _possible_ancestors, ancestors_in, induced_subgraph, mask_of, names_of
from pagid.ident_dag import Fail, c_components, id_dag, q_reduce
from pagid.oracle import equivalence_class, pag_of_class, random_latent_dag, random_scm
from pagid.verify import _sample_graph, interventional_gap


class TestCComponents:
    def test_confounded_chain(self, chain_dag):
        assert c_components(chain_dag) == (("V1",), ("V2", "X"), ("V3", "V4"))

    def test_no_latents_all_singletons(self):
        d = LatentDag.from_specs(["A", "B", "C"], ["A -> B", "B -> C"])
        assert c_components(d) == (("A",), ("B",), ("C",))

    def test_alt_chain(self, chain_dag_alt):
        assert c_components(chain_dag_alt) == (("V1", "V2", "X"), ("V3", "V4"))


class TestQReduce:
    def test_confounded_chain_removal(self, chain_dag):
        q = DistRef(tuple(chain_dag.observed))
        out = q_reduce(chain_dag, chain_dag.observed, ("X",), q)
        assert render_text(out) == "P(v1,v2) * P(v3,v4|v1,v2,x)"

    def test_plain_chain(self):
        d = LatentDag.from_specs(["X", "Y"], ["X -> Y"])
        out = q_reduce(d, ("X", "Y"), ("X",), DistRef(("X", "Y")))
        assert render_text(out) == "P(y|x)"

    def test_bow_violates_precondition(self, bow):
        # S is all of t, so the check alone keeps reduced_q's closed form away
        with pytest.raises(ValueError, match="descendant set"):
            q_reduce(bow, ("X", "Y"), ("X",), DistRef(("X", "Y")))

    def test_value_matches_oracle(self, chain_dag):
        q = DistRef(tuple(chain_dag.observed))
        out = q_reduce(chain_dag, chain_dag.observed, ("X",), q)
        scm = random_scm(5, chain_dag)
        gap = interventional_gap(out, scm, ("X",), ("V1", "V2", "V3", "V4"))
        assert gap <= 1e-12


class TestIdDag:
    def test_plain_chain(self):
        d = LatentDag.from_specs(["X", "Y"], ["X -> Y"])
        assert render_text(id_dag(["X"], ["Y"], d)) == "P(y|x)"

    def test_bow_fails_with_witness(self, bow):
        res = id_dag(["X"], ["Y"], bow)
        assert isinstance(res, Fail)
        assert res.node == "X"
        assert set(res.component) == {"X", "Y"}
        assert "confounded component" in res.describe()

    def test_confounded_chain_single_outcome(self, chain_dag):
        res = id_dag(["X"], ["V4"], chain_dag)
        assert not isinstance(res, Fail)
        for seed in range(5):
            gap = interventional_gap(res, random_scm(seed, chain_dag), ("X",), ("V4",))
            assert gap <= 1e-9

    def test_input_validation(self, chain_dag):
        with pytest.raises(ValueError, match="disjoint"):
            id_dag(["X"], ["X"], chain_dag)
        with pytest.raises(ValueError, match="observed"):
            id_dag(["Q"], ["V4"], chain_dag)

    def test_verdict_invariant_to_extraction_order(self, chain_dag, bow):
        queries = [
            (chain_dag, ("X",), ("V4",)),
            (chain_dag, ("V3",), ("V1", "V4")),
            (bow, ("X",), ("Y",)),
        ]
        for d, xs, ys in queries:
            base = isinstance(id_dag(xs, ys, d), Fail)
            for seed in (1, 2, 3):
                assert isinstance(id_dag(xs, ys, d, choice_seed=seed), Fail) == base

    @given(st.integers(0, 3000))
    @settings(max_examples=40, deadline=None)
    def test_oracle_equivalence_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        d = random_latent_dag(rng, int(rng.integers(2, 7)), int(rng.integers(0, 4)), 0.4)
        nodes = list(d.observed)
        if len(nodes) < 2:
            return
        perm = [nodes[i] for i in rng.permutation(len(nodes))]
        xs, ys = (perm[0],), (perm[1],)
        res = id_dag(xs, ys, d)
        if isinstance(res, Fail):
            return
        for s in range(5):
            gap = interventional_gap(res, random_scm(rng, d), xs, ys)
            assert gap <= 1e-9

    @pytest.mark.parametrize("seed", [66, 399, 542, 878])
    def test_no_free_variables_outside_query(self, seed):
        # these draws of the test above used to leave non-query variables
        # free, e.g. [sum_{v5} [P(v2,v5) * P(v4|v5)] / P(v2)] for P_v1(v4),
        # which interventional_gap refuses to evaluate
        rng = np.random.default_rng(seed)
        d = random_latent_dag(rng, int(rng.integers(2, 7)), int(rng.integers(0, 4)), 0.4)
        nodes = list(d.observed)
        perm = [nodes[i] for i in rng.permutation(len(nodes))]
        xs, ys = (perm[0],), (perm[1],)
        res = id_dag(xs, ys, d)
        assert not isinstance(res, Fail)
        assert set(res.free_vars()) <= set(xs) | set(ys)
        for _ in range(5):
            assert interventional_gap(res, random_scm(rng, d), xs, ys) <= 1e-9


def test_dag_rows_match_the_induced_subgraph():
    """The DAG's row table, read on the whole DAG, against G[within], the
    rebuilt subgraph, over every nonempty ``within`` mask of the catalog
    DAGs and of 30 seeded ``verify`` draws, each also with its node list
    reversed, so that the order must come from the edges and not from the
    node list.  ``order(within)`` is a topological order of G[within] in
    one-node masks, whatever its ``first``; ``cpc(within)`` and the public
    ``c_components`` of G[within] are its c-components read on names by
    ``reference_ident.c_components``; ``pc`` and ``dc`` close each node into
    its block.  verify reads ancestors in G[within] off the whole DAG too,
    and the driver's closure and ``reference_ident``'s name walk are held
    against the subgraph's ancestors.  Under 0.2 s of tier-1 time on a
    2-core x86 host."""
    rng = np.random.default_rng(0)
    dags = [catalog.confounded_chain_dag(), catalog.confounded_chain_dag_alt(), catalog.bow_dag()]
    dags += [_sample_graph(rng)[0] for _ in range(30)]
    dags += [LatentDag(d.observed[::-1], d.latent, d.edges()) for d in dags]
    checked = 0
    for d in dags:
        rows = ident_dag._DagRows(d)
        for k in range(1, len(d.observed) + 1):
            for t in itertools.combinations(d.observed, k):
                within, dt = mask_of(d, t), induced_subgraph(d, t)
                order = rows.order(within)
                topo = [v for b in order for v in names_of(d.nodes, b)]
                assert len(order) == len(t) and sorted(topo) == sorted(t)
                position = {v: i for i, v in enumerate(topo)}
                assert all(position[p] < position[c] for p, c in dt.edges() if p in position)
                assert all(rows.order(within, first) == order for first in [0, *order])
                blocks = tuple(names_of(d.nodes, b) for b in rows.cpc(within))
                assert blocks == c_components(dt) == reference_ident.c_components(dt)
                for block in blocks:
                    for v in block:
                        assert rows.pc(mask_of(d, [v]), within) == rows.dc(mask_of(d, [v]), within) == mask_of(d, block)
                outside = set(d.observed) - set(t)
                for v in t:
                    in_dt = tuple(u for u in ancestors_in(dt, [v]) if u in t)
                    assert _observed_ancestors(d, [v], outside) == in_dt
                    # the driver's prune: a DAG's possible parents are its parents
                    closed = _possible_ancestors(d, mask_of(d, [v]), ~mask_of(d, outside))
                    assert names_of(d.nodes, closed & mask_of(d, d.observed)) == in_dt
                checked += 1
    assert checked > 1800 and sum(bool(d.latent) for d in dags) > 30


class TestRemovalGuarantees:
    """Structural guarantees used by the step-wise rewrite of the
    identification recursion."""

    @given(st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_non_ancestral_scope_always_has_removable_node(self, seed):
        # when An(C) != T some node outside An(C) is unconfounded with its
        # children, so the recursion can always take a step
        rng = np.random.default_rng(seed)
        d = random_latent_dag(rng, int(rng.integers(3, 7)), int(rng.integers(0, 4)), 0.45)
        nodes = list(d.observed)
        size_t = int(rng.integers(2, len(nodes) + 1))
        t = sorted([nodes[i] for i in rng.permutation(len(nodes))][:size_t])
        size_c = int(rng.integers(1, len(t)))
        c = sorted([t[i] for i in rng.permutation(len(t))][:size_c])
        dt = induced_subgraph(d, t)
        a = set(v for v in ancestors_in(dt, c) if v in set(t))
        if a == set(t):
            return
        comps = {v: comp for comp in c_components(dt) for v in comp}
        assert any(
            not set(comps[v]) & set(dt.children(v)) for v in set(t) - a
        )

    @given(st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_multi_component_scope_has_removable_node_outside_c(self, seed):
        # with C inside one confounded component and several components in
        # the scope, a removable node exists in some component disjoint from C
        rng = np.random.default_rng(seed)
        d = random_latent_dag(rng, int(rng.integers(3, 7)), int(rng.integers(0, 4)), 0.45)
        nodes = list(d.observed)
        size_t = int(rng.integers(2, len(nodes) + 1))
        t = sorted([nodes[i] for i in rng.permutation(len(nodes))][:size_t])
        dt = induced_subgraph(d, t)
        comps = c_components(dt)
        if len(comps) < 2:
            return
        c = comps[int(rng.integers(0, len(comps)))]
        if set(c) == set(t):
            return
        found = False
        for comp in comps:
            if set(c) <= set(comp):
                continue
            for v in comp:
                if not set(comp) & set(dt.children(v)):
                    found = True
        assert found


def _start_dags():
    rng = np.random.default_rng(0)
    dags = [catalog.confounded_chain_dag(), catalog.confounded_chain_dag_alt(), catalog.bow_dag()]
    dags += [_sample_graph(rng)[0] for _ in range(150)]
    # the draws reach 6 nodes; at 8-12 a c-component splits into more runs
    for _ in range(20):
        nodes = [f"V{i}" for i in range(1, int(rng.integers(8, 13)))]
        pairs = list(itertools.combinations(nodes, 2))
        specs = [f"{a} -> {b}" for a, b in pairs if rng.random() < 0.3]
        specs += [f"{a} <-> {b}" for a, b in pairs if rng.random() < 0.15]
        dags.append(LatentDag.from_specs(nodes, specs))
    # reversed node lists, as in the test above
    return dags + [LatentDag(d.observed[::-1], d.latent, d.edges()) for d in dags]


def test_component_starts_match_the_product_and_the_removals(monkeypatch):
    # the starts the driver derives for the components of D, over the
    # queries (x, y) of single nodes: Q[S], S a union of whole c-components
    # of G[A], A = An(y).  A component that takes a removal step starts at
    # its own c-component; the components that take none (each is a
    # c-component of G[A]) share one start, over their union.  The
    # closed-form Q[S] is the simplified product of P(v | the nodes of A
    # before v) over S, and what removing A \ S from P(A) node by node with
    # the checked q_reduce gives; a first removal step from it gets S in
    # node order.  About 1.5 s of tier-1 time
    starts, steps = driver_starts(monkeypatch)
    checked, runs, stepped, merged, seen = 0, 0, 0, 0, set()
    for k, d in enumerate(_start_dags()):
        for y in d.observed:
            a_set = set(_observed_ancestors(d, (y,)))
            a = [v for v in d.observed if v in a_set]
            comp_of, topo = scope_by_names(d, a)
            for x in d.observed:
                if x == y:
                    continue
                del starts[:], steps[:]
                id_dag([x], [y], d)
                first = {}
                for t, q in steps:
                    first.setdefault(id(q), t)
                for order, s_set, q in starts:
                    covered = {comp_of[v] for v in s_set}
                    assert order == topo and all(s_set.issuperset(c) for c in covered)
                    if id(q) in first:
                        assert first[id(q)] == [v for v in a if v in s_set]
                        stepped += 1
                    if (k, y, frozenset(s_set)) in seen:
                        continue
                    seen.add((k, y, frozenset(s_set)))
                    merged += len(covered) > 1
                    factors = [
                        Conditional((v,), topo[:i]) if i else DistRef((v,))
                        for i, v in enumerate(topo) if v in s_set
                    ]
                    assert q == simplify(Product(tuple(factors))) and q._fixed
                    runs += isinstance(q, Product)
                    walk, q_walk = list(a), DistRef(tuple(a))
                    while set(walk) != s_set:
                        walk_comp_of, walk_topo = scope_by_names(d, walk)
                        b = next(v for v in reversed(walk_topo) if v not in s_set
                                 and not set(walk_comp_of[v]) & set(d.children(v)))
                        q_walk = q_reduce(d, walk, (b,), q_walk)
                        walk.remove(b)
                    assert q == q_walk
                    checked += 1
    # 2,786 distinct starts, 1,182 of them over more than one c-component
    # and 439 split into more than one run; 676 starts take a removal step
    assert checked > 2000 and runs > 100 and stepped > 600 and merged > 1000


def test_complete_dag_takes_no_removal_step(monkeypatch):
    # nor does it close a c-component: the driver reads D's components and
    # A's order off the DAG's row table, and only a removal step reads pc or
    # dc off it
    nodes = [f"V{i}" for i in range(1, 13)]
    d = LatentDag.from_specs(nodes, [f"{a} -> {b}" for a, b in itertools.combinations(nodes, 2)])
    calls, closures = [], []

    class Rows(ident_dag._DagRows):
        def pc(self, *args):
            closures.append(args)
            return super().pc(*args)

        dc = pc

    remove_bucket = ident_dag._remove_bucket
    monkeypatch.setattr(ident_dag, "_remove_bucket", lambda *args: calls.append(args) or remove_bucket(*args))
    monkeypatch.setattr(ident_dag, "_DagRows", Rows)
    assert render_text(id_dag(["V1"], ["V12"], d)) == "P(v12|v1)"
    assert calls == [] and closures == []
    # the same spies see a query that takes steps
    assert isinstance(id_dag(["V1"], ["V12"], LatentDag.from_specs(["V1", "V2", "V12"], ["V1 -> V2", "V2 -> V12", "V1 <-> V12"])), Expr)
    assert calls and closures


def test_each_query_closes_a_and_d_once(monkeypatch):
    # idp and id_dag read A and D with one possible-ancestor closure each on
    # the graph's table, both before the first removal step (the spy sits
    # where the identification modules look the closure up, so the cleanup's
    # separation certificates are not counted)
    closures, at_step = [0], []
    real = _possible_ancestors

    def closure(*args):
        closures[0] += 1
        return real(*args)

    def step(*args, real=ident_dag._remove_bucket):
        at_step.append(closures[0])
        return real(*args)

    for module in (ident_dag, ident_pag):
        monkeypatch.setattr(module, "_possible_ancestors", closure, raising=False)
    monkeypatch.setattr(ident_dag, "_remove_bucket", step)
    rng = np.random.default_rng(5)
    stepped = {id_dag: 0, ident_pag.idp: 0}
    for _ in range(40):
        d, m = _sample_graph(rng)
        p = pag_of_class(equivalence_class(m))
        for x, y in itertools.permutations(d.observed, 2):
            for answer, g in ((id_dag, d), (ident_pag.idp, p)):
                closures[0], at_step[:] = 0, []
                answer([x], [y], g)
                assert closures[0] == 2 and set(at_step) <= {2}
                stepped[answer] += bool(at_step)
    # 39 id_dag and 235 idp queries take a step
    assert min(stepped.values()) > 30
