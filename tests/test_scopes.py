"""Scopes are node masks on one graph's table.

Each ``within`` kernel (the buckets, the partial order with and without a
preference, pc, dc, the cpc blocks, the possible ancestors and the blocking
child), on the one ``_ScopeRows`` of the graph that an ``idp`` query
builds, against the public function on ``induced_subgraph`` and the
name-level references below, over every nonempty node subset of the
catalog PAGs and of the seeded class PAGs that
``test_reachability.small_subgraphs`` draws; the rows' buckets and order on
mixed graphs with a tail facing a circle; and identification and
verification build no subgraph.  About 1 s of tier-1 time on a 2-core x86
host.
"""

import itertools
import sys

import numpy as np
import pytest

from reference_paths import possible_children
from pagid import catalog, graphs, ident_dag
from pagid.graphs import ARROW, CIRCLE, MixedGraph, Pag, _possible_ancestors, induced_subgraph, mask_of, names_of, possible_ancestors
from pagid.ident_pag import Fail, TraceStep, idp
from pagid.oracle import equivalence_class, pag_of_class
from pagid.structure import _ScopeRows, buckets, cpc_components, dc_component, pc_component, pto
from pagid.verify import _sample_graph, run_verification


def _catalog_pags():
    return [
        catalog.two_treatment_pag(),
        catalog.confounded_chain_pag(),
        catalog.beyond_adjustment_pag(),
        catalog.circle_pair_pag(),
    ]


def _pags():
    """The catalog PAGs, also with their node order reversed, so that node
    order and name order differ, and the 20 seeded class PAGs of
    ``test_reachability``."""
    seeded = [pag_of_class(equivalence_class(_sample_graph(np.random.default_rng(seed))[1])) for seed in range(20)]
    return [q for p in _catalog_pags() for q in (p, Pag(p.nodes[::-1], p.edges()))] + seeded


def buckets_by_names(g):
    """The buckets by walking names: the components of the edges with a
    circle at both ends, members in node order, blocks by first member."""
    blocks, placed = [], set()
    for v in g.nodes:
        if v in placed:
            continue
        block, todo = {v}, [v]
        while todo:
            u = todo.pop()
            for w in g.neighbors(u):
                if w not in block and g.mark_at(u, w) is CIRCLE is g.mark_at(w, u):
                    block.add(w)
                    todo.append(w)
        placed |= block
        blocks.append(g.sort_nodes(block))
    return tuple(blocks)


def order_by_names(g, extract_first):
    """The partial order by walking names: extract a bucket whose members
    have only arrowheads from the nodes left outside it, ``extract_first``
    whenever it qualifies, else the one whose smallest member is largest."""
    remaining, removed, extracted = list(buckets_by_names(g)), set(), []
    while remaining:
        candidates = [
            b for b in remaining
            if all(g.mark_at(u, w) is ARROW for u in b for w in g.neighbors(u) if w not in b and w not in removed)
        ]
        pick = extract_first if extract_first in candidates else max(candidates, key=min)
        extracted.append(pick)
        remaining.remove(pick)
        removed.update(pick)
    return tuple(reversed(extracted))


def blocking_child_by_names(g, x):
    """The first member of bucket ``x`` with a possible child outside ``x``
    in its pc-component, and the first such child, in node order."""
    for member in x:
        pc = set(pc_component(g, [member]))
        for child in possible_children(g, [member]):
            if child not in x and child in pc:
                return member, child
    return None


def _names(g, masks):
    return tuple(names_of(g.nodes, m) for m in masks)


def test_within_kernels_match_the_induced_subgraph():
    checked = 0
    for g in _pags():
        rows = _ScopeRows(g)
        for r in range(1, len(g.nodes) + 1):
            for keep in itertools.combinations(g.nodes, r):
                within, sub = mask_of(g, keep), induced_subgraph(g, keep)
                assert _names(g, rows.buckets(within)) == buckets(sub) == buckets_by_names(sub)
                assert _names(g, rows.order(within)) == pto(sub).buckets == order_by_names(sub, None)
                assert _names(g, rows.cpc(within)) == cpc_components(sub)
                for b in buckets(sub):
                    bucket = mask_of(g, b)
                    assert _names(g, rows.order(within, bucket)) == order_by_names(sub, b)
                    assert ident_dag._blocking_child(rows, bucket, within) == blocking_child_by_names(sub, b)
                    assert names_of(g.nodes, rows.pc(bucket, within)) == pc_component(sub, b)
                    assert names_of(g.nodes, rows.dc(bucket, within)) == dc_component(sub, b)
                for v in keep:
                    seed = mask_of(g, [v])
                    assert names_of(g.nodes, rows.pc(seed, within)) == pc_component(sub, [v])
                    assert names_of(g.nodes, rows.dc(seed, within)) == dc_component(sub, [v])
                    assert names_of(g.nodes, _possible_ancestors(g, seed, within)) == possible_ancestors(sub, [v])
                checked += 1
    # 1,252 subsets
    assert checked > 1200


@pytest.mark.parametrize("specs,want", [
    (["A o-- B", "B --> C"], (("A",), ("B",), ("C",))),
    (["A o-o B", "B o-- C"], (("A", "B"), ("C",))),
])
def test_rows_of_a_mixed_graph_with_a_tail_facing_a_circle(specs, want):
    """A ``Pag`` refuses a tail facing a circle; on any other mixed graph an
    edge with a circle at one end only is no ``o-o`` edge, so the rows'
    buckets are the name-level ones and their order raises as ``pto`` does."""
    g = MixedGraph.from_specs(["A", "B", "C"], specs)
    rows, every = _ScopeRows(g), mask_of(g, g.nodes)
    assert _names(g, rows.buckets(every)) == buckets(g) == buckets_by_names(g) == want
    with pytest.raises(ValueError) as want:
        pto(g)
    with pytest.raises(ValueError) as got:
        rows.order(every)
    assert str(got.value) == str(want.value)


@pytest.fixture
def subgraph_calls(monkeypatch):
    """Count the calls to ``graphs.induced_subgraph`` from every ``pagid``
    module that binds it."""
    calls = []
    original = graphs.induced_subgraph

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pagid" and getattr(module, "induced_subgraph", None) is original:
            monkeypatch.setattr(module, "induced_subgraph", counted)
    return calls


def test_identification_and_verification_build_no_subgraph(subgraph_calls):
    nodes = [f"V{i + 1}" for i in range(12)]
    ladder = Pag.from_specs(nodes, [f"{a} <-> {b}" for a, b in zip(nodes, nodes[1:])])
    steps: list[TraceStep] = []
    answers = failures = 0
    for p in _catalog_pags() + [ladder]:
        for x, y in itertools.permutations(p.nodes, 2):
            for seed in (None, 1):
                result = idp([x], [y], p, choice_seed=seed, trace=steps)
                answers += 1
                failures += isinstance(result, Fail)
    run_verification(seed=0, runs=20, quiet=True)
    assert subgraph_calls == []
    # the queries reach the removal steps and both verdicts
    assert steps and answers > failures > 0
