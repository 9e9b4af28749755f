"""Scopes are node masks on one graph's table.

Each ``within`` kernel (the buckets, the partial order with and without a
preference, pc, dc, the cpc blocks, the possible ancestors and the blocking
child) against the public function on ``induced_subgraph``, over every
nonempty node subset of the catalog PAGs and of the seeded class PAGs that
``test_reachability.small_subgraphs`` draws; and identification and
verification build no subgraph.  About 2 s of tier-1 time.
"""

import itertools
import sys

import numpy as np
import pytest

from reference_paths import possible_children
from pagid import catalog, graphs, ident_pag
from pagid.graphs import ARROW, Pag, _possible_ancestors, induced_subgraph, mask_of, names_of, possible_ancestors
from pagid.ident_pag import Fail, TraceStep, idp
from pagid.oracle import equivalence_class, pag_of_class
from pagid.structure import (
    _buckets,
    _cpc,
    _dc,
    _order,
    _pc,
    buckets,
    cpc_components,
    dc_component,
    pc_component,
    pto,
)
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


def order_by_names(g, extract_first):
    """The partial order by walking names: extract a bucket whose members
    have only arrowheads from the nodes left outside it, ``extract_first``
    whenever it qualifies, else the one whose smallest member is largest."""
    remaining, removed, extracted = list(buckets(g)), set(), []
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
        for r in range(1, len(g.nodes) + 1):
            for keep in itertools.combinations(g.nodes, r):
                within, sub = mask_of(g, keep), induced_subgraph(g, keep)
                assert _names(g, _buckets(g, within)) == buckets(sub)
                assert _names(g, _order(g, within)) == pto(sub).buckets
                assert _names(g, _cpc(g, within)) == cpc_components(sub)
                for b in buckets(sub):
                    bucket = mask_of(g, b)
                    assert _names(g, _order(g, within, bucket)) == order_by_names(sub, b)
                    assert ident_pag._blocking_child(g, bucket, within) == blocking_child_by_names(sub, b)
                    assert names_of(g.nodes, _pc(g, bucket, within)) == pc_component(sub, b)
                    assert names_of(g.nodes, _dc(g, bucket, within)) == dc_component(sub, b)
                for v in keep:
                    seed = mask_of(g, [v])
                    assert names_of(g.nodes, _pc(g, seed, within)) == pc_component(sub, [v])
                    assert names_of(g.nodes, _dc(g, seed, within)) == dc_component(sub, [v])
                    assert names_of(g.nodes, _possible_ancestors(g, seed, within)) == possible_ancestors(sub, [v])
                checked += 1
    # 1,252 subsets
    assert checked > 1200


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
