"""A PAG settles its visible edges when it is built: one rebuilt with every
visibility flag cleared is the same PAG as the original, in its file text,
in the visible edges of each induced subgraph and in every idp answer."""

import itertools

import numpy as np
import pytest

from pagid import catalog
from pagid.cli import parse_graph, serialize_graph
from pagid.exprs import render_text
from pagid.graphs import Pag, induced_subgraph
from pagid.ident_pag import Fail, idp
from pagid.oracle import equivalence_class, pag_of_class
from pagid.structure import visible_edges
from pagid.verify import _sample_graph

CATALOG = {
    "chain": catalog.confounded_chain_pag,
    "twin": catalog.two_treatment_pag,
    "ring": catalog.beyond_adjustment_pag,
    "circle_pair": catalog.circle_pair_pag,
}
SAMPLE_SEEDS = range(30)


def _sampled_pag(seed):
    _, mag = _sample_graph(np.random.default_rng(seed))
    return pag_of_class(equivalence_class(mag))


def _answer(result):
    return result.describe() if isinstance(result, Fail) else render_text(result)


def _assert_unflagged_rebuild_is_the_same(pag):
    bare = Pag(pag.nodes, [(a, b, ma, mb, False) for a, b, ma, mb, _ in pag.edges()])

    text = serialize_graph("pag", pag)
    assert serialize_graph("pag", bare) == text
    assert parse_graph(text)[1].edges() == pag.edges()

    for r in range(len(pag.nodes) + 1):
        for keep in itertools.combinations(pag.nodes, r):
            assert visible_edges(induced_subgraph(bare, keep)) == visible_edges(
                induced_subgraph(pag, keep)
            ), keep

    for x, y in itertools.permutations(pag.nodes, 2):
        assert _answer(idp([x], [y], bare)) == _answer(idp([x], [y], pag)), (x, y)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_pag_rebuilt_without_flags(name):
    _assert_unflagged_rebuild_is_the_same(CATALOG[name]())


@pytest.mark.parametrize("seed", SAMPLE_SEEDS)
def test_sampled_pag_rebuilt_without_flags(seed):
    _assert_unflagged_rebuild_is_the_same(_sampled_pag(seed))
