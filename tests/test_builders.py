"""One builder per graph kind, and subgraphs that restrict their parent.

``LatentDag.from_edges`` is the one place a confounding arc becomes a
latent; graph files, ``from_specs``, the canonical DAG of a MAG and random
DAGs all go through it.  ``induced_subgraph`` of a mixed graph copies its
parent's validated tables instead of re-running the constructor; the old
rebuild is kept here as the reference it must equal.
"""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import pagid.cli
import pagid.graphs
import pagid.structure
from pagid import catalog
from pagid.cli import parse_graph, serialize_graph
from pagid.graphs import (
    ARROW,
    CIRCLE,
    TAIL,
    LatentDag,
    Mag,
    MixedGraph,
    Pag,
    adjacency_masks,
    ancestor_masks,
    induced_subgraph,
    mag_of_dag,
)
from pagid.oracle import canonical_dag_of_mag, class_of_dag, equivalence_class, pag_of_class, random_latent_dag
from pagid.structure import visible_edges
from pagid.verify import _sample_graph

SRC = Path(__file__).resolve().parent.parent / "src" / "pagid"
SAMPLE_SEEDS = range(30)
CATALOG_DAGS = (catalog.confounded_chain_dag, catalog.confounded_chain_dag_alt, catalog.bow_dag)
CATALOG_PAGS = (
    catalog.confounded_chain_pag,
    catalog.two_treatment_pag,
    catalog.beyond_adjustment_pag,
    catalog.circle_pair_pag,
)


def _sampled_class(seed):
    _, mag = _sample_graph(np.random.default_rng(seed))
    members = equivalence_class(mag)
    return members, pag_of_class(members)


def _dag_spec(a, b, mark_a, mark_b):
    token = {(TAIL, ARROW): "->", (ARROW, TAIL): "<-", (ARROW, ARROW): "<->"}[(mark_a, mark_b)]
    return f"{a} {token} {b}"


class TestOneLatentBuilder:
    def test_dag_file_reads_each_edge_line_once(self, monkeypatch):
        calls = []
        real = pagid.graphs.parse_edge

        def spy(kind, spec):
            calls.append(spec)
            return real(kind, spec)

        monkeypatch.setattr(pagid.cli, "parse_edge", spy)
        monkeypatch.setattr(pagid.graphs, "parse_edge", spy)
        for make in CATALOG_DAGS:
            want = make()
            text = serialize_graph("dag", want)
            calls.clear()
            assert parse_graph(text) == ("dag", want)
            assert len(calls) == text.count("edge:")

    @pytest.mark.parametrize("source", ["catalog", *SAMPLE_SEEDS])
    def test_canonical_dag_is_the_from_specs_dag(self, source):
        if source == "catalog":
            mags = [m for make in CATALOG_DAGS for m in class_of_dag(make())[0]]
        else:
            mags = _sampled_class(source)[0]
        assert mags
        for m in mags:
            specs = [_dag_spec(a, b, ma, mb) for a, b, ma, mb, _ in m.edges()]
            want = LatentDag.from_specs(m.nodes, specs)
            got = canonical_dag_of_mag(m)
            assert got == want
            assert repr(got) == repr(want)

    def test_latents_are_named_u_n_and_avoid_observed_names(self):
        m = Mag.from_specs(["U1", "A", "B"], ["U1 <-> A", "A <-> B", "U1 --> B"])
        assert canonical_dag_of_mag(m).latent == ("U1_", "U2")
        for seed in range(20):
            d = random_latent_dag(seed, 5, 3, 0.4)
            assert d.latent == tuple(f"U{k + 1}" for k in range(len(d.latent)))

    @pytest.mark.parametrize("marks", [(TAIL, TAIL), (CIRCLE, ARROW), (ARROW, CIRCLE), (CIRCLE, CIRCLE)])
    def test_from_edges_rejects_other_mark_pairs(self, marks):
        with pytest.raises(ValueError, match="neither directed nor bidirected"):
            LatentDag.from_edges(["A", "B"], [("A", "B", *marks, False)])


def _rebuilt_subgraph(g, keep):
    """The constructor rebuild that induced_subgraph used to run."""
    keep = set(keep)
    nodes = g.sort_nodes(keep)
    edges = [e for e in g.edges() if e[0] in keep and e[1] in keep]
    if isinstance(g, Pag):
        return Pag(nodes, edges, check_visibility=False)
    if isinstance(g, Mag):
        return Mag(nodes, edges, validate=False)
    return MixedGraph(nodes, edges)


def _view(g):
    kind = "mag" if isinstance(g, Mag) else "pag"
    return (
        type(g),
        g.nodes,
        g.edges(),
        {v: g.neighbors(v) for v in g.nodes},
        visible_edges(g),
        adjacency_masks(g),
        ancestor_masks(g),
        repr(g),
        serialize_graph(kind, g),
    )


def _restriction_graphs():
    graphs = [make() for make in CATALOG_PAGS]
    graphs += [mag_of_dag(make()) for make in CATALOG_DAGS]
    for seed in SAMPLE_SEEDS:
        members, pag = _sampled_class(seed)
        graphs += [pag, members[0]]
    return graphs + [MixedGraph(g.nodes, g.edges()) for g in graphs if isinstance(g, Pag)]


_RESTRICTION_GRAPHS = _restriction_graphs()


class TestSubgraphsRestrictTheirParent:
    @pytest.mark.parametrize("g", _RESTRICTION_GRAPHS, ids=[
        f"{type(g).__name__}-{k}" for k, g in enumerate(_RESTRICTION_GRAPHS)])
    def test_restriction_equals_the_constructor_rebuild(self, g):
        rng = np.random.default_rng(len(g.nodes))
        for r in range(1, len(g.nodes) + 1):
            for keep in itertools.combinations(g.nodes, r):
                sub = induced_subgraph(g, keep)
                assert _view(sub) == _view(_rebuilt_subgraph(g, keep)), keep
                inner = [v for v in keep if rng.random() < 0.5]
                assert _view(induced_subgraph(sub, inner)) == _view(_rebuilt_subgraph(g, inner)), inner

    def test_subgraph_over_every_node_is_the_graph(self):
        for make in CATALOG_PAGS:
            g = make()
            assert induced_subgraph(g, reversed(g.nodes)) is g

    def test_pag_subgraphs_settle_nothing_again(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("subgraph re-proved what its parent settled")

        pags = [make() for make in CATALOG_PAGS] + [_sampled_class(seed)[1] for seed in range(5)]
        monkeypatch.setattr(pagid.structure, "graphical_visible_edges", refuse)
        monkeypatch.setattr(pagid.graphs, "find_closure_violation", refuse)
        for pag in pags:
            for r in range(len(pag.nodes)):
                for keep in itertools.combinations(pag.nodes, r):
                    sub = induced_subgraph(pag, keep)
                    assert visible_edges(sub) == visible_edges(pag) & set(
                        itertools.permutations(keep, 2)
                    )


def _calls_and_latent_names(source):
    """Lines of ``source`` that call ``LatentDag(`` or format ``U{..}``/``L{..}``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "LatentDag":
                found.append(node.lineno)
        if isinstance(node, ast.JoinedStr) and len(node.values) > 1:
            first, second = node.values[:2]
            if isinstance(first, ast.Constant) and first.value in ("U", "L") and isinstance(
                second, ast.FormattedValue
            ):
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "graphs.py"), ids=lambda p: p.name
)
def test_latents_are_made_only_in_graphs(path):
    """Outside graphs.py no module builds a LatentDag or names a latent, so
    the arc-to-latent decision stays in LatentDag.from_edges."""
    assert _calls_and_latent_names(path.read_text(encoding="utf-8")) == []


def test_the_latent_check_sees_calls_and_names():
    source = 'd = graphs.LatentDag(o, l, e)\nname = f"L{k + 1}"\nnode = f"V{k + 1}"\nLatentDag(o, l, e)\n'
    assert _calls_and_latent_names(source) == [1, 2, 4]
