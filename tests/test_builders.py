"""One builder per graph kind, one store per graph, and subgraphs that
restrict their parent.

Latents are made in ``graphs.py`` only and named by one rule there
(``_latent_name``): ``LatentDag._read`` turns confounding arcs into latents
for graph files directly, and for ``from_specs`` and random DAGs through
``LatentDag.from_edges``; ``LatentDag._of_mag`` fills the canonical DAG of
a MAG from its masks, which must equal the ``from_specs`` DAG.  A mixed graph stores
its edges only in the mask table its constructor fills, and only
``graphs.py`` reads that table; the name-keyed edge store it replaced is
the reference its queries must equal (``reference_paths.EdgeDict``).
``induced_subgraph`` of a mixed graph restricts its parent's validated
table instead of re-running the constructor; the old rebuild is kept here
as the reference it must equal.
"""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import pagid.cli
import pagid.graphs
import pagid.structure
import reference_paths as ref
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
    flagged_edges,
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
        real = pagid.graphs.read_edge

        def spy(kind, spec):
            calls.append(spec)
            return real(kind, spec)

        monkeypatch.setattr(pagid.graphs, "read_edge", spy)
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


def _random_marked_graphs(count=300):
    """``count`` mixed graphs of 1-12 nodes in shuffled node order, each
    edge given with its ends in random order and carrying a mark pair drawn
    from all nine, a directed edge its visible flag half the time, with the
    edge specs that built them.  A pair drawn with a tail at both ends, which
    no mixed graph takes, is left non-adjacent."""
    rng = np.random.default_rng(41)
    marks = (TAIL, ARROW, CIRCLE)
    for _ in range(count):
        nodes = [f"V{i}" for i in rng.permutation(int(rng.integers(1, 13))) + 1]
        density = rng.random()
        edges = []
        for a, b in itertools.combinations(nodes, 2):
            if rng.random() < density:
                ma, mb = (marks[i] for i in rng.integers(0, 3, 2))
                vis = {ma, mb} == {TAIL, ARROW} and bool(rng.random() < 0.5)
                edge = (a, b, ma, mb, vis) if rng.random() < 0.5 else (b, a, mb, ma, vis)
                if (ma, mb) != (TAIL, TAIL):
                    edges.append(edge)
        yield MixedGraph(nodes, edges), edges, rng


class TestOneStore:
    """Every query of a mixed graph, read off its mask table, against the
    name-keyed edge store, on random graphs and an induced subgraph of each."""

    @staticmethod
    def assert_store_matches(g, store):
        assert g.nodes == store.nodes
        assert g.edges() == store.edges()
        for a, b in itertools.product(g.nodes, repeat=2):
            assert g.adjacent(a, b) == store.adjacent(a, b)
            if store.adjacent(a, b):
                assert g.mark_at(a, b) is store.mark_at(a, b)
            else:
                with pytest.raises(KeyError):
                    g.mark_at(a, b)
        assert {v: g.neighbors(v) for v in g.nodes} == {v: store.neighbors(v) for v in store.nodes}
        assert flagged_edges(g) == store.flagged_edges()
        assert visible_edges(g) == store.flagged_edges() | ref.graphical_visible_edges(store)

    def test_queries_match_the_edge_store(self):
        seen = set()
        for g, edges, rng in _random_marked_graphs():
            store = ref.EdgeDict(g.nodes, edges)
            self.assert_store_matches(g, store)
            keep = [v for v in g.nodes if rng.random() < 0.6]
            self.assert_store_matches(induced_subgraph(g, keep), store.restrict(keep))
            seen.update((ma, mb, vis) for _, _, ma, mb, vis in edges)
        assert len(seen) == 10  # eight mark pairs, two of them also flagged

    def test_equality_and_hash_match_the_edge_store(self):
        for g, edges, rng in _random_marked_graphs():
            nodes = [g.nodes[i] for i in rng.permutation(len(g.nodes))]
            same = MixedGraph(nodes, [(b, a, mb, ma, vis) for a, b, ma, mb, vis in reversed(edges)])
            assert same == g and hash(same) == hash(g)
            if not edges:
                continue
            k = int(rng.integers(len(edges)))
            a, b, ma, mb, vis = edges[k]
            changed = (a, b, ma, mb, not vis) if {ma, mb} == {TAIL, ARROW} else (a, b, mb, ma, False)
            other = edges[:k] + [changed] + edges[k + 1:]
            want = ref.EdgeDict(g.nodes, edges).structure() == ref.EdgeDict(g.nodes, other).structure()
            assert (MixedGraph(nodes, other) == g) == want
            keep = g.nodes[: len(g.nodes) // 2 + 1]
            sub = induced_subgraph(g, keep)
            rebuilt = MixedGraph(keep, [e for e in edges if e[0] in keep and e[1] in keep])
            assert sub == rebuilt and hash(sub) == hash(rebuilt)


    def test_equality_over_one_node_tuple_is_structure_equality(self):
        """Graphs over the same node tuple compare their masks; the verdict
        must be that of :meth:`MixedGraph._structure`, on random pairs: the
        same edges given in another order and orientation, one edge's flag,
        marks or presence changed, an induced subgraph against its rebuild,
        and a class PAG against the mixed graph of its edges."""
        verdicts = []

        def check(g, h):
            want = g._structure() == h._structure()
            assert (g == h) is want and (h == g) is want and (g != h) is not want
            verdicts.append(want)

        for g, edges, rng in _random_marked_graphs():
            check(g, MixedGraph(g.nodes, [(b, a, mb, ma, vis) for a, b, ma, mb, vis in reversed(edges)]))
            for k in rng.permutation(len(edges))[:3]:
                a, b, ma, mb, vis = edges[k]
                options = [(a, b, mb, ma, False), (a, b, ARROW, ARROW, False), (a, b, CIRCLE, ARROW, False)]
                if {ma, mb} == {TAIL, ARROW}:
                    options.append((a, b, ma, mb, not vis))
                changed = options[int(rng.integers(len(options)))]
                check(g, MixedGraph(g.nodes, edges[:k] + [changed] + edges[k + 1:]))
                check(g, MixedGraph(g.nodes, edges[:k] + edges[k + 1:]))
            keep = [v for v in g.nodes if rng.random() < 0.7]
            check(induced_subgraph(g, keep), MixedGraph(keep, [e for e in edges if e[0] in keep and e[1] in keep]))
        for seed in SAMPLE_SEEDS:
            members, pag = _sampled_class(seed)
            check(pag, MixedGraph(pag.nodes, pag.edges()))
            check(pag, MixedGraph(pag.nodes, [(a, b, ma, mb, False) for a, b, ma, mb, _ in pag.edges()]))
            for m in members:
                check(m, mag_of_dag(canonical_dag_of_mag(m)))
                check(pag, m)
        assert verdicts.count(True) > 300 and verdicts.count(False) > 300


class TestTwoTailEdges:
    """No graph kind has an edge with a tail at both ends, and no edge token
    spells one: every mixed graph refuses it when built, as its repr and
    file form could not render it."""

    @pytest.mark.parametrize("kind", [MixedGraph, Pag, Mag])
    def test_refused_when_built(self, kind):
        edges = [("A", "B", TAIL, ARROW, False), ("C", "B", TAIL, TAIL, False)]
        with pytest.raises(ValueError, match="^undirected edge 'C'-'B' not supported$"):
            kind(["A", "B", "C"], edges)

    def test_mag_names_the_first_circle_edge(self):
        """``Mag`` refuses circles off the circle masks and names the first
        edge, in edge order, with a circle, as the per-edge scan did."""
        named = 0
        for g, edges, _ in _random_marked_graphs():
            want = next((f"circle mark in MAG edge {a!r}-{b!r}" for a, b, ma, mb, _ in g.edges() if CIRCLE in (ma, mb)), None)
            unflagged = [(a, b, ma, mb, False) for a, b, ma, mb, _ in edges]
            try:
                Mag(g.nodes, unflagged, validate=False)
            except ValueError as exc:
                assert str(exc) == want
                named += 1
            else:
                assert want is None
        assert named > 200


def test_pags_read_visibility_off_their_flags(monkeypatch):
    """A PAG and its subgraphs answer visibility and components from the
    flags the constructor completed, never from the graphical condition."""

    def refuse(*_):
        raise AssertionError("visibility recomputed on a PAG")

    pags = [make() for make in CATALOG_PAGS] + [_sampled_class(seed)[1] for seed in range(5)]
    # the binding that structure._visible_masks reads; Pag._settle reads
    # graphs' own, so building PAGs is left as it is
    monkeypatch.setattr(pagid.structure, "_graphical_visible", refuse)
    for pag in pags:
        for keep in (pag.nodes, pag.nodes[1:], pag.nodes[::2]):
            sub = induced_subgraph(pag, keep)
            assert flagged_edges(sub) == visible_edges(sub)
            pagid.structure.cpc_components(sub)
            pagid.structure.pc_component(sub, sub.nodes[:1])


def _table_reads(source):
    """Lines of ``source`` that read a graph's ``_masks``, ``_marks`` or ``_flags``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("_masks", "_marks", "_flags")
    )


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "graphs.py"), ids=lambda p: p.name
)
def test_only_graphs_reads_the_mask_table(path):
    """Outside graphs.py no module reads a graph's table but through
    ``adjacency_masks``, ``mark_masks`` and ``flag_masks``, so the table's
    layout is known in one module."""
    assert _table_reads(path.read_text(encoding="utf-8")) == []


def test_the_table_check_sees_reads():
    assert _table_reads("a = g._masks\nb = g._index\nc = g._flags[0]\nd = m._marks\n") == [1, 3, 4]


def _function_imports(source):
    """Lines of ``source`` that import inside a function body."""
    return sorted({
        node.lineno
        for func in ast.walk(ast.parse(source))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_inside_a_function(path):
    """Every module imports at its top, once, so no call pays for an import
    statement and the import graph is read off the module heads."""
    assert _function_imports(path.read_text(encoding="utf-8")) == []


def test_the_import_check_sees_nested_imports():
    source = "import a\ndef f():\n    from .b import c\n    def g():\n        import d\n"
    assert _function_imports(source) == [3, 5]


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
    the arc-to-latent decision stays in graphs.py."""
    assert _calls_and_latent_names(path.read_text(encoding="utf-8")) == []


def test_the_latent_check_sees_calls_and_names():
    source = 'd = graphs.LatentDag(o, l, e)\nname = f"L{k + 1}"\nnode = f"V{k + 1}"\nLatentDag(o, l, e)\n'
    assert _calls_and_latent_names(source) == [1, 2, 4]
