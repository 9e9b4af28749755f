"""Graph validity is settled where graphs are built.

``graphs.check_nodes`` holds the node rules of every graph kind; a ``Pag``
always refuses unclosed arrowheads and directed or almost directed cycles;
``pto`` checks closure only on mixed graphs that are not ``Pag``s; a dag
file's confounding arcs are edges, so only its observed nodes are capped.
"""

import inspect
import itertools

import numpy as np
import pytest

import pagid.structure
from pagid import catalog
from pagid.cli import ParseError, main, parse_graph
from pagid.graphs import (
    MAX_NODES,
    LatentDag,
    Mag,
    MixedGraph,
    Pag,
    ancestor_masks,
    ancestral_violation,
    induced_subgraph,
    mag_violation,
)
from pagid.oracle import equivalence_class, pag_of_class
from pagid.structure import pto
from pagid.verify import _sample_graph
from reference_paths import is_directed_edge

_KINDS = {"pag": Pag.from_specs, "mixed": MixedGraph.from_specs, "mag": Mag.from_specs,
          "dag": LatentDag.from_specs}


def _directed(kind: str) -> str:
    return "->" if kind == "dag" else "-->"


class TestNodeRules:
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_duplicate_names(self, kind):
        with pytest.raises(ValueError, match="duplicate node identifiers"):
            _KINDS[kind](["A", "B", "A"], [])

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_cap_counts_named_nodes(self, kind):
        names = [f"V{i + 1}" for i in range(MAX_NODES + 1)]
        _KINDS[kind](names[:-1], [])
        with pytest.raises(ValueError, match=f"exceeds the {MAX_NODES}-node cap"):
            _KINDS[kind](names, [])

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_lowercase_collision(self, kind):
        with pytest.raises(ValueError, match="'A' and 'a' collide when lowercased"):
            _KINDS[kind](["A", "a"], [f"A {_directed(kind)} a"])

    def test_dag_from_specs_collision(self):
        with pytest.raises(ValueError, match="collide when lowercased"):
            LatentDag.from_specs(["A", "a"], ["A -> a"])

    @pytest.mark.parametrize("kind", sorted(_KINDS.keys() - {"mixed"}))
    @pytest.mark.parametrize("nodes", [["A", "a"], ["A", "B", "A"], [f"V{i}" for i in range(13)]])
    def test_file_reports_the_constructor_error(self, kind, nodes):
        with pytest.raises(ValueError) as built:
            _KINDS[kind](nodes, [])
        with pytest.raises(ParseError) as parsed:
            parse_graph(f"{kind}\nnodes: {' '.join(nodes)}\n")
        assert str(parsed.value) == str(built.value)

    def test_edge_naming_a_node_missing_from_nodes_line(self):
        with pytest.raises(ParseError, match="'C' missing from nodes line"):
            parse_graph("pag\nnodes: A B\nedge: A --> C\n")


class TestLatentsAreArcs:
    def test_latents_do_not_count_toward_the_cap(self):
        nodes = [f"V{i + 1}" for i in range(MAX_NODES)]
        d = LatentDag.from_specs(nodes, [f"{a} <-> {b}" for a, b in itertools.combinations(nodes, 2)])
        assert len(d.latent) == MAX_NODES * (MAX_NODES - 1) // 2

    @pytest.mark.parametrize("arcs", [["A <-> B", "A <-> B"], ["A <-> B", "B <-> A"]])
    def test_repeated_arc_is_a_duplicate_edge(self, arcs):
        with pytest.raises(ValueError, match="duplicate edge"):
            LatentDag.from_specs(["A", "B"], arcs)

    def test_arc_beside_a_directed_edge_is_kept(self):
        d = LatentDag.from_specs(["A", "B"], ["A -> B", "A <-> B"])
        assert len(d.latent) == 1 and d.parents("B") == ("A", "U1")

    @pytest.fixture
    def complete_bidirected_12(self, tmp_path):
        nodes = [f"V{i + 1}" for i in range(12)]
        path = tmp_path / "complete.dag"
        path.write_text(
            "dag\nnodes: " + " ".join(nodes) + "\n"
            + "".join(f"edge: {a} <-> {b}\n" for a, b in itertools.combinations(nodes, 2))
        )
        return str(path)

    def test_id_dag_at_the_cap(self, complete_bidirected_12, capsys):
        code = main(["id-dag", "--graph", complete_bidirected_12, "--treat", "V1", "--outcome", "V12"])
        assert code == 0 and capsys.readouterr().out == "P(v12)\n"

    def test_components_at_the_cap(self, complete_bidirected_12, capsys):
        assert main(["components", "--graph", complete_bidirected_12]) == 0
        assert capsys.readouterr().out == "{" + ",".join(f"V{i + 1}" for i in range(12)) + "}\n"

    def test_pag_of_dag_hits_the_enumeration_guard(self, complete_bidirected_12, capsys):
        assert main(["pag-of-dag", "--graph", complete_bidirected_12]) == 1
        assert capsys.readouterr().err == "error: 66 edges exceeds the enumeration guard 10\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("dag\n" + "".join(f"edge: V{i} -> V{i + 1}\n" for i in range(1, 13)),
             "graph exceeds the 12-node cap"),
            ("dag\nedge: A <-> B\nedge: A -> B\nedge: B <-> A\n", "duplicate edge 'B'-'A'"),
        ],
    )
    def test_file_refusals(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.dag"
        path.write_text(text)
        assert main(["components", "--graph", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


_CYCLIC = {
    "directed cycle": ["A --> B", "B --> C", "C --> A"],
    "almost directed cycle at 'A'<->'C'": ["A --> B", "B --> C", "A <-> C"],
}


class TestPagValidity:
    def test_no_closure_knob(self):
        assert "check_closure" not in inspect.signature(Pag).parameters

    @pytest.mark.parametrize("message", sorted(_CYCLIC))
    def test_constructor_refuses_cycles(self, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Pag.from_specs(["A", "B", "C"], _CYCLIC[message])
        # the same ancestral half serves mag_violation
        assert mag_violation(MixedGraph.from_specs(["A", "B", "C"], _CYCLIC[message])) == message

    @pytest.mark.parametrize("command", ["idp", "gac", "components", "pto"])
    @pytest.mark.parametrize("message", sorted(_CYCLIC))
    def test_cyclic_files_exit_1(self, tmp_path, capsys, command, message):
        path = tmp_path / "cyclic.pag"
        path.write_text("pag\n" + "".join(f"edge: {spec}\n" for spec in _CYCLIC[message]))
        argv = [command, "--graph", str(path)]
        if command in ("idp", "gac"):
            argv += ["--treat", "A", "--outcome", "C"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_first_bidirected_edge_in_node_order_is_named(self):
        g = MixedGraph.from_specs(
            ["A", "B", "C", "D", "E", "F"],
            ["D --> E", "E --> F", "D <-> F", "A --> B", "B --> C", "C <-> A"],
        )
        assert ancestral_violation(g) == "almost directed cycle at 'A'<->'C'"

    def test_pto_checks_closure_only_off_pags(self, monkeypatch):
        pag = catalog.beyond_adjustment_pag()
        expected = pto(pag)

        def refuse(g):
            raise AssertionError("closure re-checked")

        monkeypatch.setattr(pagid.structure, "find_closure_violation", refuse)
        assert pto(pag) == expected
        assert pto(induced_subgraph(pag, pag.nodes[1:])).buckets
        with pytest.raises(AssertionError, match="re-checked"):
            pto(MixedGraph(pag.nodes, pag.edges()))


def _seeded_pags(count: int = 150, seed: int = 2024):
    rng = np.random.default_rng(seed)
    return [pag_of_class(equivalence_class(_sample_graph(rng)[1])) for _ in range(count)]


_CATALOG_PAGS = [
    catalog.two_treatment_pag(),
    catalog.confounded_chain_pag(),
    catalog.beyond_adjustment_pag(),
    catalog.circle_pair_pag(),
]


class TestNoFalseRefusal:
    """Every PAG of a class, and every induced subgraph of one, is accepted
    when it is rebuilt with the constructor."""

    def test_class_pags_and_their_subgraphs(self):
        pags = _seeded_pags() + _CATALOG_PAGS
        assert len(pags) >= 154
        rebuilt = 0
        for pag in pags:
            for k in range(len(pag.nodes) + 1):
                for keep in itertools.combinations(pag.nodes, k):
                    sub = induced_subgraph(pag, keep)
                    assert Pag(sub.nodes, sub.edges()) == sub
                    rebuilt += 1
        assert rebuilt > 3000

    def test_ancestor_table_from_edge_entries(self):
        for pag in _seeded_pags(30, seed=7) + _CATALOG_PAGS:
            for g in (pag, MixedGraph(pag.nodes, pag.edges())):
                parents = {v: {u for u in g.nodes if is_directed_edge(g, u, v)} for v in g.nodes}
                for i, v in enumerate(g.nodes):
                    closure, frontier = {v}, {v}
                    while frontier:
                        frontier = set().union(*(parents[w] for w in frontier)) - closure
                        closure |= frontier
                    mask = ancestor_masks(g)[i]
                    assert {u for j, u in enumerate(g.nodes) if mask >> j & 1} == closure
