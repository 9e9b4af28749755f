import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_paths import possible_children
from pagid.graphs import ARROW, Mag, MixedGraph, Pag, induced_subgraph
from pagid.oracle import class_of_dag, random_latent_dag
from pagid.structure import (
    buckets,
    cpc_components,
    dc_component,
    graphical_visible_edges,
    pc_component,
    pto,
    visible_edges,
)


class TestVisibleEdges:
    def test_chain_pag(self, chain_pag):
        assert graphical_visible_edges(chain_pag) == {("X", "V3"), ("X", "V4")}

    def test_twin_pag(self, twin_pag):
        assert graphical_visible_edges(twin_pag) == {("X1", "Y1"), ("X2", "Y3")}

    def test_two_node_edge_is_never_visible(self):
        g = MixedGraph.from_specs(["A", "B"], ["A --> B"])
        assert graphical_visible_edges(g) == frozenset()

    def test_collider_path_certificate(self):
        # C *-> D <-> A -> B with D a parent of B and C not adjacent to B:
        # the collider path C -> D <-> A certifies A -> B visible.
        m = Mag.from_specs(
            ["C", "D", "A", "B"],
            ["C --> D", "D <-> A", "A --> B", "D --> B"],
        )
        assert ("A", "B") in graphical_visible_edges(m)

    def test_flags_dominate_on_subgraphs(self, chain_pag):
        sub = induced_subgraph(chain_pag, ["X", "V3", "V4"])
        # the graphical witnesses V1, V2 are gone, but visibility persists
        assert graphical_visible_edges(sub) == frozenset()
        assert visible_edges(sub) == {("X", "V3"), ("X", "V4")}

    def test_subgraph_retains_every_visible_edge(self, ring_pag):
        full = visible_edges(ring_pag)
        for r in range(2, len(ring_pag.nodes)):
            for keep in itertools.combinations(ring_pag.nodes, r):
                sub = induced_subgraph(ring_pag, ring_pag.sort_nodes(keep))
                expected = {(a, b) for a, b in full if a in keep and b in keep}
                assert expected <= visible_edges(sub)


class TestBuckets:
    def test_chain_pag(self, chain_pag):
        assert buckets(chain_pag) == (("V1",), ("V2",), ("X",), ("V3", "V4"))

    def test_subgraph_all_singletons(self, chain_pag):
        sub = induced_subgraph(chain_pag, ["V1", "V2", "X", "V4"])
        assert buckets(sub) == (("V1",), ("V2",), ("X",), ("V4",))

    def test_no_circle_edges_means_singletons(self, twin_pag):
        assert all(len(b) == 1 for b in buckets(twin_pag))


class TestPto:
    def test_subgraph_order(self, chain_pag):
        sub = induced_subgraph(chain_pag, ["V1", "V2", "X", "V4"])
        assert pto(sub).buckets == (("V1",), ("V2",), ("X",), ("V4",))

    def test_chain_pag_order(self, chain_pag):
        assert pto(chain_pag).buckets == (("V1",), ("V2",), ("X",), ("V3", "V4"))

    def test_single_node(self):
        assert pto(MixedGraph(["A"], [])).buckets == (("A",),)

    def test_malformed_input_raises(self):
        cyclic = MixedGraph.from_specs(
            ["A", "B", "C"], ["A --> B", "B --> C", "C --> A"]
        )
        with pytest.raises(ValueError, match="extractable"):
            pto(cyclic)

    def test_closure_violation_rejected(self):
        # A *-> B o-o C with A, C adjacent needs an arrowhead at C; a Pag
        # refuses it when built, so pto checks every other mixed graph.
        unchecked = MixedGraph.from_specs(["A", "B", "C"], ["A --> B", "B o-o C", "A o-o C"])
        with pytest.raises(ValueError, match="closure"):
            pto(unchecked)

    def test_arrowheads_never_point_backwards(self, ring_pag):
        order = pto(ring_pag)
        pos = {v: order.position(v) for v in ring_pag.nodes}
        for a, b, ma, mb, _ in ring_pag.edges():
            if pos[a] == pos[b]:
                continue
            if mb is ARROW and ma is not ARROW:
                assert pos[a] < pos[b]
            if ma is ARROW and mb is not ARROW:
                assert pos[b] < pos[a]

    @given(st.integers(0, 400))
    @settings(max_examples=25, deadline=None)
    def test_relabeling_preserves_partition_and_validity(self, seed):
        d = random_latent_dag(seed, 4, 2, 0.45)
        _, pag = class_of_dag(d)
        mapping = {v: f"W{i + 1}" for i, v in enumerate(pag.nodes)}
        renamed = Pag(
            [mapping[v] for v in pag.nodes],
            [(mapping[a], mapping[b], ma, mb, vis) for a, b, ma, mb, vis in pag.edges()],
        )
        original_mapped = {frozenset(mapping[v] for v in b) for b in pto(pag).buckets}
        renamed_parts = {frozenset(b) for b in pto(renamed).buckets}
        assert original_mapped == renamed_parts


class TestComponents:
    def test_pc_component_twin_seed_y3_reaches_everything(self, twin_pag):
        assert pc_component(twin_pag, ["Y3"]) == twin_pag.nodes

    def test_pc_component_excludes_visible_children(self, chain_pag):
        sub = induced_subgraph(chain_pag, ["V1", "V2", "X", "V4"])
        assert pc_component(sub, ["X"]) == ("V1", "V2", "X")

    def test_pc_component_isolated_seed(self):
        g = MixedGraph(["A", "B"], [])
        assert pc_component(g, ["A"]) == ("A",)

    def test_dc_component_bidirected_closure(self, twin_pag):
        assert dc_component(twin_pag, ["X1"]) == ("X1", "X2", "Y1", "Y2", "Y3")

    def test_dc_component_without_bidirected_edges(self, chain_pag):
        assert dc_component(chain_pag, ["X"]) == ("X",)

    def test_dc_inside_pc(self, ring_pag, twin_pag, chain_pag):
        for g in (ring_pag, twin_pag, chain_pag):
            for v in g.nodes:
                assert set(dc_component(g, [v])) <= set(pc_component(g, [v]))

    def test_cpc_components_chain_subgraph(self, chain_pag):
        sub = induced_subgraph(chain_pag, ["V1", "V2", "X", "V4"])
        assert cpc_components(sub) == (("V1", "V2", "X"), ("V4",))

    def test_cpc_components_twin_outcomes(self, twin_pag):
        sub = induced_subgraph(twin_pag, ["Y1", "Y2", "Y3"])
        assert cpc_components(sub) == (("Y1", "Y2"), ("Y3",))

    def test_cpc_closes_the_chain_of_circles(self):
        g = Pag.from_specs(["V1", "V2", "V3"], ["V1 o-o V2", "V2 o-o V3"])
        assert set(pc_component(g, ["V1"])) == {"V1", "V2"}
        assert cpc_components(g) == (("V1", "V2", "V3"),)

    @given(st.integers(0, 400))
    @settings(max_examples=20, deadline=None)
    def test_pc_component_matches_bounded_walk_search(self, seed):
        d = random_latent_dag(seed, 4, 2, 0.45)
        _, pag = class_of_dag(d)
        vis = visible_edges(pag)
        limit = 2 * len(pag.nodes)
        for s in pag.nodes:
            # dynamic programming over (previous, current) walk states
            states = set()
            frontier = set()
            for w in pag.neighbors(s):
                if (s, w) not in vis and (w, s) not in vis:
                    frontier.add((s, w))
            reached = {s} | {w for _, w in frontier}
            for _ in range(limit):
                nxt = set()
                for prev, cur in frontier:
                    for w in pag.neighbors(cur):
                        if w == prev:
                            continue
                        if (cur, w) in vis or (w, cur) in vis:
                            continue
                        if not (
                            pag.mark_at(cur, prev) is ARROW
                            and pag.mark_at(cur, w) is ARROW
                        ):
                            continue
                        if (cur, w) not in states:
                            nxt.add((cur, w))
                states |= frontier
                frontier = nxt
                reached |= {w for _, w in frontier}
            assert set(pc_component(pag, [s])) == reached


class TestPossibleChildren:
    def test_chain_pag_treatment(self, chain_pag):
        assert possible_children(chain_pag, ["X"]) == ("V3", "V4")

    def test_circle_mark_counts(self, chain_pag):
        sub = induced_subgraph(chain_pag, ["V1", "V2", "X", "V4"])
        assert possible_children(sub, ["V1"]) == ("X",)

    def test_sink_has_none(self, twin_pag):
        assert possible_children(twin_pag, ["Y2"]) == ()
