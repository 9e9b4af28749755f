import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pagid.graphs import (
    ARROW,
    CIRCLE,
    MAX_NODES,
    TAIL,
    TOKEN_OF_MARKS,
    LatentDag,
    Mag,
    MixedGraph,
    Pag,
    ancestors_in,
    induced_subgraph,
    mag_of_dag,
    mag_violation,
    parse_edge,
    possible_ancestors,
)
from pagid.exprs import render_text
from pagid.ident_pag import Fail, idp
from pagid.oracle import random_latent_dag
import reference_paths
from reference_paths import is_visible


def brute_force_inducing_pairs(d):
    """Independent oracle: enumerate every simple path and test the inducing
    conditions directly (interior observed nodes are colliders and ancestors
    of an endpoint)."""
    arrows = {}
    neigh = {v: [] for v in d.nodes}
    for p, c in d.edges():
        neigh[p].append(c)
        neigh[c].append(p)
        arrows[(c, p)] = True
        arrows[(p, c)] = False
    latent = set(d.latent)
    pairs = set()
    for x, y in itertools.combinations(d.observed, 2):
        anc = set(ancestors_in(d, [x])) | set(ancestors_in(d, [y]))

        def paths(path):
            v = path[-1]
            if v == y:
                yield path
                return
            for w in neigh[v]:
                if w not in path:
                    yield from paths(path + [w])

        for path in paths([x]):
            ok = True
            for i in range(1, len(path) - 1):
                v = path[i]
                if v in latent:
                    continue
                collider = arrows[(v, path[i - 1])] and arrows[(v, path[i + 1])]
                if not collider or v not in anc:
                    ok = False
                    break
            if ok:
                pairs.add((x, y))
                break
    return pairs


def edge_map(g):
    return {(a, b): (ma, mb) for a, b, ma, mb, _ in g.edges()}


class TestMixedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            MixedGraph(["A"], [("A", "A", TAIL, ARROW, False)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            MixedGraph.from_specs(["A", "B"], ["A --> B", "B <-> A"])

    def test_rejects_visible_flag_on_circle_edge(self):
        with pytest.raises(ValueError, match="visible"):
            MixedGraph.from_specs(["A", "B"], ["A o-o B visible"])

    def test_marks_are_per_endpoint(self):
        g = MixedGraph.from_specs(["A", "B"], ["A o-> B"])
        assert g.mark_at("A", "B") is CIRCLE
        assert g.mark_at("B", "A") is ARROW

    def test_visible_flags_count_in_equality(self):
        # the flag changes the answer, so it must change equality too
        flagged = Pag(["X", "Y"], [parse_edge("pag", "X --> Y visible")])
        bare = Pag(["X", "Y"], [parse_edge("pag", "X --> Y")])
        assert render_text(idp(["X"], ["Y"], flagged)) == "P(y|x)"
        assert isinstance(idp(["X"], ["Y"], bare), Fail)
        assert flagged != bare and len({flagged, bare}) == 2
        assert flagged == Pag(["X", "Y"], [parse_edge("pag", "X --> Y visible")])
        assert hash(flagged) == hash(Pag(["X", "Y"], [parse_edge("pag", "X --> Y visible")]))


class TestLatentDagEquality:
    def test_confounding_arc_order_does_not_count(self):
        first = LatentDag.from_specs(["A", "B", "C"], ["A -> C", "A <-> B", "B <-> C"])
        second = LatentDag.from_specs(["A", "B", "C"], ["B <-> C", "A <-> B", "A -> C"])
        assert first.latent == second.latent and first.edges() != second.edges()
        assert first == second and hash(first) == hash(second)

    def test_structure_still_counts(self):
        base = LatentDag.from_specs(["A", "B", "C"], ["A -> C", "A <-> B"])
        assert base != LatentDag.from_specs(["A", "B", "C"], ["C -> A", "A <-> B"])
        assert base != LatentDag.from_specs(["A", "B", "C"], ["A -> C", "A <-> C"])

    def test_constructor_refuses_two_latents_over_one_pair(self):
        arcs = [("A", "C")] + [(u, v) for u in ("U1", "U2") for v in "AB"]
        with pytest.raises(ValueError, match="duplicate edge 'A'-'B'"):
            LatentDag(["A", "B", "C"], ["U1", "U2"], arcs)


class TestMixedGraphEquality:
    def test_node_order_does_not_count(self):
        specs = ["A --> B", "B <-> C"]
        first = Mag.from_specs(["A", "B", "C"], specs)
        second = Mag.from_specs(["C", "B", "A"], specs)
        assert first.nodes != second.nodes
        assert first == second and hash(first) == hash(second)
        pag = Pag.from_specs(["A", "B", "C"], ["A o-> B", "B <-> C"], check_visibility=False)
        assert pag == Pag.from_specs(["C", "B", "A"], ["B <-o A", "C <-> B"], check_visibility=False)

    def test_marks_at_their_endpoints_still_count(self):
        base = Pag.from_specs(["A", "B", "C"], ["A o-> B", "B <-> C"], check_visibility=False)
        flipped = Pag.from_specs(["C", "B", "A"], ["B o-> A", "B <-> C"], check_visibility=False)
        assert base != flipped
        assert Mag.from_specs(["A", "B"], ["A --> B"]) != Mag.from_specs(["B", "A"], ["B --> A"])


class TestInducedSubgraph:
    def test_chain_pag_subgraph_drops_inner_chain(self, chain_pag):
        sub = induced_subgraph(chain_pag, ["V1", "V2", "X", "V4"])
        assert edge_map(sub) == {
            ("V1", "X"): (CIRCLE, ARROW),
            ("V2", "X"): (CIRCLE, ARROW),
            ("X", "V4"): (TAIL, ARROW),
        }
        assert is_visible(sub, "X", "V4")  # flag carried verbatim

    def test_full_node_set_is_identity(self, twin_pag):
        assert induced_subgraph(twin_pag, twin_pag.nodes) == twin_pag

    def test_empty_selection(self, twin_pag):
        sub = induced_subgraph(twin_pag, [])
        assert sub.nodes == () and sub.edges() == ()

    def test_unknown_node_rejected(self, chain_pag):
        with pytest.raises(ValueError, match="unknown"):
            induced_subgraph(chain_pag, ["V1", "W"])

    def test_latent_dag_keeps_fully_contained_latents(self, chain_dag):
        sub = induced_subgraph(chain_dag, ["V2", "X", "V3"])
        assert set(sub.observed) == {"V2", "X", "V3"}
        assert len(sub.latent) == 1  # the V2<->X confounder survives, V3<->V4 dies
        assert set(sub.edges()) >= {("V2", "X"), ("X", "V3")}

    @given(st.integers(0, 500), st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, seed, mask):
        d = random_latent_dag(seed, 5, 2, 0.4)
        keep = [v for i, v in enumerate(d.observed) if mask >> i & 1]
        once = induced_subgraph(d, keep)
        twice = induced_subgraph(once, keep)
        assert once == twice


class TestPossibleAncestors:
    def test_twin_outcomes_are_their_own_closure(self, twin_pag):
        sub = induced_subgraph(twin_pag, ["V1", "V2", "Y1", "Y2", "Y3"])
        assert possible_ancestors(sub, ["Y1", "Y2", "Y3"]) == ("Y1", "Y2", "Y3")

    def test_ring_pag_minus_treatment(self, ring_pag):
        # Frozen from the brute-force potentially-directed path oracle below.
        keep = [v for v in ring_pag.nodes if v != "X"]
        sub = induced_subgraph(ring_pag, keep)
        assert possible_ancestors(sub, ["Y"]) == ("V2", "V4", "Z", "Y")

    def test_singleton(self):
        g = MixedGraph(["A"], [])
        assert possible_ancestors(g, ["A"]) == ("A",)

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_matches_path_enumeration_oracle(self, seed):
        from pagid.oracle import class_of_dag

        d = random_latent_dag(seed, 4, 2, 0.4)
        _, pag = class_of_dag(d)
        for y in pag.nodes:
            expected = set()
            for x in pag.nodes:
                if x == y:
                    continue
                for path in _simple_paths(pag, x, y):
                    if all(
                        pag.mark_at(path[i], path[i + 1]) is not ARROW
                        for i in range(len(path) - 1)
                    ):
                        expected.add(x)
                        break
            assert set(possible_ancestors(pag, [y])) == expected | {y}


def _simple_paths(g, x, y):
    def step(path):
        v = path[-1]
        if v == y:
            yield path
            return
        for w in g.neighbors(v):
            if w not in path:
                yield from step(path + [w])

    yield from step([x])


class TestMagOfDag:
    def test_plain_dag_projects_to_itself(self):
        d = LatentDag.from_specs(["A", "B", "C"], ["A -> B", "B -> C"])
        m = mag_of_dag(d)
        assert edge_map(m) == {("A", "B"): (TAIL, ARROW), ("B", "C"): (TAIL, ARROW)}

    def test_single_confounded_pair(self):
        d = LatentDag.from_specs(["A", "B"], ["A <-> B"])
        m = mag_of_dag(d)
        assert edge_map(m) == {("A", "B"): (ARROW, ARROW)}

    def test_confounded_chain_projection(self, chain_dag):
        # Frozen from brute_force_inducing_pairs: the confounder V3 <-> V4
        # makes X - V4 adjacent through the collider V3.
        assert brute_force_inducing_pairs(chain_dag) == {
            ("V1", "X"),
            ("V2", "X"),
            ("X", "V3"),
            ("X", "V4"),
            ("V3", "V4"),
        }
        m = mag_of_dag(chain_dag)
        assert edge_map(m) == {
            ("V1", "X"): (TAIL, ARROW),
            ("V2", "X"): (TAIL, ARROW),
            ("X", "V3"): (TAIL, ARROW),
            ("X", "V4"): (TAIL, ARROW),
            ("V3", "V4"): (TAIL, ARROW),
        }

    @given(st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_projection_is_a_valid_mag_with_oracle_adjacencies(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        d = random_latent_dag(rng, int(rng.integers(2, 7)), int(rng.integers(0, 4)), 0.4)
        m = mag_of_dag(d)
        assert mag_violation(m) is None
        assert {(a, b) for a, b, *_ in m.edges()} == brute_force_inducing_pairs(d)


class TestValidation:
    def test_mag_rejects_directed_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            Mag.from_specs(["A", "B", "C"], ["A --> B", "B --> C", "C --> A"])

    def test_mag_rejects_almost_directed_cycle(self):
        with pytest.raises(ValueError, match="almost directed"):
            Mag.from_specs(["A", "B", "C"], ["A --> B", "B --> C", "A <-> C"])

    def test_mag_rejects_missing_inducing_edge(self):
        # A <-> B <-> C <-> D with B an ancestor of D and C an ancestor of A
        # is an inducing path, so non-adjacent A, D violate maximality.
        with pytest.raises(ValueError, match="inducing"):
            Mag.from_specs(
                ["A", "B", "C", "D", "E", "F"],
                [
                    "A <-> B",
                    "B <-> C",
                    "C <-> D",
                    "B --> E",
                    "E --> D",
                    "C --> F",
                    "F --> A",
                ],
            )

    def test_pag_closure_violation_rejected(self):
        # A *-> B o-o C with A, C adjacent needs an arrowhead at C.
        with pytest.raises(ValueError, match="closure"):
            Pag.from_specs(
                ["A", "B", "C"],
                ["A --> B", "B o-o C", "A o-o C"],
                check_visibility=False,
            )

    @pytest.mark.parametrize("spec,edge", [("A --o B", "'A' --o 'B'"), ("A o-- B", "'B' --o 'A'")])
    def test_pag_refuses_a_tail_facing_a_circle(self, spec, edge):
        # no MAG has an undirected edge, so a tail shared by a whole class
        # faces an arrowhead; a bare mixed graph keeps the marks as given
        specs = [spec, "B --> C"]
        with pytest.raises(ValueError) as refused:
            Pag.from_specs(["A", "B", "C"], specs)
        assert str(refused.value) == f"tail facing a circle in edge {edge}"
        marks = {(a, b): (ma, mb) for a, b, ma, mb, _ in MixedGraph.from_specs(["A", "B", "C"], specs).edges()}
        assert marks[("A", "B")] == ((TAIL, CIRCLE) if spec == "A --o B" else (CIRCLE, TAIL))

    def test_pag_visibility_cross_check(self):
        with pytest.raises(ValueError, match="visibility"):
            Pag.from_specs(["A", "B"], ["A --> B visible"])

    def test_latent_needs_exactly_two_children(self):
        with pytest.raises(ValueError, match="two observed children"):
            LatentDag(["A", "B"], ["U"], [("U", "A")])

    def test_node_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            MixedGraph([f"N{i}" for i in range(13)], [])

    @pytest.mark.parametrize(
        "latent, arcs, message",
        [
            ([], [("A", "Q")], "unknown node in edge 'A'->'Q'"),
            ([], [("A", "A")], "bad edge 'A'->'A'"),
            ([], [("A", "B"), ("B", "A")], "bad edge 'B'->'A'"),
            ([], [("A", "B"), ("A", "B")], "bad edge 'A'->'B'"),
            (["U"], [("A", "U"), ("U", "B"), ("U", "C")], "latent 'U' has parents"),
            (["U", "W"], [("U", "A"), ("U", "W"), ("W", "B"), ("W", "C")],
             "latent 'U' must have exactly two observed children"),
            (["U"], [("U", "A"), ("U", "B"), ("U", "C")], "latent 'U' must have exactly two observed children"),
            (["U", "W"], [("U", "A"), ("U", "C"), ("W", "C"), ("W", "A")], "duplicate edge 'C'-'A'"),
            ([], [("A", "B"), ("B", "C"), ("C", "A")], "cycle in DAG"),
        ],
    )
    def test_latent_dag_constructor_messages(self, latent, arcs, message):
        with pytest.raises(ValueError) as err:
            LatentDag(["A", "B", "C"], latent, arcs)
        assert str(err.value) == message


POOL = [f"{head}{k}" for head in "ABVXYZ" for k in range(1, 4)]


def _shuffled_dag(rng):
    """(observed, latent, arcs) of a random DAG over 1-12 observed nodes
    with up to four latent pairs, its node lists and arcs shuffled."""
    n = int(rng.integers(1, MAX_NODES + 1))
    names = [POOL[i] for i in rng.choice(len(POOL), size=n, replace=False)]
    rank, prob = rng.permutation(n), float(rng.uniform(0.1, 0.7))
    arcs = [(a, b) for (i, a), (j, b) in itertools.permutations(enumerate(names), 2)
            if rank[i] < rank[j] and rng.random() < prob]
    pairs = list(itertools.combinations(names, 2))
    latent = [f"U{k}" for k in range(int(rng.integers(0, min(4, len(pairs)) + 1)))]
    for u, pick in zip(latent, rng.permutation(len(pairs))):
        arcs += [(u, pairs[pick][0]), (u, pairs[pick][1])]
    shuffle = lambda items: [items[i] for i in rng.permutation(len(items))]  # noqa: E731
    return shuffle(names), shuffle(latent), shuffle(arcs)


class TestOneAdjacency:
    """Every name-level query reads the one mask table: it must give what
    the name-keyed lists it replaced gave (``reference_paths``)."""

    def test_dag_order_and_lists_match_the_name_keyed_reference(self):
        rng = np.random.default_rng(23)
        sizes, latents = set(), set()
        for _ in range(300):
            observed, latent, arcs = _shuffled_dag(rng)
            d = LatentDag(observed, latent, arcs)
            sizes.add(len(observed))
            latents.add(len(latent))
            parent_lists, child_lists = reference_paths.dag_lists(d)
            assert d.topological_order() == reference_paths.kahn_order(d)
            assert {v: list(d.parents(v)) for v in d.nodes} == parent_lists
            assert {v: list(d.children(v)) for v in d.nodes} == child_lists
        assert sizes == set(range(1, MAX_NODES + 1)) and latents == set(range(5))

    def test_neighbours_match_the_name_keyed_reference(self):
        rng = np.random.default_rng(29)
        marks = list(TOKEN_OF_MARKS)
        for _ in range(300):
            observed, latent, arcs = _shuffled_dag(rng)
            pairs = {frozenset(arc) for arc in arcs if arc[0] in observed}
            pairs |= {frozenset(c for u, c in arcs if u == lat) for lat in latent}
            edges = [(*sorted(pair), *marks[rng.integers(len(marks))], False) for pair in pairs]
            g = MixedGraph(observed, edges)
            assert {v: list(g.neighbors(v)) for v in g.nodes} == reference_paths.neighbor_lists(g)
            sub = induced_subgraph(g, [v for v in observed if rng.random() < 0.7])
            assert {v: list(sub.neighbors(v)) for v in sub.nodes} == reference_paths.neighbor_lists(sub)
