"""Differential tests: the reachability-kernel searches and the pruned
definite-status path search against the simple-path reference oracles in
``reference_paths``, plus known answers at the 12-node cap.

Graphs come from the verification pipeline's sampler, the catalog and four
synthetic density families (complete bidirected, bidirected chain and cycle,
circle clique).
"""

import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_paths as ref
from conftest import wide_latent_dag
from pagid import catalog, graphs, oracle, separation
from pagid.adjustment import Fail, gac
from pagid.cli import main, serialize_graph
from pagid.graphs import (
    ARROW,
    CIRCLE,
    TAIL,
    LatentDag,
    Mag,
    MixedGraph,
    Pag,
    ancestral_violation,
    find_closure_violation,
    induced_subgraph,
    mag_of_dag,
    mag_violation,
    sliced_walk,
)
from pagid.oracle import equivalence_class, pag_of_class
from pagid.separation import d_separated, definitely_m_separated, m_separated, proper_paths
from pagid.structure import _ScopeRows, cpc_components, graphical_visible_edges, pc_component, visible_edges
from pagid.verify import _sample_graph

FAMILIES = ("complete_bidirected", "bidirected_chain", "bidirected_cycle", "circle_clique")


def _pairs(family, nodes):
    if family == "bidirected_chain":
        return list(zip(nodes, nodes[1:]))
    if family == "bidirected_cycle":
        return list(zip(nodes, nodes[1:] + nodes[:1]))
    return list(itertools.combinations(nodes, 2))


def ladder_pag(family, n):
    nodes = [f"V{i + 1}" for i in range(n)]
    token = "o-o" if family == "circle_clique" else "<->"
    return Pag.from_specs(nodes, [f"{a} {token} {b}" for a, b in _pairs(family, nodes)])


def ladder_dag(family, n):
    nodes = [f"V{i + 1}" for i in range(n)]
    token = "->" if family == "circle_clique" else "<->"
    return LatentDag.from_specs(nodes, [f"{a} {token} {b}" for a, b in _pairs(family, nodes)])


def ladder(max_n, families=FAMILIES):
    return [(f, n) for f in families for n in range(4, max_n + 1)]


def draw(seed):
    """A latent DAG and its MAG as the verification pipeline samples them."""
    return _sample_graph(np.random.default_rng(seed))


def catalog_pags():
    return [
        catalog.two_treatment_pag(),
        catalog.confounded_chain_pag(),
        catalog.beyond_adjustment_pag(),
        catalog.circle_pair_pag(),
    ]


def catalog_dags():
    return [catalog.confounded_chain_dag(), catalog.confounded_chain_dag_alt(), catalog.bow_dag()]


def separation_queries(nodes):
    """Every singleton pair with every conditioning subset of the rest."""
    for x, y in itertools.combinations(nodes, 2):
        rest = [v for v in nodes if v not in (x, y)]
        for r in range(len(rest) + 1):
            for z in itertools.combinations(rest, r):
                yield [x], [y], z


def set_queries(rng, nodes, count):
    """Random disjoint multi-node xs, ys and a conditioning set from the rest."""
    for _ in range(count):
        perm = [nodes[i] for i in rng.permutation(len(nodes))]
        n_x = int(rng.integers(1, max(2, len(nodes) // 2)))
        n_y = int(rng.integers(1, len(nodes) - n_x + 1))
        rest = perm[n_x + n_y:]
        yield perm[:n_x], perm[n_x:n_x + n_y], [v for v in rest if rng.random() < 0.5]


def assert_components_match(g):
    vis = visible_edges(g)
    assert graphical_visible_edges(g) == ref.graphical_visible_edges(g)
    for v in g.nodes:
        assert set(pc_component(g, [v])) == ref.pc_component(g, [v], vis)
    assert {frozenset(c) for c in cpc_components(g)} == ref.cpc_components(g, vis)


def walked(adj, starts, collider, noncollider):
    """The nodes that one slice of ``sliced_walk`` enters from ``starts``,
    as a mask, with the colliders allowed in the mask ``collider`` and the
    non-colliders in ``noncollider``."""
    n = len(adj)
    entered = sliced_walk(
        adj, starts, 1, [collider >> w & 1 for w in range(n)], [noncollider >> w & 1 for w in range(n)]
    )
    return sum(1 << w for w, slices in enumerate(entered) if slices)


def kernel_graphs(rng, count):
    """``count`` random latent DAGs of 1-12 observed nodes, each with its MAG
    and that MAG read as a PAG, then 30 seeded class PAGs, whose circles the
    others lack."""
    for _ in range(count):
        d = wide_latent_dag(rng, int(rng.integers(1, 13)), rng.uniform(0.1, 0.7))
        m = mag_of_dag(d)
        yield from (d, m, Pag(m.nodes, m.edges()))
    for seed in range(30):
        yield pag_of_class(equivalence_class(draw(seed)[1]))


def random_mask(rng, n):
    """A mask over ``n`` bits, each set with one probability drawn per mask."""
    density = rng.random()
    return sum(1 << w for w in range(n) if rng.random() < density)


class TestSeparation:
    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_m_separated_matches_reference_on_drawn_mags(self, seed):
        d, m = draw(seed)
        members = equivalence_class(m)
        rng = np.random.default_rng(seed)
        for g in (m, *members[:3]):
            for xs, ys, zs in separation_queries(g.nodes):
                assert m_separated(g, xs, ys, zs) == ref.m_separated(g, xs, ys, zs)
            if len(g.nodes) >= 3:
                for xs, ys, zs in set_queries(rng, list(g.nodes), 20):
                    assert m_separated(g, xs, ys, zs) == ref.m_separated(g, xs, ys, zs)

    @pytest.mark.parametrize("family,n", ladder(6, FAMILIES[:1]) + ladder(8, FAMILIES[1:3]))
    def test_m_separated_matches_reference_on_ladder(self, family, n):
        g = ladder_pag(family, n)
        for xs, ys, zs in separation_queries(g.nodes):
            assert m_separated(g, xs, ys, zs) == ref.m_separated(g, xs, ys, zs)

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_d_separated_matches_reference_on_drawn_dags(self, seed):
        d, _ = draw(seed)
        rng = np.random.default_rng(seed)
        for xs, ys, zs in separation_queries(d.observed):
            assert d_separated(d, xs, ys, zs) == ref.d_separated(d, xs, ys, zs)
        if len(d.observed) >= 3:
            for xs, ys, zs in set_queries(rng, list(d.observed), 20):
                assert d_separated(d, xs, ys, zs) == ref.d_separated(d, xs, ys, zs)

    def test_d_separated_matches_reference_on_catalog_and_ladder(self):
        dags = catalog_dags() + [ladder_dag(f, n) for f, n in ladder(5)]
        dags += [ladder_dag(f, n) for f, n in ladder(7, FAMILIES[1:])]
        for d in dags:
            for xs, ys, zs in separation_queries(d.observed):
                assert d_separated(d, xs, ys, zs) == ref.d_separated(d, xs, ys, zs)

    def test_walks_open_colliders_in_z_as_in_its_ancestors(self):
        """One slice of ``sliced_walk`` with the colliders open in Z against
        the reference ``reach`` with them open in An(Z), from every node, on
        200 random latent DAGs of 1-12 observed nodes and their MAGs: every
        Z where the graph has at most 9 nodes, latents included, and 30
        random Z per source above that (~7 s on a 2-core x86 host)."""
        rng = np.random.default_rng(37)
        exhaustive = 0
        for _ in range(200):
            d = wide_latent_dag(rng, int(rng.integers(1, 13)), rng.uniform(0.1, 0.7))
            for g in (d, mag_of_dag(d)):
                n = len(g.nodes)
                adj, an = graphs.adjacency_masks(g), ref.ancestor_table(g)
                exhaustive += n <= 9
                zs = range(1 << n) if n <= 9 else [int(z) for z in rng.integers(0, 1 << n, 30)]
                for i in range(n):
                    for z in zs:
                        z &= ~(1 << i)
                        reached, _ = ref.reach_opening_ancestors(g, 1 << i, z, an)
                        assert walked(adj, 1 << i, z, ~z) == reached | 1 << i
        assert exhaustive > 100

    def test_overlapping_sets_are_refused(self):
        g = Mag.from_specs(["A", "B"], ["A --> B"])
        with pytest.raises(ValueError, match="overlapping"):
            m_separated(g, ["A"], ["A", "B"], [])


def gac_outcome(p, xs, ys):
    """``gac`` in the reference oracle's shape: ("set", z) or (reason, path)."""
    result = gac(xs, ys, p)
    return (result.reason, result.path) if isinstance(result, Fail) else ("set", result)


def assert_definite_paths_match(g, rng, sample=False):
    """``proper_paths``, ``gac`` and ``definitely_m_separated`` against the
    references on ordered singleton pairs, each with every conditioning set,
    and on random multi-node sets.  With ``sample``, 12 random pairs each
    with one random conditioning set, and fewer multi-node sets, stand in."""
    nodes = list(g.nodes)
    pairs = list(itertools.permutations(nodes, 2))
    if sample:
        pairs = [pairs[i] for i in rng.choice(len(pairs), 12, replace=False)]
        queries = [([a], [b], [v for v in nodes if v not in (a, b) and rng.random() < 0.5])
                   for a, b in pairs]
    else:
        queries = list(separation_queries(nodes))
    random_sets = list(set_queries(rng, nodes, 4 if sample else 10)) if len(nodes) >= 3 else []
    for xs, ys in [([a], [b]) for a, b in pairs] + [(xs, ys) for xs, ys, _ in random_sets]:
        assert list(proper_paths(g, xs, ys, lambda path, w: True)) == ref.proper_simple_paths(g, xs, ys)
        assert gac_outcome(g, xs, ys) == ref.gac(xs, ys, g)
    for xs, ys, zs in queries + random_sets:
        assert definitely_m_separated(g, xs, ys, zs) == ref.definitely_m_separated(g, xs, ys, zs)


class TestDefiniteStatusPaths:
    def test_match_reference_on_drawn_classes(self):
        for seed in range(30):
            _, m = draw(seed)
            assert_definite_paths_match(pag_of_class(equivalence_class(m)), np.random.default_rng(seed))

    def test_match_reference_on_catalog_subgraphs(self):
        rng = np.random.default_rng(0)
        for g in catalog_pags():
            for r in range(2, len(g.nodes) + 1):
                for keep in itertools.combinations(g.nodes, r):
                    assert_definite_paths_match(induced_subgraph(g, keep), rng)

    @pytest.mark.parametrize("family,n", ladder(8))
    def test_match_reference_on_ladder(self, family, n):
        assert_definite_paths_match(ladder_pag(family, n), np.random.default_rng(n), sample=n > 6)


class TestProjectionAndValidation:
    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_mag_of_dag_matches_reference(self, seed):
        d, m = draw(seed)
        assert tuple((a, b, ma, mb) for a, b, ma, mb, _ in m.edges()) == ref.mag_of_dag_edges(d)

    def test_mag_of_dag_matches_reference_on_catalog_and_ladder(self):
        dags = catalog_dags() + [ladder_dag(f, n) for f, n in ladder(5)]
        dags += [ladder_dag(f, n) for f, n in ladder(8, FAMILIES[1:])]
        for d in dags:
            got = tuple((a, b, ma, mb) for a, b, ma, mb, _ in mag_of_dag(d).edges())
            assert got == ref.mag_of_dag_edges(d)

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_mag_violation_matches_reference_on_random_marks(self, seed):
        # random tail/arrow assignments over a drawn skeleton: cyclic,
        # almost-cyclic, non-maximal and valid graphs alike
        _, m = draw(seed)
        rng = np.random.default_rng(seed)
        options = ((TAIL, ARROW), (ARROW, TAIL), (ARROW, ARROW))
        for _ in range(30):
            edges = [
                (a, b, *options[int(rng.integers(3))], False) for a, b, *_ in m.edges()
            ]
            g = MixedGraph(m.nodes, edges)
            assert mag_violation(g) == ref.mag_violation(g)

    def test_mag_violation_matches_reference_on_ladder(self):
        for family, n in ladder(8, FAMILIES[:3]):
            g = ladder_pag(family, n)
            assert mag_violation(g) == ref.mag_violation(g)

    def test_maximality_matches_the_walk_per_pair(self):
        # random marks reach the maximality test rarely, the planted graphs
        # mostly; the first pair named must agree as well
        non_maximal = 0
        for g in itertools.chain(random_marked_graphs(), planted_inducing_graphs()):
            got = mag_violation(g)
            assert got == ref.kernel_mag_violation(g), g
            non_maximal += got is not None and got.startswith("inducing path")
        assert non_maximal > 300

    @pytest.mark.parametrize("n", range(7, 13))
    def test_mag_of_dag_matches_reference_at_seven_to_twelve_nodes(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            d = wide_latent_dag(rng, n, 3 / n)
            got = tuple((a, b, ma, mb) for a, b, ma, mb, _ in mag_of_dag(d).edges())
            assert got == ref.mag_of_dag_edges(d), d

    def test_closure_violation_matches_reference_on_random_marks(self):
        found, directed_only = 0, 0
        for g in random_marked_graphs():
            expected = ref.find_closure_violation(g)
            assert find_closure_violation(g) == expected
            if expected is not None:
                a, b, c = expected
                found += 1
                directed_only += g.mark_at(c, a) is ARROW
        # 669 violations, 72 of them of the A -> B rule alone
        assert found > 500 and directed_only > 20

    def test_closure_violation_matches_reference_on_subgraphs(self):
        for sub in small_subgraphs():
            assert find_closure_violation(sub) is ref.find_closure_violation(sub) is None


def random_marked_graphs():
    """1,500 random marks over random skeletons of 2-12 nodes in shuffled
    node order, circles from rare to common: valid graphs, graphs that break
    the arrowhead rule and graphs that break only the A -> B rule, cyclic
    and almost cyclic graphs among them.  A pair drawn with a tail at both
    ends, which no mixed graph takes, is left non-adjacent."""
    rng = np.random.default_rng(19)
    marks = (TAIL, ARROW, CIRCLE)
    for _ in range(1500):
        n = int(rng.integers(2, 13))
        nodes = [f"V{i}" for i in rng.permutation(n) + 1]
        density, circles = rng.random(), rng.random() * 0.6
        weights = [(1 - circles) / 2, (1 - circles) / 2, circles]
        edges = [
            (a, b, *(marks[i] for i in rng.choice(3, 2, p=weights)), False)
            for a, b in itertools.combinations(nodes, 2) if rng.random() < density
        ]
        yield MixedGraph(nodes, [e for e in edges if e[2:4] != (TAIL, TAIL)])


def planted_inducing_graphs():
    """500 ancestral-leaning graphs of 4-12 nodes, each with a planted
    inducing path a <-> d <-> c <-> b, c -> a and d -> b, between the
    non-adjacent a and b: edges point forward in a random causal order, so
    only a bidirected edge between an ancestor pair spoils ancestrality."""
    rng = np.random.default_rng(23)
    for _ in range(500):
        n = int(rng.integers(4, 13))
        order = [f"V{i}" for i in rng.permutation(n) + 1]
        c, d, a, b = (order[k] for k in sorted(rng.choice(n, 4, replace=False)))
        planted = {
            frozenset((c, a)): (c, a, TAIL, ARROW, False),
            frozenset((d, b)): (d, b, TAIL, ARROW, False),
            frozenset((a, d)): (a, d, ARROW, ARROW, False),
            frozenset((c, b)): (c, b, ARROW, ARROW, False),
            frozenset((c, d)): (c, d, ARROW, ARROW, False),
            frozenset((a, b)): None,
        }
        density, bidirected = rng.uniform(0.1, 0.4), rng.uniform(0.2, 0.6)
        edges = []
        for u, v in itertools.combinations(order, 2):
            key = frozenset((u, v))
            if key in planted:
                if planted[key]:
                    edges.append(planted[key])
            elif rng.random() < density:
                edges.append((u, v, ARROW if rng.random() < bidirected else TAIL, ARROW, False))
        yield MixedGraph(sorted(order, key=lambda v: int(v[1:])), edges)


def small_subgraphs():
    """Every induced subgraph of at most 7 nodes of 20 seeded class PAGs, the
    catalog PAGs and the ladder PAGs of 4-8 nodes."""
    pags = [pag_of_class(equivalence_class(draw(seed)[1])) for seed in range(20)]
    pags += catalog_pags() + [ladder_pag(f, n) for f, n in ladder(8)]
    for g in pags:
        for r in range(1, min(len(g.nodes), 7) + 1):
            for keep in itertools.combinations(g.nodes, r):
                yield induced_subgraph(g, keep)


class TestClosedForms:
    """The closed forms that settle a PAG against the kernel forms they
    replaced (``reference_paths``): visibility by its one pass per child,
    composite pc-components as invisible-edge components, and the
    directed-cycle test by one test per directed edge."""

    @staticmethod
    def assert_kernel_forms_match(g):
        assert graphical_visible_edges(g) == ref.kernel_visible_edges(g)
        assert cpc_components(g) == ref.kernel_cpc_components(g)
        assert ancestral_violation(g) == ref.pair_scan_ancestral_violation(g)

    def test_match_kernel_forms_on_random_marks(self):
        seen = collections.Counter()
        for g in random_marked_graphs():
            self.assert_kernel_forms_match(g)
            seen[(ancestral_violation(g) or "acyclic").split(" at ")[0]] += 1
            seen["visible"] += bool(graphical_visible_edges(g))
        # 128 directed and 132 almost directed cycles; 597 graphs with a visible edge
        assert min(seen.values()) > 100

    def test_match_kernel_forms_on_subgraphs(self):
        for sub in small_subgraphs():
            self.assert_kernel_forms_match(sub)

    def test_building_a_pag_walks_no_kernel(self, monkeypatch):
        """Building PAGs, their pc-components and their composite ones walk
        no kernel; m- and d-separation and the class enumeration walk the
        one kernel, ``sliced_walk``."""
        pags = catalog_pags() + [ladder_pag(f, 12) for f in FAMILIES]
        pags += [pag_of_class(equivalence_class(draw(seed)[1])) for seed in range(5)]
        calls = []

        def counted(*args):
            calls.append(args)
            return sliced_walk(*args)

        for module in (graphs, separation, oracle):
            monkeypatch.setattr(module, "sliced_walk", counted)
        for g in pags:
            Pag(g.nodes, g.edges(), check_visibility=True)
            for v in g.nodes:
                pc_component(g, [v])
            pc_component(g, g.nodes[::2])
            cpc_components(g)
        assert calls == []
        m_separated(pags[0], pags[0].nodes[:1], pags[0].nodes[1:2], [])
        assert len(calls) == 1
        d, m = draw(0)
        d_separated(d, d.observed[:1], d.observed[1:], [])
        assert len(calls) == 2
        equivalence_class(m)
        assert len(calls) > 2


class TestWalkKernel:
    """The one walk kernel against the reference ``reach``: one slice, many
    slices each against its own walk, and the closure that pc-components
    read in place of a walk."""

    def test_one_slice_matches_reach(self):
        """Random multi-node starts with arbitrary collider and non-collider
        masks, 20 per graph, on 300 random latent DAGs of 1-12 observed
        nodes (latents included), their MAGs and those read as PAGs, and on
        30 class PAGs (~1.2 s)."""
        rng = np.random.default_rng(41)
        for g in kernel_graphs(rng, 300):
            adj, n = graphs.adjacency_masks(g), len(g.nodes)
            for _ in range(20):
                starts, collider, noncollider = (random_mask(rng, n) for _ in range(3))
                reached, _ = ref.reach(adj, starts, collider, noncollider)
                assert walked(adj, starts, collider, noncollider) == reached | starts, g

    def test_slices_are_separate_walks(self):
        """1-70 slices at once, each with its own arbitrary collider and
        non-collider masks and some left out of ``slices``, against one
        reference walk per slice, on 100 random latent DAGs, their MAGs and
        those read as PAGs, and on 30 class PAGs (~0.5 s)."""
        rng = np.random.default_rng(43)
        for g in kernel_graphs(rng, 100):
            adj, n = graphs.adjacency_masks(g), len(g.nodes)
            k = int(rng.integers(1, 71))
            slices, starts = random_mask(rng, k), random_mask(rng, n)
            collider = [random_mask(rng, k) for _ in range(n)]
            noncollider = [random_mask(rng, k) for _ in range(n)]
            entered = sliced_walk(adj, starts, slices, collider, noncollider)
            assert not any(e & ~slices for e in entered)
            for s in range(k):
                got = sum(1 << w for w, e in enumerate(entered) if e >> s & 1)
                if not slices >> s & 1:
                    assert got == 0
                    continue
                col = sum(1 << w for w, c in enumerate(collider) if c >> s & 1)
                non = sum(1 << w for w, c in enumerate(noncollider) if c >> s & 1)
                assert got == ref.reach(adj, starts, col, non)[0] | starts, (g, s)

    def test_pc_closure_matches_the_walk(self):
        """``_ScopeRows.pc`` from random multi-node seeds inside random ``within``
        masks against the reference walk over the invisible edges, with
        colliders allowed in ``within`` and no non-colliders, 10 per graph,
        on the mixed graphs above and the 1,500 random marked graphs of 2-12
        nodes (~1.5 s)."""
        rng = np.random.default_rng(47)
        mixed = (g for g in kernel_graphs(rng, 200) if isinstance(g, MixedGraph))
        checked = 0
        for g in itertools.chain(mixed, random_marked_graphs()):
            rows, n = _ScopeRows(g), len(g.nodes)
            for _ in range(10):
                seed, within = random_mask(rng, n), random_mask(rng, n)
                reached, _ = ref.reach(rows.invisible, seed, within, 0)
                assert rows.pc(seed, within) == reached & within | seed, g
                checked += seed.bit_count() > 1 and reached & within & ~seed != 0
        assert checked > 3000


class TestComponents:
    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_visibility_and_components_match_reference_on_drawn_classes(self, seed):
        _, m = draw(seed)
        members = equivalence_class(m)
        for g in (m, pag_of_class(members)):
            assert_components_match(g)

    @pytest.mark.parametrize("family,n", ladder(8))
    def test_visibility_and_components_match_reference_on_ladder(self, family, n):
        assert_components_match(ladder_pag(family, n))

    def test_visibility_and_components_match_reference_on_catalog(self):
        for g in catalog_pags():
            assert_components_match(g)
            for r in range(1, len(g.nodes)):
                for keep in itertools.combinations(g.nodes, r):
                    assert_components_match(induced_subgraph(g, keep))

    def test_multi_node_seed(self, twin_pag):
        vis = visible_edges(twin_pag)
        for seed in itertools.combinations(twin_pag.nodes, 2):
            assert set(pc_component(twin_pag, seed)) == ref.pc_component(twin_pag, seed, vis)


class TestEquivalenceClass:
    @given(st.integers(0, 100_000))
    @settings(max_examples=12, deadline=None)
    def test_prefiltered_enumeration_matches_reference(self, seed):
        _, m = draw(seed)
        if len(m.edges()) > 7:
            return
        assert equivalence_class(m) == ref.equivalence_class(m)


class TestAtTheCap:
    """Known answers on 12-node graphs that path enumeration cannot finish."""

    @pytest.mark.parametrize("family", ["complete_bidirected", "bidirected_cycle", "circle_clique"])
    def test_one_component_holds_every_node(self, family):
        g = ladder_pag(family, 12)
        assert cpc_components(g) == (g.nodes,)
        assert graphical_visible_edges(g) == frozenset()

    def test_pc_components(self):
        clique = ladder_pag("complete_bidirected", 12)
        assert pc_component(clique, ["V1"]) == clique.nodes
        cycle = ladder_pag("bidirected_cycle", 12)
        assert pc_component(cycle, ["V5"]) == cycle.nodes
        # circle marks are never colliders: only direct neighbours join
        circles = ladder_pag("circle_clique", 12)
        assert pc_component(circles, ["V1"]) == circles.nodes
        chain = Pag.from_specs([f"V{i + 1}" for i in range(12)], ["V1 o-o V2", "V2 o-o V3"])
        assert pc_component(chain, ["V1"]) == ("V1", "V2")

    def test_m_separation(self):
        clique = ladder_pag("complete_bidirected", 12)
        assert not m_separated(clique, ["V1"], ["V12"], [])
        cycle = ladder_pag("bidirected_cycle", 12)
        # every interior node of a bidirected cycle is a collider
        assert m_separated(cycle, ["V1"], ["V7"], [])
        assert m_separated(cycle, ["V1"], ["V7"], ["V2", "V3", "V4", "V5"])
        assert not m_separated(cycle, ["V1"], ["V7"], ["V2", "V3", "V4", "V5", "V6"])
        assert not m_separated(cycle, ["V1"], ["V7"], ["V8", "V9", "V10", "V11", "V12"])

    def test_visibility_along_a_directed_chain(self):
        nodes = [f"V{i + 1}" for i in range(12)]
        chain = Mag.from_specs(nodes, [f"{a} --> {b}" for a, b in zip(nodes, nodes[1:])])
        assert graphical_visible_edges(chain) == {(a, b) for a, b in zip(nodes[1:], nodes[2:])}

    @pytest.mark.parametrize("family", ["complete_bidirected", "circle_clique"])
    def test_components_command_finishes(self, family, tmp_path, capsys):
        nodes = [f"V{i + 1}" for i in range(12)]
        token = "o-o" if family == "circle_clique" else "<->"
        text = f"pag\nnodes: {' '.join(nodes)}\n" + "".join(
            f"edge: {a} {token} {b}\n" for a, b in itertools.combinations(nodes, 2)
        )
        path = tmp_path / "g.pag"
        path.write_text(text)
        assert main(["components", "--graph", str(path)]) == 0
        assert ",".join(nodes) in capsys.readouterr().out.replace(" ", "")


    @pytest.mark.parametrize(
        "family,line",
        [
            ("complete_bidirected", "FAIL: no adjustment set: non-causal path V1 - V12 stays open"),
            (
                "circle_clique",
                "FAIL: not amenable: possibly directed path "
                + " - ".join(f"V{i}" for i in range(1, 13))
                + " starts with an invisible edge",
            ),
        ],
    )
    def test_gac_command_finishes(self, family, line, tmp_path, capsys):
        path = tmp_path / "g.pag"
        path.write_text(serialize_graph("pag", ladder_pag(family, 12)))
        assert main(["gac", "--graph", str(path), "--treat", "V1", "--outcome", "V12"]) == 2
        assert capsys.readouterr().out == line + "\n"


class TestNetworkxDifferential:
    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_d_separated_matches_networkx(self, seed):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        observed = [f"V{i + 1}" for i in range(n)]
        order = [observed[i] for i in rng.permutation(n)]
        prob = float(rng.uniform(0.1, 0.5))
        edges = [(a, b) for i, a in enumerate(order) for b in order[i + 1:] if rng.random() < prob]
        pairs = list(itertools.combinations(observed, 2))
        n_latent = int(rng.integers(0, min(len(pairs), 12) + 1))
        latent = [f"L{k + 1}" for k in range(n_latent)]
        for name, pick in zip(latent, rng.choice(len(pairs), n_latent, replace=False)):
            edges += [(name, pairs[pick][0]), (name, pairs[pick][1])]
        d = LatentDag(observed, latent, edges)
        graph = nx.DiGraph()
        graph.add_nodes_from(d.nodes)
        graph.add_edges_from(d.edges())
        for _ in range(40):
            perm = [observed[i] for i in rng.permutation(n)]
            n_x = int(rng.integers(1, n))
            n_y = int(rng.integers(1, n - n_x + 1))
            xs, ys = perm[:n_x], perm[n_x:n_x + n_y]
            zs = [v for v in perm[n_x + n_y:] if rng.random() < 0.5]
            assert d_separated(d, xs, ys, zs) == nx.is_d_separator(graph, set(xs), set(ys), set(zs))
