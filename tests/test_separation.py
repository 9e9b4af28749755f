import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pagid.graphs import ARROW, LatentDag, Mag, mag_of_dag
from reference_paths import is_directed_edge
from pagid.oracle import class_of_dag, random_latent_dag
from pagid.separation import d_separated, definitely_m_separated, m_separated


def brute_force_m_separated(g, xs, ys, zs):
    """Independent check: enumerate simple paths and apply the blocking rules
    with a freshly computed ancestor closure."""
    xs, ys, zs = set(xs), set(ys), set(zs)
    anc = set()
    frontier = list(zs)
    anc |= zs
    while frontier:
        v = frontier.pop()
        for u in g.neighbors(v):
            if u not in anc and is_directed_edge(g, u, v):
                anc.add(u)
                frontier.append(u)

    def paths(path, target_set):
        v = path[-1]
        if v in target_set and len(path) > 1:
            yield path
            return
        for w in g.neighbors(v):
            if w not in path and w not in xs:
                yield from paths(path + [w], target_set)

    for x in xs:
        for path in paths([x], ys):
            connecting = True
            for i in range(1, len(path) - 1):
                prev, v, nxt = path[i - 1], path[i], path[i + 1]
                collider = g.mark_at(v, prev) is ARROW and g.mark_at(v, nxt) is ARROW
                if collider and v not in anc:
                    connecting = False
                elif not collider and v in zs:
                    connecting = False
            if connecting:
                return False
    return True


class TestMagSeparation:
    def test_collider_blocks_until_conditioned(self):
        m = Mag.from_specs(["A", "B", "C"], ["A --> B", "C --> B"])
        assert m_separated(m, ["A"], ["C"], [])
        assert not m_separated(m, ["A"], ["C"], ["B"])

    def test_chain_blocked_by_middle(self):
        m = Mag.from_specs(["A", "B", "C"], ["A --> B", "B --> C"])
        assert not m_separated(m, ["A"], ["C"], [])
        assert m_separated(m, ["A"], ["C"], ["B"])

    def test_descendant_of_collider_opens_path(self):
        m = Mag.from_specs(["A", "B", "C", "D"], ["A --> B", "C --> B", "B --> D"])
        assert not m_separated(m, ["A"], ["C"], ["D"])

    @given(st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        d = random_latent_dag(rng, 4, 2, 0.5)
        m = mag_of_dag(d)
        nodes = m.nodes
        for x, y in itertools.combinations(nodes, 2):
            rest = [v for v in nodes if v not in (x, y)]
            for r in range(len(rest) + 1):
                for z in itertools.combinations(rest, r):
                    assert m_separated(m, [x], [y], z) == brute_force_m_separated(
                        m, [x], [y], z
                    )


class TestDagSeparation:
    def test_confounding_trek_connects(self):
        d = LatentDag.from_specs(["A", "B"], ["A <-> B"])
        assert not d_separated(d, ["A"], ["B"], [])

    def test_chain(self):
        d = LatentDag.from_specs(["A", "B", "C"], ["A -> B", "B -> C"])
        assert d_separated(d, ["A"], ["C"], ["B"])
        assert not d_separated(d, ["A"], ["C"], [])

    def test_conditioning_on_collider_opens(self):
        d = LatentDag.from_specs(["A", "B", "C"], ["A -> B", "C -> B"])
        assert d_separated(d, ["A"], ["C"], [])
        assert not d_separated(d, ["A"], ["C"], ["B"])


class TestDefiniteSeparation:
    def test_coincides_with_msep_on_mags(self):
        rng = np.random.default_rng(7)
        for seed in range(40):
            d = random_latent_dag(rng, 4, 2, 0.5)
            m = mag_of_dag(d)
            nodes = m.nodes
            for x, y in itertools.combinations(nodes, 2):
                rest = [v for v in nodes if v not in (x, y)]
                for r in range(len(rest) + 1):
                    for z in itertools.combinations(rest, r):
                        assert definitely_m_separated(m, [x], [y], z) == m_separated(
                            m, [x], [y], z
                        )

    def test_verdicts_hold_in_every_class_member(self):
        rng = np.random.default_rng(11)
        for seed in range(25):
            d = random_latent_dag(rng, 4, 2, 0.45)
            members, pag = class_of_dag(d)
            nodes = pag.nodes
            for x, y in itertools.combinations(nodes, 2):
                rest = [v for v in nodes if v not in (x, y)]
                for r in range(min(len(rest), 2) + 1):
                    for z in itertools.combinations(rest, r):
                        if definitely_m_separated(pag, [x], [y], z):
                            assert all(m_separated(m, [x], [y], z) for m in members)

    def test_circle_chain_has_no_definite_paths(self):
        from pagid.graphs import Pag

        g = Pag.from_specs(["A", "B", "C"], ["A o-o B", "B o-o C"])
        # B has circles on both sides and A, C are non-adjacent: definite
        # non-collider, so conditioning on it blocks.
        assert not definitely_m_separated(g, ["A"], ["C"], [])
        assert definitely_m_separated(g, ["A"], ["C"], ["B"])

    def test_shielded_circle_node_has_no_definite_status(self):
        from pagid.graphs import MixedGraph
        from reference_paths import definite_status_interior

        g = MixedGraph.from_specs(["A", "B", "C"], ["A o-o B", "B o-o C", "A o-o C"])
        assert definite_status_interior(g, ["A", "B", "C"]) is None
        unshielded = MixedGraph.from_specs(["A", "B", "C"], ["A o-o B", "B o-o C"])
        assert definite_status_interior(unshielded, ["A", "B", "C"]) == ["noncollider"]

    def test_shielded_circle_node_closes_the_path(self):
        # X - A - B - C - Y has B circle-circle with A, C adjacent, so it is
        # no definite status path; X - A - C - Y is blocked at the collider A
        from pagid.graphs import MixedGraph
        from reference_paths import definitely_m_separated as reference

        specs = ["X --> A", "A --o B", "B o-- C", "C --> A", "C --> Y"]
        g = MixedGraph.from_specs(["X", "A", "B", "C", "Y"], specs)
        assert definitely_m_separated(g, ["X"], ["Y"], []) and reference(g, ["X"], ["Y"], [])
        unshielded = MixedGraph.from_specs(["X", "A", "B", "C", "Y"], specs[:3] + specs[4:])
        assert not definitely_m_separated(unshielded, ["X"], ["Y"], [])
