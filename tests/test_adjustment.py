import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_paths as ref
from pagid import catalog
from pagid.adjustment import Fail, adjust_set, adjustment_formula, forbidden_set, gac
from pagid.exprs import render_text
from pagid.graphs import Pag
from pagid.ident_pag import Fail as IdpFail
from pagid.ident_pag import idp
from pagid.oracle import canonical_dag_of_mag, class_of_dag, equivalence_class, pag_of_class, random_latent_dag, random_scm
from pagid.verify import _sample_graph, interventional_gap


def visible_chain():
    """X -> W -> Y with visibility granted (not derivable from three nodes)."""
    return Pag.from_specs(
        ["X", "W", "Y"],
        ["X --> W visible", "W --> Y visible"],
        check_visibility=False,
    )


class TestForbiddenSet:
    def test_ring_pag(self, ring_pag):
        assert forbidden_set(ring_pag, ["X"], ["Y"]) == ("Z", "Y")

    def test_no_possibly_directed_path(self, twin_pag):
        assert forbidden_set(twin_pag, ["Y1"], ["V1"]) == ()

    def test_visible_chain(self):
        assert forbidden_set(visible_chain(), ["X"], ["Y"]) == ("W", "Y")

    def test_closures_match_the_path_version(self):
        """Every disjoint x and y of one or two nodes on the catalog PAGs and
        400 seeded class PAGs: 31,972 queries, ~2 s with the class builds."""
        pags = [
            catalog.two_treatment_pag(),
            catalog.confounded_chain_pag(),
            catalog.beyond_adjustment_pag(),
            catalog.circle_pair_pag(),
        ]
        pags += [pag_of_class(equivalence_class(_sample_graph(np.random.default_rng(s))[1])) for s in range(400)]
        forbidden = 0
        for p in pags:
            sets = [c for r in (1, 2) for c in itertools.combinations(p.nodes, r)]
            for xs, ys in itertools.product(sets, repeat=2):
                if not set(xs) & set(ys):
                    got = forbidden_set(p, xs, ys)
                    assert got == ref.forbidden_set(p, xs, ys), (p, xs, ys)
                    forbidden += bool(got)
        assert forbidden > 10_000


class TestAdjustSet:
    def test_chain_pag(self, chain_pag):
        assert adjust_set(chain_pag, ["X"], ["V4"]) == ("V1", "V2")

    def test_disconnected_pair(self):
        g = Pag.from_specs(["A", "B", "C"], ["A o-o B"])
        assert adjust_set(g, ["C"], ["B"]) == ("A",)
        assert adjust_set(g, ["C"], ["A"]) == ("B",)

    def test_ring_pag(self, ring_pag):
        assert adjust_set(ring_pag, ["X"], ["Y"]) == ("V1", "V2", "V3", "V4")


class TestGac:
    def test_single_visible_edge_empty_set(self):
        g = Pag.from_specs(["X", "Y"], ["X --> Y visible"], check_visibility=False)
        result = gac(["X"], ["Y"], g)
        assert result == ()
        assert render_text(adjustment_formula(result, ["X"], ["Y"])) == "P(y|x)"

    def test_ring_pag_fails(self, ring_pag):
        result = gac(["X"], ["Y"], ring_pag)
        assert isinstance(result, Fail)
        assert result.reason == "blocking"
        assert result.path[0] == "X" and result.path[-1] == "Y"

    def test_invisible_edge_is_not_amenable(self):
        g = Pag.from_specs(["X", "Y"], ["X o-> Y"])
        result = gac(["X"], ["Y"], g)
        assert isinstance(result, Fail)
        assert result.reason == "amenability"

    def test_chain_pag_backdoor(self, chain_pag):
        result = gac(["X"], ["V4"], chain_pag)
        assert result == ("V1", "V2")

    def test_adjustment_formula_matches_ground_truth(self, chain_dag, chain_dag_alt, chain_pag):
        z = gac(["X"], ["V4"], chain_pag)
        formula = adjustment_formula(z, ["X"], ["V4"])
        for i, dag in enumerate((chain_dag, chain_dag_alt)):
            for s in range(5):
                scm = random_scm(17 * i + s, dag)
                assert interventional_gap(formula, scm, ("X",), ("V4",)) <= 1e-9

    @given(st.integers(0, 3000))
    @settings(max_examples=30, deadline=None)
    def test_success_implies_idp_success_and_correct_values(self, seed):
        rng = np.random.default_rng(seed)
        d = random_latent_dag(rng, int(rng.integers(2, 6)), int(rng.integers(0, 3)), 0.4)
        members, pag = class_of_dag(d)
        nodes = list(pag.nodes)
        if len(nodes) < 2:
            return
        perm = [nodes[i] for i in rng.permutation(len(nodes))]
        xs, ys = (perm[0],), (perm[1],)
        result = gac(xs, ys, pag)
        if isinstance(result, Fail):
            return
        assert not isinstance(idp(xs, ys, pag), IdpFail)
        formula = adjustment_formula(result, xs, ys)
        for member in members:
            cdag = canonical_dag_of_mag(member)
            scm = random_scm(rng, cdag)
            assert interventional_gap(formula, scm, xs, ys) <= 1e-9
