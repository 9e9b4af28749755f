import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_paths as ref
from conftest import wide_latent_dag
import reference_oracle
from reference_oracle import truncations
from pagid import catalog
from pagid.graphs import ARROW, CIRCLE, TAIL, LatentDag, Mag, MixedGraph, adjacency_masks, bits, flag_masks, mag_of_dag, mark_masks
from pagid.oracle import (
    CPT_FLOOR,
    CPT_ROW_TOL,
    MAX_CLASS_EDGES,
    MAX_JOINT_STATES,
    Scm,
    _collider_survivors,
    _full_joint,
    _sliced_model,
    canonical_dag_of_mag,
    class_of_dag,
    equivalence_class,
    interventional,
    joint,
    pag_of_class,
    random_latent_dag,
    random_scm,
    truncated,
)
from pagid.verify import _sample_graph


def edge_view(g):
    return {(a, b): (ma, mb) for a, b, ma, mb, _ in g.edges()}


def loop_full_joint(s, x):
    """The joint as built before the SCM kept its aligned factors: each CPT
    transposed to the topological order and broadcast on every call."""
    order = s.graph.topological_order()
    axis = {v: i for i, v in enumerate(order)}
    out = np.ones(tuple(s.cards[v] for v in order))
    for v in order:
        if v in x:
            continue
        dims = tuple(s.graph.parents(v)) + (v,)
        arranged = np.transpose(s.cpts[v], sorted(range(len(dims)), key=lambda i: axis[dims[i]]))
        perm_shape = [1] * len(order)
        for d in dims:
            perm_shape[axis[d]] = s.cards[d]
        out = out * arranged.reshape(perm_shape)
    for v, val in x.items():
        keep = np.zeros(s.cards[v])
        keep[val] = 1.0
        out = out * keep.reshape([s.cards[v] if u == v else 1 for u in order])
    return order, out


def loop_truncated(s, x):
    """P_x over the observed variables, sorted by name, from :func:`loop_full_joint`."""
    order, arr = loop_full_joint(s, x)
    drop = set(s.graph.latent) | set(x)
    marg = arr.sum(axis=tuple(i for i, v in enumerate(order) if v in drop)) if drop else arr
    keep = [v for v in order if v not in drop]
    keep_sorted = sorted(keep, key=lambda v: (v.lower(), v))
    return tuple(keep_sorted), np.transpose(marg, [keep.index(v) for v in keep_sorted])


def mixed_card_scm(rng, d):
    """Random CPTs with a cardinality of 2 or 3 drawn per node."""
    cards = {v: int(rng.integers(2, 4)) for v in d.nodes}
    cpts = {}
    for v in d.nodes:
        shape = tuple(cards[p] for p in d.parents(v)) + (cards[v],)
        rows = rng.dirichlet(np.ones(cards[v]), size=int(np.prod(shape[:-1], dtype=int)))
        cpts[v] = rows.reshape(shape)
    return Scm(d, cards, cpts)


def loop_random_scm(rng, d, card):
    """The CPTs as drawn before ``random_scm`` drew them in one call: one
    Dirichlet draw, floor and normalisation per node."""
    cpts = {}
    for v in d.nodes:
        shape = tuple(card for _ in d.parents(v)) + (card,)
        rows = rng.dirichlet(np.ones(card), size=int(np.prod(shape[:-1], dtype=int)))
        rows = np.clip(rows, CPT_FLOOR, None)
        rows = rows / rows.sum(axis=-1, keepdims=True)
        cpts[v] = rows.reshape(shape)
    return cpts


def loop_check_cpts(d, cards, cpts):
    """The CPT checks as ``Scm`` ran them before they were batched: node by
    node in topological order, shape before sign before rows."""
    for v in d.topological_order():
        cpt = np.asarray(cpts[v], dtype=float)
        want = tuple(cards[u] for u in (*d.parents(v), v))
        if cpt.shape != want:
            raise ValueError(f"CPT shape for {v!r}: {cpt.shape} != {want}")
        if (cpt < 0).any():
            raise ValueError(f"negative CPT entry for {v!r}")
        if not np.abs(cpt.sum(axis=-1) - 1.0).max() <= CPT_ROW_TOL:
            raise ValueError(f"CPT rows for {v!r} do not sum to 1")


def plant_fault(rng, cpt, kind):
    """A copy of ``cpt`` with one fault of ``kind``, or one of each of
    ``a+b``; "layout" is no fault but a CPT in Fortran order."""
    if "+" in kind:
        for part in kind.split("+"):
            cpt = plant_fault(rng, cpt, part)
        return cpt
    out = np.array(cpt)
    row = tuple(int(rng.integers(n)) for n in out.shape[:-1])
    if kind == "shape":
        return out[..., :-1] if rng.random() < 0.5 else out[np.newaxis]
    if kind == "negative":
        # the row still sums to one, so only the sign check can see it
        out[row + (1,)] += 2 * out[row + (0,)]
        out[row + (0,)] = -out[row + (0,)]
    elif kind == "nan":
        out[row + (int(rng.integers(out.shape[-1])),)] = np.nan
    elif kind in ("inside", "outside"):
        # a row that misses one by just under or just over the tolerance
        out[row + (-1,)] += rng.choice([-1.0, 1.0]) * CPT_ROW_TOL * (0.99 if kind == "inside" else 1.01)
    elif kind == "layout":
        return np.asfortranarray(out)
    return out


def outcome(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


def decoded_signature(g):
    """The (x, y, Z) triples that ``_sliced_model``'s masks encode."""
    nodes = g.nodes
    return frozenset(
        (nodes[i], nodes[j], tuple(nodes[k] for k in bits(z)))
        for i, j, seps in _sliced_model(adjacency_masks(g))
        for z in bits(seps)
    )


def decoded_walks(g):
    """The (x, y, Z) triples of the one-walk-per-(source, Z) reference."""
    nodes = g.nodes
    return frozenset(
        (nodes[i], nodes[j], tuple(nodes[k] for k in bits(z)))
        for i, z, sep in ref.kernel_separation_signature(g)
        for j in bits(sep)
    )


def collider_survivors(m):
    """Every tail/arrow assignment over the skeleton of ``m`` with the
    unshielded colliders of ``m``: the candidates whose separation model
    ``equivalence_class`` reads, members and rejects alike."""
    want = ref.unshielded_colliders(m)
    options = ((TAIL, ARROW), (ARROW, TAIL), (ARROW, ARROW))
    skeleton = [(a, b) for a, b, *_ in m.edges()]
    for marks in itertools.product(options, repeat=len(skeleton)):
        g = MixedGraph(m.nodes, [(a, b, ma, mb, False) for (a, b), (ma, mb) in zip(skeleton, marks)])
        if ref.unshielded_colliders(g) == want:
            yield g


def wide_mag(rng, n):
    """The MAG of a random latent DAG over ``n`` observed nodes, drawn until
    it has at most ``MAX_CLASS_EDGES`` edges."""
    while True:
        m = mag_of_dag(wide_latent_dag(rng, n, 2.5 / n))
        if len(m.edges()) <= MAX_CLASS_EDGES:
            return m


class TestScm:
    def test_single_binary_node(self):
        d = LatentDag(["A"], [], [])
        s = Scm(d, {"A": 2}, {"A": np.array([0.3, 0.7])})
        np.testing.assert_allclose(joint(s).probs, [0.3, 0.7])

    def test_independent_pair_is_product(self):
        d = LatentDag(["A", "B"], [], [])
        s = Scm(
            d,
            {"A": 2, "B": 2},
            {"A": np.array([0.2, 0.8]), "B": np.array([0.6, 0.4])},
        )
        np.testing.assert_allclose(joint(s).probs, np.outer([0.2, 0.8], [0.6, 0.4]))

    def test_cpt_rows_validated(self):
        d = LatentDag(["A"], [], [])
        with pytest.raises(ValueError, match="sum to 1"):
            Scm(d, {"A": 2}, {"A": np.array([0.5, 0.6])})

    def test_cpt_row_tolerance_is_absolute(self):
        # a relative tolerance of 1e-5 used to let this row through
        d = LatentDag(["A"], [], [])
        with pytest.raises(ValueError, match="sum to 1"):
            Scm(d, {"A": 2}, {"A": np.array([0.5, 0.5 + 1e-6])})
        with pytest.raises(ValueError, match="sum to 1"):
            Scm(d, {"A": 2}, {"A": np.array([0.5, np.nan])})

    def test_random_scms_pass_the_row_check(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = random_latent_dag(rng, int(rng.integers(1, 7)), int(rng.integers(0, 4)), 0.5)
            random_scm(rng, d, card=int(rng.integers(2, 4)))

    def test_joint_normalised_on_random_scms(self, chain_dag):
        for seed in range(5):
            table = joint(random_scm(seed, chain_dag))
            assert abs(float(table.probs.sum()) - 1.0) <= 1e-12

    def test_truncated_chain_equals_conditional(self):
        d = LatentDag.from_specs(["X", "Y"], ["X -> Y"])
        s = random_scm(0, d)
        full = joint(s)
        for x in (0, 1):
            t = truncated(s, {"X": x})
            cond = full.probs[x] / full.probs[x].sum()
            np.testing.assert_allclose(t.probs, cond, atol=1e-12)

    def test_intervening_on_childless_node_is_marginalisation(self, chain_dag):
        s = random_scm(3, chain_dag)
        t = truncated(s, {"V4": 1})
        m = joint(s).array_for(t.variables)
        np.testing.assert_allclose(t.probs, m, atol=1e-12)

    def test_aligned_factors_give_the_loop_joint_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            d = random_latent_dag(rng, int(rng.integers(1, 6)), int(rng.integers(0, 4)), 0.5)
            s = mixed_card_scm(rng, d)
            picked = [v for v in d.observed if rng.random() < 0.4]
            for x in ({}, {v: int(rng.integers(s.cards[v])) for v in picked}):
                order, arr = _full_joint(s, x)
                want_order, want = loop_full_joint(s, x)
                assert order == want_order and np.array_equal(arr, want)
                variables, probs = loop_truncated(s, x)
                got = truncated(s, x) if x else joint(s)
                assert got.variables == variables and np.array_equal(got.probs, probs)

    def test_batched_cpt_checks_raise_as_the_per_node_loop(self):
        rng = np.random.default_rng(29)
        kinds = ("shape", "negative", "nan", "inside", "outside", "layout", "negative+shape", "outside+negative")
        single, several = set(), set()
        for _ in range(400):
            d = random_latent_dag(rng, int(rng.integers(1, 6)), int(rng.integers(0, 4)), 0.5)
            s = mixed_card_scm(rng, d)
            cpts = dict(s.cpts)
            planted = {}
            for i in rng.permutation(len(d.nodes))[: int(rng.integers(1, 4))]:
                v, kind = d.nodes[i], kinds[int(rng.integers(len(kinds)))]
                cpts[v], planted[v] = plant_fault(rng, cpts[v], kind), kind
            want = outcome(lambda: loop_check_cpts(d, s.cards, cpts))
            assert outcome(lambda: Scm(d, s.cards, cpts)) == want
            if len(planted) == 1:
                single.add((*planted.values(), want and want.split(" for ")[0]))
            elif want is not None:
                several.add(want.split("'")[1])
        assert single == {
            ("shape", "CPT shape"),
            ("negative", "negative CPT entry"),
            ("nan", "CPT rows"),
            ("inside", None),
            ("outside", "CPT rows"),
            ("layout", None),
            ("negative+shape", "CPT shape"),
            ("outside+negative", "negative CPT entry"),
        }
        # with faults in several nodes, the first in topological order is named: many differ
        assert len(several) >= 5

    def test_shared_product_gives_each_truncation_bitwise(self):
        rng = np.random.default_rng(37)
        seen = set()
        for _ in range(120):
            d = random_latent_dag(rng, int(rng.integers(2, 6)), int(rng.integers(0, 4)), 0.5)
            s = mixed_card_scm(rng, d)
            perm = [d.observed[i] for i in rng.permutation(len(d.observed))]
            n_x = int(rng.integers(1, min(2, len(perm) - 1) + 1))
            x_vars, rest = tuple(perm[:n_x]), perm[n_x:]
            ys = tuple(sorted(rest[: int(rng.integers(1, len(rest) + 1))]))
            childless = not any(v in d.parents(c) for v in x_vars for c in d.nodes)
            seen.update({("x size", n_x), ("childless", childless), ("y skips", len(ys) < len(rest))})
            values = []
            for vals, table in truncations(s, x_vars):
                values.append(vals)
                want = truncated(s, dict(zip(x_vars, vals)))
                assert table.variables == want.variables and np.array_equal(table.probs, want.probs)
                assert np.array_equal(table.array_for(ys), want.array_for(ys))
            assert values == list(itertools.product(*(range(s.cards[v]) for v in x_vars)))
        assert seen == {(key, flag) for key in ("childless", "y skips") for flag in (True, False)} | {
            ("x size", 1),
            ("x size", 2),
        }

    def test_shared_product_keeps_the_guards(self, bow):
        s = random_scm(0, bow)
        latent = bow.latent[0]
        for x_vars in ((latent,), ("X", "nowhere")):
            want = outcome(lambda: truncated(s, dict.fromkeys(x_vars, 0)))
            assert want.startswith("intervention on unknown observed node")
            assert outcome(lambda: list(truncations(s, x_vars))) == want
        nodes = [f"N{i}" for i in range(12)]
        big = Scm(LatentDag(nodes, [], []), {v: 4 for v in nodes}, {v: np.full(4, 0.25) for v in nodes})
        want = outcome(lambda: truncated(big, {"N0": 1}))
        assert "exceeds guard" in want
        assert outcome(lambda: list(truncations(big, ("N0",)))) == want

    def test_factors_stay_out_of_equality_and_repr(self):
        d = LatentDag.from_specs(["X", "Y"], ["X -> Y"])
        s1 = random_scm(0, d)
        s2 = random_scm(0, d)
        assert s1.factors[0] is not s2.factors[0] and s1.cpts["X"] is not s2.cpts["X"]
        assert s1 == s2 and "factors" not in repr(s1)

    def test_equality_compares_every_cpt_exactly(self, bow):
        assert random_scm(0, bow) == random_scm(0, bow)
        assert random_scm(0, bow) != random_scm(1, bow)
        s = random_scm(0, bow)
        nudged = {v: c.copy() for v, c in s.cpts.items()}
        nudged["X"][0] = nudged["X"][0][::-1]
        assert Scm(s.graph, s.cards, nudged) != s
        assert random_scm(0, bow, card=3) != s and s != "not a model"

    def test_equal_models_hash_equal(self, bow):
        s1, s2 = random_scm(0, bow), random_scm(0, bow)
        assert s1 is not s2 and hash(s1) == hash(s2)
        assert len({s1, s2, random_scm(1, bow)}) == 2

    def test_joint_guard_refuses_at_evaluation_not_construction(self):
        nodes = [f"N{i}" for i in range(12)]
        d = LatentDag(nodes, [], [])
        assert 4 ** len(nodes) > MAX_JOINT_STATES
        s = Scm(d, {v: 4 for v in nodes}, {v: np.full(4, 0.25) for v in nodes})
        with pytest.raises(ValueError, match="exceeds guard"):
            joint(s)
        with pytest.raises(ValueError, match="exceeds guard"):
            truncated(s, {"N0": 1})

    def test_bow_truncation_differs_from_conditioning(self, bow):
        # deterministic structural sharing makes the gap large
        s = random_scm(1, bow)
        full = joint(s)
        t = truncated(s, {"X": 0})
        conditional = full.probs[0] / full.probs[0].sum()
        assert np.abs(t.probs - conditional).max() > 1e-3


class TestCanonicalDag:
    def test_bidirected_edge_becomes_latent(self):
        m = Mag.from_specs(["X", "Y"], ["X <-> Y"])
        d = canonical_dag_of_mag(m)
        assert d.observed == ("X", "Y") and len(d.latent) == 1

    def test_pure_dag_unchanged(self):
        m = Mag.from_specs(["A", "B"], ["A --> B"])
        d = canonical_dag_of_mag(m)
        assert d.latent == () and d.edges() == (("A", "B"),)

    @given(st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_on_enumerated_classes(self, seed):
        rng = np.random.default_rng(seed)
        d = random_latent_dag(rng, int(rng.integers(2, 6)), int(rng.integers(0, 3)), 0.4)
        members, _ = class_of_dag(d)
        for m in members:
            assert mag_of_dag(canonical_dag_of_mag(m)) == m


class TestEquivalenceClass:
    def test_single_edge_has_three_members(self):
        m = Mag.from_specs(["X", "Y"], ["X --> Y"])
        cls = equivalence_class(m)
        assert len(cls) == 3
        kinds = {edge_view(g)[("X", "Y")] for g in cls}
        assert kinds == {(TAIL, ARROW), (ARROW, TAIL), (ARROW, ARROW)}

    def test_unshielded_collider_has_four_members(self):
        m = Mag.from_specs(["V1", "X", "V2"], ["V1 --> X", "V2 --> X"])
        cls = equivalence_class(m)
        assert len(cls) == 4
        for g in cls:
            assert g.mark_at("X", "V1") is ARROW
            assert g.mark_at("X", "V2") is ARROW

    def test_reflexivity(self, chain_dag):
        m = mag_of_dag(chain_dag)
        assert m in equivalence_class(m)

    def test_signature_and_class_match_their_all_pairs_definitions(self):
        # _sample_graph draws up to verify's 9-edge guard; the path-enumerating
        # reference class finishes in test time up to 7 edges
        rng = np.random.default_rng(2024)
        for draw in range(150):
            _, m = _sample_graph(rng)
            members = equivalence_class(m)
            for g in members:
                assert decoded_signature(g) == ref.separation_signature(g), (draw, g)
            if len(m.edges()) <= 7:
                assert members == ref.equivalence_class(m), draw

    def test_edge_guard(self):
        specs = [f"N{i} --> N{i+1}" for i in range(11)]
        nodes = [f"N{i}" for i in range(12)]
        with pytest.raises(ValueError, match="guard"):
            equivalence_class(Mag.from_specs(nodes, specs))


class TestSlicedModel:
    """The sliced separation model against one reference ``reach`` walk per
    source and conditioning set, decoded to (x, y, Z) triples."""

    def test_matches_the_walks_on_every_candidate_of_drawn_classes(self):
        rng = np.random.default_rng(31)
        candidates = members = 0
        for draw in range(150):
            _, m = _sample_graph(rng)
            cls = set(equivalence_class(m))
            for g in collider_survivors(m):
                assert decoded_signature(g) == decoded_walks(g), (draw, g)
                candidates += 1
                members += g in cls
        # rejects too, so that a model that tells members apart is not enough
        assert members > 1000 and candidates - members > 1000

    def test_matches_the_walks_on_catalog_mags(self):
        for d in (catalog.confounded_chain_dag(), catalog.confounded_chain_dag_alt(), catalog.bow_dag()):
            for g in collider_survivors(mag_of_dag(d)):
                assert decoded_signature(g) == decoded_walks(g), g

    @pytest.mark.parametrize("n", range(7, 13))
    def test_matches_the_walks_at_seven_to_twelve_nodes(self, n):
        for seed in (n, n + 100):
            m = wide_mag(np.random.default_rng(seed), n)
            assert decoded_signature(m) == decoded_walks(m), m

    def test_collider_star_class_at_twelve_nodes(self):
        m = mag_of_dag(LatentDag.from_specs([f"V{i}" for i in range(1, 13)], [f"V{i} -> V11" for i in range(1, 11)]))
        members = equivalence_class(m)
        # every tail/arrow choice at V1..V10, in enumeration order
        assert len(members) == 1024 and members[0] == m
        assert all(g.mark_at("V11", f"V{i}") is ARROW for g in members for i in range(1, 11))


class TestPagOfClass:
    def test_single_edge_class_gives_circle_pair(self):
        m = Mag.from_specs(["X", "Y"], ["X --> Y"])
        pag = pag_of_class(equivalence_class(m))
        assert edge_view(pag) == {("X", "Y"): (CIRCLE, CIRCLE)}

    def test_collider_class_keeps_arrowheads_only(self):
        m = Mag.from_specs(["V1", "X", "V2"], ["V1 --> X", "V2 --> X"])
        pag = pag_of_class(equivalence_class(m))
        assert edge_view(pag) == {
            ("V1", "X"): (CIRCLE, ARROW),
            ("X", "V2"): (ARROW, CIRCLE),
        }

    def test_confounded_chain_recovers_catalog_pag(self, chain_dag, chain_pag):
        _, pag = class_of_dag(chain_dag)
        assert pag == chain_pag
        assert ref.is_visible(pag, "X", "V3") and ref.is_visible(pag, "X", "V4")

    def test_both_chain_variants_share_the_class(self, chain_dag, chain_dag_alt):
        members, _ = class_of_dag(chain_dag)
        assert mag_of_dag(chain_dag_alt) in members

    def test_skeleton_mismatch_rejected(self):
        a = Mag.from_specs(["X", "Y"], ["X --> Y"])
        b = Mag(["X", "Y"], [])
        with pytest.raises(ValueError, match="skeleton"):
            pag_of_class([a, b])

    @given(st.integers(0, 1500))
    @settings(max_examples=30, deadline=None)
    def test_closure_and_mark_rules_hold(self, seed):
        from pagid.graphs import find_closure_violation

        rng = np.random.default_rng(seed)
        d = random_latent_dag(rng, int(rng.integers(2, 6)), int(rng.integers(0, 3)), 0.4)
        members, pag = class_of_dag(d)
        assert find_closure_violation(pag) is None
        for a, b, ma, mb, _ in pag.edges():
            marks_a = {m.mark_at(a, b) for m in members}
            marks_b = {m.mark_at(b, a) for m in members}
            assert (ma is CIRCLE) == (len(marks_a) > 1)
            assert (mb is CIRCLE) == (len(marks_b) > 1)


def table(g):
    """A mixed graph as its kind, nodes and mask table."""
    return type(g), g.nodes, g._index, adjacency_masks(g), mark_masks(g), flag_masks(g)


def class_inputs():
    """The MAGs the mask-built class is held against the product loop on:
    ``_sample_graph``'s draws for seeds 0-299 (up to verify's 9-edge guard),
    the MAG of every catalog DAG, two ``wide_mag`` draws per size from 7 to
    12 nodes (up to ``MAX_CLASS_EDGES``), and edgeless MAGs of one and
    three nodes."""
    mags = [_sample_graph(np.random.default_rng(seed))[1] for seed in range(300)]
    mags += [mag_of_dag(d) for d in (catalog.confounded_chain_dag(), catalog.confounded_chain_dag_alt(), catalog.bow_dag())]
    mags += [wide_mag(np.random.default_rng(seed), n) for n in range(7, 13) for seed in (n, n + 100)]
    return mags + [Mag(["X"]), Mag(["A", "B", "C"])]


def random_dag(rng):
    """A latent DAG over 2-12 observed nodes ``V1``.. with 0-8 latents: arcs
    forward in a shuffled order, and latents over distinct drawn pairs."""
    n = int(rng.integers(2, 13))
    names = [f"V{i + 1}" for i in range(n)]
    order = [names[i] for i in rng.permutation(n)]
    prob = float(rng.uniform(0.1, 0.5))
    edges = [(a, b, TAIL, ARROW, False) for a, b in itertools.combinations(order, 2) if rng.random() < prob]
    pairs = list(itertools.combinations(names, 2))
    for pick in rng.choice(len(pairs), size=min(int(rng.integers(0, 9)), len(pairs)), replace=False):
        edges.append((*pairs[pick], ARROW, ARROW, False))
    return LatentDag.from_edges(names, edges)


class TestMaskTables:
    """The class enumeration and what ``verify`` builds from its members,
    on mask tables, against the name-level code they replaced
    (``reference_oracle``).  Times are on a 2-core x86 host."""

    def test_class_equals_the_product_loop(self):
        # about 2.7 s: both enumerations over 317 MAGs, 10,542 members
        compared = set()
        for m in class_inputs():
            got, want = equivalence_class(m), reference_oracle.equivalence_class(m)
            assert [table(g) for g in got] == [table(g) for g in want], m
            compared.add(len(m.edges()))
        assert compared >= {0, 1, 9, MAX_CLASS_EDGES}

    def test_survivors_are_the_collider_survivors_in_product_order(self):
        # about 2.5 s, nearly all of it in the reference, which builds every
        # assignment as a graph: seeds 0-49 of class_inputs, the catalog and
        # the edgeless MAGs
        inputs = class_inputs()
        survivors = 0
        for m in inputs[:50] + inputs[300:303] + inputs[-2:]:
            got = [(head, out, list(parents)) for head, out, parents in _collider_survivors(m)]
            want = [
                ([h for _, h, _ in adjacency_masks(g)], [o for _, _, o in adjacency_masks(g)], list(mark_masks(g)[0]))
                for g in collider_survivors(m)
            ]
            assert got == want, m
            survivors += len(got)
        assert survivors > 4000

    def test_edgeless_mag_is_its_own_class(self):
        for m in (Mag(["X"]), Mag(["A", "B", "C"])):
            assert len(list(_collider_survivors(m))) == 1
            assert equivalence_class(m) == (m,)

    def test_canonical_dags_follow_the_arc_to_latent_rule(self):
        # about 0.35 s: the 1,924 members of the classes of seeds 0-59, and
        # MAGs whose node names force the ``_`` suffix.  The rule, written
        # out: each directed edge of m is an arc, and the k-th bidirected
        # edge is the latent U<k>, ``_`` appended while that name is
        # observed, whose two children are the edge's ends
        mags = [g for m in class_inputs()[:60] for g in equivalence_class(m)]
        mags += [
            Mag.from_specs(["U1", "V", "W"], ["U1 <-> V", "V <-> W"]),
            Mag.from_specs(["U1_", "U1", "U2", "X"], ["U1_ <-> U1", "U1 --> U2", "U2 <-> X", "U1_ <-> X"]),
        ]
        latents = set()
        for m in mags:
            arcs, confounded = set(), []
            for a, b, mark_a, mark_b, _ in m.edges():
                if (mark_a, mark_b) == (ARROW, ARROW):
                    confounded.append({a, b})
                else:
                    arcs.add((a, b) if (mark_a, mark_b) == (TAIL, ARROW) else (b, a))
            names = []
            for k in range(1, len(confounded) + 1):
                name = f"U{k}"
                while name in m.nodes:
                    name += "_"
                names.append(name)
            got = canonical_dag_of_mag(m)
            assert got.observed == m.nodes and got.latent == tuple(names), m
            assert [set(got.children(u)) for u in names] == confounded, m
            assert set(got.edges()) - {(u, v) for u in names for v in got.children(u)} == arcs, m
            assert len(got.edges()) == len(arcs) + 2 * len(names), m
            latents.update(names)
        assert {"U1_", "U1__", "U2_"} <= latents

    def test_canonical_dag_refuses_a_directed_cycle(self):
        cycle = [("A", "B", TAIL, ARROW, False), ("B", "C", TAIL, ARROW, False), ("A", "C", ARROW, TAIL, False)]
        m = Mag(["A", "B", "C"], cycle, validate=False)
        with pytest.raises(ValueError, match="cycle in DAG"):
            canonical_dag_of_mag(m)

    def test_projection_equals_the_edge_built_one(self):
        # about 1.3 s: 3,000 random latent DAGs, then the canonical DAGs of
        # the 3,423 class members of seeds 0-99
        rng = np.random.default_rng(2031)
        dags = [random_dag(rng) for _ in range(3000)]
        dags += [canonical_dag_of_mag(g) for m in class_inputs()[:100] for g in equivalence_class(m)]
        sizes = set()
        for d in dags:
            got, want = mag_of_dag(d), reference_oracle.mag_of_dag(d)
            assert table(got) == table(want) and got == want, d
            sizes.add((len(d.observed), len(d.latent)))
        assert {(2, 0), (12, 8)} <= sizes and len(dags) > 4000

    def test_pag_equals_the_name_built_one(self):
        # about 0.8 s: the class of each of seeds 0-299 and the catalog MAGs
        for m in class_inputs()[:303]:
            members = equivalence_class(m)
            got, want = pag_of_class(members), reference_oracle.pag_of_class(members)
            assert table(got) == table(want), m

    def test_pag_errors_are_kept(self):
        with pytest.raises(ValueError, match="empty"):
            pag_of_class([])
        with pytest.raises(ValueError, match="skeleton"):
            pag_of_class([Mag.from_specs(["X", "Y"], ["X --> Y"]), Mag(["X", "Y"])])
        with pytest.raises(ValueError, match="skeleton"):
            pag_of_class([Mag(["X", "Y"]), Mag(["X", "Y", "Z"])])


class TestRandomGenerators:
    def test_seed_determinism(self):
        d1 = random_latent_dag(5, 5, 2, 0.4)
        d2 = random_latent_dag(5, 5, 2, 0.4)
        assert d1 == d2
        s1, s2 = random_scm(9, d1), random_scm(9, d2)
        np.testing.assert_array_equal(joint(s1).probs, joint(s2).probs)

    @pytest.mark.parametrize("seed", [np.int64(3), np.int32(17), np.uint32(5), np.int64(2**40)])
    def test_numpy_integer_seeds_equal_python_ones(self, seed):
        d = random_latent_dag(int(seed), 5, 2, 0.5)
        assert random_latent_dag(seed, 5, 2, 0.5).edges() == d.edges()
        s1, s2 = random_scm(seed, d), random_scm(int(seed), d)
        for v in d.nodes:
            np.testing.assert_array_equal(s1.cpts[v], s2.cpts[v])

    def test_generator_seed_is_used_as_is(self):
        d1 = random_latent_dag(np.random.default_rng(4), 5, 2, 0.5)
        assert d1.edges() == random_latent_dag(4, 5, 2, 0.5).edges()

    def test_one_draw_per_model_keeps_the_per_node_stream(self):
        meta = np.random.default_rng(31)
        for _ in range(300):
            d = random_latent_dag(meta, int(meta.integers(1, 7)), int(meta.integers(0, 4)), float(meta.uniform(0.2, 0.8)))
            seed = int(meta.integers(2**32))
            for card in (2, 3):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                s = random_scm(rng, d, card=card)
                want = loop_random_scm(ref_rng, d, card)
                assert s.cpts.keys() == want.keys()
                for v in d.nodes:
                    assert s.cpts[v].shape == want[v].shape and np.array_equal(s.cpts[v], want[v])
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                assert random_scm(seed, d, card=card) == Scm(d, s.cards, want)

    def test_zero_edge_probability(self):
        d = random_latent_dag(0, 4, 0, 0.0)
        assert d.edges() == ()

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            random_latent_dag(0, 9, 0, 0.4)
        with pytest.raises(ValueError):
            random_latent_dag(0, 4, 5, 0.4)


def loop_check_batch(d, cpts):
    """The sign and row checks of :func:`loop_check_cpts` on a batch: node by
    node in topological order, sign before rows, each over every model."""
    for v in d.topological_order():
        if any((cpt < 0).any() for cpt in cpts[v]):
            raise ValueError(f"negative CPT entry for {v!r}")
        if not all(np.abs(cpt.sum(axis=-1) - 1.0).max() <= CPT_ROW_TOL for cpt in cpts[v]):
            raise ValueError(f"CPT rows for {v!r} do not sum to 1")


class TestModelBatch:
    """A batch of models, one leading model axis on every array, against the
    same models drawn and computed one at a time: every CPT, joint and
    truncation bitwise, and the CPT checks with their per-node messages."""

    def test_each_model_is_bitwise_the_model_alone(self):
        meta = np.random.default_rng(43)
        seen = set()
        for _ in range(150):
            d = random_latent_dag(meta, int(meta.integers(1, 7)), int(meta.integers(0, 4)), float(meta.uniform(0.2, 0.8)))
            card, size = int(meta.integers(2, 4)), int(meta.integers(1, 7))
            seed = int(meta.integers(2**32))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            batch = random_scm(rng, d, card=card, size=size)
            singles = [random_scm(ref_rng, d, card=card) for _ in range(size)]
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert batch.models == size and batch.lead == (size,)
            table = joint(batch)
            x_vars = tuple(v for v in d.observed if meta.random() < 0.35)[:2]
            tables = list(truncations(batch, x_vars))
            for m, s in enumerate(singles):
                for v in d.nodes:
                    assert batch.cpts[v][m].shape == s.cpts[v].shape and np.array_equal(batch.cpts[v][m], s.cpts[v])
                want = joint(s)
                assert table.variables == want.variables and np.array_equal(table.probs[m], want.probs)
                for (vals, got), (want_vals, want_table) in zip(tables, truncations(s, x_vars), strict=True):
                    assert vals == want_vals and got.variables == want_table.variables
                    assert np.array_equal(got.probs[m], want_table.probs)
            seen.update({("card", card), ("size", size), ("latent", bool(d.latent)), ("x", len(x_vars))})
        assert seen >= {("card", 2), ("card", 3), ("size", 1), ("size", 6), ("latent", True), ("x", 0), ("x", 2)}

    def test_stacked_mixed_card_models_compute_as_alone(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            d = random_latent_dag(rng, int(rng.integers(1, 6)), int(rng.integers(0, 4)), 0.5)
            cards = {v: int(rng.integers(2, 4)) for v in d.nodes}
            shapes = {v: tuple(cards[u] for u in (*d.parents(v), v)) for v in d.nodes}
            singles = [
                Scm(d, cards, {v: rng.dirichlet(np.ones(shape[-1]), size=shape[:-1]) for v, shape in shapes.items()})
                for _ in range(int(rng.integers(1, 5)))
            ]
            batch = Scm(d, cards, {v: np.stack([s.cpts[v] for s in singles]) for v in d.nodes}, models=len(singles))
            x = {v: int(rng.integers(cards[v])) for v in d.observed if rng.random() < 0.4}
            order, arr = _full_joint(batch, x)
            got = truncated(batch, x)
            for m, s in enumerate(singles):
                want_order, want = _full_joint(s, x)
                assert order == want_order and np.array_equal(arr[m], want)
                want_table = truncated(s, x)
                assert got.variables == want_table.variables and np.array_equal(got.probs[m], want_table.probs)

    def test_faulty_cpt_in_a_batch_raises_the_per_node_message(self):
        rng = np.random.default_rng(53)
        kinds = ("negative", "nan", "inside", "outside", "negative+outside")
        named = set()
        for _ in range(200):
            d = random_latent_dag(rng, int(rng.integers(1, 6)), int(rng.integers(0, 4)), 0.5)
            size = int(rng.integers(1, 7))
            batch = random_scm(rng, d, card=int(rng.integers(2, 4)), size=size)
            cpts = {v: np.array(c) for v, c in batch.cpts.items()}
            for i in rng.permutation(len(d.nodes))[: int(rng.integers(1, 3))]:
                v, m = d.nodes[i], int(rng.integers(size))
                cpts[v][m] = plant_fault(rng, cpts[v][m], kinds[int(rng.integers(len(kinds)))])
            # the per-node checks over the model axis: the first faulty node in
            # topological order, sign before rows
            want = outcome(lambda: loop_check_batch(d, cpts))
            assert outcome(lambda: Scm(d, batch.cards, cpts, models=size)) == want
            named.add(want and want.split(" for ")[0])
        assert named == {None, "negative CPT entry", "CPT rows"}

    def test_batch_shape_is_checked_per_node(self, bow):
        batch = random_scm(0, bow, size=3)
        cpts = dict(batch.cpts)
        cpts["X"] = cpts["X"][:2]
        with pytest.raises(ValueError, match=r"CPT shape for 'X': \(2, 2, 2\) != \(3, 2, 2\)"):
            Scm(bow, batch.cards, cpts, models=3)
        with pytest.raises(ValueError, match="CPT shape for"):
            Scm(bow, batch.cards, batch.cpts)
        with pytest.raises(ValueError, match="at least one model"):
            Scm(bow, batch.cards, batch.cpts, models=0)
        assert random_scm(0, bow, size=1) != random_scm(0, bow)


class TestInterventional:
    """Every truncation as one table, against :func:`truncated` and the
    reference :func:`truncations`, one value at a time."""

    def test_each_value_slice_is_bitwise_truncated(self):
        meta = np.random.default_rng(61)
        seen = set()
        for _ in range(200):
            n_obs = int(meta.integers(1, 7))
            d = random_latent_dag(meta, n_obs, int(meta.integers(0, 4)), float(meta.uniform(0.2, 0.8)))
            card, size = int(meta.integers(2, 4)), [None, 1, 3, 6][int(meta.integers(4))]
            s = random_scm(meta, d, card=card, size=size)
            perm = [d.observed[i] for i in meta.permutation(n_obs)]
            n_x = int(meta.integers(0, min(2, n_obs - 1) + 1))
            x_vars, rest = tuple(perm[:n_x]), perm[n_x:]
            ys = tuple(rest[: int(meta.integers(0, len(rest)))])  # a strict subset, in random order
            table = interventional(s, x_vars)
            values = list(itertools.product(*(range(s.cards[v]) for v in x_vars)))
            wants = [truncated(s, dict(zip(x_vars, vals))) for vals in values]
            assert table.variables == wants[0].variables and table.cards == wants[0].cards
            assert table.probs.shape == s.lead + tuple(s.cards[v] for v in x_vars) + table.cards
            marginal = table.array_for(ys)
            for vals, want, (ref_vals, ref) in zip(values, wants, truncations(s, x_vars), strict=True):
                at = (slice(None),) * len(s.lead) + vals
                assert vals == ref_vals
                assert np.array_equal(table.probs[at], want.probs) and np.array_equal(table.probs[at], ref.probs)
                assert np.array_equal(marginal[at], want.array_for(ys))
            if not x_vars:
                alone = joint(s)
                assert table.variables == alone.variables and np.array_equal(table.probs, alone.probs)
            childless = not any(v in d.parents(c) for v in x_vars for c in d.nodes)
            seen.update({("x", n_x), ("card", card), ("size", size), ("latent", bool(d.latent))})
            seen.add(("childless", n_x > 0 and childless))
        assert seen == {("x", k) for k in (0, 1, 2)} | {("card", 2), ("card", 3)} | {
            ("size", k) for k in (None, 1, 3, 6)
        } | {(key, flag) for key in ("latent", "childless") for flag in (True, False)}

    def test_keeps_the_guards(self, bow):
        s = random_scm(0, bow)
        for x_vars in ((bow.latent[0],), ("X", "nowhere")):
            want = outcome(lambda: truncated(s, dict.fromkeys(x_vars, 0)))
            assert want.startswith("intervention on unknown observed node")
            assert outcome(lambda: interventional(s, x_vars)) == want
        nodes = [f"N{i}" for i in range(12)]
        big = Scm(LatentDag(nodes, [], []), {v: 4 for v in nodes}, {v: np.full(4, 0.25) for v in nodes})
        assert "exceeds guard" in outcome(lambda: interventional(big, ()))
        # 4**10 states fit the guard, but not once per value of N0
        edge = Scm(LatentDag(nodes[:10], [], []), {v: 4 for v in nodes}, {v: np.full(4, 0.25) for v in nodes[:10]})
        assert outcome(lambda: truncated(edge, {"N0": 1})) is None
        assert outcome(lambda: interventional(edge, ("N0",))) == (
            f"interventional state space {4 ** 11} exceeds guard {MAX_JOINT_STATES}"
        )
