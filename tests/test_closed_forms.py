"""Answers built in closed form, held against the forms they replace.

``ident_dag.identify`` reads the components of D that take no removal step
off P(A) as one factor chain over their union, and ``gac``'s formula is
built as the node ``simplify`` returns for it.  The first test runs both
engines through the driver and through ``reference_ident``'s driver, which
starts every component on its own and leaves the merge of the untouched
starts to the final ``simplify``; the second builds each ``gac`` success's
formula both ways.  Together about 2.6 s of tier-1 time on a 2-core x86
host.
"""

import numpy as np
import pytest

import reference_ident
from conftest import latent_dag_at, mag_as_pag
from pagid import catalog, ident_dag
from pagid.adjustment import adjustment_formula, gac
from pagid.exprs import Conditional, DistRef, Product, SumOver, render_text, simplify, to_json_dict, vsort
from pagid.graphs import LatentDag, mag_of_dag
from pagid.ident_dag import id_dag
from pagid.ident_pag import idp
from pagid.oracle import equivalence_class, pag_of_class
from pagid.verify import _sample_graph, _sample_query

# mixed case, so that vsort's order (lowercased) differs from the raw name
# order that sorts factors: "B" < "a", but vsort puts a before B
MIXED = ("a", "B", "c", "D", "e", "F")


def _relabel(d):
    names = dict(zip(d.observed, MIXED))
    return LatentDag(tuple(names[v] for v in d.observed), d.latent, [(names.get(a, a), names.get(b, b)) for a, b in d.edges()])


def _graphs():
    """(graph, queries): the catalog's graphs with every single-node query;
    300 seeded verify draws, every other one renamed to mixed case, each as
    its latent DAG and its MAG read as a PAG, the first 100 also as their
    class PAG (with circles); and 40 9-12-node latent DAGs by the cap12
    benchmark's recipe, with edge probability 0.15-0.7 and 0-6 latents
    (names V1..V12, so V10 sorts before V2), each with its MAG read as a
    PAG.  A verify draw gets 4 seeded queries of 1-2 nodes, a 9-12-node
    draw 10."""
    out = []
    for g in (catalog.confounded_chain_dag(), catalog.confounded_chain_dag_alt(), catalog.bow_dag(),
              catalog.confounded_chain_pag(), catalog.two_treatment_pag(), catalog.beyond_adjustment_pag(),
              catalog.circle_pair_pag()):
        nodes = g.observed if isinstance(g, LatentDag) else g.nodes
        out.append((g, [((x,), (y,)) for x in nodes for y in nodes if x != y]))
    rng = np.random.default_rng(38)
    for k in range(340):
        if k < 300:
            d, m = _sample_graph(rng)
            if k % 2:
                d = _relabel(d)
                m = mag_of_dag(d)
            graphs = [d, mag_as_pag(m)] + ([pag_of_class(equivalence_class(m))] if k < 100 else [])
        else:
            d = latent_dag_at(rng, int(rng.integers(9, 13)), int(rng.integers(0, 7)), float(rng.uniform(0.15, 0.7)))
            graphs = [d, mag_as_pag(mag_of_dag(d))]
        queries = [q for q in (_sample_query(rng, list(d.observed)) for _ in range(4 if k < 300 else 10)) if q]
        out += [(g, queries) for g in graphs]
    return out


@pytest.fixture(scope="module")
def graphs():
    return _graphs()


def _observed(g):
    return g.observed if isinstance(g, LatentDag) else g.nodes


def test_one_chain_for_untouched_components_matches_per_component_starts(graphs, monkeypatch):
    # every answer, Fail value and text, and trace[i].reduced equals that of
    # the driver with one start per component, default and seeded scans; a
    # spy on each driver's starts counts the queries whose chain serves more
    # than one component, and those that also take a removal step
    starts = {"new": 0, "ref": 0}
    for module, side in ((ident_dag, "new"), (reference_ident, "ref")):
        def start(order, s_union, real=module.q_of_joint, side=side):
            starts[side] += 1
            return real(order, s_union)

        monkeypatch.setattr(module, "q_of_joint", start)
    counts = {"queries": 0, "merged": 0, "merged_stepped": 0, "stepped": 0, "failed": 0}
    for g, queries in graphs:
        observed = _observed(g)
        for x, y in queries:
            for seed in (None, 3):
                kwargs = reference_ident.engine(g)
                trace, ref_trace = [], []
                starts.update(new=0, ref=0)
                got = ident_dag.identify(g, observed, x, y, choice_seed=seed, trace=trace, **kwargs)
                want = reference_ident.identify_by_component(g, observed, x, y, choice_seed=seed, trace=ref_trace, **kwargs)
                assert got == want, (g, x, y, seed)
                assert [s.reduced for s in trace] == [s.reduced for s in ref_trace]
                if hasattr(got, "describe"):
                    assert got.describe() == want.describe()
                    counts["failed"] += 1
                merged = starts["new"] < starts["ref"]
                counts["queries"] += 1
                counts["stepped"] += bool(trace)
                counts["merged"] += merged
                counts["merged_stepped"] += merged and bool(trace)
            entry = id_dag if isinstance(g, LatentDag) else idp
            assert entry(x, y, g) == reference_ident.identify_by_component(
                g, observed, x, y, choice_seed=None, **reference_ident.engine(g))
    # 7,496 queries: 2,218 share one chain between components, 96 of them
    # beside a component that takes a removal step; 380 take a step, 1,826
    # fail
    assert counts["queries"] > 7000 and counts["merged"] > 2000 and counts["merged_stepped"] > 80
    assert counts["stepped"] > 300 and counts["failed"] > 1500


def test_gac_formula_is_the_simplified_sum(graphs):
    # on every gac success, the closed form is the node simplify returns for
    # sum_z P(y|x,z) * P(z), and renders the same as text and as JSON
    checked = mixed = two_digit = 0
    for g, queries in graphs:
        if isinstance(g, LatentDag):
            continue
        for x, y in queries:
            z = gac(x, y, g)
            if not isinstance(z, tuple):
                continue
            got = adjustment_formula(z, x, y)
            if z:
                want = simplify(SumOver(z, Product((Conditional(y, x + z), DistRef(z)))))
            else:
                want = simplify(Conditional(y, x))
            assert got == want and (got._fixed or not z)
            assert render_text(got) == render_text(want) and to_json_dict(got) == to_json_dict(want)
            checked += bool(z)
            names = vsort(x + y + z)
            mixed += names != tuple(sorted(names))
            two_digit += bool(z) and any(len(v) > 2 for v in names)
    # 303 non-empty sets; 145 successes name sets whose vsort order is not
    # the raw order, and 62 non-empty sets mix V10-V12 with V1-V9
    assert checked > 250 and mixed > 100 and two_digit > 50
