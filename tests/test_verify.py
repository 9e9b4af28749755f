"""The broadcast gap measures of ``verify`` against their elementwise loop
definitions, on random SCMs."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pagid.ident_dag
import pagid.ident_pag
import pagid.oracle
import pagid.verify

from pagid.exprs import Conditional, evaluate_table, vsort
from pagid.graphs import LatentDag, MixedGraph, _confounded, _possible_ancestors, induced_subgraph, mark_masks, mask_of, names_of
from pagid.ident_dag import Fail, id_dag
from pagid.ident_pag import Fail as IdpFail
from pagid.ident_pag import idp
from pagid.oracle import (
    canonical_dag_of_mag,
    equivalence_class,
    joint,
    pag_of_class,
    random_latent_dag,
    random_scm,
    truncated,
)
from pagid.structure import _ScopeRows, pc_component, pto
from pagid.verify import (
    _sample_graph,
    _sample_query,
    _subsumption,
    expression_gap,
    interventional_gap,
    run_verification,
)
from reference_ident import _observed_ancestors, scope_by_names


def loop_interventional_gap(expr, scm, x_vars, y_vars):
    evars, arr = evaluate_table(expr, joint(scm))
    y_sorted = tuple(sorted(y_vars, key=lambda v: (v.lower(), v)))
    gap = 0.0
    for x_vals in itertools.product(*(range(scm.cards[v]) for v in x_vars)):
        assignment = dict(zip(x_vars, x_vals))
        truth = truncated(scm, assignment).array_for(y_sorted)
        for y_vals in itertools.product(*(range(scm.cards[v]) for v in y_sorted)):
            assignment.update(zip(y_sorted, y_vals))
            got = float(arr[tuple(assignment[v] for v in evars)])
            gap = max(gap, abs(got - float(truth[tuple(y_vals)])))
    return gap


def loop_expression_gap(e1, e2, scm):
    table = joint(scm)
    v1, a1 = evaluate_table(e1, table)
    v2, a2 = evaluate_table(e2, table)
    union = sorted(set(v1) | set(v2), key=lambda v: (v.lower(), v))
    gap = 0.0
    for vals in itertools.product(*(range(scm.cards[v]) for v in union)):
        bound = dict(zip(union, vals))
        x1 = float(a1[tuple(bound[v] for v in v1)])
        x2 = float(a2[tuple(bound[v] for v in v2)])
        gap = max(gap, abs(x1 - x2))
    return gap


def naive(xs, ys):
    """P(y | x): wrong under confounding, so its gaps are mostly nonzero."""
    return Conditional(vsort(ys), vsort(xs))


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_gaps_equal_their_loop_definitions(seed):
    rng = np.random.default_rng(seed)
    d = random_latent_dag(rng, int(rng.integers(2, 6)), int(rng.integers(0, 4)), 0.5)
    perm = [d.observed[i] for i in rng.permutation(len(d.observed))]
    n_x = int(rng.integers(1, len(perm)))
    xs, ys = tuple(perm[:n_x]), tuple(perm[n_x:n_x + int(rng.integers(1, len(perm) - n_x + 1))])
    scm = random_scm(rng, d, card=int(rng.integers(2, 4)))
    exprs = [naive(xs, ys)]
    identified = id_dag(xs, ys, d)
    if not isinstance(identified, Fail):
        exprs.append(identified)
    for e in exprs:
        try:
            want = loop_interventional_gap(e, scm, xs, ys)
        except AssertionError:
            with pytest.raises(AssertionError, match="non-query variables"):
                interventional_gap(e, scm, xs, ys)
            continue
        assert interventional_gap(e, scm, xs, ys) == want
    for e1, e2 in itertools.product(exprs, repeat=2):
        assert expression_gap(e1, e2, scm) == loop_expression_gap(e1, e2, scm)


def test_stray_variables_are_refused():
    d = random_latent_dag(3, 3, 0, 0.9)
    scm = random_scm(4, d)
    with pytest.raises(AssertionError, match="non-query variables"):
        interventional_gap(naive(("V1", "V2"), ("V3",)), scm, ("V1",), ("V3",))


GOLDEN = Path(__file__).resolve().parent / "data" / "verify_seed0_runs200.txt"


def test_seed0_table_equals_the_golden_file(capsys):
    run_verification(seed=0, runs=200)
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_batch_gaps_are_each_model_alone():
    """Each model's gaps in a batch, the answer given as an expression or as
    its value on the batch joint, against the model drawn alone, on the
    graphs, queries and answers of the verify pipeline."""
    rng = np.random.default_rng(59)
    compared = set()
    for _ in range(40):
        _, m = _sample_graph(rng)
        members = equivalence_class(m)
        query = _sample_query(rng, list(m.nodes))
        if query is None:
            continue
        xs, ys = query
        pag = pag_of_class(members)
        answer = idp(xs, ys, pag)
        answers = [naive(xs, ys)] + ([] if isinstance(answer, IdpFail) else [answer])
        for mm in members[:3]:
            d = canonical_dag_of_mag(mm)
            dag_answer = id_dag(xs, ys, d)
            exprs = answers + ([dag_answer] if not isinstance(dag_answer, Fail) else [])
            card, size = int(rng.integers(2, 4)), int(rng.integers(1, 7))
            seed = int(rng.integers(2**32))
            batch = random_scm(np.random.default_rng(seed), d, card=card, size=size)
            ref_rng = np.random.default_rng(seed)
            singles = [random_scm(ref_rng, d, card=card) for _ in range(size)]
            table = joint(batch)
            values = [evaluate_table(e, table) for e in exprs]
            for e, value in zip(exprs, values):
                for given in (e, value):
                    try:
                        gaps = interventional_gap(given, batch, xs, ys)
                    except AssertionError:
                        with pytest.raises(AssertionError, match="non-query variables"):
                            interventional_gap(e, singles[0], xs, ys)
                        break
                    assert gaps.shape == (size,)
                    assert [float(g) for g in gaps] == [interventional_gap(e, s, xs, ys) for s in singles]
            for (e1, v1), (e2, v2) in itertools.product(zip(exprs, values), repeat=2):
                want = [expression_gap(e1, e2, s) for s in singles]
                assert [float(g) for g in expression_gap(e1, e2, batch)] == want
                assert [float(g) for g in expression_gap(v1, v2, batch)] == want
            compared.update({("card", card), ("size", size), ("answers", len(exprs))})
    assert compared >= {("card", 2), ("card", 3), ("size", 1), ("size", 6), ("answers", 3)}


def loop_subsumption(pag, class_dags, sel):
    """The three subsumption verdicts per class DAG, as the pipeline once
    read them on node names: a DAG's observed ancestors in G[sel] and its
    c-components of G[sel], against possible ancestors, pc-components and
    bucket positions in P[sel], the last two read on the induced subgraph."""
    obs, sub = list(pag.nodes), induced_subgraph(pag, sel)
    within, outside = mask_of(pag, sel), set(obs) - set(sel)
    pos = {v: i for i, b in enumerate(pto(sub).buckets) for v in b}
    possible_anc = {v: set(names_of(obs, _possible_ancestors(pag, mask_of(pag, [v]), within))) for v in sel}
    pc_of = {v: set(pc_component(sub, [v])) for v in sel}
    verdicts = []
    for cdag in class_dags:
        anc = {v: set(_observed_ancestors(cdag, [v], outside)) for v in sel}
        comp_of = scope_by_names(cdag, sel)[0]
        verdicts.append((
            all(anc[v] <= possible_anc[v] for v in sel),
            all(set(comp_of[a]) <= pc_of[a] for a in sel),
            all(pos[v] <= pos[u] for u in sel for v in anc[u] if v != u),
        ))
    return verdicts


def test_mask_subsumption_equals_its_name_loop():
    """On the pipeline's draws and both its selections per draw, and with
    each draw's class DAGs held against the previous draw's PAG as well (so
    that verdicts also come out false), the mask checks give the verdicts of
    :func:`loop_subsumption` for every class DAG."""
    rng = np.random.default_rng(67)
    verdicts, previous = set(), None
    for _ in range(60):
        _, m = _sample_graph(rng)
        members = equivalence_class(m)
        pag = pag_of_class(members)
        class_dags = [canonical_dag_of_mag(mm) for mm in members]
        steps = [(mark_masks(cdag)[0], _confounded(cdag)) for cdag in class_dags]
        obs = list(pag.nodes)
        pags = [pag] + ([previous] if previous is not None and previous.nodes == pag.nodes else [])
        for _ in range(2):
            size = int(rng.integers(2, len(obs) + 1))
            sel = sorted([obs[i] for i in rng.permutation(len(obs))][:size])
            for p in pags:
                got = list(_subsumption(p, _ScopeRows(p), steps, mask_of(p, sel)))
                assert got == loop_subsumption(p, class_dags, sel)
                verdicts.update((k, ok) for row in got for k, ok in enumerate(row))
        previous = pag
    assert verdicts == {(k, ok) for k in range(3) for ok in (True, False)}


def test_verification_cost_shape(monkeypatch):
    """Each interventional_gap call builds one product of factors and
    clamps no value alone, and the pipeline builds no DAG row table outside
    id_dag; id_dag's own row tables and ancestor closures show that it ran."""
    made, per_gap, calls = {"_product": 0, "_clamp": 0}, [], {"inside": 0, "outside": 0, "closures": 0}
    depth = [0]
    for name in made:
        def count(*args, real=getattr(pagid.oracle, name), name=name):
            made[name] += 1
            return real(*args)

        monkeypatch.setattr(pagid.oracle, name, count)

    def gap(*args, real=pagid.verify.interventional_gap):
        before = dict(made)
        try:
            return real(*args)
        finally:
            per_gap.append(tuple(made[k] - before[k] for k in made))

    def dag_answer(*args, real=pagid.ident_dag.id_dag, **kwargs):
        depth[0] += 1
        try:
            return real(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(pagid.verify, "interventional_gap", gap)
    monkeypatch.setattr(pagid.ident_dag, "id_dag", dag_answer)

    class Rows(pagid.ident_dag._DagRows):
        def __init__(self, d):
            calls["inside" if depth[0] else "outside"] += 1
            super().__init__(d)

    def closure(*args, real=pagid.ident_dag._possible_ancestors):
        calls["closures"] += depth[0] > 0
        return real(*args)

    monkeypatch.setattr(pagid.ident_dag, "_DagRows", Rows)
    # a name bound in verify itself would go round the module's
    monkeypatch.setattr(pagid.verify, "_DagRows", Rows, raising=False)
    monkeypatch.setattr(pagid.ident_dag, "_possible_ancestors", closure)
    run_verification(seed=0, runs=20, quiet=True)
    assert len(per_gap) > 20 and set(per_gap) == {(1, 0)}
    assert calls["outside"] == 0 and calls["inside"] > 0 and calls["closures"] > 0


def forced(monkeypatch, case):
    """Patch the pipeline so that checks fail: ``naive`` answers every query
    with P(y | x), ``fail`` with a failure, ``subsumption`` shrinks the PAG's
    possible ancestors and pc-components to the node itself and reverses its
    bucket order, and ``roundtrip`` gives every class member an edgeless
    canonical DAG."""
    if case == "naive":
        monkeypatch.setattr(pagid.ident_pag, "idp", lambda xs, ys, pag: naive(xs, ys))
    elif case == "fail":
        monkeypatch.setattr(pagid.ident_pag, "idp", lambda xs, ys, pag: IdpFail((), (), ()))
    elif case == "subsumption":

        class Shrunk(pagid.verify._ScopeRows):
            def order(self, within, first=0):
                return super().order(within, first)[::-1]

            def pc(self, seed, within):
                return seed

        monkeypatch.setattr(pagid.verify, "_possible_ancestors", lambda g, y, within: y)
        monkeypatch.setattr(pagid.verify, "_ScopeRows", Shrunk)
    else:
        monkeypatch.setattr(pagid.verify, "canonical_dag_of_mag", lambda m: LatentDag(m.nodes, [], []))


# (case, seed, runs) -> {check: (trials, violations, notes)}, as the
# pipeline formatted every note eagerly
FORCED = {
    ("naive", 3, 4): {
        "idp numeric soundness": (205, 90, [
            "run 0: ('V2', 'V5')->('V1', 'V3') gap 1.69e-01",
            "run 0: ('V2', 'V5')->('V1', 'V3') gap 7.38e-02",
            "run 0: ('V2', 'V5')->('V1', 'V3') gap 3.54e-01",
            "run 0: ('V2', 'V5')->('V1', 'V3') gap 3.33e-02",
            "run 0: ('V2', 'V5')->('V1', 'V3') gap 1.91e-01",
        ]),
        "idp/id-dag agreement": (41, 18, [
            "run 0: ('V2', 'V5')->('V1', 'V3') on LatentDag(observed=['V1', 'V2', 'V3', 'V4', 'V5', 'V6'], latent=[], V1->V4, V3->V2, V2->V5)",
            "run 0: ('V2', 'V5')->('V1', 'V3') on LatentDag(observed=['V1', 'V2', 'V3', 'V4', 'V5', 'V6'], latent=['U1'], V1->V4, U1->V2, U1->V3, V2->V5)",
            "run 0: ('V2', 'V5')->('V1', 'V3') on LatentDag(observed=['V1', 'V2', 'V3', 'V4', 'V5', 'V6'], latent=[], V4->V1, V3->V2, V2->V5)",
            "run 0: ('V2', 'V5')->('V1', 'V3') on LatentDag(observed=['V1', 'V2', 'V3', 'V4', 'V5', 'V6'], latent=['U1'], V4->V1, U1->V2, U1->V3, V2->V5)",
            "run 0: ('V2', 'V5')->('V1', 'V3') on LatentDag(observed=['V1', 'V2', 'V3', 'V4', 'V5', 'V6'], latent=['U1'], U1->V1, U1->V4, V3->V2, V2->V5)",
        ]),
    },
    ("fail", 0, 40): {
        "adjustment implies idp": (7, 7, [
            "run 6: ('V1', 'V6')->('V4',) adjustable but idp failed",
            "run 19: ('V2',)->('V1',) adjustable but idp failed",
            "run 22: ('V3',)->('V5',) adjustable but idp failed",
            "run 26: ('V3',)->('V1',) adjustable but idp failed",
            "run 27: ('V5',)->('V2', 'V4') adjustable but idp failed",
        ]),
    },
    ("subsumption", 3, 4): {
        "ancestor subsumption": (74, 40, ["run 0: ['V1', 'V4']"] * 5),
        "component subsumption": (74, 24, ["run 0: ['V1', 'V4']"] * 5),
        "partial order validity": (74, 12, ["run 3: ['V2', 'V3', 'V4', 'V5']"] * 5),
    },
    ("roundtrip", 2, 2): {
        "projection roundtrip": (7, 6, [
            "run 0: roundtrip mismatch for Mag(V1 --> V3, V1 --> V6, V2 --> V3, V3 --> V4, V4 <-> V6)",
            "run 0: roundtrip mismatch for Mag(V1 --> V3, V1 --> V6, V2 <-> V3, V3 --> V4, V4 <-> V6)",
            "run 0: roundtrip mismatch for Mag(V1 --> V3, V1 <-> V6, V2 --> V3, V3 --> V4, V4 <-> V6)",
            "run 0: roundtrip mismatch for Mag(V1 --> V3, V1 <-> V6, V2 <-> V3, V3 --> V4, V4 <-> V6)",
            "run 0: roundtrip mismatch for Mag(V1 <-> V3, V1 --> V6, V2 --> V3, V3 --> V4, V4 <-> V6)",
        ]),
    },
}


@pytest.mark.parametrize("case", FORCED)
def test_forced_violations_keep_their_notes(monkeypatch, case):
    forced(monkeypatch, case[0])
    renders = []
    for cls in (MixedGraph, LatentDag):
        monkeypatch.setattr(cls, "__repr__", lambda g, real=cls.__repr__: renders.append(g) or real(g))
    checks = run_verification(seed=case[1], runs=case[2], quiet=True)
    got = {c.name: (c.trials, c.violations, c.notes) for c in checks if c.violations}
    assert got == FORCED[case]
    # a graph is rendered for each note kept, and for no other check
    assert len(renders) == sum("Dag(" in note or "Mag(" in note for _, _, notes in got.values() for note in notes)


def test_passing_checks_format_no_note(monkeypatch):
    def refuse(g):
        raise AssertionError("a graph was rendered for a passing check")

    for cls in (MixedGraph, LatentDag):
        monkeypatch.setattr(cls, "__repr__", refuse)
    checks = run_verification(seed=0, runs=30, quiet=True)
    assert sum(c.trials for c in checks) > 1000 and not any(c.violations for c in checks)
