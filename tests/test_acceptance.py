"""End-to-end acceptance checks.

Each criterion runs at its stated tolerance and prints one pass/fail line
(visible with ``pytest -s`` or in captured output).
"""

import time

import numpy as np

from conftest import max_value_gap, random_joint_table
from pagid.adjustment import Fail as GacFail
from pagid.adjustment import gac
from pagid.catalog import (
    beyond_adjustment_pag,
    bow_dag,
    circle_pair_pag,
    confounded_chain_dag,
    confounded_chain_dag_alt,
    confounded_chain_pag,
    two_treatment_pag,
)
from pagid.exprs import render_text, simplify
from pagid.graphs import CIRCLE, Mag, TAIL
from pagid.ident_dag import Fail as DagFail
from pagid.ident_dag import id_dag
from pagid.ident_pag import Fail as IdpFail
from pagid.ident_pag import idp
from pagid.oracle import canonical_dag_of_mag, equivalence_class, random_scm
from pagid.verify import interventional_gap, run_verification


def report(number: int, ok: bool, text: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_twin_treatment_worked_example():
    pag = two_treatment_pag()
    trace = []
    started = time.perf_counter()
    result = idp(["X1", "X2"], ["Y1", "Y2", "Y3"], pag, trace=trace)
    elapsed = time.perf_counter() - started
    rendered = render_text(result)
    intermediates = [render_text(step.reduced) for step in trace[:2]]
    ok = (
        rendered == "P(y1,y2|x1) * P(y3|x2)"
        and intermediates == ["P(v1,v2,x1,x2,y1,y2)", "P(v1,v2,x1,y1,y2)"]
        and elapsed < 1.0
    )
    report(1, ok, f"expression {rendered!r}, intermediates {intermediates}, {elapsed:.3f}s")


def test_criterion_2_chain_full_effect_expression_and_values():
    pag = confounded_chain_pag()
    result = idp(["X"], ["V1", "V2", "V3", "V4"], pag)
    rendered = render_text(result)
    worst = 0.0
    for tag, dag in (("primary", confounded_chain_dag()), ("variant", confounded_chain_dag_alt())):
        for seed in range(20):
            scm = random_scm(seed, dag)
            worst = max(
                worst,
                interventional_gap(result, scm, ("X",), ("V1", "V2", "V3", "V4")),
            )
    ok = rendered == "P(v1,v2) * P(v3,v4|v1,v2,x)" and worst <= 1e-9
    report(2, ok, f"expression {rendered!r}, worst deviation {worst:.2e}")


def test_criterion_3_decomposition_beats_adjustment():
    pag = beyond_adjustment_pag()
    adjustment_verdict = gac(["X"], ["Y"], pag)
    result = idp(["X"], ["Y"], pag)
    ok = isinstance(adjustment_verdict, GacFail) and not isinstance(result, IdpFail)
    # brute-force the class from a tail completion of the single circle mark
    edges = [
        (a, b, TAIL if ma is CIRCLE else ma, TAIL if mb is CIRCLE else mb, False)
        for a, b, ma, mb, _ in pag.edges()
    ]
    members = equivalence_class(Mag(pag.nodes, edges))
    worst = 0.0
    for i, member in enumerate(members):
        cdag = canonical_dag_of_mag(member)
        for seed in range(20):
            scm = random_scm(1000 + 20 * i + seed, cdag)
            worst = max(worst, interventional_gap(result, scm, ("X",), ("Y",)))
    ok = ok and len(members) >= 1 and worst <= 1e-9
    report(
        3,
        ok,
        f"adjustment fails, decomposition succeeds; {len(members)} class members, "
        f"worst deviation {worst:.2e}",
    )


def test_criterion_4_failure_certificates():
    circle = idp(["X"], ["Y"], circle_pair_pag())
    bow = id_dag(["X"], ["Y"], bow_dag())
    ok = (
        isinstance(circle, IdpFail)
        and set(circle.scope) == {"X", "Y"}
        and "no removable bucket" in circle.describe()
        and isinstance(bow, DagFail)
        and bow.node == "X"
        and set(bow.component) == {"X", "Y"}
    )
    report(4, ok, f"certificates: {circle.describe()!r} / {bow.describe()!r}")


def test_criterion_5_property_pipeline():
    started = time.perf_counter()
    checks = run_verification(seed=0, runs=200, tol=1e-9, quiet=True)
    elapsed = time.perf_counter() - started
    bad = [c.name for c in checks if c.violations]
    ok = not bad and elapsed < 600
    summary = ", ".join(f"{c.name}={c.trials}" for c in checks)
    report(5, ok, f"200 seeded runs in {elapsed:.1f}s, zero violations ({summary})")


def test_criterion_6_expression_engine_soundness():
    from test_exprs import TWIN_VARS, _expression_corpus

    twin = two_treatment_pag()
    chain = confounded_chain_pag()
    ring = beyond_adjustment_pag()
    cases = [(e, TWIN_VARS) for e in _expression_corpus(None, None, None)]
    cases.append((idp(["X1", "X2"], ["Y1", "Y2", "Y3"], twin), TWIN_VARS))
    cases.append((idp(["X"], ["V1", "V2", "V3", "V4"], chain), tuple(chain.nodes)))
    cases.append((idp(["X"], ["Y"], ring), tuple(ring.nodes)))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for e, variables in cases:
        for _ in range(50):
            tables = {(): random_joint_table(rng, variables)}
            worst = max(worst, max_value_gap(e, simplify(e), tables))
        assert simplify(simplify(e)) == simplify(e)
    ok = worst <= 1e-12
    report(6, ok, f"50 random tables per case, worst rewrite deviation {worst:.2e}")
