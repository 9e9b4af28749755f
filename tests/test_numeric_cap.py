"""Identified answers at the 12-node cap against the truth of the DAG that
generated them.

Each draw is a 12-node latent DAG by the cap12 benchmark's recipe, with edge
probability 0.15-0.7 and at most 6 latents, so that an interventional table
stays within ``oracle.MAX_JOINT_STATES`` (18 nodes and 2 treatments are 2^20
states).  Its MAG, read as a PAG, represents a class that holds the DAG, so
an effect identified on the PAG, and ``gac``'s adjustment formula, must equal
the DAG's truncated factorisation, as must ``id_dag``'s answer on the DAG.
``verify`` cannot stand in for this: its numeric rows see almost only
P_x(y) = P(y).  About 6 s of tier-1 time on a 2-core x86 host.
"""

import numpy as np

from conftest import latent_dag_at, mag_as_pag
from pagid.adjustment import adjustment_formula, gac
from pagid.exprs import DistRef, Expr, _align, evaluate_table, vsort
from pagid.graphs import mag_of_dag
from pagid.ident_dag import id_dag
from pagid.ident_pag import idp
from pagid.oracle import interventional, joint, random_scm
from pagid.verify import _sample_query

TOL = 1e-9


def _gap(expr, table, truth, x, y):
    """Largest deviation of ``expr``, evaluated on the observational
    ``table``, from ``truth``, P_x(y) with one axis per variable of x and
    then of y in vsort order.  A variable of the answer outside x and y gets
    a length-one axis in the truth, so every one of its values is checked,
    as ``bench/checks.py`` checks answers with stray variables."""
    _, (got, want) = _align([evaluate_table(expr, table), (tuple(x) + vsort(y), truth)])
    return float(np.abs(got - want).max())


def test_answers_at_the_cap_equal_the_generating_dags_truth():
    rng = np.random.default_rng(17)
    counts = {"idp": 0, "id_dag": 0, "gac": 0, "nontrivial": 0, "stray": 0}
    worst = 0.0
    for _ in range(300):
        d = latent_dag_at(rng, 12, int(rng.integers(0, 7)), float(rng.uniform(0.15, 0.7)))
        p = mag_as_pag(mag_of_dag(d))
        scm = random_scm(rng, d)
        table = joint(scm)
        for _ in range(3):
            x, y = _sample_query(rng, list(d.observed))
            answers = {"idp": idp(x, y, p), "id_dag": id_dag(x, y, d)}
            z = gac(x, y, p)
            if isinstance(z, tuple):
                answers["gac"] = adjustment_formula(z, x, y)
            found = {name: e for name, e in answers.items() if isinstance(e, Expr)}
            # what idp identifies on the PAG, id_dag identifies on a DAG of
            # its class
            assert "idp" not in found or "id_dag" in found, (d, x, y)
            if not found:
                continue
            truth = interventional(scm, x).array_for(vsort(y))
            for name, expr in found.items():
                gap = _gap(expr, table, truth, x, y)
                assert gap <= TOL, (name, d, x, y, gap)
                worst = max(worst, gap)
                counts[name] += 1
                counts["nontrivial"] += not isinstance(expr, DistRef)
                counts["stray"] += bool(set(expr.free_vars()) - set(x) - set(y))
    # 900 queries on 300 draws: 596 idp, 847 id_dag and 294 gac answers,
    # 811 of them other than P(y), and 4 with a stray variable; the worst
    # gap is 2.2e-15
    assert counts["idp"] > 500 and counts["id_dag"] > 750 and counts["gac"] > 250
    assert counts["nontrivial"] > 700 and counts["stray"] > 2 and worst < 1e-13
