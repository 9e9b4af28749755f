"""The broadcast gap measures of ``verify`` against their elementwise loop
definitions, on random SCMs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pagid.exprs import Conditional, DistRef, evaluate_table, vsort
from pagid.ident_dag import Fail, id_dag
from pagid.oracle import joint, random_latent_dag, random_scm, truncated
from pagid.verify import expression_gap, interventional_gap


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
    return Conditional(vsort(ys), vsort(xs), DistRef(vsort(xs + ys)))


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
