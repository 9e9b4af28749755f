"""Seeded end-to-end verification pipeline.

Draws random latent DAGs, brute-forces their equivalence class and PAG, and
checks the projection roundtrip, the subgraph subsumption properties, the
partial-order validity, numeric soundness of both identification algorithms,
and that adjustment success implies decomposition success.  Counts violations
per check and renders a summary table.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import adjustment, ident_dag, ident_pag
from .exprs import Expr, _align, evaluate_table
from .graphs import LatentDag, Mag, induced_subgraph, mag_of_dag, possible_ancestors
from .oracle import canonical_dag_of_mag, equivalence_class, joint, pag_of_class, random_latent_dag, random_scm, truncated
from .ident_dag import c_components
from .structure import pc_component, pto

MAX_MAG_EDGES = 9
SCMS_PER_DAG = 5  # random models per class DAG in the numeric soundness check


@dataclass
class Check:
    name: str
    trials: int = 0
    violations: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, note: str = "") -> None:
        self.trials += 1
        if not ok:
            self.violations += 1
            if note and len(self.notes) < 5:
                self.notes.append(note)


def interventional_gap(expr: Expr, scm, x_vars, y_vars) -> float:
    """Largest deviation of ``expr`` from the truncated-factorisation P_x(y)."""
    tables = {(): joint(scm)}
    evars, arr = evaluate_table(expr, tables)
    stray = set(evars) - set(x_vars) - set(y_vars)
    if stray:
        raise AssertionError(f"expression mentions non-query variables {sorted(stray)}")
    x_vars = tuple(x_vars)
    y_sorted = tuple(sorted(y_vars, key=lambda v: (v.lower(), v)))
    truth = np.empty(tuple(scm.cards[v] for v in x_vars + y_sorted))
    for x_vals in itertools.product(*(range(scm.cards[v]) for v in x_vars)):
        truth[x_vals] = truncated(scm, dict(zip(x_vars, x_vals))).array_for(y_sorted)
    _, (got, want) = _align([(evars, arr), (x_vars + y_sorted, truth)])
    return float(np.abs(got - want).max(initial=0.0))


def expression_gap(e1: Expr, e2: Expr, scm) -> float:
    """Largest pointwise deviation between two expressions on one table."""
    tables = {(): joint(scm)}
    _, (a1, a2) = _align([evaluate_table(e1, tables), evaluate_table(e2, tables)])
    return float(np.abs(a1 - a2).max(initial=0.0))


def _sample_graph(rng) -> tuple[LatentDag, Mag]:
    for _ in range(200):
        n_obs = int(rng.integers(2, 7))
        n_lat = int(rng.integers(0, 4))
        prob = float(rng.uniform(0.15, 0.55))
        d = random_latent_dag(rng, n_obs, n_lat, prob)
        m = mag_of_dag(d)
        if len(m.edges()) <= MAX_MAG_EDGES:
            return d, m
    raise RuntimeError("could not sample a graph under the edge guard")


def _sample_query(rng, nodes) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    if len(nodes) < 2:
        return None
    n_x = int(rng.integers(1, min(2, len(nodes) - 1) + 1))
    perm = [nodes[i] for i in rng.permutation(len(nodes))]
    xs = tuple(sorted(perm[:n_x]))
    rest = perm[n_x:]
    n_y = int(rng.integers(1, min(2, len(rest)) + 1))
    ys = tuple(sorted(rest[:n_y]))
    return xs, ys


def run_verification(seed: int = 0, runs: int = 200, tol: float = 1e-9, quiet: bool = False):
    """Run the full property pipeline; returns the list of checks.

    Raises ``ValueError`` unless ``tol`` is finite and nonnegative and
    ``runs`` is nonnegative: no gap is ``<= nan``, so a NaN tolerance would
    count every numeric trial of a correct program as a violation.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be a finite number >= 0, not {tol!r}")
    if runs < 0:
        raise ValueError(f"number of runs must be >= 0, not {runs!r}")
    rng = np.random.default_rng(seed)
    checks = {
        name: Check(name)
        for name in (
            "projection roundtrip",
            "ancestor subsumption",
            "component subsumption",
            "partial order validity",
            "idp numeric soundness",
            "adjustment implies idp",
            "idp/id-dag agreement",
        )
    }
    started = time.perf_counter()
    for run in range(runs):
        d, m = _sample_graph(rng)
        members = equivalence_class(m)
        pag = pag_of_class(members)
        class_dags = [canonical_dag_of_mag(mm) for mm in members]

        for mm, cdag in zip(members, class_dags):
            checks["projection roundtrip"].record(
                mag_of_dag(cdag) == mm, f"run {run}: roundtrip mismatch for {mm!r}"
            )

        obs = list(pag.nodes)
        for _ in range(2):
            size = int(rng.integers(2, len(obs) + 1))
            sel = sorted([obs[i] for i in rng.permutation(len(obs))][:size])
            sub_pag = induced_subgraph(pag, pag.sort_nodes(sel))
            order = pto(sub_pag)
            pos = {v: order.position(v) for v in sel}
            possible_anc = {v: set(possible_ancestors(sub_pag, [v])) for v in sel}
            pc_of = {v: set(pc_component(sub_pag, [v])) for v in sel}
            for cdag in class_dags:
                sub_dag = induced_subgraph(cdag, sel)
                anc = {v: set(sub_dag.ancestors([v])) & set(sel) for v in sel}
                ok_anc = all(anc[v] <= possible_anc[v] for v in sel)
                checks["ancestor subsumption"].record(ok_anc, f"run {run}: {sel}")
                ok_comp = all(set(comp) <= pc_of[a] for comp in c_components(sub_dag) for a in comp)
                checks["component subsumption"].record(ok_comp, f"run {run}: {sel}")
                ok_order = all(
                    pos[v] <= pos[u]
                    for u in sel
                    for v in anc[u]
                    if v != u
                )
                checks["partial order validity"].record(ok_order, f"run {run}: {sel}")

        query = _sample_query(rng, list(pag.nodes))
        if query is None:
            continue
        xs, ys = query
        result = ident_pag.idp(xs, ys, pag)
        idp_ok = not isinstance(result, ident_pag.Fail)

        if idp_ok:
            for cdag in class_dags:
                for _ in range(SCMS_PER_DAG):
                    scm = random_scm(rng, cdag)
                    gap = interventional_gap(result, scm, xs, ys)
                    checks["idp numeric soundness"].record(
                        gap <= tol, f"run {run}: {xs}->{ys} gap {gap:.2e}"
                    )
                dag_result = ident_dag.id_dag(xs, ys, cdag)
                agree = not isinstance(dag_result, ident_dag.Fail)
                if agree:
                    scm = random_scm(rng, cdag)
                    agree = expression_gap(result, dag_result, scm) <= tol
                checks["idp/id-dag agreement"].record(
                    agree, f"run {run}: {xs}->{ys} on {cdag!r}"
                )

        adj = adjustment.gac(xs, ys, pag)
        if not isinstance(adj, adjustment.Fail):
            checks["adjustment implies idp"].record(
                idp_ok, f"run {run}: {xs}->{ys} adjustable but idp failed"
            )

    elapsed = time.perf_counter() - started
    if not quiet:
        print(f"elapsed: {elapsed:.1f}s", file=sys.stderr)
        print(f"verification: seed={seed} runs={runs} tol={tol:g}")
        print(f"{'check':32s} {'trials':>8s} {'violations':>11s}  status")
        for check in checks.values():
            status = "ok" if check.violations == 0 else "FAIL"
            print(f"{check.name:32s} {check.trials:8d} {check.violations:11d}  {status}")
            for note in check.notes:
                print(f"    {note}")
    return list(checks.values())
