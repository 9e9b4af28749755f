"""Seeded end-to-end verification pipeline.

Draws random latent DAGs, brute-forces their equivalence class and PAG, and
checks the projection roundtrip, the subgraph subsumption properties, the
partial-order validity, numeric soundness of both identification algorithms,
and that adjustment success implies decomposition success.  Counts violations
per check and renders a summary table.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import adjustment, ident_dag, ident_pag
from .exprs import Expr, _align, evaluate_table, vsort
from .graphs import LatentDag, Mag, _ancestors, _blocks, _confounded, _possible_ancestors, bits, mag_of_dag, mark_masks, mask_of
from .oracle import canonical_dag_of_mag, equivalence_class, interventional, joint, pag_of_class, random_latent_dag, random_scm
from .structure import _ScopeRows

MAX_MAG_EDGES = 9
SCMS_PER_DAG = 5  # random models per class DAG in the numeric soundness check


@dataclass
class Check:
    name: str
    trials: int = 0
    violations: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, note: Callable[[], str] | None = None) -> None:
        """Count a trial; a violation keeps the text ``note()`` gives while
        fewer than five notes are kept.  The note is formatted then only:
        most read a graph's repr, and most trials pass."""
        self.trials += 1
        if not ok:
            self.violations += 1
            if note is not None and len(self.notes) < 5:
                self.notes.append(note())


Value = tuple[tuple[str, ...], np.ndarray]  # an expression's value, as evaluate_table gives it


def _values(exprs: Sequence[Expr | Value], scm) -> list[Value]:
    """Each expression's value on ``joint(scm)``; a value passes as it is,
    and the joint is built only when some expression needs it."""
    table = joint(scm) if any(isinstance(e, Expr) for e in exprs) else None
    return [evaluate_table(e, table) if isinstance(e, Expr) else e for e in exprs]


def _gaps(scm, union: tuple[str, ...], a: np.ndarray, b: np.ndarray):
    """Largest deviation between two aligned arrays, per model of ``scm``:
    a float for one model, an array of one per model for a batch."""
    gaps = np.abs(a - b).max(axis=tuple(range(-len(union), 0)), initial=0.0)
    return float(gaps) if not scm.lead else np.broadcast_to(gaps, scm.lead)


def interventional_gap(expr: Expr | Value, scm, x_vars, y_vars):
    """Largest deviation of ``expr`` from the truncated-factorisation P_x(y),
    per model of ``scm`` (see :func:`_gaps`), read for every value of x off
    one :func:`.oracle.interventional` table.

    ``expr`` may come evaluated, as its value on ``joint(scm)``, so that a
    caller that also compares it with another expression evaluates it once.
    """
    ((evars, arr),) = _values([expr], scm)
    stray = set(evars) - set(x_vars) - set(y_vars)
    if stray:
        raise AssertionError(f"expression mentions non-query variables {sorted(stray)}")
    x_vars = tuple(x_vars)
    y_sorted = vsort(y_vars)
    truth = interventional(scm, x_vars).array_for(y_sorted)
    union, (got, want) = _align([(evars, arr), (x_vars + y_sorted, truth)])
    return _gaps(scm, union, got, want)


def expression_gap(e1: Expr | Value, e2: Expr | Value, scm):
    """Largest pointwise deviation between two expressions, each given or
    evaluated on ``joint(scm)``, per model of ``scm`` (see :func:`_gaps`)."""
    union, (a1, a2) = _align(_values([e1, e2], scm))
    return _gaps(scm, union, a1, a2)


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


def _subsumption(pag, rows: _ScopeRows, dag_steps, within: int) -> Iterator[tuple[bool, bool, bool]]:
    """Per class DAG, given as its parent and :func:`.graphs._confounded`
    masks: whether, over the selected nodes ``within``, each node's ancestors
    in G[sel] lie inside its possible ancestors in P[sel], its c-component
    inside its pc-component, and its ancestors in no later bucket of P[sel]'s
    order than its own.

    A canonical DAG's observed nodes sit at the PAG's node indices and its
    latents are parentless, so its ancestors in G[sel] are one
    :func:`.graphs._ancestors` pass over its parent masks ANDed with
    ``within``.  The PAG side reads ``rows``, the PAG's one row table, and
    is worked out once, per node index; each inclusion is a mask test.
    """
    upto, seen = {}, 0  # per node, the buckets up to its own
    for bucket in rows.order(within):
        seen |= bucket
        upto.update(dict.fromkeys(bits(bucket), seen))
    selected = list(bits(within))
    possible_anc = {v: _possible_ancestors(pag, 1 << v, within) for v in selected}
    pc_of = {v: rows.pc(1 << v, within) for v in selected}
    for parents, confounded in dag_steps:
        an = _ancestors([pa & within for pa in parents])
        yield (
            all(not an[v] & ~possible_anc[v] for v in selected),
            all(not block & ~pc_of[v] for block in _blocks(confounded, within) for v in bits(block)),
            all(not an[v] & ~upto[v] for v in selected),
        )


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
                mag_of_dag(cdag) == mm, lambda: f"run {run}: roundtrip mismatch for {mm!r}"
            )

        obs = list(pag.nodes)
        dag_steps = [(mark_masks(cdag)[0], _confounded(cdag)) for cdag in class_dags]
        rows = _ScopeRows(pag)
        for _ in range(2):
            size = int(rng.integers(2, len(obs) + 1))
            sel = sorted([obs[i] for i in rng.permutation(len(obs))][:size])
            for ok_anc, ok_comp, ok_order in _subsumption(pag, rows, dag_steps, mask_of(pag, sel)):
                checks["ancestor subsumption"].record(ok_anc, lambda: f"run {run}: {sel}")
                checks["component subsumption"].record(ok_comp, lambda: f"run {run}: {sel}")
                checks["partial order validity"].record(ok_order, lambda: f"run {run}: {sel}")

        query = _sample_query(rng, list(pag.nodes))
        if query is None:
            continue
        xs, ys = query
        result = ident_pag.idp(xs, ys, pag)
        idp_ok = not isinstance(result, ident_pag.Fail)

        if idp_ok:
            for cdag in class_dags:
                dag_result = ident_dag.id_dag(xs, ys, cdag)
                agree = not isinstance(dag_result, ident_dag.Fail)
                # the soundness models, then the agreement model, in one
                # draw: the stream of one draw per model in that order
                models = random_scm(rng, cdag, size=SCMS_PER_DAG + agree)
                table = joint(models)
                answer = evaluate_table(result, table)
                for gap in interventional_gap(answer, models, xs, ys)[:SCMS_PER_DAG]:
                    checks["idp numeric soundness"].record(
                        gap <= tol, lambda: f"run {run}: {xs}->{ys} gap {gap:.2e}"
                    )
                if agree:
                    dag_answer = evaluate_table(dag_result, table)
                    agree = expression_gap(answer, dag_answer, models)[SCMS_PER_DAG] <= tol
                checks["idp/id-dag agreement"].record(
                    agree, lambda: f"run {run}: {xs}->{ys} on {cdag!r}"
                )

        adj = adjustment.gac(xs, ys, pag)
        if not isinstance(adj, adjustment.Fail):
            checks["adjustment implies idp"].record(
                idp_ok, lambda: f"run {run}: {xs}->{ys} adjustable but idp failed"
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
