"""Answer checks, run outside the timed region.

Two references: the verdicts pinned in ``pinned.json`` at the seed commit
(a regression check), and an independent numeric check that evaluates each
identified answer's JSON expression tree with plain numpy against
``oracle.truncated`` on random structural models of the reference DAGs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os

import numpy as np

TOL = 1e-9
SCMS_PER_DAG = 2
PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


def verdict(op, code, out) -> str:
    """What is pinned per op: the exit code, plus the adjustment set of gac
    and the whole output of components (the partition) and pto."""
    if op.kind == "verify":
        return ";".join(f"{c.name}={c.trials}" for c in out)
    if op.kind == "gac" and code == 0:
        return f"{code}:{','.join(json.loads(out)['adjustment_set'])}"
    if op.kind in ("components", "pto"):
        return f"{code}:{out.strip()}"
    return str(code)


def verdict_digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def load_pinned() -> dict[str, str]:
    with open(PINNED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["verdicts"]


def op_problem(op, result, pinned: dict[str, str]) -> str | None:
    """Why one executed op counts as failed, or None.  ``result`` is
    ``(code, output)`` or ``(None, exception text)``."""
    code, out = result
    if code is None:
        return f"raised {out}"
    if op.kind == "verify":
        bad = [f"{c.name}: {c.violations}" for c in out if c.violations]
        if bad:
            return "violations " + ", ".join(bad)
    elif code not in (0, 2):
        return f"exit {code}"
    want = pinned.get(op.key)
    if want is not None and want != verdict_digest(verdict(op, code, out)):
        return "verdict differs from the pinned one"
    return None


# ---------------------------------------------------------------------------
# numeric check of identified answers


def _expand(vars_, arr, union):
    """View of ``arr`` (axes ``vars_``) broadcast over the axes ``union``."""
    present = [v for v in union if v in vars_]
    arr = np.transpose(arr, [vars_.index(v) for v in present])
    return arr.reshape([arr.shape[present.index(v)] if v in vars_ else 1 for v in union])


def _marginal(joint_vars, joint_arr, keep):
    axes = tuple(i for i, v in enumerate(joint_vars) if v not in keep)
    return tuple(v for v in joint_vars if v in keep), joint_arr.sum(axis=axes)


def _divide(num_vars, num, den_vars, den):
    union = tuple(sorted(set(num_vars) | set(den_vars)))
    n, d = _expand(num_vars, num, union), _expand(den_vars, den, union)
    with np.errstate(divide="ignore", invalid="ignore"):
        return union, np.where(d > 0, n / np.where(d > 0, d, 1.0), 0.0)


def evaluate_json(node, joint_vars, joint_arr):
    """(variables, array) value of a ``to_json_dict`` tree on one joint table."""
    kind = node["kind"]
    if kind == "const":
        return (), np.asarray(float(node["value"]))
    if kind in ("dist", "conditional"):
        if node["do"]:
            raise ValueError("interventional factor in an answer")
        target, given = set(node["target"]), set(node["given"])
        num = _marginal(joint_vars, joint_arr, target | given)
        if not given:
            return num
        return _divide(*num, *_marginal(joint_vars, joint_arr, given))
    if kind == "product":
        vars_, out = (), np.asarray(1.0)
        for child in node["factors"]:
            cvars, carr = evaluate_json(child, joint_vars, joint_arr)
            union = tuple(sorted(set(vars_) | set(cvars)))
            out = _expand(vars_, out, union) * _expand(cvars, carr, union)
            vars_ = union
        return vars_, out
    if kind == "quotient":
        return _divide(*evaluate_json(node["num"], joint_vars, joint_arr),
                       *evaluate_json(node["den"], joint_vars, joint_arr))
    if kind == "sum":
        vars_, arr = evaluate_json(node["body"], joint_vars, joint_arr)
        axes = tuple(i for i, v in enumerate(vars_) if v in set(node["vars"]))
        return tuple(v for v in vars_ if v not in set(node["vars"])), arr.sum(axis=axes)
    raise ValueError(f"unknown expression node {kind!r}")


def answer_size(node) -> int:
    """Node count of a JSON expression tree, matching ``exprs.expr_size``
    (a conditional factor counts itself and its base distribution)."""
    kind = node["kind"]
    if kind == "conditional":
        return 2
    if kind in ("dist", "const"):
        return 1
    if kind == "product":
        return 1 + sum(answer_size(f) for f in node["factors"])
    if kind == "quotient":
        return 1 + answer_size(node["num"]) + answer_size(node["den"])
    return 1 + answer_size(node["body"])


def numeric_gap(pagid, op, expression, rng) -> tuple[float, int]:
    """Largest deviation of the answer from P_x(y) over the op's reference
    DAGs, and the number of its free variables outside x and y.

    The answer is evaluated at every assignment of its free variables; any
    free variable outside x and y must leave the value unchanged.
    """
    x_low = tuple(v.lower() for v in op.treat)
    y_low = tuple(v.lower() for v in op.outcome)
    y_sorted = tuple(sorted(op.outcome, key=lambda v: (v.lower(), v)))
    worst = 0.0
    for dag in op.refs:
        for _ in range(SCMS_PER_DAG):
            scm = pagid.oracle.random_scm(rng, dag)
            table = pagid.oracle.joint(scm)
            joint_vars = tuple(v.lower() for v in table.variables)
            vars_, arr = evaluate_json(expression, joint_vars, table.probs)
            stray = tuple(v for v in vars_ if v not in x_low + y_low)
            axes = x_low + y_low + stray
            # random_scm draws binary variables
            full = np.broadcast_to(_expand(vars_, arr, axes), (2,) * len(axes))
            for x_vals in itertools.product(range(2), repeat=len(x_low)):
                truth = pagid.oracle.truncated(scm, dict(zip(op.treat, x_vals)))
                want = truth.array_for(y_sorted).reshape(
                    [2] * len(y_sorted) + [1] * len(stray))
                got = np.moveaxis(full[x_vals], [op.outcome.index(v) for v in y_sorted],
                                  range(len(y_sorted)))
                worst = max(worst, float(np.max(np.abs(got - want))))
    return worst, len(stray)
