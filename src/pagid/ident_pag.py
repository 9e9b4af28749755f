"""Identification of interventional distributions given a PAG.

The top level is the driver shared with the DAG-side algorithm,
:func:`.ident_dag.identify`: input checks, ancestral pruning, the component
split, per-component reduction by repeated removals from a start inside A,
the possible ancestors of the outcome, marginalisation and the certified
cleanup.  Specific to PAGs: possible ancestors, composite pc-components,
definite m-separation as the certificate, the start and the removal step,
which removes whole buckets.  Each component starts at Q[C], C its composite
pc-component of P_A: the product of P(B | the buckets before B) over the
buckets B inside C in a partial order of P_A, read off P(A) in closed form
by :func:`.exprs.q_of_joint` (Jaber, Zhang & Bareinboim, UAI 2018).  A
bucket is removable from the current subgraph when none of its members
has, within that subgraph, a possible child outside the bucket lying in the
same possible c-component.  Each removal rewrites the running distribution
expression through the bucket-level reduction, choosing the smaller of the
reductions under two partial orders; the final form is cleaned up by
independence-certified conditioning drops so that only treatment and
outcome symbols remain free.

A step proves its bucket removable once and reduces with what it derived:
the definite c-component S is computed once for both partial orders, and
:func:`q_reduce_bucket`, the checked entry point for direct callers, is not
called to prove it again.  Candidates are the partial order's own buckets,
so they skip :func:`bucket_identifiable`'s bucket and subset guards.  Every
:class:`.graphs.Pag`, induced subgraphs included, is a valid PAG by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .exprs import Expr, expr_size, q_of_joint, reduced_q, render_text
from .graphs import MixedGraph, Pag, induced_subgraph, possible_ancestors
from .ident_dag import identify
from .separation import definitely_m_separated
from .structure import (
    PartialOrder,
    _pto_with_preference,
    buckets,
    cpc_components,
    dc_component,
    pc_component,
    possible_children,
)


@dataclass(frozen=True)
class Fail:
    """The recursion got stuck computing Q[component] from Q[scope].

    ``witness`` is a pair (X, C): C is a possible child of the intervention
    node X inside the scope subgraph and shares its possible c-component.
    """

    scope: tuple[str, ...]
    component: tuple[str, ...]
    witness: tuple[str, str] | None

    def describe(self) -> str:
        msg = (
            f"Q[{','.join(self.component)}] is not computable from "
            f"Q[{','.join(self.scope)}]: no removable bucket"
        )
        if self.witness is not None:
            x, c = self.witness
            msg += f"; {c} is a possible child of {x} in its possible c-component"
        return msg


@dataclass
class TraceStep:
    """One bucket removal: Q[scope \\ bucket] was derived from Q[scope]."""

    scope: tuple[str, ...]
    bucket: tuple[str, ...]
    reduced: Expr

    def __str__(self) -> str:
        return f"Q[{','.join(v for v in self.scope if v not in self.bucket)}] = {render_text(self.reduced)}"


def bucket_identifiable(p_t: MixedGraph, x: Iterable[str]) -> tuple[bool, tuple[str, str] | None]:
    """Decide whether intervening on bucket ``x`` is reducible in ``p_t``.

    True when no member of ``x`` has a possible child outside ``x`` in the
    same possible c-component; otherwise False with a witness pair.
    """
    x = tuple(x)
    x_set = set(x)
    if x_set not in [set(b) for b in buckets(p_t)]:
        raise ValueError(f"{sorted(x_set)} is not a bucket of the graph")
    if not x_set < set(p_t.nodes):
        raise ValueError("bucket must be a strict subset of the graph nodes")
    witness = _blocking_child(p_t, x)
    return witness is None, witness


def _blocking_child(p_t: MixedGraph, x: tuple[str, ...]) -> tuple[str, str] | None:
    """The first (member, child) pair that blocks removing bucket ``x``, or None."""
    for member in x:
        pc = set(pc_component(p_t, [member]))
        for child in possible_children(p_t, [member]):
            if child not in x and child in pc:
                return member, child
    return None


def q_reduce_bucket(
    p_t: MixedGraph, x: Iterable[str], q: Expr, order: PartialOrder
) -> Expr:
    """Bucket-level reduction of Q[t] to Q[t \\ x].

    Emits q / prod_i q(B_i | B^(i-1)) * sum_x prod_i q(B_i | B^(i-1)), the
    product running over the buckets inside the union S of the definite
    c-components of the members of ``x``; conditionals are taken against the
    symbolic base distribution ``q`` of the current recursion level.  The
    checked entry point: raises unless ``x`` is a removable bucket.
    """
    x = tuple(x)
    ok, witness = bucket_identifiable(p_t, x)
    if not ok:
        raise ValueError(f"bucket {sorted(x)} is not removable; witness {witness}")
    return reduced_q(q, order.buckets, set(dc_component(p_t, x)), x, tuple(p_t.nodes))


def idp(
    x: Iterable[str],
    y: Iterable[str],
    p: Pag,
    *,
    choice_seed: int | None = None,
    trace: list[TraceStep] | None = None,
) -> Expr | Fail:
    """Expression for the effect of ``x`` on ``y`` given a PAG, or ``Fail``.

    ``choice_seed`` randomises which removable bucket is taken first (the
    default walks the partial order backwards); the verdict is invariant to
    that choice.  ``trace`` collects the intermediate reductions.
    """
    return identify(
        p, p.nodes, x, y,
        prune=lambda ys, avoid: possible_ancestors(induced_subgraph(p, p.sort_nodes(set(p.nodes) - avoid)), ys),
        components=lambda big_d: cpc_components(induced_subgraph(p, big_d)),
        start=lambda a, comps: _cpc_starts(p, a, comps),
        separated=definitely_m_separated,
        remove=lambda t, c_set, q, rng: _remove_bucket(p, t, c_set, q, rng, trace),
        choice_seed=choice_seed,
    )


def _cpc_starts(p: Pag, a: list[str], comps) -> list[tuple[list[str], Expr]]:
    """Each component starts at Q[C], C its composite pc-component of P_A.
    The components partition D <= A, so when they cover as many nodes as A,
    D = A and they are P_A's blocks themselves."""
    p_a = induced_subgraph(p, a)
    order = [v for b in _pto_with_preference(p_a, None).buckets for v in b]
    if sum(map(len, comps)) < len(a):
        block_of = {v: block for block in cpc_components(p_a) for v in block}
        comps = [block_of[comp[0]] for comp in comps]
    return [(list(c), q_of_joint(order, set(c))) for c in comps]


def _remove_bucket(p: Pag, t: list[str], c_set: set[str], q: Expr, rng, trace: list[TraceStep] | None):
    p_t = induced_subgraph(p, t)
    order = _pto_with_preference(p_t, None)
    candidates = [b for b in order.buckets if set(b) <= set(t) - c_set]
    sequence = list(reversed(candidates))
    if rng is not None:
        sequence = [candidates[i] for i in rng.permutation(len(candidates))]
    witness = None
    for pick in sequence:
        wit = _blocking_child(p_t, pick)
        if wit is None:
            break
        witness = witness or wit
    else:
        return Fail(scope=tuple(t), component=p.sort_nodes(c_set), witness=witness)
    # Any valid partial order is sound; also try the one that postpones
    # the removed bucket and keep whichever reduction came out smaller.
    s_union, scope = set(dc_component(p_t, pick)), tuple(p_t.nodes)
    reduced = reduced_q(q, order.buckets, s_union, pick, scope)
    late_order = _pto_with_preference(p_t, pick)
    if late_order != order:
        alternative = reduced_q(q, late_order.buckets, s_union, pick, scope)
        if expr_size(alternative) < expr_size(reduced):
            reduced = alternative
    if trace is not None:
        trace.append(TraceStep(scope=tuple(p_t.nodes), bucket=pick, reduced=reduced))
    return pick, reduced
