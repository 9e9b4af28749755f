"""Identification of interventional distributions given a PAG.

The top level is the driver shared with the DAG-side algorithm,
:func:`.ident_dag.identify`, which derives P_A, P_D, the components and
each component's start from P's mask table, and takes every removal with
the one step :func:`.ident_dag._remove_bucket`.  :func:`idp` gives it P's
row table, definite m-separation as the certificate and this module's
:class:`Fail` as the failure value.  With those rows the blocks are
composite pc-components and buckets in a partial order, and each component
starts at Q[C], C its composite pc-component of P_A: the product of P(B |
the buckets before B) over the buckets B inside C in a partial order of P_A
(Jaber, Zhang & Bareinboim, UAI 2018).  The components that are whole
composite pc-components of P_A take no removal step and share one such
product over their union.  A bucket is removable from the current scope
when none of its members has, within that scope, a possible child outside
the bucket lying in the same possible c-component.  Each
removal rewrites the running expression through the bucket-level
reduction over the bucket's definite c-component, keeping the smaller of
the reductions under two partial orders: the early one, and the one that
postpones the removed bucket.

No restricted copy of P is built.  P without x, P_D, P_A and each scope P_t
are node masks.  A query reads P's rows off its table once, into one
:class:`.structure._ScopeRows` (the possible children, the ``o-o`` edges,
and the invisible edges with their bidirected part), the row table behind
every bucket, order and component of :mod:`.structure`; each test reads
those rows ANDed with its mask, which is the test on the induced subgraph.
The start's components and order and every step's buckets, partial orders,
blocking witnesses and definite c-component read them, and they are dropped
when the query returns.  A step proves its bucket removable once and
reduces with what it derived, so the checked entry points for direct
callers, :func:`bucket_identifiable` and :func:`q_reduce_bucket`, are not
called.
Every :class:`.graphs.Pag`, and so every scope of one, is a valid PAG by
construction, so the partial order checks no closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .exprs import Expr, reduced_q
from .graphs import MixedGraph, Pag, mask_of, names_of
from .ident_dag import TraceStep, _blocking_child, identify
from .separation import definitely_m_separated
from .structure import PartialOrder, _ScopeRows, _every, dc_component


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


def bucket_identifiable(p_t: MixedGraph, x: Iterable[str]) -> tuple[bool, tuple[str, str] | None]:
    """Decide whether intervening on bucket ``x`` is reducible in ``p_t``.

    True when no member of ``x`` has a possible child outside ``x`` in the
    same possible c-component; otherwise False with a witness pair.
    """
    x_set, rows = set(x), _ScopeRows(p_t)
    if x_set not in [set(names_of(p_t.nodes, b)) for b in rows.buckets(_every(p_t))]:
        raise ValueError(f"{sorted(x_set)} is not a bucket of the graph")
    if not x_set < set(p_t.nodes):
        raise ValueError("bucket must be a strict subset of the graph nodes")
    witness = _blocking_child(rows, mask_of(p_t, x_set), -1)
    return witness is None, witness


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

    ``choice_seed`` seeds the shuffle of each step's candidate buckets,
    taken in partial order; the default scans them in reverse partial order.
    :func:`.ident_dag.id_dag` shuffles its nodes the same way.  The verdict
    is invariant to that choice.  ``trace`` collects the intermediate
    reductions.
    """
    return identify(
        p, p.nodes, x, y, rows=_ScopeRows(p), separated=definitely_m_separated, fail=Fail,
        choice_seed=choice_seed, trace=trace,
    )
