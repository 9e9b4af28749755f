"""Reference computations for the expression engine's closed forms.

``conditional_of`` answers a request on a single canonical factor in closed
form, and ``ident_dag.reduced_q`` answers the whole-scope and one-block
removals of such a factor in closed form.  This module keeps the generic
computations they skip: the quotient of the two sums over the request's
scope, and the removal's quotient q / Q[S] * sum_x Q[S], each simplified by
the rewrite calculus.  It exists only so that the differential tests can
compare the closed forms with the paths they replace.
"""

from __future__ import annotations

from pagid.exprs import Product, Quotient, SumOver, simplify, vsort
from pagid.exprs import conditional_of as _conditional_of


def conditional_of(q, target, given, scope):
    """Conditional of ``q`` over ``scope``, always through the quotient of sums."""
    target, given, scope = vsort(target), vsort(given), vsort(scope)
    over_num = vsort(set(scope) - set(target) - set(given))
    over_den = vsort(set(scope) - set(given))
    num = SumOver(over_num, q) if over_num else q
    den = SumOver(over_den, q) if over_den else q
    return simplify(Quotient(num, den))


def reduced_q(q, blocks, s_union, x, t):
    """Q[t \\ x] from Q[t] held in ``q``, always through the simplified
    quotient q / Q[S] * sum_x Q[S]; arguments as for ``ident_dag.reduced_q``."""
    terms, preceding = [], ()
    for block in blocks:
        if set(block) <= s_union:
            terms.append(_conditional_of(q, block, preceding, scope=t))
        elif set(block) & s_union:
            raise ValueError("definite c-component is not a union of buckets")
        preceding += block
    q_s = terms[0] if len(terms) == 1 else Product(tuple(terms))
    return simplify(Product((Quotient(q, q_s), SumOver(x, q_s))))
