"""Reference computations for the expression engine's removal rewrite.

``exprs.reduced_q`` answers a removal from a factor chain in closed form:
one canonical factor, or a product of them marked as a ``simplify`` fixed
point, whose targets partition t and whose conditioning sets meet t in the
earlier targets.  It does so when S is all of t and x lies inside the last
factor's target, or when x lies inside the last block inside S and that
block fits one factor.  This module keeps the generic computation it skips: the removal's quotient
q / Q[S] * sum_x Q[S], each conditional of Q[S] a quotient of two sums over
the request's scope, everything simplified by the rewrite calculus.  It
exists only so that the differential tests can compare the closed form, and
``exprs.conditional_of``, with the paths written out here.
"""

from __future__ import annotations

from pagid.exprs import Product, Quotient, SumOver, simplify, vsort


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
    quotient q / Q[S] * sum_x Q[S]; arguments as for ``exprs.reduced_q``."""
    terms, preceding = [], ()
    for block in blocks:
        if set(block) <= s_union:
            terms.append(conditional_of(q, block, preceding, scope=t))
        elif set(block) & s_union:
            raise ValueError("definite c-component is not a union of buckets")
        preceding += block
    q_s = terms[0] if len(terms) == 1 else Product(tuple(terms))
    return simplify(Product((Quotient(q, q_s), SumOver(x, q_s))))
