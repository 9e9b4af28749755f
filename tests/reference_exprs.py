"""Reference computation for the expression engine's closed forms.

``conditional_of`` answers a request on a single canonical factor in closed
form.  This module keeps the generic computation it skips: the quotient of
the two sums over the request's scope, simplified by the rewrite calculus.
It exists only so that the differential tests can compare the closed form
with the path it replaces.
"""

from __future__ import annotations

from pagid.exprs import Quotient, SumOver, simplify, vsort


def conditional_of(q, target, given, scope):
    """Conditional of ``q`` over ``scope``, always through the quotient of sums."""
    target, given, scope = vsort(target), vsort(given), vsort(scope)
    over_num = vsort(set(scope) - set(target) - set(given))
    over_den = vsort(set(scope) - set(given))
    num = SumOver(over_num, q) if over_num else q
    den = SumOver(over_den, q) if over_den else q
    return simplify(Quotient(num, den))
