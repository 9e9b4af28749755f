"""Reference oracle code, kept for the tests after the library stopped
using it: :func:`truncations` gives the tables of
:func:`pagid.oracle.interventional` one value at a time."""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from pagid.exprs import JointTable
from pagid.oracle import Scm, _clamp, _observed_table, _product


def truncations(s: Scm, x_vars: Sequence[str]) -> Iterator[tuple[tuple[int, ...], JointTable]]:
    """``(vals, truncated(s, dict(zip(x_vars, vals))))`` for every value
    ``vals`` of ``x_vars``, in ``itertools.product`` order.

    The product of the factors outside ``x_vars`` and the summed axes and
    permutation of the tables are worked out once; each value only clamps
    the product, so each table is bitwise the one :func:`truncated` returns.
    The checks run when the first table is drawn.
    """
    order, prod = _product(s, x_vars)
    table = _observed_table(s, order, x_vars)
    for vals in itertools.product(*(range(s.cards[v]) for v in x_vars)):
        yield vals, table(_clamp(s, order, prod, dict(zip(x_vars, vals))))
