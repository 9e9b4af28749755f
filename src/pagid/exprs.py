"""Symbolic probability expressions with exact evaluation and simplification.

Expression trees are built from distribution references, conditional factors,
products, quotients and sums.  ``simplify`` applies a fixed rewrite calculus
(quotient cancellation, chain-rule recombination, sum marginalisation) that
preserves the numeric value on every probability table.  Conditioning-set
drops are *not* algebraic and only happen through
:func:`drop_certified_givens`, where the caller supplies an independence
certificate.

Nodes are immutable, so facts about a node are stored on it, outside its
``eq`` and ``repr``:

* its free variables and its hash are computed once, at construction, from
  the already-stored facts of its children;
* its plain-text rendering is computed on first use (it is the sort key of
  non-factor entries);
* a node that :func:`simplify` returns is marked as a fixed point of the
  rewrite calculus, and normalisation returns a marked node as it is.  The
  mark is truthful because ``simplify`` only returns a node that one more
  normalisation pass left unchanged.  Only :func:`simplify` and
  :func:`reduced_q` set the mark: the closed form of a removal marks the
  factor chain it returns, the node ``simplify`` returns for the removal's
  quotient q / Q[S] * sum_x Q[S], for the same reason.  It also reads the
  mark: it takes a product for a factor chain only when marked, because
  ``simplify`` would first merge the factors of an unmarked one.

No cache outlives the node it describes: there is no memo keyed by
expression content, so one query costs the same whether or not others ran
before it in the same process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

MASS_TOL = 1e-12


class _VarKeys(dict):
    """Sort key of each variable name, built on first sight of the name.

    Bounded by the alphabet of variable names, not by expression content.
    """

    def __missing__(self, v: str) -> tuple[str, str]:
        key = self[v] = (v.lower(), v)
        return key


_var_key = _VarKeys().__getitem__


def vsort(items: Iterable[str]) -> tuple[str, ...]:
    """Canonical variable order: lexicographic on the lowercased name."""
    distinct = set(items)
    if len(distinct) < 2:
        return tuple(distinct)
    return tuple(sorted(distinct, key=_var_key))


class Expr:
    """Base class; concrete nodes are frozen dataclasses sealed by ``_seal``."""

    __slots__ = ()
    _text: str | None = None
    _fixed: bool = False

    def _seal(self, free: tuple[str, ...], fields: tuple) -> None:
        # hash the tuple the generated dataclass hash would, so hash values,
        # and with them the iteration order of sets of nodes, stay the same
        object.__setattr__(self, "_free", free)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def free_vars(self) -> tuple[str, ...]:
        return self._free


def _node(cls):
    """Frozen dataclass keeping the hash that ``_seal`` stored."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Expr.__hash__
    return cls


@_node
class Const(Expr):
    value: float = 1.0

    def __post_init__(self):
        self._seal((), (self.value,))


ONE = Const(1.0)


@_node
class DistRef(Expr):
    """Joint probability of ``scope`` under intervention on ``do``."""

    scope: tuple[str, ...]
    do: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "scope", vsort(self.scope))
        object.__setattr__(self, "do", vsort(self.do))
        if set(self.scope) & set(self.do):
            raise ValueError("scope and interventions overlap")
        if not self.scope:
            raise ValueError("empty distribution scope")
        free = vsort(self.scope + self.do) if self.do else self.scope
        self._seal(free, (self.scope, self.do))


@_node
class Conditional(Expr):
    """Conditional factor ``P_do(target | given)`` of the distribution ``base``."""

    target: tuple[str, ...]
    given: tuple[str, ...]
    base: DistRef

    def __post_init__(self):
        if not isinstance(self.base, DistRef):
            raise TypeError(f"conditional base must be a DistRef, not {type(self.base).__name__}")
        object.__setattr__(self, "target", vsort(self.target))
        object.__setattr__(self, "given", vsort(self.given))
        if set(self.target) & set(self.given):
            raise ValueError("target and given overlap")
        if not self.target:
            raise ValueError("empty conditional target")
        missing = (set(self.target) | set(self.given)) - set(self.base.free_vars())
        if missing:
            raise ValueError(f"conditional over variables missing from base: {sorted(missing)}")
        free = vsort(self.target + self.given + self.base.do)
        self._seal(free, (self.target, self.given, self.base))


@_node
class Product(Expr):
    factors: tuple[Expr, ...]

    def __post_init__(self):
        self._seal(vsort(v for f in self.factors for v in f.free_vars()), (self.factors,))


@_node
class Quotient(Expr):
    num: Expr
    den: Expr

    def __post_init__(self):
        self._seal(vsort(self.num.free_vars() + self.den.free_vars()), (self.num, self.den))


@_node
class SumOver(Expr):
    vars: tuple[str, ...]
    body: Expr

    def __post_init__(self):
        object.__setattr__(self, "vars", vsort(self.vars))
        if not self.vars:
            raise ValueError("empty summation variable set")
        body_free = self.body.free_vars()
        missing = set(self.vars) - set(body_free)
        if missing:
            raise ValueError(f"summation variables not free in body: {sorted(missing)}")
        summed = set(self.vars)
        self._seal(tuple(v for v in body_free if v not in summed), (self.vars, self.body))


@dataclass(frozen=True)
class JointTable:
    """Dense probability table over named discrete variables."""

    variables: tuple[str, ...]
    cards: tuple[int, ...]
    probs: np.ndarray = field(hash=False, compare=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.shape != tuple(self.cards):
            raise ValueError(f"table shape {probs.shape} != cards {self.cards}")
        if len(self.variables) != len(self.cards):
            raise ValueError("variables/cards length mismatch")
        if (probs < -1e-15).any():
            raise ValueError("negative probability entry")
        if abs(float(probs.sum()) - 1.0) > MASS_TOL:
            raise ValueError(f"table mass {probs.sum()} != 1")

    def array_for(self, variables: tuple[str, ...]) -> np.ndarray:
        """Marginal array with axes ordered as ``variables``."""
        keep = set(variables)
        missing = keep - set(self.variables)
        if missing:
            raise ValueError(f"table lacks variables {sorted(missing)}")
        drop_axes = tuple(i for i, v in enumerate(self.variables) if v not in keep)
        arr = self.probs.sum(axis=drop_axes) if drop_axes else self.probs
        kept = [v for v in self.variables if v in keep]
        return np.transpose(arr, [kept.index(v) for v in variables])

    def prob(self, assignment: Mapping[str, int]) -> float:
        idx = tuple(assignment[v] for v in self.variables)
        return float(self.probs[idx])


Tables = Mapping[tuple[str, ...], JointTable]


# ---------------------------------------------------------------------------
# evaluation


def _cards_from_tables(tables: Tables) -> dict[str, int]:
    cards: dict[str, int] = {}
    for table in tables.values():
        for v, c in zip(table.variables, table.cards):
            if cards.setdefault(v, c) != c:
                raise ValueError(f"inconsistent cardinality for {v!r}")
    return cards


def _align(entries: list[tuple[tuple[str, ...], np.ndarray]]) -> tuple[tuple[str, ...], list[np.ndarray]]:
    union = vsort(v for vars_, _ in entries for v in vars_)
    out = []
    for vars_, arr in entries:
        shape = tuple(arr.shape[vars_.index(v)] if v in vars_ else 1 for v in union)
        if vars_:
            perm = [vars_.index(v) for v in union if v in vars_]
            arr = np.transpose(arr, perm)
        out.append(arr.reshape(shape))
    return union, out


def evaluate_table(e: Expr, tables: Tables) -> tuple[tuple[str, ...], np.ndarray]:
    """Evaluate ``e`` at every joint assignment of its free variables.

    Returns the sorted free-variable tuple and an array with one axis per
    variable.  Conditionals with zero-mass conditioning events evaluate to 0.
    """
    if isinstance(e, Const):
        return (), np.asarray(e.value, dtype=float)
    if isinstance(e, DistRef):
        table = tables.get(e.do)
        if table is None:
            raise KeyError(f"missing table for interventions {e.do}")
        want = vsort(e.scope + tuple(v for v in e.do if v in table.variables))
        return want, table.array_for(want)
    if isinstance(e, Conditional):
        bvars, barr = evaluate_table(e.base, tables)
        tg = vsort(e.target + e.given)
        num_vars = tuple(v for v in bvars if v in set(tg))
        num = barr.sum(axis=tuple(i for i, v in enumerate(bvars) if v not in set(tg))) if bvars else barr
        den_keep = set(e.given)
        den = barr.sum(axis=tuple(i for i, v in enumerate(bvars) if v not in den_keep)) if bvars else barr
        den_vars = tuple(v for v in bvars if v in den_keep)
        (union, (num_a, den_a)) = _align([(num_vars, num), (den_vars, den)])
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(den_a > 0, num_a / np.where(den_a > 0, den_a, 1.0), 0.0)
        return union, out
    if isinstance(e, Product):
        entries = [evaluate_table(f, tables) for f in e.factors]
        if not entries:
            return (), np.asarray(1.0)
        union, arrays = _align(entries)
        out = arrays[0]
        for a in arrays[1:]:
            out = out * a
        return union, out
    if isinstance(e, Quotient):
        union, (num, den) = _align([evaluate_table(e.num, tables), evaluate_table(e.den, tables)])
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(den != 0, num / np.where(den != 0, den, 1.0), 0.0)
        return union, out
    if isinstance(e, SumOver):
        bvars, barr = evaluate_table(e.body, tables)
        missing = set(e.vars) - set(bvars)
        if missing:
            raise ValueError(f"summation variables absent from body value: {sorted(missing)}")
        axes = tuple(i for i, v in enumerate(bvars) if v in set(e.vars))
        return tuple(v for v in bvars if v not in set(e.vars)), barr.sum(axis=axes)
    raise TypeError(f"not an expression: {e!r}")


def evaluate(e: Expr, tables: Tables, assignment: Mapping[str, int]) -> float:
    """Value of ``e`` at a full assignment of its free variables."""
    vars_, arr = evaluate_table(e, tables)
    missing = [v for v in vars_ if v not in assignment]
    if missing:
        raise ValueError(f"assignment missing variables {missing}")
    cards = _cards_from_tables(tables)
    for v in vars_:
        if v in cards and not 0 <= assignment[v] < cards[v]:
            raise ValueError(f"assignment for {v!r} out of range")
    return float(arr[tuple(assignment[v] for v in vars_)])


# ---------------------------------------------------------------------------
# simplification


def _as_factor(e: Expr) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]] | None:
    """(do, target, given) when ``e`` is a canonical conditional factor."""
    if isinstance(e, DistRef):
        return (e.do, e.scope, ())
    if isinstance(e, Conditional):
        return (e.base.do, e.target, e.given)
    return None


def _is_canonical(e: Expr) -> bool:
    """Whether ``e`` is a factor exactly as :func:`_from_factor` builds it."""
    return isinstance(e, DistRef) or (
        isinstance(e, Conditional) and bool(e.given) and e.base.scope == vsort(e.target + e.given)
    )


def _from_factor(do: tuple[str, ...], target: tuple[str, ...], given: tuple[str, ...]) -> Expr:
    if not target:
        return ONE
    if not given:
        return DistRef(target, do)
    return Conditional(target, given, DistRef(vsort(target + given), do))


def _flatten(e: Expr, num: list[Expr], den: list[Expr], invert: bool = False) -> None:
    if isinstance(e, Product):
        for f in e.factors:
            _flatten(f, num, den, invert)
    elif isinstance(e, Quotient):
        _flatten(e.num, num, den, invert)
        _flatten(e.den, num, den, not invert)
    elif isinstance(e, Const) and e.value == 1.0:
        pass
    else:
        (den if invert else num).append(e)


def _cancel_equal(num: list[Expr], den: list[Expr]) -> bool:
    for d in list(den):
        if d in num:
            num.remove(d)
            den.remove(d)
            return True
    return False


def _apply_quotient_rule(num: list[Expr], den: list[Expr]) -> bool:
    """P(A|c) / P(B|g) -> P(A \\ (B u g') | B u g) * P(g' | c) with g' = g-c,
    valid when B is part of A, c is part of g and g' lies inside A."""
    for d in den:
        fd = _as_factor(d)
        if fd is None:
            continue
        do_d, b, g = fd
        for n in num:
            fn = _as_factor(n)
            if fn is None:
                continue
            do_n, a, c = fn
            if do_n != do_d:
                continue
            sa, sb, sc, sg = set(a), set(b), set(c), set(g)
            if not (sb <= sa and sc <= sg and (sg - sc) <= sa):
                continue
            rest = vsort(sa - sb - (sg - sc))
            num.remove(n)
            den.remove(d)
            if rest:
                num.append(_from_factor(do_n, rest, vsort(sb | sg)))
            if sg - sc:
                num.append(_from_factor(do_n, vsort(sg - sc), c))
            return True
    return False


def _apply_chain_merge(entries: list[Expr]) -> bool:
    """P(a|c) * P(b|a u c) -> P(a u b|c)."""
    for i, first in enumerate(entries):
        f1 = _as_factor(first)
        if f1 is None:
            continue
        do1, t1, g1 = f1
        for j, second in enumerate(entries):
            if i == j:
                continue
            f2 = _as_factor(second)
            if f2 is None or f2[0] != do1:
                continue
            _, t2, g2 = f2
            if set(g2) == set(t1) | set(g1):
                merged = _from_factor(do1, vsort(t1 + t2), g1)
                for k in sorted((i, j), reverse=True):
                    del entries[k]
                entries.append(merged)
                return True
    return False


def _sort_key(e: Expr) -> tuple:
    f = _as_factor(e)
    if f is not None:
        do, t, g = f
        return (0, t, g, do, "")
    return (1, (), (), (), render_text(e))


def _rebuild(num: list[Expr], den: list[Expr]) -> Expr:
    num = sorted(num, key=_sort_key)
    den = sorted(den, key=_sort_key)

    def prod(entries: list[Expr]) -> Expr:
        if not entries:
            return ONE
        if len(entries) == 1:
            return entries[0]
        return Product(tuple(entries))

    if den:
        return Quotient(prod(num), prod(den))
    return prod(num)


def _norm(e: Expr) -> Expr:
    if e._fixed or isinstance(e, Const) or _is_canonical(e):
        return e
    if isinstance(e, Conditional):
        return _from_factor(e.base.do, e.target, e.given)
    if isinstance(e, (Product, Quotient)):
        num: list[Expr] = []
        den: list[Expr] = []
        if isinstance(e, Product):
            for f in e.factors:
                _flatten(_norm(f), num, den)
        else:
            _flatten(_norm(e.num), num, den)
            _flatten(_norm(e.den), num, den, invert=True)
        changed = True
        while changed:
            changed = (
                _cancel_equal(num, den)
                or _apply_quotient_rule(num, den)
                or _apply_chain_merge(num)
                or _apply_chain_merge(den)
            )
        return _rebuild(num, den)
    if isinstance(e, SumOver):
        body = _norm(e.body)
        sum_vars = set(e.vars)
        while isinstance(body, SumOver):
            sum_vars |= set(body.vars)
            body = body.body
        num: list[Expr] = []
        den: list[Expr] = []
        _flatten(body, num, den)
        den_free = set().union(*(set(d.free_vars()) for d in den)) if den else set()
        progressed = True
        while progressed:
            progressed = False
            for v in sorted(sum_vars):
                if v in den_free:
                    continue
                holders = [n for n in num if v in n.free_vars()]
                if len(holders) != 1:
                    continue
                f = _as_factor(holders[0])
                if f is None or v not in f[1]:
                    continue
                do, t, g = f
                num.remove(holders[0])
                reduced = _from_factor(do, tuple(x for x in t if x != v), g)
                if not isinstance(reduced, Const):
                    num.append(reduced)
                sum_vars.discard(v)
                progressed = True
                break
        if not sum_vars:
            return _norm(_rebuild(num, den))
        inner_num = [n for n in num if set(n.free_vars()) & sum_vars]
        outer_num = [n for n in num if not set(n.free_vars()) & sum_vars]
        inner_den, outer_den = (den, []) if den_free & sum_vars else ([], den)
        missing = sum_vars - set().union(
            *(set(x.free_vars()) for x in inner_num + inner_den)
        ) if (inner_num or inner_den) else sum_vars
        if missing:
            raise ValueError(f"summation variables vanished from body: {sorted(missing)}")
        inner = SumOver(vsort(sum_vars), _rebuild(inner_num, inner_den))
        if not outer_num and not outer_den:
            return inner
        return _norm(_rebuild(outer_num + [inner], outer_den))
    raise TypeError(f"not an expression: {e!r}")


def expr_size(e: Expr) -> int:
    """Node count of the tree; used to rank equivalent canonical forms."""
    if isinstance(e, (Const, DistRef)):
        return 1
    if isinstance(e, Conditional):
        return 1 + expr_size(e.base)
    if isinstance(e, Product):
        return 1 + sum(expr_size(f) for f in e.factors)
    if isinstance(e, Quotient):
        return 1 + expr_size(e.num) + expr_size(e.den)
    if isinstance(e, SumOver):
        return 1 + expr_size(e.body)
    raise TypeError(f"not an expression: {e!r}")


def simplify(e: Expr) -> Expr:
    """Normalise ``e`` to a fixed point of the rewrite calculus."""
    prev = None
    cur = e
    for _ in range(50):
        cur = _norm(cur)
        if cur == prev:
            object.__setattr__(cur, "_fixed", True)
            return cur
        prev = cur
    raise RuntimeError("simplification did not reach a fixed point")


def conditional_of(q: Expr, target: Iterable[str], given: Iterable[str], scope: Iterable[str]) -> Expr:
    """Conditional of the distribution denoted by ``q`` over ``scope``.

    Built as a quotient of sums over ``scope`` and simplified; extra free
    variables of ``q`` (intervention arguments) pass through untouched.
    """
    target, given, scope = vsort(target), vsort(given), vsort(scope)
    over_num = vsort(set(scope) - set(target) - set(given))
    over_den = vsort(set(scope) - set(given))
    num = SumOver(over_num, q) if over_num else q
    den = SumOver(over_den, q) if over_den else q
    return simplify(Quotient(num, den))


def _chain(q: Expr, t: set[str]) -> list[tuple] | None:
    """(factor, do, C_k, H_k) of each factor of ``q`` in chain order when
    ``q`` is a factor chain over ``t`` (see :func:`reduced_q`), else None."""
    if _is_canonical(q):
        factors = [q]
    elif isinstance(q, Product) and q._fixed and all(map(_is_canonical, q.factors)):
        factors = q.factors
    else:
        return None
    chain = sorted(((f, *_as_factor(f)) for f in factors), key=lambda f: len(t.intersection(f[3])))
    earlier = set()
    for _, do, c, h in chain:
        if do != chain[0][1] or t.intersection(h) != earlier:
            return None
        earlier.update(c)
    return chain if earlier == t else None


def reduced_q(
    q: Expr, blocks: Iterable[tuple[str, ...]], s_union: set[str], x: tuple[str, ...], t: tuple[str, ...]
) -> Expr:
    """Q[t \\ x] = q / Q[S] * sum_x Q[S], with Q[t] held in ``q``: the one
    rewrite behind every removal step (the Q-decomposition of Tian & Pearl,
    AAAI 2002).

    ``blocks`` partition ``t`` so that edges between blocks point forward:
    single nodes in topological order, or the buckets of a partial order.
    Q[S] is the product of q(B | the blocks before B) over the blocks inside
    ``s_union``, the union S of the components of the members of ``x``.
    Nothing here checks that ``x`` is removable: the removal steps reach it
    only through the test that proved so, and the public
    :func:`.ident_dag.q_reduce` and :func:`.ident_pag.q_reduce_bucket` are
    the checked entry points.

    When ``q`` is a factor chain over t whose factors the blocks fit, the
    result is read off the chain and no quotient is built.  A chain is one
    canonical factor (see :func:`_is_canonical`), or a product of them that
    :func:`simplify` has marked as its fixed point, P_D(C_1 | H_1) * ... *
    P_D(C_n | H_n) over one D, where the C_k partition t and each H_k meets t
    in exactly C_<k, the targets before it.  The mark is load-bearing:
    ``simplify`` would first merge the factors of an unmarked product, and
    its quotient would not be the one below.  If S is all of t, Q[S] is q
    whatever the blocks, so the chain's factors serve as the blocks: B = C_n
    and Pre = C_<n.  Otherwise B is the last block inside S and Pre the
    blocks before it.  If ``x`` lies inside B, only B's
    conditional mentions ``x``, and the others cancel between q / Q[S] and
    the sum, so the result is q / q(B | Pre) * q(B \\ x | Pre).  When B lies
    inside one C_k and C_<k <= Pre <= C_<k u C_k, both conditionals come from
    the k-th factor alone: with Pre_k = Pre n C_k, the result is the other
    factors unchanged times P_D(C_k \\ B \\ Pre_k | B u Pre_k u H_k) *
    P_D(Pre_k u (B \\ x) | H_k), factors with an empty target dropped.  That
    is the node ``simplify`` returns for the quotient, in its factor order,
    marked as a fixed point because one more normalisation pass leaves it
    unchanged: no two of its factors chain-merge, as no two of q's did.  Every
    other input builds the quotient and simplifies it.
    """
    inside, preceding = [], ()
    for block in blocks:
        if s_union.issuperset(block):
            inside.append((block, preceding))
        elif not s_union.isdisjoint(block):
            raise ValueError("definite c-component is not a union of buckets")
        preceding += block
    chain = _chain(q, set(t))
    if chain:
        if sum(len(b) for b, _ in inside) == len(t):
            block, before = set(chain[-1][2]), set(t).difference(chain[-1][2])
        else:
            block, before = map(set, inside[-1])
        for k, (_, do, c, h) in enumerate(chain):
            pre = before.intersection(c)
            if block <= set(c) and set(x) <= block and before - pre == set(h).intersection(t):
                split = ((vsort(set(c) - block - pre), vsort(block | pre | set(h))),
                         (vsort(pre | block.difference(x)), h))
                rest = [f for j, (f, *_) in enumerate(chain) if j != k]
                out = _rebuild(rest + [_from_factor(do, *f) for f in split if f[0]], [])
                object.__setattr__(out, "_fixed", True)
                return out
    terms = [conditional_of(q, block, before, scope=t) for block, before in inside]
    q_s = terms[0] if len(terms) == 1 else Product(tuple(terms))
    return simplify(Product((Quotient(q, q_s), SumOver(x, q_s))))


def drop_certified_givens(
    e: Expr,
    certify: Callable[[tuple[str, ...], str, tuple[str, ...]], bool],
    eligible: Iterable[str],
) -> Expr:
    """Remove conditioning variables backed by an independence certificate.

    For each observational conditional factor, a given-variable ``v`` from
    ``eligible`` is dropped when ``certify(target, v, remaining_given)``
    returns True.  This is the only rewrite allowed to change the free
    variables of a factor; plain :func:`simplify` is purely algebraic.

    When the result still has free variables from ``eligible``, a second form
    is tried that drops every certified given, summed or free, eligible or
    not: a certified drop is a pointwise identity of the factor, so it holds
    anywhere in the tree.  The second form is kept only when it has fewer
    free variables from ``eligible``; it is discarded if a drop leaves a sum
    without its variable or the drops do not settle.
    """
    eligible = frozenset(eligible)
    cur = _drops_to_fixed_point(simplify(e), certify, eligible.__contains__)
    stray = eligible.intersection(cur.free_vars())
    if not stray:
        return cur
    try:
        alt = _drops_to_fixed_point(cur, certify, lambda v: True)
    except (ValueError, RuntimeError):  # an emptied sum, or no fixed point
        return cur
    return alt if eligible.intersection(alt.free_vars()) < stray else cur


def _drops_to_fixed_point(cur: Expr, certify, droppable: Callable[[str], bool]) -> Expr:
    # drops enable merges that build new factors with droppable givens, so
    # iterate the pass to a fixed point
    for _ in range(20):
        nxt = simplify(_drop_givens(cur, certify, droppable))
        if nxt == cur:
            return cur
        cur = nxt
    raise RuntimeError("conditioning drops did not reach a fixed point")


def _drop_givens(node: Expr, certify, droppable: Callable[[str], bool]) -> Expr:
    if isinstance(node, Conditional) and not node.base.do:
        given = list(node.given)
        changed = True
        while changed:
            changed = False
            for v in sorted(given):
                if not droppable(v):
                    continue
                rest = tuple(x for x in given if x != v)
                if certify(node.target, v, rest):
                    given.remove(v)
                    changed = True
        return _from_factor((), node.target, tuple(given))
    if isinstance(node, Product):
        return Product(tuple(_drop_givens(f, certify, droppable) for f in node.factors))
    if isinstance(node, Quotient):
        return Quotient(_drop_givens(node.num, certify, droppable), _drop_givens(node.den, certify, droppable))
    if isinstance(node, SumOver):
        # a summed variable losing its last free occurrence is a caller
        # error and surfaces through the SumOver constructor
        return SumOver(node.vars, _drop_givens(node.body, certify, droppable))
    return node


def join_certified_marginals(
    e: Expr, certify: Callable[[tuple[str, ...], tuple[str, ...]], bool]
) -> Expr:
    """Merge products of observational marginals into joints.

    ``P(a) * P(b)`` becomes ``P(a u b)`` when ``certify(a, b)`` vouches for
    the independence; like the conditioning drops this is an exact rewrite
    only under the caller's certificate, never plain algebra.
    """
    return simplify(_join_marginals(simplify(e), certify))


def _join_marginals(node: Expr, certify) -> Expr:
    if isinstance(node, Product):
        factors = [_join_marginals(f, certify) for f in node.factors]
        changed = True
        while changed:
            changed = False
            marginals = [
                (i, f)
                for i, f in enumerate(factors)
                if isinstance(f, DistRef) and not f.do
            ]
            for (i, a), (j, b) in ((p, q) for p in marginals for q in marginals if p[0] < q[0]):
                if set(a.scope) & set(b.scope):
                    continue
                if certify(a.scope, b.scope):
                    joined = DistRef(vsort(a.scope + b.scope))
                    factors = [f for k, f in enumerate(factors) if k not in (i, j)]
                    factors.append(joined)
                    changed = True
                    break
        return Product(tuple(factors))
    if isinstance(node, Quotient):
        return Quotient(_join_marginals(node.num, certify), _join_marginals(node.den, certify))
    if isinstance(node, SumOver):
        return SumOver(node.vars, _join_marginals(node.body, certify))
    return node


# ---------------------------------------------------------------------------
# rendering


def _render_var(v: str) -> str:
    return v.lower()


def _render_factor_text(do, target, given) -> str:
    head = "P" if not do else "P_{" + ",".join(_render_var(v) for v in do) + "}"
    body = ",".join(_render_var(v) for v in target)
    if given:
        body += "|" + ",".join(_render_var(v) for v in given)
    return f"{head}({body})"


def render_text(e: Expr) -> str:
    """Plain-text rendering, e.g. ``P(y1,y2|x1) * P(y3|x2)``."""
    if e._text is None:
        object.__setattr__(e, "_text", _render_text(e))
    return e._text


def _render_text(e: Expr) -> str:
    f = _as_factor(e)
    if f is not None:
        return _render_factor_text(*f)
    if isinstance(e, Const):
        return "1" if e.value == 1.0 else repr(e.value)
    if isinstance(e, Product):
        return " * ".join(render_text(f) for f in e.factors)
    if isinstance(e, Quotient):
        return f"[{render_text(e.num)} / {render_text(e.den)}]"
    if isinstance(e, SumOver):
        return f"sum_{{{','.join(_render_var(v) for v in e.vars)}}} [{render_text(e.body)}]"
    raise TypeError(f"not an expression: {e!r}")


def _latex_var(v: str) -> str:
    v = v.lower()
    head = v.rstrip("0123456789")
    tail = v[len(head):]
    return f"{head}_{{{tail}}}" if tail else head


def render_latex(e: Expr) -> str:
    f = _as_factor(e)
    if f is not None:
        do, target, given = f
        head = "P" if not do else "P_{" + ",".join(_latex_var(v) for v in do) + "}"
        body = ",".join(_latex_var(v) for v in target)
        if given:
            body += r" \mid " + ",".join(_latex_var(v) for v in given)
        return f"{head}({body})"
    if isinstance(e, Const):
        return "1" if e.value == 1.0 else repr(e.value)
    if isinstance(e, Product):
        return r" \cdot ".join(render_latex(f) for f in e.factors)
    if isinstance(e, Quotient):
        return r"\frac{%s}{%s}" % (render_latex(e.num), render_latex(e.den))
    if isinstance(e, SumOver):
        subs = ",".join(_latex_var(v) for v in e.vars)
        return r"\sum_{%s} %s" % (subs, render_latex(e.body))
    raise TypeError(f"not an expression: {e!r}")


def to_json_dict(e: Expr):
    """JSON tree with lowercase kind tags and sorted variable lists."""
    f = _as_factor(e)
    if f is not None:
        do, target, given = f
        return {
            "kind": "conditional" if given else "dist",
            "target": [_render_var(v) for v in target],
            "given": [_render_var(v) for v in given],
            "do": [_render_var(v) for v in do],
        }
    if isinstance(e, Const):
        return {"kind": "const", "value": e.value}
    if isinstance(e, Product):
        return {"kind": "product", "factors": [to_json_dict(f) for f in e.factors]}
    if isinstance(e, Quotient):
        return {"kind": "quotient", "num": to_json_dict(e.num), "den": to_json_dict(e.den)}
    if isinstance(e, SumOver):
        return {"kind": "sum", "vars": [_render_var(v) for v in e.vars], "body": to_json_dict(e.body)}
    raise TypeError(f"not an expression: {e!r}")


def to_json(e: Expr) -> str:
    return json.dumps(to_json_dict(e), sort_keys=True)
