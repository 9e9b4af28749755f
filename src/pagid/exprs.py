"""Symbolic probability expressions with exact evaluation and simplification.

Expression trees are built from factors, products, quotients and sums.  Each
factor is a distribution of the one observational joint P(V): a
:class:`DistRef` is the marginal P(scope), and a :class:`Conditional` is
P(target | given) with a non-empty given.  Both sort their variables when
built, so every factor is canonical and normalisation returns it as it is.
Evaluation reads each factor's marginal off the joint table.

``simplify`` applies a fixed rewrite calculus (quotient cancellation,
chain-rule recombination, sum marginalisation) that preserves the numeric
value on every probability table.  Conditioning-set drops are *not*
algebraic and only happen through :func:`drop_certified_givens`, where the
caller supplies an independence certificate.

Every removal step ends in :func:`reduced_q`.  From a factor chain it reads
the result off the chain when ``x`` lies in one block that fits one factor,
and when S is a suffix of the block order it simplifies only the small
product q(t \\ S) * sum_x q(S | t \\ S); other inputs build the quotient of
sums through :func:`conditional_of`.

Nodes are immutable, so facts about a node are stored on it, outside its
``eq`` and ``repr``:

* its free variables and its hash are computed once, at construction, from
  the already-stored facts of its children;
* its plain-text rendering is computed on first use (it is the sort key of
  non-factor entries);
* a node that :func:`simplify` returns is marked as a fixed point of the
  rewrite calculus, and normalisation returns a marked node as it is.  The
  mark is truthful because ``simplify`` only returns a node that one more
  normalisation pass left unchanged.  Only :func:`simplify`,
  :func:`q_of_joint` and :func:`reduced_q` set the mark: the closed forms
  of a start and of a removal mark the factor chain they return, the node
  ``simplify`` returns for the product or quotient it stands for, for the
  same reason.  :func:`reduced_q` also reads the mark: it takes a product
  for a factor chain only when marked, because ``simplify`` would first
  merge the factors of an unmarked one.

The certified cleanup keeps the marks.  Each pass of
:func:`drop_certified_givens` and :func:`join_certified_marginals` returns
the very node it was given wherever nothing below it dropped or joined, so
only the nodes above a rewrite are new, and the next ``simplify``
normalises those and returns every marked subtree as it is.

No cache outlives the node it describes: there is no memo keyed by
expression content, so one query costs the same whether or not others ran
before it in the same process.  The certificates that the cleanup asks are
answered by the caller; :func:`.ident_dag.identify` keeps their answers,
keyed by the variable sets asked, for one query only.
"""

from __future__ import annotations

import itertools
import operator
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
    """Observational joint probability of ``scope``."""

    scope: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "scope", vsort(self.scope))
        if not self.scope:
            raise ValueError("empty distribution scope")
        self._seal(self.scope, (self.scope,))


@_node
class Conditional(Expr):
    """Conditional factor ``P(target | given)`` of the observational joint.

    Every distribution an expression names is a marginal of the one joint
    P(V), so the pair (target, given) is the whole factor.  Both are sorted
    by :func:`vsort`, and the given is not empty: P(target) is a
    :class:`DistRef`.  So every factor that can be built is canonical.
    """

    target: tuple[str, ...]
    given: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "target", vsort(self.target))
        object.__setattr__(self, "given", vsort(self.given))
        if set(self.target) & set(self.given):
            raise ValueError("target and given overlap")
        if not self.target:
            raise ValueError("empty conditional target")
        if not self.given:
            raise ValueError("empty conditional given; P(target) is a DistRef")
        self._seal(vsort(self.target + self.given), (self.target, self.given))


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
    """Dense probability table over named discrete variables.

    ``probs`` has one trailing axis per variable; any axes before them are
    model axes, and each model's table is checked and read on its own.  With
    no model axis this is one table.
    """

    variables: tuple[str, ...]
    cards: tuple[int, ...]
    probs: np.ndarray = field(hash=False, compare=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        lead = probs.ndim - len(self.cards)
        if lead < 0 or probs.shape[lead:] != tuple(self.cards):
            raise ValueError(f"table shape {probs.shape} != cards {self.cards}")
        if len(self.variables) != len(self.cards):
            raise ValueError("variables/cards length mismatch")
        if (probs < -1e-15).any():
            raise ValueError("negative probability entry")
        mass = np.asarray(probs.sum(axis=tuple(range(lead, probs.ndim))))
        off = np.abs(mass - 1.0) > MASS_TOL
        if off.any():
            raise ValueError(f"table mass {mass[off][0]} != 1")

    def array_for(self, variables: tuple[str, ...]) -> np.ndarray:
        """Marginal array with axes ordered as ``variables``, after the
        model axes."""
        keep = set(variables)
        missing = keep - set(self.variables)
        if missing:
            raise ValueError(f"table lacks variables {sorted(missing)}")
        n = len(self.variables)
        drop_axes = tuple(i - n for i, v in enumerate(self.variables) if v not in keep)
        arr = self.probs.sum(axis=drop_axes) if drop_axes else self.probs
        kept = [v for v in self.variables if v in keep]
        lead = arr.ndim - len(kept)
        return np.transpose(arr, [*range(lead), *(lead + kept.index(v) for v in variables)])

    def prob(self, assignment: Mapping[str, int]) -> float | np.ndarray:
        """The probability of a full assignment: a float, or with model axes
        an array of one per model."""
        value = self.probs[(..., *(assignment[v] for v in self.variables))]
        return float(value) if value.ndim == 0 else value


# ---------------------------------------------------------------------------
# evaluation


def _align(entries: list[tuple[tuple[str, ...], np.ndarray]]) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """The union of the entries' variables, in :func:`vsort` order, and each
    array with one trailing axis per union variable (length one where it
    lacks the variable), after the model axes it has."""
    union = vsort(v for vars_, _ in entries for v in vars_)
    out = []
    for vars_, arr in entries:
        lead = arr.ndim - len(vars_)
        shape = arr.shape[:lead] + tuple(arr.shape[lead + vars_.index(v)] if v in vars_ else 1 for v in union)
        if vars_:
            perm = [*range(lead), *(lead + vars_.index(v) for v in union if v in vars_)]
            arr = np.transpose(arr, perm)
        out.append(arr.reshape(shape))
    return union, out


def evaluate_table(e: Expr, table: JointTable) -> tuple[tuple[str, ...], np.ndarray]:
    """Evaluate ``e`` at every joint assignment of its free variables, each
    distribution read off the observational ``table``.

    Returns the sorted free-variable tuple and an array with one trailing
    axis per variable, after the table's model axes (a constant has none, and
    broadcasts over them).  Each model's values are those its own table
    gives.  Conditionals with zero-mass conditioning events evaluate to 0.
    """
    if isinstance(e, Const):
        return (), np.asarray(e.value, dtype=float)
    if isinstance(e, DistRef):
        return e.scope, table.array_for(e.scope)
    if isinstance(e, Conditional):
        tg = e.free_vars()
        num = table.array_for(tg)
        den = num.sum(axis=tuple(i - len(tg) for i, v in enumerate(tg) if v in e.target))
        (union, (num_a, den_a)) = _align([(tg, num), (e.given, den)])
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(den_a > 0, num_a / np.where(den_a > 0, den_a, 1.0), 0.0)
        return union, out
    if isinstance(e, Product):
        entries = [evaluate_table(f, table) for f in e.factors]
        if not entries:
            return (), np.asarray(1.0)
        union, arrays = _align(entries)
        out = arrays[0]
        for a in arrays[1:]:
            out = out * a
        return union, out
    if isinstance(e, Quotient):
        union, (num, den) = _align([evaluate_table(e.num, table), evaluate_table(e.den, table)])
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(den != 0, num / np.where(den != 0, den, 1.0), 0.0)
        return union, out
    if isinstance(e, SumOver):
        bvars, barr = evaluate_table(e.body, table)
        missing = set(e.vars) - set(bvars)
        if missing:
            raise ValueError(f"summation variables absent from body value: {sorted(missing)}")
        axes = tuple(i - len(bvars) for i, v in enumerate(bvars) if v in set(e.vars))
        return tuple(v for v in bvars if v not in set(e.vars)), barr.sum(axis=axes)
    raise TypeError(f"not an expression: {e!r}")


def evaluate(e: Expr, table: JointTable, assignment: Mapping[str, int]) -> float | np.ndarray:
    """Value of ``e`` at a full assignment of its free variables: a float, or
    with model axes an array of one per model."""
    vars_, arr = evaluate_table(e, table)
    missing = [v for v in vars_ if v not in assignment]
    if missing:
        raise ValueError(f"assignment missing variables {missing}")
    cards = dict(zip(table.variables, table.cards))
    for v in vars_:
        if v in cards and not 0 <= assignment[v] < cards[v]:
            raise ValueError(f"assignment for {v!r} out of range")
    value = arr[(..., *(assignment[v] for v in vars_))]
    return float(value) if value.ndim == 0 else value


# ---------------------------------------------------------------------------
# simplification


def _as_factor(e: Expr) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """(target, given) when ``e`` is a canonical conditional factor."""
    if isinstance(e, DistRef):
        return (e.scope, ())
    if isinstance(e, Conditional):
        return (e.target, e.given)
    return None


def _from_factor(target: tuple[str, ...], given: tuple[str, ...]) -> Expr:
    if not target:
        return ONE
    if not given:
        return DistRef(target)
    return Conditional(target, given)


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
        b, g = fd
        for n in num:
            fn = _as_factor(n)
            if fn is None:
                continue
            a, c = fn
            sa, sb, sc, sg = set(a), set(b), set(c), set(g)
            if not (sb <= sa and sc <= sg and (sg - sc) <= sa):
                continue
            rest = vsort(sa - sb - (sg - sc))
            num.remove(n)
            den.remove(d)
            if rest:
                num.append(_from_factor(rest, vsort(sb | sg)))
            if sg - sc:
                num.append(_from_factor(vsort(sg - sc), c))
            return True
    return False


def _apply_chain_merge(entries: list[Expr]) -> bool:
    """P(a|c) * P(b|a u c) -> P(a u b|c)."""
    for i, first in enumerate(entries):
        f1 = _as_factor(first)
        if f1 is None:
            continue
        t1, g1 = f1
        for j, second in enumerate(entries):
            if i == j:
                continue
            f2 = _as_factor(second)
            if f2 is None:
                continue
            t2, g2 = f2
            if set(g2) == set(t1) | set(g1):
                merged = _from_factor(vsort(t1 + t2), g1)
                for k in sorted((i, j), reverse=True):
                    del entries[k]
                entries.append(merged)
                return True
    return False


def _sort_key(e: Expr) -> tuple:
    f = _as_factor(e)
    if f is not None:
        return (0, *f, "")
    return (1, (), (), render_text(e))


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
    if e._fixed or isinstance(e, (Const, DistRef, Conditional)):
        return e
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
                if f is None or v not in f[0]:
                    continue
                t, g = f
                num.remove(holders[0])
                reduced = _from_factor(tuple(x for x in t if x != v), g)
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
    """Node count of the tree; used to rank equivalent canonical forms.  A
    conditional counts 2, the factor and the joint it is read from."""
    if isinstance(e, (Const, DistRef)):
        return 1
    if isinstance(e, Conditional):
        return 2
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
    variables of ``q`` (givens outside ``scope``) pass through untouched.
    """
    target, given, scope = vsort(target), vsort(given), vsort(scope)
    over_num = vsort(set(scope) - set(target) - set(given))
    over_den = vsort(set(scope) - set(given))
    num = SumOver(over_num, q) if over_num else q
    den = SumOver(over_den, q) if over_den else q
    return simplify(Quotient(num, den))


def _chain(q: Expr, t: set[str]) -> list[tuple] | None:
    """(factor, C_k, H_k) of each factor of ``q`` in chain order when
    ``q`` is a factor chain over ``t`` (see :func:`reduced_q`), else None."""
    if isinstance(q, (DistRef, Conditional)):
        factors = [q]
    elif isinstance(q, Product) and q._fixed and all(isinstance(f, (DistRef, Conditional)) for f in q.factors):
        factors = q.factors
    else:
        return None
    chain = sorted(((f, *_as_factor(f)) for f in factors), key=lambda f: len(t.intersection(f[2])))
    earlier = set()
    for _, c, h in chain:
        if t.intersection(h) != earlier:
            return None
        earlier.update(c)
    return chain if earlier == t else None


def q_of_joint(order: Iterable[str], s_union: set[str]) -> Expr:
    """Q[S] from Q[t] = P(t), t the nodes of ``order``, a topological order of
    G[t], and S = ``s_union`` a union of c-components of G[t], in closed form.
    For a PAG, ``order`` lists the buckets of a partial order of P_t one
    after another, and S is a union of composite pc-components of P_t.

    Q[S] is the product of P(v | the nodes before v) over v in S (Tian &
    Pearl, AAAI 2002, Lemma 2), and for a PAG the product of P(B | the
    buckets before B) over the buckets B inside S (Jaber, Zhang &
    Bareinboim, UAI 2018).  Each maximal run R of consecutive members of
    S merges into one factor P(R | the nodes before R), and the factors,
    sorted by :func:`_rebuild`, form a factor chain over S (see
    :func:`reduced_q`).  It is the node :func:`simplify` returns for the
    product, marked as a fixed point: two factors would chain-merge only if
    no node outside S stood between their runs.
    """
    factors, before = [], ()
    for inside, run in itertools.groupby(order, s_union.__contains__):
        run = tuple(run)
        if inside:
            factors.append(_from_factor(run, vsort(before)))
        before += run
    out = _rebuild(factors, [])
    object.__setattr__(out, "_fixed", True)
    return out


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

    When ``q`` is a factor chain over t, the removals below are answered
    from the chain and build no quotient.  A chain is one factor (a
    :class:`DistRef` or :class:`Conditional`), or a product of them that
    :func:`simplify` has marked as its fixed point,
    P(C_1 | H_1) * ... * P(C_n | H_n), where the C_k partition t and each
    H_k meets t in exactly C_<k, the targets before it.  The mark is load-bearing: ``simplify`` would first merge the
    factors of an unmarked product, and its quotient would not be the one
    below.

    The rewrite needs one block B holding ``x`` and the nodes Pre before it
    with Q[S] = q(B | Pre) * (conditionals free of ``x``), as those cancel
    between q / Q[S] and the sum.  If S is all of t, Q[S] is q whatever the
    blocks, so B = C_n and Pre = C_<n.  If S is a suffix of the order, the
    blocks inside it being the last ones, Q[S] = q(S | t \\ S) by the chain
    rule whatever blocks lie in S, so B = S and Pre = t \\ S.  Otherwise B
    is the last block inside S and Pre the blocks before it.  With ``x``
    inside B, the result is q / q(B | Pre) * q(B \\ x | Pre).  When B lies
    inside one C_k and C_<k <= Pre <= C_<k u C_k, both conditionals come
    from the k-th factor alone: with Pre_k = Pre n C_k, the result is the
    other factors unchanged times P(C_k \\ B \\ Pre_k | B u Pre_k u H_k) *
    P(Pre_k u (B \\ x) | H_k), factors with an empty target dropped.  That
    is the node ``simplify`` returns for the quotient, in its factor order,
    marked as a fixed point because one more normalisation pass leaves it
    unchanged: no two of its factors chain-merge, as no two of q's did.

    A suffix S that spans factors still needs no quotient: q / Q[S] is
    q(t \\ S), free of ``x``, so Q[t \\ x] = q(t \\ S) * sum_x q(S | t \\ S).
    When t \\ S cuts the chain at one factor k, C_<k <= t \\ S <= C_<k u C_k,
    q(t \\ S) is the factors before k times P((t \\ S) n C_k | H_k), and
    q(S | t \\ S) is P(C_k \\ (t \\ S) | (t \\ S) u H_k) times the factors
    after k; only that small product is simplified.  When it cuts no factor
    and ``x`` is all of S, the result is sum_x q, simplified.  Every other
    input builds the quotient and simplifies it: a q that is no chain, an S
    with a block after it whose last block does not hold ``x`` inside one
    factor, and a suffix S that cuts no factor while ``x`` is not all of S.
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
        head = set(inside[0][1])
        suffix = len(head) + sum(len(b) for b, _ in inside) == len(t)
        if suffix and not head:
            block, before = set(chain[-1][1]), set(t).difference(chain[-1][1])
        elif suffix:
            block, before = set(t) - head, head
        else:
            block, before = map(set, inside[-1])
        for k, (_, c, h) in enumerate(chain):
            pre = before.intersection(c)
            if block <= set(c) and set(x) <= block and before - pre == set(h).intersection(t):
                split = ((vsort(set(c) - block - pre), vsort(block | pre | set(h))),
                         (vsort(pre | block.difference(x)), h))
                rest = [f for j, (f, *_) in enumerate(chain) if j != k]
                out = _rebuild(rest + [_from_factor(*f) for f in split if f[0]], [])
                object.__setattr__(out, "_fixed", True)
                return out
        if suffix:
            earlier = set()
            for k, (_, c, h) in enumerate(chain):
                if earlier <= head <= earlier.union(c):
                    q_pre = [f for f, *_ in chain[:k]] + [_from_factor(vsort(head.intersection(c)), h)]
                    q_post = [_from_factor(vsort(set(c) - head), vsort(head.union(h)))] + [f for f, *_ in chain[k + 1:]]
                    return simplify(Product((*q_pre, SumOver(x, Product(tuple(q_post))))))
                earlier.update(c)
            if set(x) == set(t) - head:
                return simplify(SumOver(x, q))
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
    # iterate the pass to a fixed point; a round rebuilds only the nodes
    # above a drop, and simplify returns the marked rest as it is
    for _ in range(20):
        nxt = simplify(_drop_givens(cur, certify, droppable))
        if nxt == cur:
            return cur
        cur = nxt
    raise RuntimeError("conditioning drops did not reach a fixed point")


def _drop_givens(node: Expr, certify, droppable: Callable[[str], bool]) -> Expr:
    """``node`` with the certified givens dropped; a node with nothing
    dropped below it is returned as it is, keeping its mark."""
    if isinstance(node, Conditional):
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
        return node if len(given) == len(node.given) else _from_factor(node.target, tuple(given))
    if isinstance(node, Product):
        factors = tuple(_drop_givens(f, certify, droppable) for f in node.factors)
        return node if _same(factors, node.factors) else Product(factors)
    if isinstance(node, Quotient):
        num, den = _drop_givens(node.num, certify, droppable), _drop_givens(node.den, certify, droppable)
        return node if num is node.num and den is node.den else Quotient(num, den)
    if isinstance(node, SumOver):
        # a summed variable losing its last free occurrence is a caller
        # error and surfaces through the SumOver constructor
        body = _drop_givens(node.body, certify, droppable)
        return node if body is node.body else SumOver(node.vars, body)
    return node


def _same(new: Iterable[Expr], old: Iterable[Expr]) -> bool:
    """Whether each of ``new`` is the very node at its place in ``old``."""
    return all(map(operator.is_, new, old))


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
    """``node`` with the certified marginals joined; a node with nothing
    joined below it is returned as it is, keeping its mark."""
    if isinstance(node, Product):
        factors = [_join_marginals(f, certify) for f in node.factors]
        joined = False
        changed = True
        while changed:
            changed = False
            marginals = [(i, f) for i, f in enumerate(factors) if isinstance(f, DistRef)]
            for (i, a), (j, b) in ((p, q) for p in marginals for q in marginals if p[0] < q[0]):
                if set(a.scope) & set(b.scope):
                    continue
                if certify(a.scope, b.scope):
                    factors = [f for k, f in enumerate(factors) if k not in (i, j)]
                    factors.append(DistRef(vsort(a.scope + b.scope)))
                    joined = changed = True
                    break
        return node if not joined and _same(factors, node.factors) else Product(tuple(factors))
    if isinstance(node, Quotient):
        num, den = _join_marginals(node.num, certify), _join_marginals(node.den, certify)
        return node if num is node.num and den is node.den else Quotient(num, den)
    if isinstance(node, SumOver):
        body = _join_marginals(node.body, certify)
        return node if body is node.body else SumOver(node.vars, body)
    return node


# ---------------------------------------------------------------------------
# rendering


def _render_var(v: str) -> str:
    return v.lower()


def _render_factor_text(target, given) -> str:
    body = ",".join(_render_var(v) for v in target)
    if given:
        body += "|" + ",".join(_render_var(v) for v in given)
    return f"P({body})"


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
        target, given = f
        body = ",".join(_latex_var(v) for v in target)
        if given:
            body += r" \mid " + ",".join(_latex_var(v) for v in given)
        return f"P({body})"
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
        target, given = f
        return {
            "kind": "conditional" if given else "dist",
            "target": [_render_var(v) for v in target],
            "given": [_render_var(v) for v in given],
            "do": [],
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

