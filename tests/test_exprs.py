import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_exprs
from conftest import max_value_gap, random_joint_table
from pagid import catalog, exprs
from pagid.cli import parse_graph
from pagid.exprs import (
    Conditional,
    Const,
    DistRef,
    JointTable,
    Product,
    Quotient,
    SumOver,
    _norm,
    conditional_of,
    drop_certified_givens,
    evaluate,
    evaluate_table,
    expr_size,
    join_certified_marginals,
    render_latex,
    render_text,
    simplify,
    to_json_dict,
)
from pagid.ident_dag import id_dag
from pagid.ident_pag import idp
from pagid.oracle import equivalence_class, pag_of_class
from pagid.separation import definitely_m_separated
from pagid.verify import _sample_graph, _sample_query
from test_dense_queries import DATA, DENSE_QUERIES
from test_removal_steps import _queries

TWIN_VARS = ("V1", "V2", "X1", "X2", "Y1", "Y2", "Y3")


def P(*target, given=()):
    target = tuple(target)
    if not given:
        return DistRef(target)
    return Conditional(target, tuple(given))


def _fresh(e):
    """Structurally equal copy built from scratch, so it carries no marks."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, DistRef):
        return DistRef(e.scope)
    if isinstance(e, Conditional):
        return Conditional(e.target, e.given)
    if isinstance(e, Product):
        return Product(tuple(_fresh(f) for f in e.factors))
    if isinstance(e, Quotient):
        return Quotient(_fresh(e.num), _fresh(e.den))
    return SumOver(e.vars, _fresh(e.body))


def _subtrees(e):
    yield e
    if isinstance(e, Product):
        for f in e.factors:
            yield from _subtrees(f)
    elif isinstance(e, Quotient):
        yield from _subtrees(e.num)
        yield from _subtrees(e.den)
    elif isinstance(e, SumOver):
        yield from _subtrees(e.body)


def _reference_free_vars(e):
    """Free variables recomputed from the children on every call."""
    if isinstance(e, Const):
        return set()
    if isinstance(e, DistRef):
        return set(e.scope)
    if isinstance(e, Conditional):
        return set(e.target) | set(e.given)
    if isinstance(e, Product):
        return set().union(*(_reference_free_vars(f) for f in e.factors))
    if isinstance(e, Quotient):
        return _reference_free_vars(e.num) | _reference_free_vars(e.den)
    return _reference_free_vars(e.body) - set(e.vars)


def _subsets(variables, min_size):
    if not variables:
        return st.just(())
    return st.lists(
        st.sampled_from(variables), min_size=min_size, max_size=len(variables), unique=True
    ).map(tuple)


def _unless_refused(rewrite, *args):
    """``rewrite(*args)``, or None where a summed variable cancels out of its
    body: the calculus carries no cardinalities, so ``simplify`` refuses
    such sums (see ``test_sum_over_cancelled_variable_is_refused``)."""
    try:
        return rewrite(*args)
    except ValueError as exc:
        if "vanished" not in str(exc):
            raise
        return None


def _draw_sum(body):
    if not body.free_vars():
        return st.just(body)
    return _subsets(body.free_vars(), 1).map(lambda vs: SumOver(vs, body))


def _draw_conditional(q):
    if not q.free_vars():
        return st.just(q)
    return _subsets(q.free_vars(), 1).flatmap(
        lambda scope: _subsets(scope, 1).flatmap(
            lambda target: _subsets(tuple(v for v in scope if v not in target), 0).map(
                lambda given: _unless_refused(conditional_of, q, target, given, scope)
            )
        )
    ).filter(lambda e: e is not None)


def expression_trees():
    """Products, quotients, sums and ``conditional_of`` results over
    observational factors of ``TWIN_VARS``."""
    factors = st.lists(st.sampled_from(TWIN_VARS), min_size=1, max_size=4, unique=True).flatmap(
        lambda vs: st.integers(1, len(vs)).map(lambda k: P(*vs[:k], given=vs[k:]))
    )

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(lambda fs: Product(tuple(fs))),
            st.tuples(children, children).map(lambda nd: Quotient(*nd)),
            children.flatmap(_draw_sum),
            children.flatmap(_draw_conditional),
        )

    return st.recursive(factors, extend, max_leaves=6)


class TestJointTable:
    def test_mass_validation(self):
        with pytest.raises(ValueError, match="mass"):
            JointTable(("A",), (2,), np.array([0.7, 0.7]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            JointTable(("A",), (2,), np.array([1.5, -0.5]))

    def test_marginal_order(self):
        t = JointTable(("A", "B"), (2, 2), np.array([[0.1, 0.2], [0.3, 0.4]]))
        np.testing.assert_allclose(t.array_for(("B",)), [0.4, 0.6])

    def test_leading_axes_are_models_each_checked_and_read_alone(self):
        rng = np.random.default_rng(5)
        tables = [random_joint_table(rng, ("A", "B", "C"), card=3) for _ in range(4)]
        batch = JointTable(("A", "B", "C"), (3, 3, 3), np.stack([t.probs for t in tables]))
        e = Conditional(("A",), ("C",))
        values = evaluate_table(e, batch)[1]
        for m, t in enumerate(tables):
            assert np.array_equal(batch.array_for(("C", "A"))[m], t.array_for(("C", "A")))
            assert np.array_equal(values[m], evaluate_table(e, t)[1])
            assert batch.prob({"A": 1, "B": 2, "C": 0})[m] == t.prob({"A": 1, "B": 2, "C": 0})
            assert evaluate(e, batch, {"A": 2, "C": 1})[m] == evaluate(e, t, {"A": 2, "C": 1})
        off = np.stack([tables[0].probs, tables[1].probs * 0.9])
        with pytest.raises(ValueError, match="table mass 0.9"):
            JointTable(("A", "B", "C"), (3, 3, 3), off)
        with pytest.raises(ValueError, match="table shape"):
            JointTable(("A", "B", "C"), (3, 3, 3), batch.probs[..., :2])


class TestEvaluate:
    def test_uniform_pair(self):
        t = JointTable(("A", "B"), (2, 2), np.full((2, 2), 0.25))
        e = DistRef(("A", "B"))
        for a in (0, 1):
            for b in (0, 1):
                assert evaluate(e, t, {"A": a, "B": b}) == pytest.approx(0.25)

    def test_total_mass(self):
        rng = np.random.default_rng(3)
        t = random_joint_table(rng, ("A", "B", "C"))
        e = SumOver(("A", "B", "C"), DistRef(("A", "B", "C")))
        assert evaluate(e, t, {}) == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_conditional_returns_zero(self):
        probs = np.array([[0.5, 0.5], [0.0, 0.0]])
        t = JointTable(("A", "B"), (2, 2), probs)
        e = P("B", given=("A",))
        assert evaluate(e, t, {"A": 1, "B": 0}) == 0.0

    def test_variable_missing_from_the_table(self):
        t = JointTable(("A",), (2,), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="lacks variables"):
            evaluate(DistRef(("A", "B")), t, {"A": 0, "B": 0})

    def test_assignment_out_of_range(self):
        t = JointTable(("A",), (2,), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="range"):
            evaluate(DistRef(("A",)), t, {"A": 5})


class TestSimplify:
    def test_first_twin_reduction_collapses_to_a_joint(self):
        # the quotient strips the conditional chain, the sum marginalises it
        cond = P("X1", "X2", "Y1", "Y2", "Y3", given=("V1", "V2"))
        e = Product(
            (
                Quotient(DistRef(TWIN_VARS), cond),
                SumOver(("Y3",), cond),
            )
        )
        assert render_text(simplify(e)) == "P(v1,v2,x1,x2,y1,y2)"

    def test_certified_drop_then_sum_eliminates_context(self, twin_pag):
        e = SumOver(
            ("V1", "V2"),
            Product((DistRef(("V1", "V2")), P("Y1", "Y2", given=("X1", "V1", "V2")))),
        )

        def certify(target, var, rest):
            return definitely_m_separated(twin_pag, target, [var], rest)

        dropped = drop_certified_givens(e, certify, {"V1", "V2"})
        assert render_text(dropped) == "P(y1,y2|x1)"

    def test_stray_variable_removed_through_a_non_eligible_drop(self):
        # P_{v2}(v4) as [sum_{v1} [P(v1,v3) * P(v4|v1,v2,v3)] / P(v3)]: v3,
        # the only eligible variable, cannot drop until the treatment v2 has
        independent = {("V2", ("V1", "V3")), ("V3", ())}
        e = Quotient(
            SumOver(("V1",), Product((DistRef(("V1", "V3")), P("V4", given=("V1", "V2", "V3"))))),
            DistRef(("V3",)),
        )

        def certify(target, var, rest):
            return target == ("V4",) and (var, rest) in independent

        assert render_text(drop_certified_givens(e, certify, {"V3"})) == "P(v4)"

    def test_second_form_that_empties_a_sum_is_discarded(self):
        e = SumOver(("V",), P("A", given=("B", "V")))
        kept = drop_certified_givens(e, lambda target, var, rest: var == "V", {"B"})
        assert kept == simplify(e)

    def test_drop_is_caller_certified_only(self):
        e = P("Y1", given=("V1",))
        unchanged = drop_certified_givens(e, lambda *a: False, {"V1"})
        assert unchanged == simplify(e)

    @given(expression_trees())
    @settings(max_examples=50, deadline=None)
    def test_idempotent_on_fixture_corpus(self, tree):
        results = [simplify(e) for e in _expression_corpus(None, None, None)]
        drawn = _unless_refused(simplify, tree)
        # an unmarked copy, so the fixed-point mark cannot answer for it
        for once in results + ([] if drawn is None else [drawn]):
            assert simplify(_fresh(once)) == once

    @given(expression_trees())
    @settings(max_examples=50, deadline=None)
    def test_simplify_marks_are_truthful(self, tree):
        # drawn trees hold marked conditional_of results as subtrees
        once = _unless_refused(simplify, tree)
        marked = [n for n in _subtrees(tree) if n._fixed] + ([] if once is None else [once])
        for node in marked:
            assert _norm(_fresh(node)) == node
            assert _norm(node) is node

    @given(expression_trees())
    @settings(max_examples=50, deadline=None)
    def test_stored_free_vars_match_reference(self, tree):
        once = _unless_refused(simplify, tree)
        for node in list(_subtrees(tree)) + ([] if once is None else list(_subtrees(once))):
            expected = sorted(_reference_free_vars(node), key=lambda v: (v.lower(), v))
            assert node.free_vars() == tuple(expected)

    @given(expression_trees())
    @settings(max_examples=50, deadline=None)
    def test_equal_copies_hash_and_compare_equal(self, tree):
        copy = _fresh(tree)
        assert copy is not tree
        assert copy == tree and hash(copy) == hash(tree)

    def test_sum_over_cancelled_variable_is_refused(self):
        # sum_a P(a)/P(a) is the cardinality of a, which no factor denotes
        e = SumOver(("A",), Quotient(P("A"), P("A")))
        with pytest.raises(ValueError, match="vanished"):
            simplify(e)

    def test_canonical_conditional_is_its_own_normal_form(self):
        c = P("A", "B", given=("C",))
        assert _norm(c) is c
        assert simplify(c) is c and c._fixed

    def test_a_conditional_needs_a_given(self):
        # P(a) is a DistRef, so no conditional has an empty given
        with pytest.raises(ValueError, match="empty conditional given"):
            Conditional(("A",), ())

    def test_chain_merge(self):
        e = Product((P("A"), P("B", given=("A",))))
        assert render_text(simplify(e)) == "P(a,b)"

    def test_quotient_rule_splits_conditional(self):
        e = Quotient(DistRef(("A", "B", "C")), P("B", given=("A",)))
        assert render_text(simplify(e)) == "P(a) * P(c|a,b)"

    def test_sum_pulls_out_constant_factors(self):
        e = SumOver(("B",), Product((P("A"), P("B", given=("A",)))))
        assert render_text(simplify(e)) == "P(a)"

    def test_free_vars_never_grow(self, twin_pag, chain_pag, ring_pag):
        for e in _expression_corpus(twin_pag, chain_pag, ring_pag):
            assert set(simplify(e).free_vars()) <= set(e.free_vars())

    @given(st.integers(0, 10_000), expression_trees())
    @settings(max_examples=50, deadline=None)
    def test_rewrites_preserve_value(self, seed, tree):
        rng = np.random.default_rng(seed)
        table = random_joint_table(rng, TWIN_VARS)
        for e in _expression_corpus(None, None, None):
            assert max_value_gap(e, simplify(e), table) <= 1e-12
        once = _unless_refused(simplify, tree)
        if once is not None:
            # quotients of drawn trees reach values in the hundreds, so the
            # rounding bound scales with the largest value
            scale = max(1.0, float(np.abs(evaluate_table(tree, table)[1]).max()))
            assert max_value_gap(tree, once, table) <= 1e-12 * scale

    def test_first_twin_reduction_equals_direct_marginal(self, twin_pag):
        # evaluating the unsimplified quotient-sum form on a class model
        # gives exactly the six-variable marginal
        from pagid.graphs import CIRCLE, Mag, TAIL
        from pagid.oracle import canonical_dag_of_mag, joint, random_scm

        edges = [
            (a, b, TAIL if ma is CIRCLE else ma, TAIL if mb is CIRCLE else mb, False)
            for a, b, ma, mb, _ in twin_pag.edges()
        ]
        cdag = canonical_dag_of_mag(Mag(twin_pag.nodes, edges))
        cond = P("X1", "X2", "Y1", "Y2", "Y3", given=("V1", "V2"))
        rhs = Product((Quotient(DistRef(TWIN_VARS), cond), SumOver(("Y3",), cond)))
        marginal = DistRef(("V1", "V2", "X1", "X2", "Y1", "Y2"))
        for seed in range(5):
            table = joint(random_scm(seed, cdag))
            assert max_value_gap(rhs, marginal, table) <= 1e-12


def _expression_corpus(twin_pag, chain_pag, ring_pag):
    """Expressions exercising every rewrite; all over the twin variable set."""
    cond = P("X1", "X2", "Y1", "Y2", "Y3", given=("V1", "V2"))
    q5 = Product((Quotient(DistRef(TWIN_VARS), cond), SumOver(("Y3",), cond)))
    corpus = [
        DistRef(TWIN_VARS),
        cond,
        q5,
        Product((P("V1"), P("V2", given=("V1",)), P("Y1", given=("V1", "V2")))),
        Quotient(DistRef(("V1", "V2", "X1")), P("X1", given=("V1", "V2"))),
        SumOver(("X1", "X2"), P("X1", "X2", given=("V1", "V2"))),
        SumOver(
            ("V2",),
            Product((DistRef(("V1", "V2")), P("Y1", "Y2", given=("X1", "V1", "V2")))),
        ),
        conditional_of(
            Product((DistRef(("V1", "V2")), P("X1", "X2", given=("V1", "V2")))),
            ("X1",),
            ("V1",),
            ("V1", "V2", "X1", "X2"),
        ),
        Quotient(q5, P("X1", given=("V1", "V2"))),
    ]
    return corpus


class TestConditionalOf:
    def test_observational_base(self):
        q = DistRef(("A", "B", "C"))
        e = conditional_of(q, ("B",), ("A",), ("A", "B", "C"))
        assert render_text(e) == "P(b|a)"

    def test_intervention_arguments_pass_through(self):
        # base carries a conditioning variable outside the scope
        q = Product((DistRef(("A", "B")), P("C", given=("A", "B", "D"))))
        e = conditional_of(q, ("C",), ("B",), ("A", "B", "C"))
        assert "d" in render_text(e)


FACTOR_VARS = ("A", "B", "C", "D")
CHAIN_VARS = FACTOR_VARS + ("E",)
OUTSIDE = "Z"  # a name no drawn factor mentions


def single_factors():
    """A ``DistRef`` or a canonical ``Conditional``: each of ``FACTOR_VARS``
    is in the target, the given or neither."""
    roles = st.lists(st.sampled_from("tgn"), min_size=len(FACTOR_VARS), max_size=len(FACTOR_VARS))

    def build(roles):
        pick = lambda role: tuple(v for v, r in zip(FACTOR_VARS, roles) if r == role)
        return P(*pick("t"), given=pick("g"))

    return roles.filter(lambda r: "t" in r).map(build)


def _requests(q):
    """(target, given, scope) from the free variables of ``q`` and one name
    outside it: mostly shaped like the requests of a removal step, some
    drawn freely so that overlapping and out-of-scope requests fall through."""
    names = q.free_vars() + (OUTSIDE,)
    shaped = _subsets(names, 0).flatmap(
        lambda scope: st.tuples(
            _subsets(scope, 0), _subsets(tuple(v for v in names if v != OUTSIDE), 0), st.just(scope)
        ).map(lambda r: (r[0], tuple(v for v in r[1] if v not in r[0]), r[2]))
    )
    free = st.tuples(_subsets(names, 0), _subsets(names, 0), _subsets(names, 0))
    return st.one_of(shaped, free)


def _outcome(compute, *args):
    """What the differential test compares: the node, its rendering and its
    mark, or the type of the exception raised."""
    try:
        e = compute(*args)
    except Exception as exc:  # any exception: its type is what is compared
        return type(exc)
    return e, render_text(e), e._fixed


def _nonempty_subsets(items):
    return [c for k in range(1, len(items) + 1) for c in itertools.combinations(items, k)]


@pytest.fixture
def simplify_calls(monkeypatch):
    """The arguments of every ``exprs.simplify`` call made through the module."""
    calls = []
    monkeypatch.setattr(exprs, "simplify", lambda e: calls.append(e) or simplify(e))
    return calls


@pytest.fixture
def quotient_calls(monkeypatch):
    """The arguments of every ``exprs.conditional_of`` call made through the
    module: a removal reaches it only on the generic quotient path."""
    calls = []
    monkeypatch.setattr(exprs, "conditional_of", lambda *a, **k: calls.append(a) or conditional_of(*a, **k))
    return calls


class TestConditionalOfClosedForm:
    """``conditional_of`` on one canonical factor against the quotient of
    sums in ``reference_exprs``: requests shaped like a removal step's give
    the single factor and mark that the quotient simplifies to."""

    @given(single_factors().flatmap(lambda q: st.tuples(st.just(q), _requests(q))))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_quotient_of_sums(self, drawn):
        q, (target, given_, scope) = drawn
        assert _outcome(conditional_of, q, target, given_, scope) == _outcome(
            reference_exprs.conditional_of, q, target, given_, scope
        )

    @pytest.mark.parametrize(
        "q, target, given_, scope, text",
        [
            # empty given
            (P("A", "B", "C"), ("A",), (), ("A", "B"), "P(a|c)"),
            (P("A", "B", "C"), ("A", "B", "C"), (), ("A", "B", "C"), "P(a,b,c)"),
            # scope = target
            (P("A", "B", "C"), ("A", "B"), (), ("A", "B"), "P(a,b|c)"),
            (P("A", "B", given=("C",)), ("B",), (), ("B",), "P(b|a,c)"),
            # givens outside the factor, or in its conditioning set
            (P("A", "B"), ("A",), ("Z",), ("A", "Z"), "P(a|b)"),
            (P("A", "B", given=("C",)), ("A",), ("B", "C"), ("A", "B", "C"), "P(a|b,c)"),
            # empty target
            (P("A", "B"), (), ("B",), ("A", "B"), "1"),
        ],
    )
    def test_closed_form_cases(self, q, target, given_, scope, text):
        expected = reference_exprs.conditional_of(q, target, given_, scope)
        e = conditional_of(q, target, given_, scope)
        assert e == expected and render_text(e) == text and e._fixed

    @pytest.mark.parametrize(
        "q, target, given_, scope",
        [
            # the scope reaches outside the factor's target
            (P("A", given=("B",)), ("A",), (), ("A", "B")),
            # target outside the scope, or overlapping the given
            (P("A", "B"), ("A",), (), ("B",)),
            (P("A", "B"), ("A",), ("A",), ("A", "B")),
        ],
    )
    def test_other_requests_fall_through(self, q, target, given_, scope, simplify_calls):
        expected = _outcome(reference_exprs.conditional_of, q, target, given_, scope)
        assert _outcome(conditional_of, q, target, given_, scope) == expected
        assert len(simplify_calls) == 1

    def test_a_product_still_takes_the_generic_path(self, simplify_calls):
        q = Product((P("A"), P("B", given=("A",))))
        e = conditional_of(q, ("B",), ("A",), ("A", "B"))
        assert len(simplify_calls) == 1
        assert e == reference_exprs.conditional_of(q, ("B",), ("A",), ("A", "B"))


def _draw_removal(draw, t):
    """(blocks, s_union, x) for Q[t]: an ordered partition of ``t``, in the
    order given, into blocks, S the union of all of them, of one or of
    several, and x a nonempty subset of S or, as in every removal step, of
    one block inside S."""
    cuts = draw(st.lists(st.booleans(), min_size=len(t) - 1, max_size=len(t) - 1))
    blocks = [[t[0]]]
    for v, cut in zip(t[1:], cuts):
        if cut:
            blocks.append([])
        blocks[-1].append(v)
    blocks = [tuple(b) for b in blocks]
    indices = range(len(blocks))
    chosen = draw(st.one_of(
        st.just(indices), st.sampled_from(indices).map(lambda i: (i,)), st.sets(st.sampled_from(indices), min_size=1)
    ))
    s_union = {v for i in chosen for v in blocks[i]}
    x = draw(st.one_of(
        _subsets(tuple(v for v in t if v in s_union), 1),
        st.sampled_from(sorted(chosen)).flatmap(lambda i: _subsets(blocks[i], 1)),
    ))
    return blocks, s_union, x


@st.composite
def removals(draw):
    """(q, blocks, s_union, x, t): one canonical factor q over t, and a
    removal from it drawn by ``_draw_removal``."""
    q = draw(single_factors())
    t = draw(st.permutations(q.scope if isinstance(q, DistRef) else q.target))
    return (q, *_draw_removal(draw, t), tuple(t))


@st.composite
def chains(draw):
    """(q, blocks, s_union, x, t): q a product of 1-4 canonical factors
    P(C_k | H_k) over ``CHAIN_VARS``, the C_k partitioning t, H_k made of
    C_<k (now and then only part of it) and givens from outside t, and a
    removal from q drawn by ``_draw_removal``, with t in chain order or
    shuffled.  Half the products are ``simplify`` fixed points, half are left
    unmerged and unmarked."""
    names = draw(st.permutations(CHAIN_VARS))
    size = draw(st.integers(1, len(names)))
    t, rest = tuple(names[:size]), names[size:]
    outside = tuple(v for v in rest if draw(st.booleans()))
    starts = draw(st.sets(st.integers(1, size - 1), max_size=3)) if size > 1 else set()
    bounds = [0, *sorted(starts), size]
    factors, context = [], ()
    for lo, hi in zip(bounds, bounds[1:]):
        earlier = t[:lo] if draw(st.integers(0, 3)) else draw(_subsets(t[:lo], 0))
        context = context if draw(st.booleans()) else draw(_subsets(outside, 0))
        factors.append(P(*t[lo:hi], given=earlier + context))
    factors = draw(st.permutations(factors))
    q = factors[0] if len(factors) == 1 else Product(tuple(factors))
    if draw(st.booleans()):
        q = simplify(q)
    order = tuple(draw(st.one_of(st.just(t), st.permutations(t))))
    return (q, *_draw_removal(draw, order), order)


# factor chains over A, B, C, D, each factor with its own context outside
# them, so that simplify keeps the factors apart
TWO_FACTORS = simplify(Product((P("A", "B", given=("E",)), P("C", "D", given=("A", "B", "F")))))
THREE_FACTORS = simplify(Product((
    P("A", given=("E",)), P("B", "C", given=("A", "F")), P("D", given=("A", "B", "C", "G")),
)))

# P(v1) * sum_{v3} [P(v3,v4|v1) * P(z|v1,v3,v4,x)], a removal's result on
# beyond_adjustment_pag that idp reduces again
RING_STEP = simplify(Product((
    P("V1"), SumOver(("V3",), Product((P("V3", "V4", given=("V1",)), P("Z", given=("V1", "V3", "V4", "X"))))),
)))


class TestReducedQClosedForm:
    """``exprs.reduced_q`` on factor chains, one canonical factor or a
    product of them marked by ``simplify``, against the quotient
    q / Q[S] * sum_x Q[S] it skips (``reference_exprs``); unmarked products
    and other non-chains take the generic path, as ``simplify`` would merge
    the factors of an unmarked product first."""

    @given(removals())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_simplified_quotient(self, drawn):
        assert _outcome(exprs.reduced_q, *drawn) == _outcome(reference_exprs.reduced_q, *drawn)

    @given(chains())
    @settings(max_examples=400, deadline=None)
    def test_chains_match_the_simplified_quotient(self, drawn):
        assert _outcome(exprs.reduced_q, *drawn) == _outcome(reference_exprs.reduced_q, *drawn)

    @pytest.mark.parametrize(
        "q, t",
        [
            (P("A", "B", "C", "D"), ("A", "B", "C", "D")),
            (P("A", "B", "C", "D", given=("E",)), ("D", "B", "A", "C")),
            # chains of two and three factors, t in chain order and not, so
            # that t \ S cuts the chain at every factor and at none
            (TWO_FACTORS, ("A", "B", "C", "D")),
            (TWO_FACTORS, ("D", "C", "B", "A")),
            (THREE_FACTORS, ("A", "B", "C", "D")),
            (THREE_FACTORS, ("C", "A", "D", "B")),
        ],
    )
    def test_every_removal_over_four_variables(self, q, t):
        # about 0.7 s for the six inputs, nearly all of it in the reference.
        # The draws above seldom give t several blocks: take every ordered
        # partition of t, every S made of its blocks and every x inside S
        assert exprs._chain(q, set(t))
        for cuts in itertools.product((False, True), repeat=len(t) - 1):
            blocks = [[t[0]]]
            for v, cut in zip(t[1:], cuts):
                if cut:
                    blocks.append([])
                blocks[-1].append(v)
            blocks = [tuple(b) for b in blocks]
            for chosen in _nonempty_subsets(blocks):
                s_union = {v for b in chosen for v in b}
                for x in _nonempty_subsets(sorted(s_union)):
                    drawn = (q, blocks, s_union, x, t)
                    assert _outcome(exprs.reduced_q, *drawn) == _outcome(reference_exprs.reduced_q, *drawn)

    @pytest.mark.parametrize(
        "q, blocks, s_union, x, text",
        [
            # every block inside S
            (P("A", "B", "C"), [("A",), ("B",), ("C",)], {"A", "B", "C"}, ("C",), "P(a,b)"),
            (P("A", "B", given=("C",)), [("A", "B")], {"A", "B"}, ("B",), "P(a|c)"),
            # one block: first, middle, last, and x a strict part of it
            (P("A", "B", "C"), [("A",), ("B",), ("C",)], {"A"}, ("A",), "P(b,c|a)"),
            (P("A", "B", "C"), [("A",), ("B",), ("C",)], {"B"}, ("B",), "P(a) * P(c|a,b)"),
            (P("A", "B", "C"), [("A",), ("B",), ("C",)], {"C"}, ("C",), "P(a,b)"),
            (P("A", "B", "C", given=("E",)), [("A",), ("B",), ("C",)], {"B"}, ("B",),
             "P(a|e) * P(c|a,b,e)"),
            (P("A", "B", "C", given=("E",)), [("A",), ("B", "C")], {"B", "C"}, ("B",), "P(a,c|e)"),
            # several blocks, not all of t, and x in the last of them
            (P("A", "B", "C"), [("A",), ("B",), ("C",)], {"A", "C"}, ("C",), "P(a,b)"),
            (P("A", "B", "C", "D"), [("A",), ("B",), ("C",), ("D",)], {"A", "C"}, ("C",),
             "P(a,b) * P(d|a,b,c)"),
            (P("A", "B", "C", "D", given=("E",)), [("A",), ("B",), ("C", "D")], {"A", "C", "D"}, ("C",),
             "P(a,b,d|e)"),
            (P("A", "B", "C", "D", given=("E",)), [("A",), ("B",), ("C",), ("D",)],
             {"A", "B", "C"}, ("C",), "P(a,b|e) * P(d|a,b,c,e)"),
            # chains of two factors, as simplify leaves them: B inside the
            # first factor's target, after part of it or before the second
            (simplify(Product((P("V1", "V2"), P("V4", given=("V1", "V2", "V3"))))),
             [("V1",), ("V2",), ("V4",)], {"V2"}, ("V2",), "P(v1) * P(v4|v1,v2,v3)"),
            (simplify(Product((P("V1", given=("V2", "V6")), P("V2")))), [("V2",), ("V1",)], {"V2"}, ("V2",),
             "P(v1|v2,v6)"),
            (simplify(Product((P("V1"), P("V3", given=("V1", "V2"))))), [("V1",), ("V3",)], {"V1"}, ("V1",),
             "P(v3|v1,v2)"),
            # S a suffix of the blocks, from the worked examples' removals:
            # S as one block inside one factor, S = x with no factor cut at
            # t \ S, and t \ S cutting the first factor
            (P("V1", "V2", "X1", "X2", "Y1", "Y2"), [("V1",), ("V2",), ("X1",), ("X2",), ("Y1",), ("Y2",)],
             {"X1", "X2", "Y1", "Y2"}, ("X2",), "P(v1,v2,x1,y1,y2)"),
            (simplify(Product((P("V1", "V2"), P("Y1", "Y2", given=("V1", "V2", "X1"))))),
             [("V1",), ("Y1",), ("Y2",), ("V2",)], {"V2"}, ("V2",), "sum_{v2} [P(v1,v2) * P(y1,y2|v1,v2,x1)]"),
            (simplify(Product((P("V1", "V3", "V4"), P("Z", given=("V1", "V3", "V4", "X"))))),
             [("V1",), ("V3",), ("V4",), ("Z",)], {"V3", "V4", "Z"}, ("V3",),
             "P(v1) * sum_{v3} [P(v3,v4|v1) * P(z|v1,v3,v4,x)]"),
        ],
    )
    def test_closed_form_cases(self, q, blocks, s_union, x, text, simplify_calls, quotient_calls):
        # under 0.1 s for the 17 rows.  No row builds the quotient; a result
        # with a sum in it comes from simplifying the small product
        # q(t \ S) * sum_x q(S | t \ S) once, any other straight off the chain
        t = tuple(v for b in blocks for v in b)
        expected = reference_exprs.reduced_q(q, blocks, s_union, x, t)
        simplify_calls.clear()
        e = exprs.reduced_q(q, blocks, s_union, x, t)
        assert quotient_calls == []
        assert len(simplify_calls) == ("sum_" in text)
        assert e == expected and render_text(e) == text and e._fixed

    @pytest.mark.parametrize(
        "q, blocks, s_union, x",
        [
            # several blocks, not all of t, and x in an earlier one
            (P("A", "B", "C"), [("A",), ("B",), ("C",)], {"A", "C"}, ("A",)),
            # a product, and a factor over more than t
            (Product((P("A"), P("B", given=("A",)))), [("A",), ("B",)], {"B"}, ("B",)),
            (P("A", "B", "C"), [("A",), ("B",)], {"B"}, ("B",)),
            # the worked examples' one non-chain q, a factor times a sum, with
            # S after and before the other blocks
            (RING_STEP, [("V1",), ("V4",), ("Z",)], {"V1"}, ("V1",)),
            (RING_STEP, [("V4",), ("Z",), ("V1",)], {"V1"}, ("V1",)),
        ],
    )
    def test_other_inputs_take_the_generic_path(self, q, blocks, s_union, x, quotient_calls):
        # under 0.03 s for the five rows
        t = tuple(v for b in blocks for v in b)
        expected = reference_exprs.reduced_q(q, blocks, s_union, x, t)
        assert exprs.reduced_q(q, blocks, s_union, x, t) == expected
        assert quotient_calls

    def test_a_cut_block_is_refused(self):
        q, blocks, t = P("A", "B", "C", given=("E",)), [("A", "B"), ("C",)], ("A", "B", "C")
        for reduce in (exprs.reduced_q, reference_exprs.reduced_q):
            with pytest.raises(ValueError, match="not a union of buckets"):
                reduce(q, blocks, {"A"}, ("A",), t)


class TestJoinCertifiedMarginals:
    def test_joins_only_with_certificate(self):
        e = Product((P("A"), P("B")))
        joined = join_certified_marginals(e, lambda a, b: True)
        assert render_text(joined) == "P(a,b)"
        kept = join_certified_marginals(e, lambda a, b: False)
        assert render_text(kept) == "P(a) * P(b)"


def _cleanup_answers():
    """The answers of ``idp`` and ``id_dag`` on the catalog graphs, over the
    queries of ``test_removal_steps``, on 40 seeded verification draws, and
    on the two dense 12-node queries of ``test_dense_queries``."""
    pags = [catalog.confounded_chain_pag(), catalog.two_treatment_pag(),
            catalog.beyond_adjustment_pag(), catalog.circle_pair_pag()]
    dags = [catalog.confounded_chain_dag(), catalog.confounded_chain_dag_alt(), catalog.bow_dag()]
    asked = [(idp, p, q) for p in pags for q in _queries(p.nodes)]
    asked += [(id_dag, d, q) for d in dags for q in _queries(d.observed)]
    rng = np.random.default_rng(11)
    for _ in range(40):
        d, m = _sample_graph(rng)
        pag = pag_of_class(equivalence_class(m))
        for _ in range(3):
            query = _sample_query(rng, list(pag.nodes))
            if query is not None:
                asked += [(idp, pag, query), (id_dag, d, query)]
    for name, (answer, xs, ys) in DENSE_QUERIES.items():
        asked.append((answer, parse_graph((DATA / name).read_text())[1], (xs, ys)))
    answers = [answer(*query, g) for answer, g, query in asked]
    return [e for e in answers if isinstance(e, exprs.Expr)]


@pytest.fixture(scope="module")
def answers():
    return _cleanup_answers()


class TestCleanupSharing:
    """A cleanup pass returns the very node it was given wherever nothing
    below it dropped or joined, so the marks that :func:`simplify` set
    survive, and the next round's ``simplify`` skips those subtrees.  About
    1 s of tier-1 time on a 2-core x86 host, most of it answering the
    queries."""

    def test_nothing_certified_returns_every_node_as_it_is(self, answers):
        never = lambda *args: False
        checked = 0
        for e in answers:
            assert e._fixed
            for sub in _subtrees(e):
                assert exprs._drop_givens(sub, never, lambda v: True) is sub
                assert exprs._join_marginals(sub, never) is sub
                checked += 1
            assert e._fixed
        # 525 answers, 2,049 subtrees
        assert len(answers) > 500 and checked > 2000

    def test_one_drop_rebuilds_only_the_nodes_above_it(self, answers):
        # for each conditional's (target, first given), certify exactly the
        # drops of that given from that target: the pass rebuilds the nodes
        # with such a conditional below them and returns every other node
        # as it is
        rebuilt = kept = 0
        for e in answers:
            for target, v0 in {(c.target, c.given[0]) for c in _subtrees(e) if isinstance(c, Conditional)}:
                out = exprs._drop_givens(e, lambda t, v, rest: t == target and v == v0, lambda v: True)
                hit = lambda c: isinstance(c, Conditional) and c.target == target and v0 in c.given
                counts = _sharing(e, out, hit)
                rebuilt, kept = rebuilt + counts[0], kept + counts[1]
        # 3,060 nodes rebuilt, 1,383 kept
        assert rebuilt > 2000 and kept > 1000


def _sharing(before, after, hit):
    """Check that ``after`` is ``before`` exactly where no node below
    ``before`` satisfies ``hit``, and count the nodes (rebuilt, kept)."""
    if after is before:
        assert not any(map(hit, _subtrees(before)))
        return 0, 1
    if isinstance(before, Product):
        pairs = zip(before.factors, after.factors, strict=True)
    elif isinstance(before, Quotient):
        pairs = ((before.num, after.num), (before.den, after.den))
    elif isinstance(before, SumOver):
        pairs = ((before.body, after.body),)
    else:
        assert hit(before)
        return 1, 0
    rebuilt, kept = 1, 0
    for b, a in pairs:
        counts = _sharing(b, a, hit)
        rebuilt, kept = rebuilt + counts[0], kept + counts[1]
    return rebuilt, kept


def _same_conditional_values(c, table, wider):
    """Check ``evaluate_table`` of the conditional ``c`` against the
    reference read through a base: bitwise equal for the base target u
    given, within 1e-12 for target u given u each of ``wider``."""
    got_vars, got = evaluate_table(c, table)
    tg = c.target + c.given
    ref_vars, ref = reference_exprs.conditional_table(c.target, c.given, tg, table)
    assert got_vars == ref_vars and got.shape == ref.shape and got.tobytes() == ref.tobytes()
    for extra in wider:
        ref_vars, ref = reference_exprs.conditional_table(c.target, c.given, tg + tuple(extra), table)
        assert ref_vars == got_vars and np.abs(ref - got).max() <= 1e-12


class TestConditionalEvaluation:
    """``evaluate_table`` reads P(target | given) off the joint's marginal
    over target u given.  The reference reads it through any base that
    holds them: with that same base it computes the same arrays, and every
    wider base, being a marginal of the same joint, agrees to rounding.
    About 0.2 s of tier-1 time on a 2-core x86 host, beside the answers it
    shares with :class:`TestCleanupSharing`."""

    @pytest.mark.parametrize("models", [(), (3,), (2, 3)])
    def test_random_tables(self, models):
        rng = np.random.default_rng(len(models))
        names = ("A", "b", "C", "D", "e")
        checked = 0
        for draw in range(60):
            cards = tuple(int(c) for c in rng.integers(2, 4, size=len(names)))
            probs = rng.dirichlet(np.ones(int(np.prod(cards))), size=models).reshape(models + cards)
            if draw % 2:
                # a zero-mass conditioning event: no mass where A = 0 and b = 1
                probs[..., 0, 1, :, :, :] = 0.0
                probs /= probs.sum(axis=tuple(range(-len(names), 0)), keepdims=True)
            table = JointTable(names, cards, probs)
            roles = rng.integers(0, 3, size=len(names))
            roles[rng.permutation(len(names))[:2]] = (0, 1)
            pick = lambda r: tuple(v for v, role in zip(names, roles) if role == r)
            rest = pick(2)
            wider = [sub for k in range(1, len(rest) + 1) for sub in itertools.combinations(rest, k)]
            _same_conditional_values(Conditional(pick(0), pick(1)), table, wider)
            checked += 1 + len(wider)
        assert checked > 100

    def test_every_conditional_of_the_answers(self, answers):
        rng = np.random.default_rng(7)
        outside = "Extra"  # a name no graph of the answers has
        checked = 0
        for e in answers:
            factors = [f for f in _subtrees(e) if isinstance(f, (DistRef, Conditional))]
            conditionals = {f for f in factors if isinstance(f, Conditional)}
            names = exprs.vsort(v for f in factors for v in f.free_vars())
            assert outside not in names
            table = random_joint_table(rng, names + (outside,))
            for c in conditionals:
                _same_conditional_values(c, table, [(outside,), set(names) - set(c.free_vars())])
                checked += 1
        # 145 conditionals in 112 of the 525 answers
        assert checked > 100


class TestRendering:
    def test_factor_order_is_canonical(self):
        e = simplify(Product((P("V3", "V4", given=("V1", "V2", "X")), P("V1", "V2"))))
        assert render_text(e) == "P(v1,v2) * P(v3,v4|v1,v2,x)"

    def test_sum_rendering(self):
        e = SumOver(("V1",), Product((P("Y", given=("X", "V1")), P("V1"))))
        assert render_text(simplify(e)) == "sum_{v1} [P(v1) * P(y|v1,x)]"

    def test_latex(self):
        e = simplify(Product((P("V1", "V2"), P("Y1", given=("X1",)))))
        assert render_latex(e) == r"P(v_{1},v_{2}) \cdot P(y_{1} \mid x_{1})"

    def test_json_is_sorted_and_stable(self):
        e = simplify(SumOver(("V1",), Product((P("Y", given=("X", "V1")), P("V1")))))
        assert to_json_dict(e) == to_json_dict(simplify(e))
        tree = to_json_dict(e)
        assert tree["kind"] == "sum" and tree["vars"] == ["v1"]

    def test_expr_size_counts_nodes(self):
        assert expr_size(Product((P("A"), P("B", given=("A",))))) == 4
