import itertools

import numpy as np
import pytest

from pagid.catalog import (
    beyond_adjustment_pag,
    bow_dag,
    circle_pair_pag,
    confounded_chain_dag,
    confounded_chain_dag_alt,
    confounded_chain_pag,
    two_treatment_pag,
)
import reference_ident
from pagid import ident_dag, ident_pag
from pagid.exprs import JointTable, evaluate_table
from pagid.graphs import ARROW, TAIL, LatentDag, Pag, names_of
from pagid.structure import graphical_visible_edges


@pytest.fixture
def chain_pag():
    return confounded_chain_pag()


@pytest.fixture
def chain_dag():
    return confounded_chain_dag()


@pytest.fixture
def chain_dag_alt():
    return confounded_chain_dag_alt()


@pytest.fixture
def twin_pag():
    return two_treatment_pag()


@pytest.fixture
def ring_pag():
    return beyond_adjustment_pag()


@pytest.fixture
def bow():
    return bow_dag()


@pytest.fixture
def circle_pair():
    return circle_pair_pag()


def random_joint_table(rng, variables, card=2):
    """Dense random table over ``variables`` with Dirichlet(1,...,1) mass."""
    variables = tuple(sorted(variables, key=lambda v: (v.lower(), v)))
    shape = tuple(card for _ in variables)
    probs = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    return JointTable(variables, shape, probs)


def wide_latent_dag(rng, n, density):
    """A random latent DAG over ``n`` observed nodes ``V1``..``Vn``: each pair
    is joined with probability ``density``, by an arc forward in a shuffled
    causal order (7 in 10) or by a confounding arc."""
    order = [f"V{i + 1}" for i in rng.permutation(n)]
    edges = [
        (a, b, TAIL, ARROW, False) if rng.random() < 0.7 else (a, b, ARROW, ARROW, False)
        for a, b in itertools.combinations(order, 2)
        if rng.random() < density
    ]
    return LatentDag.from_edges([f"V{i + 1}" for i in range(n)], edges)


def latent_dag_at(rng, n_obs, n_latent, edge_prob):
    """A random latent DAG by the recipe of ``bench/workloads.py``'s
    ``_random_latent_dag``: observed ``V1``..``Vn`` in a shuffled causal
    order, each forward pair joined with probability ``edge_prob``, and
    ``n_latent`` distinct pairs confounded by latents ``L1``, ``L2``, ..."""
    observed = tuple(f"V{i + 1}" for i in range(n_obs))
    order = [observed[i] for i in rng.permutation(n_obs)]
    edges = [(order[i], order[j]) for i, j in itertools.combinations(range(n_obs), 2) if rng.random() < edge_prob]
    pairs = list(itertools.combinations(observed, 2))
    latent = []
    for k, pick in enumerate(sorted(int(i) for i in rng.choice(len(pairs), n_latent, replace=False))):
        latent.append(f"L{k + 1}")
        edges += [(latent[-1], pairs[pick][0]), (latent[-1], pairs[pick][1])]
    return LatentDag(observed, tuple(latent), edges)


def mag_as_pag(mag):
    """The circle-free MAG ``mag`` read as a PAG, its visible edges those
    the graphical condition certifies, as ``bench/workloads.py``'s
    ``_mag_as_pag`` reads it.  Its class holds the MAG, so an effect
    identified on it holds in every DAG the MAG projects."""
    visible = graphical_visible_edges(mag)
    return Pag(mag.nodes, [(a, b, ma, mb, (a, b) in visible or (b, a) in visible) for a, b, ma, mb, _ in mag.edges()])


def max_value_gap(e1, e2, table):
    """Largest pointwise difference between two expressions on ``table``."""
    v1, a1 = evaluate_table(e1, table)
    v2, a2 = evaluate_table(e2, table)
    cards = dict(zip(table.variables, table.cards))
    union = sorted(set(v1) | set(v2), key=lambda v: (v.lower(), v))
    gap = 0.0
    for vals in itertools.product(*(range(cards[v]) for v in union)):
        bound = dict(zip(union, vals))
        x1 = float(a1[tuple(bound[v] for v in v1)])
        x2 = float(a2[tuple(bound[v] for v in v2)])
        gap = max(gap, abs(x1 - x2))
    return gap


def driver_starts(monkeypatch):
    """Spy on the starts the shared driver derives: ``starts`` gets each
    start's order of A, its set and its Q, and ``steps`` the scope, as node
    names, and Q of every call of the one removal step."""
    starts, steps = [], []
    q_of_joint, real = ident_dag.q_of_joint, ident_dag._remove_bucket

    def start(order, s_union):
        q = q_of_joint(order, s_union)
        starts.append((list(order), set(s_union), q))
        return q

    def step(rows, scope, target, q, rng):
        steps.append((list(names_of(rows.nodes, scope)), q))
        return real(rows, scope, target, q, rng)

    monkeypatch.setattr(ident_dag, "q_of_joint", start)
    monkeypatch.setattr(ident_dag, "_remove_bucket", step)
    return starts, steps


@pytest.fixture
def remembered_graphs(monkeypatch):
    """Give every row table that ``idp``, ``id_dag`` and ``reference_ident``
    build the attribute ``graph``, the graph it was built from, so that a spy
    on the one removal step can read the scope's induced subgraph."""
    for module, name in ((ident_pag, "_ScopeRows"), (reference_ident, "_ScopeRows"), (ident_dag, "_DagRows")):
        class Remembered(getattr(module, name)):
            def __init__(self, g):
                super().__init__(g)
                self.graph = g

        monkeypatch.setattr(module, name, Remembered)
