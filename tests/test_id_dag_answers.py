"""Golden answers of both query engines, ``id_dag`` and ``idp``, and golden
composite pc-components, diffed byte for byte.

The queries are those of ``test_removal_steps._queries``.  ``id_dag`` is
asked of the catalog DAGs and of both latent DAGs (the drawn one and the
canonical DAG of its MAG) of 20 seed-7 verification draws; ``idp`` of the
catalog PAGs and of the class PAGs of the same draws.  Each line of
``tests/data/<engine>_answers.txt`` holds the draw (``-`` for the catalog),
the graph, the treatment, the outcome and the answer text or the failure's
``describe()``, separated by tabs.  Each line of ``tests/data/components.txt``
holds the draw, the graph and its ``cpc_components`` blocks as ``pagid
components`` prints them, for the catalog PAGs, the same class PAGs and the
four ladder families of ``test_reachability`` at 4-12 nodes.  Regenerate a
file, when an answer is meant to change, with::

    PYTHONPATH=src python tests/test_id_dag_answers.py id_dag > tests/data/id_dag_answers.txt
    PYTHONPATH=src python tests/test_id_dag_answers.py idp > tests/data/idp_answers.txt
    PYTHONPATH=src python tests/test_id_dag_answers.py components > tests/data/components.txt
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from pagid import catalog, ident_dag, ident_pag
from pagid.exprs import render_text
from pagid.oracle import canonical_dag_of_mag, equivalence_class, pag_of_class
from pagid.structure import cpc_components
from pagid.verify import _sample_graph
from test_reachability import FAMILIES, ladder, ladder_pag
from test_removal_steps import _queries

DATA = Path(__file__).parent / "data"
DRAWS = 20


def _dags():
    for name in ("confounded_chain_dag", "confounded_chain_dag_alt", "bow_dag"):
        yield "-", name, getattr(catalog, name)()
    rng = np.random.default_rng(7)
    for draw in range(DRAWS):
        d, m = _sample_graph(rng)
        yield str(draw), "drawn", d
        yield str(draw), "canonical", canonical_dag_of_mag(m)


def _pags():
    for name in ("confounded_chain_pag", "two_treatment_pag", "beyond_adjustment_pag", "circle_pair_pag"):
        yield "-", name, getattr(catalog, name)()
    rng = np.random.default_rng(7)
    for draw in range(DRAWS):
        _, m = _sample_graph(rng)
        yield str(draw), "class", pag_of_class(equivalence_class(m))


# engine: (its graphs, the observed nodes of one, the query, its Fail type)
ENGINES = {
    "id_dag": (_dags, lambda d: d.observed, ident_dag.id_dag, ident_dag.Fail),
    "idp": (_pags, lambda p: p.nodes, ident_pag.idp, ident_pag.Fail),
}


def answers_text(engine: str) -> str:
    graphs, observed, query, fail = ENGINES[engine]
    lines = []
    for draw, name, g in graphs():
        for xs, ys in _queries(observed(g)):
            res = query(xs, ys, g)
            answer = res.describe() if isinstance(res, fail) else render_text(res)
            lines.append("\t".join((draw, name, ",".join(xs), ",".join(ys), answer)))
    return "\n".join(lines) + "\n"


def components_text() -> str:
    graphs = list(_pags())
    graphs += [("-", f"{family}_{n}", ladder_pag(family, n)) for family, n in ladder(12, FAMILIES)]
    lines = []
    for draw, name, g in graphs:
        blocks = " ".join("{" + ",".join(comp) + "}" for comp in cpc_components(g))
        lines.append("\t".join((draw, name, blocks)))
    return "\n".join(lines) + "\n"


# id: (golden file stem, the function that writes its text)
GOLDEN = {
    "id_dag": ("id_dag_answers", lambda: answers_text("id_dag")),
    "idp": ("idp_answers", lambda: answers_text("idp")),
    "components": ("components", components_text),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_answers_match_the_golden_file(name):
    stem, text = GOLDEN[name]
    assert text() == (DATA / f"{stem}.txt").read_text()


if __name__ == "__main__":
    sys.stdout.write(GOLDEN[sys.argv[1]][1]())
