"""Golden answers of both query engines, ``id_dag`` and ``idp``, diffed byte
for byte.

The queries are those of ``test_removal_steps._queries``.  ``id_dag`` is
asked of the catalog DAGs and of both latent DAGs (the drawn one and the
canonical DAG of its MAG) of 20 seed-7 verification draws; ``idp`` of the
catalog PAGs and of the class PAGs of the same draws.  Each line of
``tests/data/<engine>_answers.txt`` holds the draw (``-`` for the catalog),
the graph, the treatment, the outcome and the answer text or the failure's
``describe()``, separated by tabs.  Regenerate a file, when an answer is
meant to change, with::

    PYTHONPATH=src python tests/test_id_dag_answers.py id_dag > tests/data/id_dag_answers.txt
    PYTHONPATH=src python tests/test_id_dag_answers.py idp > tests/data/idp_answers.txt
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from pagid import catalog, ident_dag, ident_pag
from pagid.exprs import render_text
from pagid.oracle import canonical_dag_of_mag, equivalence_class, pag_of_class
from pagid.verify import _sample_graph
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


@pytest.mark.parametrize("engine", ENGINES)
def test_answers_match_the_golden_file(engine):
    assert answers_text(engine) == (DATA / f"{engine}_answers.txt").read_text()


if __name__ == "__main__":
    sys.stdout.write(answers_text(sys.argv[1]))
