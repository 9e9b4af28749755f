"""Golden ``id_dag`` answers, diffed byte for byte.

The queries are those of ``test_removal_steps._queries``, asked of the
catalog DAGs and of both latent DAGs (the drawn one and the canonical DAG of
its MAG) of 20 seed-7 verification draws.  Each line of
``tests/data/id_dag_answers.txt`` holds the draw (``-`` for the catalog),
the graph, the treatment, the outcome and the answer text or the failure's
``describe()``, separated by tabs.  Regenerate the file, when an answer is
meant to change, with::

    PYTHONPATH=src python tests/test_id_dag_answers.py > tests/data/id_dag_answers.txt
"""

import sys
from pathlib import Path

import numpy as np

from pagid import catalog
from pagid.exprs import render_text
from pagid.ident_dag import Fail, id_dag
from pagid.oracle import canonical_dag_of_mag
from pagid.verify import _sample_graph
from test_removal_steps import _queries

GOLDEN = Path(__file__).parent / "data" / "id_dag_answers.txt"
DRAWS = 20


def _graphs():
    for name in ("confounded_chain_dag", "confounded_chain_dag_alt", "bow_dag"):
        yield "-", name, getattr(catalog, name)()
    rng = np.random.default_rng(7)
    for draw in range(DRAWS):
        d, m = _sample_graph(rng)
        yield str(draw), "drawn", d
        yield str(draw), "canonical", canonical_dag_of_mag(m)


def answers_text() -> str:
    lines = []
    for draw, name, d in _graphs():
        for xs, ys in _queries(d.observed):
            res = id_dag(xs, ys, d)
            answer = res.describe() if isinstance(res, Fail) else render_text(res)
            lines.append("\t".join((draw, name, ",".join(xs), ",".join(ys), answer)))
    return "\n".join(lines) + "\n"


def test_answers_match_the_golden_file():
    assert answers_text() == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(answers_text())
