"""Two dense 12-node queries, pinned with their answers.

Each graph was drawn at the cap by ``bench/workloads.py``'s generators:
``rng = np.random.default_rng([12, s])``, an edge probability
``rng.uniform(0.25, 0.45)``, ``rng.integers(0, 9)`` latents,
``_random_latent_dag`` over 12 observed nodes, its MAG read as a PAG by
``_mag_as_pag``, and the query from ``_query_pair``.  ``s = 76491`` gives
the ``idp`` query on ``dense_idp12.pag``, and ``s = 35753`` the ``id_dag``
query on ``dense_id_dag12.dag``, whose answer has 1,767 nodes.  Each
``.answer`` file is what ``pagid`` printed for the query when the graph was
written, and the CI entry-point step diffs the installed script's output
against it.

The cleanup asks each distinct independence certificate once per query:
the ``idp`` query asks 60, where a cleanup that asked again made 5,035
calls, and the ``id_dag`` query 76, where it made 9,438.  These are counts,
not times; both queries take about 0.8 s of tier-1 time on a 2-core x86
host.
"""

from pathlib import Path

import pytest

from pagid import cli, ident_dag, ident_pag

DATA = Path(__file__).parent / "data"

# graph file: (its query function, treatment, outcome)
DENSE_QUERIES = {
    "dense_idp12.pag": (ident_pag.idp, ("V8", "V3"), ("V11",)),
    "dense_id_dag12.dag": (ident_dag.id_dag, ("V5", "V9"), ("V3", "V12")),
}


@pytest.mark.parametrize(
    "graph, command, module, certificate, distinct",
    [
        ("dense_idp12.pag", "idp", ident_pag, "definitely_m_separated", 60),
        ("dense_id_dag12.dag", "id-dag", ident_dag, "d_separated", 76),
    ],
)
def test_dense_query_asks_each_certificate_once(monkeypatch, capsys, graph, command, module, certificate, distinct):
    calls = []
    real = getattr(module, certificate)
    monkeypatch.setattr(module, certificate, lambda g, a, b, z: calls.append((tuple(a), tuple(b), tuple(z))) or real(g, a, b, z))
    _, treat, outcome = DENSE_QUERIES[graph]
    argv = [command, "--graph", str(DATA / graph), "--treat", ",".join(treat), "--outcome", ",".join(outcome)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (DATA / graph).with_suffix(".answer").read_text()
    assert len(calls) == len(set(calls)) == distinct
