"""Queries free their garbage by reference counting alone.

A reference cycle (say, a recursive nested closure holding itself through its
cell) keeps the graph, its caches and every intermediate path alive until the
cyclic collector happens to run, which raises peak memory of a long-running
process.  Each call here runs once to warm up, then once more with the
collector off; nothing may be left for ``gc.collect()`` to find.
"""

import contextlib
import gc
import io

import pytest

from pagid import adjustment, catalog, ident_dag, ident_pag
from pagid.cli import main, parse_graph, serialize_graph


def _circle_clique(kind: str, n: int = 9):
    # the densest ladder graph: every pair joined, o-o in the PAG, -> in the DAG
    nodes = [f"V{i + 1}" for i in range(n)]
    token = "o-o" if kind == "pag" else "->"
    edges = "".join(
        f"edge: {a} {token} {b}\n" for i, a in enumerate(nodes) for b in nodes[i + 1:]
    )
    return parse_graph(f"{kind}\nnodes: {' '.join(nodes)}\n{edges}")[1]


PAG_QUERIES = [
    (catalog.two_treatment_pag(), ("X1", "X2"), ("Y1", "Y2", "Y3")),
    (catalog.confounded_chain_pag(), ("X",), ("V1", "V2", "V3", "V4")),
    (catalog.beyond_adjustment_pag(), ("X",), ("Y",)),
    (catalog.circle_pair_pag(), ("X",), ("Y",)),
    (_circle_clique("pag"), ("V1",), ("V9",)),
]
DAG_QUERIES = [
    (catalog.confounded_chain_dag(), ("X",), ("V3", "V4")),
    (catalog.confounded_chain_dag_alt(), ("X",), ("V1", "V2", "V3", "V4")),
    (catalog.bow_dag(), ("X",), ("Y",)),
    (_circle_clique("dag"), ("V1",), ("V9",)),
]


def assert_no_cyclic_garbage(call) -> None:
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_library_queries_leave_no_cycles():
    for pag, xs, ys in PAG_QUERIES:
        assert_no_cyclic_garbage(lambda: ident_pag.idp(xs, ys, pag))
        assert_no_cyclic_garbage(lambda: adjustment.gac(pag, xs, ys))
    for dag, xs, ys in DAG_QUERIES:
        assert_no_cyclic_garbage(lambda: ident_dag.id_dag(xs, ys, dag))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_queries_leave_no_cycles(tmp_path, fmt):
    runs = []
    for i, (pag, xs, ys) in enumerate(PAG_QUERIES):
        path = tmp_path / f"g{i}.pag"
        path.write_text(serialize_graph("pag", pag))
        query = ["--treat", ",".join(xs), "--outcome", ",".join(ys), "--format", fmt]
        runs += [
            ["idp", "--graph", str(path), *query],
            ["gac", "--graph", str(path), *query],
            ["components", "--graph", str(path)],
            ["pto", "--graph", str(path)],
        ]
    for i, (dag, xs, ys) in enumerate(DAG_QUERIES):
        path = tmp_path / f"g{i}.dag"
        path.write_text(serialize_graph("dag", dag))
        query = ["--treat", ",".join(xs), "--outcome", ",".join(ys), "--format", fmt]
        runs += [
            ["id-dag", "--graph", str(path), *query],
            ["components", "--graph", str(path)],
        ]
    for argv in runs:
        out = io.StringIO()

        def call():
            out.seek(0)
            with contextlib.redirect_stdout(out):
                assert main(argv) in (0, 2)

        assert_no_cyclic_garbage(call)
