"""Reference graph-file reader, kept for the tests after the library stopped
using it.

:func:`parse_graph` reads a file in two passes: every ``edge:`` line into a
marked-edge tuple by :func:`pagid.graphs.parse_edge`, then the whole list
into the kind's constructor, which fills and checks the mask table.
:func:`pagid.cli.parse_graph` (:func:`pagid.graphs.read_graph`) reads each
edge line into its token and fills the table by the tokens, without the
marks in between; the differential tests hold its graphs and its error
texts against this one's.
"""

from __future__ import annotations

from pagid.cli import ParseError
from pagid.graphs import LatentDag, Mag, Pag, parse_edge


def parse_graph(text: str):
    """Parse a graph file; returns (kind, graph) with kind in pag|dag|mag.

    Each edge line is read by :func:`pagid.graphs.parse_edge`; its errors get
    the line number in front.  Only what a file adds is checked here: the
    header, the line syntax and edge lines naming a node missing from
    ``nodes:``; the graph's constructor decides the rest."""
    kind = None
    nodes: list[str] | None = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if kind is None:
            if line not in ("pag", "dag", "mag"):
                raise ParseError(f"line {lineno}: header must be pag, dag or mag")
            kind = line
        elif line.startswith("nodes:"):
            if nodes is not None:
                raise ParseError(f"line {lineno}: duplicate nodes line")
            nodes = line[len("nodes:"):].split()
        elif line.startswith("edge:"):
            try:
                edges.append(parse_edge(kind, line[len("edge:"):]))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
        else:
            raise ParseError(f"line {lineno}: expected 'nodes:' or 'edge:'")
    if kind is None:
        raise ParseError("empty graph file")

    seen = list(dict.fromkeys(v for edge in edges for v in edge[:2]))
    order = nodes if nodes is not None else seen
    for v in seen:
        if v not in order:
            raise ParseError(f"edge references node {v!r} missing from nodes line")

    try:
        if kind == "dag":
            return kind, LatentDag.from_edges(tuple(order), edges)
        if kind == "mag":
            return kind, Mag(tuple(order), edges)
        return kind, Pag(tuple(order), edges, check_visibility=True)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
