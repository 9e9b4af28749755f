"""Graph file format and command-line interface.

File format: a header line (``pag``, ``dag`` or ``mag``), an optional
``nodes:`` line fixing the node order, and one ``edge:`` line per edge,
read by :func:`.graphs.parse_edge` under the rules of the header's kind:
tokens ``-->  <--  <->  o->  <-o  o-o  o--  --o`` (only ``->``, ``<-`` and
``<->`` in dag files, no circles in mag files).  A trailing ``visible`` tag
is accepted on directed pag edges and cross-checked against the graphical
condition.  ``#`` starts a comment.

The argument parser is built once, at import.  ``main(argv)`` only parses
``argv`` against it and keeps no other state, so it is safe to call
repeatedly in one process: each call prints and returns exactly what a fresh
``pagid`` run would.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from . import adjustment, ident_dag, ident_pag
from .exprs import render_latex, render_text, to_json_dict
from .graphs import TOKEN_OF_MARKS, LatentDag, Mag, Pag, parse_edge
from .ident_dag import c_components
from .oracle import class_of_dag
from .structure import cpc_components, pto
from .verify import run_verification

class ParseError(ValueError):
    pass


def parse_graph(text: str):
    """Parse a graph file; returns (kind, graph) with kind in pag|dag|mag.

    Each edge line is read by :func:`.graphs.parse_edge`; its errors get the
    line number in front.  Only what a file adds is checked here: the header,
    the line syntax and edge lines naming a node missing from ``nodes:``;
    the graph's constructor decides the rest."""
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


def serialize_graph(kind: str, g) -> str:
    """Canonical text rendering; parse -> serialize is byte-stable."""
    lines = [kind]
    if kind == "dag":
        lines.append("nodes: " + " ".join(g.observed))
        index = g._index  # observed nodes come first, in their own order
        directed = [e for e in g.edges() if e[0] in g.observed]
        for arcs, token in ((directed, "->"), (map(g.children, g.latent), "<->")):
            lines += [f"edge: {a} {token} {b}" for a, b in sorted(arcs, key=lambda e: (index[e[0]], index[e[1]]))]
    else:
        lines.append("nodes: " + " ".join(g.nodes))
        for a, b, ma, mb, vis in g.edges():
            token = TOKEN_OF_MARKS[(ma, mb)]
            suffix = " visible" if vis else ""
            lines.append(f"edge: {a} {token} {b}{suffix}")
    return "\n".join(lines) + "\n"


def _load(path: str, want: tuple[str, ...]):
    with open(path, encoding="utf-8") as handle:
        kind, g = parse_graph(handle.read())
    if kind not in want:
        raise ParseError(f"{path}: expected a {' or '.join(want)} file, got {kind}")
    return kind, g


def _split_nodes(arg: str) -> tuple[str, ...]:
    items = tuple(v for v in arg.replace(",", " ").split() if v)
    if not items:
        raise ParseError("empty node list")
    return items


def _emit_query_result(result, fail_type, fmt: str, started: float, adjustment_set=None) -> int:
    failed = isinstance(result, fail_type)
    if fmt == "json":
        envelope = {
            "verdict": "not identifiable" if failed else "identifiable",
            "timings": {"seconds": round(time.perf_counter() - started, 6)},
        }
        if failed:
            envelope["witness"] = result.describe()
        else:
            envelope["expression"] = to_json_dict(result)
            if adjustment_set is not None:
                envelope["adjustment_set"] = list(adjustment_set)
        print(json.dumps(envelope, sort_keys=True))
    elif failed:
        print(f"FAIL: {result.describe()}")
    else:
        if adjustment_set is not None:
            print("adjustment set: {" + ",".join(adjustment_set) + "}")
        print(render_latex(result) if fmt == "latex" else render_text(result))
    return 2 if failed else 0


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent form, so "--tol -1e-9" would
        # read "-1e-9" as an option instead of a value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # usage problems exit 1; exit 2 is reserved for "not identifiable"
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pagid",
        description="Causal effect identification from partial ancestral graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, kinds in (
        ("idp", "identify an effect from a PAG", ("pag",)),
        ("id-dag", "identify an effect from a latent DAG", ("dag",)),
        ("gac", "generalized adjustment criterion on a PAG", ("pag",)),
    ):
        q = sub.add_parser(name, help=help_)
        q.add_argument("--graph", required=True)
        q.add_argument("--treat", required=True)
        q.add_argument("--outcome", required=True)
        q.add_argument("--format", choices=("text", "latex", "json"), default="text")
        q.set_defaults(kinds=kinds)
    for name, help_ in (
        ("pto", "partial topological order of a PAG"),
        ("components", "component decomposition"),
        ("pag-of-dag", "brute-force the PAG of a DAG"),
    ):
        sub.add_parser(name, help=help_).add_argument("--graph", required=True)
    p_ver = sub.add_parser("verify", help="run the seeded verification pipeline")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--runs", type=int, default=200)
    p_ver.add_argument("--tol", type=float, default=1e-9)
    return parser


# built once at import; parse_args reads it and leaves it unchanged
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "idp":
            _, g = _load(args.graph, args.kinds)
            result = ident_pag.idp(_split_nodes(args.treat), _split_nodes(args.outcome), g)
            return _emit_query_result(result, ident_pag.Fail, args.format, started)
        if args.command == "id-dag":
            _, g = _load(args.graph, args.kinds)
            result = ident_dag.id_dag(_split_nodes(args.treat), _split_nodes(args.outcome), g)
            return _emit_query_result(result, ident_dag.Fail, args.format, started)
        if args.command == "gac":
            _, g = _load(args.graph, args.kinds)
            treat, outcome = _split_nodes(args.treat), _split_nodes(args.outcome)
            result = adjustment.gac(treat, outcome, g)
            if isinstance(result, adjustment.Fail):
                return _emit_query_result(result, adjustment.Fail, args.format, started)
            formula = adjustment.adjustment_formula(result, treat, outcome)
            return _emit_query_result(formula, adjustment.Fail, args.format, started, result)
        if args.command == "pto":
            _, g = _load(args.graph, ("pag",))
            order = pto(g)
            print(" < ".join(
                b[0] if len(b) == 1 else "{" + ",".join(b) + "}" for b in order.buckets
            ))
            return 0
        if args.command == "components":
            kind, g = _load(args.graph, ("pag", "mag", "dag"))
            comps = c_components(g) if kind == "dag" else cpc_components(g)
            for comp in comps:
                print("{" + ",".join(comp) + "}")
            return 0
        if args.command == "pag-of-dag":
            _, g = _load(args.graph, ("dag",))
            _, pag = class_of_dag(g)
            sys.stdout.write(serialize_graph("pag", pag))
            return 0
        if args.command == "verify":
            checks = run_verification(seed=args.seed, runs=args.runs, tol=args.tol)
            return 0 if all(c.violations == 0 for c in checks) else 2
    except (ParseError, ValueError, OSError, KeyError, RuntimeError) as exc:
        # RuntimeError covers RecursionError and the rewrite fixed-point limits
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
