import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_cli
from conftest import wide_latent_dag
from pagid import catalog, cli, ident_pag
from reference_paths import is_circle_circle, is_visible
from pagid.catalog import (
    beyond_adjustment_pag,
    confounded_chain_dag,
    confounded_chain_pag,
    two_treatment_pag,
)
from pagid.cli import ParseError, main, parse_graph, serialize_graph
from pagid.graphs import (
    EDGE_TOKENS,
    LatentDag,
    Mag,
    Pag,
    adjacency_masks,
    flag_masks,
    mag_of_dag,
    mark_masks,
)


DATA = Path(__file__).parent / "data"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def save(tmp_path, name, kind, graph):
    return write(tmp_path, name, serialize_graph(kind, graph))


class TestParsing:
    def test_circle_edge(self):
        kind, g = parse_graph("pag\nedge: V3 o-o V4\n")
        assert kind == "pag" and is_circle_circle(g, "V3", "V4")

    def test_visible_directed_edge_parses(self):
        text = "pag\nedge: V1 o-> X\nedge: X --> V3 visible\n"
        _, g = parse_graph(text)
        assert is_visible(g, "X", "V3")

    def test_roundtrip_is_byte_identical(self, tmp_path):
        for kind, graph in (
            ("pag", confounded_chain_pag()),
            ("pag", two_treatment_pag()),
            ("pag", beyond_adjustment_pag()),
            ("dag", confounded_chain_dag()),
        ):
            text = serialize_graph(kind, graph)
            kind2, parsed = parse_graph(text)
            assert kind2 == kind
            assert serialize_graph(kind2, parsed) == text

    def test_line_numbered_errors(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("pag\nedge: A o-o B\nedge: A ?? B\n")

    def test_visibility_flag_cross_checked(self):
        with pytest.raises(ParseError, match="visibility"):
            parse_graph("pag\nedge: A --> B visible\n")

    def test_dag_tokens_enforced(self):
        with pytest.raises(ParseError, match="dag-only"):
            parse_graph("pag\nedge: A -> B\n")
        with pytest.raises(ParseError, match="not allowed in dag"):
            parse_graph("dag\nedge: A o-> B\n")

    def test_comments_and_nodes_line(self):
        text = "# effect query fixture\npag\nnodes: B A\nedge: A o-o B  # tie\n"
        _, g = parse_graph(text)
        assert g.nodes == ("B", "A")

    def test_lowercase_collision_rejected(self):
        with pytest.raises(ParseError, match="collide"):
            parse_graph("pag\nedge: A o-o a\n")


_BUILDERS = {"pag": Pag, "mag": Mag, "dag": LatentDag}
_SPECS = [
    *(f"A {tok} B{tag}" for tok in [*sorted(EDGE_TOKENS), "??"] for tag in ("", " visible")),
    "A -->",
    "A --> B visible visible",
]


class TestOneEdgeGrammar:
    """A graph file and ``from_specs`` read an edge spec by the same rules."""

    @pytest.mark.parametrize("spec", _SPECS)
    @pytest.mark.parametrize("kind", sorted(_BUILDERS))
    def test_file_and_from_specs_agree(self, kind, spec):
        try:
            _BUILDERS[kind].from_specs(["A", "B"], [spec])
            library_error = None
        except ValueError as exc:
            library_error = str(exc)
        try:
            parse_graph(f"{kind}\nedge: {spec}\n")
            file_error = None
        except ParseError as exc:
            file_error = str(exc).removeprefix("line 2: ")
        assert file_error == library_error


class TestCommands:
    def test_idp_text_output(self, tmp_path, capsys):
        path = save(tmp_path, "twin.pag", "pag", two_treatment_pag())
        code = main(["idp", "--graph", path, "--treat", "X1,X2", "--outcome", "Y1,Y2,Y3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "P(y1,y2|x1) * P(y3|x2)"

    def test_idp_failure_exit_code_and_certificate(self, tmp_path, capsys):
        path = write(tmp_path, "oo.pag", "pag\nedge: X o-o Y\n")
        code = main(["idp", "--graph", path, "--treat", "X", "--outcome", "Y"])
        assert code == 2
        out = capsys.readouterr().out
        assert "FAIL" in out and "Q[X,Y]" in out

    def test_idp_json_envelope(self, tmp_path, capsys):
        path = save(tmp_path, "twin.pag", "pag", two_treatment_pag())
        code = main([
            "idp", "--graph", path, "--treat", "X1,X2",
            "--outcome", "Y1,Y2,Y3", "--format", "json",
        ])
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert set(envelope) == {"verdict", "expression", "timings"}
        assert envelope["verdict"] == "identifiable"
        assert envelope["expression"]["kind"] == "product"

    def test_id_dag_command(self, tmp_path, capsys):
        path = save(tmp_path, "chain.dag", "dag", confounded_chain_dag())
        code = main(["id-dag", "--graph", path, "--treat", "X", "--outcome", "V4"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "P(v4|x)"

    def test_latex_format(self, tmp_path, capsys):
        path = save(tmp_path, "chain.dag", "dag", confounded_chain_dag())
        code = main([
            "id-dag", "--graph", path, "--treat", "X",
            "--outcome", "V4", "--format", "latex",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == r"P(v_{4} \mid x)"

    def test_gac_fail_on_ring(self, tmp_path, capsys):
        path = save(tmp_path, "ring.pag", "pag", beyond_adjustment_pag())
        code = main(["gac", "--graph", path, "--treat", "X", "--outcome", "Y"])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_gac_success_prints_set_and_formula(self, tmp_path, capsys):
        path = save(tmp_path, "chain.pag", "pag", confounded_chain_pag())
        code = main(["gac", "--graph", path, "--treat", "X", "--outcome", "V4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "adjustment set: {V1,V2}" in out
        assert "sum_{v1,v2}" in out

    def test_pto_output(self, tmp_path, capsys):
        pag = confounded_chain_pag()
        path = save(tmp_path, "chain.pag", "pag", pag)
        code = main(["pto", "--graph", path])
        assert code == 0
        assert capsys.readouterr().out.strip() == "V1 < V2 < X < {V3,V4}"

    def test_pto_singleton_buckets(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "sub.pag",
            "pag\nnodes: V1 V2 X V4\nedge: V1 o-> X\nedge: V2 o-> X\n"
            "edge: X --> V4 visible\n",
        )
        code = main(["pto", "--graph", path])
        assert code == 0
        assert capsys.readouterr().out.strip() == "V1 < V2 < X < V4"

    def test_components_output(self, tmp_path, capsys):
        path = save(tmp_path, "twin.pag", "pag", two_treatment_pag())
        code = main(["components", "--graph", path])
        assert code == 0
        assert capsys.readouterr().out.strip() == "{V1,V2,X1,X2,Y1,Y2,Y3}"

    def test_components_on_dag_files(self, tmp_path, capsys):
        path = save(tmp_path, "chain.dag", "dag", confounded_chain_dag())
        code = main(["components", "--graph", path])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["{V1}", "{V2,X}", "{V3,V4}"]

    def test_pag_of_dag_roundtrip(self, tmp_path, capsys):
        path = save(tmp_path, "chain.dag", "dag", confounded_chain_dag())
        code = main(["pag-of-dag", "--graph", path])
        assert code == 0
        out = capsys.readouterr().out
        assert out == serialize_graph("pag", confounded_chain_pag())

    def test_pag_of_dag_at_twelve_nodes(self, capsys):
        # V1..V10 -> V11 and an isolated V12: 10 MAG edges, a class of 1,024
        code = main(["pag-of-dag", "--graph", str(DATA / "collider_star12.dag")])
        assert code == 0
        assert capsys.readouterr().out == (DATA / "collider_star12.pag").read_text()

    def test_pag_of_dag_at_the_class_guard(self, capsys):
        # a 10-edge MAG, one edge induced, whose PAG has visible and
        # invisible directed edges, a bidirected one, o-> and o-o; the
        # checked-in PAG is the output of the product-loop enumeration
        code = main(["pag-of-dag", "--graph", str(DATA / "induced_mag10.dag")])
        assert code == 0
        assert capsys.readouterr().out == (DATA / "induced_mag10.pag").read_text()

    @pytest.mark.parametrize("name", ["induced_mag10", "collider_star12"])
    @pytest.mark.parametrize("command", ["pto", "components"])
    def test_checked_in_order_and_components(self, capsys, name, command):
        # induced_mag10.pag has the o-o bucket {V3,V7}, visible and
        # invisible directed edges and a bidirected one; collider_star12.pag
        # has 12 nodes, ten o-> edges and an isolated node
        code = main([command, "--graph", str(DATA / f"{name}.pag")])
        assert code == 0
        assert capsys.readouterr().out == (DATA / f"{name}.{command}").read_text()

    def test_usage_error_exit_code(self, tmp_path, capsys):
        path = save(tmp_path, "twin.pag", "pag", two_treatment_pag())
        code = main(["idp", "--graph", path, "--treat", "X1", "--outcome", "X1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["idp", "gac"])
    @pytest.mark.parametrize("treat,outcome", [("Q", "Y1"), ("X1", "Q")])
    def test_unknown_query_node_is_a_usage_error(self, tmp_path, capsys, command, treat, outcome):
        path = save(tmp_path, "twin.pag", "pag", two_treatment_pag())
        code = main([command, "--graph", path, "--treat", treat, "--outcome", outcome])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: treatment/outcome outside the observed graph nodes\n"

    @pytest.mark.parametrize(
        "command", [["components"], ["idp", "--treat", "A", "--outcome", "C"], ["gac", "--treat", "A", "--outcome", "C"]]
    )
    def test_tail_facing_a_circle_is_refused(self, tmp_path, capsys, command):
        path = write(tmp_path, "tail.pag", "pag\nnodes: A B C\nedge: A --o B\nedge: B --> C\n")
        code = main([command[0], "--graph", path, *command[1:]])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tail facing a circle in edge 'A' --o 'B'\n"

    @pytest.mark.parametrize(
        "exc",
        [
            RuntimeError("simplification did not reach a fixed point"),
            KeyError("missing table"),
            RecursionError("maximum recursion depth exceeded"),
        ],
    )
    def test_internal_errors_exit_as_messages(self, tmp_path, capsys, monkeypatch, exc):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(ident_pag, "idp", broken)
        path = save(tmp_path, "twin.pag", "pag", two_treatment_pag())
        code = main(["idp", "--graph", path, "--treat", "X1", "--outcome", "Y1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(exc) in captured.err
        assert "Traceback" not in captured.err

    def test_missing_file(self, capsys):
        code = main(["pto", "--graph", "/nonexistent.pag"])
        assert code == 1

    def test_verify_smoke(self, capsys):
        code = main(["verify", "--seed", "5", "--runs", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "projection roundtrip" in out and "FAIL" not in out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tol", "nan", "tolerance must be a finite number >= 0, not nan"),
            ("--tol", "inf", "tolerance must be a finite number >= 0, not inf"),
            ("--tol", "-0.5", "tolerance must be a finite number >= 0, not -0.5"),
            ("--runs", "-1", "number of runs must be >= 0, not -1"),
        ],
    )
    def test_verify_rejects_bad_tolerance_and_runs(self, capsys, flag, value, message):
        # a NaN tolerance made every numeric trial a violation (exit 2)
        code = main(["verify", "--seed", "5", "--runs", "1", flag, value])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["-1e-9", "-1.5E+3", "-.5e1"])
    def test_verify_reads_a_negative_exponent_tolerance_as_a_value(self, capsys, value):
        # argparse's own negative-number pattern took "-1e-9" for an option
        code = main(["verify", "--seed", "5", "--runs", "1", "--tol", value])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: tolerance must be a finite number >= 0, not {float(value)!r}\n"
        )

    def test_verify_accepts_zero_runs_and_tolerance(self, capsys):
        assert main(["verify", "--runs", "0", "--tol", "0"]) == 0
        assert "violations" in capsys.readouterr().out


def _without_timings(out: str) -> str:
    lines = []
    for line in out.splitlines():
        if line.startswith("{\""):
            envelope = json.loads(line)
            envelope.pop("timings")
            line = json.dumps(envelope, sort_keys=True)
        lines.append(line)
    return "\n".join(lines)


class TestSharedParser:
    """The parser is built once per process; calls must not see each other."""

    def test_calls_are_independent_of_earlier_calls(self, tmp_path, capsys):
        pag = save(tmp_path, "chain.pag", "pag", confounded_chain_pag())
        ring = save(tmp_path, "ring.pag", "pag", beyond_adjustment_pag())
        dag = save(tmp_path, "chain.dag", "dag", confounded_chain_dag())
        query = ["--treat", "X", "--outcome", "V4"]
        calls = [
            ["idp", "--graph", pag, *query],
            ["idp", "--graph", pag, *query, "--format", "json"],
            ["id-dag", "--graph", dag, *query, "--format", "latex"],
            ["gac", "--graph", pag, *query, "--format", "json"],
            ["gac", "--graph", ring, "--treat", "X", "--outcome", "Y"],
            ["pto", "--graph", pag],
            ["components", "--graph", pag],
            ["components", "--graph", dag],
            ["pag-of-dag", "--graph", dag],
            ["verify", "--seed", "3", "--runs", "2"],
        ]

        def run_all():
            results = []
            for argv in calls:
                code = main(argv)
                results.append((code, _without_timings(capsys.readouterr().out)))
            return results

        first = run_all()
        assert {code for code, _ in first} == {0, 2}
        with pytest.raises(SystemExit) as usage:
            main(["idp", "--graph", pag, "--treat", "X"])
        assert usage.value.code == 1
        with pytest.raises(SystemExit) as shown:
            main(["gac", "--help"])
        assert shown.value.code == 0
        assert "--outcome" in capsys.readouterr().out
        assert run_all() == first


_TIMINGS = re.compile(r'"timings": \{"seconds": [0-9.e-]+\}, ')


class TestGacOutputBytes:
    """Exact `pagid gac` output in every format, timings removed."""

    CASES = {
        ("chain", "X", "V4"): (0, {
            "text": "adjustment set: {V1,V2}\nsum_{v1,v2} [P(v1,v2) * P(v4|v1,v2,x)]\n",
            "latex": (
                "adjustment set: {V1,V2}\n"
                "\\sum_{v_{1},v_{2}} P(v_{1},v_{2}) \\cdot P(v_{4} \\mid v_{1},v_{2},x)\n"
            ),
            "json": (
                '{"adjustment_set": ["V1", "V2"], "expression": {"body": {"factors": '
                '[{"do": [], "given": [], "kind": "dist", "target": ["v1", "v2"]}, '
                '{"do": [], "given": ["v1", "v2", "x"], "kind": "conditional", '
                '"target": ["v4"]}], "kind": "product"}, "kind": "sum", '
                '"vars": ["v1", "v2"]}, "verdict": "identifiable"}\n'
            ),
        }),
        ("ring", "V1", "X"): (2, {
            "text": "FAIL: not amenable: possibly directed path V1 - X starts with an invisible edge\n",
            "latex": "FAIL: not amenable: possibly directed path V1 - X starts with an invisible edge\n",
            "json": (
                '{"verdict": "not identifiable", "witness": "not amenable: possibly '
                'directed path V1 - X starts with an invisible edge"}\n'
            ),
        }),
        ("ring", "X", "V1"): (2, {
            "text": "FAIL: no adjustment set: non-causal path X - V1 stays open\n",
            "latex": "FAIL: no adjustment set: non-causal path X - V1 stays open\n",
            "json": (
                '{"verdict": "not identifiable", "witness": "no adjustment set: '
                'non-causal path X - V1 stays open"}\n'
            ),
        }),
    }

    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    @pytest.mark.parametrize("case", list(CASES), ids="-".join)
    def test_exact_bytes(self, tmp_path, capsys, case, fmt):
        graphs = {"chain": confounded_chain_pag(), "ring": beyond_adjustment_pag()}
        name, treat, outcome = case
        path = save(tmp_path, f"{name}.pag", "pag", graphs[name])
        code = main(["gac", "--graph", path, "--treat", treat, "--outcome", outcome, "--format", fmt])
        out = capsys.readouterr().out
        if fmt == "json":
            assert len(_TIMINGS.findall(out)) == 1
            out = _TIMINGS.sub("", out)
        assert (code, out) == (self.CASES[case][0], self.CASES[case][1][fmt])


_NAMES = st.one_of(
    st.sampled_from(["A", "B", "C", "X", "Y", "a", "V1", "U1", "visible"]),
    st.text(alphabet="ABab1_:#-<>o", min_size=1, max_size=3),
)
_TOKENS = st.one_of(st.sampled_from(sorted(EDGE_TOKENS)), st.text(alphabet="-<>o", max_size=4))
_KIND_TOKENS = {
    "pag": ["-->", "<--", "<->", "o->", "<-o", "o-o", "o--", "--o"],
    "mag": ["-->", "<--", "<->"],
    "dag": ["->", "<-", "<->"],
}


def _edge_line(e):
    return f"edge: {e[0]} {e[1]} {e[2]}{e[3]}"


@st.composite
def _graph_texts(draw):
    """Either a well-formed-looking file of one kind or header, ``nodes:``
    and ``edge:`` lines, some malformed, mixed with arbitrary text."""
    if draw(st.booleans()):
        kind = draw(st.sampled_from(sorted(_KIND_TOKENS)))
        node_pairs = st.sampled_from(list(itertools.combinations("ABCDXY", 2)))
        pairs = draw(st.lists(node_pairs, max_size=7, unique=True))
        tokens = st.sampled_from(_KIND_TOKENS[kind])
        tags = st.sampled_from(["", "", "", " visible"] if kind == "pag" else [""])
        lines = [kind, *(_edge_line((a, draw(tokens), b, draw(tags))) for a, b in pairs)]
        if draw(st.booleans()):
            lines.insert(1, "nodes: " + " ".join(draw(st.permutations("ABCDXY"))))
        return "\n".join(lines)
    odd_edge = st.tuples(_NAMES, _TOKENS, _NAMES, st.sampled_from(["", " visible", " x"]))
    line = st.one_of(
        odd_edge.map(_edge_line),
        st.lists(_NAMES, max_size=6).map(lambda ns: "nodes: " + " ".join(ns)),
        st.sampled_from(["", "# note", "nodes:", "edge:", "pag"]),
        st.text(max_size=12),
    )
    header = draw(st.sampled_from(["pag", "dag", "mag", "  pag # kind", "", "graph"]))
    return "\n".join([header, *draw(st.lists(line, max_size=8))])


def _table(g):
    """What makes two read graphs the same: the kind, the node order and
    the mask table, and on a DAG the latent names and the arcs in order."""
    if isinstance(g, LatentDag):
        return type(g), g.observed, g.latent, g.edges(), adjacency_masks(g), mark_masks(g)
    return type(g), g.nodes, adjacency_masks(g), mark_masks(g), flag_masks(g)


def _read(parse, text):
    """``parse(text)`` as (kind, :func:`_table`), or ("error", its text)."""
    try:
        kind, g = parse(text)
    except ParseError as exc:
        return "error", str(exc)
    return kind, _table(g)


def _valid_files():
    """Graph files that parse: the catalog, the checked-in data, and seeded
    latent DAGs of 2 to 12 observed nodes written as dag files, with their
    MAGs as mag files and as pag files carrying the visible tags."""
    catalog_graphs = [
        make()
        for make in (
            catalog.confounded_chain_dag,
            catalog.confounded_chain_dag_alt,
            catalog.bow_dag,
            catalog.confounded_chain_pag,
            catalog.two_treatment_pag,
            catalog.beyond_adjustment_pag,
            catalog.circle_pair_pag,
        )
    ]
    texts = [serialize_graph("dag" if isinstance(g, LatentDag) else "pag", g) for g in catalog_graphs]
    texts += [path.read_text() for path in sorted(DATA.glob("*.pag")) + sorted(DATA.glob("*.dag"))]
    for seed in range(33):
        rng = np.random.default_rng([seed, 29])
        d = wide_latent_dag(rng, 2 + seed % 11, rng.uniform(0.1, 0.5))
        mag = mag_of_dag(d)
        texts += [serialize_graph("dag", d), serialize_graph("mag", mag), serialize_graph("pag", Pag(mag.nodes, mag.edges()))]
    return texts


def _nodes_line_last(text):
    lines = text.splitlines()
    nodes = [line for line in lines if line.startswith("nodes:")]
    return "\n".join([line for line in lines if not line.startswith("nodes:")] + nodes)


def _without_nodes_line(text):
    return "\n".join(line for line in text.splitlines() if not line.startswith("nodes:"))


class TestParseFuzz:
    """The token reader gives the reference reader's graph, or its exact
    error text, on fuzzed and on valid files.  On a 2-core x86 host, 300
    fuzzed texts through both readers take about 2.5 s, and the 112 valid
    files, three ways each (as written, with the ``nodes:`` line last and
    without it), about 0.1 s."""

    @settings(max_examples=300, deadline=None)
    @given(_graph_texts())
    def test_only_parse_errors_and_stable_roundtrip(self, text):
        try:
            kind, g = parse_graph(text)
        except ParseError:
            return
        first = serialize_graph(kind, g)
        kind2, g2 = parse_graph(first)
        assert kind2 == kind
        assert serialize_graph(kind2, g2) == first

    @settings(max_examples=300, deadline=None)
    @given(_graph_texts())
    def test_reader_matches_the_reference(self, text):
        assert _read(parse_graph, text) == _read(reference_cli.parse_graph, text)

    @pytest.mark.parametrize("move", [None, _nodes_line_last, _without_nodes_line], ids=["as-written", "nodes-last", "no-nodes"])
    def test_valid_files_match_the_reference(self, move):
        texts = _valid_files()
        assert len(texts) == 112
        for text in texts:
            if move is not None:
                text = move(text)
            got = _read(parse_graph, text)
            assert got == _read(reference_cli.parse_graph, text)
            assert got[0] != "error" or move is _without_nodes_line, text

    @pytest.mark.parametrize("sep", ["\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_line_breaks_are_those_of_splitlines(self, sep):
        text = sep.join(["pag", "nodes: A B C", "edge: A o-> B", "edge: C o-> B", "edge: A ?? C"])
        assert _read(parse_graph, text) == _read(reference_cli.parse_graph, text) == ("error", "line 5: unknown edge token '??'")


_TWELVE = " ".join(f"V{i}" for i in range(1, 13))


@pytest.mark.parametrize(
    "text, want",
    [
        ("pag\nedge: A o-o B\nedge: A o-o A\nedge: B ?? C\n", "line 4: unknown edge token '??'"),
        ("pag\nnodes: A B\nedge: A o-o A\nedge: A o-o C\nedge: a o-o B\n", "edge references node 'C' missing from nodes line"),
        ("pag\nedge: A o-o A\nedge: a o-o B\n", "node names 'A' and 'a' collide when lowercased"),
        (f"mag\nnodes: {_TWELVE} V13\nedge: V1 --> V2\nedge: V2 --> V1\n", "graph exceeds the 12-node cap"),
        ("mag\nedge: A --> B\nedge: B --> A\nedge: C --> C\n", "duplicate edge 'B'-'A'"),
        ("pag\nedge: A o-o B visible\nedge: B --> C visible\n", "visible flag on non-directed edge 'A'-'B'"),
        ("dag\nedge: A <-> A\nedge: B -> B\n", "bad edge 'U1'->'A'"),
        ("dag\nedge: B -> C\nedge: A <-> A\nedge: U1 -> B\n", "bad edge 'U1_'->'A'"),
        ("dag\nedge: A -> B\nedge: A <- B\n", "bad edge 'B'->'A'"),
        ("dag\nedge: A <-> B\nedge: B <-> A\n", "duplicate edge 'B'-'A'"),
        ("dag\nedge: A -> B\nedge: B -> C\nedge: C -> A\n", "cycle in DAG"),
        ("pag\nedge: A --o B\nedge: B --> C\n", "tail facing a circle in edge 'A' --o 'B'"),
        ("mag\nedge: A --> B\nedge: B --> C\nedge: A <-> C\n", "almost directed cycle at 'A'<->'C'"),
    ],
)
def test_reader_errors_come_in_the_reference_order(text, want):
    """Line errors first, then a node missing from the nodes line, the node
    rules, the first refused edge and the kind's checks."""
    assert _read(parse_graph, text) == _read(reference_cli.parse_graph, text) == ("error", want)


@pytest.mark.parametrize(
    "text, order",
    [
        ("pag\nedge: B o-> A\nedge: C <-> A\nnodes: A B C\n", ("A", "B", "C")),
        ("dag\nedge: B -> A\nedge: C <-> A\nedge: C <-> B\nnodes: U1 A B C\n", ("U1", "A", "B", "C", "U1_", "U2")),
    ],
)
def test_a_late_nodes_line_fixes_the_order(text, order):
    assert _read(parse_graph, text) == _read(reference_cli.parse_graph, text)
    assert parse_graph(text)[1].nodes == order


_VALID_ARGV = [
    *([command, "--graph", graph, "--treat", "X", "--outcome", "V4", *fmt]
      for command, graph in (("idp", "chain.pag"), ("gac", "chain.pag"), ("id-dag", "chain.dag"))
      for fmt in ([], ["--format", "text"], ["--format", "latex"], ["--format", "json"])),
    ["pto", "--graph", "chain.pag"],
    ["components", "--graph", "chain.pag"],
    ["components", "--graph", "chain.dag"],
    ["pag-of-dag", "--graph", "chain.dag"],
    ["verify", "--seed", "3", "--runs", "0", "--tol", "0"],
]

_USAGE_ARGV = {
    "no-args": [],
    "help": ["-h"],
    "unknown-command": ["frob", "--graph", "chain.pag"],
    "idp-without-outcome": ["idp", "--graph", "chain.pag", "--treat", "X"],
    "unknown-option": ["components", "--graph", "chain.pag", "--bogus", "1"],
    "abbreviated-option": ["components", "--gra", "chain.pag"],
    "negative-exponent": ["verify", "--tol", "-1e-9"],
    "leading-dashes": ["--", "idp", "--graph", "chain.pag", "--treat", "X", "--outcome", "V4"],
    "gac-help": ["gac", "--help"],
}


class TestArgvRouting:
    """Argv that names a command is parsed once, by that command's parser,
    and every other argv by the top-level one, with the same outcome."""

    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        save(tmp_path, "chain.pag", "pag", confounded_chain_pag())
        save(tmp_path, "chain.dag", "dag", confounded_chain_dag())
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("argv", _VALID_ARGV, ids=" ".join)
    def test_queries_skip_the_top_level_parser(self, files, capsys, monkeypatch, argv):
        want = cli._PARSER.parse_args(argv)
        assert cli._parse_args(argv) == want
        calls = []
        monkeypatch.setattr(cli._PARSER, "parse_args", lambda *args: calls.append(args))
        assert main(argv) in (0, 2)
        assert "error" not in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("argv", list(_USAGE_ARGV.values()), ids=list(_USAGE_ARGV))
    def test_usage_outcomes_match_the_top_level_parser(self, files, capsys, monkeypatch, argv):
        def outcome():
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            return code, out, err

        routed = outcome()
        monkeypatch.setattr(cli, "_parse_args", cli._PARSER.parse_args)
        assert routed == outcome()

    def test_no_argv_reads_sys_argv(self, files, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["pagid", "components", "--graph", "chain.dag"])
        assert main() == 0
        assert capsys.readouterr().out.splitlines() == ["{V1}", "{V2,X}", "{V3,V4}"]
        monkeypatch.setattr("sys.argv", ["pagid"])
        with pytest.raises(SystemExit) as usage:
            main()
        assert usage.value.code == 1
        assert capsys.readouterr().err.startswith("error: ")
