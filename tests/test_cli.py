import itertools
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pagid import ident_pag
from reference_paths import is_circle_circle, is_visible
from pagid.catalog import (
    beyond_adjustment_pag,
    confounded_chain_dag,
    confounded_chain_pag,
    two_treatment_pag,
)
from pagid.cli import ParseError, main, parse_graph, serialize_graph
from pagid.graphs import EDGE_TOKENS, LatentDag, Mag, Pag


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


class TestParseFuzz:
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
