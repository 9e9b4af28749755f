"""Benchmark inputs: one corpus of operations per workload.

An operation is either one ``pagid`` CLI query (argv for ``pagid.cli.main``,
reading a graph file written here) or one verification round.  The program
under test sees only the files and arguments built here.

The graphs come from the fixed ``CORPUS_SEED``; the run's ``--seed`` orders
the ops of a pass (``run.py``) and draws the models of the numeric check
(``checks.py``).  Query cost at these sizes is heavy tailed and chaotic in
the input: with fresh random graphs per seed, five seeds of ``cap12`` spread
by 29% in ops/s, 20% in median and 59% in tail latency (interquartile range
over median); even renaming the nodes of one fixed graph set by a seeded
permutation left 21%, 9% and 23%, because node order steers the searches'
early exits and the bucket tie-breaks.  No regression bound of 25% or less
holds over that, so the content is fixed and the seed varies the rest.

Each query op keeps the latent DAGs its numeric check evaluates against.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass

import numpy as np

CORPUS_SEED = 0
QUERY_COMMANDS = ("idp", "gac", "id-dag")

# Density ladder of synthetic families for ``cap12``.  Each command runs on
# every size up to the largest one whose op finished within 0.25 s on a 2-core
# x86 box at the seed commit, so that a pass stays near 3 s; larger sizes are
# the known gap listed in ``design.json``.  ``id-dag`` on the complete
# bidirected family stops at 5 nodes because 6 nodes need 15 latents, past
# the 12-latent cap.
LADDER_SIZES = range(4, 13)
LADDER_LIMITS = {
    "complete_bidirected": {"idp": 8, "gac": 8, "components": 8, "id-dag": 5},
    "bidirected_chain": {"idp": 12, "gac": 12, "components": 12, "id-dag": 12},
    "bidirected_cycle": {"idp": 12, "gac": 12, "components": 12, "id-dag": 12},
    "circle_clique": {"idp": 12, "gac": 9, "components": 12, "id-dag": 12},
}

SMALL_GRAPHS = 24
SMALL_MAX_MAG_EDGES = 7  # class enumeration is 3**edges candidates, paid in set-up
CAP12_GRAPHS_PER_SIZE = 6
CAP12_SIZES = (9, 10, 11, 12)
CAP12_LATENTS = (2, 4)  # latents plus 12 observed stay within the 2**20 joint guard
CAP12_EDGE_PROB = (0.12, 0.22)  # sparse to moderate; the ladder covers dense graphs
VERIFY_ROUNDS = range(126, 166)


@dataclass
class Op:
    kind: str
    argv: tuple[str, ...] = ()
    round_seed: int | None = None
    treat: tuple[str, ...] = ()
    outcome: tuple[str, ...] = ()
    refs: tuple = ()
    key: str = ""


@dataclass
class Corpus:
    ops: list[Op]
    sizes: dict


def _key(*parts: str) -> str:
    return hashlib.sha1("\x1f".join(parts).encode()).hexdigest()[:16]


class _Writer:
    """Writes graphs under ``workdir`` and builds the ops that read them."""

    def __init__(self, pagid, workdir: str):
        self.pagid = pagid
        self.workdir = workdir
        self.ops: list[Op] = []
        self.graphs: list[dict] = []

    def graph(self, kind: str, g, *refs):
        """Write ``g``; returns a handle for :meth:`query` and :meth:`plain`.

        ``refs`` are the latent DAGs the numeric check evaluates answers on.
        """
        text = self.pagid.cli.serialize_graph(kind, g)
        path = os.path.join(self.workdir, f"g{len(self.graphs) + 1}.{kind}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        if kind == "dag":
            # directed edges between observed nodes plus one arc per latent
            size = len(g.observed), len(g.edges()) - len(g.latent)
        else:
            size = len(g.nodes), len(g.edges())
        self.graphs.append({"kind": kind, "nodes": size[0], "edges": size[1]})
        return path, text, refs

    def query(self, cmd, handle, treat, outcome):
        path, text, refs = handle
        xs, ys = tuple(sorted(treat)), tuple(sorted(outcome))
        argv = (cmd, "--graph", path, "--treat", ",".join(xs), "--outcome", ",".join(ys),
                "--format", "json")
        self.ops.append(Op(cmd, argv, treat=xs, outcome=ys, refs=refs,
                           key=_key(cmd, text, *xs, "|", *ys)))

    def plain(self, cmd, handle):
        path, text, _ = handle
        self.ops.append(Op(cmd, (cmd, "--graph", path), key=_key(cmd, text)))

    def corpus(self) -> Corpus:
        by_cmd: dict[str, int] = {}
        for op in self.ops:
            by_cmd[op.kind] = by_cmd.get(op.kind, 0) + 1
        sizes = {
            "ops_per_pass": len(self.ops),
            "ops_per_command": by_cmd,
            "graphs": len(self.graphs),
            "nodes_min_max": _span(g["nodes"] for g in self.graphs),
            "edges_min_max": _span(g["edges"] for g in self.graphs),
        }
        return Corpus(self.ops, sizes)


def _span(values) -> list[int]:
    values = list(values)
    return [min(values), max(values)]


def _query_pair(rng, nodes) -> tuple[tuple[str, ...], tuple[str, ...]]:
    perm = [nodes[i] for i in rng.permutation(len(nodes))]
    n_x = int(rng.integers(1, 3))
    n_y = int(rng.integers(1, 3))
    return tuple(perm[:n_x]), tuple(perm[n_x:n_x + n_y])


def _tail_completion_dag(pagid, pag):
    """Canonical DAG of the MAG that turns every circle of ``pag`` into a tail."""
    g = pagid.graphs
    edges = [
        (a, b, g.TAIL if ma is g.CIRCLE else ma, g.TAIL if mb is g.CIRCLE else mb, False)
        for a, b, ma, mb, _ in pag.edges()
    ]
    return pagid.oracle.canonical_dag_of_mag(g.Mag(pag.nodes, edges))


def _catalog(w: _Writer, pagid) -> None:
    """The worked examples with their acceptance queries."""
    cat = pagid.catalog
    twin, chain, ring = cat.two_treatment_pag(), cat.confounded_chain_pag(), cat.beyond_adjustment_pag()
    chain_dags = (cat.confounded_chain_dag(), cat.confounded_chain_dag_alt())
    cases = [
        (twin, ("X1", "X2"), ("Y1", "Y2", "Y3"), (_tail_completion_dag(pagid, twin),)),
        (chain, ("X",), ("V1", "V2", "V3", "V4"), chain_dags),
        (ring, ("X",), ("Y",), (_tail_completion_dag(pagid, ring),)),
        (cat.circle_pair_pag(), ("X",), ("Y",), ()),
    ]
    for pag, xs, ys, refs in cases:
        handle = w.graph("pag", pag, *refs)
        w.query("idp", handle, xs, ys)
        w.query("gac", handle, xs, ys)
        w.plain("components", handle)
        w.plain("pto", handle)
    for dag, xs, ys in (
        (chain_dags[0], ("X",), ("V3", "V4")),
        (chain_dags[1], ("X",), ("V1", "V2", "V3", "V4")),
        (cat.bow_dag(), ("X",), ("Y",)),
    ):
        w.query("id-dag", w.graph("dag", dag, dag), xs, ys)


def small(pagid, workdir: str) -> Corpus:
    """Catalog worked examples plus 4-6 node PAGs with circle buckets."""
    w = _Writer(pagid, workdir)
    _catalog(w, pagid)
    rng = np.random.default_rng([CORPUS_SEED, 1])
    made = 0
    while made < SMALL_GRAPHS:
        d = pagid.oracle.random_latent_dag(
            rng, int(rng.integers(4, 7)), int(rng.integers(1, 4)), float(rng.uniform(0.3, 0.6))
        )
        if len(pagid.graphs.mag_of_dag(d).edges()) > SMALL_MAX_MAG_EDGES:
            continue
        members, pag = pagid.oracle.class_of_dag(d)
        has_circle = any(pagid.graphs.CIRCLE in (ma, mb) for _, _, ma, mb, _ in pag.edges())
        if not has_circle or max(len(b) for b in pagid.structure.buckets(pag)) < 2:
            continue
        class_dags = [pagid.oracle.canonical_dag_of_mag(m) for m in members]
        xs, ys = _query_pair(rng, list(pag.nodes))
        handle = w.graph("pag", pag, *class_dags)
        w.query("idp", handle, xs, ys)
        w.query("gac", handle, xs, ys)
        w.plain("components", handle)
        w.plain("pto", handle)
        w.query("id-dag", w.graph("dag", class_dags[0], class_dags[0]), xs, ys)
        made += 1
    return w.corpus()


def _random_latent_dag(pagid, rng, n_obs: int, n_latent: int, edge_prob: float):
    """Random DAG over a random node order, with ``n_latent`` confounded pairs."""
    observed = tuple(f"V{i + 1}" for i in range(n_obs))
    order = [observed[i] for i in rng.permutation(n_obs)]
    edges = [
        (order[i], order[j])
        for i in range(n_obs)
        for j in range(i + 1, n_obs)
        if rng.random() < edge_prob
    ]
    pairs = list(itertools.combinations(observed, 2))
    latent = []
    for k, pick in enumerate(sorted(int(i) for i in rng.choice(len(pairs), n_latent, replace=False))):
        name = f"L{k + 1}"
        latent.append(name)
        edges += [(name, pairs[pick][0]), (name, pairs[pick][1])]
    return pagid.graphs.LatentDag(observed, tuple(latent), edges)


def _mag_as_pag(pagid, mag):
    """A circle-free MAG with graphically computed visibility, as a PAG."""
    visible = pagid.structure.graphical_visible_edges(mag)
    edges = [
        (a, b, ma, mb, (a, b) in visible or (b, a) in visible)
        for a, b, ma, mb, _ in mag.edges()
    ]
    return pagid.graphs.Pag(mag.nodes, edges)


def _ladder_graph(pagid, family: str, n: int, kind: str):
    nodes = [f"V{i + 1}" for i in range(n)]
    if family == "bidirected_chain":
        pairs = list(zip(nodes, nodes[1:]))
    elif family == "bidirected_cycle":
        pairs = list(zip(nodes, nodes[1:] + nodes[:1]))
    else:
        pairs = list(itertools.combinations(nodes, 2))
    if kind == "pag":
        token = "o-o" if family == "circle_clique" else "<->"
    else:
        token = "->" if family == "circle_clique" else "<->"
    text = f"{kind}\nnodes: {' '.join(nodes)}\n" + "".join(f"edge: {a} {token} {b}\n" for a, b in pairs)
    return pagid.cli.parse_graph(text)[1]


def cap12(pagid, workdir: str) -> Corpus:
    """9-12 node circle-free PAGs with their latent DAGs, plus the density ladder."""
    w = _Writer(pagid, workdir)
    rng = np.random.default_rng([CORPUS_SEED, 12])
    for n in CAP12_SIZES:
        for _ in range(CAP12_GRAPHS_PER_SIZE):
            d = _random_latent_dag(
                pagid, rng, n, int(rng.integers(CAP12_LATENTS[0], CAP12_LATENTS[1] + 1)),
                float(rng.uniform(*CAP12_EDGE_PROB)),
            )
            xs, ys = _query_pair(rng, list(d.observed))
            handle = w.graph("pag", _mag_as_pag(pagid, pagid.graphs.mag_of_dag(d)), d)
            w.query("idp", handle, xs, ys)
            w.query("gac", handle, xs, ys)
            w.plain("components", handle)
            w.query("id-dag", w.graph("dag", d, d), xs, ys)
    for family, limits in LADDER_LIMITS.items():
        for n in LADDER_SIZES:
            xs, ys = ("V1",), (f"V{n}",)
            handle = w.graph("pag", _ladder_graph(pagid, family, n, "pag"))
            for cmd in ("idp", "gac"):
                if n <= limits[cmd]:
                    w.query(cmd, handle, xs, ys)
            if n <= limits["components"]:
                w.plain("components", handle)
            if n <= limits["id-dag"]:
                w.query("id-dag", w.graph("dag", _ladder_graph(pagid, family, n, "dag")), xs, ys)
    return w.corpus()


def verify(pagid, workdir: str) -> Corpus:
    """Verification rounds ``run_verification(seed=r, runs=1, quiet=True)``.

    The round seeds are fixed: a round draws its own graph from its seed, and
    round cost runs from 1 ms to 10 s with the graph, so windows of rounds
    starting at different seeds spread by 40-60% in ops/s and latency.  The
    window 126-165 is the 40-round window with the least total time among
    round seeds 0-299 at the seed commit: about 3.5 s per pass, so that a
    run repeats each round several times, with rounds from 1 ms to 0.8 s
    (seeds 0-299 average 0.2 s per round and reach 10 s).  The run's
    ``--seed`` sets only the order of the rounds in a pass.
    """
    ops = [Op("verify", round_seed=r, key=_key("verify", str(r))) for r in VERIFY_ROUNDS]
    return Corpus(ops, {"ops_per_pass": len(ops), "ops_per_command": {"verify": len(ops)},
                        "round_seeds_first_last": [VERIFY_ROUNDS[0], VERIFY_ROUNDS[-1]]})


BUILDERS = {"small": small, "cap12": cap12, "verify": verify}
