"""Spans around calls into the ``pagid`` layers, recorded from outside.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``pagid`` module namespace that binds it (``ident_pag.pc_component``
as well as ``structure.pc_component``), and ``uninstall`` puts the originals
back.  A span holds its group, op id, parent span and start/end times; spans
stay in memory until the run writes them out.  Self time is a span's time
minus the time of its direct children.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

# metric group -> (defining module, functions)
GROUPS = {
    "cli.parse_graph": ("cli", ("parse_graph",)),
    "graphs.induced_subgraph": ("graphs", ("induced_subgraph",)),
    "graphs.ancestry": ("graphs", ("possible_ancestors", "possible_descendants", "ancestors_in")),
    "graphs.validate": ("graphs", ("find_closure_violation", "mag_violation")),
    "graphs.mag_of_dag": ("graphs", ("mag_of_dag",)),
    "structure.visible_edges": ("structure", ("visible_edges",)),
    "structure.pc_component": ("structure", ("pc_component",)),
    "structure.cpc_components": ("structure", ("cpc_components",)),
    "structure.pto": ("structure", ("pto",)),
    "separation.definitely_m_separated": ("separation", ("definitely_m_separated",)),
    "separation.d_separated": ("separation", ("d_separated",)),
    "separation.m_separated": ("separation", ("m_separated",)),
    "exprs.simplify": ("exprs", ("simplify",)),
    "exprs.conditional_of": ("exprs", ("conditional_of",)),
    "exprs.drop_certified_givens": ("exprs", ("drop_certified_givens",)),
    "exprs.join_certified_marginals": ("exprs", ("join_certified_marginals",)),
    "exprs.evaluate_table": ("exprs", ("evaluate_table",)),
    "ident_pag.idp": ("ident_pag", ("idp",)),
    "ident_pag.bucket_identifiable": ("ident_pag", ("bucket_identifiable",)),
    "ident_pag.q_reduce_bucket": ("ident_pag", ("q_reduce_bucket",)),
    "ident_dag.id_dag": ("ident_dag", ("id_dag",)),
    "ident_dag.q_reduce": ("ident_dag", ("q_reduce",)),
    "adjustment.gac": ("adjustment", ("gac",)),
    "adjustment.forbidden_set": ("adjustment", ("forbidden_set",)),
    "oracle.equivalence_class": ("oracle", ("equivalence_class",)),
    "oracle.pag_of_class": ("oracle", ("pag_of_class",)),
    "oracle.random_scm": ("oracle", ("random_scm",)),
    "oracle.joint": ("oracle", ("joint",)),
    "oracle.truncated": ("oracle", ("truncated",)),
    "verify.interventional_gap": ("verify", ("interventional_gap",)),
    "verify.expression_gap": ("verify", ("expression_gap",)),
    "verify.run_verification": ("verify", ("run_verification",)),
}

# groups whose answer is a yes/no: how to read "yes" off the return value
PREDICATES = {
    "separation.definitely_m_separated": bool,
    "separation.d_separated": bool,
    "ident_pag.bucket_identifiable": lambda result: bool(result[0]),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (group, op, parent index, start, end, verdict)
        self.op = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, group: str, fn):
        spans, stack, predicate = self.spans, self._stack, PREDICATES.get(group)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            verdict = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if predicate is not None:
                    verdict = predicate(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (group, self.op, parent, start, end, verdict)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "pagid" or name.startswith("pagid.")]
        for group, (home, names) in GROUPS.items():
            for name in names:
                original = getattr(sys.modules[f"pagid.{home}"], name)
                wrapper = self._wrap(group, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def aggregate(spans: list) -> dict[str, dict]:
    """Per group: calls, self time in ms and the count of "yes" answers."""
    child_time = [0.0] * len(spans)
    for group, op, parent, start, end, verdict in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {g: {"calls": 0, "self_ms": 0.0, "yes": 0} for g in GROUPS}
    for i, (group, op, parent, start, end, verdict) in enumerate(spans):
        entry = out[group]
        entry["calls"] += 1
        entry["self_ms"] += (end - start - child_time[i]) * 1e3
        entry["yes"] += bool(verdict)
    return out


def top_level_ms(spans: list) -> dict:
    """Time of top-level spans per op id, in ms."""
    out: dict = {}
    for group, op, parent, start, end, verdict in spans:
        if parent < 0:
            out[op] = out.get(op, 0.0) + (end - start) * 1e3
    return out


def write(path: str, spans: list) -> None:
    """Spans as gzipped JSON lines: group, op, parent, start_s, end_s, verdict."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        for row in spans:
            handle.write(json.dumps(row) + "\n")
