"""Closed-loop benchmark of the pagid CLI and verification pipeline.

One client, one process, one thread: each op starts when the previous one has
returned.  Ops run in-process through ``pagid.cli.main(argv)`` (stdout
captured) or ``pagid.verify.run_verification``, over the corpus that
``workloads.py`` builds, in an order drawn from the seed, in whole passes until
at least ``--seconds`` have elapsed.  Answers are checked after timing
(``checks.py``).

    python3 bench/run.py --workload small|cap12|verify --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` re-runs the corpus
with spans around the layer calls (``tracing.py``) and prints the per-layer
metrics.  The last stdout line is the JSON result; the lines before it are a
readable report.  Metric definitions are in ``BENCHMARK.json`` and
``bench/design.json``.
"""

from __future__ import annotations

import os
import sys

# Set before the interpreter starts, so the script re-executes itself with
# them before importing anything large (ru_maxrss survives exec): hash order
# decides set iteration in the program, so it must match across runs for
# counts to repeat, and BLAS stays on one thread.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
TAIL_BEYOND = 10

# The host is shared: the same work runs up to 1.9x slower for seconds at a
# time, which moved every timing metric by 20-35% between runs.  A fixed piece
# of reference work is timed between ops, and each time is scaled by the
# host's speed at that moment: (REFERENCE_S / the reference's current time)
# ** SPEED_EXPONENT, where REFERENCE_S is its time on an idle 2-core x86 host
# of the same kind.  Program ops slow down less than tight reference loops:
# over 340 paired samples, log op time against log reference time had a
# slope of 0.70-0.75 for three different reference loops.
REFERENCE_S = 0.00055
SPEED_EXPONENT = 0.7
SPEED_EVERY_S = 0.1


def _reference_work() -> int:
    table: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
    return len(table)


class HostSpeed:
    """The host's speed relative to idle, re-measured at most every 0.1 s."""

    def __init__(self):
        self.factor = 1.0
        self.samples: list[float] = []
        self._at = float("-inf")

    def measure(self) -> float:
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            _reference_work()
            best = min(best, time.perf_counter() - t0)
        self.factor = (REFERENCE_S / best) ** SPEED_EXPONENT
        self.samples.append(self.factor)
        self._at = time.perf_counter()
        return self.factor

    def current(self) -> float:
        return self.factor if time.perf_counter() - self._at < SPEED_EVERY_S else self.measure()

    def scale(self, seconds: float, before: float) -> float:
        """``seconds`` measured from a moment of speed ``before``, at idle speed."""
        return seconds * (before + self.current()) / 2


class BenchError(Exception):
    """The benchmark cannot run here; exits without a result line."""


def fresh_import():
    """Import ``pagid`` anew from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "pagid" or n.startswith("pagid.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    try:
        pagid = importlib.import_module("pagid")
        for sub in ("cli", "verify", "catalog"):
            importlib.import_module(f"pagid.{sub}")
    except ImportError as exc:
        raise BenchError(f"cannot import pagid from {SRC}: {exc}") from exc
    if not Path(pagid.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"pagid imported from {pagid.__file__}, not from {SRC}")
    return pagid


def discard(workdir: Path) -> None:
    """Remove a run's input files, and their parent once it is empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()


def execute(pagid, op):
    """Run one op; ``(exit code, output)``, or ``(None, error)`` if it raised."""
    try:
        if op.kind == "verify":
            return 0, pagid.verify.run_verification(seed=op.round_seed, runs=1, quiet=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = pagid.cli.main(list(op.argv))
        return code, out.getvalue()
    except SystemExit as exc:
        return exc.code, ""
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        return None, f"{type(exc).__name__}: {exc}"


def run_pass(pagid, ops, speed: HostSpeed, tracer=None) -> dict:
    """One pass over ``ops``: op times scaled to idle speed, raw op times,
    results and the pass's wall time."""
    times, raw, results = [], [], []
    started = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        before = speed.current()
        t0 = time.perf_counter()
        results.append(execute(pagid, op))
        raw.append(time.perf_counter() - t0)
        times.append(speed.scale(raw[-1], before))
    return {"times": times, "raw": raw, "results": results, "wall": time.perf_counter() - started}


def run_passes(pagid, ops, speed: HostSpeed, seconds: float) -> list[dict]:
    """Whole passes until at least ``seconds`` have elapsed."""
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(run_pass(pagid, ops, speed))
    return passes


def set_up(name: str, seed: int, workdir: Path, tracer=None):
    """Import, build the inputs and warm up; returns (pagid, corpus, order)."""
    pagid = fresh_import()
    if tracer is not None:
        tracer.install()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    corpus = workloads.BUILDERS[name](pagid, str(workdir))
    order = [corpus.ops[i] for i in np.random.default_rng([seed, 99]).permutation(len(corpus.ops))]
    # warm-up: the first op of each command, untimed
    seen = set()
    for op in corpus.ops:
        if op.kind not in seen:
            seen.add(op.kind)
            execute(pagid, op)
    if tracer is not None:
        tracer.uninstall()
    return pagid, corpus, order


def latency(passes: list[dict]) -> dict:
    """Latency metrics over the ops of a pass; an op's time is the median of
    its scaled times over the passes of the run."""
    n = len(passes[0]["times"])
    best = sorted(statistics.median(p["times"][i] for p in passes) for i in range(n))
    tail_index = max(n - TAIL_BEYOND - 1, 0)
    return {
        "ops_per_s": n / sum(best),
        "p50_ms": statistics.median(best) * 1e3,
        "tail_ms": best[tail_index] * 1e3,
        "tail_pct": 100.0 * (tail_index + 1) / n,
    }


def canonical(op, result):
    """Comparable form of an op result, for the repeat check across passes."""
    code, out = result
    if op.kind == "verify" and code is not None:
        return code, tuple((c.name, c.trials, c.violations) for c in out)
    if op.argv[-2:] == ("--format", "json") and code in (0, 2):
        envelope = json.loads(out)
        envelope.pop("timings")  # wall time of the query, differs every run
        return code, envelope
    return code, out


def check_answers(pagid, order, passes, seed) -> tuple[int, list[str]]:
    """Count failed op executions over all passes; list the reasons."""
    pinned = checks.load_pinned()
    bad: dict[int, str] = {}
    first = passes[0]["results"]
    numeric = stray = 0
    worst = 0.0
    for i, op in enumerate(order):
        problem = checks.op_problem(op, first[i], pinned)
        if problem is None and op.refs and first[i][0] == 0:
            try:
                expression = json.loads(first[i][1])["expression"]
                gap, extra = checks.numeric_gap(
                    pagid, op, expression, np.random.default_rng([seed, 7, i]))
                numeric, stray, worst = numeric + 1, stray + bool(extra), max(worst, gap)
                if gap > checks.TOL:
                    problem = f"answer misses P_x(y) by {gap:.2e}"
            except (ValueError, KeyError) as exc:
                problem = f"answer not checkable: {exc}"
        if problem is not None:
            bad[i] = problem
    print(f"checked: {sum(op.key in pinned for op in order)} of {len(order)} verdicts pinned; "
          f"{numeric} answers against oracle.truncated, worst gap {worst:.1e}, "
          f"{stray} with free variables outside x and y (value constant in them)")
    for p in passes:
        for i, (op, result) in enumerate(zip(order, p["results"])):
            if i not in bad and canonical(op, result) != canonical(op, first[i]):
                bad[i] = "output differs between passes"
    failed = len(bad) * len(passes)
    reasons = [f"{order[i].kind} {' '.join(order[i].argv) or order[i].round_seed}: {why}"
               for i, why in sorted(bad.items())]
    return failed, reasons


def environment() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "pagid").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def end_to_end(args, workdir: Path) -> tuple[dict, int, int, list[str]]:
    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        before = speed.measure()
        t0 = time.perf_counter()
        pagid, corpus, order = set_up(args.workload, args.seed, workdir)
        elapsed = time.perf_counter() - t0
        speed.measure()
        setups.append(speed.scale(elapsed, before))
    passes = run_passes(pagid, order, speed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, reasons = check_answers(pagid, order, passes, args.seed)
    lat = latency(passes)
    attempted = len(order) * len(passes)
    loop_s = sum(p["wall"] for p in passes)
    metrics = {
        "ops_per_s": (lat["ops_per_s"], "ops/s"),
        "op_p50_ms": (lat["p50_ms"], "ms"),
        "op_tail_ms": (lat["tail_ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"inputs: {json.dumps(corpus.sizes, sort_keys=True)}")
    print(f"timed: {len(passes)} passes x {len(order)} ops = {attempted} samples in {loop_s:.2f} s "
          f"({attempted / loop_s:.3f} ops/s unscaled over the whole loop); host speed "
          f"{statistics.median(speed.samples):.2f} of idle (median of {len(speed.samples)} samples)")
    notes = {
        "ops_per_s": f"{len(order)} ops over the sum of their times",
        "op_p50_ms": f"median of {len(order)} ops",
        "op_tail_ms": f"p{lat['tail_pct']:.1f}: {TAIL_BEYOND} of {len(order)} ops beyond it",
        "setup_s": f"median of {len(setups)} set-ups: import, inputs, warm-up",
        "peak_rss_mb": "ru_maxrss after the timed loop",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:12s} {value:12.4f} {unit:6s} {notes.get(name, '')}")
    print(f"  {'fail_ratio':12s} {failed / attempted:12.4f} {'ratio':6s} {failed} of {attempted} ops failed")
    return metrics, attempted, failed, reasons


def per_layer(args, workdir: Path) -> tuple[dict, int, int, list[str]]:
    tracer = tracing.Tracer()
    speed = HostSpeed()
    pagid, corpus, order = set_up(args.workload, args.seed, workdir, tracer)
    setup_agg = tracing.aggregate(tracer.take())
    # untraced and traced passes alternate, so that host drift hits both alike
    untraced, traced, aggs = [], [], []
    spans: list = []
    started = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - started < args.seconds:
        untraced.append(run_pass(pagid, order, speed))
        tracer.install()
        traced.append(run_pass(pagid, order, speed, tracer))
        tracer.uninstall()
        pass_spans = tracer.take()
        spans = spans or pass_spans
        aggs.append(tracing.aggregate(pass_spans))
    passes = untraced + traced
    failed, reasons = check_answers(pagid, order, passes, args.seed)

    for group in tracing.GROUPS:
        counts = {(a[group]["calls"], a[group]["yes"]) for a in aggs}
        if len(counts) > 1:
            reasons.append(f"{group}: calls differ between traced passes {sorted(counts)}")
    n = len(order)
    metrics = {}
    for group in tracing.GROUPS:
        calls = setup_agg[group]["calls"] + aggs[0][group]["calls"]
        yes = setup_agg[group]["yes"] + aggs[0][group]["yes"]
        metrics[f"{group}.calls"] = (calls, "count")
        metrics[f"{group}.self_ms"] = (setup_agg[group]["self_ms"] + aggs[0][group]["self_ms"], "ms")
        metrics[f"{group}.self_ms_per_op"] = (aggs[0][group]["self_ms"] / n, "ms")
        if group in tracing.PREDICATES:
            metrics[f"{group}.true_ratio"] = (yes / calls if calls else 0.0, "ratio")
    size = 0
    for op, (code, out) in zip(order, traced[0]["results"]):
        if op.kind in workloads.QUERY_COMMANDS and code == 0:
            size += checks.answer_size(json.loads(out)["expression"])
    metrics["exprs.answer_size"] = (size, "count")
    top = tracing.top_level_ms(spans)
    untraced_ms = sum(t * 1e3 - top.get(i, 0.0) for i, t in enumerate(traced[0]["raw"]))
    metrics["untraced_ms"] = (untraced_ms, "ms")
    metrics["untraced_ms_per_op"] = (untraced_ms / n, "ms")
    plain_rate = latency(untraced)["ops_per_s"]
    traced_rate = latency(traced)["ops_per_s"]
    metrics["trace.ops_per_s"] = (traced_rate, "ops/s")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "ops/s")
    metrics["trace.overhead"] = (plain_rate / traced_rate, "ratio")

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracing.write(str(trace_path), spans)
    print(f"inputs: {json.dumps(corpus.sizes, sort_keys=True)}")
    print(f"traced: set-up once, then {len(traced)} untraced and {len(traced)} traced passes of "
          f"{n} ops, alternating; calls and self_ms cover set-up plus the first traced pass; "
          f"spans in {trace_path}")
    print(f"tracing overhead: {plain_rate:.3f} ops/s untraced vs {traced_rate:.3f} ops/s traced "
          f"({plain_rate / traced_rate:.3f}x)")
    return metrics, len(order) * len(passes), failed, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("small", "cap12", "verify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if not (SRC / "pagid" / "__init__.py").is_file():
            raise BenchError(f"no pagid sources under {SRC}")
        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in environment().items()))
        run = per_layer if args.trace else end_to_end
        metrics, attempted, failed, reasons = run(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        discard(workdir)
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    result = {
        "correct": not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
