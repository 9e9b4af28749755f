"""Regenerate ``pinned.json``: the verdict of every op of every workload.

Run this only at the commit whose verdicts are the reference; the benchmark
then counts any op whose verdict differs as failed.  Ops that fail on their
own (raise, exit 1, report violations) are not pinned and stop the script.

    python3 bench/pin.py
"""

from __future__ import annotations

import json
import os
import sys

import checks
import run
import workloads


def main() -> int:
    if any(os.environ.get(k) != v for k, v in run.PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **run.PINNED_ENV})
    verdicts: dict[str, str] = {}
    workdir = run.WORK / f"pin-{os.getpid()}"
    try:
        for name in workloads.BUILDERS:
            pagid, corpus, _ = run.set_up(name, 0, workdir)
            for op in corpus.ops:
                result = run.execute(pagid, op)
                problem = checks.op_problem(op, result, {})
                if problem is not None:
                    print(f"{name} {' '.join(op.argv) or op.round_seed}: {problem}", file=sys.stderr)
                    return 1
                verdicts[op.key] = checks.verdict_digest(checks.verdict(op, *result))
            print(f"{name}: {len(corpus.ops)} ops pinned", flush=True)
    finally:
        run.discard(workdir)
    with open(checks.PINNED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"source": run.environment(), "verdicts": dict(sorted(verdicts.items()))},
                  handle, indent=0)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
