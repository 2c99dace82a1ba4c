"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload umls-train --seed 1 --seconds 20 --trace 0

Run from the repository root: the benchmark imports ``kglp`` from ``src/``.
With ``--trace 0`` it prints every end-to-end metric, with ``--trace 1`` every
per-layer metric, each by name with its unit. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record (environment, data shape, stage timings, losses) is written to
``perfbench/out/``, with the spans of a traced run next to it.

BLAS is pinned to one thread before numpy loads, so that step times do not
depend on how a thread pool shares the cores; the record states the count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def git_sha(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_library() -> dict:
    """numpy's BLAS build record; unknown where ``show_config`` cannot return
    it (numpy before 1.26 has no ``mode="dicts"``)."""
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def environment(workload: str, seed: int, traced: bool) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_library(),
        "blas_threads": {v: os.environ.get(v) for v in _THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
        "workload": workload,
        "seed": seed,
        "traced": traced,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench.workloads import WORKLOADS, run, run_traced
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    plan = WORKLOADS.get(args.workload)
    if plan is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    traced = bool(args.trace)
    env = environment(args.workload, args.seed, traced)
    outcome = (run_traced if traced else run)(plan, args.seed, args.seconds)
    correct = outcome.failed == 0

    print(f"# workload {args.workload}")
    print("# environment " + json.dumps(env))
    if "data_shape" in outcome.record:
        print("# data shape " + json.dumps(outcome.record["data_shape"]))
    for name, (value, unit) in {**outcome.metrics, **outcome.record.get("ungated", {})}.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    share = outcome.failed / outcome.attempted
    print(f"{'failed_op_share':34s} {share:14.6g} ratio ({outcome.failed}/{outcome.attempted})")
    for note in outcome.notes:
        print("# check failed: " + note)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "failed_op_share": share,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
              "notes": outcome.notes, **outcome.record}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if outcome.tracer is not None:
        outcome.tracer.dump(stem.with_suffix(".spans.jsonl"))

    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": record["metrics"]}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
