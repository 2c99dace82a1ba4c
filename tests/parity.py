"""Run the tiny pipeline in this tree and in a git revision, and compare.

    python tests/parity.py BASE WORK

BASE is a git revision of the repository that holds this file; WORK is a
directory that is new or empty. BASE is exported with ``git archive`` beside
this tree, under a name of the same length, and removed at the end. Each tree
runs from its own ``src/`` and ``tests/util.py`` with one BLAS thread: it
generates the 30-pair graph of ``make_pair_dataset``, writes ``tiny.cfg`` and
runs ingest, pretrain, finetune (seven steps at batch 16), ``evaluate --split
test`` and the ``predict -k 1000`` listing, plain and ``--filtered``. This
tree writes to ``WORK/change`` and BASE to ``WORK/parent``, two names of one
length, as the two trees' are.

Ten files are compared byte for byte, and the four manifests without the
fields that differ between two runs of one tree: the timestamp, wall times,
evaluate's phase timings and the dataset directory. Each file that differs is
named; an ``.npz`` with the array of the largest absolute difference.

Exit status: 0 when everything matches, 1 when something differs, and 2 when
WORK is not empty, the export fails or a pipeline command fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

TREE = Path(__file__).resolve().parent.parent

FILES = ("run/vocab.txt", "run/catalog.json", "run/pretrain.npz", "run/pretrain_log.jsonl",
         "run/finetune.npz", "run/finetune_log.jsonl", "run/entity_table.npz",
         "run/report_test.json", "all.txt", "filtered.txt")
MANIFESTS = ("run/manifest.ingest.json", "run/manifest.pretrain.json",
             "run/manifest.finetune.json", "run/manifest.evaluate.test.json")
TINY_CFG = ("encoder.hidden_size = 32", "encoder.num_layers = 1", "encoder.ff_size = 48",
            "encoder.max_len = 32", "pretrain.max_len = 32", "pretrain.epochs = 1",
            "finetune.epochs = 1", "finetune.pair_max_len = 32",
            "finetune.entity_max_len = 16", "finetune.batch_size = 16")


class Refused(Exception):
    """A step that stops the comparison with exit status 2."""


def tiny_run(tree, work) -> None:
    """Run the tiny pipeline from ``tree``'s ``src/`` and ``tests/`` into ``work``."""
    tree, work = Path(tree).resolve(), Path(work).resolve()
    src = tree / "src"
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{tree / 'tests'}",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def python(step, *args, stdout=None):
        if subprocess.run([sys.executable, *args], env=env, stdout=stdout).returncode:
            raise Refused(f"{tree}: {step} failed")

    print(f"parity: tiny run of {tree} into {work}", flush=True)
    python("import kglp", "-c", "import sys, kglp; "
           "assert kglp.__file__.startswith(sys.argv[1]), kglp.__file__", str(src))
    work.mkdir(parents=True, exist_ok=True)
    python("make_pair_dataset", "-c", "import sys; from util import make_pair_dataset; "
           "make_pair_dataset(sys.argv[1], n_pairs=30, seed=4)", str(work / "data"))
    (work / "tiny.cfg").write_text("".join(line + "\n" for line in TINY_CFG))
    run = ("--out", str(work / "run"), "--config", str(work / "tiny.cfg"))
    for args in (("ingest", str(work / "data")), ("pretrain",), ("finetune",),
                 ("evaluate", "--split", "test")):
        python(f"kglp {args[0]}", "-m", "kglp.cli", *args, *run)
    for listing, flags in (("all.txt", ()), ("filtered.txt", ("--filtered",))):
        with open(work / listing, "wb") as fh:
            python(" ".join(("kglp predict", *flags)), "-m", "kglp.cli", "predict",
                   "--head", "a001", "--relation", "linksto", "-k", "1000", *flags, *run,
                   stdout=fh)


def _stable(path: Path) -> dict:
    """A manifest without the fields that differ between two runs of one tree."""
    m = json.loads(path.read_text(encoding="utf-8"))
    del m["created_unix"], m["elapsed_sec"], m["config"]["dataset"]["dir"]
    m["outputs"].pop("dataset.json", None)
    m["metrics"] = {k: v for k, v in m["metrics"].items() if not k.endswith("_s")}
    return m


def _largest_difference(a: Path, b: Path) -> str:
    """Where two ``.npz`` files differ: the array of the largest absolute
    difference, or the arrays that differ in names, shapes or text."""
    with np.load(a) as x, np.load(b) as y:
        if x.files != y.files:
            return f"arrays {x.files} vs {y.files}"
        worst, where, other = 0.0, None, []
        for key in x.files:
            u, v = x[key], y[key]
            if u.shape != v.shape or not {u.dtype.kind, v.dtype.kind} <= set("biuf"):
                if u.shape != v.shape or not np.array_equal(u, v):
                    other.append(key)
                continue
            u, v = u.astype(np.float64), v.astype(np.float64)
            # NaN against NaN is no difference, NaN against a number an infinite one
            diff = np.where(np.isnan(u) & np.isnan(v), 0.0, np.abs(u - v))
            d = float(np.nan_to_num(diff, nan=np.inf).max(initial=0.0))
            if d > worst:
                worst, where = d, key
    parts = [f"largest difference {worst:.3g} in {where}"] if where else []
    parts += [f"{key} differs" for key in other]
    return "; ".join(parts) or "equal arrays in other bytes"


def differences(parent, change) -> list[str]:
    """One line for each compared file that differs between two tiny runs."""
    found = []
    for name in FILES + MANIFESTS:
        a, b = Path(parent) / name, Path(change) / name
        missing = [side for side, p in (("parent", a), ("change", b)) if not p.is_file()]
        if missing:
            found.append(f"{name}: missing in {' and '.join(missing)}")
        elif name in MANIFESTS:
            if _stable(a) != _stable(b):
                found.append(name)
        elif a.read_bytes() != b.read_bytes():
            found.append(f"{name}: {_largest_difference(a, b)}" if name.endswith(".npz")
                         else name)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the tiny pipeline in this tree and in BASE, and compare.")
    parser.add_argument("base", help="git revision to compare with")
    parser.add_argument("work", help="new or empty directory for the two runs")
    args = parser.parse_args(argv)
    work = Path(args.work)
    if work.exists() and (not work.is_dir() or any(work.iterdir())):
        print(f"parity: {work} exists and is not an empty directory", file=sys.stderr)
        return 2
    name = "x" * len(TREE.name)
    export = TREE.with_name(name if name != TREE.name else "y" * len(name))
    if export.exists():
        print(f"parity: {export}, where {args.base} would be exported, exists",
              file=sys.stderr)
        return 2
    export.mkdir()
    try:
        archive = subprocess.run(["git", "archive", args.base], cwd=TREE,
                                 capture_output=True)
        if archive.returncode or subprocess.run(["tar", "-x", "-C", str(export)],
                                                input=archive.stdout).returncode:
            raise Refused(f"git archive {args.base}: {archive.stderr.decode().strip()}")
        tiny_run(TREE, work / "change")
        tiny_run(export, work / "parent")
    except Refused as exc:
        print(f"parity: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(export, ignore_errors=True)
    found = differences(work / "parent", work / "change")
    for line in found:
        print(f"differs from {args.base}: {line}")
    if found:
        print(f"parity: {len(found)} of {len(FILES) + len(MANIFESTS)} compared files "
              f"differ from {args.base}'s")
        return 1
    print(f"parity: all {len(FILES)} files and {len(MANIFESTS)} manifests match "
          f"{args.base}'s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
