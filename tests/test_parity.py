"""tests/parity.py: two tiny runs of one tree match, and what ``differences``
names when files differ."""

import json
import shutil

import numpy as np
import pytest

import parity


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two tiny runs of this tree, in directories whose names have one length."""
    root = tmp_path_factory.mktemp("parity")
    for name in ("change", "parent"):
        parity.tiny_run(parity.TREE, root / name)
    return root


def edited(runs, tmp_path, name, edit):
    """A copy of the change run with ``edit`` applied to its file ``name``."""
    copy = shutil.copytree(runs / "change", tmp_path / "change")
    edit(copy / name)
    return copy


def test_two_tiny_runs_of_one_tree_match(runs):
    assert parity.differences(runs / "parent", runs / "change") == []


def test_a_moved_array_is_named_with_its_largest_difference(runs, tmp_path):
    def move(path):
        with np.load(path) as data:
            arrays = dict(data)
        arrays["param::blk0.ff.w2"] = arrays["param::blk0.ff.w2"].astype(np.float64) + 1e-9
        np.savez(path, **arrays)

    copy = edited(runs, tmp_path, "run/finetune.npz", move)
    assert parity.differences(runs / "parent", copy) == [
        "run/finetune.npz: largest difference 1e-09 in param::blk0.ff.w2"]


def edit_manifest(change):
    def edit(path):
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest, indent=1))
    return edit


def _move_phase_timings(m):
    timings = [k for k in m["metrics"] if k.endswith("_s")]
    assert timings
    for key in timings:
        m["metrics"][key] += 1


@pytest.mark.parametrize("move", [
    lambda m: m.update(created_unix=m["created_unix"] + 1),
    lambda m: m.update(elapsed_sec=m["elapsed_sec"] + 1),
    _move_phase_timings], ids=["created_unix", "elapsed_sec", "phase_timings"])
def test_manifest_timings_compare_equal(runs, tmp_path, move):
    copy = edited(runs, tmp_path, "run/manifest.evaluate.test.json", edit_manifest(move))
    assert parity.differences(runs / "parent", copy) == []


def test_a_moved_metric_is_named(runs, tmp_path):
    def move_mrr(m):
        m["metrics"]["mrr"] += 1e-12

    name = "run/manifest.evaluate.test.json"
    copy = edited(runs, tmp_path, name, edit_manifest(move_mrr))
    assert parity.differences(runs / "parent", copy) == [name]


def test_non_empty_work_exits_2(tmp_path, capsys):
    (tmp_path / "left over").write_text("")
    assert parity.main(["HEAD", str(tmp_path)]) == 2
    assert "not an empty directory" in capsys.readouterr().err
