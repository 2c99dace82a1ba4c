"""Artifact writes are atomic: a writer that fails midway leaves the previous
file byte for byte and no temporary file behind."""

import builtins
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import kglp
from kglp.cli import main, write_manifest
from kglp.config import RunConfig
from kglp.evaluate import RankingReport
from kglp.files import atomic_write

from util import make_pair_dataset


def partial_savez(file, *args, **kwargs):
    file.write(b"PK\x03\x04 half an archive")
    raise OSError("disk full")


def partial_json_dump(obj, fh, **kwargs):
    fh.write('{"half": ')
    raise OSError("disk full")


def assert_untouched(path, old: bytes, listing):
    assert path.read_bytes() == old
    assert sorted(os.listdir(path.parent)) == listing


def test_atomic_write_replaces_on_success_only(tmp_path):
    path = tmp_path / "artifact.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write(b"new, but not all of it")
            raise RuntimeError("crash")
    assert_untouched(path, b"old", ["artifact.bin"])
    with atomic_write(path, text=True) as fh:
        fh.write("new")
    assert_untouched(path, b"new", ["artifact.bin"])


def test_failed_checkpoint_save_keeps_old_file(tmp_path, monkeypatch):
    enc = kglp.Encoder(kglp.EncoderConfig(vocab_size=20, hidden_size=8, num_layers=1,
                                          num_heads=2, ff_size=8, max_len=8))
    path = tmp_path / "model.npz"
    kglp.save_checkpoint(enc, path)
    old = path.read_bytes()
    enc.params["tok_emb"] += 1.0
    monkeypatch.setattr(np, "savez", partial_savez)
    with pytest.raises(OSError, match="disk full"):
        kglp.save_checkpoint(enc, path)
    assert_untouched(path, old, ["model.npz"])


def test_failed_report_and_manifest_writes_keep_old_files(tmp_path, monkeypatch):
    report_path = tmp_path / "report_test.json"
    report = RankingReport("test", 2, 0.5, 0.5, 1.0, 2.0, 0.75)
    report.save(report_path)
    manifest_args = dict(rc=RunConfig(), inputs={},
                         outputs={report_path.name: report_path}, metrics={},
                         started=time.time())
    manifest_path = write_manifest(tmp_path, "evaluate.test", **manifest_args)
    old_report, old_manifest = report_path.read_bytes(), manifest_path.read_bytes()
    listing = sorted(os.listdir(tmp_path))
    monkeypatch.setattr(json, "dump", partial_json_dump)
    with pytest.raises(OSError, match="disk full"):
        RankingReport("test", 2, 1.0, 1.0, 1.0, 1.0, 1.0).save(report_path)
    with pytest.raises(OSError, match="disk full"):
        write_manifest(tmp_path, "evaluate.test", **manifest_args)
    assert_untouched(report_path, old_report, listing)
    assert_untouched(manifest_path, old_manifest, listing)



class HalfWriter:
    """A file whose ``fail_at``-th write (the second by default) stores half its
    data, then fails."""

    def __init__(self, fh, fail_at: int = 2):
        self._fh = fh
        self._writes = 0
        self._fail_at = fail_at

    def write(self, data):
        self._writes += 1
        if self._writes == self._fail_at:
            self._fh.write(data[:len(data) // 2])
            raise OSError("disk full")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize("artifact", ["catalog.json", "vocab.txt", "stats.json",
                                      "dataset.json"])
def test_failed_reingest_keeps_old_artifact(tmp_path, monkeypatch, artifact):
    out = tmp_path / "run"
    old_data = make_pair_dataset(tmp_path / "old", n_pairs=12, seed=1)
    new_data = make_pair_dataset(tmp_path / "new", n_pairs=20, seed=2)
    assert main(["ingest", str(old_data), "--out", str(out)]) == 0
    old = (out / artifact).read_bytes()
    listing = sorted(os.listdir(out))
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        name = Path(file).name
        writing = "w" in mode and (name == artifact or name.startswith(f".{artifact}."))
        return HalfWriter(fh) if writing else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    assert main(["ingest", str(new_data), "--out", str(out), "--force"]) == 1
    monkeypatch.undo()
    assert_untouched(out / artifact, old, listing)


@pytest.mark.parametrize("artifact", ["train.tsv", "test.tsv", "entity2text.tsv",
                                      "relation2text.tsv"])
def test_failed_resplit_keeps_old_dataset(tmp_path, monkeypatch, artifact):
    out = tmp_path / "resplit"
    data = make_pair_dataset(tmp_path / "data", n_pairs=30, seed=1)
    assert main(["resplit-unseen", str(data), "--out", str(out), "--seed", "1"]) == 0
    old = {name: (out / name).read_bytes() for name in os.listdir(out)}
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        name = Path(file).name
        writing = "w" in mode and (name == artifact or name.startswith(f".{artifact}."))
        return HalfWriter(fh, fail_at=1) if writing else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    assert main(["resplit-unseen", str(data), "--out", str(out), "--seed", "2",
                 "--force"]) == 1
    monkeypatch.undo()
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == old
