"""Artifact writes are atomic: a writer that fails midway leaves the previous
file byte for byte and no temporary file behind."""

import json
import os

import numpy as np
import pytest

import kglp
from kglp.cli import write_manifest
from kglp.evaluate import RankingReport
from kglp.files import atomic_write


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
    manifest_args = dict(command="evaluate", config_snapshot={}, inputs={},
                         outputs={report_path.name: report_path}, metrics={},
                         seed=0, elapsed=1.0)
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

