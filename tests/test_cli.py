import json
import os
import re
import shutil
import sys
import types

import numpy as np
import pytest

import kglp
from kglp import cli
from kglp.cli import main
from kglp.config import (ConfigError, EncoderSettings, load_run_config,
                         normalize_dataset_name, parse_config_file)

from util import make_pair_dataset


SMALL = [
    "--set", "encoder.hidden_size=32", "--set", "encoder.num_layers=1",
    "--set", "encoder.ff_size=48", "--set", "encoder.max_len=32",
    "--set", "pretrain.max_len=32", "--set", "finetune.pair_max_len=32",
    "--set", "finetune.entity_max_len=16",
]


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    return make_pair_dataset(tmp_path_factory.mktemp("cli_ds"), n_pairs=30, seed=4)


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory, cli_dataset):
    """One shared tiny pipeline run: ingest + pretrain + finetune."""
    out = tmp_path_factory.mktemp("cli_run")
    assert main(["ingest", str(cli_dataset), "--out", str(out)]) == 0
    assert main(["pretrain", "--out", str(out), "--seed", "3",
                 "--set", "pretrain.epochs=2", "--set", "pretrain.batch_size=16",
                 *SMALL]) == 0
    assert main(["finetune", "--out", str(out), "--seed", "3",
                 "--set", "finetune.epochs=2", "--set", "finetune.batch_size=16",
                 *SMALL]) == 0
    return out


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nseed = 9\nfinetune.alpha = 0.5\n\n"
                   "encoder.hidden_size = 64\n")
    rc = load_run_config(cfg)
    assert rc.seed == 9
    assert rc.finetune.alpha == 0.5
    assert rc.encoder.hidden_size == 64
    assert rc.finetune.seed == 9  # seed flows into trainer configs


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("finetune.alhpa = 0.5\n")
    with pytest.raises(ConfigError, match="alhpa"):
        load_run_config(cfg)


def test_config_bad_line_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(cfg)


def test_config_out_of_range_rejected(cli_dataset, tmp_path, capsys):
    with pytest.raises(ConfigError, match="alpha"):
        load_run_config(None, {"finetune.alpha": "1.5"})
    for key, value in [("encoder.num_heads", "0"), ("encoder.hidden_size", "0"),
                       ("encoder.hidden_size", "30"), ("encoder.dropout", "1.0"),
                       ("finetune.gamma", "-1"), ("pretrain.log_every", "0"),
                       ("finetune.log_every", "0"), ("finetune.eval_every", "0"),
                       ("finetune.label_splits", "trian"),
                       ("pretrain.clip_norm", "-1"), ("finetune.clip_norm", "-0.5"),
                       ("pretrain.weight_decay", "-0.01"),
                       ("finetune.weight_decay", "-0.01"),
                       ("pretrain.lr_linear", "inf"), ("finetune.lr_attention", "inf"),
                       ("finetune.weight_decay", "inf"), ("finetune.gamma", "inf"),
                       ("pretrain.seed", "5"), ("finetune.seed", "5"),
                       ("dataset.dir", "/nonexistent/elsewhere")]:
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_run_config(None, {key: value})
        assert main(["ingest", str(cli_dataset), "--out", str(tmp_path),
                     "--set", f"{key}={value}"]) == 2
        assert key in capsys.readouterr().err


def test_dataset_profiles_applied():
    rc = load_run_config(None, {}, dataset_dir="/data/WN18RR")
    assert rc.dataset.name == "wn18rr"
    assert rc.finetune.batch_size == 64
    assert rc.finetune.epochs == 7
    rc = load_run_config(None, {}, dataset_dir="/data/FB15k-237")
    assert rc.finetune.batch_size == 120
    assert rc.finetune.alpha == 0.5
    rc = load_run_config(None, {}, dataset_dir="/data/umls")
    assert rc.finetune.batch_size == 128
    assert rc.finetune.epochs == 30
    assert rc.finetune.alpha == 0.8
    # overrides beat the profile
    rc = load_run_config(None, {"finetune.epochs": "3"}, dataset_dir="/data/umls")
    assert rc.finetune.epochs == 3
    assert normalize_dataset_name("FB15k-237") == "fb15k237"


def test_config_file_drives_cli_and_flags_override(cli_dataset, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\nvocab.min_freq = 2\nencoder.hidden_size = 32\n"
                   "encoder.num_layers = 1\nencoder.ff_size = 48\n"
                   "encoder.max_len = 32\npretrain.max_len = 32\n"
                   "finetune.pair_max_len = 32\nfinetune.entity_max_len = 16\n")
    out = tmp_path / "run"
    assert main(["ingest", str(cli_dataset), "--out", str(out),
                 "--config", str(cfg)]) == 0
    manifest = json.loads((out / "manifest.ingest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["config"]["vocab"]["min_freq"] == 2
    # an explicit flag wins over the file value
    assert main(["ingest", str(cli_dataset), "--out", str(out), "--force",
                 "--config", str(cfg), "--seed", "9"]) == 0
    manifest = json.loads((out / "manifest.ingest.json").read_text())
    assert manifest["seed"] == 9
    capsys.readouterr()


def test_ingest_prints_stats_and_writes_artifacts(cli_dataset, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["ingest", str(cli_dataset), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    kg = kglp.load_dataset(cli_dataset)
    assert f"entities  {kg.num_entities}" in printed
    assert f"train     {len(kg.splits['train'])}" in printed
    for name in ("catalog.json", "vocab.txt", "stats.json", "dataset.json",
                 "manifest.ingest.json"):
        assert (out / name).is_file()
    stats = json.loads((out / "stats.json").read_text())
    assert stats["entities"] == kg.num_entities
    assert stats["augmented_relations"] == 2 * kg.num_relations


def test_min_freq_that_keeps_no_token_exits_2_before_writing(cli_dataset, tmp_path, capsys):
    # a vocabulary of the reserved tokens alone used to pass ingest, and
    # pretrain then failed inside the masking sampler with "low >= high"
    out = tmp_path / "run"
    assert main(["ingest", str(cli_dataset), "--out", str(out),
                 "--set", "vocab.min_freq=100000"]) == 2
    err = capsys.readouterr().err
    assert "min_freq 100000 keeps no token (max count " in err
    assert not out.exists()


def test_reingest_refused_without_force(cli_dataset, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["ingest", str(cli_dataset), "--out", str(out)]) == 0
    assert main(["ingest", str(cli_dataset), "--out", str(out)]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["ingest", str(cli_dataset), "--out", str(out), "--force"]) == 0


def test_missing_dataset_directory_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert main(["ingest", str(missing), "--out", str(tmp_path / "o")]) == 2
    assert str(missing) in capsys.readouterr().err


def test_unknown_config_key_exits_2(cli_dataset, tmp_path, capsys):
    assert main(["ingest", str(cli_dataset), "--out", str(tmp_path / "o"),
                 "--set", "finetune.bogus=1"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_threads_is_not_a_config_key(cli_dataset, tmp_path, capsys):
    assert main(["ingest", str(cli_dataset), "--out", str(tmp_path / "o"),
                 "--set", "threads=2"]) == 2
    assert "threads" in capsys.readouterr().err


def test_dataset_dir_from_config_file_rejected(cli_dataset, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset.dir = /nonexistent/elsewhere\n")
    with pytest.raises(ConfigError, match="dataset_dir"):
        load_run_config(cfg)
    out = tmp_path / "o"
    assert main(["ingest", str(cli_dataset), "--out", str(out),
                 "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "dataset.dir" in err and "dataset.name" in err
    assert not out.exists()


def test_min_freq_that_differs_from_ingest_exits_2(cli_run, tmp_path, capsys):
    # cli_run was ingested with vocab.min_freq = 1
    predict = ["predict", "--out", str(cli_run), "--head", "a001",
               "--relation", "linksto", "-k", "1"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("vocab.min_freq = 5\n")
    for extra in (["--set", "vocab.min_freq=5"], ["--config", str(cfg)]):
        assert main([*predict, *extra]) == 2
        err = capsys.readouterr().err
        assert "vocab.min_freq" in err and "kglp ingest --force" in err
    assert main(["pretrain", "--out", str(cli_run), "--force",
                 "--set", "vocab.min_freq=5", *SMALL]) == 2
    assert "kglp ingest --force" in capsys.readouterr().err
    # the ingest value itself is accepted
    assert main([*predict, "--set", "vocab.min_freq=1"]) == 0


def _fake_threadpoolctl(monkeypatch):
    """Install a stand-in ``threadpoolctl``; returns (every limit asked for,
    the limits held right now)."""
    calls, held = [], []

    class threadpool_limits:
        # like threadpoolctl: the limits apply on construction, until exit
        def __init__(self, limits):
            self.limits = limits
            calls.append(limits)
            held.append(limits)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            held.remove(self.limits)

    module = types.ModuleType("threadpoolctl")
    module.threadpool_limits = threadpool_limits
    monkeypatch.setitem(sys.modules, "threadpoolctl", module)
    return calls, held


def test_threads_caps_the_pool_for_the_command(cli_dataset, tmp_path, monkeypatch):
    calls, held = _fake_threadpoolctl(monkeypatch)
    during = []
    real_load = cli.load_dataset

    def spy(directory):
        during.append(list(held))
        return real_load(directory)

    monkeypatch.setattr(cli, "load_dataset", spy)
    assert main(["ingest", str(cli_dataset), "--out", str(tmp_path / "ok"),
                 "--threads", "3"]) == 0
    assert during == [[3]] and held == []
    # released when the command fails too
    assert main(["ingest", str(tmp_path / "missing"), "--out", str(tmp_path / "bad"),
                 "--threads", "2"]) == 2
    assert during == [[3], [2]] and held == []
    assert calls == [3, 2]


def test_threads_zero_leaves_the_pool_alone(cli_dataset, tmp_path, monkeypatch):
    calls, _ = _fake_threadpoolctl(monkeypatch)
    assert main(["ingest", str(cli_dataset), "--out", str(tmp_path / "a")]) == 0
    assert main(["ingest", str(cli_dataset), "--out", str(tmp_path / "b"),
                 "--threads", "0"]) == 0
    assert calls == []


def test_threads_without_threadpoolctl_exits_2(cli_dataset, tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import raises
    out = tmp_path / "o"
    assert main(["ingest", str(cli_dataset), "--out", str(out), "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert "OPENBLAS_NUM_THREADS=2" in err and "perf" in err
    assert not out.exists()


def test_pretrain_requires_ingest(tmp_path, capsys):
    assert main(["pretrain", "--out", str(tmp_path / "empty")]) == 2
    assert "ingest" in capsys.readouterr().err


def test_empty_valid_split_exits_2(tmp_path, capsys):
    dataset = make_pair_dataset(tmp_path / "no_valid", n_pairs=30, seed=4)
    valid = dataset / "valid.tsv"
    with open(dataset / "train.tsv", "a", encoding="utf-8") as fh:
        fh.write(valid.read_text())
    valid.write_text("")
    out = tmp_path / "run"
    assert main(["ingest", str(dataset), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["pretrain", "--out", str(out), *SMALL]) == 2
    assert "empty valid split" in capsys.readouterr().err
    assert main(["finetune", "--out", str(out), "--checkpoint", "none", *SMALL]) == 2
    assert "empty valid split" in capsys.readouterr().err
    assert not (out / "pretrain.npz").exists()
    assert not (out / "finetune.npz").exists()


def test_finetune_requires_checkpoint_or_none(cli_dataset, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["ingest", str(cli_dataset), "--out", str(out)]) == 0
    assert main(["finetune", "--out", str(out), *SMALL]) == 2
    assert "pretrain" in capsys.readouterr().err
    # random initialization path works without a pre-trained checkpoint
    assert main(["finetune", "--out", str(out), "--checkpoint", "none",
                 "--set", "finetune.epochs=1", "--set", "finetune.batch_size=16",
                 *SMALL]) == 0


def test_pipeline_artifacts_and_manifests(cli_run):
    for name in ("pretrain.npz", "pretrain_log.jsonl", "manifest.pretrain.json",
                 "finetune.npz", "finetune_log.jsonl", "entity_table.npz",
                 "manifest.finetune.json"):
        assert (cli_run / name).is_file(), name
    manifest = json.loads((cli_run / "manifest.finetune.json").read_text())
    assert manifest["command"] == "finetune"
    assert manifest["seed"] == 3
    assert manifest["config"]["finetune"]["epochs"] == 2
    assert all(len(h) == 64 for h in manifest["inputs"].values())
    assert all(len(h) == 64 for h in manifest["outputs"].values())
    assert "elapsed_sec" in manifest


def test_evaluate_splits_give_distinct_reports(cli_run, capsys):
    assert main(["evaluate", "--out", str(cli_run), "--split", "valid"]) == 0
    assert main(["evaluate", "--out", str(cli_run), "--split", "test"]) == 0
    capsys.readouterr()
    valid = json.loads((cli_run / "report_valid.json").read_text())
    test = json.loads((cli_run / "report_test.json").read_text())
    assert valid["split"] == "valid"
    assert test["split"] == "test"
    assert valid["per_query"] != test["per_query"]


def test_evaluate_is_deterministic(cli_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    evaluate = ["evaluate", "--out", str(run), "--split", "valid", "--force"]
    assert main(evaluate) == 0
    first = json.loads((run / "report_valid.json").read_text())
    assert main(evaluate) == 0
    capsys.readouterr()
    second = json.loads((run / "report_valid.json").read_text())
    assert first == second


def test_evaluate_manifest_records_phase_timings(cli_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    assert main(["evaluate", "--out", str(run), "--split", "test", "--force"]) == 0
    capsys.readouterr()
    metrics = json.loads((run / "manifest.evaluate.test.json").read_text())["metrics"]
    for key in ("entity_table_s", "query_encode_s", "rank_s"):
        assert isinstance(metrics[key], float) and metrics[key] >= 0.0
    # the report itself carries no timings
    report = json.loads((run / "report_test.json").read_text())
    assert set(report) == {"split", "n_queries", "hits1", "hits3", "hits10", "mr",
                           "mrr", "per_query"}


def test_finetune_refuses_widths_the_checkpoint_cannot_hold(tmp_path, capsys):
    # 30-word descriptions make pair layouts 64 tokens long at pair_max_len=64,
    # past a checkpoint pre-trained with encoder.max_len=32
    dataset = make_pair_dataset(tmp_path / "ds", n_pairs=30, seed=4)
    names = [line.split("\t")[0]
             for line in (dataset / "entity2text.tsv").read_text().splitlines()]
    words = " ".join(f"word{i}" for i in range(30))
    (dataset / "entity2textlong.tsv").write_text(
        "".join(f"{name}\t{words}\n" for name in names))
    out = tmp_path / "run"
    assert main(["ingest", str(dataset), "--out", str(out)]) == 0
    assert main(["pretrain", "--out", str(out), "--seed", "3",
                 "--set", "pretrain.epochs=1", "--set", "pretrain.batch_size=16",
                 *SMALL]) == 0
    capsys.readouterr()
    finetune = ["finetune", "--out", str(out), "--set", "finetune.epochs=1",
                "--set", "finetune.batch_size=16"]
    for key, widths in (("pair_max_len", ["finetune.pair_max_len=64"]),
                        ("entity_max_len", ["finetune.pair_max_len=32",
                                            "finetune.entity_max_len=48"])):
        assert main([*finetune, *(a for w in widths for a in ("--set", w))]) == 2
        err = capsys.readouterr().err
        assert f"finetune.{key}" in err and "max_len is 32" in err
        assert not (out / "finetune_log.jsonl").exists()
        assert not (out / "finetune.npz").exists()


LONG_TEXT = " ".join(f"word{i}" for i in range(30))


def _long_description_dataset(directory):
    """The CLI pair dataset with 30-word descriptions: its pair layouts need
    batches 40 tokens wide."""
    dataset = make_pair_dataset(directory, n_pairs=30, seed=4)
    names = [line.split("\t")[0]
             for line in (dataset / "entity2text.tsv").read_text().splitlines()]
    (dataset / "entity2textlong.tsv").write_text(
        "".join(f"{name}\t{LONG_TEXT}\n" for name in names))
    return dataset


def test_evaluate_and_predict_refuse_widths_the_checkpoint_cannot_hold(tmp_path,
                                                                       capsys):
    # fine-tuned at 32-token widths; evaluate and predict then take the default
    # finetune.pair_max_len=96, and the pair layouts need 40-token batches
    out = tmp_path / "run"
    assert main(["ingest", str(_long_description_dataset(tmp_path / "ds")),
                 "--out", str(out)]) == 0
    assert main(["finetune", "--out", str(out), "--checkpoint", "none",
                 "--set", "finetune.epochs=1", "--set", "finetune.batch_size=16",
                 *SMALL]) == 0
    capsys.readouterr()
    for command in (["evaluate", "--split", "test"],
                    ["predict", "--head", "a001", "--relation", "linksto"],
                    ["predict", "--head", LONG_TEXT, "--relation", "linksto"]):
        assert main([*command, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "finetune.pair_max_len=96" in captured.err
        assert "max_len is 32" in captured.err
        assert captured.out == ""
    assert not (out / "report_test.json").exists()
    assert not (out / "manifest.evaluate.test.json").exists()
    # the named key is the way out
    assert main(["evaluate", "--split", "test", "--out", str(out),
                 "--set", "finetune.pair_max_len=32"]) == 0
    assert (out / "report_test.json").is_file()


def test_finetune_ignores_the_config_encoder_width(cli_run, tmp_path, capsys):
    # the checkpoint's encoder runs; encoder.max_len=16 in the config is not
    # compared with any stage's widths
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    assert main(["finetune", "--out", str(run), "--seed", "3", "--force",
                 "--set", "finetune.epochs=1", "--set", "finetune.batch_size=16",
                 "--set", "encoder.max_len=16"]) == 0
    capsys.readouterr()
    manifest = json.loads((run / "manifest.finetune.json").read_text())
    assert manifest["config"]["encoder"]["max_len"] == 32


def test_pretrain_checks_triple_widths_against_the_encoder(cli_dataset, tmp_path,
                                                           capsys):
    pretrain = ["pretrain", "--set", "pretrain.epochs=1",
                "--set", "pretrain.batch_size=16", *SMALL,
                "--set", "pretrain.max_len=64"]
    out = tmp_path / "long"
    assert main(["ingest", str(_long_description_dataset(tmp_path / "ds")),
                 "--out", str(out)]) == 0
    assert main([*pretrain, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "pretrain.max_len=64" in err and "max_len is 32" in err
    assert not (out / "pretrain_log.jsonl").exists()
    assert not (out / "pretrain.npz").exists()
    # short texts fit a 32-position encoder at any pretrain.max_len
    out = tmp_path / "short"
    assert main(["ingest", str(cli_dataset), "--out", str(out)]) == 0
    assert main([*pretrain, "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "pretrain.npz").is_file()


def test_predict_known_head(cli_run, capsys):
    assert main(["predict", "--out", str(cli_run), "--head", "a001",
                 "--relation", "linksto", "-k", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    assert out[0].lstrip().startswith("1")


def test_predict_refuses_table_of_another_checkpoint(cli_run, capsys):
    assert main(["predict", "--out", str(cli_run), "--head", "a001",
                 "--relation", "linksto", "--checkpoint",
                 str(cli_run / "pretrain.npz")]) == 2
    captured = capsys.readouterr()
    assert "kglp finetune" in captured.err
    assert captured.out == ""


def test_predict_k_larger_than_catalog(cli_run, capsys):
    assert main(["predict", "--out", str(cli_run), "--head", "a001",
                 "--relation", "linksto", "-k", "10000"]) == 0
    kg = json.loads((cli_run / "catalog.json").read_text())
    assert len(capsys.readouterr().out.strip().splitlines()) == len(kg["entity_ids"])


def test_predict_free_text_head(cli_run, capsys):
    assert main(["predict", "--out", str(cli_run), "--head",
                 "a completely new alpha item000 thing", "--relation", "linksto",
                 "-k", "5"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 5


def test_predict_unknown_relation_errors(cli_run, capsys):
    assert main(["predict", "--out", str(cli_run), "--head", "a001",
                 "--relation", "no_such_relation"]) == 2
    assert "unknown relation" in capsys.readouterr().err


def test_predict_filtered_hides_known_true(cli_run, capsys):
    kg = kglp.augment_inverse(kglp.load_dataset(
        json.loads((cli_run / "dataset.json").read_text())["dir"]))
    # pick a train triple so its tail is known-true for the query
    t = next(t for t in kg.splits["train"]
             if not kg.relation_is_inverse[t.relation])
    head_id = kg.entity_ids[t.head]
    rel_id = kg.relation_ids[t.relation]
    known = {kg.entity_ids[e] for e in
             kglp.build_filter_index(kg)[(t.head, t.relation)]}
    assert main(["predict", "--out", str(cli_run), "--head", head_id,
                 "--relation", rel_id, "-k", "5", "--filtered"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    shown = {line.split()[2] for line in lines}
    assert not (shown & known)


def test_resplit_unseen_cli_roundtrip(cli_dataset, tmp_path, capsys):
    out = tmp_path / "resplit_ds"
    assert main(["resplit-unseen", str(cli_dataset), "--out", str(out),
                 "--ratio", "0.1", "--seed", "5"]) == 0
    capsys.readouterr()
    kg = kglp.load_dataset(out)
    original = kglp.load_dataset(cli_dataset)
    assert kg.num_entities == original.num_entities
    assert sum(kg.split_sizes().values()) == sum(original.split_sizes().values())
    train_entities = {e for t in kg.splits["train"] for e in (t.head, t.tail)}
    for t in kg.splits["test"]:
        assert t.head not in train_entities or t.tail not in train_entities
    # refuse to clobber without --force
    assert main(["resplit-unseen", str(cli_dataset), "--out", str(out),
                 "--ratio", "0.1", "--seed", "5"]) == 2
    assert main(["resplit-unseen", str(cli_dataset), "--out", str(out),
                 "--ratio", "0.1", "--seed", "5", "--force"]) == 0


def test_resplit_bad_ratio_exits_2(cli_dataset, tmp_path):
    assert main(["resplit-unseen", str(cli_dataset),
                 "--out", str(tmp_path / "x"), "--ratio", "0.0"]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--out", "somewhere"])  # missing --split
    assert exc.value.code == 2


def test_finetune_divergence_exits_1(cli_dataset, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["ingest", str(cli_dataset), "--out", str(out)]) == 0
    vocab = kglp.Vocabulary.load(out / "vocab.txt")
    enc = kglp.Encoder(kglp.EncoderConfig(vocab_size=vocab.size, hidden_size=32,
                                          num_layers=1, ff_size=48, max_len=32))
    enc.params["blk0.ff.w2"][...] = np.nan
    kglp.save_checkpoint(enc, out / "pretrain.npz")
    with np.errstate(invalid="ignore"):
        code = main(["finetune", "--out", str(out), "--set", "finetune.epochs=1",
                     "--set", "finetune.batch_size=16", *SMALL])
    assert code == 1
    assert "non-finite loss at step 0" in capsys.readouterr().err


def test_non_finite_checkpoint_evaluate_and_predict_exit_2(cli_dataset, tmp_path,
                                                          capsys):
    from kglp.cli import file_sha256
    out = tmp_path / "run"
    assert main(["ingest", str(cli_dataset), "--out", str(out)]) == 0
    vocab = kglp.Vocabulary.load(out / "vocab.txt")
    enc = kglp.Encoder(kglp.EncoderConfig(vocab_size=vocab.size, hidden_size=32,
                                          num_layers=1, ff_size=48, max_len=32))
    enc.params["blk0.ff.w2"][...] = np.nan
    kglp.save_checkpoint(enc, out / "finetune.npz")
    sha = np.array(file_sha256(out / "finetune.npz"))
    n = len(json.loads((out / "catalog.json").read_text())["entity_ids"])
    predict = ["predict", "--out", str(out), "--head", "a001",
               "--relation", "linksto", *SMALL]
    with np.errstate(invalid="ignore"):
        assert main(["evaluate", "--out", str(out), "--split", "test", *SMALL]) == 2
        assert "entity table row 0 is not finite" in capsys.readouterr().err
        assert not (out / "report_test.json").exists()
        np.savez(out / "entity_table.npz", table=np.full((n, 32), np.nan),
                 checkpoint_sha256=sha)
        assert main(predict) == 2
        assert "entity table row 0 is not finite" in capsys.readouterr().err
        # a finite table cannot hide a non-finite query vector
        np.savez(out / "entity_table.npz", table=np.full((n, 32), 32 ** -0.5),
                 checkpoint_sha256=sha)
        assert main(predict) == 2
    captured = capsys.readouterr()
    assert "non-finite query vector" in captured.err
    assert "nan" not in captured.out


def test_predict_filtered_is_unfiltered_minus_index_completions(cli_run, capsys):
    kg = kglp.augment_inverse(kglp.load_dataset(
        json.loads((cli_run / "dataset.json").read_text())["dir"]))
    t = next(t for t in kg.splits["train"]
             if not kg.relation_is_inverse[t.relation])
    known = {kg.entity_ids[e] for e in
             kglp.build_filter_index(kg)[(t.head, t.relation)]}
    query = ["predict", "--out", str(cli_run), "--head", kg.entity_ids[t.head],
             "--relation", kg.relation_ids[t.relation]]
    assert main([*query, "-k", "10000"]) == 0
    unfiltered = [line.split(None, 1)[1]
                  for line in capsys.readouterr().out.strip().splitlines()]
    want = [rest for rest in unfiltered if rest.split()[1] not in known][:5]
    assert main([*query, "-k", "5", "--filtered"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(None, 1)[1] for line in lines] == want
    assert [int(line.split()[0]) for line in lines] == [1, 2, 3, 4, 5]


def test_failed_entity_table_write_keeps_old_table(cli_run, tmp_path, monkeypatch,
                                                   capsys):
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    table = run / "entity_table.npz"
    old = table.read_bytes()
    listing = sorted(os.listdir(run))
    real_savez = np.savez

    def savez(file, *args, **kwargs):
        if "table" in kwargs:
            file.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")
        real_savez(file, *args, **kwargs)

    monkeypatch.setattr(np, "savez", savez)
    assert main(["finetune", "--out", str(run), "--seed", "3", "--force",
                 "--set", "finetune.epochs=1", "--set", "finetune.batch_size=16",
                 *SMALL]) == 1
    assert "disk full" in capsys.readouterr().err
    assert table.read_bytes() == old
    assert sorted(os.listdir(run)) == listing


def test_stale_checkpoint_after_reingest_exits_2(cli_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    smaller = make_pair_dataset(tmp_path / "smaller", n_pairs=10, seed=4)
    assert main(["ingest", str(smaller), "--out", str(run), "--force"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--out", str(run), "--split", "test", "--force"]) == 2
    captured = capsys.readouterr()
    assert "vocab" in captured.err and "finetune.npz" in captured.err
    assert main(["predict", "--out", str(run), "--head", "a001",
                 "--relation", "linksto", "-k", "3"]) == 2
    captured = capsys.readouterr()
    assert "vocab" in captured.err and "finetune.npz" in captured.err
    assert captured.out == ""


def test_predict_refuses_table_of_another_catalog(cli_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    with np.load(run / "entity_table.npz") as data:
        table, sha = data["table"], data["checkpoint_sha256"]
    np.savez(run / "entity_table.npz", table=np.vstack([table, table[:1]]),
             checkpoint_sha256=sha)
    assert main(["predict", "--out", str(run), "--head", "a001",
                 "--relation", "linksto", "-k", "10000"]) == 2
    captured = capsys.readouterr()
    assert f"{len(table) + 1} rows" in captured.err and "kglp finetune" in captured.err
    assert captured.out == ""


def test_predict_refuses_a_table_of_raw_rows(cli_run, tmp_path, capsys):
    # tables written before tables held unit rows hold raw pooled vectors
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    with np.load(run / "entity_table.npz") as data:
        table, sha = data["table"], data["checkpoint_sha256"]
    np.savez(run / "entity_table.npz", table=2.0 * table, checkpoint_sha256=sha)
    assert main(["predict", "--out", str(run), "--head", "a001",
                 "--relation", "linksto", "-k", "3"]) == 2
    captured = capsys.readouterr()
    assert "entity table row 0 has norm 2, not 1 or 0" in captured.err
    assert "entity_table.npz" in captured.err
    assert f"kglp finetune --out {run} --force" in captured.err
    assert captured.out == ""


def test_manifests_record_the_loaded_checkpoint_encoder(cli_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    wider = ["--set", "encoder.hidden_size=64"]
    assert main(["evaluate", "--out", str(run), "--split", "test", "--force",
                 *wider]) == 0
    manifest = json.loads((run / "manifest.evaluate.test.json").read_text())
    assert manifest["config"]["encoder"]["hidden_size"] == 32
    assert main(["finetune", "--out", str(run), "--seed", "3", "--force",
                 "--set", "finetune.epochs=1", "--set", "finetune.batch_size=16",
                 *SMALL, *wider]) == 0
    manifest = json.loads((run / "manifest.finetune.json").read_text())
    assert manifest["config"]["encoder"] == {
        "hidden_size": 32, "num_layers": 1, "num_heads": 4, "ff_size": 48,
        "max_len": 32, "dropout": 0.1}
    capsys.readouterr()


def _drop_tensor(arrays):
    del arrays["param::blk0.ff.w2"]


def _reshape_tensor(arrays):
    arrays["param::blk0.ff.w1"] = np.zeros((32, 40), dtype=np.float32)


def _add_layer(arrays):
    meta = json.loads(str(arrays["__meta__"]))
    meta["config"]["num_layers"] = 2
    arrays["__meta__"] = np.array(json.dumps(meta))


@pytest.mark.parametrize("edit, message", [
    (_drop_tensor, "tensor blk0.ff.w2 is None, its config wants (48, 32)"),
    (_reshape_tensor, "tensor blk0.ff.w1 is (32, 40), its config wants (32, 48)"),
    (_add_layer, "tensor blk1.attn.wq is None, its config wants (32, 32)"),
])
def test_checkpoint_with_other_tensors_exits_1_and_writes_nothing(cli_run, tmp_path, capsys,
                                                                  edit, message):
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    with np.load(run / "finetune.npz") as data:
        arrays = dict(data)
    edit(arrays)
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    capsys.readouterr()
    for command in (["evaluate", "--split", "test"],
                    ["finetune", "--set", "finetune.epochs=1", *SMALL]):
        assert main([*command, "--out", str(run), "--force", "--checkpoint", str(bad)]) == 1
        assert f"error: {bad}: {message}" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_encoder_settings_are_the_encoder_config_without_the_vocabulary():
    from dataclasses import fields
    assert [(f.name, f.default) for f in fields(EncoderSettings)] == [
        (f.name, f.default) for f in fields(kglp.EncoderConfig) if f.name != "vocab_size"]


def test_every_settings_field_is_a_key():
    from dataclasses import fields, is_dataclass
    from kglp.config import _NOT_KEYS, RunConfig

    defaults = RunConfig()
    keys = []
    for section in fields(RunConfig):
        value = getattr(defaults, section.name)
        if not is_dataclass(value):
            keys.append((section.name, value))
            continue
        keys += [(f"{section.name}.{f.name}", getattr(value, f.name))
                 for f in fields(value) if f"{section.name}.{f.name}" not in _NOT_KEYS]
    assert "seed" in dict(keys) and "finetune.label_splits" in dict(keys)
    for key, value in keys:
        text = ",".join(value) if isinstance(value, tuple) else str(value)
        rc = load_run_config(None, {key: text})
        owner = rc
        for part in key.split(".")[:-1]:
            owner = getattr(owner, part)
        assert getattr(owner, key.split(".")[-1]) == value, key


def test_sections_and_non_fields_are_not_keys(cli_dataset, tmp_path, capsys):
    out = tmp_path / "o"
    for key in ("encoder", "finetune.focal", "seed.x", "snapshot"):
        assert main(["ingest", str(cli_dataset), "--out", str(out),
                     "--set", f"{key}=1"]) == 2
        assert f"unknown config key: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_resplit_unseen_resolves_the_run_config(cli_dataset, tmp_path, capsys):
    def resplit(name, *extra):
        out = tmp_path / name
        assert main(["resplit-unseen", str(cli_dataset), "--out", str(out), *extra]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\n")
    by_flag = resplit("flag", "--seed", "5")
    assert resplit("set", "--set", "seed=5") == by_flag
    assert resplit("config", "--config", str(cfg)) == by_flag
    assert resplit("default") != by_flag
    capsys.readouterr()
    bad = tmp_path / "bad"
    assert main(["resplit-unseen", str(cli_dataset), "--out", str(bad),
                 "--set", "no.such.key=1"]) == 2
    assert "no.such.key" in capsys.readouterr().err
    assert not bad.exists()


def test_dataset_name_precedence_in_a_later_stage(cli_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(cli_run, run)
    ingested = json.loads((run / "dataset.json").read_text())["name"]
    assert ingested not in ("wn18rr", "fb15k237")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset.name = fb15k237\n")

    def evaluated_config(*extra):
        assert main(["evaluate", "--out", str(run), "--split", "valid", "--force",
                     *extra]) == 0
        capsys.readouterr()
        return json.loads((run / "manifest.evaluate.valid.json").read_text())["config"]

    # the ingest record's name beats the config file's
    config = evaluated_config("--config", str(cfg))
    assert config["dataset"]["name"] == ingested
    assert config["finetune"]["batch_size"] == 128
    # a flag beats the ingest record; its profile's vocab.min_freq (3) does not
    # beat the ingest record's (1)
    config = evaluated_config("--config", str(cfg), "--set", "dataset.name=WN18RR")
    assert config["dataset"]["name"] == "wn18rr"
    assert config["finetune"]["batch_size"] == 64
    assert config["vocab"]["min_freq"] == 1


def test_mlm_only_flag_is_an_override():
    args = cli.build_parser().parse_args(
        ["pretrain", "--out", "x", "--set", "pretrain.mlm_only=false", "--mlm-only"])
    assert cli._collect_overrides(args)["pretrain.mlm_only"] is True
    args = cli.build_parser().parse_args(["pretrain", "--out", "x"])
    assert "pretrain.mlm_only" not in cli._collect_overrides(args)


def test_predict_k_below_1_exits_2(cli_run, capsys):
    for k in ("0", "-2"):
        assert main(["predict", "--out", str(cli_run), "--head", "a001",
                     "--relation", "linksto", "-k", k]) == 2
        captured = capsys.readouterr()
        assert "-k" in captured.err and captured.out == ""


def test_negative_threads_exits_2(cli_dataset, tmp_path, monkeypatch, capsys):
    calls, _ = _fake_threadpoolctl(monkeypatch)
    out = tmp_path / "o"
    assert main(["ingest", str(cli_dataset), "--out", str(out), "--threads", "-1"]) == 2
    assert "--threads" in capsys.readouterr().err
    assert calls == [] and not out.exists()
