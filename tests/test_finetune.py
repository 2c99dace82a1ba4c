import copy
import dataclasses
import json
import logging
import math

import numpy as np
import pytest

import kglp
from kglp import finetune as ft
from kglp.data import Triple, Triples, build_filter_index
from kglp.finetune import (FinetuneConfig, FocalParams, abs_diff_sums,
                           build_label_matrix, finetune_step, joint_loss,
                           loss_and_vector_grads, run_finetune, score_batch)
from kglp.evaluate import _encode_pooled, evaluate, precompute_entity_embeddings
from kglp.optim import AdamW
from kglp.pretrain import TrainingDiverged
from kglp.text import TokenizedCatalog, assemble_entity

from util import (filter_from_mapping, naive_cosine, naive_label_matrix, reference_finetune_report,
                  reference_ranks, reference_run_finetune, reference_unit_rows, rel_error,
                  scalar_joint_loss)


def filter_from_dict(d):
    return filter_from_mapping({k: set(v) for k, v in d.items()})


def test_focal_params_validation():
    with pytest.raises(ValueError, match="alpha"):
        FocalParams(alpha=1.0)
    with pytest.raises(ValueError, match="gamma"):
        FocalParams(alpha=0.5, gamma=-0.1)


def test_label_matrix_distinct_batch_is_identity():
    batch = [Triple(0, 0, 1), Triple(2, 0, 3), Triple(4, 1, 5), Triple(6, 1, 7)]
    filt = filter_from_dict({(t.head, t.relation): {t.tail} for t in batch})
    y = build_label_matrix(batch, filt)
    assert (y == np.eye(4, dtype=np.int8)).all()
    assert y.sum() == 4  # n positives, n*(n-1) negatives
    assert y.size - y.sum() == 12


def test_label_matrix_off_diagonal_positive():
    # (A,r,B) and (C,s,B): B completes (A,r), so row A marks column 1 positive too
    batch = [Triple(0, 0, 1), Triple(2, 1, 1)]
    filt = filter_from_dict({(0, 0): {1}, (2, 1): {1}})
    y = build_label_matrix(batch, filt)
    assert y.tolist() == [[1, 1], [1, 1]]  # both columns hold entity 1


def test_label_matrix_single_row():
    y = build_label_matrix([Triple(0, 0, 1)], filter_from_dict({}))
    assert y.tolist() == [[1]]


def test_label_matrix_diagonal_forced_even_without_filter_entry():
    batch = [Triple(0, 0, 1), Triple(2, 0, 3)]
    y = build_label_matrix(batch, filter_from_dict({}))
    assert (np.diag(y) == 1).all()
    assert y.sum() == 2


def test_label_matrix_matches_double_loop_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(1, 12))
        batch = [Triple(int(rng.integers(6)), int(rng.integers(3)),
                        int(rng.integers(6))) for _ in range(n)]
        truth = {}
        for t in batch:
            truth.setdefault((t.head, t.relation), set()).add(t.tail)
        # random extra known-true completions
        for _ in range(4):
            truth.setdefault((int(rng.integers(6)), int(rng.integers(3))),
                             set()).add(int(rng.integers(6)))
        y = build_label_matrix(batch, filter_from_dict(truth))
        assert (y == naive_label_matrix(batch, truth)).all()


def test_score_batch_identity_and_orthogonal():
    unit = np.eye(3, dtype=np.float64)
    scores = score_batch(unit, unit)
    assert np.allclose(np.diag(scores), 1.0)
    assert np.allclose(scores - np.diag(np.diag(scores)), 0.0)


def test_score_batch_matches_scalar_cosine(rng):
    p = rng.standard_normal((3, 4))
    e = rng.standard_normal((5, 4))
    assert np.allclose(score_batch(p, e), naive_cosine(p, e), atol=1e-6)


def test_score_batch_scale_invariance(rng):
    p = rng.standard_normal((4, 6))
    e = rng.standard_normal((4, 6))
    base = score_batch(p, e)
    scaled = score_batch(p * 37.5, e * 0.004)
    assert np.allclose(base, scaled, atol=1e-6)


def test_score_batch_zero_vector_counted(caplog):
    p = np.zeros((2, 3))
    p[1] = [1.0, 0.0, 0.0]
    with caplog.at_level(logging.WARNING, logger="kglp.finetune"):
        scores = score_batch(p, np.eye(3))
    assert (scores[0] == 0.0).all()
    assert [r.getMessage() for r in caplog.records] == [
        "1 zero-norm vectors in cosine scoring"]


def test_abs_diff_sums_matches_double_loop(rng):
    p = rng.standard_normal((3, 5))
    e = rng.standard_normal((4, 5))
    expected = np.array([[np.abs(p[i] - e[j]).sum() for j in range(4)]
                         for i in range(3)])
    assert np.allclose(abs_diff_sums(p, e, chunk=2), expected, atol=1e-12)


def test_joint_loss_perfect_positive_cell():
    # d1 = 1, y = 1: focal term is 0 after clamping; sigma(0) = 0.5 remains
    loss = joint_loss(np.array([[1.0]]), np.array([[0.0]]),
                      np.array([[1]]), FocalParams(0.5, 2.0))
    assert loss == pytest.approx(0.5, abs=1e-6)


def test_joint_loss_identical_vectors_sigmoid_floor():
    v = np.array([[0.3, -0.7, 2.0]])
    diffs = abs_diff_sums(v, v)
    assert diffs[0, 0] == 0.0
    sig = 1.0 / (1.0 + math.exp(0.0))
    assert sig == 0.5


def test_joint_loss_2x2_hand_case_matches_scalar_oracle():
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    pairs = np.stack([u, v])
    entities = np.stack([u, v])
    labels = np.eye(2, dtype=np.int8)
    fp = FocalParams(alpha=0.5, gamma=2.0)
    scores = score_batch(pairs, entities)
    diffs = abs_diff_sums(pairs, entities)
    got = joint_loss(scores, diffs, labels, fp)
    want = scalar_joint_loss(scores, diffs, labels, 0.5, 2.0)
    assert got == pytest.approx(want, abs=1e-6)


def test_joint_loss_matches_scalar_oracle_randomized(rng):
    for _ in range(25):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        scores = rng.uniform(-1, 1, (n, m))
        diffs = np.abs(rng.standard_normal((n, m))) * 3
        labels = (rng.random((n, m)) < 0.3).astype(np.int8)
        fp = FocalParams(alpha=float(rng.uniform(0.1, 0.9)),
                         gamma=float(rng.choice([0.0, 0.5, 1.0, 2.0])))
        got = joint_loss(scores, diffs, labels, fp)
        want = scalar_joint_loss(scores, diffs, labels, fp.alpha, fp.gamma)
        assert got == pytest.approx(want, rel=1e-9)


def test_joint_loss_cell_mask_restricts_mean(rng):
    scores = rng.uniform(-1, 1, (3, 4))
    diffs = np.abs(rng.standard_normal((3, 4)))
    labels = np.zeros((3, 4), dtype=np.int8)
    labels[:, 0] = 1
    mask = np.zeros((3, 4), dtype=bool)
    mask[:, :2] = True
    got = joint_loss(scores, diffs, labels, FocalParams(0.8, 2.0), cell_mask=mask)
    want = scalar_joint_loss(scores, diffs, labels, 0.8, 2.0, cell_mask=mask)
    assert got == pytest.approx(want, rel=1e-9)


def test_joint_loss_gamma_zero_reduces_to_cross_entropy(rng):
    scores = rng.uniform(-0.95, 0.95, (4, 4))
    diffs = np.abs(rng.standard_normal((4, 4)))
    labels = np.eye(4, dtype=np.int8)
    got = joint_loss(scores, diffs, labels, FocalParams(0.5, 0.0))
    p = np.clip((scores + 1) / 2, 1e-6, 1 - 1e-6)
    ce = np.where(labels == 1, -0.5 * np.log(p), -0.5 * np.log(1 - p))
    sig = 1 / (1 + np.exp(-diffs))
    l2 = np.where(labels == 1, sig, 1 - sig)
    assert got == pytest.approx(float((ce + l2).mean()), rel=1e-9)


def test_joint_loss_positive_term_monotone_in_similarity():
    fp = FocalParams(alpha=0.8, gamma=2.0)
    labels = np.array([[1]])
    diffs = np.array([[0.7]])
    values = [joint_loss(np.array([[d1]]), diffs, labels, fp)
              for d1 in np.linspace(-1, 1, 101)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_joint_loss_rejects_non_finite():
    labels = np.eye(2, dtype=np.int8)
    bad = np.array([[0.1, np.nan], [0.0, 0.2]])
    with pytest.raises(ValueError, match=r"scores at cell \(0, 1\)"):
        joint_loss(bad, np.zeros((2, 2)), labels, FocalParams())
    with pytest.raises(ValueError, match=r"diff_sums at cell \(1, 0\)"):
        joint_loss(np.zeros((2, 2)),
                   np.array([[0.0, 0.1], [np.inf, 0.0]]), labels, FocalParams())


def test_loss_gradients_match_finite_differences(rng):
    n, d = 5, 7
    p = rng.standard_normal((n, d))
    e = rng.standard_normal((n, d))
    labels = np.eye(n, dtype=np.int8)
    labels[0, 2] = 1
    fp = FocalParams(alpha=0.7, gamma=2.0)
    _, _, _, dp, de = loss_and_vector_grads(p, e, labels, fp)

    def value():
        return joint_loss(score_batch(p, e), abs_diff_sums(p, e), labels, fp)

    eps = 1e-6
    for arr, grad in ((p, dp), (e, de)):
        for _ in range(20):
            i, j = int(rng.integers(n)), int(rng.integers(d))
            orig = arr[i, j]
            arr[i, j] = orig + eps
            up = value()
            arr[i, j] = orig - eps
            down = value()
            arr[i, j] = orig
            numeric = (up - down) / (2 * eps)
            assert rel_error(numeric, grad[i, j]) <= 1e-4


def test_finetune_step_two_forwards_n_squared_cells(pair_kg, pair_vocab,
                                                    monkeypatch):
    cat = TokenizedCatalog(pair_kg, pair_vocab)
    enc = kglp.Encoder(kglp.EncoderConfig(vocab_size=pair_vocab.size, hidden_size=32,
                                          num_layers=1, num_heads=4, ff_size=48,
                                          max_len=32), seed=0)
    calls = []
    original = enc.forward

    def counting_forward(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(enc, "forward", counting_forward)
    cfg = FinetuneConfig(epochs=1, batch_size=8, pair_max_len=32, entity_max_len=16)
    opt = AdamW({"linear": 1e-3, "attention": 5e-5})
    batch = pair_kg.splits["train"][:8]
    filt = build_filter_index(pair_kg, ("train",))
    report = finetune_step(batch, enc, cat, filt, opt, 1.0, cfg,
                           rng=np.random.default_rng(0))
    assert len(calls) == 2
    assert report.n_pos + report.n_neg == 64


def test_finetune_step_ragged_tail_keeps_k_by_k(pair_kg, pair_vocab):
    cat = TokenizedCatalog(pair_kg, pair_vocab)
    enc = kglp.Encoder(kglp.EncoderConfig(vocab_size=pair_vocab.size, hidden_size=32,
                                          num_layers=1, num_heads=4, ff_size=48,
                                          max_len=32), seed=0)
    cfg = FinetuneConfig(epochs=1, batch_size=8, pair_max_len=32, entity_max_len=16)
    opt = AdamW({"linear": 1e-3, "attention": 5e-5})
    batch = pair_kg.splits["train"][:3]
    filt = build_filter_index(pair_kg, ("train",))
    report = finetune_step(batch, enc, cat, filt, opt, 1.0, cfg,
                           rng=np.random.default_rng(0))
    assert report.n_pos + report.n_neg == 9


def test_finetune_step_uniform_k_mode(pair_kg, pair_vocab):
    cat = TokenizedCatalog(pair_kg, pair_vocab)
    enc = kglp.Encoder(kglp.EncoderConfig(vocab_size=pair_vocab.size, hidden_size=32,
                                          num_layers=1, num_heads=4, ff_size=48,
                                          max_len=32), seed=0)
    cfg = FinetuneConfig(epochs=1, batch_size=6, pair_max_len=32, entity_max_len=16,
                         negative_mode="uniform_k", num_negatives=5)
    opt = AdamW({"linear": 1e-3, "attention": 5e-5})
    batch = pair_kg.splits["train"][:6]
    filt = build_filter_index(pair_kg, ("train",))
    report = finetune_step(batch, enc, cat, filt, opt, 1.0, cfg,
                           rng=np.random.default_rng(0),
                           neg_rng=np.random.default_rng(1))
    assert report.n_pos == 6
    # up to 6*(1+5) cells; collisions between a row's tail and its sampled
    # negatives can only merge cells, never add
    assert 6 < report.n_pos + report.n_neg <= 36


@pytest.mark.parametrize("mode", ["in_batch", "uniform_k"])
def test_finetune_step_takes_a_list_or_triples(pair_kg, pair_vocab, mode):
    cat = TokenizedCatalog(pair_kg, pair_vocab)
    cfg = FinetuneConfig(batch_size=8, pair_max_len=32, entity_max_len=16,
                         negative_mode=mode, num_negatives=3)
    filt = build_filter_index(pair_kg, ("train",))
    rows = pair_kg.splits["train"][:8]
    runs = []
    for batch in (list(rows), Triples(rows.array)):
        enc = kglp.Encoder(kglp.EncoderConfig(vocab_size=pair_vocab.size, hidden_size=32,
                                              num_layers=1, num_heads=4, ff_size=48,
                                              max_len=32), seed=0)
        opt = AdamW({"linear": 1e-3, "attention": 5e-5})
        report = finetune_step(batch, enc, cat, filt, opt, 1.0, cfg,
                               rng=np.random.default_rng(0),
                               neg_rng=np.random.default_rng(1))
        runs.append((report, enc.params))
    (want, want_params), (report, params) = runs
    assert report == want
    assert want_params.keys() == params.keys()
    assert all(np.array_equal(want_params[k], params[k]) for k in want_params)


def test_finetune_step_unknown_mode_rejected(pair_kg, pair_vocab):
    cat = TokenizedCatalog(pair_kg, pair_vocab)
    enc = kglp.Encoder(kglp.EncoderConfig(vocab_size=pair_vocab.size, hidden_size=32,
                                          num_layers=1, num_heads=4, ff_size=48,
                                          max_len=32), seed=0)
    cfg = FinetuneConfig(negative_mode="hard_mining")
    opt = AdamW({"linear": 1e-3, "attention": 5e-5})
    filt = build_filter_index(pair_kg, ("train",))
    with pytest.raises(ValueError, match="negative_mode"):
        finetune_step(pair_kg.splits["train"][:2], enc, cat, filt, opt, 1.0, cfg,
                      rng=np.random.default_rng(0))


def test_run_finetune_tracks_best_and_logs(pair_kg, pair_vocab, tmp_path):
    enc = kglp.Encoder(kglp.EncoderConfig(vocab_size=pair_vocab.size, hidden_size=32,
                                          num_layers=1, num_heads=4, ff_size=48,
                                          max_len=32), seed=1)
    cfg = FinetuneConfig(epochs=2, batch_size=32, pair_max_len=32, entity_max_len=16,
                         seed=1, eval_every=1)
    log_path = tmp_path / "ft.jsonl"
    history = run_finetune(pair_kg, pair_vocab, enc, cfg, log_path=log_path)
    assert len(history) == 2
    assert all("val_hits10" in h for h in history)
    import json
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    step_records = [r for r in records if "step" in r]
    assert {"loss", "l1", "l2", "pos_cells", "neg_cells"} <= set(step_records[0])
    summaries = [r for r in records if "epoch_summary" in r]
    assert any("val_hits10" in r["epoch_summary"] for r in summaries)


def test_divergence_raises_with_diagnostics(pair_kg, pair_vocab):
    enc = kglp.Encoder(kglp.EncoderConfig(vocab_size=pair_vocab.size, hidden_size=32,
                                          num_layers=1, num_heads=4, ff_size=48,
                                          max_len=32), seed=1)
    enc.params["blk0.ff.w2"][...] = np.nan
    cfg = FinetuneConfig(epochs=1, batch_size=8, pair_max_len=32, entity_max_len=16)
    with pytest.raises(TrainingDiverged) as err, np.errstate(invalid="ignore"):
        run_finetune(pair_kg, pair_vocab, enc, cfg)
    assert err.value.step == 0
    assert len(err.value.batch_ids) == 8
    assert "linear" in err.value.lrs


@pytest.mark.parametrize("mode", ["in_batch", "uniform_k"])
def test_step_report_table_and_ranks_match_reference(pair_kg, pair_vocab, mode):
    cat = TokenizedCatalog(pair_kg, pair_vocab)
    enc = kglp.Encoder(kglp.EncoderConfig(vocab_size=pair_vocab.size, hidden_size=32,
                                          num_layers=1, num_heads=4, ff_size=48,
                                          max_len=32), seed=0)
    # entity layouts are 10 tokens long, so a 12-token cap cuts the batch width
    cfg = FinetuneConfig(batch_size=8, pair_max_len=32, entity_max_len=12,
                         negative_mode=mode, num_negatives=5)
    opt = AdamW({"linear": 1e-3, "attention": 5e-5})
    filt = build_filter_index(pair_kg, ("train",))
    rng, neg_rng = np.random.default_rng(0), np.random.default_rng(1)
    train = pair_kg.splits["train"]
    for step in range(3):
        batch = train[8 * step:8 * step + 8]
        want = reference_finetune_report(batch, copy.deepcopy(enc), cat, filt, cfg,
                                         copy.deepcopy(rng), copy.deepcopy(neg_rng))
        report = finetune_step(batch, enc, cat, filt, opt, 1.0, cfg, rng=rng,
                               neg_rng=neg_rng)
        assert (report.loss, report.l1_mean, report.l2_mean, report.n_pos,
                report.n_neg) == want
    table, ranks = reference_ranks(enc, cat, pair_kg, "valid", 32, 12, batch_size=7)
    layouts = [assemble_entity(cat, e, 12) for e in range(pair_kg.num_entities)]
    assert np.array_equal(_encode_pooled(enc, layouts, 7), table)
    assert np.array_equal(precompute_entity_embeddings(enc, cat, 12, batch_size=7),
                          reference_unit_rows(table))
    report = evaluate(pair_kg, enc, "valid", cat=cat, pair_max_len=32,
                      entity_max_len=12, batch_size=7)
    assert [q["rank"] for q in report.per_query] == ranks


@pytest.mark.parametrize("mode, clip_norm", [("in_batch", 1.0), ("uniform_k", 0.0)])
def test_run_finetune_matches_reference_loop(pair_kg, pair_vocab, tmp_path, mode,
                                             clip_norm):
    cfg = FinetuneConfig(epochs=3, batch_size=32, pair_max_len=32, entity_max_len=16,
                         seed=2, lr_linear=1e-3, lr_attention=5e-4, eval_every=2,
                         negative_mode=mode, num_negatives=2, clip_norm=clip_norm,
                         log_every=3)
    runs = []
    for run in (reference_run_finetune, run_finetune):
        enc = kglp.Encoder(kglp.EncoderConfig(
            vocab_size=pair_vocab.size, hidden_size=32, num_layers=1, num_heads=4,
            ff_size=48, max_len=32), seed=1)
        log_path = tmp_path / f"{run.__name__}.jsonl"
        history = run(pair_kg, pair_vocab, enc, cfg, log_path=log_path)
        log = [json.loads(line) for line in log_path.read_text().splitlines()]
        runs.append((enc, history, log))
    (want_enc, want_history, want_log), (enc, history, log) = runs

    # the one documented difference: a validated epoch that does not improve
    # now says so with "best": false instead of leaving the key out
    for record in want_history:
        if "val_hits10" in record:
            record.setdefault("best", False)
    assert [("best" in h) for h in history] == [False, True, True]
    assert history == want_history
    for name in ("params", "buffers"):
        want, got = getattr(want_enc, name), getattr(enc, name)
        assert want.keys() == got.keys()
        assert all(np.array_equal(want[k], got[k]) for k in want), name
    want_steps = [r for r in want_log if "step" in r]
    steps = [r for r in log if "step" in r]
    assert [r["epoch_summary"] for r in log if "epoch_summary" in r] == history
    assert [{k: v for k, v in r.items() if k not in ("grad_norm", "clipped")}
            for r in steps] == want_steps
    for r in steps:
        if clip_norm:
            assert r["clipped"] == (r["grad_norm"] > clip_norm)
        else:  # clipping off: the norm is never computed
            assert r["grad_norm"] is None and r["clipped"] is False


def test_empty_valid_split_rejected_before_any_step(pair_kg, pair_vocab, monkeypatch):
    train = pair_kg.splits["train"] + pair_kg.splits["valid"]
    kg = dataclasses.replace(pair_kg, splits=dict(pair_kg.splits, train=train, valid=[]))
    monkeypatch.setattr(ft, "finetune_step", None)  # any step call would fail
    enc = kglp.Encoder(kglp.EncoderConfig(vocab_size=pair_vocab.size, hidden_size=32,
                                          num_layers=1, num_heads=4, ff_size=48,
                                          max_len=32), seed=1)
    cfg = FinetuneConfig(epochs=2, batch_size=32, pair_max_len=32, entity_max_len=16)
    with pytest.raises(ValueError, match="empty valid split"):
        run_finetune(kg, pair_vocab, enc, cfg)
