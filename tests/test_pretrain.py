import copy
import dataclasses
import json
import math

import numpy as np
import pytest

import kglp
from kglp import pretrain
from kglp.layers import cross_entropy, per_row_nll
from kglp.optim import AdamW
from kglp.pretrain import (PretrainConfig, TrainingDiverged, pretrain_step,
                           run_pretraining, validation_loss)
from kglp.sampling import MRM, build_pretrain_sample, derive_rng
from kglp.text import PAD_ID, TokenizedCatalog, trim_width

from util import ForcedRng, reference_pretrain_losses, reference_run_pretraining


@pytest.fixture(scope="module")
def pair_cat(pair_kg, pair_vocab):
    return TokenizedCatalog(pair_kg, pair_vocab)


def small_encoder(vocab_size, seed=1, dropout=0.1):
    return kglp.Encoder(kglp.EncoderConfig(
        vocab_size=vocab_size, hidden_size=48, num_layers=2, num_heads=4,
        ff_size=96, max_len=32, dropout=dropout), seed=seed)


def make_batch(pair_kg, pair_cat, n=8, seed=0, mlm_only=False):
    train = pair_kg.splits["train"]
    return [build_pretrain_sample(train[i % len(train)], pair_cat, 32,
                                  derive_rng(seed, 0, i), mlm_only=mlm_only)
            for i in range(n)]


def test_cross_entropy_uniform_logits_closed_form():
    logits = np.zeros((7, 100))
    loss, _ = cross_entropy(logits, np.arange(7))
    assert loss == pytest.approx(math.log(100), abs=1e-6)
    assert loss == pytest.approx(4.605170185988091, abs=1e-6)


def test_cross_entropy_perfect_prediction_is_zero():
    targets = np.array([3, 1, 4])
    logits = np.full((3, 10), -1e4)
    logits[np.arange(3), targets] = 1e4
    loss, _ = cross_entropy(logits, targets)
    assert loss == pytest.approx(0.0, abs=1e-6)


def test_cross_entropy_empty_is_zero_not_nan():
    loss, dlogits = cross_entropy(np.zeros((0, 5)), np.zeros(0, dtype=int))
    assert loss == 0.0
    assert dlogits.shape == (0, 5)


def test_per_row_nll_is_log_softmax_and_its_gradient(rng):
    logits = rng.normal(size=(6, 9)) * 3.0
    targets = rng.integers(0, 9, size=6)
    nll, grad = per_row_nll(logits, targets)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    np.testing.assert_allclose(nll, -log_probs[np.arange(6), targets], rtol=1e-12)
    np.testing.assert_allclose(grad, np.exp(log_probs) - np.eye(9)[targets], atol=1e-12)
    loss, dlogits = cross_entropy(logits, targets)
    assert loss == float(nll.mean())
    np.testing.assert_array_equal(dlogits, grad / 6)


def test_one_nll_pass_matches_per_term_cross_entropy(pair_kg, pair_cat, pair_vocab):
    enc = small_encoder(pair_vocab.size)
    samples = make_batch(pair_kg, pair_cat, n=8, seed=4)
    grads = enc.zero_grads()
    mlm, mim, (_, d_states, task_losses) = pretrain._batch_losses(
        enc, samples, train=False, grads=grads)

    # the two-pass form: one cross-entropy per term, rows scattered back
    width = trim_width([s.layout.length for s in samples], samples[0].x.shape[0])
    x, mask, y1, y2 = (np.stack([getattr(s, name)[:width] for s in samples])
                       for name in ("x", "mask", "y1", "y2"))
    states, _ = enc.forward(x, mask, train=False)
    pos1, pos2 = y1 != PAD_ID, y2 != PAD_ID
    assert pos1.any() and pos2.any() and not (pos1 & pos2).any()
    pos_any = pos1 | pos2
    sel1, sel2 = pos1[pos_any], pos2[pos_any]
    logits, head_cache = enc.predict_tokens(states[pos_any], train=False)
    want_mim, dlog1 = cross_entropy(logits[sel1], y1[pos1])
    want_mlm, dlog2 = cross_entropy(logits[sel2], y2[pos2])
    dlogits = np.zeros_like(logits)
    dlogits[sel1] = dlog1
    dlogits[sel2] = dlog2
    want_grads = enc.zero_grads()
    _, want_states = enc.head_backward(head_cache, dlogits, want_grads)

    assert (mlm, mim) == (want_mlm, want_mim)
    for name, g in want_grads.items():
        np.testing.assert_array_equal(grads[name], g)
    np.testing.assert_array_equal(d_states, want_states)
    nll, _ = per_row_nll(logits[sel1], y1[pos1])
    tasks = np.array([samples[row].task for row in np.nonzero(pos1)[0]])
    assert task_losses == {t: float(nll[tasks == t].mean())
                           for t in dict.fromkeys(tasks.tolist())}


def test_pretrain_step_updates_and_reports(pair_kg, pair_cat, pair_vocab):
    enc = small_encoder(pair_vocab.size)
    opt = AdamW({"linear": 1e-4, "attention": 5e-5})
    samples = make_batch(pair_kg, pair_cat, n=8)
    before = {k: v.copy() for k, v in enc.params.items()}
    report = pretrain_step(samples, enc, opt, 1.0, rng=np.random.default_rng(0))
    assert report.total == report.mlm_loss + report.mim_loss
    assert report.mim_loss > 0
    assert sum(report.task_counts.values()) == 8
    assert any((enc.params[k] != before[k]).any() for k in before)


def test_pretrain_step_empty_batch_rejected(pair_kg, pair_cat, pair_vocab):
    enc = small_encoder(pair_vocab.size)
    opt = AdamW({"linear": 1e-4, "attention": 5e-5})
    with pytest.raises(ValueError, match="empty"):
        pretrain_step([], enc, opt, 1.0)


def test_zero_target_term_is_zero_not_nan(pair_kg, pair_cat, pair_vocab):
    # MRM with an rng that never selects MLM positions: mlm term must be 0
    enc = small_encoder(pair_vocab.size, dropout=0.0)
    opt = AdamW({"linear": 1e-4, "attention": 5e-5})
    train = pair_kg.splits["train"]
    samples = [build_pretrain_sample(train[i], pair_cat, 32, ForcedRng(0.9))
               for i in range(4)]
    report = pretrain_step(samples, enc, opt, 1.0)
    assert report.mlm_loss == 0.0
    assert math.isfinite(report.mim_loss) and report.mim_loss > 0
    assert report.task_counts == {MRM: 4}
    # an all-MRM batch's item loss IS the relation-masking branch
    assert set(report.task_losses) == {MRM}
    assert report.task_losses[MRM] == pytest.approx(report.mim_loss, rel=1e-9)


def test_mlm_only_batch_has_zero_item_loss(pair_kg, pair_cat, pair_vocab):
    enc = small_encoder(pair_vocab.size, dropout=0.0)
    opt = AdamW({"linear": 1e-4, "attention": 5e-5})
    samples = make_batch(pair_kg, pair_cat, n=6, mlm_only=True)
    report = pretrain_step(samples, enc, opt, 1.0)
    assert report.mim_loss == 0.0
    assert report.mlm_loss > 0


def test_divergence_raises_with_diagnostics(pair_kg, pair_vocab):
    enc = small_encoder(pair_vocab.size)
    enc.params["tok_emb"][...] = np.inf
    cfg = PretrainConfig(epochs=1, batch_size=4, max_len=32, seed=0)
    with pytest.raises(TrainingDiverged) as err, np.errstate(invalid="ignore"):
        run_pretraining(pair_kg, pair_vocab, enc, cfg)
    assert err.value.step == 0
    assert len(err.value.batch_ids) == 4
    assert "linear" in err.value.lrs


def test_one_batch_overfit_drives_loss_below_0p1(pair_kg, pair_cat, pair_vocab):
    enc = small_encoder(pair_vocab.size, dropout=0.0)
    opt = AdamW({"linear": 1e-3, "attention": 1e-3})
    samples = make_batch(pair_kg, pair_cat, n=8, seed=3)
    final = None
    for step in range(500):
        final = pretrain_step(samples, enc, opt, 1.0)
        if final.total < 0.1:
            break
    assert final.total < 0.1, f"loss stuck at {final.total}"


def test_task_ratio_over_one_epoch(pair_cat, pair_kg):
    # an epoch at benchmark scale: >= 10^4 samples
    train = pair_kg.splits["train"]
    counts = {"mem_head": 0, "mem_tail": 0, "mrm": 0}
    n = 10_432
    for i in range(n):
        s = build_pretrain_sample(train[i % len(train)], pair_cat, 32,
                                  derive_rng(0, 1, i))
        counts[s.task] += 1
    assert abs(counts["mem_head"] / n - 0.4) < 0.02
    assert abs(counts["mem_tail"] / n - 0.4) < 0.02
    assert abs(counts["mrm"] / n - 0.2) < 0.02


def test_reproducible_loss_trajectory_first_10_steps(pair_kg, pair_vocab, pair_cat):
    def run_steps():
        enc = small_encoder(pair_vocab.size, seed=4)
        opt = AdamW({"linear": 1e-4, "attention": 5e-5})
        rng = np.random.default_rng(99)
        losses = []
        train = pair_kg.splits["train"]
        for step in range(10):
            samples = [build_pretrain_sample(train[(step * 8 + j) % len(train)],
                                             pair_cat, 32, derive_rng(0, 0, step * 8 + j))
                       for j in range(8)]
            losses.append(pretrain_step(samples, enc, opt, 1.0, rng=rng).total)
        return losses

    assert run_steps() == run_steps()


def test_early_stop_exactly_patience_epochs_after_best(pair_kg, pair_vocab):
    # zero learning: validation loss never improves after the first epoch
    enc = small_encoder(pair_vocab.size, dropout=0.0)
    cfg = PretrainConfig(epochs=20, batch_size=64, max_len=32, seed=0,
                         lr_linear=1e-30, lr_attention=1e-30, patience=3)
    history = run_pretraining(pair_kg, pair_vocab, enc, cfg)
    assert len(history) == 4  # best at epoch 0, then exactly 3 bad epochs
    assert history[0]["best"] is True
    assert all(h["best"] is False for h in history[1:])


def test_run_pretraining_improves_validation_loss(pair_kg, pair_vocab):
    enc = small_encoder(pair_vocab.size)
    cfg = PretrainConfig(epochs=4, batch_size=16, max_len=32, seed=1,
                         lr_linear=1e-3, lr_attention=5e-4, patience=10)
    history = run_pretraining(pair_kg, pair_vocab, enc, cfg)
    assert len(history) == 4
    vals = [h["val_total"] for h in history]
    # validation total loss strictly decreases over the first 3 epochs
    assert vals[1] < vals[0]
    assert vals[2] < vals[1]


def test_run_pretraining_restores_best_params(pair_kg, pair_vocab, tmp_path):
    enc = small_encoder(pair_vocab.size)
    cfg = PretrainConfig(epochs=3, batch_size=32, max_len=32, seed=2,
                         lr_linear=1e-3, lr_attention=5e-4, patience=10)
    log_path = tmp_path / "log.jsonl"
    history = run_pretraining(pair_kg, pair_vocab, enc, cfg, log_path=log_path)
    cat = TokenizedCatalog(pair_kg, pair_vocab)
    val_mlm, val_mim = validation_loss(enc, cat, pair_kg.splits["valid"], cfg)
    best = min(h["val_total"] for h in history)
    assert val_mlm + val_mim == pytest.approx(best, abs=1e-9)
    # structured log exists and parses
    import json
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    step_records = [r for r in records if "step" in r]
    assert step_records and {"step", "lr_linear", "lr_attention", "mlm_loss",
                             "mim_loss", "tasks"} <= set(step_records[0])


def test_pretrain_step_losses_match_reference_trim(pair_kg, pair_cat, pair_vocab):
    enc = small_encoder(pair_vocab.size)
    opt = AdamW({"linear": 1e-3, "attention": 5e-5})
    rng = np.random.default_rng(5)
    for step in range(3):
        samples = make_batch(pair_kg, pair_cat, n=8, seed=step)
        want = reference_pretrain_losses(copy.deepcopy(enc), samples,
                                         copy.deepcopy(rng))
        report = pretrain_step(samples, enc, opt, 1.0, rng=rng)
        assert (report.mlm_loss, report.mim_loss) == want


def test_run_pretraining_matches_reference_loop(pair_kg, pair_vocab, tmp_path):
    # a high learning rate overshoots after epoch 3, so early stop fires and
    # the restored parameters are not the last epoch's
    cfg = PretrainConfig(epochs=8, batch_size=32, max_len=32, seed=3, lr_linear=1e-2,
                         lr_attention=1e-2, patience=1, log_every=3)
    runs = []
    for run in (reference_run_pretraining, run_pretraining):
        enc = kglp.Encoder(kglp.EncoderConfig(
            vocab_size=pair_vocab.size, hidden_size=32, num_layers=1, num_heads=4,
            ff_size=48, max_len=32), seed=1)
        log_path = tmp_path / f"{run.__name__}.jsonl"
        history = run(pair_kg, pair_vocab, enc, cfg, log_path=log_path)
        log = [json.loads(line) for line in log_path.read_text().splitlines()]
        runs.append((enc, history, log))
    (want_enc, want_history, want_log), (enc, history, log) = runs

    assert len(history) < cfg.epochs
    assert [h["best"] for h in history][-2:] == [True, False]
    assert history == want_history
    for name in ("params", "buffers"):
        want, got = getattr(want_enc, name), getattr(enc, name)
        assert want.keys() == got.keys()
        assert all(np.array_equal(want[k], got[k]) for k in want), name
    assert [{k: v for k, v in r.items() if k not in ("grad_norm", "clipped")}
            for r in log] == want_log
    steps = [r for r in log if "step" in r]
    assert all(r["clipped"] == (r["grad_norm"] > cfg.clip_norm) for r in steps)
    assert any(r["clipped"] for r in steps)


def test_run_pretraining_divergence_matches_reference(pair_kg, pair_vocab, monkeypatch):
    real_step = pretrain.pretrain_step
    calls = []

    def diverge_at_fifth_call(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            raise TrainingDiverged(-1, {}, [])
        return real_step(*args, **kwargs)

    monkeypatch.setattr(pretrain, "pretrain_step", diverge_at_fifth_call)
    cfg = PretrainConfig(epochs=2, batch_size=64, max_len=32, seed=0)
    errors = []
    for run in (reference_run_pretraining, run_pretraining):
        calls.clear()
        with pytest.raises(TrainingDiverged) as err:
            run(pair_kg, pair_vocab, small_encoder(pair_vocab.size), cfg)
        errors.append((err.value.step, err.value.lrs, err.value.batch_ids))
    assert errors[0][0] == 4
    assert errors[1] == errors[0]


def test_empty_valid_split_rejected_before_any_step(pair_kg, pair_vocab, monkeypatch):
    train = pair_kg.splits["train"] + pair_kg.splits["valid"]
    kg = dataclasses.replace(pair_kg, splits=dict(pair_kg.splits, train=train, valid=[]))
    monkeypatch.setattr(pretrain, "pretrain_step", None)  # any step call would fail
    cfg = PretrainConfig(epochs=6, batch_size=64, max_len=32, patience=2)
    with pytest.raises(ValueError, match="empty valid split"):
        run_pretraining(kg, pair_vocab, small_encoder(pair_vocab.size), cfg)


def test_step_log_lines_are_whole_while_training(pair_kg, pair_vocab, tmp_path,
                                                 monkeypatch):
    real_step = pretrain.pretrain_step
    log_path = tmp_path / "log.jsonl"
    seen = []

    def read_log_at_third_call(*args, **kwargs):
        seen.append(log_path.read_text())
        return real_step(*args, **kwargs)

    monkeypatch.setattr(pretrain, "pretrain_step", read_log_at_third_call)
    cfg = PretrainConfig(epochs=1, batch_size=64, max_len=32, log_every=1)
    run_pretraining(pair_kg, pair_vocab, small_encoder(pair_vocab.size), cfg,
                    log_path=log_path)
    text = seen[2]
    assert text.endswith("\n")
    assert [json.loads(line)["step"] for line in text.splitlines()] == [0, 1]


def test_grad_norm_is_the_norm_before_clipping(pair_kg, pair_cat, pair_vocab):
    samples = make_batch(pair_kg, pair_cat, n=8)
    enc = small_encoder(pair_vocab.size)
    norms = {}
    for clip_norm in (0.0, 1e-3, 1e9):
        opt = AdamW({"linear": 1e-4, "attention": 5e-5})
        report = pretrain_step(samples, copy.deepcopy(enc), opt, 1.0,
                               rng=np.random.default_rng(0), clip_norm=clip_norm)
        norms[clip_norm] = report.grad_norm
    assert norms[0.0] is None  # clipping off: the norm is never computed
    assert norms[1e-3] == norms[1e9] > 1e-3
