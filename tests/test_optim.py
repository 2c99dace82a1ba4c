import math
import re

import numpy as np
import pytest

import kglp
from kglp.config import ConfigError, load_run_config
from kglp.layers import clip_global_norm
from kglp.optim import AdamW, warmup_linear_decay

from util import reference_adamw_step, reference_clip_global_norm


def test_schedule_endpoints():
    total, frac = 1000, 0.05
    warmup = 50
    assert warmup_linear_decay(0, total, frac) == 0.0
    assert warmup_linear_decay(warmup, total, frac) == 1.0
    assert warmup_linear_decay(total, total, frac) == 0.0
    # strictly increasing through warmup, non-increasing after
    ramp = [warmup_linear_decay(s, total, frac) for s in range(warmup + 1)]
    assert all(b > a for a, b in zip(ramp, ramp[1:]))
    decay = [warmup_linear_decay(s, total, frac) for s in range(warmup, total + 1)]
    assert all(b <= a for a, b in zip(decay, decay[1:]))


def test_schedule_degenerate_totals():
    assert warmup_linear_decay(5, 0, 0.05) == 1.0
    assert warmup_linear_decay(0, 1, 0.0) == 0.0  # warmup floor of one step
    assert warmup_linear_decay(1, 1, 0.0) == 1.0


def test_adamw_minimizes_quadratic():
    params = {"head.w": np.array([[5.0, -3.0]]), "blk0.x": np.array([[2.0]])}
    opt = AdamW({"linear": 0.1, "attention": 0.1}, weight_decay=0.0,
                group_fn=lambda n: "linear" if n.startswith("head") else "attention")
    for _ in range(400):
        grads = {k: 2.0 * v for k, v in params.items()}
        opt.step(params, grads, 1.0)
    assert np.abs(params["head.w"]).max() < 1e-3
    assert np.abs(params["blk0.x"]).max() < 1e-3


def test_adamw_group_rates_differ():
    params = {"head.w2": np.ones((2, 2)), "tok_emb": np.ones((2, 2))}
    opt = AdamW({"linear": 1e-2, "attention": 1e-4}, weight_decay=0.0)
    grads = {k: np.ones_like(v) for k, v in params.items()}
    opt.step(params, grads, 1.0)
    moved_linear = float(np.abs(1.0 - params["head.w2"]).max())
    moved_attention = float(np.abs(1.0 - params["tok_emb"]).max())
    assert moved_linear > 50 * moved_attention


def test_adamw_weight_decay_only_on_matrices():
    params = {"head.w2": np.full((2, 2), 3.0), "head.b2": np.full(2, 3.0)}
    opt = AdamW({"linear": 1e-2, "attention": 1e-2}, weight_decay=0.1)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    opt.step(params, grads, 1.0)
    assert (params["head.b2"] == 3.0).all()  # bias untouched by decay
    assert (params["head.w2"] < 3.0).all()


def test_adamw_lr_scale():
    params = {"tok_emb": np.ones((2, 2))}
    opt = AdamW({"linear": 1e-2, "attention": 1e-2}, weight_decay=0.0)
    opt.step(params, {"tok_emb": np.ones((2, 2))}, lr_scale=0.0)
    assert (params["tok_emb"] == 1.0).all()


def test_clip_global_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    clipped = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
    assert clipped == pytest.approx(1.0)
    # below the threshold nothing changes
    grads2 = {"a": np.array([0.3])}
    clip_global_norm(grads2, 1.0)
    assert grads2["a"][0] == pytest.approx(0.3)


def test_clip_global_norm_refuses_negative_max_norm():
    # a negative bound would scale by a negative factor: the gradients reverse
    grads = {"a": np.array([3.0, 4.0])}
    with pytest.raises(ValueError, match="max_norm"):
        clip_global_norm(grads, -1.0)
    assert grads["a"].tolist() == [3.0, 4.0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.01, 0.0])
def test_adamw_bit_identical_to_whole_array_reference(dtype, weight_decay):
    # sizes on both sides of the 32768-element block, none a multiple of it
    shapes = {"tok_emb": (300, 131), "blk0.attn.wq": (16, 16), "blk0.ln1.g": (16,),
              "head.w2": (16, 2049), "head.b2": (70001,), "head.bn.g": (5,)}
    rng = np.random.default_rng(7)
    params = {k: (rng.standard_normal(s) * 0.02).astype(dtype) for k, s in shapes.items()}
    ref_params = {k: v.copy() for k, v in params.items()}
    opt = AdamW({"linear": 1e-3, "attention": 5e-5}, weight_decay=weight_decay)
    ref = AdamW({"linear": 1e-3, "attention": 5e-5}, weight_decay=weight_decay)
    for step in range(6):
        grads = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
        lr_scale = warmup_linear_decay(step, 6, 0.3)
        opt.step(params, {k: g.copy() for k, g in grads.items()}, lr_scale)
        reference_adamw_step(ref, ref_params, grads, lr_scale)
    assert opt.t == ref.t
    for k in shapes:
        assert np.array_equal(params[k], ref_params[k]), k
        assert np.array_equal(opt.m[k], ref.m[k]), k
        assert np.array_equal(opt.v[k], ref.v[k]), k


@pytest.mark.parametrize("bad", ["parameter", "gradient", "moment", "dtype"])
def test_adamw_refuses_arrays_it_cannot_update_in_place(bad):
    params = {"tok_emb": np.ones((4, 6), dtype=np.float32)}
    grads = {"tok_emb": np.ones((4, 6), dtype=np.float32)}
    opt = AdamW({"linear": 1e-2, "attention": 1e-2})
    if bad == "parameter":
        params["tok_emb"] = np.ones((4, 12), dtype=np.float32)[:, ::2]
    elif bad == "gradient":
        grads["tok_emb"] = np.asfortranarray(grads["tok_emb"])
    elif bad == "moment":
        opt.step(params, grads, 1.0)
        opt.m["tok_emb"] = np.zeros((6, 4), dtype=np.float32).T
    else:
        grads["tok_emb"] = grads["tok_emb"].astype(np.float64)
    before = params["tok_emb"].copy()
    with pytest.raises(ValueError, match="tok_emb"):
        opt.step(params, grads, 1.0)
    assert np.array_equal(params["tok_emb"], before)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_clip_global_norm_matches_float64_copy_reference(dtype):
    rng = np.random.default_rng(3)
    shapes = [(3000, 128), (128,), (128, 129), (1,)]
    grads = {str(i): (rng.standard_normal(s) * 0.05).astype(dtype)
             for i, s in enumerate(shapes)}
    ref = {k: g.copy() for k, g in grads.items()}
    norm = clip_global_norm(grads, 1.0)
    ref_norm = reference_clip_global_norm(ref, 1.0)
    assert norm > 1.0
    assert abs(norm - ref_norm) <= 1e-12 * ref_norm
    # the scales agree to 1e-12, the scaled values to that plus rounding
    for k in grads:
        np.testing.assert_allclose(grads[k], ref[k],
                                   rtol=1e-12 + 2 * np.finfo(dtype).eps, atol=0)


_BAD_SCHEDULES = [("epochs", 0), ("batch_size", 0), ("lr_linear", 0.0),
                  ("lr_attention", -1e-5), ("warmup_frac", 1.0), ("clip_norm", -1.0),
                  ("weight_decay", -0.01), ("log_every", 0),
                  # step 0's warmup scale is 0, and 0 * inf puts NaN in the parameters
                  ("lr_linear", math.inf), ("lr_attention", math.inf),
                  ("weight_decay", math.inf)]


def _run_stage(stage, kg, vocab, log_path, **settings):
    """Run one training stage for an epoch on a 32-position encoder."""
    encoder = kglp.Encoder(kglp.EncoderConfig(vocab_size=vocab.size, hidden_size=32,
                                              num_layers=1, ff_size=48, max_len=32))
    if stage == "pretrain":
        config = kglp.PretrainConfig(**{"epochs": 1, "batch_size": 64, "max_len": 32,
                                        **settings})
        return kglp.run_pretraining(kg, vocab, encoder, config, log_path=log_path)
    config = kglp.FinetuneConfig(**{"epochs": 1, "batch_size": 64, "pair_max_len": 32,
                                    "entity_max_len": 16, **settings})
    return kglp.run_finetune(kg, vocab, encoder, config, log_path=log_path)


@pytest.mark.parametrize("stage, field, value", [
    *((stage, field, value) for stage in ("pretrain", "finetune")
      for field, value in _BAD_SCHEDULES),
    ("pretrain", "patience", 0), ("finetune", "eval_every", 0),
    ("pretrain", "max_len", 12), ("finetune", "pair_max_len", 12),
    ("finetune", "entity_max_len", 6), ("finetune", "alpha", 1.5),
    ("finetune", "gamma", -1.0), ("finetune", "gamma", math.inf),
    ("finetune", "negative_mode", "bogus"), ("finetune", "num_negatives", 0),
    pytest.param("finetune", "label_splits", ("trian",),
                 id="finetune-label_splits-trian")])
def test_runs_refuse_what_the_config_refuses(pair_kg, pair_vocab, tmp_path, stage,
                                             field, value):
    with pytest.raises(ConfigError, match=re.escape(f"{stage}.{field} must be")):
        load_run_config(None, {f"{stage}.{field}": str(value)})
    log_path = tmp_path / "log.jsonl"
    with pytest.raises(ValueError, match=f"^{field} must be"):
        _run_stage(stage, pair_kg, pair_vocab, log_path, **{field: value})
    assert not log_path.exists()


@pytest.mark.parametrize("stage", ["pretrain", "finetune"])
def test_runs_refuse_a_negative_seed_before_touching_the_log(pair_kg, pair_vocab,
                                                             tmp_path, stage):
    # the CLI sets the seed only at top level (`seed`), so this case is the library's
    log_path = tmp_path / "log.jsonl"
    log_path.write_text('{"step": 0}\n')
    with pytest.raises(ValueError, match="^seed must be"):
        _run_stage(stage, pair_kg, pair_vocab, log_path, seed=-1)
    assert log_path.read_text() == '{"step": 0}\n'
