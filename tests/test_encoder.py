import dataclasses
import hashlib
import json

import numpy as np
import pytest

from kglp.encoder import (CheckpointError, Encoder, EncoderConfig, cls_positions,
                          init_params, load_checkpoint, param_group, param_layout,
                          save_checkpoint)
from kglp import layers
from kglp.layers import cross_entropy, scatter_add_rows

from util import reference_scatter_add_rows, rel_error, two_buffer_backward


CFG = EncoderConfig(vocab_size=40, hidden_size=32, num_layers=2, num_heads=4,
                    ff_size=48, max_len=24, dropout=0.0)


def batch(rng, n=3, s=10, vocab=40):
    tokens = rng.integers(5, vocab, size=(n, s))
    tokens[:, 0] = 2
    mask = np.ones((n, s), dtype=np.int8)
    mask[0, 7:] = 0
    mask[1, 5:] = 0
    tokens[mask == 0] = 0
    return tokens, mask


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        EncoderConfig(vocab_size=10, hidden_size=30, num_heads=4)
    with pytest.raises(ValueError, match=">= 1"):
        EncoderConfig(vocab_size=0)
    with pytest.raises(ValueError, match="dropout"):
        EncoderConfig(vocab_size=10, dropout=1.5)


def test_num_parameters_matches_actual():
    params, _ = init_params(CFG, seed=0)
    assert CFG.num_parameters() == sum(p.size for p in params.values())


def test_param_layout_lists_every_parameter_in_order():
    params, _ = init_params(CFG, seed=0)
    assert [(n, p.shape) for n, p in params.items()] == [
        (n, shape) for n, (shape, _) in param_layout(CFG).items()]


def test_param_groups():
    assert param_group("head.w2") == "linear"
    assert param_group("head.bn.g") == "linear"
    assert param_group("tok_emb") == "attention"
    assert param_group("blk1.attn.wq") == "attention"


def test_padding_invariance_exact(rng):
    enc = Encoder(CFG, seed=3)
    content = [2, 7, 8, 9, 3]
    t1 = np.array([content + [0] * 3])
    t2 = np.array([content + [0] * 12])
    p1 = enc.encode(t1, (t1 != 0).astype(np.int8))
    p2 = enc.encode(t2, (t2 != 0).astype(np.int8))
    assert (p1 == p2).all()


def test_degenerate_all_pad_except_cls():
    enc = Encoder(CFG, seed=3)
    tokens = np.array([[2] + [0] * 9])
    mask = (tokens != 0).astype(np.int8)
    assert np.isfinite(enc.forward(tokens, mask)[0]).all()
    assert np.isfinite(enc.encode(tokens, mask)).all()


def test_position_embeddings_are_active(rng):
    enc = Encoder(CFG, seed=3)
    tokens = rng.integers(5, 40, size=(1, 8))
    tokens[0, 0] = 2
    tokens[0, 2] = (tokens[0, 1] % 30) + 6  # ensure the two tokens differ
    mask = np.ones((1, 8), dtype=np.int8)
    swapped = tokens.copy()
    swapped[0, 1], swapped[0, 2] = tokens[0, 2], tokens[0, 1]
    assert tokens[0, 1] != tokens[0, 2]
    out1 = enc.encode(tokens, mask)
    out2 = enc.encode(swapped, mask)
    assert not np.allclose(out1, out2)


def test_token_id_out_of_range(rng):
    enc = Encoder(CFG, seed=0)
    tokens, mask = batch(rng)
    tokens[0, 1] = CFG.vocab_size
    with pytest.raises(ValueError, match="out of range"):
        enc.encode(tokens, mask)


def test_sequence_longer_than_max_len(rng):
    enc = Encoder(CFG, seed=0)
    tokens, mask = batch(rng, s=CFG.max_len + 1)
    with pytest.raises(ValueError, match="max_len"):
        enc.encode(tokens, mask)


def test_attention_rows_sum_to_one_over_non_pad(rng):
    enc = Encoder(CFG, seed=5)
    tokens, mask = batch(rng)
    _, cache = enc.forward(tokens, mask)
    for blk in cache["blocks"]:
        attn = blk["attn"]  # (B, H, S, S)
        sums = attn.sum(axis=-1)
        assert np.allclose(sums, 1.0, atol=1e-5)
        # masked keys receive exactly zero attention
        key_mask = mask.astype(bool)
        for b in range(tokens.shape[0]):
            assert (attn[b][:, :, ~key_mask[b]] == 0.0).all()


def test_inference_determinism_bit_exact(rng):
    enc = Encoder(CFG, seed=7)
    tokens, mask = batch(rng)
    assert (enc.forward(tokens, mask)[0] == enc.forward(tokens, mask)[0]).all()
    assert (enc.encode(tokens, mask) == enc.encode(tokens, mask)).all()


def test_pooled_is_cls_state(rng):
    enc = Encoder(CFG, seed=7)
    tokens, mask = batch(rng)
    assert (enc.encode(tokens, mask) == enc.forward(tokens, mask)[0][:, 0]).all()


def test_init_determinism():
    p1, b1 = init_params(CFG, seed=11)
    p2, b2 = init_params(CFG, seed=11)
    p3, _ = init_params(CFG, seed=12)
    assert all((p1[k] == p2[k]).all() for k in p1)
    assert all((b1[k] == b2[k]).all() for k in b1)
    assert any((p1[k] != p3[k]).any() for k in p1)


#: sha256 over every initial tensor (name, shape, dtype, bytes, in dict order)
#: of ``init_params(config, seed=0)``; a reordered or reshaped layout changes it
_INIT_DIGESTS = {
    ("CFG", "float32"): "c42b38f51a1a3389ee09c80e5b7929cc182157f7d4fb3a430a2cc085adaee9c2",
    ("CFG", "float64"): "779be2c1c7652a52c2034b086f1d95577879adaba2781a64e70a93b3d4792004",
    ("CFG3", "float32"): "ab9135f18661558df0c0cbf84747a02672af172c7e876eefba00a01cd6225a36",
    ("CFG3", "float64"): "397920674c7bb7363a7b9ec6ceec8dea1e0bd2ed6ab5d498e0328be1fbce6463",
}
_CFG3 = EncoderConfig(vocab_size=17, hidden_size=16, num_layers=3, num_heads=2,
                      ff_size=20, max_len=10, dropout=0.0)


@pytest.mark.parametrize("name, config", [("CFG", CFG), ("CFG3", _CFG3)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_params_are_pinned(name, config, dtype):
    params, buffers = init_params(config, seed=0, dtype=dtype)
    digest = hashlib.sha256()
    for tensor_name, arr in {**params, **buffers}.items():
        assert arr.dtype == dtype, tensor_name
        digest.update(f"{tensor_name}{arr.shape}{arr.dtype}".encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest() == _INIT_DIGESTS[name, np.dtype(dtype).name]


def test_dropout_needs_rng():
    enc = Encoder(EncoderConfig(vocab_size=10, hidden_size=8, num_layers=1,
                                num_heads=2, ff_size=8, max_len=8, dropout=0.5), seed=0)
    tokens = np.array([[2, 5, 3]])
    mask = np.ones_like(tokens, dtype=np.int8)
    with pytest.raises(ValueError, match="rng"):
        enc.forward(tokens, mask, train=True)


def test_predict_tokens_shapes_and_zero_case(rng):
    enc = Encoder(CFG, seed=1)
    states = rng.standard_normal((6, CFG.hidden_size)).astype(np.float32)
    logits, _ = enc.predict_tokens(states, train=False)
    assert logits.shape == (6, CFG.vocab_size)
    batched, _ = enc.predict_tokens(states.reshape(2, 3, -1), train=False)
    assert batched.shape == (2, 3, CFG.vocab_size)

    for name in ("head.w1", "head.b1", "head.bn.b", "head.w2", "head.b2"):
        enc.params[name][...] = 0.0
    zero_states = np.zeros((4, CFG.hidden_size), dtype=np.float32)
    for train in (False, True):
        logits, _ = enc.predict_tokens(zero_states, train=train)
        assert (logits == 0.0).all()


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    enc = Encoder(CFG, seed=9)
    path = tmp_path / "enc.npz"
    save_checkpoint(enc, path)
    loaded = load_checkpoint(path)
    assert loaded.config == CFG
    assert set(loaded.params) == set(enc.params)
    for name in enc.params:
        assert (loaded.params[name] == enc.params[name]).all()
    for name in enc.buffers:
        assert (loaded.buffers[name] == enc.buffers[name]).all()


def test_checkpoint_corrupted_header(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"this is not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "old.npz"
    meta = {"format": "kglp.ckpt.v999", "config": {"vocab_size": 10}}
    np.savez(path, __meta__=np.array(json.dumps(meta)))
    with pytest.raises(CheckpointError, match="v999"):
        load_checkpoint(path)


def test_checkpoint_without_meta(tmp_path):
    path = tmp_path / "stray.npz"
    np.savez(path, foo=np.zeros(3))
    with pytest.raises(CheckpointError, match="meta"):
        load_checkpoint(path)


def test_checkpoint_config_with_an_unknown_field_is_refused(tmp_path):
    path = tmp_path / "newer.npz"
    save_checkpoint(Encoder(CFG, seed=9), path)
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays["__meta__"]))
    meta["config"]["compute_dtype"] = "float32"
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError, match="compute_dtype"):
        load_checkpoint(path)


def _drop(params, buffers):
    del params["blk0.ff.w2"]


def _extra(params, buffers):
    params["blk0.ff.w3"] = np.zeros((48, 32), dtype=np.float32)


def _reshape(params, buffers):
    params["blk0.ff.w1"] = np.zeros((32, 40), dtype=np.float32)


def _drop_buffer(params, buffers):
    del buffers["head.bn.var"]


def _int_tok_emb(params, buffers):
    params["tok_emb"] = params["tok_emb"].astype(np.int64)


def _float64_w1(params, buffers):
    params["blk0.ff.w1"] = params["blk0.ff.w1"].astype(np.float64)


@pytest.mark.parametrize("edit, config, message", [
    (_drop, CFG, "tensor blk0.ff.w2 is None, its config wants (48, 32)"),
    (_extra, CFG, "tensor blk0.ff.w3 is (48, 32), its config wants None"),
    (_reshape, CFG, "tensor blk0.ff.w1 is (32, 40), its config wants (32, 48)"),
    (_drop_buffer, CFG, "buffer head.bn.var is None, its config wants (32,)"),
    (None, dataclasses.replace(CFG, num_layers=3),
     "tensor blk2.attn.wq is None, its config wants (32, 32)"),
    (_int_tok_emb, CFG, "tensor tok_emb is int64, not a floating dtype"),
    (_float64_w1, CFG, "tensor blk0.ff.w1 is float64, tok_emb is float32"),
])
def test_checkpoint_with_other_tensors_than_its_config_is_refused(tmp_path, edit, config,
                                                                  message):
    enc = Encoder(CFG, seed=9)
    if edit is not None:
        edit(enc.params, enc.buffers)
    enc.config = config
    path = tmp_path / "bad.npz"
    save_checkpoint(enc, path)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("edit, message", [
    (_drop, "tensor blk0.ff.w2 is None, its config wants (48, 32)"),
    (_float64_w1, "tensor blk0.ff.w1 is float64, tok_emb is float32"),
    (_drop_buffer, "buffer head.bn.var is None, its config wants (32,)"),
])
def test_encoder_refuses_tensors_other_than_its_layout(edit, message):
    params, buffers = init_params(CFG, seed=0)
    edit(params, buffers)
    with pytest.raises(ValueError) as info:
        Encoder(CFG, params=params, buffers=buffers)
    assert str(info.value) == message


def test_encoder_given_params_alone_makes_buffers_of_their_dtype():
    params, _ = init_params(CFG, seed=0, dtype=np.float64)
    enc = Encoder(CFG, params=params)
    assert enc.dtype == np.float64
    assert all(b.dtype == np.float64 for b in enc.buffers.values())


def _gradcheck_setup():
    cfg = EncoderConfig(vocab_size=23, hidden_size=16, num_layers=2, num_heads=4,
                        ff_size=24, max_len=12, dropout=0.0)
    enc = Encoder(cfg, seed=5, dtype=np.float64)
    # move off the tiny-init point so the check runs at a generic, well-scaled spot
    for v in enc.params.values():
        if v.ndim >= 2:
            v *= 6.0
    rng = np.random.default_rng(0)
    tokens = rng.integers(5, 23, size=(3, 9))
    tokens[:, 0] = 2
    mask = np.ones((3, 9), dtype=np.int8)
    mask[0, 6:] = 0
    mask[1, 7:] = 0
    tokens[mask == 0] = 0
    probe = rng.standard_normal((3, 9, 16))
    target_pos = np.zeros((3, 9), dtype=bool)
    target_pos[0, 1:4] = True
    target_pos[1, 2:5] = True
    target_pos[2, 3:8] = True
    targets = rng.integers(5, 23, size=int(target_pos.sum()))
    return enc, tokens, mask, probe, target_pos, targets


def test_gradcheck_encoder_and_head_against_finite_differences():
    """Backprop vs central differences, >= 20 sampled parameters, <= 1e-4."""
    enc, tokens, mask, probe, target_pos, targets = _gradcheck_setup()
    buffers0 = {k: v.copy() for k, v in enc.buffers.items()}

    def loss_value():
        states, _ = enc.forward(tokens, mask, train=True)
        logits, _ = enc.predict_tokens(states[target_pos], train=True)
        ce, _ = cross_entropy(logits, targets)
        loss = ce + float((states * probe).sum())
        enc.buffers = {k: v.copy() for k, v in buffers0.items()}
        return loss

    states, cache = enc.forward(tokens, mask, train=True)
    logits, head_cache = enc.predict_tokens(states[target_pos], train=True)
    ce, dlogits = cross_entropy(logits, targets)
    head_grads, dstates = enc.head_backward(head_cache, dlogits)
    d_token_states = probe.copy()
    d_token_states[target_pos] += dstates
    grads = enc.backward(cache, d_states=d_token_states)
    for name, g in head_grads.items():
        grads[name] += g
    enc.buffers = {k: v.copy() for k, v in buffers0.items()}

    eps = 1e-6
    pick = np.random.default_rng(42)
    checked = 0
    for name in enc.params:
        p = enc.params[name]
        for _ in range(2):
            idx = tuple(pick.integers(0, s) for s in p.shape)
            orig = p[idx]
            p[idx] = orig + eps
            lp = loss_value()
            p[idx] = orig - eps
            lm = loss_value()
            p[idx] = orig
            numeric = (lp - lm) / (2 * eps)
            assert rel_error(numeric, grads[name][idx]) <= 1e-4, \
                f"{name}[{idx}]: numeric {numeric} vs analytic {grads[name][idx]}"
            checked += 1
    assert checked >= 20


def test_batchnorm_running_stats_update_only_in_training(rng):
    enc = Encoder(CFG, seed=2)
    states = rng.standard_normal((16, CFG.hidden_size)).astype(np.float32)
    before = enc.buffers["head.bn.mean"].copy()
    enc.predict_tokens(states, train=False)
    assert (enc.buffers["head.bn.mean"] == before).all()
    enc.predict_tokens(states, train=True)
    assert (enc.buffers["head.bn.mean"] != before).any()


def test_float32_params_compute_in_float64_after_first_gelu(rng):
    """Pins the precision the encoder actually runs at under NumPy 2 promotion.

    A change here changes the numbers the model computes, not only their
    summation order.
    """
    enc = Encoder(CFG, seed=7)
    assert all(p.dtype == np.float32 for p in enc.params.values())
    tokens, mask = batch(rng)
    states, cache = enc.forward(tokens, mask, train=False)
    assert states.dtype == np.float64
    assert enc.encode(tokens, mask).dtype == np.float64
    logits, _ = enc.predict_tokens(states[:, 1], train=False)
    assert logits.dtype == np.float64
    d_states = np.zeros_like(states)
    d_states[:, 0] = 1.0
    grads = enc.backward(cache, d_states)
    assert all(grads[k].dtype == np.float32 for k in enc.params)


def test_scatter_add_rows_matches_unbuffered_reference(rng):
    table = rng.standard_normal((40, 8)).astype(np.float32)
    ids = rng.integers(0, 12, size=(6, 20))  # few distinct ids, many repeats
    rows = rng.standard_normal((6, 20, 8))   # float64, as the backward delivers
    ref = table.copy()
    reference_scatter_add_rows(ref, ids, rows)
    scatter_add_rows(table, ids, rows)
    np.testing.assert_allclose(table, ref, rtol=1e-5, atol=1e-5)
    untouched = np.setdiff1d(np.arange(40), ids)
    assert np.array_equal(table[untouched], ref[untouched])


def _finetune_passes(rng):
    """An encoder and the (forward cache, d_states) of a fine-tuning step's
    query and candidate passes, each a forward of the [CLS] rows."""
    cfg = EncoderConfig(vocab_size=40, hidden_size=32, num_layers=2, num_heads=4,
                        ff_size=48, max_len=24, dropout=0.1)
    enc = Encoder(cfg, seed=3)
    drop = np.random.default_rng(5)
    pair_states, pair_cache = enc.forward(*batch(rng, n=5, s=12), train=True, rng=drop,
                                          positions=cls_positions(5))
    ent_states, ent_cache = enc.forward(*batch(rng, n=5, s=8), train=True, rng=drop,
                                        positions=cls_positions(5))
    return enc, [(pair_cache, rng.standard_normal(pair_states.shape)),
                 (ent_cache, rng.standard_normal(ent_states.shape))]


def test_one_buffer_finetune_backward_matches_two_buffer_merge(rng):
    enc, passes = _finetune_passes(rng)
    (pair_cache, dpair), (ent_cache, dent) = passes
    grads = enc.backward(pair_cache, dpair)
    assert enc.backward(ent_cache, dent, grads=grads) is grads

    ref = two_buffer_backward(enc, passes)
    assert list(grads) == list(ref) == list(enc.params)
    for name in enc.params:
        assert np.array_equal(grads[name], ref[name]), name


def test_finetune_backward_scatter_matches_unbuffered_reference(rng, monkeypatch):
    enc, passes = _finetune_passes(rng)
    (pair_cache, dpair), (ent_cache, dent) = passes
    grads = enc.backward(pair_cache, dpair)
    enc.backward(ent_cache, dent, grads=grads)

    monkeypatch.setattr(layers, "scatter_add_rows", reference_scatter_add_rows)
    ref = two_buffer_backward(enc, passes)
    for name in enc.params:
        if name in ("tok_emb", "pos_emb"):  # both are scatters
            np.testing.assert_allclose(grads[name], ref[name], rtol=1e-5, atol=1e-6)
        else:
            assert np.array_equal(grads[name], ref[name]), name
