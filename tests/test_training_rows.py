"""Training passes that compute real token rows only, against the grid oracle.

``Encoder.forward(..., positions=...)`` runs the position-wise layers on the
real rows and the last block past its attention on the asked-for rows only.
Its states and losses must equal, bit for bit, those of ``util``'s full-grid
forward, which gathers the same positions at the end; its gradients may differ
from the full-grid backward's only in the order of the weight-gradient sums,
and its dropout must draw the same rng stream.
"""

import re
from functools import partial

import numpy as np
import pytest

import kglp
from kglp import layers, pretrain
from kglp.encoder import Encoder, cls_positions
from kglp.data import build_filter_index
from kglp.finetune import FinetuneConfig, finetune_step
from kglp.layers import cross_entropy
from kglp.sampling import build_pretrain_sample, derive_rng
from kglp.text import TokenizedCatalog

from util import reference_grid_backward, reference_grid_forward, rel_error


def f64_encoder(vocab_size, num_layers=2, dropout=0.1, seed=5, max_len=32):
    return Encoder(kglp.EncoderConfig(vocab_size=vocab_size, hidden_size=16,
                                      num_layers=num_layers, num_heads=4, ff_size=24,
                                      max_len=max_len, dropout=dropout),
                   seed=seed, dtype=np.float64)


def padded_batch(rng, n=3, s=9, vocab=23):
    """Sequences of lengths 6, 7 and 9 (then all 9): PAD rows in the grid."""
    tokens = rng.integers(5, vocab, size=(n, s))
    tokens[:, 0] = 2
    mask = np.ones((n, s), dtype=np.int8)
    mask[0, 6:] = 0
    mask[1, 7:] = 0
    tokens[mask == 0] = 0
    return tokens, mask


def target_positions(mask):
    """A few real non-[CLS] positions per sequence, as pre-training targets."""
    target = np.zeros(mask.shape, dtype=bool)
    target[:, 1:4] = True
    target &= mask.astype(bool)
    return np.nonzero(target)


KINDS = {"cls": lambda mask: cls_positions(mask.shape[0]), "targets": target_positions}


@pytest.mark.parametrize("kind", KINDS)
def test_rows_path_gradcheck_against_finite_differences(kind):
    """Backprop through the rows path vs central differences, dropout on."""
    enc = f64_encoder(23)
    for v in enc.params.values():
        if v.ndim >= 2:
            v *= 6.0
    rng = np.random.default_rng(0)
    tokens, mask = padded_batch(rng)
    positions = KINDS[kind](mask)
    probe = rng.standard_normal((positions[0].size, 16))
    targets = rng.integers(5, 23, size=positions[0].size)
    buffers0 = {k: v.copy() for k, v in enc.buffers.items()}

    def loss_and_cache():
        states, cache = enc.forward(tokens, mask, train=True, rng=np.random.default_rng(7),
                                    positions=positions)
        logits, head_cache = enc.predict_tokens(states, train=True)
        ce, dlogits = cross_entropy(logits, targets)
        enc.buffers = {k: v.copy() for k, v in buffers0.items()}
        return ce + float((states * probe).sum()), cache, head_cache, dlogits

    _, cache, head_cache, dlogits = loss_and_cache()
    grads, dstates = enc.head_backward(head_cache, dlogits, enc.zero_grads())
    enc.backward(cache, dstates + probe, grads=grads)

    eps = 1e-6
    pick = np.random.default_rng(42)
    for name, p in enc.params.items():
        for _ in range(2):
            idx = tuple(pick.integers(0, s) for s in p.shape)
            if name == "pos_emb":  # a position the batch has
                idx = (pick.integers(0, tokens.shape[1]), idx[1])
            orig = p[idx]
            p[idx] = orig + eps
            lp = loss_and_cache()[0]
            p[idx] = orig - eps
            lm = loss_and_cache()[0]
            p[idx] = orig
            numeric = (lp - lm) / (2 * eps)
            assert rel_error(numeric, grads[name][idx]) <= 1e-4, \
                f"{name}[{idx}]: numeric {numeric} vs analytic {grads[name][idx]}"


@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_rows_path_states_rng_and_gradients_match_grid_path(kind, num_layers):
    enc = f64_encoder(23, num_layers=num_layers)
    rng = np.random.default_rng(3)
    tokens, mask = padded_batch(rng, n=4, s=11)
    positions = KINDS[kind](mask)
    d_states = np.zeros((*tokens.shape, 16))
    d_states[positions] = rng.standard_normal((positions[0].size, 16))

    def run(forward, backward, d_states):
        drop = np.random.default_rng(9)
        states, cache = forward(tokens, mask, train=True, rng=drop, positions=positions)
        return states, drop.bit_generator.state, backward(cache, d_states)

    states, rng_state, grads = run(enc.forward, enc.backward, d_states[positions])
    want_states, want_rng_state, want_grads = run(partial(reference_grid_forward, enc),
                                                  partial(reference_grid_backward, enc),
                                                  d_states)
    assert np.array_equal(states, want_states)
    assert rng_state == want_rng_state
    for name, g in want_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=1e-12, err_msg=name)


@pytest.fixture(scope="module")
def pair_cat(pair_kg, pair_vocab):
    return TokenizedCatalog(pair_kg, pair_vocab)


class RecordingOptimizer:
    """Keeps each step's (clipped) gradients and updates nothing."""

    def __init__(self):
        self.grads = []

    def step(self, params, grads, lr_scale):
        self.grads.append({k: v.copy() for k, v in grads.items()})


def _training_step(stage, enc, pair_kg, pair_cat):
    train = pair_kg.splits["train"]
    opt = RecordingOptimizer()
    drop = np.random.default_rng(21)
    if stage == "pretrain":
        samples = [build_pretrain_sample(train[i], pair_cat, 32, derive_rng(4, 0, i))
                   for i in range(8)]
        report = pretrain.pretrain_step(samples, enc, opt, 1.0, rng=drop)
        losses = (report.mlm_loss, report.mim_loss, report.task_losses)
    else:
        report = finetune_step(train[:8], enc, pair_cat, build_filter_index(pair_kg), opt,
                               1.0, FinetuneConfig(pair_max_len=32, entity_max_len=16),
                               rng=drop)
        losses = (report.loss, report.l1_mean, report.l2_mean)
    return losses, drop.bit_generator.state, opt.grads[0]


@pytest.mark.parametrize("stage", ["pretrain", "finetune"])
def test_training_step_losses_equal_grid_path(monkeypatch, pair_kg, pair_vocab, pair_cat,
                                              stage):
    def grid_forward(self, tokens, mask, positions=None, **kwargs):
        states, cache = reference_grid_forward(self, tokens, mask, positions=positions,
                                               **kwargs)
        return states, {**cache, "positions": positions}

    def grid_backward(self, cache, d_states, grads=None):
        """The oracle, given the (K, d) gradient spread into the grid."""
        grid = np.zeros((*cache["tokens"].shape, d_states.shape[-1]))
        grid[cache["positions"]] = d_states
        return reference_grid_backward(self, cache, grid, grads=grads)

    enc = f64_encoder(pair_vocab.size)
    losses, rng_state, grads = _training_step(stage, enc, pair_kg, pair_cat)
    monkeypatch.setattr(Encoder, "forward", grid_forward)
    monkeypatch.setattr(Encoder, "backward", grid_backward)
    want_losses, want_rng_state, want_grads = _training_step(stage, enc, pair_kg, pair_cat)
    assert losses == want_losses
    assert rng_state == want_rng_state
    for name, g in want_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=1e-12, err_msg=name)


def _linear_rows(monkeypatch, forward, tokens, mask, positions):
    """The input shape of every ``linear_forward`` of a training forward."""
    shapes = []
    real = layers.linear_forward

    def spy(x, w, b):
        shapes.append(x.shape)
        return real(x, w, b)

    monkeypatch.setattr(layers, "linear_forward", spy)
    states, cache = forward(tokens, mask, train=True, rng=np.random.default_rng(0),
                            positions=positions)
    monkeypatch.undo()
    return shapes, states, cache


@pytest.mark.parametrize("kind", KINDS)
def test_block_zero_sees_real_rows_and_the_last_block_the_kept_rows(monkeypatch, kind):
    enc = f64_encoder(23)
    tokens, mask = padded_batch(np.random.default_rng(1), n=4, s=11)
    positions = KINDS[kind](mask)
    R, K = int(mask.sum()), positions[0].size
    shapes, states, _ = _linear_rows(monkeypatch, enc.forward, tokens, mask, positions)
    # block 0: q, k, v, attn.wo, ff.w1, ff.w2 on the real rows; the last block:
    # q, k, v on the real rows, then attn.wo, ff.w1, ff.w2 on the kept rows
    assert shapes == [(R, 16)] * 5 + [(R, 24)] + [(R, 16)] * 3 + [(K, 16), (K, 16), (K, 24)]
    assert states.shape == (K, 16)


def _edge_case(n, s, lengths, kept):
    """(tokens, mask, the first ``kept`` grid positions) of ``n`` sequences of
    width ``s`` with the given real lengths."""
    mask = (np.arange(s)[None, :] < np.array(lengths)[:, None]).astype(np.int8)
    tokens = np.random.default_rng(2).integers(5, 23, size=(n, s)) * mask
    tokens[:, 0] = 2
    positions = np.nonzero(np.ones((n, s), dtype=bool))
    return tokens, mask, (positions[0][:kept], positions[1][:kept])


EDGE_CASES = {
    "one-sequence-pad": (1, 9, [6], 3),
    "one-real-token": (1, 9, [1], 1),
    "one-position": (4, 1, [1] * 4, 4),
    "one-slot": (1, 1, [1], 1),
    "no-asked-row": (4, 9, [6, 7, 9, 9], 0),
    "one-asked-row": (4, 9, [6, 7, 9, 9], 1),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_edge_cases_take_one_row_products_only_where_the_grid_does(monkeypatch, case):
    """A batch of one, one real token, a one-position grid and fewer than two
    asked-for rows: a product of the rows path has one row only where the
    grid oracle's has one (NumPy runs those on a matrix-vector kernel, which
    sums in another order), and the states are the oracle's, bit for bit."""
    enc = f64_encoder(23)
    tokens, mask, positions = _edge_case(*EDGE_CASES[case])
    shapes, states, cache = _linear_rows(monkeypatch, enc.forward, tokens, mask, positions)
    want_shapes, want, want_cache = _linear_rows(
        monkeypatch, partial(reference_grid_forward, enc), tokens, mask, positions)
    assert len(shapes) == len(want_shapes) == 12
    assert [x[-2] == 1 for x in shapes] == [x[-2] == 1 for x in want_shapes]
    assert np.array_equal(states, want)

    d_states = np.zeros((*tokens.shape, 16))
    d_states[positions] = np.random.default_rng(4).standard_normal((positions[0].size, 16))
    grads = enc.backward(cache, d_states[positions])
    for name, g in reference_grid_backward(enc, want_cache, d_states).items():
        np.testing.assert_allclose(grads[name], g, rtol=1e-12, atol=1e-15, err_msg=name)


def test_positions_must_be_distinct_grid_positions():
    enc = f64_encoder(23)
    tokens, mask = padded_batch(np.random.default_rng(2))
    with pytest.raises(ValueError, match="distinct"):
        enc.forward(tokens, mask, positions=(np.array([0, 0]), np.array([1, 1])))
    with pytest.raises(ValueError):
        enc.forward(tokens, mask, positions=(np.array([0, 3]), np.array([1, 1])))


@pytest.mark.parametrize("positions, bad_shape", [
    # a (B, S, d) grid after a forward that returned the (K, d) [CLS] rows
    pytest.param(cls_positions(3), (3, 9, 16), id="grid-after-positions"),
    # a (B, d) [CLS] gradient after a forward of every position
    pytest.param(None, (3, 16), id="pooled-after-grid"),
    # one sequence's (S, d) gradient, which NumPy would broadcast into every sequence
    pytest.param(None, (9, 16), id="sequence-after-grid"),
])
def test_backward_refuses_a_gradient_not_shaped_like_the_states(positions, bad_shape):
    enc = f64_encoder(23)
    tokens, mask = padded_batch(np.random.default_rng(2))  # B = 3, S = 9
    states, cache = enc.forward(tokens, mask, train=True, rng=np.random.default_rng(0),
                                positions=positions)
    want = f"d_states is {bad_shape}, not the forward's {states.shape}"
    with pytest.raises(ValueError, match=re.escape(want)):
        enc.backward(cache, np.ones(bad_shape))
    # the forward's own shape is taken
    enc.backward(cache, np.ones_like(states))
