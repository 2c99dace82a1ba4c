"""Compact trainable sequence encoder with an explicit backward pass.

Token + learned position embeddings feed a stack of post-norm self-attention
blocks; the pooled sequence vector is the [CLS] position state. A token
prediction head (dense -> GeLU -> batch-norm -> dense to vocabulary) produces
logits for the masked-token objectives. Everything is trained from scratch;
parameters live in a flat name -> array dict so the optimizer, checkpoints,
and gradient checks can treat them uniformly.

Every forward and backward runs one layout: the real token rows.
``forward(..., positions=(batch_idx, pos_idx))`` returns the states at those
positions alone (every position when None): the embedding, the linears, GeLU
and the layer norms see the (R, d) matrix of real positions (mask 1, plus the
asked-for positions), and only scores, softmax and context run on the padded
(B, S) grid. The last block goes on past its attention with the asked-for rows
alone, and ``backward``, given the gradient of the states ``forward`` returned,
runs the same layout in reverse. Fine-tuning asks for the [CLS] rows,
pre-training for its target rows, and the pooled-only encode (``encode(...,
pooled_only=True)``, which entity tables and query vectors use) for the [CLS]
rows without backward caches. The states are bit-identical to a full-grid
forward's, under three rules that keep every matrix product at two or more
rows where the full grid's has them (see ``Encoder.forward``); the gradients
differ from a full-grid backward's only in the order of the weight-gradient
sums.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import layers as L
from .files import atomic_write

CHECKPOINT_FORMAT = "kglp.ckpt.v1"

#: Mask value for attention scores at PAD keys; exp() underflows to exactly 0.
_NEG_INF = -np.inf


class CheckpointError(Exception):
    """A checkpoint file is unreadable, corrupted, of an unknown format, or holds
    tensors other than its config's ``param_layout`` and ``init_buffers``, or
    not all in one floating dtype."""


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    hidden_size: int = 128
    num_layers: int = 2
    num_heads: int = 4
    ff_size: int = 256
    max_len: int = 128
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("vocab_size", "hidden_size", "num_layers", "num_heads",
                     "ff_size", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    def num_parameters(self) -> int:
        return sum(math.prod(shape) for shape, _ in param_layout(self).values())


@dataclass
class EncoderOutput:
    """Per-token hidden states plus the pooled ([CLS] position) vector;
    ``token_states`` is None after a pooled-only encode. After a forward with
    ``positions``, ``token_states`` is the (K, d) matrix of the states at those
    positions and ``pooled`` is None."""

    token_states: np.ndarray | None
    pooled: np.ndarray | None


def param_group(name: str) -> str:
    """Two-group learning-rate split: prediction head vs. everything else."""
    return "linear" if name.startswith("head.") else "attention"


def param_layout(config: EncoderConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """The one list of the encoder's parameter tensors, in ``init_params``' draw order:
    name -> (shape, initial fill), the fill "gauss", "zeros" or "ones"."""
    d, f, v = config.hidden_size, config.ff_size, config.vocab_size

    def norm(prefix):
        return {f"{prefix}.g": ((d,), "ones"), f"{prefix}.b": ((d,), "zeros")}

    def dense(prefix, k, n_in, n_out):
        return {f"{prefix}.w{k}": ((n_in, n_out), "gauss"), f"{prefix}.b{k}": ((n_out,), "zeros")}

    layout = {"tok_emb": ((v, d), "gauss"), "pos_emb": ((config.max_len, d), "gauss"),
              **norm("emb_ln")}
    for i in range(config.num_layers):
        layout.update({f"blk{i}.attn.w{x}": ((d, d), "gauss") for x in "qkvo"})
        layout.update({f"blk{i}.attn.b{x}": ((d,), "zeros") for x in "qkvo"})
        layout.update({**norm(f"blk{i}.ln1"), **dense(f"blk{i}.ff", 1, d, f),
                       **dense(f"blk{i}.ff", 2, f, d), **norm(f"blk{i}.ln2")})
    return {**layout, **dense("head", 1, d, d), **norm("head.bn"), **dense("head", 2, d, v)}


def init_params(config: EncoderConfig, seed: int, dtype=np.float32) -> tuple[dict, dict]:
    """Scaled-Gaussian (std 0.02) weights, zero biases, unit norms; deterministic."""
    rng = np.random.default_rng(seed)
    fill = {"zeros": np.zeros, "ones": np.ones,
            "gauss": lambda shape, dtype: (rng.standard_normal(shape) * 0.02).astype(dtype)}
    params = {n: fill[how](shape, dtype=dtype) for n, (shape, how) in param_layout(config).items()}
    return params, init_buffers(config, dtype)


def init_buffers(config: EncoderConfig, dtype=np.float32) -> dict:
    """Running statistics of the head's batch norm: zero mean, unit variance."""
    return {"head.bn.mean": np.zeros(config.hidden_size, dtype=dtype),
            "head.bn.var": np.ones(config.hidden_size, dtype=dtype)}


def _check_tensors(config: EncoderConfig, params: dict, buffers: dict) -> None:
    """Raise ValueError, naming the tensor, unless ``params`` and ``buffers``
    hold exactly the tensors of ``param_layout(config)`` and
    ``init_buffers(config)``, in those shapes, all of ``tok_emb``'s floating
    dtype."""
    dtype = params["tok_emb"].dtype if "tok_emb" in params else None
    for kind, tensors, want in (
            ("tensor", params, {n: shape for n, (shape, _) in param_layout(config).items()}),
            ("buffer", buffers, {n: b.shape for n, b in init_buffers(config).items()})):
        for name in [*want, *sorted(tensors.keys() - want.keys())]:
            arr = tensors.get(name)
            shape = None if arr is None else arr.shape
            if shape != want.get(name):
                raise ValueError(f"{kind} {name} is {shape}, its config wants {want.get(name)}")
            if not np.issubdtype(arr.dtype, np.floating):
                raise ValueError(f"{kind} {name} is {arr.dtype}, not a floating dtype")
            if arr.dtype != dtype:
                raise ValueError(f"{kind} {name} is {arr.dtype}, tok_emb is {dtype}")


def cls_positions(batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The [CLS] position of every sequence of a batch, as ``forward``'s
    ``positions``."""
    return np.arange(batch_size), np.zeros(batch_size, dtype=np.intp)


class Encoder:
    """The encoder plus prediction head, with hand-written backprop.

    The parameter dict has a single logical writer (the training loop);
    inference-mode calls never mutate state and are safe concurrently.
    Given ``params`` must hold exactly the tensors of ``param_layout(config)``,
    and ``buffers`` (fresh ones of the params' dtype when None) those of
    ``init_buffers(config)``, all in one floating dtype; anything else raises
    ValueError naming the tensor.
    """

    def __init__(self, config: EncoderConfig, params: dict | None = None,
                 buffers: dict | None = None, seed: int = 0, dtype=np.float32):
        self.config = config
        if params is None:
            params, buffers = init_params(config, seed, dtype)
        self.dtype = params["tok_emb"].dtype if "tok_emb" in params else np.dtype(dtype)
        if buffers is None:
            buffers = init_buffers(config, self.dtype)
        _check_tensors(config, params, buffers)
        self.params = params
        self.buffers = buffers

    # ------------------------------------------------------------------ forward

    def forward(self, tokens, mask, train: bool = False,
                rng: np.random.Generator | None = None, pooled_only: bool = False,
                positions=None):
        """Run the encoder; returns (EncoderOutput, cache).

        ``tokens`` (B, S) int, ``mask`` (B, S) with 1 on real positions. PAD
        keys receive no attention from any query. ``rng`` drives dropout and is
        required when training with a nonzero dropout rate.

        ``positions`` = (batch indices, position indices), distinct grid
        positions, returns the states at those positions only, as the (K, d)
        ``token_states`` in that order; ``backward`` then takes their (K, d)
        gradient. ``positions=None`` asks for every position and returns the
        (B, S, d) states with the [CLS] states as ``pooled``. ``pooled_only``
        (inference only) asks for the [CLS] rows and returns them as
        ``pooled``, with ``token_states`` and the cache None.

        The real positions (mask 1) and the asked-for ones are gathered into
        an (R, d) matrix after the embedding lookup. Dropout masks are drawn
        on the (B, S, d) grid, in a full-grid forward's order, and taken at the
        rows, so the rng stream is the full-grid forward's too. The states are
        bit-identical to a full-grid forward's as long as BLAS gives a row of a
        matrix-matrix product the same bits whatever the row count. NumPy hands
        a one-row product to a matrix-vector kernel that sums in another order,
        so three rules give a product one row only where the full grid's has:

        1. the last block cuts to the K asked-for rows only when 2 <= K < R;
        2. fewer than two rows (one sequence with one real token) take the
           whole grid;
        3. on a one-position grid (S = 1) the rows are held as (R, 1, d): the
           full grid's (B, 1, d) products are B matrix-vector products.
        """
        cfg, p = self.config, self.params
        tokens = np.asarray(tokens)
        mask = np.asarray(mask)
        if tokens.ndim == 1:
            tokens = tokens[None]
            mask = mask[None]
        B, S = tokens.shape
        if S > cfg.max_len:
            raise ValueError(f"sequence length {S} exceeds max_len {cfg.max_len}")
        if tokens.max(initial=0) >= cfg.vocab_size:
            raise ValueError(
                f"token id {int(tokens.max())} out of range for vocab {cfg.vocab_size}")
        if tokens.min(initial=0) < 0:
            raise ValueError(f"token id {int(tokens.min())} is negative")
        if mask.shape != tokens.shape:
            raise ValueError("mask shape must match tokens shape")
        if positions is not None:
            positions = tuple(np.asarray(ix, dtype=np.intp) for ix in positions)
            if np.unique(np.ravel_multi_index(positions, (B, S))).size != positions[0].size:
                raise ValueError("positions must be distinct grid positions")
        if pooled_only:
            if train or positions is not None:
                raise ValueError("pooled_only is an inference mode; it cannot train "
                                 "or take positions")
            positions = cls_positions(B)
        rate = cfg.dropout if train else 0.0
        if rate > 0.0 and rng is None:
            raise ValueError("training-mode forward with dropout needs an rng")

        key_mask = mask.astype(bool)  # (B, S)
        asked = np.nonzero(np.ones((B, S), dtype=bool)) if positions is None else positions
        real = key_mask.copy()
        real[asked] = True
        if np.count_nonzero(real) < 2:  # rule 2
            real[:] = True
        rows = np.nonzero(real)
        keep = np.cumsum(real).reshape(B, S)[asked] - 1  # row numbers of the asked-for
        if S == 1:  # rule 3: index arrays of shape (R, 1) gather (R, 1, d)
            rows, asked = (tuple(ix[:, None] for ix in t) for t in (rows, asked))
        cut = 2 <= keep.size < rows[0].size  # rule 1

        x = p["tok_emb"][tokens[rows]] + p["pos_emb"][rows[1]]
        x, emb_ln_cache = L.layernorm_forward(x, p["emb_ln.g"], p["emb_ln.b"])
        x, emb_drop = L.dropout_forward(x, rate, rng, train, ((B, S, cfg.hidden_size), rows))

        caches = []
        for i in range(cfg.num_layers):
            last_keep = keep if cut and i == cfg.num_layers - 1 else None
            x, blk_cache = self._block_forward(i, x, rows, key_mask, rate, rng, train,
                                               not pooled_only, last_keep)
            caches.append(blk_cache)
        if not cut:
            x = x[keep]
        d = cfg.hidden_size
        x = x.reshape(B, S, d) if positions is None else x.reshape(keep.size, d)
        if pooled_only:
            return EncoderOutput(token_states=None, pooled=x), None

        cache = {
            "tokens": tokens, "emb_ln": emb_ln_cache, "emb_drop": emb_drop,
            "blocks": caches, "states_shape": x.shape, "rows": rows, "positions": asked,
            "keep": None if cut else keep,
        }
        pooled = x[:, 0] if positions is None else None
        return EncoderOutput(token_states=x, pooled=pooled), cache

    def _block_forward(self, i, x, rows, key_mask, rate, rng, train, keep_cache, keep):
        """One post-norm block; returns (output, cache), the cache None unless
        ``keep_cache``.

        ``x`` holds the rows at the grid positions ``rows`` (batch indices,
        position indices). q, k and v are set into a zero (B, S) grid for
        scores, softmax and context, the context is gathered back at ``rows``,
        and the block goes on with the rows of ``x`` numbered ``keep`` (all of
        them when None); its dropout masks are drawn on the (B, S, d) grid and
        taken at those rows.
        """
        p = self.params
        d = self.config.hidden_size
        H = self.config.num_heads
        dh = d // H
        B, S = key_mask.shape

        q, q_cache = L.linear_forward(x, p[f"blk{i}.attn.wq"], p[f"blk{i}.attn.bq"])
        k, k_cache = L.linear_forward(x, p[f"blk{i}.attn.wk"], p[f"blk{i}.attn.bk"])
        v, v_cache = L.linear_forward(x, p[f"blk{i}.attn.wv"], p[f"blk{i}.attn.bv"])
        qh, kh, vh = (_grid(t, rows, B, S).reshape(B, S, H, dh).transpose(0, 2, 1, 3)
                      for t in (q, k, v))

        scores = (qh @ kh.transpose(0, 1, 3, 2)) / np.sqrt(dh).astype(x.dtype)
        scores = np.where(key_mask[:, None, None, :], scores, _NEG_INF)
        attn = L.softmax_last(scores)
        attn_d, attn_drop = L.dropout_forward(attn, rate, rng, train)

        ctx = (attn_d @ vh).transpose(0, 2, 1, 3)
        out_rows = rows
        if keep is not None:
            x, out_rows = x[keep], tuple(ix[keep] for ix in rows)
        ctx = ctx[out_rows].reshape(x.shape)
        grid = ((B, S, d), out_rows)
        out, out_cache = L.linear_forward(ctx, p[f"blk{i}.attn.wo"], p[f"blk{i}.attn.bo"])
        out, out_drop = L.dropout_forward(out, rate, rng, train, grid)
        h1, ln1_cache = L.layernorm_forward(x + out, p[f"blk{i}.ln1.g"], p[f"blk{i}.ln1.b"])

        u, ff1_cache = L.linear_forward(h1, p[f"blk{i}.ff.w1"], p[f"blk{i}.ff.b1"])
        g, gelu_cache = L.gelu_forward(u)
        f, ff2_cache = L.linear_forward(g, p[f"blk{i}.ff.w2"], p[f"blk{i}.ff.b2"])
        f, ff_drop = L.dropout_forward(f, rate, rng, train, grid)
        h2, ln2_cache = L.layernorm_forward(h1 + f, p[f"blk{i}.ln2.g"], p[f"blk{i}.ln2.b"])

        if not keep_cache:
            return h2, None
        return h2, {
            "q": q_cache, "k": k_cache, "v": v_cache, "qh": qh, "kh": kh, "vh": vh,
            "attn": attn, "attn_d": attn_d, "attn_drop": attn_drop,
            "out_cache": out_cache, "out_drop": out_drop, "ln1": ln1_cache,
            "ff1": ff1_cache, "gelu": gelu_cache, "ff2": ff2_cache,
            "ff_drop": ff_drop, "ln2": ln2_cache, "shape": (B, S, H, dh),
            "rows": rows, "keep": keep, "out_rows": out_rows,
        }

    def encode(self, tokens, mask, pooled_only: bool = False) -> EncoderOutput:
        """Inference-mode encoding: deterministic, no state mutation.

        ``pooled_only`` computes the pooled vectors alone (see ``forward``),
        which is all an entity table or a query vector needs.
        """
        output, _ = self.forward(tokens, mask, train=False, pooled_only=pooled_only)
        return output

    # ----------------------------------------------------------------- backward

    def zero_grads(self) -> dict:
        """A zero gradient buffer for every parameter, in parameter order."""
        return {name: np.zeros_like(arr) for name, arr in self.params.items()}

    def backward(self, cache, d_states, grads=None) -> dict:
        """Backprop through the encoder body; returns the name -> gradient dict.

        ``d_states`` is the gradient of the forward's ``token_states``, in their
        shape, (K, d) or (B, S, d); another shape raises ValueError. Gradients
        are added into ``grads`` when it is given (several passes of one step
        share one buffer), else into a fresh ``zero_grads()``. ``d_states`` and
        each gradient are rounded to the parameters' dtype first, so two passes
        into one buffer give the same numbers as summing two buffers.
        """
        cfg = self.config
        blocks = cache["blocks"]
        rows = cache["rows"]
        shape = cache["states_shape"]
        if np.shape(d_states) != shape:
            raise ValueError(f"d_states is {np.shape(d_states)}, not the forward's {shape}")
        dx = np.zeros(shape, dtype=self.dtype)
        dx += d_states
        dx = dx.reshape(*cache["positions"][0].shape, cfg.hidden_size)
        if cache["keep"] is not None:  # the last block kept every row
            dx = _spread(dx, cache["keep"], rows)

        if grads is None:
            grads = self.zero_grads()
        for i in reversed(range(cfg.num_layers)):
            dx = self._block_backward(i, dx, blocks[i], grads)

        dx = L.dropout_backward(dx, cache["emb_drop"])
        dx, dg, db = L.layernorm_backward(dx, cache["emb_ln"])
        _add(grads, "emb_ln.g", dg)
        _add(grads, "emb_ln.b", db)
        L.scatter_add_rows(grads["tok_emb"], cache["tokens"][rows], dx)
        L.scatter_add_rows(grads["pos_emb"], rows[1], dx)
        return grads

    def _block_backward(self, i, dh2, c, grads):
        p = self.params
        B, S, H, dh = c["shape"]
        d = H * dh
        rows = c["rows"]

        dresid2, dg, db = L.layernorm_backward(dh2, c["ln2"])
        _add(grads, f"blk{i}.ln2.g", dg)
        _add(grads, f"blk{i}.ln2.b", db)
        df = L.dropout_backward(dresid2, c["ff_drop"])
        dgelu, dw, db = L.linear_backward(df, c["ff2"])
        _add(grads, f"blk{i}.ff.w2", dw)
        _add(grads, f"blk{i}.ff.b2", db)
        du = L.gelu_backward(dgelu, c["gelu"])
        dh1, dw, db = L.linear_backward(du, c["ff1"])
        _add(grads, f"blk{i}.ff.w1", dw)
        _add(grads, f"blk{i}.ff.b1", db)
        dh1 += dresid2

        dresid1, dg, db = L.layernorm_backward(dh1, c["ln1"])
        _add(grads, f"blk{i}.ln1.g", dg)
        _add(grads, f"blk{i}.ln1.b", db)
        dout = L.dropout_backward(dresid1, c["out_drop"])
        dctx, dw, db = L.linear_backward(dout, c["out_cache"])
        _add(grads, f"blk{i}.attn.wo", dw)
        _add(grads, f"blk{i}.attn.bo", db)

        dctx_h = _grid(dctx, c["out_rows"], B, S).reshape(B, S, H, dh).transpose(0, 2, 1, 3)
        dattn_d = dctx_h @ c["vh"].transpose(0, 1, 3, 2)
        dvh = c["attn_d"].transpose(0, 1, 3, 2) @ dctx_h
        dattn = L.dropout_backward(dattn_d, c["attn_drop"])
        dscores = L.softmax_backward(dattn, c["attn"])
        dscores /= np.sqrt(dh).astype(dscores.dtype)
        dqh = dscores @ c["kh"]
        dkh = dscores.transpose(0, 1, 3, 2) @ c["qh"]

        dq, dk, dv = (t.transpose(0, 2, 1, 3).reshape(B, S, d)[rows] for t in (dqh, dkh, dvh))
        # the rows the last block dropped past its attention
        dx = dresid1 if c["keep"] is None else _spread(dresid1, c["keep"], rows)
        for dvec, cache_key, w_name, b_name in (
                (dq, "q", "wq", "bq"), (dk, "k", "wk", "bk"), (dv, "v", "wv", "bv")):
            dxi, dw, db = L.linear_backward(dvec, c[cache_key])
            _add(grads, f"blk{i}.attn.{w_name}", dw)
            _add(grads, f"blk{i}.attn.{b_name}", db)
            dx = dx + dxi
        return dx

    # --------------------------------------------------------------------- head

    def predict_tokens(self, token_states, train: bool = False):
        """Token logits over the vocabulary for a set of hidden states.

        ``token_states`` may be (N, d) or (B, S, d); logits keep the leading
        shape with a final vocab axis. Training mode uses batch statistics in
        the normalization layer (and updates the running estimates); inference
        uses the running statistics. Returns (logits, cache).
        """
        p, buf = self.params, self.buffers
        states = np.asarray(token_states)
        lead_shape = states.shape[:-1]
        flat = states.reshape(-1, states.shape[-1])
        u, lin1 = L.linear_forward(flat, p["head.w1"], p["head.b1"])
        g, gelu_cache = L.gelu_forward(u)
        bn, bn_cache = L.batchnorm_forward(
            g, p["head.bn.g"], p["head.bn.b"],
            buf["head.bn.mean"], buf["head.bn.var"], train)
        logits, lin2 = L.linear_forward(bn, p["head.w2"], p["head.b2"])
        cache = {"lin1": lin1, "gelu": gelu_cache, "bn": bn_cache, "lin2": lin2,
                 "lead_shape": lead_shape}
        return logits.reshape(*lead_shape, -1), cache

    def head_backward(self, cache, dlogits, grads=None):
        """Backprop the prediction head; returns (grads, d_token_states).

        Head gradients are added into ``grads`` when it is given (rounded as in
        ``backward``), else returned in a new dict of their own.
        """
        head = {}
        flat = dlogits.reshape(-1, dlogits.shape[-1])
        dbn, head["head.w2"], head["head.b2"] = L.linear_backward(flat, cache["lin2"])
        dg_in, head["head.bn.g"], head["head.bn.b"] = L.batchnorm_backward(dbn, cache["bn"])
        du = L.gelu_backward(dg_in, cache["gelu"])
        dstates, head["head.w1"], head["head.b1"] = L.linear_backward(du, cache["lin1"])
        if grads is None:
            grads = head
        else:
            for name, g in head.items():
                _add(grads, name, g)
        return grads, dstates.reshape(*cache["lead_shape"], -1)

    # -------------------------------------------------------------- persistence

    def copy_params(self) -> tuple[dict, dict]:
        return ({k: v.copy() for k, v in self.params.items()},
                {k: v.copy() for k, v in self.buffers.items()})

    def load_params(self, params: dict, buffers: dict) -> None:
        self.params = {k: v.copy() for k, v in params.items()}
        self.buffers = {k: v.copy() for k, v in buffers.items()}


def _grid(t: np.ndarray, rows, B: int, S: int) -> np.ndarray:
    """``t``, the rows at the grid positions ``rows``, set into a zero
    (B, S, d) grid."""
    grid = np.zeros((B, S, t.shape[-1]), dtype=t.dtype)
    grid[rows] = t
    return grid


def _spread(dt: np.ndarray, keep: np.ndarray, rows) -> np.ndarray:
    """``dt``, the gradients of the rows numbered ``keep`` of the matrix at the
    grid positions ``rows``, set into zeros of that matrix's shape."""
    full = np.zeros((*rows[0].shape, dt.shape[-1]), dtype=dt.dtype)
    full[keep] = dt
    return full


def _add(grads: dict, name: str, g: np.ndarray) -> None:
    """``grads[name] += g``, with ``g`` first rounded to the buffer's dtype."""
    buf = grads[name]
    np.add(buf, g, out=buf, dtype=buf.dtype)


def save_checkpoint(encoder: Encoder, path) -> None:
    """Self-describing container: format tag, config JSON, named tensors;
    written atomically, so a failed save keeps the previous file."""
    meta = {"format": CHECKPOINT_FORMAT, "config": asdict(encoder.config)}
    arrays = {"__meta__": np.array(json.dumps(meta))}
    for name, arr in encoder.params.items():
        arrays[f"param::{name}"] = arr
    for name, arr in encoder.buffers.items():
        arrays[f"buffer::{name}"] = arr
    with atomic_write(path) as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> Encoder:
    try:
        with np.load(path, allow_pickle=False) as data:
            if "__meta__" not in data:
                raise CheckpointError(f"{path}: not a kglp checkpoint (no meta entry)")
            meta = json.loads(str(data["__meta__"]))
            if meta.get("format") != CHECKPOINT_FORMAT:
                raise CheckpointError(
                    f"{path}: format {meta.get('format')!r} is not {CHECKPOINT_FORMAT!r}")
            config = EncoderConfig(**meta["config"])
            params = {k[len("param::"):]: data[k] for k in data.files
                      if k.startswith("param::")}
            buffers = {k[len("buffer::"):]: data[k] for k in data.files
                       if k.startswith("buffer::")}
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from exc
    try:
        return Encoder(config, params=params, buffers=buffers)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
