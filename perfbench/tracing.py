"""Span tracing of kglp's public entry points, from the benchmark's own code.

``Tracer.install`` wraps functions and methods of the imported ``kglp``
package in this process only; no file of the program changes. A wrapped call
records a span (name, start, end, parent span, unit) while a unit is open and
passes straight through otherwise. A unit is one step, query or call of the
benchmark's loop; its root span is opened by ``Tracer.unit``. Spans stay in
memory and are written out when the run ends.

A layer's self time is its span's duration minus the durations of its child
spans (calls are strictly nested, the process has one thread).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_MODULES = ("kglp", "kglp.data", "kglp.text", "kglp.sampling", "kglp.layers",
            "kglp.encoder", "kglp.optim", "kglp.pretrain", "kglp.finetune",
            "kglp.evaluate")

#: (module, function, span name). A function is wrapped wherever a kglp module
#: binds it, so ``from .layers import cross_entropy`` call sites are covered.
FUNCTIONS = [
    ("kglp.sampling", "build_pretrain_sample", "sampling"),
    ("kglp.text", "assemble_triple", "text"),
    ("kglp.text", "assemble_pair", "text"),
    ("kglp.text", "assemble_pair_tokens", "text"),
    ("kglp.text", "assemble_entity", "text"),
    ("kglp.layers", "linear_forward", "layers.linear"),
    ("kglp.layers", "linear_backward", "layers.linear"),
    ("kglp.layers", "gelu_forward", "layers.gelu"),
    ("kglp.layers", "gelu_backward", "layers.gelu"),
    ("kglp.layers", "layernorm_forward", "layers.layernorm"),
    ("kglp.layers", "layernorm_backward", "layers.layernorm"),
    ("kglp.layers", "softmax_last", "layers.softmax"),
    ("kglp.layers", "softmax_backward", "layers.softmax"),
    ("kglp.layers", "dropout_forward", "layers.dropout"),
    ("kglp.layers", "dropout_backward", "layers.dropout"),
    ("kglp.layers", "batchnorm_forward", "layers.batchnorm"),
    ("kglp.layers", "batchnorm_backward", "layers.batchnorm"),
    ("kglp.layers", "cross_entropy", "layers.cross_entropy"),
    ("kglp.layers", "per_row_nll", "layers.cross_entropy"),
    ("kglp.layers", "clip_global_norm", "layers.clip"),
    ("kglp.pretrain", "pretrain_step", "pretrain"),
    ("kglp.finetune", "finetune_step", "finetune"),
    ("kglp.finetune", "build_label_matrix", "finetune.labels"),
    ("kglp.finetune", "score_batch", "finetune.cell_loss"),
    ("kglp.finetune", "abs_diff_sums", "finetune.cell_loss"),
    ("kglp.finetune", "joint_loss_with_grads", "finetune.cell_loss"),
    ("kglp.finetune", "vector_grads", "finetune.cell_loss"),
    ("kglp.evaluate", "evaluate", "evaluate"),
    ("kglp.evaluate", "precompute_entity_embeddings", "evaluate.entity_table"),
    ("kglp.evaluate", "rank_from_scores", "evaluate.rank"),
    ("kglp.evaluate", "rank_query", "evaluate.rank_query"),
    ("kglp.data", "build_filter_index", "data.filter_index"),
]

#: (module, class, method, span name)
METHODS = [
    ("kglp.encoder", "Encoder", "forward", "encoder.forward"),
    ("kglp.encoder", "Encoder", "encode", "encoder.encode"),
    ("kglp.encoder", "Encoder", "backward", "encoder.backward"),
    ("kglp.encoder", "Encoder", "predict_tokens", "encoder.head"),
    ("kglp.encoder", "Encoder", "head_backward", "encoder.head"),
    ("kglp.optim", "AdamW", "step", "optim.adamw"),
]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_forward(tracer, args, kwargs, out):
    tokens = np.asarray(_arg(args, kwargs, 1, "tokens"))
    mask = np.asarray(_arg(args, kwargs, 2, "mask"))
    tracer.count("real_tokens", float(mask.sum()))
    tracer.count("token_slots", float(mask.size))
    tracer.count("rows", float(tokens.shape[0] if tokens.ndim > 1 else 1))
    tracer.unit_tokens.append(tokens)


def _count_clip(tracer, args, kwargs, norm):
    max_norm = _arg(args, kwargs, 1, "max_norm")
    tracer.count("clip_calls", 1.0)
    tracer.count("clip_fired", float(bool(max_norm) and norm > max_norm))


def _count_finetune(tracer, args, kwargs, out):
    batch = _arg(args, kwargs, 0, "batch")
    tracer.count("finetune_batches", 1.0)
    tracer.count("unique_tail_share", len({t.tail for t in batch}) / len(batch))


def _count_rank(tracer, args, kwargs, out):
    gold = _arg(args, kwargs, 1, "gold")
    known = _arg(args, kwargs, 2, "known_true")
    tracer.count("ranked_queries", 1.0)
    tracer.count("filtered", float(len(known) - (gold in known)))


#: unit kinds that update parameters; touched-row counts are kept for these
TRAINING_UNITS = ("pretrain", "finetune")

HOOKS = {"encoder.forward": _count_forward, "layers.clip": _count_clip,
         "finetune": _count_finetune, "evaluate.rank": _count_rank}


class Tracer:
    """In-memory span and counter store plus the wrappers that feed it."""

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size
        self.spans: list[list] = []   # [name, start, end, parent index, unit index]
        self.units: list[str] = []    # unit kind per unit index
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.unit_tokens: list[np.ndarray] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._unit = -1

    # ------------------------------------------------------------ recording

    def count(self, name: str, value: float) -> None:
        if self._unit >= 0:
            self.counts[(self.units[self._unit], name)] += value

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._unit])
        self._stack.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def unit(self, kind: str):
        """One step, query or call of a traced stage: the root span of its calls."""
        self.units.append(kind)
        self._unit = len(self.units) - 1
        self.unit_tokens = []
        root = self._begin("unit." + kind)
        try:
            yield
        finally:
            self._end(root)
            if self.unit_tokens and kind in TRAINING_UNITS:
                distinct = np.unique(np.concatenate([t.ravel() for t in self.unit_tokens]))
                self.count("touched_row_share", distinct.size / self.vocab_size)
            self.unit_tokens = []
            self._unit = -1

    # ------------------------------------------------------------- wrapping

    def _wrap(self, fn, name: str):
        tracer, hook = self, HOOKS.get(name)
        # Encoder.encode runs Encoder.forward; that time is encode's own
        merge = "encoder.encode" if name == "encoder.forward" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._unit < 0:
                return fn(*args, **kwargs)
            top = tracer.spans[tracer._stack[-1]][0] if tracer._stack else None
            if merge is not None and top == merge:
                out = fn(*args, **kwargs)
            else:
                index = tracer._begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._end(index)
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every FUNCTIONS and METHODS entry; a missing one raises."""
        modules = [importlib.import_module(m) for m in _MODULES]
        for module_name, fn_name, span in FUNCTIONS:
            fn = getattr(importlib.import_module(module_name), fn_name)
            wrapper = self._wrap(fn, span)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, fn))
        for module_name, cls_name, method, span in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            fn = cls.__dict__[method]
            setattr(cls, method, self._wrap(fn, span))
            self._undo.append((cls, method, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo = []

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (name, start, end, parent, unit) in enumerate(self.spans)]

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, unit, kind."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps([name, start, end, parent, unit,
                                     self.units[unit] if unit >= 0 else None]) + "\n")
