"""The benchmark's workloads, the five measured stages, and their output checks.

Every workload runs the same five stages on its own graph, interleaved by
``schedule``: pre-training steps, fine-tuning steps, the entity-table encode,
filtered ``evaluate`` calls and a closed loop of ``rank_query`` calls (one
client; the next query is sent when the previous one returns). A workload's
*focus* says which stages carry its time budget and which the traced run
covers: the training stages on ``umls-train`` and ``wn18rr-train``, the
inference stages on ``fb15k237-rank``. The other stages run at a fixed small
size, so every end-to-end metric exists on every workload.

Steps are built the way ``run_pretraining`` / ``run_finetune`` build them:
``derive_rng`` streams keyed by (seed, stream, epoch[, index]) and the
warmup/linear-decay schedule over the configured number of epochs. Each stage
starts from a fresh fixed-seed default ``Encoder``; speed does not depend on
the weights, and a fresh start makes each stage's losses a function of the
workload seed alone.
"""

from __future__ import annotations

import importlib
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from kglp import (Encoder, EncoderConfig, FinetuneConfig, PretrainConfig,
                  RankingQuery, TokenizedCatalog, augment_inverse, build_vocab)
from kglp.config import DATASET_PROFILES
from kglp.optim import AdamW, warmup_linear_decay
from kglp.pretrain import TrainingDiverged
from kglp.sampling import derive_rng

from .graphs import TABLE4, GraphShape, generate_graph
from .tracing import TRAINING_UNITS, Tracer

# Calls go through the modules so that traced wrappers installed on their
# attributes are the ones called.
_data = importlib.import_module("kglp.data")
_sampling = importlib.import_module("kglp.sampling")
_pretrain = importlib.import_module("kglp.pretrain")
_finetune = importlib.import_module("kglp.finetune")
_evaluate = importlib.import_module("kglp.evaluate")

# rng stream tags, one per purpose, as in the training loops
_SHUFFLE, _SAMPLE, _DROPOUT, _FT_SHUFFLE, _FT_DROPOUT, _FT_NEGATIVES = 1, 2, 3, 11, 12, 13

#: rank_query calls per scheduled predict operation
PREDICT_BURST = 80


@dataclass(frozen=True)
class Plan:
    """How one workload sizes its graph and its stages.

    ``pretrain_steps`` / ``finetune_steps`` are the fixed leading steps whose
    mean loss is reported and which a fresh start replays; they, ``table_reps``, ``eval_reps`` and
    ``predict_queries`` are each stage's minimum. After the minimums, stages
    with a weight keep running until ``--seconds`` have passed, sharing the
    time in proportion to their weights. The inference stages run on the
    graph scaled by ``inference_scale``.
    """

    profile: str
    shape: GraphShape
    focus: str
    setup_reps: int
    pretrain_steps: int
    finetune_steps: int
    weights: dict
    inference_scale: float = 1.0
    table_reps: int = 1
    eval_reps: int = 1
    eval_triples: int = 0
    predict_queries: int = 240


def _shape(profile: str, vocab: int, names, descs, head_skew, tail_skew) -> GraphShape:
    return GraphShape(TABLE4[profile], vocab, names, descs, head_skew, tail_skew,
                      min_freq=int(DATASET_PROFILES[profile]["vocab.min_freq"]))


WORKLOADS = {
    "umls-train": Plan(
        "umls", _shape("umls", 640, (1, 2), (11, 14), 0.6, 0.6), "train",
        setup_reps=11, pretrain_steps=12, finetune_steps=6,
        weights={"pretrain": 0.30, "finetune": 0.50, "table": 0.08, "evaluate": 0.08,
                 "predict": 0.04},
        table_reps=3, eval_triples=100),
    "wn18rr-train": Plan(
        "wn18rr", _shape("wn18rr", 30000, (1, 2), (11, 17), 0.8, 0.6), "train",
        setup_reps=3, pretrain_steps=8, finetune_steps=8,
        weights={"pretrain": 0.40, "finetune": 0.40, "table": 0.08, "evaluate": 0.08,
                 "predict": 0.04},
        inference_scale=0.0125, table_reps=3, eval_reps=3),
    "fb15k237-rank": Plan(
        "fb15k237", _shape("fb15k237", 12000, (1, 3), (4, 8), 1.0, 1.1), "rank",
        setup_reps=3, pretrain_steps=6, finetune_steps=4,
        weights={"predict": 1.0},
        eval_triples=250, predict_queries=1200),
}


STAGES = ("pretrain", "finetune", "table", "evaluate", "predict")

#: fresh starts of the training stages, run over their fixed leading steps
REPLAYS = {"pretrain_replay": "pretrain", "finetune_replay": "finetune"}


@dataclass
class Context:
    """One graph after set-up: what a training or evaluation run builds first."""

    kg: object
    vocab: object
    cat: TokenizedCatalog
    eval_filter: object
    label_filter: object
    seed: int

    def encoder(self) -> Encoder:
        return Encoder(EncoderConfig(vocab_size=self.vocab.size), seed=0)


def set_up(raw_kg, min_freq: int, seed: int) -> tuple[Context, float]:
    """Set-up as the training and evaluation entry points do it; returns its time."""
    start = time.perf_counter()
    kg = augment_inverse(raw_kg)
    vocab = build_vocab(kg, min_freq)
    cat = TokenizedCatalog(kg, vocab)
    eval_filter = _data.build_filter_index(kg)
    label_filter = _data.build_filter_index(kg, ("train",))
    ctx = Context(kg, vocab, cat, eval_filter, label_filter, seed)
    ctx.encoder()
    return ctx, time.perf_counter() - start


@dataclass
class Stage:
    """Per-operation wall times, losses and failures of one stage, plus its
    last output (entity table or ranking report) for the stages that read it."""

    times: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    failed: int = 0
    notes: list = field(default_factory=list)
    result: object = None

    @property
    def attempted(self) -> int:
        return len(self.times)


class _NoTrace:
    """Stands in for a Tracer when a stage runs untraced."""

    @staticmethod
    def unit(kind):
        return nullcontext()


NO_TRACE = _NoTrace()


# Each *_ops generator performs one operation of its stage per ``next`` and
# records it in the stage's Stage; ``take`` and ``schedule`` drive them.

def take(ops, count: int) -> None:
    for _ in range(count):
        next(ops)


def schedule(ops: dict, minimum: dict, weight: dict, seconds: float) -> None:
    """Interleave the stages' operations in one loop.

    First every stage reaches its minimum count, the one least far along going
    next (ties in ``ops`` order, so the first round runs each stage once, in
    order). Then, until ``seconds`` have passed since the start, the stage
    with the least time used per unit of weight goes next. Interleaving spreads
    each stage's samples over the whole run, so a slow spell of the shared
    machine shifts every metric a little instead of one metric a lot. A
    stage's own operations stay in order, so its results do not depend on
    the interleaving.
    """
    used = dict.fromkeys(ops, 0.0)
    count = dict.fromkeys(ops, 0)
    deadline = time.perf_counter() + seconds
    while True:
        below = [s for s in ops if count[s] < minimum[s]]
        if below:
            name = min(below, key=lambda s: count[s] / minimum[s])
        else:
            timed = [s for s in ops if weight.get(s, 0.0) > 0.0]
            if not timed or time.perf_counter() >= deadline:
                return
            name = min(timed, key=lambda s: used[s] / weight[s])
        start = time.perf_counter()
        next(ops[name])
        used[name] += time.perf_counter() - start
        count[name] += 1


# ----------------------------------------------------------------- training

def pretrain_ops(ctx: Context, stage: Stage, tracer=NO_TRACE):
    """Pre-training steps at batch 32 from a fresh encoder and optimizer."""
    cfg = PretrainConfig()
    encoder = ctx.encoder()
    optimizer = AdamW({"linear": cfg.lr_linear, "attention": cfg.lr_attention},
                      weight_decay=cfg.weight_decay)
    train = ctx.kg.splits["train"]
    per_epoch = math.ceil(len(train) / cfg.batch_size)
    total = cfg.epochs * per_epoch
    step = 0
    while True:
        epoch, k = divmod(step, per_epoch)
        if k == 0:
            order = derive_rng(ctx.seed, _SHUFFLE, epoch).permutation(len(train))
            dropout_rng = derive_rng(ctx.seed, _DROPOUT, epoch)
        ids = order[k * cfg.batch_size:(k + 1) * cfg.batch_size]
        with tracer.unit("pretrain"):
            start = time.perf_counter()
            samples = [_sampling.build_pretrain_sample(
                train[i], ctx.cat, cfg.max_len, derive_rng(ctx.seed, _SAMPLE, epoch, int(i)))
                for i in ids]
            try:
                report = _pretrain.pretrain_step(
                    samples, encoder, optimizer,
                    warmup_linear_decay(step, total, cfg.warmup_frac),
                    rng=dropout_rng, clip_norm=cfg.clip_norm)
                loss = report.total
            except TrainingDiverged:
                loss = math.nan
            stage.times.append(time.perf_counter() - start)
        stage.losses.append(loss)
        stage.failed += not math.isfinite(loss)
        step += 1
        yield


def pretrain_stage(ctx: Context, steps: int) -> Stage:
    stage = Stage()
    take(pretrain_ops(ctx, stage), steps)
    return stage


def finetune_config(profile: str) -> FinetuneConfig:
    """Default fine-tuning settings with the profile's batch size and alpha."""
    p = DATASET_PROFILES[profile]
    return FinetuneConfig(batch_size=int(p["finetune.batch_size"]),
                          alpha=float(p["finetune.alpha"]))


def finetune_ops(ctx: Context, cfg: FinetuneConfig, stage: Stage, tracer=NO_TRACE):
    """In-batch-negative fine-tuning steps from a fresh encoder and optimizer."""
    encoder = ctx.encoder()
    optimizer = AdamW({"linear": cfg.lr_linear, "attention": cfg.lr_attention},
                      weight_decay=cfg.weight_decay)
    train = ctx.kg.splits["train"]
    per_epoch = math.ceil(len(train) / cfg.batch_size)
    total = cfg.epochs * per_epoch
    step = 0
    while True:
        epoch, k = divmod(step, per_epoch)
        if k == 0:
            order = derive_rng(ctx.seed, _FT_SHUFFLE, epoch).permutation(len(train))
            dropout_rng = derive_rng(ctx.seed, _FT_DROPOUT, epoch)
            neg_rng = derive_rng(ctx.seed, _FT_NEGATIVES, epoch)
        batch = [train[i] for i in order[k * cfg.batch_size:(k + 1) * cfg.batch_size]]
        with tracer.unit("finetune"):
            start = time.perf_counter()
            try:
                loss = _finetune.finetune_step(
                    batch, encoder, ctx.cat, ctx.label_filter, optimizer,
                    warmup_linear_decay(step, total, cfg.warmup_frac), cfg,
                    rng=dropout_rng, neg_rng=neg_rng).loss
            except TrainingDiverged:
                loss = math.nan
            stage.times.append(time.perf_counter() - start)
        stage.losses.append(loss)
        stage.failed += not math.isfinite(loss)
        step += 1
        yield


def check_replay(stage: Stage, replay: Stage, what: str) -> None:
    """The leading losses of a fresh start must equal the stage's, bit for bit;
    every differing step counts as failed."""
    for i, (a, b) in enumerate(zip(stage.losses, replay.losses)):
        if not (a == b or (math.isnan(a) and math.isnan(b))):
            stage.failed += 1
            stage.notes.append(f"{what} step {i}: loss {a!r} != replay {b!r}")


# ---------------------------------------------------------------- inference

def table_ops(ctx: Context, stage: Stage):
    """Entity-table encodes of the whole catalog."""
    encoder = ctx.encoder()
    while True:
        start = time.perf_counter()
        table = _evaluate.precompute_entity_embeddings(encoder, ctx.cat)
        stage.times.append(time.perf_counter() - start)
        if table.shape[0] != ctx.kg.num_entities or not np.isfinite(table).all():
            stage.failed += 1
            stage.notes.append(f"entity table {table.shape} is not finite and complete")
        stage.result = table
        yield


def table_stage(ctx: Context) -> Stage:
    stage = Stage()
    take(table_ops(ctx, stage), 1)
    return stage


def eval_graph(ctx: Context, n_triples: int):
    """The graph whose test split is its first ``n_triples`` original triples
    (all of them when 0); the filter index still covers the whole graph."""
    kg = ctx.kg
    test = [t for t in kg.splits["test"] if not kg.relation_is_inverse[t.relation]]
    if n_triples:
        test = test[:n_triples]
    return replace(kg, splits={**kg.splits, "test": test})


def check_report(report) -> str | None:
    """Metric invariants of one ranking report; returns the violation, if any."""
    if not report.hits1 <= report.hits3 <= report.hits10:
        return f"hits not ordered: {report.hits1} {report.hits3} {report.hits10}"
    if report.mrr < (1.0 / report.mr) * (1.0 - 1e-12):
        return f"mrr {report.mrr} < 1/mr {1.0 / report.mr}"
    return None


def evaluate_ops(ctx: Context, kg_eval, stage: Stage, tracer=NO_TRACE):
    """Whole ``evaluate`` calls, the catalog encode they do themselves included."""
    encoder = ctx.encoder()
    while True:
        with tracer.unit("evaluate"):
            start = time.perf_counter()
            report = _evaluate.evaluate(kg_eval, encoder, "test", cat=ctx.cat,
                                        filter_index=ctx.eval_filter)
            stage.times.append(time.perf_counter() - start)
        problem = check_report(report)
        if problem:
            stage.failed += 1
            stage.notes.append(problem)
        stage.result = report
        yield


def evaluate_stage(ctx: Context, kg_eval, tracer=NO_TRACE) -> Stage:
    stage = Stage()
    take(evaluate_ops(ctx, kg_eval, stage, tracer), 1)
    return stage


def predict_ops(ctx: Context, stage: Stage, table: Stage, evaluated: Stage,
                tracer=NO_TRACE, burst: int = 1):
    """Closed loop of ``rank_query`` calls against ``table``'s entity table,
    over the queries ``evaluated`` ranked, in order and cycling, ``burst``
    queries per operation; each rank must equal the one ``evaluate`` reported."""
    encoder = ctx.encoder()
    i = 0
    while True:
        for _ in range(burst):
            expected = evaluated.result.per_query
            q = expected[i % len(expected)]
            query = RankingQuery(q["entity"], q["relation"], q["gold"])
            with tracer.unit("predict"):
                start = time.perf_counter()
                rank = _evaluate.rank_query(query, encoder, ctx.cat, table.result,
                                            ctx.eval_filter)
                stage.times.append(time.perf_counter() - start)
            if rank != q["rank"]:
                stage.failed += 1
                stage.notes.append(f"query {i % len(expected)}: rank_query {rank} != "
                                   f"evaluate {q['rank']}")
            i += 1
        yield


def predict_stage(ctx: Context, table: Stage, evaluated: Stage, count: int) -> Stage:
    stage = Stage()
    take(predict_ops(ctx, stage, table, evaluated), count)
    return stage


# ------------------------------------------------------------- data shape

def data_shape(ctx: Context, ft_batch: int, eval_report) -> dict:
    """What the generated graph looks like where the stages see it."""
    kg = ctx.kg
    sizes = np.array([len(ctx.eval_filter[k]) for k in ctx.eval_filter.keys()])
    train = kg.splits["train"]
    order = derive_rng(ctx.seed, _FT_SHUFFLE, 0).permutation(len(train))
    shares = []
    for start in range(0, min(len(train), 20 * ft_batch), ft_batch):
        tails = {train[i].tail for i in order[start:start + ft_batch]}
        shares.append(len(tails) / len(order[start:start + ft_batch]))
    filtered = [len(ctx.eval_filter[(q["entity"], q["relation"])]) - 1
                for q in eval_report.per_query] if eval_report else [0]
    lengths = [len(ctx.cat.entity_tokens[e]) + len(ctx.cat.entity_desc_tokens[e])
               for e in range(kg.num_entities)]
    return {
        "entities": kg.num_entities,
        "relations": kg.num_relations // 2,
        "splits": {k: sum(not kg.relation_is_inverse[t.relation] for t in v)
                   for k, v in kg.splits.items()},
        "vocab_size": ctx.vocab.size,
        "entity_words_mean": float(np.mean(lengths)),
        "finetune_batch": ft_batch,
        "finetune_unique_tail_share": float(np.mean(shares)),
        "filter_set_sizes": {
            "keys": int(sizes.size), "mean": float(sizes.mean()),
            **{f"p{q}": float(np.percentile(sizes, q)) for q in (50, 90, 99)},
            "max": int(sizes.max())},
        "filtered_per_eval_query": float(np.mean(filtered)),
    }


# ------------------------------------------------------------------ runs

@dataclass
class Outcome:
    metrics: dict            # name -> (value, unit)
    attempted: int
    failed: int
    notes: list
    record: dict             # everything else worth keeping
    tracer: Tracer | None = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prepare(plan: Plan, seed: int, tracer=NO_TRACE):
    """Generate the workload graph, set it up ``setup_reps`` times; returns the
    last context, the set-up times and the generation time."""
    start = time.perf_counter()
    raw = generate_graph(plan.shape, seed)
    generate_s = time.perf_counter() - start
    times = []
    for _ in range(plan.setup_reps):
        with tracer.unit("setup"):
            ctx, elapsed = set_up(raw, plan.shape.min_freq, seed)
        times.append(elapsed)
    if ctx.vocab.size != plan.shape.vocab_size:
        raise RuntimeError(f"generated vocabulary has {ctx.vocab.size} tokens, "
                           f"expected {plan.shape.vocab_size}")
    return ctx, times, generate_s


def inference_context(plan: Plan, ctx: Context, seed: int) -> Context:
    if plan.inference_scale == 1.0:
        return ctx
    raw = generate_graph(plan.shape.scaled(plan.inference_scale), seed)
    return set_up(raw, plan.shape.min_freq, seed)[0]


def run(plan: Plan, seed: int, seconds: float) -> Outcome:
    """The untraced run: every stage, interleaved, every end-to-end metric."""
    ctx, setup_times, generate_s = prepare(plan, seed)
    ictx = inference_context(plan, ctx, seed)
    ft_cfg = finetune_config(plan.profile)
    stages = {name: Stage() for name in (*STAGES, *REPLAYS)}
    pre, ft, table, ev, pred, pre_replay, ft_replay = stages.values()
    ops = {
        "pretrain": pretrain_ops(ctx, pre),
        "finetune": finetune_ops(ctx, ft_cfg, ft),
        # fresh starts: their losses must repeat the leading steps' bit for
        # bit, and their step times join the stage's
        "pretrain_replay": pretrain_ops(ctx, pre_replay),
        "finetune_replay": finetune_ops(ctx, ft_cfg, ft_replay),
        "table": table_ops(ictx, table),
        "evaluate": evaluate_ops(ictx, eval_graph(ictx, plan.eval_triples), ev),
        # back-to-back queries, as one client sends them: a query right after
        # a training step would find the entity table evicted from cache
        "predict": predict_ops(ictx, pred, table, ev, burst=PREDICT_BURST),
    }
    minimum = {"pretrain": plan.pretrain_steps, "finetune": plan.finetune_steps,
               "pretrain_replay": plan.pretrain_steps,
               "finetune_replay": plan.finetune_steps, "table": plan.table_reps, "evaluate": plan.eval_reps,
               "predict": math.ceil(plan.predict_queries / PREDICT_BURST)}
    schedule(ops, minimum, plan.weights, seconds)
    check_replay(pre, pre_replay, "pretrain")
    check_replay(ft, ft_replay, "finetune")

    report = ev.result
    med = {name: statistics.median(s.times) for name, s in stages.items()}
    for replay, name in REPLAYS.items():
        med[name] = statistics.median(stages[name].times + stages[replay].times)
    fixed_loss = {name: [x for x in stages[name].losses[:n] if math.isfinite(x)]
                  for name, n in (("pretrain", plan.pretrain_steps),
                                  ("finetune", plan.finetune_steps))}
    p50, p95 = np.percentile(pred.times, [50, 95]) * 1000.0
    metrics = {
        "pretrain_samples_per_s": (PretrainConfig().batch_size / med["pretrain"], "1/s"),
        "finetune_triples_per_s": (ft_cfg.batch_size / med["finetune"], "1/s"),
        "pretrain_loss": (float(np.mean(fixed_loss["pretrain"] or [0.0])), "nats"),
        "finetune_loss": (float(np.mean(fixed_loss["finetune"] or [0.0])), "nats"),
        "entity_encode_per_s": (ictx.kg.num_entities / med["table"], "1/s"),
        "eval_queries_per_s": (report.n_queries / med["evaluate"], "1/s"),
        "predict_p50_ms": (float(p50), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    record = {
        # printed, but not gated: on a shared host its run-to-run spread
        # exceeds any bound the benchmark may set
        "ungated": {"predict_p95_ms": (float(p95), "ms")},
        "generate_s": generate_s,
        "setup_times_s": setup_times,
        "stages": {name: {"ops": s.attempted, "failed": s.failed,
                          "median_s": med[name], "times_s": s.times}
                   for name, s in stages.items()},
        "losses": {"pretrain": pre.losses[:plan.pretrain_steps],
                   "finetune": ft.losses[:plan.finetune_steps]},
        "ranking": {k: getattr(report, k) for k in ("n_queries", "hits1", "hits3",
                                                     "hits10", "mr", "mrr")},
        "data_shape": data_shape(ctx, ft_cfg.batch_size,
                                 report if ictx is ctx else None),
    }
    if ictx is not ctx:
        record["inference_data_shape"] = data_shape(ictx, ft_cfg.batch_size, report)
    return Outcome(metrics, sum(s.attempted for s in stages.values()),
                   sum(s.failed for s in stages.values()),
                   [n for s in stages.values() for n in s.notes], record)


# ------------------------------------------------------------- traced run

#: per-layer metrics reported as self time: the span name plus ".self_ms"
SELF_TIMED = ["sampling", "text", "encoder.forward", "encoder.backward", "encoder.head",
              "encoder.encode", "layers.linear", "layers.gelu", "layers.layernorm",
              "layers.softmax", "layers.dropout", "layers.batchnorm",
              "layers.cross_entropy", "layers.clip", "optim.adamw", "pretrain",
              "finetune", "finetune.cell_loss", "finetune.labels", "evaluate",
              "evaluate.rank_query"]

#: per-layer metrics that are inclusive times, counts or ratios
OTHER = {
    "encoder.head.ms": "ms", "evaluate.entity_table.ms": "ms",
    "evaluate.query_encode.ms": "ms", "evaluate.rank.ms": "ms",
    "evaluate.rank_query.encode_ms": "ms", "data.filter_index.ms": "ms",
    "encoder.real_token_share": "ratio", "encoder.rows_per_step": "count",
    "layers.clip.fired_share": "ratio", "optim.touched_row_share": "ratio",
    "finetune.unique_tail_share": "ratio", "evaluate.filtered_per_query": "count",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
}

#: entry points whose self time is the body of the call: whatever no layer
#: span below it holds
STEP_BODIES = ("pretrain", "finetune", "evaluate", "evaluate.rank_query")

# inclusive-time metrics: (span name, parent span name or None) -> metric
_INCLUSIVE = {
    ("encoder.head", None): "encoder.head.ms",
    ("evaluate.entity_table", "evaluate"): "evaluate.entity_table.ms",
    ("encoder.encode", "evaluate"): "evaluate.query_encode.ms",
    ("evaluate.rank", None): "evaluate.rank.ms",
    ("encoder.encode", "evaluate.rank_query"): "evaluate.rank_query.encode_ms",
}


def layer_metrics(tracer: Tracer, scale: dict, n_setup: int, twins: dict) -> dict:
    """Per-layer metrics from the spans and counters of a traced run.

    ``scale`` maps each traced unit kind to the factor that turns its totals
    into per-step (or per-1k-query) figures; unit kinds absent from it only
    feed ``data.filter_index.ms`` (set-up) or nothing. ``twins`` maps unit
    kinds to their (traced, untraced) stages, run alternately over the same
    operations.

    ``trace.coverage`` is the self time of the layer spans in the twinned
    units, unit roots and ``STEP_BODIES`` left out, over the untraced time of
    the same operations: a lost hook moves time into a step body and lowers
    it, tracing distortion raises it. ``trace.overhead`` is the traced over
    the untraced median operation time, minus 1.
    """
    out = dict.fromkeys([n + ".self_ms" for n in SELF_TIMED] + list(OTHER), 0.0)
    selfs = tracer.self_times()
    covered = 0.0
    for i, (name, start, end, parent, unit) in enumerate(tracer.spans):
        kind = tracer.units[unit] if unit >= 0 else None
        dur = end - start
        if kind == "setup" and name == "data.filter_index":
            out["data.filter_index.ms"] += dur * 1000.0 / n_setup
        if kind in twins and parent >= 0 and name not in STEP_BODIES:
            covered += selfs[i]
        factor = scale.get(kind)
        if factor is None or parent < 0:
            continue
        key = name + ".self_ms"
        if key in out:
            out[key] += selfs[i] * 1000.0 * factor
        parent_name = tracer.spans[parent][0]
        for (span, under), metric in _INCLUSIVE.items():
            if span == name and under in (None, parent_name):
                out[metric] += dur * 1000.0 * factor

    def total(counter):
        return sum(tracer.counts.get((kind, counter), 0.0) for kind in scale)

    def share(num, den):
        d = total(den)
        return total(num) / d if d else 0.0

    steps = sum(tracer.units.count(k) for k in TRAINING_UNITS)
    out["encoder.real_token_share"] = share("real_tokens", "token_slots")
    out["encoder.rows_per_step"] = sum(tracer.counts.get((k, "rows"), 0.0) * f
                                       for k, f in scale.items())
    out["layers.clip.fired_share"] = share("clip_fired", "clip_calls")
    out["optim.touched_row_share"] = sum(
        tracer.counts.get((k, "touched_row_share"), 0.0) for k in TRAINING_UNITS) / (steps or 1)
    out["finetune.unique_tail_share"] = share("unique_tail_share", "finetune_batches")
    out["evaluate.filtered_per_query"] = share("filtered", "ranked_queries")
    out["trace.coverage"] = covered / sum(sum(plain.times) for _, plain in twins.values())
    out["trace.overhead"] = (sum(statistics.median(t.times) for t, _ in twins.values())
                             / sum(statistics.median(p.times) for _, p in twins.values()) - 1.0)
    return out


def metric_unit(name: str) -> str:
    return OTHER.get(name, "ms")


def run_traced(plan: Plan, seed: int, seconds: float) -> Outcome:
    """The traced run: the focus stages at their fixed sizes, the training
    steps or ``rank_query`` calls alternately untraced and traced (the
    difference is the tracing overhead); per-layer metrics.

    Self times are per training step pair (one pre-training step plus one
    fine-tuning step) on the training workloads, and per 1k queries answered
    (evaluated plus predicted) on the ranking workload.
    """
    tracer = Tracer(plan.shape.vocab_size)
    tracer.install()
    try:
        ctx, setup_times, _ = prepare(plan, seed, tracer)
        if plan.focus == "train":
            ft_cfg = finetune_config(plan.profile)
            stages = {name: Stage() for name in ("pretrain_untraced", "pretrain",
                                                 "finetune_untraced", "finetune")}
            pre_plain, pre, ft_plain, ft = stages.values()
            # untraced and traced passes alternate, so drift hits both alike
            schedule({"pretrain_untraced": pretrain_ops(ctx, pre_plain),
                      "pretrain": pretrain_ops(ctx, pre, tracer),
                      "finetune_untraced": finetune_ops(ctx, ft_cfg, ft_plain),
                      "finetune": finetune_ops(ctx, ft_cfg, ft, tracer)},
                     {"pretrain_untraced": plan.pretrain_steps,
                      "pretrain": plan.pretrain_steps,
                      "finetune_untraced": plan.finetune_steps,
                      "finetune": plan.finetune_steps}, {}, 0.0)
            check_replay(pre, pre_plain, "traced pretrain")
            check_replay(ft, ft_plain, "traced finetune")
            twins = {"pretrain": (pre, pre_plain), "finetune": (ft, ft_plain)}
            scale = {"pretrain": 1.0 / pre.attempted, "finetune": 1.0 / ft.attempted}
        else:
            table = table_stage(ctx)
            ev = evaluate_stage(ctx, eval_graph(ctx, plan.eval_triples), tracer=tracer)
            plain, pred = Stage(), Stage()
            schedule({"plain": predict_ops(ctx, plain, table, ev),
                      "traced": predict_ops(ctx, pred, table, ev, tracer)},
                     dict.fromkeys(("plain", "traced"), plan.predict_queries), {}, 0.0)
            stages = {"table": table, "evaluate": ev, "predict_untraced": plain,
                      "predict": pred}
            twins = {"predict": (pred, plain)}
            per_k = 1000.0 / (ev.result.n_queries + pred.attempted)
            scale = {"evaluate": per_k, "predict": per_k}
    finally:
        tracer.uninstall()
    metrics = {name: (value, metric_unit(name)) for name, value in
               layer_metrics(tracer, scale, len(setup_times), twins).items()}
    record = {"stages": {name: {"ops": s.attempted, "failed": s.failed,
                                "median_s": statistics.median(s.times)}
                         for name, s in stages.items()},
              "spans": len(tracer.spans)}
    return Outcome(metrics, sum(s.attempted for s in stages.values()),
                   sum(s.failed for s in stages.values()),
                   [n for s in stages.values() for n in s.notes], record, tracer)
