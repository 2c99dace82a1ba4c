"""Fast tests of the benchmark itself: generator, checks, tiny workload runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from kglp import dataset_statistics
from perfbench import tracing
from perfbench.graphs import TABLE4, generate_graph
from perfbench.workloads import (OTHER, SELF_TIMED, WORKLOADS, check_replay,
                                 check_report, eval_graph, evaluate_stage, prepare,
                                 predict_stage, pretrain_stage, run, run_traced,
                                 schedule, table_stage)

END_TO_END = {"pretrain_samples_per_s", "finetune_triples_per_s", "pretrain_loss",
              "finetune_loss", "entity_encode_per_s", "eval_queries_per_s",
              "predict_p50_ms", "setup_s", "peak_rss_mb"}

#: scale per workload that keeps every generated graph feasible and small
TINY = {"umls-train": 0.2, "wn18rr-train": 0.004, "fb15k237-rank": 0.01}


def tiny(name: str):
    plan = WORKLOADS[name]
    return replace(plan, shape=plan.shape.scaled(TINY[name]), setup_reps=1,
                   pretrain_steps=3, finetune_steps=2, weights={}, table_reps=1,
                   eval_triples=10, predict_queries=6,
                   inference_scale=1.0 if plan.inference_scale == 1.0 else 0.5)


def test_generator_is_deterministic_with_exact_table4_counts():
    for name, plan in WORKLOADS.items():
        kg = generate_graph(plan.shape, seed=5)
        stats = dataset_statistics(kg)
        assert {k: stats[k] for k in TABLE4[plan.profile]} == TABLE4[plan.profile]
        triples = [t for split in kg.splits.values() for t in split]
        assert len(set(triples)) == len(triples)
        if name == "umls-train":
            again = generate_graph(plan.shape, seed=5)
            assert again.splits == kg.splits
            assert again.entity_names == kg.entity_names
            assert again.entity_descriptions == kg.entity_descriptions
            assert again.relation_texts == kg.relation_texts
            assert generate_graph(plan.shape, seed=6).splits != kg.splits


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_its_checks(name):
    outcome = run(tiny(name), seed=3, seconds=0.1)
    assert outcome.failed == 0, outcome.notes
    assert set(outcome.metrics) == END_TO_END
    assert all(math.isfinite(v) and v > 0 for v, _ in outcome.metrics.values())
    assert outcome.record["ungated"]["predict_p95_ms"][0] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(name):
    outcome = run_traced(tiny(name), seed=3, seconds=0.1)
    assert outcome.failed == 0, outcome.notes
    assert set(outcome.metrics) == {n + ".self_ms" for n in SELF_TIMED} | set(OTHER)
    assert 0.0 < outcome.metrics["trace.coverage"][0] < 1.5


def test_lost_hooks_lower_trace_coverage(monkeypatch):
    plan = tiny("umls-train")
    full = run_traced(plan, seed=3, seconds=0.1).metrics["trace.coverage"][0]
    monkeypatch.setattr(tracing, "METHODS",
                        [m for m in tracing.METHODS if m[0] != "kglp.encoder"])
    monkeypatch.setattr(tracing, "FUNCTIONS",
                        [f for f in tracing.FUNCTIONS if f[0] != "kglp.layers"])
    stripped = run_traced(plan, seed=3, seconds=0.1).metrics["trace.coverage"][0]
    assert stripped < 0.5 * full


def test_loss_sequences_repeat_bit_for_bit():
    ctx = prepare(tiny("umls-train"), seed=4)[0]
    first, second = pretrain_stage(ctx, 3), pretrain_stage(ctx, 3)
    assert first.losses == second.losses
    check_replay(first, second, "pretrain")
    assert first.failed == 0
    second.losses[1] += 1e-12
    check_replay(first, second, "pretrain")
    assert first.failed == 1


def test_wrong_rank_is_caught():
    plan = tiny("fb15k237-rank")
    ctx = prepare(plan, seed=2)[0]
    table = table_stage(ctx)
    evaluated = evaluate_stage(ctx, eval_graph(ctx, plan.eval_triples))
    count = evaluated.result.n_queries
    assert predict_stage(ctx, table, evaluated, count).failed == 0
    evaluated.result.per_query[1]["rank"] += 1
    stage = predict_stage(ctx, table, evaluated, count)
    assert stage.failed == 1
    assert "query 1" in stage.notes[0]


def test_metric_invariant_violations_are_reported():
    class Report:
        hits1, hits3, hits10, mr, mrr = 0.5, 0.4, 0.9, 2.0, 0.6
    assert "hits" in check_report(Report)
    Report.hits3, Report.mrr = 0.6, 0.4
    assert "mrr" in check_report(Report)
    Report.mrr = 0.5
    assert check_report(Report) is None


def test_schedule_meets_minimums_and_interleaves():
    calls = []

    def ops(name):
        while True:
            calls.append(name)
            yield

    names = ("a", "b", "c")
    schedule({n: ops(n) for n in names}, {"a": 4, "b": 2, "c": 1}, {}, 0.0)
    assert calls[:3] == ["a", "b", "c"]
    assert sorted(calls) == ["a"] * 4 + ["b"] * 2 + ["c"]
    assert calls[3:] == ["a", "a", "b", "a"]
