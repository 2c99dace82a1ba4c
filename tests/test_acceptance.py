"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criteria touching the public benchmarks (1, 2, 3, 8) resolve their dataset
directories via $KGLP_DATA_DIR (or ./data) and skip with an explicit message
when the data is not present; this build environment has no network access to
fetch them. Criteria 4-7 are self-contained and always run.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

import kglp
from kglp.config import normalize_dataset_name
from kglp.data import build_filter_index
from kglp.encoder import Encoder, EncoderConfig
from kglp.evaluate import evaluate
from kglp.finetune import (FinetuneConfig, FocalParams, abs_diff_sums,
                           build_label_matrix, joint_loss, loss_and_vector_grads,
                           run_finetune, score_batch)
from kglp.layers import cross_entropy
from kglp.pretrain import PretrainConfig, run_pretraining
from kglp.sampling import build_pretrain_sample, derive_rng
from kglp.text import PAD_ID, TokenizedCatalog

from perfbench.graphs import TABLE4
from util import (DATA_ENV, benchmark_dir, naive_label_matrix, naive_rank,
                  random_toy_dataset, rel_error, run_pipeline)


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def _require(criterion: str, name: str):
    directory = benchmark_dir(name)
    if directory is None:
        message = (f"{name} dataset not found; place it under $"
                   f"{DATA_ENV}/{name} or ./data/{name} (train/valid/test.tsv)")
        print(f"\n[{criterion}] SKIP - {message}")
        pytest.skip(message)
    return directory


def _umls_graph(directory):
    kg = kglp.augment_inverse(kglp.load_dataset(directory))
    vocab = kglp.build_vocab(kg, 1)
    return kg, vocab


# ---------------------------------------------------------------- criterion 1

@pytest.mark.parametrize("name", ["umls", "wn18rr", "fb15k-237"])
def test_c1_dataset_fidelity(name):
    directory = _require("C1", name)
    started = time.time()
    kg = kglp.load_dataset(directory)
    elapsed = time.time() - started
    stats = kglp.dataset_statistics(kg)
    expect = TABLE4[normalize_dataset_name(name)]
    got = {k: stats[k] for k in expect}
    ok = got == expect and elapsed < 60.0
    _line("C1", ok, f"{name}: {got} in {elapsed:.1f}s (expected {expect}, < 60s)")
    assert got == expect
    assert elapsed < 60.0


# ---------------------------------------------------------------- criterion 2

def test_c2_umls_end_to_end():
    directory = _require("C2", "umls")
    kg, vocab = _umls_graph(directory)
    encoder = Encoder(EncoderConfig(vocab_size=vocab.size), seed=11)
    n_params = encoder.config.num_parameters()
    assert n_params <= 5_000_000, f"compact encoder has {n_params} parameters"

    started = time.time()
    run_pretraining(kg, vocab, encoder, PretrainConfig(seed=11))
    run_finetune(kg, vocab, encoder, FinetuneConfig(
        epochs=30, batch_size=128, alpha=0.8, gamma=2.0, seed=11))
    elapsed = time.time() - started

    report = evaluate(kg, encoder, "test", vocab=vocab)
    ok = report.hits10 >= 0.90 and report.mr <= 10.0
    _line("C2", ok, f"UMLS test hits@10={report.hits10:.3f} (>=0.90) "
                    f"MR={report.mr:.2f} (<=10) params={n_params} "
                    f"elapsed={elapsed/60:.1f}min")
    assert report.hits10 >= 0.90
    assert report.mr <= 10.0


# ---------------------------------------------------------------- criterion 3

def test_c3_ablation_direction():
    directory = _require("C3", "umls")
    kg, vocab = _umls_graph(directory)
    seeds = (0, 1, 2)
    budgets = dict(pretrain_epochs=6, finetune_epochs=6, hidden_size=128,
                   ff_size=256, max_len=64, batch_size=32, finetune_batch=128,
                   pair_max_len=64, entity_max_len=32,
                   pretrain_lr=(1e-4, 5e-5), finetune_lr=(1e-3, 5e-5))

    def test_hits10(encoder):
        return evaluate(kg, encoder, "test", vocab=vocab, pair_max_len=64,
                        entity_max_len=32, collect_per_query=False).hits10

    full, mlm_only, none, uniform = [], [], [], []
    for seed in seeds:
        full.append(test_hits10(run_pipeline(kg, vocab, seed, **budgets)))
        mlm_only.append(test_hits10(run_pipeline(kg, vocab, seed,
                                                 pretraining="mlm", **budgets)))
        none.append(test_hits10(run_pipeline(kg, vocab, seed,
                                             pretraining="none", **budgets)))
        uniform.append(test_hits10(run_pipeline(kg, vocab, seed,
                                                negative_mode="uniform_k",
                                                num_negatives=5, **budgets)))
    m_full, m_mlm, m_none, m_unif = (float(np.mean(x))
                                     for x in (full, mlm_only, none, uniform))
    ok = m_full > m_mlm > m_none and m_full > m_unif
    _line("C3", ok,
          f"mean test hits@10 over seeds {seeds}: full={m_full:.3f} > "
          f"mlm-only={m_mlm:.3f} > none={m_none:.3f}; "
          f"in-batch={m_full:.3f} > uniform-5={m_unif:.3f}")
    assert m_full > m_mlm > m_none
    assert m_full > m_unif


# ---------------------------------------------------------------- criterion 4

def test_c4_oracle_equivalence(tmp_path, rng):
    n_kgs = 100
    mismatches = 0
    for trial in range(n_kgs):
        d = random_toy_dataset(tmp_path / f"kg{trial}", rng, max_entities=50,
                               max_relations=5)
        kg = kglp.augment_inverse(kglp.load_dataset(d))
        vocab = kglp.build_vocab(kg, 1)
        cat = TokenizedCatalog(kg, vocab)
        encoder = Encoder(EncoderConfig(vocab_size=vocab.size, hidden_size=16,
                                        num_layers=1, num_heads=2, ff_size=16,
                                        max_len=32), seed=trial)
        # evaluator vs a brute-force reference on the same embeddings
        from kglp.evaluate import precompute_entity_embeddings, _encode_pooled
        from kglp.layers import unit_rows
        from kglp.text import assemble_pair
        filt = build_filter_index(kg)
        table = precompute_entity_embeddings(encoder, cat, 16)
        table_unit = unit_rows(table)[0]
        report = evaluate(kg, encoder, "test", vocab=vocab, pair_max_len=32,
                          entity_max_len=16)
        for entry in report.per_query:
            layout = assemble_pair(cat, entry["entity"], entry["relation"], 32)
            pooled = _encode_pooled(encoder, [layout], 1)
            scores = (unit_rows(pooled)[0] @ table_unit.T)[0]
            want = naive_rank(scores, entry["gold"],
                              filt[(entry["entity"], entry["relation"])])
            if want != entry["rank"]:
                mismatches += 1
        # label matrices vs the double-loop dict oracle
        batch = [kg.splits["train"][i % len(kg.splits["train"])]
                 for i in range(int(rng.integers(1, 9)))]
        truth = {}
        for split in kg.splits.values():
            for t in split:
                truth.setdefault((t.head, t.relation), set()).add(t.tail)
        y = build_label_matrix(batch, filt)
        if not (y == naive_label_matrix(batch, truth)).all():
            mismatches += 1
    ok = mismatches == 0
    _line("C4", ok, f"{n_kgs} randomized toy KGs: evaluator ranks and label "
                    f"matrices match the naive references exactly "
                    f"({mismatches} mismatches)")
    assert mismatches == 0


# ---------------------------------------------------------------- criterion 5

def test_c5_sampler_statistics(pair_kg, pair_vocab):
    cat = TokenizedCatalog(pair_kg, pair_vocab)
    train = pair_kg.splits["train"]
    n = 100_000
    task_counts = {"mem_head": 0, "mem_tail": 0, "mrm": 0}
    selected = masked = randomized = kept = eligible = 0
    violations = 0
    for i in range(n):
        triple = train[i % len(train)]
        s = build_pretrain_sample(triple, cat, 32, derive_rng(5, 0, i))
        task_counts[s.task] += 1
        layout = s.layout
        # leak-freedom and overlay reconstruction on every sample
        if s.task == "mem_head":
            b, e = layout.spans["head_desc"]
            if (s.x[b:e] != PAD_ID).any():
                violations += 1
        if s.task == "mem_tail":
            b, e = layout.spans["tail_desc"]
            if (s.x[b:e] != PAD_ID).any():
                violations += 1
        overlay = s.x.copy()
        overlay[s.y1 != PAD_ID] = s.y1[s.y1 != PAD_ID]
        overlay[s.y2 != PAD_ID] = s.y2[s.y2 != PAD_ID]
        expect = layout.tokens.copy()
        if s.task == "mem_head":
            b, e = layout.spans["head_desc"]
            expect[b:e] = PAD_ID
        if s.task == "mem_tail":
            b, e = layout.spans["tail_desc"]
            expect[b:e] = PAD_ID
        if (overlay != expect).any():
            violations += 1
        if ((s.y1 != PAD_ID) & (s.y2 != PAD_ID)).any():
            violations += 1
        # MLM branch accounting over the eligible regions
        from kglp.sampling import MLM_REGIONS
        for region in MLM_REGIONS[s.task]:
            b, e = layout.spans[region]
            eligible += e - b
            sel = s.y2[b:e] != PAD_ID
            selected += int(sel.sum())
            orig = layout.tokens[b:e]
            masked += int(((s.x[b:e] == 4) & sel).sum())
            randomized += int((sel & (s.x[b:e] != 4) & (s.x[b:e] != orig)).sum())
            kept += int((sel & (s.x[b:e] == orig)).sum())

    freq = {k: v / n for k, v in task_counts.items()}
    sel_rate = selected / eligible
    branch = (masked / selected, randomized / selected, kept / selected)
    ok = (abs(freq["mem_head"] - 0.4) < 0.02 and abs(freq["mem_tail"] - 0.4) < 0.02
          and abs(freq["mrm"] - 0.2) < 0.02 and abs(sel_rate - 0.15) < 0.02
          and abs(branch[0] - 0.8) < 0.02 and abs(branch[1] - 0.1) < 0.02
          and abs(branch[2] - 0.1) < 0.02 and violations == 0)
    _line("C5", ok,
          f"{n} samples: tasks=({freq['mem_head']:.3f},{freq['mem_tail']:.3f},"
          f"{freq['mrm']:.3f})~(0.4,0.4,0.2); select={sel_rate:.3f}~0.15; "
          f"branches=({branch[0]:.3f},{branch[1]:.3f},{branch[2]:.3f})~(0.8,0.1,0.1); "
          f"invariant violations={violations}")
    assert ok


# ---------------------------------------------------------------- criterion 6

def test_c6_numerical_correctness(rng):
    # closed forms at 1e-6
    loss_uniform, _ = cross_entropy(np.zeros((5, 100)), np.arange(5))
    closed_ok = abs(loss_uniform - math.log(100)) < 1e-6
    perfect = joint_loss(np.array([[1.0]]), np.array([[0.0]]), np.array([[1]]),
                         FocalParams(0.8, 2.0))
    sigmoid_ok = abs(perfect - 0.5) < 1e-6  # zero focal term + sigma(0)

    # gradient checks at <= 1e-4 relative: prediction head, then joint loss
    cfg = EncoderConfig(vocab_size=30, hidden_size=16, num_layers=1, num_heads=4,
                        ff_size=16, max_len=8, dropout=0.0)
    enc = Encoder(cfg, seed=2, dtype=np.float64)
    for v in enc.params.values():
        if v.ndim >= 2:
            v *= 6.0
    states = np.random.default_rng(0).standard_normal((12, 16))
    targets = np.random.default_rng(1).integers(5, 30, size=12)
    buffers0 = {k: v.copy() for k, v in enc.buffers.items()}

    def head_loss():
        logits, _ = enc.predict_tokens(states, train=True)
        value, _ = cross_entropy(logits, targets)
        enc.buffers = {k: v.copy() for k, v in buffers0.items()}
        return value

    logits, cache = enc.predict_tokens(states, train=True)
    _, dlogits = cross_entropy(logits, targets)
    head_grads, _ = enc.head_backward(cache, dlogits)
    enc.buffers = {k: v.copy() for k, v in buffers0.items()}
    worst_head = 0.0
    pick = np.random.default_rng(3)
    eps = 1e-6
    for name in ("head.w1", "head.b1", "head.bn.g", "head.bn.b", "head.w2",
                 "head.b2"):
        p = enc.params[name]
        for _ in range(4):
            idx = tuple(pick.integers(0, s) for s in p.shape)
            orig = p[idx]
            p[idx] = orig + eps
            up = head_loss()
            p[idx] = orig - eps
            down = head_loss()
            p[idx] = orig
            worst_head = max(worst_head,
                             rel_error((up - down) / (2 * eps), head_grads[name][idx]))

    pvec = np.random.default_rng(4).standard_normal((5, 7))
    evec = np.random.default_rng(5).standard_normal((5, 7))
    labels = np.eye(5, dtype=np.int8)
    fp = FocalParams(0.8, 2.0)
    _, _, _, dp, de = loss_and_vector_grads(pvec, evec, labels, fp)
    worst_joint = 0.0
    for arr, grad in ((pvec, dp), (evec, de)):
        for _ in range(20):
            i, j = int(pick.integers(5)), int(pick.integers(7))
            orig = arr[i, j]
            arr[i, j] = orig + eps
            up = joint_loss(score_batch(pvec, evec), abs_diff_sums(pvec, evec),
                            labels, fp)
            arr[i, j] = orig - eps
            down = joint_loss(score_batch(pvec, evec), abs_diff_sums(pvec, evec),
                              labels, fp)
            arr[i, j] = orig
            worst_joint = max(worst_joint,
                              rel_error((up - down) / (2 * eps), grad[i, j]))

    ok = closed_ok and sigmoid_ok and worst_head <= 1e-4 and worst_joint <= 1e-4
    _line("C6", ok,
          f"uniform-CE vs ln(100) |err|={abs(loss_uniform - math.log(100)):.1e}; "
          f"perfect-positive loss as sigma(0)=0.5 |err|={abs(perfect - 0.5):.1e}; "
          f"head gradcheck worst={worst_head:.2e}; "
          f"joint-loss gradcheck worst={worst_joint:.2e} (both <= 1e-4)")
    assert ok


# ---------------------------------------------------------------- criterion 7

def test_c7_metric_invariants(tmp_path, rng):
    checked = 0
    for trial in range(8):
        d = random_toy_dataset(tmp_path / f"kg{trial}", rng, max_entities=30)
        kg = kglp.augment_inverse(kglp.load_dataset(d))
        vocab = kglp.build_vocab(kg, 1)
        encoder = Encoder(EncoderConfig(vocab_size=vocab.size, hidden_size=16,
                                        num_layers=1, num_heads=2, ff_size=16,
                                        max_len=32), seed=trial)
        if trial % 2 == 0:
            # adversarial constant-output model exercising the tie policy
            encoder.params["tok_emb"][...] = 0.0
            encoder.params["pos_emb"][...] = 0.0
        for split in ("valid", "test"):
            report = evaluate(kg, encoder, split, vocab=vocab, pair_max_len=32,
                              entity_max_len=16, collect_per_query=False)
            if report.n_queries == 0:
                continue
            assert report.hits1 <= report.hits3 <= report.hits10
            assert report.mrr >= 1.0 / report.mr - 1e-12
            checked += 1
    _line("C7", True, f"hits1<=hits3<=hits10 and MRR>=1/MR held on {checked} "
                      f"evaluation runs incl. constant-embedding models")
    assert checked >= 10


# ---------------------------------------------------------------- criterion 8

def test_c8_unseen_entities():
    directory = _require("C8", "umls")
    resplit = kglp.resplit_unseen(kglp.load_dataset(directory), ratio=0.1, seed=13)
    kg = kglp.augment_inverse(resplit)
    vocab = kglp.build_vocab(kg, 1)
    encoder = run_pipeline(kg, vocab, seed=11, pretrain_epochs=8,
                           finetune_epochs=10, hidden_size=128, ff_size=256,
                           max_len=64, batch_size=32, finetune_batch=128,
                           pair_max_len=64, entity_max_len=32,
                           pretrain_lr=(1e-4, 5e-5), finetune_lr=(1e-3, 5e-5))
    report = evaluate(kg, encoder, "test", vocab=vocab, pair_max_len=64,
                      entity_max_len=32, collect_per_query=False)
    random_hits10 = 10 / kg.num_entities
    ok = report.hits10 > random_hits10
    _line("C8", ok, f"unseen-entity test hits@10={report.hits10:.3f} > "
                    f"random expectation {random_hits10:.3f} "
                    f"({report.n_queries} queries)")
    assert report.hits10 > random_hits10
