"""Filtered ranking mechanics and free-text queries, step by step.

Uses hand-set embeddings (no training) to make every number checkable by eye:
how candidates are scored, what filtering removes, how ties are mid-ranked,
and how an entity that was never in the catalog still gets encoded and ranked.
Run: python demos/04_rank_and_predict.py
"""

import tempfile
from pathlib import Path

import numpy as np

import kglp
from kglp.evaluate import (aggregate_ranks, evaluate, precompute_entity_embeddings,
                           queries_for_split, query_scores, rank_from_scores)
from kglp.text import TokenizedCatalog, assemble_pair_tokens, tokenize

root = Path(tempfile.mkdtemp(prefix="kglp_demo_"))
(root / "train.tsv").write_text("sun\theats\tsand\nsun\theats\tsea\n")
(root / "valid.tsv").write_text("")
(root / "test.tsv").write_text("sun\theats\trock\n")
(root / "entity2text.tsv").write_text(
    "sun\tthe sun\nsand\twarm sand\nsea\tsalt sea\nrock\tflat rock\n")
(root / "relation2text.tsv").write_text("heats\theats up\n")

kg = kglp.augment_inverse(kglp.load_dataset(root))
index = kglp.build_filter_index(kg)
sun = kg.entity_index("sun")
heats = kg.relation_index("heats")

# scores one query (sun, heats, ?) against the whole catalog; gold is 'rock',
# which the model here scores LOWER than the already-known answers
scores = np.array([0.1, 0.9, 0.7, 0.6])  # catalog order: rock, sand, sea, sun
gold = kg.entity_index("rock")
print("catalog order:", kg.entity_ids)
print("raw scores   :", scores.tolist())

nothing_known = np.array([], dtype=np.int64)
unfiltered = rank_from_scores(scores, gold, nothing_known)
filtered = rank_from_scores(scores, gold, index.tails((sun, heats)))
print(f"rank of 'rock': unfiltered={unfiltered}  filtered={filtered} "
      f"(known-true 'sand' and 'sea' are removed before ranking)")

tied = np.array([0.5, 0.5, 0.5, 0.5])
print("all-tied scores give the mid rank:",
      rank_from_scores(tied, gold, nothing_known))

# the evaluator builds two queries per test triple: (h, r, ?) and (t, r_rev, ?)
for q in queries_for_split(kg, "test"):
    print("query:", kg.entity_ids[q.entity], "|", kg.relation_ids[q.relation],
          "-> gold", kg.entity_ids[q.gold])

# with a real (untrained) encoder everything runs the same way, end to end
vocab = kglp.build_vocab(kg, 1)
encoder = kglp.Encoder(kglp.EncoderConfig(
    vocab_size=vocab.size, hidden_size=32, num_layers=1, num_heads=4,
    ff_size=48, max_len=32), seed=0)
report = evaluate(kg, encoder, "test", vocab=vocab, pair_max_len=32,
                  entity_max_len=16)
print(f"\nuntrained encoder on the toy test split: hits@10={report.hits10:.2f} "
      f"mr={report.mr:.1f} over {report.n_queries} queries")
print("aggregates recomputed from the per-query ranks match:",
      aggregate_ranks([e["rank"] for e in report.per_query]))

# free-text head: an entity that is not in the catalog still gets a vector
cat = TokenizedCatalog(kg, vocab)
free = tokenize("a very hot sun", vocab)
layout = assemble_pair_tokens(free, [], heats, cat, 32)
table = precompute_entity_embeddings(encoder, cat, 16)
# cosine scores: the query's unit vector against the table, whose rows were
# normalised once, when it was built, however many queries follow
sims = query_scores(encoder, [layout], table)[0]
ranked = np.argsort(-sims)
print("\nfree-text query 'a very hot sun' + 'heats up' ranks the catalog as:")
for pos, e in enumerate(ranked, start=1):
    print(f"  {pos}. {kg.entity_ids[e]:<5} cosine {sims[e]: .6f}")
print("(an untrained encoder scores nearly everything alike; training is what"
      " spreads these apart - see demo 03)")
