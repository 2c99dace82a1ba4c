"""Knowledge-graph link prediction at desk scale.

Pipeline: load a triple dataset, augment it with inverse relations, pre-train a
compact text encoder on masked-triple objectives, fine-tune it as a Siamese
bi-encoder with in-batch negatives, and evaluate filtered ranking metrics over
the entity catalog. Pure numpy/scipy; no accelerator required.

Importing kglp raises glibc's mmap and trim thresholds once (``kglp._heap``),
so memory a training step frees stays in the process for the next step.
"""

from . import _heap

from .data import (FilterIndex, KnowledgeGraph, Triple, augment_inverse,
                   build_filter_index, dataset_statistics, load_dataset,
                   resplit_unseen)
from .encoder import CheckpointError, Encoder, EncoderConfig, load_checkpoint, save_checkpoint
from .evaluate import (RankingQuery, RankingReport, evaluate,
                       precompute_entity_embeddings, rank_query)
from .finetune import (FinetuneConfig, FocalParams, build_label_matrix,
                       joint_loss, run_finetune, score_batch)
from .pretrain import (PretrainConfig, PretrainLossReport, pretrain_step,
                       run_pretraining)
from .sampling import PretrainSample, build_pretrain_sample, mask_mlm_region
from .text import (SequenceLayout, TokenizedCatalog, Vocabulary, assemble_entity,
                   assemble_pair, assemble_triple, build_vocab, tokenize)

__version__ = "0.1.0"

_heap.keep_freed_memory(_heap.glibc_mallopt())

__all__ = [
    "FilterIndex", "KnowledgeGraph", "Triple", "augment_inverse",
    "build_filter_index", "dataset_statistics", "load_dataset", "resplit_unseen",
    "CheckpointError", "Encoder", "EncoderConfig", "load_checkpoint", "save_checkpoint",
    "RankingQuery", "RankingReport", "evaluate", "precompute_entity_embeddings",
    "rank_query",
    "FinetuneConfig", "FocalParams", "build_label_matrix", "joint_loss",
    "run_finetune", "score_batch",
    "PretrainConfig", "PretrainLossReport", "pretrain_step", "run_pretraining",
    "PretrainSample", "build_pretrain_sample", "mask_mlm_region",
    "SequenceLayout", "TokenizedCatalog", "Vocabulary", "assemble_entity",
    "assemble_pair", "assemble_triple", "build_vocab", "tokenize",
    "__version__",
]
