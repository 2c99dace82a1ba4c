"""The public API of the package is a fixed list of names."""

import kglp


def test_public_names_are_pinned():
    assert kglp.__all__ == [
        "FilterIndex", "KnowledgeGraph", "Triple", "augment_inverse",
        "build_filter_index", "dataset_statistics", "load_dataset", "resplit_unseen",
        "CheckpointError", "Encoder", "EncoderConfig",
        "load_checkpoint", "save_checkpoint",
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
    assert all(hasattr(kglp, name) for name in kglp.__all__)
