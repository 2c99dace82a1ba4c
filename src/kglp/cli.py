"""Command-line surface: ingest, pretrain, finetune, evaluate, resplit-unseen, predict.

Each command reads/writes a run directory so a full experiment is:

    kglp ingest data/umls --out runs/umls
    kglp pretrain --out runs/umls
    kglp finetune --out runs/umls
    kglp evaluate --out runs/umls --split test
    kglp predict --out runs/umls --head "algorithm" --relation isa -k 5

``ingest``, ``pretrain``, ``finetune`` and ``evaluate`` write a manifest (config
snapshot, sha256 of inputs and outputs, metrics, elapsed seconds) next to their
artifacts; ``resplit-unseen`` and ``predict`` write none. Exit codes: 0 success,
1 runtime failure (a malformed checkpoint too), 2 usage/config error.

``--threads N`` caps the BLAS/OpenMP pools through threadpoolctl (the ``perf``
extra) while the command runs; without threadpoolctl it is refused with exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, encoder_settings, load_run_config
from .data import (DATASET_FILES, DatasetError, augment_inverse, build_filter_index,
                   dataset_statistics, load_dataset, resplit_unseen, save_catalogs,
                   save_splits)
from .encoder import CheckpointError, Encoder, EncoderConfig, load_checkpoint, save_checkpoint
from .evaluate import (check_entity_table, evaluate, precompute_entity_embeddings,
                       query_scores)
from .files import atomic_write
from .finetune import run_finetune
from .optim import TrainingDiverged
from .pretrain import run_pretraining
from .text import (TokenizedCatalog, Vocabulary, assemble_pair, assemble_pair_tokens,
                   build_vocab, check_widths, tokenize)


class ArtifactError(Exception):
    """A required artifact is missing; the message names the producing command."""


# --------------------------------------------------------------------- helpers

def _thread_limit(threads: int):
    """A context that caps the BLAS/OpenMP pools at ``threads`` while entered (0
    leaves them as they are). Raises ConfigError below 0, and without threadpoolctl:
    numpy has started its pools by now, so only threadpoolctl can still resize them."""
    if threads < 0:
        raise ConfigError(f"--threads must be >= 0 (0 leaves the pools alone), got {threads}")
    if threads == 0:
        return contextlib.nullcontext()
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        raise ConfigError(
            f"--threads {threads} needs threadpoolctl (install kglp[perf]); without "
            f"it, set OPENBLAS_NUM_THREADS={threads} and OMP_NUM_THREADS={threads} "
            f"before starting kglp") from None
    return threadpool_limits(limits=threads)


def _collect_overrides(args) -> dict:
    """Config overrides from ``--set key=value`` (repeatable), ``--seed`` and
    ``--mlm-only``; a flag beats ``--set``."""
    overrides = {}
    for pair in args.set or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "mlm_only", False):
        overrides["pretrain.mlm_only"] = True
    return overrides


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(out_dir: Path, name: str, rc: RunConfig, inputs: dict, outputs: dict,
                   metrics: dict, started: float) -> Path:
    """Write ``manifest.<name>.json``; its command is the first dotted part of ``name``."""
    manifest = {
        "command": name.split(".")[0],
        "created_unix": time.time(),
        "seed": rc.seed,
        "elapsed_sec": round(time.time() - started, 3),
        "config": asdict(rc),
        "inputs": {str(k): file_sha256(v) for k, v in inputs.items()},
        "outputs": {str(k): file_sha256(v) for k, v in outputs.items()},
        "metrics": metrics,
    }
    path = out_dir / f"manifest.{name}.json"
    with atomic_write(path, text=True) as fh:
        json.dump(manifest, fh, indent=1)
    return path


def _refuse_overwrite(paths, force: bool) -> None:
    existing = [str(p) for p in paths if Path(p).exists()]
    if existing and not force:
        raise ArtifactError(
            f"refusing to overwrite existing artifacts (use --force): {', '.join(existing)}")


def _dataset_input_files(dataset_dir: Path) -> dict:
    return {name: dataset_dir / name for name in DATASET_FILES
            if (dataset_dir / name).is_file()}


def _load_run(args):
    """Read an ingested run directory: (out_dir, augmented kg, vocab, run config).
    ``load_run_config`` takes the dataset directory, the profile name and
    ``vocab.min_freq`` from ``dataset.json``."""
    out_dir = Path(args.out)
    dataset_meta_path = out_dir / "dataset.json"
    if not dataset_meta_path.is_file():
        raise ArtifactError(
            f"{out_dir} has no dataset.json; run `kglp ingest <dataset_dir> --out {out_dir}` first")
    vocab_path = out_dir / "vocab.txt"
    if not vocab_path.is_file():
        raise ArtifactError(
            f"{out_dir} has no vocab.txt; run `kglp ingest` first")
    rc = load_run_config(args.config, _collect_overrides(args), ingested=dataset_meta_path)
    kg = augment_inverse(load_dataset(rc.dataset.dir))
    return out_dir, kg, Vocabulary.load(vocab_path), rc


def _load_run_checkpoint(args, out_dir: Path, stage: str, vocab, rc, hint: str = ""):
    """Load ``--checkpoint`` (default ``<out>/<stage>.npz``, which ``kglp <stage>``
    writes) and refuse one trained on another vocabulary than ``vocab.txt``.
    ``rc.encoder`` takes the checkpoint's settings, so the manifest records them.
    Returns the checkpoint path and the encoder."""
    path = Path(args.checkpoint) if args.checkpoint else out_dir / f"{stage}.npz"
    if not path.is_file():
        raise ArtifactError(
            f"checkpoint {path} not found; run `kglp {stage} --out {out_dir}` first{hint}")
    encoder = load_checkpoint(path)
    if encoder.config.vocab_size != vocab.size:
        raise ArtifactError(
            f"checkpoint {path} has vocab size {encoder.config.vocab_size}, but vocab.txt "
            f"has {vocab.size}; re-run the stages after `kglp ingest` with --force")
    rc.encoder = encoder_settings(encoder.config)
    return path, encoder


# -------------------------------------------------------------------- commands

def cmd_ingest(args) -> int:
    started = time.time()
    dataset_dir = Path(args.dataset_dir)
    out_dir = Path(args.out)
    rc = load_run_config(args.config, _collect_overrides(args), dataset_dir)
    artifacts = [out_dir / p for p in
                 ("catalog.json", "vocab.txt", "stats.json", "dataset.json")]
    _refuse_overwrite(artifacts, args.force)

    kg = load_dataset(dataset_dir)
    stats = dataset_statistics(kg)
    augmented = augment_inverse(kg)
    vocab = build_vocab(augmented, rc.vocab.min_freq)

    out_dir.mkdir(parents=True, exist_ok=True)
    save_catalogs(augmented, out_dir / "catalog.json")
    vocab.save(out_dir / "vocab.txt")
    stats_payload = dict(stats)
    stats_payload.update(vocab_size=vocab.size,
                         augmented_relations=augmented.num_relations,
                         augmented_train=len(augmented.splits["train"]))
    with atomic_write(out_dir / "stats.json", text=True) as fh:
        json.dump(stats_payload, fh, indent=1)
    with atomic_write(out_dir / "dataset.json", text=True) as fh:
        json.dump({"dir": str(dataset_dir.resolve()), "name": rc.dataset.name,
                   "min_freq": rc.vocab.min_freq}, fh, indent=1)

    write_manifest(out_dir, "ingest", rc, inputs=_dataset_input_files(dataset_dir),
                   outputs={p.name: p for p in artifacts}, metrics=stats_payload,
                   started=started)

    for key in ("entities", "relations", "train", "valid", "test"):
        print(f"{key:<10}{stats[key]}")
    print(f"vocab     {vocab.size}")
    return 0


def cmd_pretrain(args) -> int:
    started = time.time()
    out_dir, kg, vocab, rc = _load_run(args)
    ckpt_path = out_dir / "pretrain.npz"
    _refuse_overwrite([ckpt_path], args.force)

    encoder = Encoder(EncoderConfig(vocab.size, **asdict(rc.encoder)), seed=rc.seed)
    history = run_pretraining(kg, vocab, encoder, rc.pretrain,
                              log_path=out_dir / "pretrain_log.jsonl")
    save_checkpoint(encoder, ckpt_path)

    best = min(h["val_total"] for h in history)
    write_manifest(out_dir, "pretrain", rc, inputs={"vocab.txt": out_dir / "vocab.txt"},
                   outputs={"pretrain.npz": ckpt_path},
                   metrics={"epochs_run": len(history), "best_val_loss": best},
                   started=started)
    print(ckpt_path)
    return 0


def cmd_finetune(args) -> int:
    started = time.time()
    out_dir, kg, vocab, rc = _load_run(args)
    ckpt_out = out_dir / "finetune.npz"
    table_out = out_dir / "entity_table.npz"
    _refuse_overwrite([ckpt_out, table_out], args.force)

    inputs = {"vocab.txt": out_dir / "vocab.txt"}
    if args.checkpoint == "none":
        encoder = Encoder(EncoderConfig(vocab.size, **asdict(rc.encoder)), seed=rc.seed)
    else:
        inputs["checkpoint"], encoder = _load_run_checkpoint(
            args, out_dir, "pretrain", vocab, rc,
            " or pass --checkpoint none for a random initialization")

    history = run_finetune(kg, vocab, encoder, rc.finetune,
                           log_path=out_dir / "finetune_log.jsonl")
    # the table first, and both files move into place only once both are
    # written: a failed encode or write leaves the old checkpoint beside its table
    table = precompute_entity_embeddings(encoder, TokenizedCatalog(kg, vocab),
                                         rc.finetune.entity_max_len)
    with atomic_write(ckpt_out) as ckpt_fh, atomic_write(table_out) as table_fh:
        save_checkpoint(encoder, ckpt_fh)
        ckpt_fh.flush()
        np.savez(table_fh, table=table,
                 checkpoint_sha256=np.array(file_sha256(ckpt_fh.name)))

    best = max((h.get("val_hits10", -1.0) for h in history), default=-1.0)
    write_manifest(out_dir, "finetune", rc, inputs=inputs,
                   outputs={"finetune.npz": ckpt_out, "entity_table.npz": table_out},
                   metrics={"epochs_run": len(history), "best_val_hits10": best},
                   started=started)
    print(ckpt_out)
    return 0


def cmd_evaluate(args) -> int:
    started = time.time()
    out_dir, kg, vocab, rc = _load_run(args)
    ckpt_path, encoder = _load_run_checkpoint(args, out_dir, "finetune", vocab, rc)
    report_path = out_dir / f"report_{args.split}.json"
    _refuse_overwrite([report_path], args.force)

    report = evaluate(kg, encoder, args.split, vocab=vocab,
                      pair_max_len=rc.finetune.pair_max_len,
                      entity_max_len=rc.finetune.entity_max_len)
    report.save(report_path)

    metrics = {k: getattr(report, k) for k in ("hits1", "hits3", "hits10", "mr", "mrr")}
    metrics["n_queries"] = report.n_queries
    metrics.update(report.phase_seconds)
    write_manifest(out_dir, f"evaluate.{args.split}", rc, inputs={"checkpoint": ckpt_path},
                   outputs={report_path.name: report_path}, metrics=metrics,
                   started=started)
    print(f"split={args.split} n_queries={report.n_queries} "
          f"hits@1={report.hits1:.4f} hits@3={report.hits3:.4f} "
          f"hits@10={report.hits10:.4f} mr={report.mr:.2f} mrr={report.mrr:.4f}")
    print(report_path)
    return 0


def cmd_resplit_unseen(args) -> int:
    dataset_dir = Path(args.dataset_dir)
    out_dir = Path(args.out)
    rc = load_run_config(args.config, _collect_overrides(args), dataset_dir)
    if out_dir.exists() and any(out_dir.iterdir()) and not args.force:
        raise ArtifactError(f"output directory {out_dir} is not empty (use --force)")
    resplit = resplit_unseen(load_dataset(dataset_dir), args.ratio, rc.seed)
    save_splits(resplit, out_dir)
    stats = dataset_statistics(resplit)
    for key in ("entities", "relations", "train", "valid", "test"):
        print(f"{key:<10}{stats[key]}")
    print(out_dir)
    return 0


def cmd_predict(args) -> int:
    if args.k < 1:
        raise ConfigError(f"-k must be >= 1, got {args.k}")
    out_dir, kg, vocab, rc = _load_run(args)
    pair_max_len = rc.finetune.pair_max_len
    ckpt_path, encoder = _load_run_checkpoint(args, out_dir, "finetune", vocab, rc)
    table_path = out_dir / "entity_table.npz"
    if not table_path.is_file():
        raise ArtifactError(
            f"entity table {table_path} not found; run `kglp finetune --out {out_dir}` first")
    with np.load(table_path, allow_pickle=False) as data:
        table = data["table"]
        table_sha = str(data.get("checkpoint_sha256"))
    if table_sha != file_sha256(ckpt_path):
        raise ArtifactError(
            f"entity table {table_path} was not built from checkpoint {ckpt_path}; "
            f"run `kglp finetune --out {out_dir} --force` to rebuild both together")
    if table.shape[0] != kg.num_entities:
        raise ArtifactError(
            f"entity table {table_path} has {table.shape[0]} rows, but the catalog has "
            f"{kg.num_entities} entities; run `kglp finetune --out {out_dir} --force`")
    try:
        check_entity_table(table)
    except ValueError as exc:
        # a table written before tables held unit rows holds raw pooled vectors
        raise ArtifactError(
            f"{table_path}: {exc}; run `kglp finetune --out {out_dir} --force` "
            f"to rebuild it") from None

    if not kg.has_relation(args.relation):
        raise ArtifactError(
            f"unknown relation {args.relation!r}; known relations live in catalog.json "
            f"(inverse forms end in '#rev')")
    relation = kg.relation_index(args.relation)
    cat = TokenizedCatalog(kg, vocab)

    if kg.has_entity(args.head):
        head = kg.entity_index(args.head)
        layout = assemble_pair(cat, head, relation, pair_max_len)
        filter_key = (head, relation)
    else:
        # unseen head: encode the free text itself
        layout = assemble_pair_tokens(tokenize(args.head, vocab), [], relation,
                                      cat, pair_max_len)
        filter_key = None
    check_widths(encoder.config.max_len,
                 ("finetune.pair_max_len", pair_max_len, [layout.length]))

    scores = query_scores(encoder, [layout], table)[0]
    if not np.isfinite(scores).all():
        raise ValueError(f"checkpoint {ckpt_path} gives a non-finite query vector")

    order = np.argsort(-scores, kind="stable")
    if args.filtered and filter_key is not None:
        order = order[~np.isin(order, build_filter_index(kg).tails(filter_key))]
    for rank, idx in enumerate(order[:args.k], start=1):
        print(f"{rank:>3} {scores[idx]: .4f}  {kg.entity_ids[idx]}  {kg.entity_names[idx]}")
    return 0


# ----------------------------------------------------------------------- entry

def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="config file (key = value lines)")
    shared.add_argument("--seed", type=int, default=None, help="random seed")
    shared.add_argument("--out", required=True, help="run directory")
    shared.add_argument("--force", action="store_true",
                        help="overwrite existing artifacts")
    shared.add_argument("--threads", type=int, default=0,
                        help="cap BLAS threads (0 = library default)")
    shared.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override any config key, e.g. --set finetune.epochs=5")

    parser = argparse.ArgumentParser(prog="kglp",
                                     description="knowledge-graph link prediction")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("ingest", parents=[shared],
                       help="load a dataset, build vocabulary and catalogs")
    p.add_argument("dataset_dir")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("pretrain", parents=[shared],
                       help="masked multi-task pre-training")
    p.add_argument("--mlm-only", action="store_true",
                   help="ablation: token masking only, no item masking")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", parents=[shared], help="Siamese fine-tuning")
    p.add_argument("--checkpoint",
                   help="pre-trained checkpoint (default <out>/pretrain.npz; "
                        "'none' trains from random initialization)")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", parents=[shared], help="filtered ranking metrics")
    p.add_argument("--split", choices=("valid", "test"), required=True)
    p.add_argument("--checkpoint", help="default <out>/finetune.npz")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("resplit-unseen", parents=[shared],
                       help="rewrite splits so valid/test entities are unseen in train")
    p.add_argument("dataset_dir")
    p.add_argument("--ratio", type=float, default=0.1,
                   help="fraction of entities held out per split")
    p.set_defaults(func=cmd_resplit_unseen)

    p = sub.add_parser("predict", parents=[shared], help="top-k completion of (head, relation, ?)")
    p.add_argument("--head", required=True,
                   help="head entity identifier, or free text for unseen heads")
    p.add_argument("--relation", required=True, help="relation identifier")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--filtered", action="store_true",
                   help="hide the known completions of a catalog head, from the "
                        "filter index evaluate uses (a free-text head is unfiltered)")
    p.add_argument("--checkpoint", help="default <out>/finetune.npz")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _thread_limit(args.threads):
            return args.func(args) or 0
    except (ConfigError, DatasetError, ArtifactError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDiverged, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
