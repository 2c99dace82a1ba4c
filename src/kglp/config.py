"""Run configuration: flat dotted-key config files, per-dataset defaults, overrides.

A config file is plain text, one ``section.key = value`` per line, with ``#``
line comments. Precedence: baked per-dataset defaults < the run's ingest record <
config file < explicit flag overrides. Unknown keys are rejected rather than
ignored so typos cannot silently change an experiment.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, make_dataclass
from pathlib import Path

from .encoder import EncoderConfig
from .finetune import FinetuneConfig
from .pretrain import PretrainConfig


class ConfigError(Exception):
    """Bad config file, unknown key, or out-of-range value."""


#: Encoder hyperparameters minus the vocabulary size (known after ingest):
#: ``EncoderConfig``'s other fields, with its defaults
EncoderSettings = make_dataclass("EncoderSettings", [
    (f.name, f.type, field(default=f.default)) for f in fields(EncoderConfig)
    if f.name != "vocab_size"], namespace={"__module__": __name__})


def encoder_settings(config: EncoderConfig) -> EncoderSettings:
    """The settings a built config (such as a loaded checkpoint's) was made with."""
    return EncoderSettings(**{f.name: getattr(config, f.name) for f in fields(EncoderSettings)})


@dataclass
class DatasetSettings:
    dir: str = ""
    name: str = ""  # defaults profile; inferred from dir basename when empty


@dataclass
class VocabSettings:
    min_freq: int = 1


@dataclass
class RunConfig:
    dataset: DatasetSettings = field(default_factory=DatasetSettings)
    vocab: VocabSettings = field(default_factory=VocabSettings)
    encoder: EncoderSettings = field(default_factory=EncoderSettings)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    seed: int = 0


#: fine-tuning hyperparameters per benchmark; everything else keeps global defaults
DATASET_PROFILES: dict[str, dict[str, object]] = {
    "umls": {"finetune.batch_size": 128, "finetune.epochs": 30,
             "finetune.alpha": 0.8, "vocab.min_freq": 1},
    "wn18rr": {"finetune.batch_size": 64, "finetune.epochs": 7,
               "finetune.alpha": 0.8, "vocab.min_freq": 3},
    "fb15k237": {"finetune.batch_size": 120, "finetune.epochs": 7,
                 "finetune.alpha": 0.5, "vocab.min_freq": 3},
}


def normalize_dataset_name(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


def parse_config_file(path) -> dict[str, str]:
    """Read ``key = value`` lines into a flat dict of raw strings."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _coerce(raw, target_type, key: str):
    if isinstance(raw, target_type) and not isinstance(raw, str):
        return raw
    text = str(raw)
    try:
        if target_type is bool:
            lowered = text.lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError(text)
        if target_type is tuple:
            return tuple(part.strip() for part in text.split(",") if part.strip())
        return target_type(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {target_type}") from exc


#: settings fields that are not keys of their own, and where their value comes from
_NOT_KEYS = {
    "pretrain.seed": "set the run's seed with `seed`",
    "finetune.seed": "set the run's seed with `seed`",
    "dataset.dir": "pass the dataset directory as `kglp ingest <dataset_dir>`, "
                   "and choose the defaults profile with `dataset.name`",
}


def _field_names(settings) -> set[str]:
    return {f.name for f in fields(settings)} if is_dataclass(settings) else set()


def apply_values(config: RunConfig, values: dict[str, object]) -> None:
    """Apply dotted-key values onto a RunConfig in place. A key is a path of
    RunConfig fields (``seed``, ``section.field``) that ends at a value, not at
    a section; any other key raises."""
    for key, raw in values.items():
        if key in _NOT_KEYS:
            raise ConfigError(f"{key} is not a config key; {_NOT_KEYS[key]}")
        *sections, attr = key.split(".")
        target = config
        for name in sections:
            target = getattr(target, name) if name in _field_names(target) else None
        if attr not in _field_names(target) or is_dataclass(getattr(target, attr)):
            raise ConfigError(f"unknown config key: {key}")
        setattr(target, attr, _coerce(raw, type(getattr(target, attr)), key))


def _validate(config: RunConfig) -> None:
    # the run-level rules; the encoder config and each trainer section check their
    # own ranges (any valid vocabulary size stands in for the one ingest finds)
    if config.seed < 0:
        raise ConfigError("seed must be >= 0")
    if config.vocab.min_freq < 1:
        raise ConfigError("vocab.min_freq must be >= 1")
    for section, check in (("encoder", lambda: EncoderConfig(1, **asdict(config.encoder))),
                           ("pretrain", config.pretrain.check),
                           ("finetune", config.finetune.check)):
        try:
            check()
        except ValueError as exc:
            raise ConfigError(f"{section}.{exc}") from None


def load_run_config(config_path=None, overrides: dict | None = None,
                    dataset_dir=None, ingested=None) -> RunConfig:
    """Assemble the effective configuration.

    Layers, each over the one before: the defaults profile of the (normalized)
    dataset name, the run's ingest record, the config file, explicit overrides.
    ``ingested`` is a run's ``dataset.json``; it gives the dataset directory, a
    profile name that ranks below overrides and above the config file, and the
    ``vocab.min_freq`` that ``vocab.txt`` was built with, which no layer may
    change. Seeds flow into the trainer configs so one ``seed`` value governs
    the whole run.
    """
    config = RunConfig()
    file_values = parse_config_file(config_path) if config_path else {}
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    record = {}
    if ingested is not None:
        with open(ingested, encoding="utf-8") as fh:
            record = {"min_freq": 1, **json.load(fh)}  # older records lack min_freq
        dataset_dir = record["dir"]

    if dataset_dir is not None:
        config.dataset.dir = str(dataset_dir)
    file_name = file_values.pop("dataset.name", "")
    name = (overrides.pop("dataset.name", "") or record.get("name", "") or file_name
            or Path(config.dataset.dir).name)
    config.dataset.name = normalize_dataset_name(str(name))

    ingest_layer = {"vocab.min_freq": record["min_freq"]} if record else {}
    for values in (DATASET_PROFILES.get(config.dataset.name, {}), ingest_layer,
                   file_values, overrides):
        apply_values(config, values)

    config.pretrain.seed = config.seed
    config.finetune.seed = config.seed
    _validate(config)
    if record and config.vocab.min_freq != record["min_freq"]:
        raise ConfigError(
            f"vocab.min_freq = {config.vocab.min_freq}, but {Path(ingested).parent} was "
            f"ingested with vocab.min_freq = {record['min_freq']}; to change it, re-ingest "
            f"with `kglp ingest --force` and re-run the stages after it")
    return config
