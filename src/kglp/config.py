"""Run configuration: flat dotted-key config files, per-dataset defaults, overrides.

A config file is plain text, one ``section.key = value`` per line, with ``#``
line comments. Precedence: baked per-dataset defaults < config file < explicit
flag overrides. Unknown keys are rejected rather than ignored so typos cannot
silently change an experiment.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .data import SPLITS
from .encoder import EncoderConfig
from .finetune import FinetuneConfig
from .pretrain import PretrainConfig


class ConfigError(Exception):
    """Bad config file, unknown key, or out-of-range value."""


@dataclass
class EncoderSettings:
    """Encoder hyperparameters minus the vocabulary size (known after ingest)."""

    hidden_size: int = 128
    num_layers: int = 2
    num_heads: int = 4
    ff_size: int = 256
    max_len: int = 128
    dropout: float = 0.1

    def build(self, vocab_size: int) -> EncoderConfig:
        return EncoderConfig(vocab_size=vocab_size, **asdict(self))

    @classmethod
    def of(cls, config: EncoderConfig) -> EncoderSettings:
        """The settings a built config (such as a loaded checkpoint's) was made with."""
        return cls(**{f.name: getattr(config, f.name) for f in fields(cls)})


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

    def snapshot(self) -> dict:
        return asdict(self)


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
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        if target_type is str:
            return text
        if target_type is tuple or str(target_type).startswith("tuple"):
            return tuple(part.strip() for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {target_type}") from exc
    raise ConfigError(f"{key}: unsupported value type {target_type}")


_SECTIONS = {
    "dataset": DatasetSettings,
    "vocab": VocabSettings,
    "encoder": EncoderSettings,
    "pretrain": PretrainConfig,
    "finetune": FinetuneConfig,
}
_TOP_LEVEL = {"seed": int}
#: settings fields that are not keys of their own, and where their value comes from
_NOT_KEYS = {
    "pretrain.seed": "set the run's seed with `seed`",
    "finetune.seed": "set the run's seed with `seed`",
    "dataset.dir": "pass the dataset directory as `kglp ingest <dataset_dir>`, "
                   "and choose the defaults profile with `dataset.name`",
}


def apply_values(config: RunConfig, values: dict[str, object]) -> None:
    """Apply dotted-key values onto a RunConfig in place; unknown keys raise."""
    for key, raw in values.items():
        if key in _TOP_LEVEL:
            setattr(config, key, _coerce(raw, _TOP_LEVEL[key], key))
            continue
        if key in _NOT_KEYS:
            raise ConfigError(f"{key} is not a config key; {_NOT_KEYS[key]}")
        section_name, dot, attr = key.partition(".")
        if not dot or section_name not in _SECTIONS:
            raise ConfigError(f"unknown config key: {key}")
        section_cls = _SECTIONS[section_name]
        section_fields = {f.name: f for f in fields(section_cls)}
        if attr not in section_fields:
            raise ConfigError(f"unknown config key: {key}")
        target = getattr(config, section_name)
        current = getattr(target, attr)
        target_type = type(current) if current is not None else str
        setattr(target, attr, _coerce(raw, target_type, key))


def _validate(config: RunConfig) -> None:
    # the encoder config and the focal parameters check their own ranges; any
    # valid vocabulary size stands in for the one ingest finds
    for section, build in (("encoder", lambda: config.encoder.build(vocab_size=1)),
                           ("finetune", config.finetune.focal)):
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"{section}.{exc}") from None
    checks = [
        (config.vocab.min_freq >= 1, "vocab.min_freq must be >= 1"),
        (config.pretrain.patience >= 1, "pretrain.patience must be >= 1"),
        (config.pretrain.max_len >= 16, "pretrain.max_len must be >= 16"),
        (config.pretrain.max_len <= config.encoder.max_len,
         "pretrain.max_len cannot exceed encoder.max_len"),
        (config.finetune.pair_max_len >= 16, "finetune.pair_max_len must be >= 16"),
        (config.finetune.entity_max_len >= 8, "finetune.entity_max_len must be >= 8"),
        (max(config.finetune.pair_max_len, config.finetune.entity_max_len)
         <= config.encoder.max_len,
         "finetune sequence lengths cannot exceed encoder.max_len"),
        (config.finetune.negative_mode in ("in_batch", "uniform_k"),
         "finetune.negative_mode must be 'in_batch' or 'uniform_k'"),
        (config.finetune.num_negatives >= 1, "finetune.num_negatives must be >= 1"),
        (config.finetune.eval_every >= 1, "finetune.eval_every must be >= 1"),
        (set(config.finetune.label_splits) <= set(SPLITS),
         f"finetune.label_splits must name splits among {', '.join(SPLITS)}"),
        (config.seed >= 0, "seed must be >= 0"),
    ]
    for name in ("pretrain", "finetune"):
        section = getattr(config, name)
        checks += [
            (section.epochs >= 1, f"{name}.epochs must be >= 1"),
            (section.batch_size >= 1, f"{name}.batch_size must be >= 1"),
            (section.lr_linear > 0 and section.lr_attention > 0,
             f"{name} learning rates must be positive"),
            (0.0 <= section.warmup_frac < 1.0, f"{name}.warmup_frac must be in [0, 1)"),
            (section.clip_norm >= 0.0, f"{name}.clip_norm must be >= 0 (0 disables it)"),
            (section.weight_decay >= 0.0, f"{name}.weight_decay must be >= 0"),
            (section.log_every >= 1, f"{name}.log_every must be >= 1"),
        ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)


def load_run_config(config_path=None, overrides: dict | None = None,
                    dataset_dir=None) -> RunConfig:
    """Assemble the effective configuration.

    Profile defaults are selected by the (normalized) dataset name, then the
    config file applies, then explicit overrides. Seeds flow into the trainer
    configs so one ``seed`` value governs the whole run.
    """
    config = RunConfig()
    file_values = parse_config_file(config_path) if config_path else {}
    overrides = overrides or {}

    if dataset_dir is not None:
        config.dataset.dir = str(dataset_dir)
    name = (overrides.get("dataset.name") or file_values.get("dataset.name")
            or (Path(config.dataset.dir).name if config.dataset.dir else ""))
    profile_key = normalize_dataset_name(str(name))
    config.dataset.name = profile_key
    profile = DATASET_PROFILES.get(profile_key, {})

    apply_values(config, profile)
    apply_values(config, {k: v for k, v in file_values.items() if k != "dataset.name"})
    apply_values(config, {k: v for k, v in overrides.items()
                          if k != "dataset.name" and v is not None})

    config.pretrain.seed = config.seed
    config.finetune.seed = config.seed
    _validate(config)
    return config
