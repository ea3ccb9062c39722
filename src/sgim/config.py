"""One flat key=value config for the whole pipeline, which every stage
reads under its own key names, plus the master-seed fanout. Defaults are
the frozen desk-scale reference configuration; the paper-scale values (lr
1e-3, batch 384, lambda_reg 0.008 / lambda_id 0.004) are noted next to the
fields they correspond to.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import kvtext
from .data import DatasetManifest
from .errors import ConfigError, ParameterError

# fixed per-stage offsets applied to the master seed
SEED_OFFSETS = {
    "data": 101,
    "teacher": 211,
    "audio": 307,
    "generator": 401,
    "manip": 503,
    "eval": 601,
}


# keys checked before any stage runs: key -> (test, allowed range)
_FRACTION = (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_RATIO = (lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")
_POSITIVE = (lambda v: math.isfinite(v) and v > 0.0, "be finite and > 0")
_NON_NEGATIVE = (lambda v: math.isfinite(v) and v >= 0.0, "be finite and >= 0")
_COUNT = (lambda v: v >= 1, "be >= 1")
_RANGES = {
    "text_aug_prob": _FRACTION,
    "freq_mask_ratio": _RATIO,
    "time_mask_ratio": _RATIO,
    "teacher_lr": _POSITIVE,
    "audio_lr": _POSITIVE,
    "tau": _POSITIVE,
    "momentum": _RATIO,
    "batch_size": (lambda v: v >= 2, "be >= 2"),
    "teacher_epochs": _COUNT,
    "audio_epochs": _COUNT,
    "sched_period": _COUNT,
    "hidden_dim": _COUNT,
    "embed_dim": _COUNT,
    "latent_dim": _COUNT,
    "probe_epochs": _COUNT,
    "probe_lr": _POSITIVE,
    "gen_fit_epochs": (lambda v: v >= 0, "be >= 0"),   # 0: the untouched init
    "manip_steps": _COUNT,
    "manip_step_size": _NON_NEGATIVE,
    "lambda_reg": _NON_NEGATIVE,
    "lambda_id": _NON_NEGATIVE,
}


def stage_seed(master_seed: int, stage: str) -> int:
    return master_seed + SEED_OFFSETS[stage]


@dataclass
class RunConfig:
    master_seed: int = 7

    # synthetic dataset
    classes: int = 8
    videos_per_class: int = 6
    records_per_video: int = 8
    freq_bins: int = 20
    time_frames: int = 10
    pixels: int = 64
    bias_spec: dict[int, int] = field(default_factory=lambda: {0: 0, 1: 0})
    bias_cooccurrence: float = 0.8
    audio_video_offset: float = 0.7
    image_video_offset: float = 0.7
    audio_noise: float = 0.005
    image_noise: float = 0.01
    nuisance_scale: float = 0.5
    intensity_min: float = 0.2
    intensity_max: float = 1.0

    # encoders and contrastive training (paper: lr 1e-3, batch 384)
    embed_dim: int = 32
    hidden_dim: int = 64
    tau: float = 0.07
    teacher_lr: float = 0.1
    teacher_epochs: int = 20
    audio_lr: float = 0.05
    audio_epochs: int = 80
    batch_size: int = 64
    momentum: float = 0.9
    sched_period: int = 10
    freq_mask_ratio: float = 0.15
    time_mask_ratio: float = 0.3
    text_aug_prob: float = 0.5
    use_loss_at: bool = True
    use_loss_av: bool = True
    use_loss_self: bool = True
    use_loss_kl: bool = True
    kl_full_rows: bool = False

    # generator
    latent_dim: int = 32
    gen_fit_epochs: int = 5

    # manipulation (paper face-domain: 0.008 / 0.004; scene: 0.002 / 0)
    lambda_reg: float = 0.008
    lambda_id: float = 0.004            # 0 turns the identity term off
    manip_steps: int = 300
    manip_step_size: float = 0.1

    # evaluation
    probe_epochs: int = 200
    probe_lr: float = 0.1

    def seed_for(self, stage: str) -> int:
        return stage_seed(self.master_seed, stage)

    def check_ranges(self) -> None:
        """Raises ``ParameterError`` naming the first range-checked key
        outside its range, or the dataset keys' first fault
        (``DatasetManifest.validate``)."""
        for key, (ok, allowed) in _RANGES.items():
            value = getattr(self, key)
            if not ok(value):
                raise ParameterError(f"{key} must {allowed}, got {value!r}")
        try:
            self.dataset_manifest().validate()
        except ParameterError as exc:
            raise ParameterError(f"dataset keys: {exc}") from None

    def dataset_manifest(self) -> DatasetManifest:
        shared = {f.name: copy.copy(getattr(self, f.name))
                  for f in fields(DatasetManifest) if f.name != "seed"}
        return DatasetManifest(**shared, seed=self.seed_for("data"))


def config_to_text(config: RunConfig) -> str:
    return kvtext.to_text(config)


def config_from_text(text: str, base: RunConfig | None = None) -> RunConfig:
    return kvtext.update_from_text(base if base is not None else RunConfig(),
                                   text, "config", complete=False)


def load_config(path, overrides: list[str] | None = None) -> RunConfig:
    """Config file then key=value overrides; unknown keys fail loudly."""
    config = RunConfig()
    if path is not None:
        config = config_from_text(Path(path).read_text(encoding="utf-8"), config)
    for item in overrides or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"override must look like key=value: {item!r}")
        kvtext.set_key(config, key.strip(), value)
    return config


def config_hash(config: RunConfig) -> str:
    return hashlib.sha256(config_to_text(config).encode()).hexdigest()[:12]
