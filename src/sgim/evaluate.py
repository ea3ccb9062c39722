"""Quantitative protocols: zero-shot audio classification, linear probing,
the weak-loss ablation (alignment margin plus nuisance-leakage probe), and
latent-direction statistics for audio vs text guidance.

The held-out split is by video: each class's final video never appears in
training. The leakage probe manipulates seeded source latents with audio
from every biased-class video and asks a linear probe to predict, from the
image delta alone, whether that video carries the nuisance pattern; probe
training sees all but the last source latent, accuracy is scored on the
held-out one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .augment import bag_matrix
from .config import RunConfig, config_hash
from .data import (Dataset, DatasetManifest, group_rows, heldout_mask,
                   label_tokens, split_by_video)
from .encoders import (EncoderParams, TeacherParams, check_loss_terms,
                       encode_np, train_audio_encoder)
from .errors import UsageError
from .generator import sample_source_latent, synthesize
from .losses import softmax
from .manipulate import ModelBundle, optimize_guided


@dataclass
class EvalReport:
    protocol: str
    overall: float
    per_class: dict[int, float] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)
    config_hash: str = ""
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.overall <= 1.0):
            raise UsageError(f"accuracy out of range: {self.overall}")


def report_csv(report: EvalReport) -> str:
    lines = ["metric,value"]
    lines.append(f"overall,{report.overall!r}")
    for c in sorted(report.per_class):
        lines.append(f"class_{c},{report.per_class[c]!r}")
    for k in sorted(report.extras):
        lines.append(f"{k},{report.extras[k]!r}")
    return "\n".join(lines) + "\n"


def report_text(report: EvalReport) -> str:
    lines = [f"protocol: {report.protocol}",
             f"config: {report.config_hash}  seed: {report.seed}",
             f"overall: {report.overall:.4f}"]
    if report.per_class:
        per = "  ".join(f"{c}:{v:.3f}" for c, v in sorted(report.per_class.items()))
        lines.append(f"per-class: {per}")
    for k in sorted(report.extras):
        lines.append(f"{k}: {report.extras[k]:.6f}")
    return "\n".join(lines) + "\n"


def classify_by_cosine(audio_emb: np.ndarray, class_emb: np.ndarray) -> np.ndarray:
    """Argmax of cosine scores; ties resolve to the lowest class id."""
    return np.argmax(audio_emb @ class_emb.T, axis=1)


def class_label_embeddings(text_params: EncoderParams,
                           classes: int) -> np.ndarray:
    labels = [label_tokens(c) for c in range(classes)]
    return encode_np(text_params, bag_matrix(labels))


def zero_shot_classify(ds: Dataset, audio_params: EncoderParams,
                       text_params: EncoderParams, classes: int,
                       config: RunConfig | None = None) -> EvalReport:
    if classes < 1 or len(ds) == 0:
        raise UsageError("need at least one class and one record")
    audio = encode_np(audio_params, ds.audio.reshape(len(ds), -1))
    preds = classify_by_cosine(audio, class_label_embeddings(text_params, classes))
    truth = ds.class_id
    per_class = {c: float((preds[truth == c] == c).mean())
                 for c in sorted(set(truth.tolist()))}
    return EvalReport("zero_shot", float((preds == truth).mean()), per_class,
                      config_hash=config_hash(config) if config else "",
                      seed=config.master_seed if config else 0)


def linear_probe(embeddings: np.ndarray, labels: np.ndarray,
                 train_idx: np.ndarray, test_idx: np.ndarray, epochs: int,
                 lr: float, protocol: str = "linear_probe") -> EvalReport:
    """One-layer softmax classifier on frozen features, full-batch GD."""
    class_ids, y = np.unique(labels, return_inverse=True)
    if len(class_ids) < 2:
        raise UsageError("linear probe needs at least two classes")
    x = np.asarray(embeddings, float)
    n_classes = len(class_ids)
    w = np.zeros((x.shape[1], n_classes))
    b = np.zeros(n_classes)
    xt, yt = x[train_idx], y[train_idx]
    onehot = np.eye(n_classes)[yt]
    for _ in range(epochs):
        grad = (softmax(xt @ w + b) - onehot) / len(yt)
        w -= lr * (xt.T @ grad)
        b -= lr * grad.sum(axis=0)
    preds = np.argmax(x[test_idx] @ w + b, axis=1)
    truth = y[test_idx]
    per_class = {int(class_ids[c]): float((preds[truth == c] == c).mean())
                 for c in sorted(set(truth.tolist()))}
    return EvalReport(protocol, float((preds == truth).mean()), per_class)


def probe_on_heldout_videos(ds: Dataset, manifest: DatasetManifest,
                            audio_params: EncoderParams,
                            config: RunConfig) -> EvalReport:
    """Linear probe on audio embeddings, held-out-by-video split, trained
    for ``config``'s probe_epochs at its probe_lr."""
    emb = encode_np(audio_params, ds.audio.reshape(len(ds), -1))
    held = heldout_mask(ds, manifest)
    report = linear_probe(emb, ds.class_id, np.where(~held)[0],
                          np.where(held)[0], config.probe_epochs,
                          config.probe_lr)
    return replace(report, config_hash=config_hash(config),
                   seed=config.master_seed)


def cross_video_audio_image_cosine(ds: Dataset, audio_params: EncoderParams,
                                   image_params: EncoderParams) -> float:
    """Mean cosine between audio and image embeddings over same-class pairs
    from different videos."""
    audio = encode_np(audio_params, ds.audio.reshape(len(ds), -1))
    image = encode_np(image_params, ds.image)
    cls, vid = ds.class_id, ds.video_id
    mask = (cls[:, None] == cls[None, :]) & (vid[:, None] != vid[None, :])
    return float((audio @ image.T)[mask].mean())


@dataclass
class AblationReport:
    with_kl: EvalReport
    without_kl: EvalReport
    cosine_with_kl: float
    cosine_without_kl: float
    leakage_with_kl: float
    leakage_without_kl: float

    @property
    def cosine_margin(self) -> float:
        return self.cosine_with_kl - self.cosine_without_kl


def _leakage_probe(ds: Dataset, manifest: DatasetManifest,
                   audio_params: EncoderParams, models: ModelBundle,
                   config: RunConfig, sources: int = 4, steps: int = 120,
                   anchors_per_video: int = 2) -> float:
    """Held-out-source accuracy of a probe decoding nuisance presence from
    manipulated-image deltas.

    Two audio anchors per biased-class video, each manipulating several
    seeded source latents; features are standardized with training-split
    statistics and the probe is scored on the last source latent only.
    """
    biased_classes = sorted(manifest.bias_spec)
    if not biased_classes:
        raise UsageError("leakage probe needs a nonempty bias_spec")
    biased = np.flatnonzero(np.isin(ds.class_id, biased_classes))
    anchors = [int(biased[i]) for rows in group_rows(ds.video_id[biased])
               for i in rows[:anchors_per_video]]
    manip = replace(config, lambda_id=0.0, manip_steps=steps)
    targets = encode_np(audio_params,
                        ds.audio[anchors].reshape(len(anchors), -1))
    w_s = np.stack([sample_source_latent(config.seed_for("eval") + s,
                                         models.generator)
                    for s in range(sources)])
    # row s * len(anchors) + k manipulates source s with anchor k
    source_of = np.repeat(np.arange(sources), len(anchors))
    w_a, _, _ = optimize_guided(w_s[source_of], np.tile(targets, (sources, 1)),
                                manip, models)
    deltas = (synthesize(w_a, models.generator)
              - synthesize(w_s, models.generator)[source_of])
    labels = np.tile(ds.nuisance_id[anchors] >= 0, sources).astype(int)
    train_idx = np.where(source_of < sources - 1)[0]
    test_idx = np.where(source_of == sources - 1)[0]
    mean = deltas[train_idx].mean(axis=0)
    std = deltas[train_idx].std(axis=0)
    std[std == 0.0] = 1.0
    features = (deltas - mean) / std
    report = linear_probe(features, labels, train_idx, test_idx,
                          epochs=800, lr=0.5, protocol="nuisance_leakage")
    return report.overall


def ablate_weak_loss(ds: Dataset, manifest: DatasetManifest,
                     teacher: TeacherParams, models: ModelBundle,
                     config: RunConfig) -> AblationReport:
    """Train both arms from one seed and compare alignment and leakage."""
    train, held = split_by_video(ds, manifest)
    # the without-KL arm's terms are a subset of the with-KL arm's, so this
    # checks both arms before either trains
    check_loss_terms(replace(config, use_loss_kl=False), manifest.classes)
    arm = {}
    for use_kl in (True, False):
        params, _ = train_audio_encoder(
            train, teacher, replace(config, use_loss_kl=use_kl))
        zs = zero_shot_classify(held, params, teacher.text, manifest.classes,
                                config)
        cos = cross_video_audio_image_cosine(ds, params, teacher.image)
        leak = _leakage_probe(ds, manifest, params, models, config)
        arm[use_kl] = (zs, cos, leak)
    return AblationReport(with_kl=arm[True][0], without_kl=arm[False][0],
                          cosine_with_kl=arm[True][1],
                          cosine_without_kl=arm[False][1],
                          leakage_with_kl=arm[True][2],
                          leakage_without_kl=arm[False][2])


def ablation_csv(report: AblationReport) -> str:
    lines = ["metric,with_kl,without_kl"]
    lines.append(f"zero_shot,{report.with_kl.overall!r},"
                 f"{report.without_kl.overall!r}")
    lines.append(f"cross_video_cosine,{report.cosine_with_kl!r},"
                 f"{report.cosine_without_kl!r}")
    lines.append(f"nuisance_leakage,{report.leakage_with_kl!r},"
                 f"{report.leakage_without_kl!r}")
    return "\n".join(lines) + "\n"


def _flat_cos(a: np.ndarray, b: np.ndarray) -> float:
    a = a.reshape(-1)
    b = b.reshape(-1)
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def direction_stats(attribute_classes: list[int], n_seeds: int,
                    ds: Dataset, models: ModelBundle,
                    config: RunConfig) -> EvalReport:
    """Mean/std cosine between source, audio-guided, and text-guided codes.

    Per attribute class and seed, one random source latent is optimized
    against a seeded audio record of that class and against the class label
    text, with matched optimizer settings: ``config``'s step count and step
    size, with the identity term off.
    """
    if n_seeds < 2:
        raise UsageError("direction statistics need at least 2 seeds")
    if not attribute_classes:
        raise UsageError("need at least one attribute class")
    manip = replace(config, lambda_id=0.0)
    sources, anchors = [], []
    for attr in attribute_classes:
        pool = np.flatnonzero(ds.class_id == attr)
        if pool.size == 0:
            raise UsageError(f"attribute class {attr} has no records")
        for s in range(n_seeds):
            seed = config.seed_for("eval") + 1000 * attr + s
            sources.append(sample_source_latent(seed, models.generator))
            anchors.append(pool[np.random.default_rng(seed).integers(
                0, len(pool))])
    audio = encode_np(models.audio,
                      ds.audio[anchors].reshape(len(anchors), -1))
    labels = class_label_embeddings(models.text, max(attribute_classes) + 1)
    text = np.repeat(labels[attribute_classes], n_seeds, axis=0)
    # every audio-guided row, then every text-guided one, in one optimization
    w_s = np.stack(sources)
    w_at, _, _ = optimize_guided(np.concatenate([w_s, w_s]),
                                 np.concatenate([audio, text]), manip, models)
    w_a, w_t = np.split(w_at, 2)
    pairs = {"sa": (w_s, w_a), "st": (w_s, w_t), "at": (w_a, w_t)}
    stats = {key: np.array([_flat_cos(x, y) for x, y in zip(*pair)])
             for key, pair in pairs.items()}
    extras: dict[str, float] = {}
    for key, values in stats.items():
        for attr, local in zip(attribute_classes, values.reshape(-1, n_seeds)):
            extras[f"attr{attr}_cos_{key}_mean"] = float(np.mean(local))
            extras[f"attr{attr}_cos_{key}_std"] = float(np.std(local))
        extras[f"cos_{key}_mean"] = float(np.mean(values))
        extras[f"cos_{key}_std"] = float(np.std(values))
    # overall field repurposed: fraction of seeds where the audio-guided
    # code moved at least as far from the source as the text-guided one
    moved_more = np.mean(stats["sa"] <= stats["st"])
    return EvalReport("direction_stats", float(moved_more), extras=extras,
                      config_hash=config_hash(config), seed=config.master_seed)


def soft_direction_check(report: EvalReport) -> tuple[bool, str]:
    """Soft ordering check: mean cos(w_s, w_a) <= mean cos(w_s, w_t)."""
    sa = report.extras["cos_sa_mean"]
    st = report.extras["cos_st_mean"]
    ok = sa <= st
    msg = (f"mean cos(w_s,w_a)={sa:.5f} vs mean cos(w_s,w_t)={st:.5f}: "
           + ("audio-guided codes move at least as much as text-guided ones"
              if ok else
              "soft check failed; audio-guided codes moved less than "
              "text-guided ones on this environment/seed"))
    return ok, msg
