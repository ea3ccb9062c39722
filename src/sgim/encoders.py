"""Toy modality encoders and the two training stages.

Each encoder is a 2-hidden-layer tanh perceptron whose output rows are
L2-normalized. The text/image pair is pretrained first with symmetric
InfoNCE and then frozen, standing in for a pretrained vision-language
teacher; the audio encoder is trained afterwards against that frozen
teacher with the four-component loss.

Optimizer: plain SGD with momentum 0.9 under a cosine cyclic schedule
(period 10 epochs, floor lr/10).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .augment import TokenSeq, augment_text, DEFAULT_SYNONYMS
from .data import (MiniBatch, TriModalRecord, sample_minibatch,
                   sample_weak_pair, weak_candidate_counts)
from .errors import DegenerateInputError, UsageError
from .losses import (LossBreakdown, LossFlags, info_nce_pair_node,
                     total_loss_node, weak_kl_loss_node)

PARAM_KEYS = ("w1", "b1", "w2", "b2", "w3", "b3")


@dataclass
class EncoderParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    frozen: bool = False

    @property
    def in_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w3.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: getattr(self, k) for k in PARAM_KEYS}

    def copy(self, frozen: bool | None = None) -> "EncoderParams":
        return EncoderParams(*(getattr(self, k).copy() for k in PARAM_KEYS),
                             frozen=self.frozen if frozen is None else frozen)


@dataclass
class TeacherParams:
    text: EncoderParams
    image: EncoderParams


def init_encoder_params(rng: np.random.Generator, in_dim: int, hidden: int,
                        out_dim: int) -> EncoderParams:
    def layer(fan_in, fan_out):
        bound = 1.0 / math.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = rng.uniform(-bound, bound, size=(1, fan_out))
        return w, b

    w1, b1 = layer(in_dim, hidden)
    w2, b2 = layer(hidden, hidden)
    w3, b3 = layer(hidden, out_dim)
    return EncoderParams(w1, b1, w2, b2, w3, b3)


def params_hash(params: EncoderParams) -> str:
    h = hashlib.sha256()
    for k in PARAM_KEYS:
        h.update(getattr(params, k).tobytes())
    return h.hexdigest()


def encode_np(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Unit-norm embeddings for a (n, in_dim) batch, no graph."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    h1 = np.tanh(x @ params.w1 + params.b1)
    h2 = np.tanh(h1 @ params.w2 + params.b2)
    z = h2 @ params.w3 + params.b3
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateInputError("encoder produced a zero-norm embedding")
    return z / norms


def encoder_param_nodes(params: EncoderParams) -> dict[str, ad.Node]:
    return {k: ad.leaf(getattr(params, k)) for k in PARAM_KEYS}


def encode_nodes(pnodes: dict[str, ad.Node], x: ad.Node) -> ad.Node:
    h1 = ad.tanh(ad.add(ad.matmul(x, pnodes["w1"]), pnodes["b1"]))
    h2 = ad.tanh(ad.add(ad.matmul(h1, pnodes["w2"]), pnodes["b2"]))
    z = ad.add(ad.matmul(h2, pnodes["w3"]), pnodes["b3"])
    return ad.l2_normalize_rows(z)


def bag_of_tokens(seq: TokenSeq) -> np.ndarray:
    """Order-insensitive token count vector over the sequence's vocabulary."""
    if not seq.tokens:
        raise DegenerateInputError("empty token sequence has a zero bag vector")
    return np.bincount(np.asarray(seq.tokens), minlength=len(seq.vocab)) \
        .astype(np.float64)


def bag_matrix(texts) -> np.ndarray:
    return np.stack([bag_of_tokens(t) for t in texts])


def encode_audio(mel: np.ndarray, params: EncoderParams) -> np.ndarray:
    return encode_np(params, np.asarray(mel).reshape(1, -1))[0]


def encode_text(tokens: TokenSeq, params: EncoderParams) -> np.ndarray:
    return encode_np(params, bag_of_tokens(tokens)[None, :])[0]


def encode_image(img: np.ndarray, params: EncoderParams) -> np.ndarray:
    return encode_np(params, np.asarray(img).reshape(1, -1))[0]


def cyclic_lr(base_lr: float, epoch: int, period: int = 10) -> float:
    """Cosine cyclic schedule: starts at base_lr, dips to base_lr/10
    mid-period, returns to base_lr every ``period`` epochs."""
    floor = base_lr / 10.0
    phase = (epoch % period) / period
    return floor + 0.5 * (base_lr - floor) * (1.0 + math.cos(2.0 * math.pi * phase))


@dataclass
class TrainConfig:
    lr: float = 0.05
    epochs: int = 80
    batch_size: int = 64
    tau: float = 0.07
    momentum: float = 0.9
    sched_period: int = 10
    freq_mask_ratio: float = 0.15
    time_mask_ratio: float = 0.3
    text_aug_prob: float = 0.5
    seed: int = 0
    flags: LossFlags = field(default_factory=LossFlags)


class _MomentumSGD:
    def __init__(self, arrays: dict[str, np.ndarray], momentum: float):
        self.momentum = momentum
        self.velocity = {k: np.zeros_like(v) for k, v in arrays.items()}

    def step(self, arrays: dict[str, np.ndarray],
             grads: dict[str, np.ndarray], lr: float) -> None:
        for k, a in arrays.items():
            v = self.velocity[k]
            v *= self.momentum
            v -= lr * grads[k]
            a += v


def _augmented_bags(texts, rng, prob) -> np.ndarray:
    out = []
    for t in texts:
        out.append(bag_of_tokens(augment_text(
            t, DEFAULT_SYNONYMS, rng,
            p_synonym=prob, p_permute=prob, p_insert=prob)))
    return np.stack(out)


def pretrain_teacher(records: list[TriModalRecord],
                     config: TrainConfig,
                     hidden: int = 64, embed_dim: int = 32,
                     ) -> tuple[TeacherParams, list[tuple[int, float]]]:
    """Symmetric InfoNCE over (text, image) pairs; returns frozen params
    plus the per-epoch loss log."""
    if not records:
        raise UsageError("cannot pretrain a teacher on an empty dataset")
    if config.batch_size < 2:
        raise UsageError("InfoNCE needs negatives: batch_size >= 2")
    rng = np.random.default_rng(config.seed)
    vocab_size = len(records[0].text.vocab)
    pixels = records[0].image.shape[0]
    text_p = init_encoder_params(rng, vocab_size, hidden, embed_dim)
    image_p = init_encoder_params(rng, pixels, hidden, embed_dim)
    opt_t = _MomentumSGD(text_p.arrays(), config.momentum)
    opt_v = _MomentumSGD(image_p.arrays(), config.momentum)

    n = len(records)
    bsz = min(config.batch_size, n)
    steps = max(n // bsz, 1)
    log: list[tuple[int, float]] = []
    for epoch in range(config.epochs):
        lr = cyclic_lr(config.lr, epoch, config.sched_period)
        epoch_loss = 0.0
        for _ in range(steps):
            batch = sample_minibatch(records, bsz, rng,
                                     freq_mask_ratio=0.0, time_mask_ratio=0.0)
            bags = _augmented_bags(batch.texts, rng, config.text_aug_prob)
            tn = encoder_param_nodes(text_p)
            vn = encoder_param_nodes(image_p)
            t = encode_nodes(tn, ad.constant(bags))
            v = encode_nodes(vn, ad.constant(batch.images))
            loss = info_nce_pair_node(t, v, config.tau)
            ad.backward(loss)
            opt_t.step(text_p.arrays(), {k: nd.grad for k, nd in tn.items()}, lr)
            opt_v.step(image_p.arrays(), {k: nd.grad for k, nd in vn.items()}, lr)
            epoch_loss += float(loss.value)
        log.append((epoch, epoch_loss / steps))
    text_p.frozen = True
    image_p.frozen = True
    return TeacherParams(text=text_p, image=image_p), log


def _teacher_views(batch: MiniBatch, teacher: TeacherParams,
                   rng: np.random.Generator,
                   text_aug_prob: float) -> tuple[np.ndarray, np.ndarray]:
    bags = _augmented_bags(batch.texts, rng, text_aug_prob)
    return encode_np(teacher.text, bags), encode_np(teacher.image, batch.images)


def batch_total_loss(batch: MiniBatch, weak_records: list[TriModalRecord],
                     audio_params: EncoderParams, teacher: TeacherParams,
                     tau: float, flags: LossFlags = LossFlags(),
                     ) -> LossBreakdown:
    """Loss breakdown for a prepared batch, no parameter updates."""
    n = len(batch.records)
    a = encode_np(audio_params, batch.audio.reshape(n, -1))
    a_aug = encode_np(audio_params, batch.audio_aug.reshape(n, -1))
    bags = bag_matrix(batch.texts)
    t = encode_np(teacher.text, bags)
    v = encode_np(teacher.image, batch.images)
    v_weak = encode_np(teacher.image, np.stack([r.image for r in weak_records]))
    _, breakdown = total_loss_node(ad.constant(a), ad.constant(a_aug),
                                   t, v, v_weak, tau, flags)
    return breakdown


def _weak_triplet_batch(by_class: dict[int, list[TriModalRecord]],
                        records: list[TriModalRecord],
                        rng: np.random.Generator,
                        ) -> tuple[list[TriModalRecord], list[TriModalRecord]]:
    """One anchor per class plus its weak image record.

    The weak loss runs on this class-stratified triplet batch: with in-batch
    class duplicates the softmax negatives would push same-class weak images
    apart, the opposite of what the weak pairing is for.
    """
    anchors = [pool[int(rng.integers(0, len(pool)))]
               for pool in by_class.values()]
    weak = [sample_weak_pair(records, r, rng) for r in anchors]
    return anchors, weak


def train_audio_encoder(records: list[TriModalRecord], teacher: TeacherParams,
                        config: TrainConfig, hidden: int = 64,
                        embed_dim: int = 32,
                        ) -> tuple[EncoderParams, list[tuple[int, LossBreakdown]]]:
    """Minimize the four-component loss over the audio encoder only.

    The teacher must be frozen; its parameters are never touched. The weak
    component is evaluated on a freshly sampled class-stratified triplet
    batch each step; the other three share one uniform minibatch. All rng
    draws happen regardless of the ablation flags, so two runs that differ
    only in flags see identical batches. Returns the trained params and the
    per-epoch mean loss breakdown.
    """
    if not (teacher.text.frozen and teacher.image.frozen):
        raise UsageError("teacher encoders must be frozen before audio training")
    if config.batch_size < 2:
        raise UsageError("InfoNCE needs negatives: batch_size >= 2")
    if not records:
        raise UsageError("cannot train on an empty dataset")
    rng = np.random.default_rng(config.seed)
    in_dim = records[0].audio.size
    audio_p = init_encoder_params(rng, in_dim, hidden, embed_dim)
    opt = _MomentumSGD(audio_p.arrays(), config.momentum)
    by_class: dict[int, list[TriModalRecord]] = {}
    for r in records:
        by_class.setdefault(r.class_id, []).append(r)

    n = len(records)
    bsz = min(config.batch_size, n)
    steps = max(n // bsz, 1)
    main_flags = replace(config.flags, use_kl=False)
    weak_counts = weak_candidate_counts(records)
    log: list[tuple[int, LossBreakdown]] = []
    for epoch in range(config.epochs):
        lr = cyclic_lr(config.lr, epoch, config.sched_period)
        sums = np.zeros(5)
        for _ in range(steps):
            batch = sample_minibatch(records, bsz, rng,
                                     config.freq_mask_ratio,
                                     config.time_mask_ratio)
            # the main batch's weak pairs are never read, since its loss
            # runs with use_kl=False; their draws stay because every later
            # batch depends on the rng state they advance
            for r in batch.records:
                rng.integers(0, weak_counts[(r.class_id, r.video_id)])
            t, v = _teacher_views(batch, teacher, rng, config.text_aug_prob)
            an = encoder_param_nodes(audio_p)
            a = encode_nodes(an, ad.constant(batch.audio.reshape(bsz, -1)))
            a_aug = encode_nodes(an, ad.constant(batch.audio_aug.reshape(bsz, -1)))
            loss, br = total_loss_node(a, a_aug, t, v, None, config.tau,
                                       main_flags)
            anchors, weak2 = _weak_triplet_batch(by_class, records, rng)
            bags2 = _augmented_bags([r.text for r in anchors], rng,
                                    config.text_aug_prob)
            kl_val = 0.0
            if config.flags.use_kl and len(anchors) >= 2:
                t2 = encode_np(teacher.text, bags2)
                vw2 = encode_np(teacher.image,
                                np.stack([r.image for r in weak2]))
                a2 = encode_nodes(an, ad.constant(
                    np.stack([r.audio.reshape(-1) for r in anchors])))
                kl = weak_kl_loss_node(a2, ad.constant(vw2), t2, config.tau,
                                       config.flags.kl_full_rows)
                loss = ad.add(loss, kl)
                kl_val = float(kl.value)
            ad.backward(loss)
            opt.step(audio_p.arrays(), {k: nd.grad for k, nd in an.items()}, lr)
            sums += (br.nce_at, br.nce_av, br.self_aa, kl_val,
                     br.total + kl_val)
        mean = sums / steps
        log.append((epoch, LossBreakdown(*(float(x) for x in mean))))
    return audio_p, log


def loss_log_csv(log: list[tuple[int, LossBreakdown]]) -> str:
    lines = ["epoch,nce_at,nce_av,self_aa,kl_weak,total"]
    for epoch, br in log:
        lines.append(f"{epoch},{br.nce_at!r},{br.nce_av!r},{br.self_aa!r},"
                     f"{br.kl_weak!r},{br.total!r}")
    return "\n".join(lines) + "\n"
