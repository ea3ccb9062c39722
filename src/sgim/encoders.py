"""Toy modality encoders and the two training stages.

Each encoder is a 2-hidden-layer tanh perceptron whose output rows are
L2-normalized. The text/image pair is pretrained first with symmetric
InfoNCE and then frozen, standing in for a pretrained vision-language
teacher; the audio encoder is trained afterwards against that frozen
teacher with the four-component loss.

Optimizer: plain SGD with momentum 0.9 under a cosine cyclic schedule
(period ``sched_period`` epochs, floor lr/10).

Each training step is a draw and a learn. The draw makes every rng call
and all the frozen teacher's work, and returns the batch's row indexes
with what it made; the learn gathers the rows and runs the step on the
trained parameters. No draw reads those parameters, so ``_descend`` forks
once and a child process makes every draw, in the order a single process
would, while the parent learns from the batch before. The child starts
from the parent's rng state and numpy error state and runs the same
numpy calls, and pickling carries each array's bytes unchanged, so every
batch, and so every trained byte, is what the draws would give in
process. Training therefore needs ``os.fork`` (POSIX).
"""

from __future__ import annotations

import contextlib
import fcntl
import math
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .augment import VOCAB_SIZE, augment_bags
from .config import RunConfig
from .data import (Dataset, group_rows, sample_from_each, sample_minibatch,
                   sample_weak_pairs, weak_candidates)
from .errors import (DegenerateInputError, DimensionError, NumericsError,
                     UsageError)
from .generator import gemm_rows
from .losses import LossBreakdown, info_nce, weak_kl

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

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: getattr(self, k) for k in PARAM_KEYS}


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


def unit_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of z scaled to unit norm, and their norms (autodiff's
    ``l2_normalize_rows``)."""
    norms = np.sqrt((z ** 2).sum(axis=-1, keepdims=True))
    # a NaN norm is truthy, so this is the test norms == 0.0
    if not norms.all():
        raise DegenerateInputError("cannot scale a zero-norm row to unit norm")
    return z / norms, norms


def unit_rows_vjp(g: np.ndarray, y: np.ndarray,
                  norms: np.ndarray) -> np.ndarray:
    """The gradient to z of ``unit_rows(z) = (y, norms)``, given g to y."""
    dot = (g * y).sum(axis=-1, keepdims=True)
    return (g - y * dot) / norms


def encode_vjp(params: EncoderParams, x: np.ndarray) -> tuple[np.ndarray, Callable]:
    """Unit-norm embeddings for a (n, in_dim) batch, and their vjp: a
    gradient to the embeddings -> the gradient to each parameter array."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.w1.shape[0]:
        raise DimensionError(f"input has {x.shape[1]} features, but the "
                             f"encoder takes {params.w1.shape[0]}: it was "
                             f"trained on other data")
    w2, w3 = params.w2, params.w3
    h1 = np.tanh(x @ params.w1 + params.b1)
    h2 = np.tanh(h1 @ w2 + params.b2)
    y, norms = unit_rows(h2 @ w3 + params.b3)

    def vjp(g: np.ndarray) -> dict[str, np.ndarray]:
        g3 = unit_rows_vjp(g, y, norms)
        # "0.0 +" is the graph's accumulation onto zeros: a saturated unit
        # passes +0.0 on, never -0.0
        g2 = 0.0 + (g3 @ w3.T) * (1.0 - h2 * h2)
        g1 = 0.0 + (g2 @ w2.T) * (1.0 - h1 * h1)
        return {"w1": x.T @ g1, "b1": g1.sum(axis=0, keepdims=True),
                "w2": h1.T @ g2, "b2": g2.sum(axis=0, keepdims=True),
                "w3": h2.T @ g3, "b3": g3.sum(axis=0, keepdims=True)}

    return y, vjp


def encode_np(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Unit-norm embeddings for a (n, in_dim) batch; one row runs as two
    copies of itself (``generator.gemm_rows``), as in any stacked call."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return encode_vjp(params, gemm_rows(x))[0][:len(x)]


def _param_grads(paths: list[tuple[Callable, tuple]]) -> dict[str, np.ndarray]:
    """Each parameter's gradient, summed onto zeros over the (vjp, gradient
    parts to its embeddings) paths in the given order."""
    grads = dict.fromkeys(PARAM_KEYS, 0.0)
    for vjp, parts in paths:
        for k, g in vjp(sum(parts, 0.0)).items():
            grads[k] = grads[k] + g
    return grads


def cyclic_lr(base_lr: float, epoch: int, period: int) -> float:
    """Cosine cyclic schedule: starts at base_lr, dips to base_lr/10
    mid-period, returns to base_lr every ``period`` epochs."""
    floor = base_lr / 10.0
    phase = (epoch % period) / period
    return floor + 0.5 * (base_lr - floor) * (1.0 + math.cos(2.0 * math.pi * phase))


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


@contextlib.contextmanager
def _forked_draws(stage: str, draw: Callable, bsz: int,
                  count: int) -> Iterator[Callable]:
    """Makes ``count`` calls of ``draw(bsz)``, in order, in a forked child
    that streams each batch to the parent over a pipe as soon as it is
    drawn; yields the function that returns the next batch.

    A draw that raises sends its exception, which the parent raises in
    place of that batch. A child that exits before sending a batch gives
    ``NumericsError``. On leaving, the child is killed and reaped.
    """
    read_fd, write_fd = os.pipe()
    # a pipe that holds several batches lets the child run ahead of the
    # parent; elsewhere than Linux, or past the user's pipe quota, the
    # default size stays
    with contextlib.suppress(AttributeError, OSError):
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 1 << 20)
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as sink:
                for _ in range(count):
                    try:
                        batch = draw(bsz)
                    except Exception as exc:  # the parent raises it
                        pickle.dump((False, exc), sink)
                        break
                    pickle.dump((True, batch), sink, pickle.HIGHEST_PROTOCOL)
                    sink.flush()
        finally:
            os._exit(0)  # never returns into the parent's code
    try:
        os.close(write_fd)
        with open(read_fd, "rb") as source:

            def receive():
                try:
                    drawn, value = pickle.load(source)
                except (EOFError, pickle.UnpicklingError):
                    raise NumericsError(f"{stage}: the batch producer exited "
                                        "before sending a batch") from None
                if not drawn:
                    raise value
                return value

            yield receive
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _descend(stage: str, config: RunConfig, lr: float, epochs: int,
             params: list[EncoderParams], n: int, draw: Callable,
             learn: Callable) -> list[tuple[int, np.ndarray]]:
    """Momentum SGD on ``params`` for ``epochs`` under the cyclic schedule
    from ``lr``, max(n // batch, 1) steps per epoch. ``draw(bsz)`` makes a
    step's batch and must not read ``params``; the draws run ahead in a
    forked child (``_forked_draws``). ``learn(batch)`` returns the batch's
    loss components and one gradient dict per entry of ``params``; a
    non-finite one raises ``NumericsError``. Returns each epoch's mean
    components."""
    opts = [_MomentumSGD(p.arrays(), config.momentum) for p in params]
    bsz = min(config.batch_size, n)
    steps = max(n // bsz, 1)
    log = []
    # divergence is reported below, not as numpy warnings; the child draws
    # under the same error state
    with np.errstate(over="ignore", invalid="ignore"), \
            _forked_draws(stage, draw, bsz, epochs * steps) as next_batch:
        for epoch in range(epochs):
            epoch_lr = cyclic_lr(lr, epoch, config.sched_period)
            sums = 0.0
            for i in range(steps):
                losses, grads = learn(next_batch())
                if not (np.all(np.isfinite(losses)) and all(
                        np.all(np.isfinite(g)) for d in grads
                        for g in d.values())):
                    raise NumericsError(f"{stage}: loss or gradient became "
                                        f"non-finite at epoch {epoch}, step {i}")
                for opt, p, g in zip(opts, params, grads):
                    opt.step(p.arrays(), g, epoch_lr)
                sums = sums + np.asarray(losses)
            log.append((epoch, sums / steps))
    return log


def teacher_step(text_p: EncoderParams, image_p: EncoderParams,
                 bags: np.ndarray, images: np.ndarray, tau: float) -> tuple:
    """Symmetric InfoNCE of one (text, image) batch, and the gradients to
    the text and the image encoder's parameters."""
    t, t_vjp = encode_vjp(text_p, bags)
    v, v_vjp = encode_vjp(image_p, images)
    loss, g_t, g_v = info_nce(t, v, tau)
    return (loss, _param_grads([(t_vjp, (g_t,))]),
            _param_grads([(v_vjp, (g_v,))]))


def pretrain_teacher(ds: Dataset, config: RunConfig,
                     ) -> tuple[TeacherParams, list[tuple[int, float]]]:
    """Symmetric InfoNCE over (text, image) pairs; returns frozen params
    plus the per-epoch loss log."""
    if len(ds) == 0:
        raise UsageError("cannot pretrain a teacher on an empty dataset")
    if min(config.batch_size, len(ds)) < 2:
        raise UsageError("InfoNCE needs negatives: at least 2 records per batch")
    rng = np.random.default_rng(config.seed_for("teacher"))
    shape = (config.hidden_dim, config.embed_dim)
    text_p = init_encoder_params(rng, VOCAB_SIZE, *shape)
    image_p = init_encoder_params(rng, ds.image.shape[1], *shape)

    def draw(bsz):
        # the draw of sample_minibatch; the teacher never reads audio
        rows = rng.choice(len(ds), size=bsz, replace=False)
        return rows, augment_bags(ds.text[rows], rng, config.text_aug_prob)

    def learn(batch):
        rows, bags = batch
        loss, g_t, g_v = teacher_step(text_p, image_p, bags, ds.image[rows],
                                      config.tau)
        return loss, (g_t, g_v)

    log = _descend("pretrain-teacher", config, config.teacher_lr,
                   config.teacher_epochs, [text_p, image_p], len(ds), draw,
                   learn)
    text_p.frozen = True
    image_p.frozen = True
    return (TeacherParams(text=text_p, image=image_p),
            [(epoch, float(mean)) for epoch, mean in log])


def _weak_triplet_batch(class_rows: list[np.ndarray],
                        candidates: list[np.ndarray],
                        rng: np.random.Generator,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """One anchor row per class plus the row of its weak image.

    The weak loss runs on this class-stratified triplet batch: with in-batch
    class duplicates the softmax negatives would push same-class weak images
    apart, the opposite of what the weak pairing is for.
    """
    anchors = sample_from_each(class_rows, rng)
    return anchors, sample_weak_pairs(candidates, anchors, rng)


def audio_step(params: EncoderParams, x: np.ndarray, x_aug: np.ndarray,
               t: np.ndarray, v: np.ndarray, weak: tuple | None,
               config: RunConfig) -> tuple[LossBreakdown, dict]:
    """The four-component loss of one batch of flattened audio ``x`` and
    its augmented view (0.0 for a term that ``config``'s ``use_loss_*``
    flags turn off), and the gradient to each parameter array. ``t``/``v``
    are the teacher's embeddings of its rows; ``weak`` is (x_weak, v_weak,
    t_weak) for the weak term, or None.
    """
    tau = config.tau
    a, a_vjp = encode_vjp(params, x)
    l_at = l_av = l_self = kl = 0.0
    # the graph's backward reaches the parameters through the weak batch,
    # then the augmented view, then the batch; and reaches the batch's
    # embeddings through the self term, then a/v, then a/t
    paths, g_a = [], ()
    if config.use_loss_kl and weak is not None:
        a_weak, weak_vjp = encode_vjp(params, weak[0])
        kl, g_weak = weak_kl(a_weak, weak[1], weak[2], tau, config.kl_full_rows)
        paths.append((weak_vjp, (g_weak,)))
    if config.use_loss_self:
        a_aug, aug_vjp = encode_vjp(params, x_aug)
        l_self, g_self, g_aug = info_nce(a, a_aug, tau)
        paths.append((aug_vjp, (g_aug,)))
        g_a += (g_self,)
    if config.use_loss_av:
        l_av, g_av, _ = info_nce(a, v, tau, grad_b=False)
        g_a += (g_av,)
    if config.use_loss_at:
        l_at, g_at, _ = info_nce(a, t, tau, grad_b=False)
        g_a += (g_at,)
    if g_a:
        paths.append((a_vjp, g_a))
    return (LossBreakdown(l_at, l_av, l_self, kl, l_at + l_av + l_self + kl),
            _param_grads(paths))


def check_loss_terms(config: RunConfig, classes: int) -> bool:
    """Whether the weak term trains, for ``classes`` classes: its batch
    holds one row per class, so it needs 2. Raises ``UsageError`` when the
    ``use_loss_*`` flags leave no term to train."""
    use_weak = config.use_loss_kl and classes >= 2
    if not (config.use_loss_at or config.use_loss_av or config.use_loss_self
            or use_weak):
        raise UsageError("no loss term is enabled: set one of use_loss_at, "
                         "use_loss_av, use_loss_self or use_loss_kl (the "
                         "weak term needs 2 classes)")
    return use_weak


def train_audio_encoder(ds: Dataset, teacher: TeacherParams,
                        config: RunConfig,
                        ) -> tuple[EncoderParams, list[tuple[int, LossBreakdown]]]:
    """Minimize the four-component loss over the audio encoder only.

    The teacher must be frozen; its parameters are never touched. The weak
    component is evaluated on a freshly sampled class-stratified triplet
    batch each step; the other three share one uniform minibatch. All rng
    draws happen regardless of the ablation flags, so two runs that differ
    only in flags see identical batches. The frozen teacher's image
    embeddings are computed once, for every row, and indexed per batch: a
    row of a gemm of two or more rows comes out the same whatever the other
    rows are. Returns the trained params and the per-epoch mean loss
    breakdown.
    """
    if not (teacher.text.frozen and teacher.image.frozen):
        raise UsageError("teacher encoders must be frozen before audio training")
    if config.batch_size < 2:
        raise UsageError("InfoNCE needs negatives: batch_size >= 2")
    if len(ds) == 0:
        raise UsageError("cannot train on an empty dataset")
    class_rows = group_rows(ds.class_id)
    use_weak = check_loss_terms(config, len(class_rows))
    rng = np.random.default_rng(config.seed_for("audio"))
    audio_p = init_encoder_params(rng, ds.audio[0].size, config.hidden_dim,
                                  config.embed_dim)
    candidates = weak_candidates(ds)
    v_all = encode_np(teacher.image, ds.image)

    def draw(bsz):
        batch = sample_minibatch(ds, bsz, rng, config.freq_mask_ratio,
                                 config.time_mask_ratio)
        # the main batch's weak pairs are never read, since the weak term
        # runs on its own batch; their draws stay because every later batch
        # depends on the rng state they advance
        sample_weak_pairs(candidates, batch.rows, rng)
        t = encode_np(teacher.text, augment_bags(batch.text, rng,
                                                 config.text_aug_prob))
        anchors, weak2 = _weak_triplet_batch(class_rows, candidates, rng)
        bags2 = augment_bags(ds.text[anchors], rng, config.text_aug_prob)
        t_weak = encode_np(teacher.text, bags2) if use_weak else None
        return batch.rows, batch.audio_aug, t, anchors, weak2, t_weak

    def learn(batch):
        rows, audio_aug, t, anchors, weak2, t_weak = batch
        weak = None
        if use_weak:
            weak = (ds.audio[anchors].reshape(len(anchors), -1), v_all[weak2],
                    t_weak)
        br, grads = audio_step(audio_p, ds.audio[rows].reshape(len(rows), -1),
                               audio_aug.reshape(len(rows), -1), t,
                               v_all[rows], weak, config)
        return br, (grads,)

    log = _descend("train-audio", config, config.audio_lr, config.audio_epochs,
                   [audio_p], len(ds), draw, learn)
    return audio_p, [(epoch, LossBreakdown(*(float(x) for x in mean)))
                     for epoch, mean in log]


def loss_log_csv(log: list[tuple[int, LossBreakdown]]) -> str:
    lines = ["epoch,nce_at,nce_av,self_aa,kl_weak,total"]
    for epoch, br in log:
        lines.append(f"{epoch},{br.nce_at!r},{br.nce_av!r},{br.self_aa!r},"
                     f"{br.kl_weak!r},{br.total!r}")
    return "\n".join(lines) + "\n"
