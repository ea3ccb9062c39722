"""Direct latent code optimization guided by an audio (or text) embedding.

Only the latent code and the gate logits move; the generator, the encoders,
and the identity extractor are frozen. Plain gradient descent with a fixed
step size. The hinge term is the triplet form

    max( d_cos(f_v(G(w_a)), a) - d_cos(f_v(G(w_s)), a) + 1, 0 )

which is 1 at the start (w_a == w_s) and drops below 1 exactly when the
manipulated image is strictly closer to the guidance embedding than the
source image. Regularization is the gate-weighted mean of per-layer latent
drift norms (or the plain Frobenius norm with adaptive masking off). The
identity term 0.5 * |f_a - f_s|^2 on unit identity features is their
cosine distance 1 - f_a.f_s, but exactly 0 where they agree.

Each step evaluates the objective and its gradient with
``objective_and_grad``: a hand-derived numpy forward and backward pass that
mirrors, expression for expression, the autodiff graph kept as the oracle
in tests/graph_reference.py, so results match that graph bit for bit at a
fraction of the cost. The image is ``synthesize``'s one matmul through the
generator matrix A, so the latent's gradient is one matmul through A.T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .encoders import EncoderParams, encode_audio, encode_text
from .errors import DegenerateInputError, NumericsError, ParameterError
from .generator import GeneratorParams, synthesize


@dataclass
class IdentityExtractor:
    """Frozen seeded random projection: image -> unit feature vector."""

    w1: np.ndarray
    w2: np.ndarray


def init_identity_extractor(rng: np.random.Generator, pixels: int = 64,
                            hidden: int = 32, out_dim: int = 16,
                            ) -> IdentityExtractor:
    w1 = rng.standard_normal((pixels, hidden)) / np.sqrt(pixels)
    w2 = rng.standard_normal((hidden, out_dim)) / np.sqrt(hidden)
    return IdentityExtractor(w1, w2)


def identity_features(extractor: IdentityExtractor, image: np.ndarray) -> np.ndarray:
    feat, _ = _identity_forward(_c(image).reshape(1, -1), extractor)
    return feat[0]


@dataclass
class ModelBundle:
    generator: GeneratorParams
    audio: EncoderParams
    text: EncoderParams
    image: EncoderParams
    identity: IdentityExtractor


@dataclass
class TrajectoryPoint:
    step: int
    hinge: float
    reg: float
    identity: float
    total: float
    gate_softmax: np.ndarray


def gate_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def _c(a) -> np.ndarray:
    """float64 in C order, the layout the autodiff graph gave every operand,
    so each matmul below rounds as the graph's did."""
    return np.asarray(a, dtype=np.float64, order="C")


def _unit_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of z scaled to unit norm, and the norms (autodiff's
    ``l2_normalize_rows``)."""
    norms = np.sqrt((z ** 2).sum(axis=1, keepdims=True))
    if np.any(norms == 0.0):
        raise DegenerateInputError("l2_normalize_rows: zero-norm row")
    return z / norms, norms


def _unit_rows_vjp(g: np.ndarray, out: np.ndarray,
                   norms: np.ndarray) -> np.ndarray:
    dot = (g * out).sum(axis=1, keepdims=True)
    return (g - out * dot) / norms


def _image_forward(img: np.ndarray, enc: EncoderParams) -> tuple:
    """Image embedding of a (1, pixels) image, and the activations."""
    h1 = np.tanh(img @ _c(enc.w1) + _c(enc.b1))
    h2 = np.tanh(h1 @ _c(enc.w2) + _c(enc.b2))
    v, norms = _unit_rows(h2 @ _c(enc.w3) + _c(enc.b3))
    return v, (h1, h2, norms)


def _identity_forward(img: np.ndarray, extractor: IdentityExtractor) -> tuple:
    """Identity features of a (1, pixels) image, and the activations."""
    hf = np.tanh(img @ _c(extractor.w1))
    feat, norms = _unit_rows(hf @ _c(extractor.w2))
    return feat, (hf, norms)


def _distance(w: np.ndarray, gen: GeneratorParams, enc: EncoderParams,
              target: np.ndarray) -> float:
    v, _ = _image_forward(synthesize(w, gen)[None, :], enc)
    return float(1.0 - (v * _c(target)[None, :]).sum())


def source_reference(w_s: np.ndarray, target: np.ndarray, config: RunConfig,
                     models: ModelBundle) -> tuple[float, np.ndarray | None]:
    """(d_src, source identity features or None) for ``objective_and_grad``,
    from its own forward expressions: step 0 gives hinge 1 and identity 0."""
    gen = models.generator
    d_src = _distance(w_s, gen, models.image, target)
    if not (config.identity_enabled and config.lambda_id > 0.0):
        return d_src, None
    return d_src, identity_features(models.identity, synthesize(w_s, gen))


def objective_and_grad(w: np.ndarray, g: np.ndarray, w_s: np.ndarray,
                       target: np.ndarray, d_src: float, config: RunConfig,
                       models: ModelBundle, source_identity: np.ndarray | None,
                       ) -> tuple[float, float, float, float,
                                  np.ndarray, np.ndarray]:
    """Manipulation objective at latent ``w`` and gate logits ``g``.

    Returns (total, hinge, reg, identity, grad_w, grad_g); grad_g is zero
    with adaptive masking off. The forward pass repeats the numpy
    expressions of the autodiff ops the oracle graph is made of, and the
    backward pass repeats their vjps in the order ``autodiff.backward``
    runs them, skipping only the gradients of the frozen weights. Values
    and gradients are therefore bit-identical to building the graph and
    calling ``backward`` (tests/graph_reference.py keeps that graph).
    """
    gen = models.generator
    w = _c(gen.check_latent(w))
    enc = models.image
    t = _c(target)[None, :]
    lam_reg = float(config.lambda_reg)
    lam_id = float(config.lambda_id)
    use_id = config.identity_enabled and lam_id > 0.0

    # forward
    img = synthesize(w, gen)[None, :]
    v, (h1, h2, v_norms) = _image_forward(img, enc)
    pre = (1.0 - (v * t).sum()) - d_src + 1.0
    hinge = np.maximum(pre, 0.0)

    delta = w - _c(w_s)
    layers = w.shape[0]
    if config.adaptive_masking:
        norms = np.sqrt((delta ** 2).sum(axis=1, keepdims=True))     # (L, 1)
        z = _c(g)[None, :]
        e = np.exp(z - z.max(axis=1, keepdims=True))
        weights = e / e.sum(axis=1, keepdims=True)                   # (1, L)
        reg = (weights @ norms).sum() * (1.0 / layers)
    else:
        reg = np.sqrt((delta * delta).sum())
    total = hinge + reg * lam_reg
    ident = 0.0
    if use_id:
        src = _c(source_identity)[None, :]
        feat, (hf, f_norms) = _identity_forward(img, models.identity)
        d_id = feat - src
        ident = (d_id * d_id).sum() * 0.5
        total = total + ident * lam_id

    # backward: hinge through the image encoder, then identity. 0.0 - x,
    # not -x: the graph accumulated every gradient onto +0.0, so an inactive
    # hinge passes +0.0 on, never -0.0
    g_v = (0.0 - float(pre > 0.0)) * t
    g_a2 = (_unit_rows_vjp(g_v, v, v_norms) @ _c(enc.w3).T) * (1.0 - h2 * h2)
    g_a1 = (g_a2 @ _c(enc.w2).T) * (1.0 - h1 * h1)
    g_img = g_a1 @ _c(enc.w1).T
    if use_id:
        g_half = (lam_id * 0.5) * d_id
        g_f = _unit_rows_vjp(g_half + g_half, feat, f_norms)
        g_img = g_img + (((g_f @ _c(models.identity.w2).T) * (1.0 - hf * hf))
                         @ _c(models.identity.w1).T)
    grad_w = (g_img @ gen.A.T).reshape(w.shape)

    # regularizer
    if config.adaptive_masking:
        g_mm = np.full((1, 1), lam_reg * (1.0 / layers))
        g_weights = g_mm @ norms.T
        dot = (g_weights * weights).sum(axis=1, keepdims=True)
        grad_g = (weights * (g_weights - dot))[0]
        safe = np.where(norms > 0.0, norms, 1.0)
        g_delta = np.where(norms > 0.0, (weights.T @ g_mm) / safe, 0.0) * delta
    else:
        grad_g = np.zeros(layers)
        g_sq = lam_reg / (2.0 * reg) if reg > 0.0 else 0.0
        g_delta = g_sq * delta + g_sq * delta
    grad_w = grad_w + g_delta
    return (float(total), float(hinge), float(reg), float(ident),
            grad_w, grad_g)


def optimize_guided(w_s: np.ndarray, target: np.ndarray, config: RunConfig,
                    models: ModelBundle,
                    ) -> tuple[np.ndarray, np.ndarray, list[TrajectoryPoint]]:
    """Gradient descent on the manipulation objective from w_a = w_s.

    Returns the final latent, the final gate logits, and the per-step
    trajectory (values evaluated before each update).
    """
    if config.manip_steps < 1:
        raise ParameterError("manip_steps must be >= 1")
    for name in ("manip_step_size", "lambda_reg", "lambda_id"):
        value = float(getattr(config, name))
        if not (np.isfinite(value) and value >= 0.0):
            raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")
    gen = models.generator
    w_s = gen.check_latent(w_s)
    use_id = config.identity_enabled and config.lambda_id > 0.0
    frozen = [w_s, target, gen.bias, gen.A, *models.image.arrays().values()]
    if use_id:
        frozen += [models.identity.w1, models.identity.w2]
    if not all(np.all(np.isfinite(a)) for a in frozen):
        raise DegenerateInputError("manipulation inputs contain NaN or Inf")
    w = w_s.copy()
    g = np.zeros(gen.layers)
    d_src, source_identity = source_reference(w_s, target, config, models)

    trajectory: list[TrajectoryPoint] = []
    # divergence is reported by the checks below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.manip_steps):
            total, hinge_v, reg_v, id_v, grad_w, grad_g = objective_and_grad(
                w, g, w_s, target, d_src, config, models, source_identity)
            if not np.isfinite(total):
                raise NumericsError(
                    f"objective became non-finite at step {step}: "
                    f"hinge={hinge_v} reg={reg_v} id={id_v}")
            if not (np.all(np.isfinite(grad_w)) and np.all(np.isfinite(grad_g))):
                raise NumericsError(f"gradient became non-finite at step {step}")
            trajectory.append(TrajectoryPoint(step, hinge_v, reg_v, id_v, total,
                                              gate_softmax(g)))
            w = w - config.manip_step_size * grad_w
            g = g - config.manip_step_size * grad_g
    return w, g, trajectory


def optimize_latent(w_s: np.ndarray, mel: np.ndarray, config: RunConfig,
                    models: ModelBundle,
                    ) -> tuple[np.ndarray, np.ndarray, list[TrajectoryPoint]]:
    """Audio-guided manipulation: guidance is the audio embedding of ``mel``."""
    return optimize_guided(w_s, encode_audio(mel, models.audio), config, models)


def text_guided_latent(w_s: np.ndarray, ids: np.ndarray, config: RunConfig,
                       models: ModelBundle,
                       ) -> tuple[np.ndarray, np.ndarray, list[TrajectoryPoint]]:
    """Same optimizer driven by the text embedding of a row of token ids."""
    return optimize_guided(w_s, encode_text(ids, models.text), config, models)


def interpolate(w_a: np.ndarray, w_t: np.ndarray, alpha: float) -> np.ndarray:
    """(1 - alpha) * w_a + alpha * w_t with bit-exact endpoints."""
    if not (0.0 <= alpha <= 1.0):
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
    w_a = np.asarray(w_a, float)
    w_t = np.asarray(w_t, float)
    if w_a.shape != w_t.shape:
        raise ParameterError("latent shapes differ")
    if alpha == 0.0:
        return w_a.copy()
    if alpha == 1.0:
        return w_t.copy()
    return (1.0 - alpha) * w_a + alpha * w_t


def style_mix(w_a: np.ndarray, w_t: np.ndarray, split: int) -> np.ndarray:
    """Layers [0, split) from w_a, layers [split, layers) from w_t."""
    w_a = np.asarray(w_a, float)
    w_t = np.asarray(w_t, float)
    if w_a.shape != w_t.shape:
        raise ParameterError("latent shapes differ")
    layers = w_a.shape[0]
    if not (1 <= split < layers):
        raise ParameterError(f"split must lie in [1, {layers}), got {split}")
    return np.vstack([w_a[:split], w_t[split:]])


def trajectory_csv(trajectory: list[TrajectoryPoint]) -> str:
    lines = ["step,hinge,reg,id,total"]
    for p in trajectory:
        lines.append(f"{p.step},{p.hinge!r},{p.reg!r},{p.identity!r},{p.total!r}")
    return "\n".join(lines) + "\n"

