"""Direct latent code optimization guided by an audio (or text) embedding.

Only the latent code and the gate logits move; the generator, the encoders,
and the identity extractor are frozen. Plain gradient descent with a fixed
step size. The hinge term is the triplet form

    max( d_cos(f_v(G(w_a)), a) - d_cos(f_v(G(w_s)), a) + 1, 0 )

which is 1 at the start (w_a == w_s) and drops below 1 exactly when the
manipulated image is strictly closer to the guidance embedding than the
source image. Regularization is the gate-weighted mean of per-layer latent
drift norms (or the plain Frobenius norm with adaptive masking off).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .encoders import EncoderParams, encode_audio, encode_np, encode_text
from .errors import NumericsError, ParameterError
from .generator import GeneratorParams, synthesize, synthesize_node
from .augment import TokenSeq

GATE_TOL = 1e-12


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
    z = np.tanh(np.asarray(image, float).reshape(1, -1) @ extractor.w1) @ extractor.w2
    return (z / np.linalg.norm(z))[0]


def _identity_node(extractor: IdentityExtractor, image: ad.Node) -> ad.Node:
    z = ad.matmul(ad.tanh(ad.matmul(image, ad.constant(extractor.w1))),
                  ad.constant(extractor.w2))
    return ad.l2_normalize_rows(z)


@dataclass
class ManipConfig:
    lambda_reg: float = 0.008
    lambda_id: float = 0.004
    steps: int = 300
    step_size: float = 0.1
    adaptive_masking: bool = True
    identity_enabled: bool = True


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


def _param_consts(params: EncoderParams) -> dict[str, ad.Node]:
    return {k: ad.constant(v) for k, v in params.arrays().items()}


def _encode_image_node(params: EncoderParams, img: ad.Node) -> ad.Node:
    from .encoders import encode_nodes
    return encode_nodes(_param_consts(params), img)


def hinge_from_distances(d_src: float, d_manip: float) -> float:
    """Triplet hinge core: max(d_manip - d_src + 1, 0).

    Equals 1 when the distances tie, 0 when the manipulated image sits a
    full margin closer to the guidance than the source, 2 when it sits a
    full margin farther.
    """
    return max(d_manip - d_src + 1.0, 0.0)


def hinge_loss(w_s: np.ndarray, w_a: np.ndarray, a: np.ndarray,
               gen: GeneratorParams, f_v: EncoderParams) -> float:
    """Hinge with d_cos(u, v) = 1 - u.v on unit vectors."""
    v_src = encode_np(f_v, synthesize(w_s, gen)[None, :])[0]
    v_manip = encode_np(f_v, synthesize(w_a, gen)[None, :])[0]
    d_src = 1.0 - float(v_src @ a)
    d_manip = 1.0 - float(v_manip @ a)
    return hinge_from_distances(d_src, d_manip)


def masked_regularization(w_a: np.ndarray, w_s: np.ndarray,
                          gate_logits: np.ndarray,
                          adaptive: bool = True) -> float:
    delta = np.asarray(w_a, float) - np.asarray(w_s, float)
    if not adaptive:
        return float(np.linalg.norm(delta))
    norms = np.linalg.norm(delta, axis=1)
    return float(gate_softmax(np.asarray(gate_logits, float)) @ norms / len(norms))


def identity_loss(w_s: np.ndarray, w_a: np.ndarray, gen: GeneratorParams,
                  extractor: IdentityExtractor) -> float:
    f_s = identity_features(extractor, synthesize(w_s, gen))
    f_a = identity_features(extractor, synthesize(w_a, gen))
    return 1.0 - float(f_s @ f_a)


def _reg_node(w: ad.Node, w_s: np.ndarray, g: ad.Node | None,
              adaptive: bool) -> ad.Node:
    delta = ad.sub(w, ad.constant(w_s))
    if not adaptive:
        return ad.sqrt(ad.sum_all(ad.mul_elementwise(delta, delta)))
    layers = w_s.shape[0]
    norms = ad.row_l2_norm(delta)                       # (L, 1)
    weights = ad.row_softmax(g, 1.0)                    # (1, L)
    return ad.scale(ad.sum_all(ad.matmul(weights, norms)), 1.0 / layers)


def objective_node(w: ad.Node, g: ad.Node | None, w_s: np.ndarray,
                   target: np.ndarray, d_src: float, config: ManipConfig,
                   models: ModelBundle, source_identity: np.ndarray | None,
                   ) -> tuple[ad.Node, float, float, float]:
    """Full manipulation objective; returns (total, hinge, reg, identity)."""
    img = synthesize_node(w, models.generator)
    v = _encode_image_node(models.image, img)
    d_manip = ad.sub(ad.constant(1.0),
                     ad.sum_all(ad.mul_elementwise(v, ad.constant(target[None, :]))))
    hinge = ad.max_with_zero(ad.add(ad.sub(d_manip, ad.constant(d_src)),
                                    ad.constant(1.0)))
    reg = _reg_node(w, w_s, g, config.adaptive_masking)
    total = ad.add(hinge, ad.scale(reg, config.lambda_reg))
    id_val = 0.0
    if config.identity_enabled and config.lambda_id > 0.0:
        feat = _identity_node(models.identity, img)
        id_node = ad.sub(ad.constant(1.0), ad.sum_all(ad.mul_elementwise(
            feat, ad.constant(source_identity[None, :]))))
        total = ad.add(total, ad.scale(id_node, config.lambda_id))
        id_val = float(id_node.value)
    return total, float(hinge.value), float(reg.value), id_val


def optimize_guided(w_s: np.ndarray, target: np.ndarray, config: ManipConfig,
                    models: ModelBundle,
                    ) -> tuple[np.ndarray, np.ndarray, list[TrajectoryPoint]]:
    """Gradient descent on the manipulation objective from w_a = w_s.

    Returns the final latent, the final gate logits, and the per-step
    trajectory (values evaluated before each update).
    """
    if config.steps < 1:
        raise ParameterError("steps must be >= 1")
    if config.step_size < 0.0:
        raise ParameterError("step size must be non-negative")
    gen = models.generator
    w_s = gen.check_latent(w_s)
    w = w_s.copy()
    g = np.zeros(gen.layers)

    v_src = encode_np(models.image, synthesize(w_s, gen)[None, :])[0]
    d_src = 1.0 - float(v_src @ target)
    source_identity = None
    if config.identity_enabled and config.lambda_id > 0.0:
        source_identity = identity_features(models.identity, synthesize(w_s, gen))

    trajectory: list[TrajectoryPoint] = []
    for step in range(config.steps):
        w_node = ad.leaf(w)
        g_node = ad.leaf(g[None, :]) if config.adaptive_masking else None
        total, hinge_v, reg_v, id_v = objective_node(
            w_node, g_node, w_s, target, d_src, config, models, source_identity)
        if not np.isfinite(total.value):
            raise NumericsError(
                f"objective became non-finite at step {step}: "
                f"hinge={hinge_v} reg={reg_v} id={id_v}")
        trajectory.append(TrajectoryPoint(step, hinge_v, reg_v, id_v,
                                          float(total.value), gate_softmax(g)))
        ad.backward(total)
        w = w - config.step_size * w_node.grad
        if g_node is not None and g_node.grad is not None:
            g = g - config.step_size * g_node.grad[0]
    return w, g, trajectory


def optimize_latent(w_s: np.ndarray, mel: np.ndarray, config: ManipConfig,
                    models: ModelBundle,
                    ) -> tuple[np.ndarray, np.ndarray, list[TrajectoryPoint]]:
    """Audio-guided manipulation: guidance is the audio embedding of ``mel``."""
    return optimize_guided(w_s, encode_audio(mel, models.audio), config, models)


def text_guided_latent(w_s: np.ndarray, tokens: TokenSeq, config: ManipConfig,
                       models: ModelBundle,
                       ) -> tuple[np.ndarray, np.ndarray, list[TrajectoryPoint]]:
    """Same optimizer driven by a text embedding instead of audio."""
    return optimize_guided(w_s, encode_text(tokens, models.text), config, models)


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


def moving_average(values: list[float], window: int = 20) -> np.ndarray:
    v = np.asarray(values, float)
    if len(v) < window:
        return v.reshape(1, -1).mean(axis=1)
    kernel = np.ones(window) / window
    return np.convolve(v, kernel, mode="valid")
