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

Each step evaluates the objective and its gradient with the step that
``bind_step`` builds once per optimization: a hand-derived numpy forward
and backward pass that mirrors, expression for expression, the autodiff
graph kept as the oracle in tests/graph_reference.py, so results match
that graph bit for bit at a fraction of the cost. The image is
``synthesize``'s one matmul through the generator matrix A, so the
latent's gradient is one matmul through A.T.

Every array carries a leading batch axis, so one call optimizes B latents,
each toward its own target, and a single request is B = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .encoders import EncoderParams
from .errors import (DegenerateInputError, DimensionError, NumericsError,
                     ParameterError)
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


@dataclass
class ModelBundle:
    generator: GeneratorParams
    audio: EncoderParams | None   # None for ablation, whose arms train their own
    text: EncoderParams
    image: EncoderParams
    identity: IdentityExtractor


@dataclass
class Trajectory:
    """Per-step values of a run over B latents, taken before each update:
    the terms are (steps, B) arrays, the gate logits (steps, B, layers)."""

    hinge: np.ndarray
    reg: np.ndarray
    identity: np.ndarray
    total: np.ndarray
    gate_logits: np.ndarray

    @property
    def gate_softmax(self) -> np.ndarray:
        """The gate softmax of every step, (steps, B, layers), computed on
        each access."""
        return gate_softmax(self.gate_logits)


def gate_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: one row of gate logits or a stack."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _c(a) -> np.ndarray:
    """float64 in C order, the layout the autodiff graph gave every operand,
    so each matmul below rounds as the graph's did."""
    return np.asarray(a, dtype=np.float64, order="C")


def _unit_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of z scaled to unit norm, and the norms (autodiff's
    ``l2_normalize_rows``)."""
    norms = np.sqrt((z ** 2).sum(axis=-1, keepdims=True))
    # a NaN norm is truthy, so this is the test norms == 0.0
    if not norms.all():
        raise DegenerateInputError("l2_normalize_rows: zero-norm row")
    return z / norms, norms


def _unit_rows_vjp(g: np.ndarray, out: np.ndarray,
                   norms: np.ndarray) -> np.ndarray:
    dot = (g * out).sum(axis=-1, keepdims=True)
    return (g - out * dot) / norms


def _image_forward(img: np.ndarray, enc: tuple) -> tuple:
    """Image embeddings of a (B, 1, pixels) stack, and the activations;
    ``enc`` is the encoder's (w1, b1, w2, b2, w3, b3) in C order."""
    w1, b1, w2, b2, w3, b3 = enc
    h1 = np.tanh(img @ w1 + b1)
    h2 = np.tanh(h1 @ w2 + b2)
    v, norms = _unit_rows(h2 @ w3 + b3)
    return v, (h1, h2, norms)


def _identity_forward(img: np.ndarray, w1: np.ndarray,
                      w2: np.ndarray) -> tuple:
    """Identity features of a (B, 1, pixels) stack, and the activations."""
    hf = np.tanh(img @ w1)
    feat, norms = _unit_rows(hf @ w2)
    return feat, (hf, norms)


def _encoder_arrays(enc: EncoderParams) -> tuple[np.ndarray, ...]:
    return tuple(_c(a) for a in enc.arrays().values())


def source_reference(w_s: np.ndarray, targets: np.ndarray, config: RunConfig,
                     models: ModelBundle) -> tuple[np.ndarray, np.ndarray | None]:
    """(d_src, source identity features or None) of each row, shaped
    (B, 1, 1) and (B, 1, features) for ``bind_step``, from its own
    forward expressions: step 0 gives hinge 1 and identity 0."""
    img = synthesize(w_s, models.generator)[:, None, :]
    v, _ = _image_forward(img, _encoder_arrays(models.image))
    d_src = 1.0 - (v * _c(targets)[:, None, :]).sum(axis=-1, keepdims=True)
    if not (config.identity_enabled and config.lambda_id > 0.0):
        return d_src, None
    ident = models.identity
    return d_src, _identity_forward(img, _c(ident.w1), _c(ident.w2))[0]


def bind_step(w_s: np.ndarray, targets: np.ndarray, config: RunConfig,
              models: ModelBundle, reference: tuple | None = None):
    """The manipulation step toward ``targets`` (B, embed) from the source
    stack ``w_s`` (B, layers, latent_dim), with every operand a run never
    changes bound once: the frozen weights in C order and their
    transposes, the generator matrix, the target stack, the settings, and
    the source terms (d_src, source identity), which ``reference`` gives or
    ``source_reference`` computes.

    Returns ``step(w, g)``, which takes C-ordered float64 latents (B,
    layers, latent_dim) and gate logits (B, layers) and returns (total,
    hinge, reg, identity), each (B,), then grad_w and grad_g; grad_g is
    zero with adaptive masking off. Every matmul operand is a (B, 1, ·)
    stack and every sum reduces over the last axis, so row i rounds as a
    B = 1 call does (see ``synthesize``). The forward and backward passes
    repeat the numpy expressions and vjps of the autodiff ops the oracle
    graph is made of, in the order ``autodiff.backward`` runs them, so
    values and gradients are bit-identical to the graph's
    (tests/graph_reference.py keeps it).
    """
    gen = models.generator
    w_s = _c(w_s)
    batch, layers = w_s.shape[0], w_s.shape[1]
    enc = _encoder_arrays(models.image)
    w1, _, w2, _, w3, _ = enc
    w1_t, w2_t, w3_t = w1.T, w2.T, w3.T
    gen_a, gen_a_t, bias = gen.A, gen.A.T, gen.bias
    t = _c(targets)[:, None, :]
    lam_reg = float(config.lambda_reg)
    lam_id = float(config.lambda_id)
    adaptive = config.adaptive_masking
    use_id = config.identity_enabled and lam_id > 0.0
    if use_id:
        id_w1, id_w2 = _c(models.identity.w1), _c(models.identity.w2)
        id_w1_t, id_w2_t = id_w1.T, id_w2.T
    d_src, source_identity = (source_reference(w_s, targets, config, models)
                              if reference is None else reference)
    inv_layers = 1.0 / layers
    g_mm = np.full((1, 1), lam_reg * inv_layers)
    # returned by every step, so read-only
    no_ident = np.zeros((batch, 1, 1))
    no_grad_g = np.zeros((batch, layers))
    no_ident.flags.writeable = no_grad_g.flags.writeable = False
    # the hinge's gradient on v, (0.0 - (pre > 0.0)) * t, for an active and
    # an inactive hinge. 0.0 - x, not -x: the graph accumulated every
    # gradient onto +0.0, so an inactive hinge passes +0.0 on, never -0.0
    g_v_active = (0.0 - True) * t
    g_v_inactive = (0.0 - False) * t

    def step(w: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, ...]:
        # forward; the terms of each row are (B, 1, 1)
        img = bias + w.reshape(batch, 1, -1) @ gen_a
        v, (h1, h2, v_norms) = _image_forward(img, enc)
        pre = (1.0 - (v * t).sum(axis=-1, keepdims=True)) - d_src + 1.0
        hinge = np.maximum(pre, 0.0)

        delta = w - w_s
        if adaptive:
            norms = np.sqrt((delta ** 2).sum(axis=-1, keepdims=True))  # (B, L, 1)
            weights = gate_softmax(g[:, None, :])                      # (B, 1, L)
            reg = (weights @ norms) * inv_layers
        else:
            reg = np.sqrt((delta * delta).reshape(batch, 1, -1).sum(
                axis=-1, keepdims=True))
        total = hinge + reg * lam_reg
        ident = no_ident
        if use_id:
            feat, (hf, f_norms) = _identity_forward(img, id_w1, id_w2)
            d_id = feat - source_identity
            ident = (d_id * d_id).sum(axis=-1, keepdims=True) * 0.5
            total = total + ident * lam_id

        # backward: hinge through the image encoder, then identity
        g_v = np.where(pre > 0.0, g_v_active, g_v_inactive)
        g_a2 = (_unit_rows_vjp(g_v, v, v_norms) @ w3_t) * (1.0 - h2 * h2)
        g_a1 = (g_a2 @ w2_t) * (1.0 - h1 * h1)
        g_img = g_a1 @ w1_t
        if use_id:
            g_half = (lam_id * 0.5) * d_id
            g_f = _unit_rows_vjp(g_half + g_half, feat, f_norms)
            g_img = g_img + (((g_f @ id_w2_t) * (1.0 - hf * hf)) @ id_w1_t)
        grad_w = (g_img @ gen_a_t).reshape(w.shape)

        # regularizer
        if adaptive:
            g_weights = g_mm @ norms.swapaxes(-1, -2)
            dot = (g_weights * weights).sum(axis=-1, keepdims=True)
            grad_g = (weights * (g_weights - dot))[:, 0]
            moved = norms > 0.0
            safe = np.where(moved, norms, 1.0)
            g_delta = np.where(moved, (weights.swapaxes(-1, -2) @ g_mm)
                               / safe, 0.0) * delta
        else:
            grad_g = no_grad_g
            g_sq = np.divide(lam_reg, 2.0 * reg, out=np.zeros_like(reg),
                             where=reg > 0.0)
            g_delta = g_sq * delta + g_sq * delta
        grad_w = grad_w + g_delta
        return (total.reshape(batch), hinge.reshape(batch),
                reg.reshape(batch), ident.reshape(batch), grad_w, grad_g)

    return step


def objective_and_grad(w: np.ndarray, g: np.ndarray, w_s: np.ndarray,
                       targets: np.ndarray, d_src: np.ndarray,
                       config: RunConfig, models: ModelBundle,
                       source_identity: np.ndarray | None,
                       ) -> tuple[np.ndarray, ...]:
    """Manipulation objective of each row of latents ``w`` (B, layers,
    latent_dim) and gate logits ``g`` (B, layers) toward ``targets``, with
    the given source terms: one step of ``bind_step``.

    Returns (total, hinge, reg, identity), each (B,), then grad_w and
    grad_g; grad_g is zero with adaptive masking off.
    """
    w = _c(models.generator.check_latent(w))
    if w.shape != np.shape(w_s):
        raise DimensionError(f"latents {w.shape} do not pair with sources "
                             f"{np.shape(w_s)}")
    step = bind_step(w_s, targets, config, models, (d_src, source_identity))
    return step(w, _c(g))


def optimize_guided(w_s: np.ndarray, targets: np.ndarray, config: RunConfig,
                    models: ModelBundle,
                    ) -> tuple[np.ndarray, np.ndarray, Trajectory]:
    """Gradient descent on the manipulation objective from w_a = w_s, a
    (B, layers, latent_dim) stack, each row toward its row of ``targets``
    (B, embed), an ``encode_audio`` or ``encode_text`` embedding. Returns
    the final latents, the final gate logits (B, layers) and the
    trajectory; row i of each equals the run of row i alone, byte for byte.
    """
    if config.manip_steps < 1:
        raise ParameterError("manip_steps must be >= 1")
    for name in ("manip_step_size", "lambda_reg", "lambda_id"):
        value = float(getattr(config, name))
        if not (np.isfinite(value) and value >= 0.0):
            raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")
    gen = models.generator
    w_s = gen.check_latent(w_s)
    targets = np.asarray(targets, dtype=np.float64)
    if w_s.ndim != 3 or targets.shape != (len(w_s), models.image.w3.shape[1]):
        raise DimensionError(f"need a latent stack and one target row per "
                             f"latent, got {w_s.shape} and {targets.shape}")
    frozen = [gen.bias, gen.A, *models.image.arrays().values()]
    if config.identity_enabled and config.lambda_id > 0.0:
        frozen += [models.identity.w1, models.identity.w2]
    if not all(np.all(np.isfinite(a)) for a in frozen):
        raise DegenerateInputError("manipulation models contain NaN or Inf")
    bad = ~(np.isfinite(w_s).all(axis=(1, 2)) & np.isfinite(targets).all(axis=1))
    if bad.any():
        raise DegenerateInputError("manipulation inputs contain NaN or Inf "
                                   f"in row {np.argmax(bad)}")
    batch, steps = len(w_s), config.manip_steps
    step_size = config.manip_step_size
    w = w_s.copy()
    g = np.zeros((batch, gen.layers))
    objective = bind_step(w_s, targets, config, models)

    hinges, regs, idents, totals = np.empty((4, steps, batch))
    logits = np.empty((steps, batch, gen.layers))
    # divergence is reported by the checks below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            total, hinge, reg, ident, grad_w, grad_g = objective(w, g)
            if not np.isfinite(total).all():
                i = np.argmax(~np.isfinite(total))
                raise NumericsError(
                    f"objective became non-finite in row {i} at step {step}: "
                    f"hinge={hinge[i]} reg={reg[i]} id={ident[i]}")
            if not (np.isfinite(grad_w).all() and np.isfinite(grad_g).all()):
                bad = ~(np.isfinite(grad_w).all(axis=(1, 2))
                        & np.isfinite(grad_g).all(axis=1))
                raise NumericsError(f"gradient became non-finite in row "
                                    f"{np.argmax(bad)} at step {step}")
            hinges[step], regs[step], idents[step] = hinge, reg, ident
            totals[step], logits[step] = total, g
            w = w - step_size * grad_w
            g = g - step_size * grad_g
    return w, g, Trajectory(hinges, regs, idents, totals, logits)


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


def trajectory_csv(trajectory: Trajectory) -> str:
    """The per-step terms of a single-latent (B = 1) run, one row each."""
    terms = np.hstack([trajectory.hinge, trajectory.reg, trajectory.identity,
                       trajectory.total])
    if terms.shape[1] != 4:
        raise DimensionError("trajectory_csv writes one latent's trajectory")
    lines = ["step,hinge,reg,id,total"]
    for step, row in enumerate(terms.tolist()):
        lines.append(f"{step}," + ",".join(repr(x) for x in row))
    return "\n".join(lines) + "\n"
