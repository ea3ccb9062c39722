"""Direct latent code optimization guided by an audio (or text) embedding.

Only the latent code and the gate logits move; the generator, the encoders,
and the identity extractor are frozen. Plain gradient descent with a fixed
step size. The hinge term is the triplet form

    max( d_cos(f_v(G(w_a)), a) - d_cos(f_v(G(w_s)), a) + 1, 0 )

which is 1 at the start (w_a == w_s) and drops below 1 exactly when the
manipulated image is strictly closer to the guidance embedding than the
source image. Regularization is the gate-weighted mean of per-layer latent
drift norms (adaptive layer masking). The identity term 0.5 * |f_a -
f_s|^2 on unit identity features is their cosine distance 1 - f_a.f_s, but
exactly 0 where they agree.

Each step evaluates the objective and its gradient with the step that
``bind_step`` builds once per optimization: a hand-derived numpy forward
and backward pass that mirrors, expression for expression, the autodiff
graph kept as the oracle in tests/graph_reference.py, bit for bit. The
generator is folded into the first layer of the frozen encoders the image
feeds, the image encoder and (with the identity term on) the identity
extractor: both are linear in the image bias + vec(w) @ A, so the step
binds F = A @ [image.w1 | identity.w1] and c0 = bias @ [image.w1 |
identity.w1] + [image.b1 | 0], opens its forward with vec(w) @ F + c0 and
closes its backward with one product by F.T.

Every array carries a leading batch axis, so one call optimizes B latents,
each toward its own target. Every product follows the product rule of
``generator.synthesize``: a plain 2-D gemm of two or more rows whose right
operand is C-contiguous (the backward's transposes are bound as copies).
So ``bind_step`` takes two or more rows, and its callers run one latent
as two copies of its row and keep row 0: row i of any batch equals its
B = 1 run byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .encoders import EncoderParams, unit_rows, unit_rows_vjp
from .errors import (DegenerateInputError, DimensionError, NumericsError,
                     ParameterError)
from .generator import GeneratorParams, gemm_rows
from .losses import softmax


@dataclass
class IdentityExtractor:
    """Frozen seeded random projection: image -> unit feature vector."""

    w1: np.ndarray
    w2: np.ndarray


def init_identity_extractor(rng: np.random.Generator, pixels: int,
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
        return softmax(self.gate_logits)


def _c(a) -> np.ndarray:
    """float64 in C order, the layout every product's operands take."""
    return np.asarray(a, dtype=np.float64, order="C")


def bind_step(w_s: np.ndarray, targets: np.ndarray, config: RunConfig,
              models: ModelBundle, reference: tuple | None = None):
    """The manipulation step toward ``targets`` (B, embed) from the source
    stack ``w_s`` (B, layers, latent_dim), with every operand a run never
    changes bound once: the folded first layers (see the module
    docstring), the other frozen weights, C-contiguous copies of every
    transposed operand, the targets, the settings, and the source terms
    (d_src (B, 1), source identity (B, features) or None), which
    ``reference`` gives or the step's own forward computes at the sources,
    so that step 0 gives hinge 1 and identity 0 exactly.

    Returns ``step(w, g)``, which takes C-ordered float64 latents (B,
    layers, latent_dim) and gate logits (B, layers) and returns (total,
    hinge, reg, identity), each (B,), then grad_w and grad_g. B is at
    least 2: under the product rule a single latent rounds as a row of a
    stack only when the caller runs it as two copies of its row
    (``generator.gemm_rows``), as ``optimize_guided`` does.
    The passes repeat the numpy expressions and vjps of the ops the oracle
    graph is made of, in the order ``autodiff.backward`` runs them, so
    values and gradients are bit-identical to the graph's. Products are
    spelled x.dot(m): the gemm of x @ m, with less call overhead.
    """
    w_s, targets = _c(w_s), _c(targets)
    if len(w_s) < 2:
        raise DimensionError(f"the step binds two or more rows (a single "
                             f"latent runs as two copies of its row), got "
                             f"{len(w_s)}")
    batch, layers = w_s.shape[0], w_s.shape[1]
    enc, gen = models.image, models.generator
    w1, b1 = _c(enc.w1), _c(enc.b1)
    hidden = w1.shape[1]
    use_id = config.lambda_id > 0.0
    if use_id:
        id_w1, id_w2 = _c(models.identity.w1), _c(models.identity.w2)
        id_w2_t = np.ascontiguousarray(id_w2.T)
        w1 = np.hstack([w1, id_w1])
        b1 = np.hstack([b1, np.zeros((1, id_w1.shape[1]))])
    first, c0 = gen.A @ w1, gen.bias @ w1 + b1
    w2, b2, w3, b3 = (_c(a) for a in (enc.w2, enc.b2, enc.w3, enc.b3))
    first_t, w2_t, w3_t = (np.ascontiguousarray(a.T) for a in (first, w2, w3))

    def forward(wf: np.ndarray) -> tuple:
        """The first layers' activations, the image encoder's second, v and
        its norms, and the identity features and norms (or None) of the
        flattened latents ``wf``."""
        h = np.tanh(wf.dot(first) + c0)
        h2 = np.tanh(h[:, :hidden].dot(w2) + b2)
        v, v_norms = unit_rows(h2.dot(w3) + b3)
        if not use_id:
            return h, h2, v, v_norms, None, None
        return (h, h2, v, v_norms, *unit_rows(h[:, hidden:].dot(id_w2)))

    if reference is None:
        _, _, v, _, feat, _ = forward(w_s.reshape(batch, -1))
        reference = (1.0 - (v * targets).sum(axis=-1, keepdims=True), feat)
    d_src, source_identity = reference
    lam_reg, lam_id = float(config.lambda_reg), float(config.lambda_id)
    inv_layers = 1.0 / layers
    c_reg = lam_reg * inv_layers
    # returned by every step, so read-only
    no_ident = np.zeros((batch, 1))
    no_ident.flags.writeable = False
    # the hinge's gradient on v, (0.0 - (pre > 0.0)) * t, for an active and
    # an inactive hinge. 0.0 - x, not -x: the graph accumulated every
    # gradient onto +0.0, so an inactive hinge passes +0.0 on, never -0.0
    g_v_active = (0.0 - True) * targets
    g_v_inactive = (0.0 - False) * targets

    def step(w: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, ...]:
        # forward; the terms of each row are (B, 1)
        h, h2, v, v_norms, feat, f_norms = forward(w.reshape(batch, -1))
        pre = (1.0 - (v * targets).sum(axis=-1, keepdims=True)) - d_src + 1.0
        hinge = np.maximum(pre, 0.0)

        delta = w - w_s
        norms = np.sqrt((delta ** 2).sum(axis=-1))                  # (B, L)
        weights = softmax(g)                                        # (B, L)
        reg = (weights * norms).sum(axis=-1, keepdims=True) * inv_layers
        total = hinge + reg * lam_reg
        ident = no_ident
        if use_id:
            d_id = feat - source_identity
            ident = (d_id * d_id).sum(axis=-1, keepdims=True) * 0.5
            total = total + ident * lam_id

        # backward: the hinge to h, then the identity term to h, then
        # through the first layer
        g_v = np.where(pre > 0.0, g_v_active, g_v_inactive)
        g_a2 = unit_rows_vjp(g_v, v, v_norms).dot(w3_t) * (1.0 - h2 * h2)
        g_h = g_a2.dot(w2_t)
        if use_id:
            g_half = (lam_id * 0.5) * d_id
            g_f = unit_rows_vjp(g_half + g_half, feat, f_norms)
            g_h = np.concatenate([g_h, g_f.dot(id_w2_t)], axis=1)
        grad_w = (g_h * (1.0 - h * h)).dot(first_t).reshape(w.shape)

        # regularizer
        g_weights = c_reg * norms
        dot = (g_weights * weights).sum(axis=-1, keepdims=True)
        grad_g = weights * (g_weights - dot)
        # a layer that has not moved passes no gradient
        g_norms = (c_reg * weights) / np.where(norms > 0.0, norms, np.inf)
        g_delta = g_norms[..., None] * delta
        return (total[:, 0], hinge[:, 0], reg[:, 0], ident[:, 0],
                grad_w + g_delta, grad_g)

    return step


def optimize_guided(w_s: np.ndarray, targets: np.ndarray, config: RunConfig,
                    models: ModelBundle,
                    ) -> tuple[np.ndarray, np.ndarray, Trajectory]:
    """Gradient descent on the manipulation objective from w_a = w_s, a
    (B, layers, latent_dim) stack, each row toward its row of ``targets``
    (B, embed), an audio or text embedding from ``encode_np``. Returns
    the final latents, the final gate logits (B, layers) and the
    trajectory; row i of each equals the run of row i alone, byte for byte.
    """
    config.check_ranges()
    gen = models.generator
    w_s = gen.check_latent(w_s)
    targets = np.asarray(targets, dtype=np.float64)
    if w_s.ndim != 3 or targets.shape != (len(w_s), models.image.w3.shape[1]):
        raise DimensionError(f"need a latent stack and one target row per "
                             f"latent, got {w_s.shape} and {targets.shape}")
    frozen = [gen.bias, gen.A, *models.image.arrays().values()]
    if config.lambda_id > 0.0:
        frozen += [models.identity.w1, models.identity.w2]
    if not all(np.all(np.isfinite(a)) for a in frozen):
        raise DegenerateInputError("manipulation models contain NaN or Inf")
    bad = ~(np.isfinite(w_s).all(axis=(1, 2)) & np.isfinite(targets).all(axis=1))
    if bad.any():
        raise DegenerateInputError("manipulation inputs contain NaN or Inf "
                                   f"in row {np.argmax(bad)}")
    batch, steps = len(w_s), config.manip_steps
    # the product rule: B = 1 runs as two copies of its row, since
    # bind_step takes two or more
    w_s, targets = gemm_rows(w_s), gemm_rows(targets)
    w, g = w_s.copy(), np.zeros(w_s.shape[:2])
    objective = bind_step(w_s, targets, config, models)

    hinges, regs, idents, totals = np.empty((4, steps, len(w_s)))
    logits = np.empty((steps, *w_s.shape[:2]))
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
            w = w - config.manip_step_size * grad_w
            g = g - config.manip_step_size * grad_g
    terms = (x[:, :batch] for x in (hinges, regs, idents, totals, logits))
    return w[:batch], g[:batch], Trajectory(*terms)


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
