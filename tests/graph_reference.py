"""The manipulation objective built as an autodiff graph: the reference
oracle for the hand-derived numpy objective in `sgim.manipulate`.

`synthesize_node` and `objective_node` build the generator and the full
objective from `sgim.autodiff` ops, one graph per evaluation, and
`graph_optimize_guided` runs the descent loop on them with
`autodiff.backward`; it takes the source terms d_src and the source
identity from its own graph too. `manipulate.objective_and_grad` must
reproduce these values and gradients bit for bit.

The float helpers at the end (`hinge_loss`, `hinge_from_distances`,
`masked_regularization`, `identity_loss`, `moving_average`) give each
objective term, or the smoothed total, for a given latent, without a graph.
"""

from __future__ import annotations

import numpy as np

from sgim import autodiff as ad
from sgim.encoders import EncoderParams, encode_nodes
from sgim.errors import DimensionError, NumericsError
from sgim.generator import GeneratorParams, synthesize
from sgim.manipulate import (IdentityExtractor, ManipConfig, ModelBundle,
                             TrajectoryPoint, gate_softmax, identity_features,
                             source_reference)


def synthesize_node(w: ad.Node, gen: GeneratorParams) -> ad.Node:
    """Graph version, bias + vec(w) @ A; w is an (layers, latent_dim) Node,
    output (1, pixels). Row k of w reaches vec(w) through a 0/1 placement
    matrix, which moves every value without rounding it."""
    layers, dim = gen.layers, gen.latent_dim
    if w.value.shape != (layers, dim):
        raise DimensionError(
            f"latent must be {(layers, dim)}, got {w.value.shape}")
    flat = None
    for k in range(layers):
        row = ad.matmul(ad.slice_rows(w, k, k + 1),
                        ad.constant(np.eye(dim, layers * dim, k * dim)))
        flat = row if flat is None else ad.add(flat, row)
    return ad.add(ad.constant(gen.bias[None, :]),
                  ad.matmul(flat, ad.constant(gen.A)))


def _identity_node(extractor: IdentityExtractor, image: ad.Node) -> ad.Node:
    z = ad.matmul(ad.tanh(ad.matmul(image, ad.constant(extractor.w1))),
                  ad.constant(extractor.w2))
    return ad.l2_normalize_rows(z)


def _encode_image_node(params: EncoderParams, img: ad.Node) -> ad.Node:
    consts = {k: ad.constant(v) for k, v in params.arrays().items()}
    return encode_nodes(consts, img)


def _reg_node(w: ad.Node, w_s: np.ndarray, g: ad.Node | None,
              adaptive: bool) -> ad.Node:
    delta = ad.sub(w, ad.constant(w_s))
    if not adaptive:
        return ad.sqrt(ad.sum_all(ad.mul_elementwise(delta, delta)))
    layers = w_s.shape[0]
    norms = ad.row_l2_norm(delta)                       # (L, 1)
    weights = ad.row_softmax(g, 1.0)                    # (1, L)
    return ad.scale(ad.sum_all(ad.matmul(weights, norms)), 1.0 / layers)


def _distance_node(u: ad.Node, t: np.ndarray) -> ad.Node:
    return ad.sub(ad.constant(1.0),
                  ad.sum_all(ad.mul_elementwise(u, ad.constant(t[None, :]))))


def objective_node(w: ad.Node, g: ad.Node | None, w_s: np.ndarray,
                   target: np.ndarray, d_src: float, config: ManipConfig,
                   models: ModelBundle, source_identity: np.ndarray | None,
                   ) -> tuple[ad.Node, float, float, float]:
    """Full manipulation objective; returns (total, hinge, reg, identity)."""
    img = synthesize_node(w, models.generator)
    v = _encode_image_node(models.image, img)
    d_manip = _distance_node(v, target)
    hinge = ad.max_with_zero(ad.add(ad.sub(d_manip, ad.constant(d_src)),
                                    ad.constant(1.0)))
    reg = _reg_node(w, w_s, g, config.adaptive_masking)
    total = ad.add(hinge, ad.scale(reg, config.lambda_reg))
    id_val = 0.0
    if config.identity_enabled and config.lambda_id > 0.0:
        feat = _identity_node(models.identity, img)
        d_id = ad.sub(feat, ad.constant(source_identity[None, :]))
        id_node = ad.scale(ad.sum_all(ad.mul_elementwise(d_id, d_id)), 0.5)
        total = ad.add(total, ad.scale(id_node, config.lambda_id))
        id_val = float(id_node.value)
    return total, float(hinge.value), float(reg.value), id_val


def graph_optimize_guided(w_s: np.ndarray, target: np.ndarray,
                          config: ManipConfig, models: ModelBundle,
                          ) -> tuple[np.ndarray, np.ndarray,
                                     list[TrajectoryPoint]]:
    """The descent loop of `manipulate.optimize_guided`, one graph and one
    `autodiff.backward` per step."""
    gen = models.generator
    w_s = gen.check_latent(w_s)
    w = w_s.copy()
    g = np.zeros(gen.layers)
    img_s = synthesize_node(ad.leaf(w_s), gen)
    d_src = float(_distance_node(_encode_image_node(models.image, img_s),
                                 target).value)
    source_identity = None
    if config.identity_enabled and config.lambda_id > 0.0:
        source_identity = _identity_node(models.identity, img_s).value[0]
    trajectory: list[TrajectoryPoint] = []
    for step in range(config.steps):
        w_node = ad.leaf(w)
        g_node = ad.leaf(g[None, :]) if config.adaptive_masking else None
        total, hinge_v, reg_v, id_v = objective_node(
            w_node, g_node, w_s, target, d_src, config, models, source_identity)
        if not np.isfinite(total.value):
            raise NumericsError(f"objective became non-finite at step {step}")
        trajectory.append(TrajectoryPoint(step, hinge_v, reg_v, id_v,
                                          float(total.value), gate_softmax(g)))
        ad.backward(total)
        w = w - config.step_size * w_node.grad
        if g_node is not None:
            g = g - config.step_size * g_node.grad[0]
    return w, g, trajectory


# ---------------------------------------------------------------------------
# float helpers: one objective term at a time, no graph


def hinge_from_distances(d_src: float, d_manip: float) -> float:
    """Triplet hinge core: max(d_manip - d_src + 1, 0).

    Equals 1 when the distances tie, 0 when the manipulated image sits a
    full margin closer to the guidance than the source, 2 when it sits a
    full margin farther.
    """
    return max(d_manip - d_src + 1.0, 0.0)


def hinge_loss(w_s: np.ndarray, w_a: np.ndarray, a: np.ndarray,
               gen: GeneratorParams, f_v: EncoderParams) -> float:
    """Hinge with d_cos(u, v) = 1 - u.v, by the objective's expressions
    (``source_reference`` gives each latent's distance)."""
    models = ModelBundle(gen, None, None, f_v, None)
    config = ManipConfig(identity_enabled=False)
    d_src, _ = source_reference(w_s, a, config, models)
    d_manip, _ = source_reference(w_a, a, config, models)
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
    return 0.5 * float(((f_a - f_s) ** 2).sum())


def moving_average(values: list[float], window: int = 20) -> np.ndarray:
    v = np.asarray(values, float)
    if len(v) < window:
        return v.reshape(1, -1).mean(axis=1)
    kernel = np.ones(window) / window
    return np.convolve(v, kernel, mode="valid")
