"""The encoders, the training losses and the manipulation objective built
as autodiff graphs: the reference oracle for the hand-derived numpy
forward and backward passes in `sgim.encoders`, `sgim.losses` and
`sgim.manipulate`.

`encode_nodes` is the encoder graph, `info_nce_pair_node`,
`weak_kl_loss_node` and `total_loss_node` the loss graphs, and
`graph_teacher_step` / `graph_audio_step` one training step each, built
from them with one `autodiff.backward`; they take the arguments of
`encoders.teacher_step` / `encoders.audio_step` and must return the same
values and gradients bit for bit.

`synthesize_node` and `objective_node` build the generator and the full
objective from `sgim.autodiff` ops, one graph per evaluation, and
`graph_optimize_guided` runs the descent loop on them with
`autodiff.backward`; it takes the source terms d_src and the source
identity from its own graph too. `manipulate.objective_and_grad` must
reproduce these values and gradients bit for bit.

The float helpers at the end (`hinge_loss`, `hinge_from_distances`,
`masked_regularization`, `identity_features`, `identity_loss`,
`moving_average`) give each objective term, or the smoothed total, for a
given latent.
"""

from __future__ import annotations

import numpy as np

from sgim import autodiff as ad
from sgim.config import RunConfig
from sgim.encoders import PARAM_KEYS, EncoderParams
from sgim.errors import DimensionError, NumericsError, UsageError
from sgim.generator import GeneratorParams, synthesize
from sgim.losses import LossBreakdown
from sgim.manipulate import (IdentityExtractor, ModelBundle, Trajectory,
                             gate_softmax, source_reference)


# ---------------------------------------------------------------------------
# encoders and training losses


def encoder_param_nodes(params: EncoderParams) -> dict[str, ad.Node]:
    return {k: ad.leaf(getattr(params, k)) for k in PARAM_KEYS}


def encode_nodes(pnodes: dict[str, ad.Node], x: ad.Node) -> ad.Node:
    h1 = ad.tanh(ad.add(ad.matmul(x, pnodes["w1"]), pnodes["b1"]))
    h2 = ad.tanh(ad.add(ad.matmul(h1, pnodes["w2"]), pnodes["b2"]))
    z = ad.add(ad.matmul(h2, pnodes["w3"]), pnodes["b3"])
    return ad.l2_normalize_rows(z)


def similarity_matrix_node(rows: ad.Node, cols: ad.Node, tau: float) -> ad.Node:
    return ad.row_softmax(ad.matmul(rows, ad.transpose(cols)), tau)


def _neg_mean_log_diag(m: ad.Node) -> ad.Node:
    n = m.value.shape[0]
    mask = ad.constant(np.eye(n))
    return ad.scale(ad.sum_all(ad.mul_elementwise(ad.log(m), mask)), -1.0 / n)


def info_nce_pair_node(a: ad.Node, b: ad.Node, tau: float) -> ad.Node:
    """(1/N) sum_i [-log M_ab[i,i] - log M_ba[i,i]]."""
    loss_ab = _neg_mean_log_diag(similarity_matrix_node(a, b, tau))
    loss_ba = _neg_mean_log_diag(similarity_matrix_node(b, a, tau))
    return ad.add(loss_ab, loss_ba)


def weak_kl_loss_node(a: ad.Node, v_weak: ad.Node, t: np.ndarray, tau: float,
                      full_rows: bool = False) -> ad.Node:
    """Diagonal form (1/N) sum_i -M_tv[i,i] * log M_av[i,i], or with
    ``full_rows`` the row-wise KL(teacher row || student row); ``t`` is
    plain data."""
    n = a.value.shape[0]
    m_tv = similarity_matrix_node(ad.constant(t), v_weak, tau).value
    m_av = similarity_matrix_node(a, v_weak, tau)
    if full_rows:
        entropy = float((m_tv * np.log(m_tv)).sum()) / n
        cross = ad.scale(ad.sum_all(ad.mul_elementwise(
            ad.constant(m_tv), ad.log(m_av))), -1.0 / n)
        return ad.add(cross, ad.constant(entropy))
    target_diag = np.diag(np.diag(m_tv))
    return ad.scale(ad.sum_all(ad.mul_elementwise(
        ad.constant(target_diag), ad.log(m_av))), -1.0 / n)


def total_loss_node(a: ad.Node, a_aug: ad.Node, t: np.ndarray, v: np.ndarray,
                    config: RunConfig) -> tuple[ad.Node, LossBreakdown]:
    """Graph plus float breakdown of the main batch's three terms under
    ``config``'s tau and ``use_loss_at``/``_av``/``_self`` flags; ``t`` and
    ``v`` enter as constants. The weak term has its own batch, so
    ``graph_audio_step`` adds it."""
    tau = config.tau
    zero = ad.constant(0.0)
    l_at = (info_nce_pair_node(a, ad.constant(t), tau)
            if config.use_loss_at else zero)
    l_av = (info_nce_pair_node(a, ad.constant(v), tau)
            if config.use_loss_av else zero)
    l_self = info_nce_pair_node(a, a_aug, tau) if config.use_loss_self else zero
    total = ad.add(ad.add(l_at, l_av), l_self)
    breakdown = LossBreakdown(float(l_at.value), float(l_av.value),
                              float(l_self.value), 0.0, float(total.value))
    return total, breakdown


def graph_teacher_step(text_p: EncoderParams, image_p: EncoderParams,
                       bags: np.ndarray, images: np.ndarray, tau: float):
    """`encoders.teacher_step` as one graph and one backward."""
    tn = encoder_param_nodes(text_p)
    vn = encoder_param_nodes(image_p)
    t = encode_nodes(tn, ad.constant(bags))
    v = encode_nodes(vn, ad.constant(images))
    loss = info_nce_pair_node(t, v, tau)
    ad.backward(loss)
    return (float(loss.value), {k: nd.grad for k, nd in tn.items()},
            {k: nd.grad for k, nd in vn.items()})


def graph_audio_step(params: EncoderParams, x: np.ndarray, x_aug: np.ndarray,
                     t: np.ndarray, v: np.ndarray, weak: tuple | None,
                     config: RunConfig):
    """`encoders.audio_step` as one graph and one backward: the main
    batch's three terms, plus the weak term on its own batch."""
    an = encoder_param_nodes(params)
    a = encode_nodes(an, ad.constant(x))
    a_aug = encode_nodes(an, ad.constant(x_aug))
    loss, br = total_loss_node(a, a_aug, t, v, config)
    kl_val = 0.0
    if config.use_loss_kl and weak is not None:
        x_weak, v_weak, t_weak = weak
        a2 = encode_nodes(an, ad.constant(x_weak))
        kl = weak_kl_loss_node(a2, ad.constant(v_weak), t_weak, config.tau,
                               config.kl_full_rows)
        loss = ad.add(loss, kl)
        kl_val = float(kl.value)
    ad.backward(loss)
    return (LossBreakdown(br.nce_at, br.nce_av, br.self_aa, kl_val,
                          br.total + kl_val),
            {k: nd.grad for k, nd in an.items()})


def diag_cross_entropy_term(teacher_p: float, student_q: float) -> float:
    """One diagonal's contribution to the weak loss: -p * log(q)."""
    if not (0.0 < student_q <= 1.0) or not (0.0 <= teacher_p <= 1.0):
        raise UsageError("diagonal probabilities must lie in (0, 1]")
    return -teacher_p * float(np.log(student_q))


# ---------------------------------------------------------------------------
# manipulation


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
                   target: np.ndarray, d_src: float, config: RunConfig,
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
                          config: RunConfig, models: ModelBundle,
                          ) -> tuple[np.ndarray, np.ndarray, Trajectory]:
    """The descent loop of `manipulate.optimize_guided` for one latent and
    one target, one graph and one `autodiff.backward` per step; the
    trajectory has the B = 1 shapes."""
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
    hinges, regs, idents, totals = np.empty((4, config.manip_steps, 1))
    logits = np.empty((config.manip_steps, 1, gen.layers))
    for step in range(config.manip_steps):
        w_node = ad.leaf(w)
        g_node = ad.leaf(g[None, :]) if config.adaptive_masking else None
        total, hinge_v, reg_v, id_v = objective_node(
            w_node, g_node, w_s, target, d_src, config, models, source_identity)
        if not np.isfinite(total.value):
            raise NumericsError(f"objective became non-finite at step {step}")
        hinges[step], regs[step], idents[step] = hinge_v, reg_v, id_v
        totals[step], logits[step] = float(total.value), g
        ad.backward(total)
        w = w - config.manip_step_size * w_node.grad
        if g_node is not None:
            g = g - config.manip_step_size * g_node.grad[0]
    return w, g, Trajectory(hinges, regs, idents, totals, logits)


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
    config = RunConfig(identity_enabled=False)
    d, _ = source_reference(np.stack([w_s, w_a]), np.stack([a, a]), config,
                            models)
    return hinge_from_distances(float(d[0, 0, 0]), float(d[1, 0, 0]))


def masked_regularization(w_a: np.ndarray, w_s: np.ndarray,
                          gate_logits: np.ndarray,
                          adaptive: bool = True) -> float:
    delta = np.asarray(w_a, float) - np.asarray(w_s, float)
    if not adaptive:
        return float(np.linalg.norm(delta))
    norms = np.linalg.norm(delta, axis=1)
    return float(gate_softmax(np.asarray(gate_logits, float)) @ norms / len(norms))


def identity_features(extractor: IdentityExtractor,
                      image: np.ndarray) -> np.ndarray:
    """Unit identity features of one image."""
    return _identity_node(extractor, ad.constant(image[None, :])).value[0]


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
