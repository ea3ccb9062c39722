"""The encoders, the training losses and the manipulation objective built
as autodiff graphs: the reference oracle for the hand-derived numpy
forward and backward passes in `sgim.encoders`, `sgim.losses` and
`sgim.manipulate`.

`encode_nodes` is the encoder graph, `info_nce_pair_node`,
`weak_kl_loss_node` and `total_loss_node` the loss graphs, and
`graph_teacher_step` / `graph_audio_step` one training step each, built
from them with one `autodiff.backward`; they take the arguments of
`encoders.teacher_step` / `encoders.audio_step` and must return the same
values and gradients bit for bit. The loss graphs take cross-entropies on
a logits node (`logits_node`) through two ops this module adds to
`sgim.autodiff`'s: `log_sum_exp_node` along either axis and
`diagonal_node`.

`synthesize_node` builds the generator from `sgim.autodiff` ops.
`objective_node` builds the manipulation objective of a stack of latents
from the same products the step takes: the generator folded into the
encoders' first layer (`folded_first_layer`), plain 2-D products, and
backward products by bound C-contiguous transposes (`_matmul_bound`).
`graph_objective_and_grad` runs one graph and one `autodiff.backward`, and
`graph_optimize_guided` the descent loop on it, with the source terms from
its own graph. `objective_and_grad`, one step of `manipulate.bind_step`,
must reproduce their values and gradients bit for bit; like
`optimize_guided`, all three run a one-row stack as two copies of its
row.

`max_rel_error_loop` is gradcheck's metric taken one coordinate at a
time, the oracle of `gradcheck.max_rel_error`'s stacked evaluation, and
`finite_difference_check` scores a graph's gradient with it.

The float helpers at the end (`hinge_loss`, `hinge_from_distances`,
`masked_regularization`, `identity_features`, `identity_loss`,
`moving_average`) give each objective term, or the smoothed total, for a
given latent.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from sgim import autodiff as ad
from sgim.config import RunConfig
from sgim.encoders import PARAM_KEYS, EncoderParams
from sgim.errors import DimensionError, NumericsError, UsageError
from sgim.generator import GeneratorParams, gemm_rows, synthesize
from sgim.losses import LossBreakdown, softmax
from sgim.manipulate import (IdentityExtractor, ModelBundle, Trajectory,
                             bind_step)


def max_rel_error_loop(analytic: np.ndarray, f: Callable[[np.ndarray], float],
                       x, eps: float = 1e-5) -> float:
    """`gradcheck.max_rel_error` of the scalar function ``f``, one
    coordinate at a time: the oracle of its stacked evaluation.

    Relative error per coordinate is |analytic - central| / (|central| + 1e-8).
    """
    x = np.asarray(x, dtype=np.float64)
    numeric = np.zeros_like(x)
    flat_num = numeric.reshape(-1)
    flat = x.reshape(-1)
    for i in range(flat.size):
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += eps
        xm[i] -= eps
        fp = f(xp.reshape(x.shape))
        fm = f(xm.reshape(x.shape))
        flat_num[i] = (fp - fm) / (2.0 * eps)
    rel = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)
    return float(rel.max()) if rel.size else 0.0


def finite_difference_check(f: Callable[[ad.Node], ad.Node], x,
                            eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a leaf Node to a scalar Node. Caller keeps eps in (0, 1e-3]
    and x away from kinks of f.
    """
    x = ad.array(x)
    lf = ad.leaf(x)
    ad.backward(f(lf))
    return max_rel_error_loop(lf.grad, lambda y: f(ad.leaf(y)).value, x, eps)


# ---------------------------------------------------------------------------
# encoders and training losses


def encoder_param_nodes(params: EncoderParams) -> dict[str, ad.Node]:
    return {k: ad.leaf(getattr(params, k)) for k in PARAM_KEYS}


def encode_nodes(pnodes: dict[str, ad.Node], x: ad.Node) -> ad.Node:
    h1 = ad.tanh(ad.add(ad.matmul(x, pnodes["w1"]), pnodes["b1"]))
    h2 = ad.tanh(ad.add(ad.matmul(h1, pnodes["w2"]), pnodes["b2"]))
    z = ad.add(ad.matmul(h2, pnodes["w3"]), pnodes["b3"])
    return ad.l2_normalize_rows(z)


def _log_sum_exp_parts(z: np.ndarray, axis: int) -> tuple:
    m = z.max(axis=axis, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=axis, keepdims=True)
    return m + np.log(s), e / s


def log_sum_exp_node(z: ad.Node, axis: int) -> ad.Node:
    """log sum exp(z) along ``axis``, kept as a length-1 axis; its vjp
    scales the softmax along ``axis`` by the incoming gradient."""
    value, p = _log_sum_exp_parts(z.value, axis)
    return ad.Node(value, "log_sum_exp", (z,), lambda g: (g * p,))


def diagonal_node(z: ad.Node) -> ad.Node:
    """The diagonal of a square z as an (n, 1) column."""
    n = z.value.shape[0]

    def vjp(g):
        full = np.zeros_like(z.value)
        full[np.arange(n), np.arange(n)] = g[:, 0]
        return (full,)

    return ad.Node(np.diagonal(z.value)[:, None], "diagonal", (z,), vjp)


def logits_node(rows: ad.Node, cols: ad.Node, tau: float) -> ad.Node:
    """rows @ cols.T / tau, as a product by 1 / tau."""
    return ad.scale(ad.matmul(rows, ad.transpose(cols)), 1.0 / tau)


def info_nce_pair_node(a: ad.Node, b: ad.Node, tau: float) -> ad.Node:
    """(1/N) [sum_i lse_row_i(z) + sum_j lse_col_j(z) - 2 tr z] for
    z = a @ b.T / tau: (1/N) sum_i [-log M_ab[i,i] - log M_ba[i,i]]."""
    z = logits_node(a, b, tau)
    lse = ad.add(ad.sum_all(log_sum_exp_node(z, 1)),
                 ad.sum_all(log_sum_exp_node(z, 0)))
    trace = ad.scale(ad.sum_all(diagonal_node(z)), 2.0)
    return ad.scale(ad.sub(lse, trace), 1.0 / z.value.shape[0])


def weak_kl_loss_node(a: ad.Node, v_weak: ad.Node, t: np.ndarray, tau: float,
                      full_rows: bool = False) -> ad.Node:
    """Diagonal form -(1/N) sum_i Q[i,i] (z_ii - lse_i) for the student's
    logits z = a @ v_weak.T / tau and the teacher's row softmax Q, or with
    ``full_rows`` the row-wise KL(teacher row || student row),
    (1/N) [sum_i lse_i - sum_ij Q_ij z_ij] plus the teacher's negative
    entropy from its log-softmax; ``t`` is plain data."""
    n = a.value.shape[0]
    z_t = logits_node(ad.constant(t), v_weak, tau).value
    lse_t, q = _log_sum_exp_parts(z_t, 1)
    z = logits_node(a, v_weak, tau)
    lse = log_sum_exp_node(z, 1)
    if full_rows:
        cross = ad.sub(ad.sum_all(lse),
                       ad.sum_all(ad.mul_elementwise(ad.constant(q), z)))
        entropy = (q * (z_t - lse_t)).sum() * (1.0 / n)
        return ad.add(ad.scale(cross, 1.0 / n), ad.constant(entropy))
    log_m = ad.sub(diagonal_node(z), lse)
    return ad.scale(ad.sum_all(ad.mul_elementwise(
        ad.constant(np.diagonal(q)[:, None]), log_m)), -1.0 / n)


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


# ops the objective graph adds to `sgim.autodiff`'s


def _matmul_bound(a: ad.Node, b: np.ndarray, b_t: np.ndarray) -> ad.Node:
    """a @ b for a constant b, whose backward multiplies by the given
    C-contiguous copy of b.T, as the step does (`autodiff.matmul` multiplies
    by the view b.T, which rounds differently in small products)."""
    return ad.Node(a.value @ b, "matmul_bound", (a,), lambda g: (g @ b_t,))


def _cols(a: ad.Node, start: int, stop: int) -> ad.Node:
    def vjp(g):
        full = np.zeros_like(a.value)
        full[:, start:stop] = g
        return (full,)

    return ad.Node(a.value[:, start:stop], "cols", (a,), vjp)


def _row_sum(a: ad.Node) -> ad.Node:
    return ad.Node(a.value.sum(axis=-1, keepdims=True), "row_sum", (a,),
                   lambda g: (np.broadcast_to(g, a.value.shape).copy(),))


def _reshape(a: ad.Node, shape: tuple) -> ad.Node:
    return ad.Node(a.value.reshape(shape), "reshape", (a,),
                   lambda g: (g.reshape(a.value.shape),))


def folded_first_layer(config: RunConfig, models: ModelBundle) -> tuple:
    """(F, c0, the image encoder's hidden width): the generator folded into
    the first layer of the image encoder and, with the identity term on,
    of the identity extractor, F = A @ [image.w1 | identity.w1] and
    c0 = bias @ [image.w1 | identity.w1] + [image.b1 | 0]."""
    w1, b1 = models.image.w1, models.image.b1
    hidden = w1.shape[1]
    if config.lambda_id > 0.0:
        id_w1 = models.identity.w1
        w1 = np.hstack([w1, id_w1])
        b1 = np.hstack([b1, np.zeros((1, id_w1.shape[1]))])
    gen = models.generator
    return gen.A @ w1, gen.bias @ w1 + b1, hidden


def _forward_nodes(w: ad.Node, config: RunConfig, models: ModelBundle,
                   ) -> tuple[ad.Node, ad.Node | None]:
    """The image embeddings and the identity features (None with the term
    off) of an (R, layers, latent_dim) stack of latents."""
    rows = w.value.shape[0]
    enc = models.image
    first, c0, hidden = folded_first_layer(config, models)
    h = ad.tanh(ad.add(_matmul_bound(_reshape(w, (rows, -1)), first,
                                     np.ascontiguousarray(first.T)),
                       ad.constant(c0)))
    h2 = ad.tanh(ad.add(_matmul_bound(_cols(h, 0, hidden), enc.w2,
                                      np.ascontiguousarray(enc.w2.T)),
                        ad.constant(enc.b2)))
    v = ad.l2_normalize_rows(ad.add(
        _matmul_bound(h2, enc.w3, np.ascontiguousarray(enc.w3.T)),
        ad.constant(enc.b3)))
    if first.shape[1] == hidden:
        return v, None
    id_w2 = models.identity.w2
    return v, ad.l2_normalize_rows(_matmul_bound(
        _cols(h, hidden, first.shape[1]), id_w2, np.ascontiguousarray(id_w2.T)))


def _distance_node(v: ad.Node, targets: np.ndarray) -> ad.Node:
    """1 - v.t of each row, (R, 1)."""
    ones = ad.constant(np.ones((len(targets), 1)))
    return ad.sub(ones, _row_sum(ad.mul_elementwise(v, ad.constant(targets))))


def objective_node(w: ad.Node, g: ad.Node, w_s: np.ndarray,
                   targets: np.ndarray, d_src: np.ndarray, config: RunConfig,
                   models: ModelBundle, source_identity: np.ndarray | None,
                   ) -> tuple[ad.Node, ad.Node, ad.Node, ad.Node, ad.Node]:
    """The manipulation objective of an (R, layers, latent_dim) stack of
    latents ``w`` and (R, layers) gate logits ``g``, each row toward its
    row of ``targets`` with its source terms d_src (R, 1) and source
    identity (R, features). Returns the sum
    of the rows' totals, to run the backward from, and the (R, 1) total,
    hinge, reg and identity nodes (identity None with the term off)."""
    rows, layers = w_s.shape[0], w_s.shape[1]
    v, feat = _forward_nodes(w, config, models)
    ones = ad.constant(np.ones((rows, 1)))
    hinge = ad.max_with_zero(ad.add(ad.sub(_distance_node(v, targets),
                                           ad.constant(d_src)), ones))
    delta = ad.sub(w, ad.constant(w_s))
    norms = _reshape(ad.row_l2_norm(_reshape(delta, (-1, w_s.shape[2]))),
                     (rows, layers))
    reg = ad.scale(_row_sum(ad.mul_elementwise(ad.row_softmax(g, 1.0),
                                               norms)), 1.0 / layers)
    total = ad.add(hinge, ad.scale(reg, config.lambda_reg))
    ident = None
    if feat is not None:
        d_id = ad.sub(feat, ad.constant(source_identity))
        ident = ad.scale(_row_sum(ad.mul_elementwise(d_id, d_id)), 0.5)
        total = ad.add(total, ad.scale(ident, config.lambda_id))
    return ad.sum_all(total), total, hinge, reg, ident


def graph_objective_and_grad(w: np.ndarray, g: np.ndarray, w_s: np.ndarray,
                             targets: np.ndarray, d_src: np.ndarray,
                             config: RunConfig, models: ModelBundle,
                             source_identity: np.ndarray | None,
                             ) -> tuple[np.ndarray, ...]:
    """What `objective_and_grad` returns, from one `objective_node` graph
    and one `autodiff.backward`: (total, hinge, reg, identity), each (B,),
    then grad_w and grad_g. Like the step, a B = 1 stack runs as two
    copies of its row."""
    batch = len(w)
    w, g, w_s, targets, d_src = (gemm_rows(np.asarray(a, float))
                                 for a in (w, g, w_s, targets, d_src))
    if source_identity is not None:
        source_identity = gemm_rows(source_identity)
    w_node, g_node = ad.leaf(w), ad.leaf(g)
    root, *terms = objective_node(w_node, g_node, w_s, targets, d_src, config,
                                  models, source_identity)
    ad.backward(root)
    values = [np.zeros(batch) if t is None else t.value[:batch, 0]
              for t in terms]
    return (*values, w_node.grad[:batch], g_node.grad[:batch])


def objective_and_grad(w: np.ndarray, g: np.ndarray, w_s: np.ndarray,
                       targets: np.ndarray, d_src: np.ndarray,
                       config: RunConfig, models: ModelBundle,
                       source_identity: np.ndarray | None,
                       ) -> tuple[np.ndarray, ...]:
    """One step of `manipulate.bind_step` at latents ``w`` (B, layers,
    latent_dim) and gate logits ``g`` (B, layers), bound with the given
    source terms: (total, hinge, reg, identity), each (B,), then grad_w and
    grad_g. Like `optimize_guided`, a B = 1 stack runs as two copies of its
    row."""
    w = np.asarray(models.generator.check_latent(w), order="C")
    if w.shape != np.shape(w_s):
        raise DimensionError(f"latents {w.shape} do not pair with sources "
                             f"{np.shape(w_s)}")
    batch = len(w)
    w, g, w_s, targets, d_src = (
        gemm_rows(np.asarray(a, dtype=np.float64, order="C"))
        for a in (w, g, w_s, targets, d_src))
    if source_identity is not None:
        source_identity = gemm_rows(source_identity)
    step = bind_step(w_s, targets, config, models, (d_src, source_identity))
    return tuple(out[:batch] for out in step(w, g))


def graph_source_reference(w_s: np.ndarray, targets: np.ndarray,
                           config: RunConfig, models: ModelBundle) -> tuple:
    """(d_src (B, 1), source identity (B, features) or None) from the
    objective graph's forward at the sources."""
    batch = len(w_s)
    w_s, targets = gemm_rows(w_s), gemm_rows(targets)
    v, feat = _forward_nodes(ad.leaf(w_s), config, models)
    d_src = _distance_node(v, targets).value[:batch]
    return d_src, None if feat is None else feat.value[:batch]


def graph_optimize_guided(w_s: np.ndarray, targets: np.ndarray,
                          config: RunConfig, models: ModelBundle,
                          ) -> tuple[np.ndarray, np.ndarray, Trajectory]:
    """The descent loop of `manipulate.optimize_guided` over a (B, layers,
    latent_dim) stack, one graph and one `autodiff.backward` per step, with
    the source terms from its own graph."""
    gen = models.generator
    w_s = gen.check_latent(w_s)
    batch = len(w_s)
    d_src, source_identity = graph_source_reference(w_s, targets, config,
                                                    models)
    w = w_s.copy()
    g = np.zeros((batch, gen.layers))
    steps = config.manip_steps
    hinges, regs, idents, totals = np.empty((4, steps, batch))
    logits = np.empty((steps, batch, gen.layers))
    for step in range(steps):
        total, hinge, reg, ident, grad_w, grad_g = graph_objective_and_grad(
            w, g, w_s, targets, d_src, config, models, source_identity)
        if not np.isfinite(total).all():
            raise NumericsError(f"objective became non-finite at step {step}")
        hinges[step], regs[step], idents[step] = hinge, reg, ident
        totals[step], logits[step] = total, g
        w = w - config.manip_step_size * grad_w
        g = g - config.manip_step_size * grad_g
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
    """Hinge with d_cos(u, v) = 1 - u.v, by the objective's expressions:
    row 1 of a step bound at the source pair [w_s, w_s] and taken at
    [w_s, w_a], bitwise ``hinge_from_distances`` of the two distances."""
    models = ModelBundle(gen, None, None, f_v, None)
    step = bind_step(np.stack([w_s, w_s]), np.stack([a, a]),
                     RunConfig(lambda_id=0.0), models)
    w = np.ascontiguousarray(np.stack([w_s, w_a]), dtype=np.float64)
    return float(step(w, np.zeros(w.shape[:2]))[1][1])


def masked_regularization(w_a: np.ndarray, w_s: np.ndarray,
                          gate_logits: np.ndarray) -> float:
    delta = np.asarray(w_a, float) - np.asarray(w_s, float)
    norms = np.linalg.norm(delta, axis=1)
    return float(softmax(np.asarray(gate_logits, float)) @ norms / len(norms))


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
