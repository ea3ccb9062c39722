"""Finite-difference verification of every autodiff primitive and of the
hand-derived gradients the pipeline runs: each training loss term (the
three InfoNCE terms, the self term on both of its inputs, and the weak term
in its diagonal and full-row forms), the encoder backward for each
parameter array, and the manipulation objective with respect to the
latent, to the gate logits, with adaptive masking off (the plain-norm
regularizer), and over a batch of two latents with their own targets.

Each check evaluates the analytic gradient against central differences at
10 seeded points and reports the worst relative error. The gate is 1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import autodiff as ad
from .config import RunConfig
from .encoders import PARAM_KEYS, encode_vjp, init_encoder_params
from .generator import init_generator
from .losses import info_nce, weak_kl
from .manipulate import (ModelBundle, bind_step, init_identity_extractor,
                         source_reference)

TOLERANCE = 1e-4
POINTS = 10


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _primitive_checks(rng: np.random.Generator) -> list[tuple[str, Callable, tuple, str]]:
    c1 = rng.standard_normal((3, 4))
    c2 = rng.standard_normal((4, 3))
    c3 = rng.standard_normal((6, 4))
    c4 = rng.standard_normal((4, 2))
    return [
        ("add", lambda x: ad.sum_all(ad.add(x, ad.constant(c1))), (3, 4), ""),
        ("sub", lambda x: ad.sum_all(ad.mul_elementwise(
            ad.sub(x, ad.constant(c1)), ad.sub(x, ad.constant(c1)))), (3, 4), ""),
        ("mul_elementwise", lambda x: ad.sum_all(
            ad.mul_elementwise(x, ad.constant(c1))), (3, 4), ""),
        ("scale", lambda x: ad.sum_all(ad.scale(x, -2.5)), (3, 4), ""),
        ("exp", lambda x: ad.sum_all(ad.exp(x)), (3, 4), ""),
        ("log", lambda x: ad.sum_all(ad.log(x)), (3, 4), "positive"),
        ("sqrt", lambda x: ad.sum_all(ad.sqrt(x)), (3, 4), "positive"),
        ("tanh", lambda x: ad.sum_all(ad.tanh(x)), (3, 4), ""),
        ("max_with_zero", lambda x: ad.sum_all(ad.max_with_zero(x)),
         (3, 4), "off_kink"),
        ("sum", lambda x: ad.sum_all(ad.mul_elementwise(x, x)), (3, 4), ""),
        ("mean", lambda x: ad.mean_all(ad.mul_elementwise(x, x)), (3, 4), ""),
        ("transpose", lambda x: ad.sum_all(ad.mul_elementwise(
            ad.transpose(x), ad.constant(c2))), (3, 4), ""),
        ("slice_rows", lambda x: ad.sum_all(ad.mul_elementwise(
            ad.slice_rows(x, 1, 3), ad.slice_rows(x, 1, 3))), (3, 4), ""),
        ("concat_rows", lambda x: ad.sum_all(ad.mul_elementwise(
            ad.concat_rows([x, x]), ad.constant(c3))), (3, 4), ""),
        ("matmul", lambda x: ad.sum_all(ad.matmul(x, ad.constant(c4))), (3, 4), ""),
        ("row_l2_norm", lambda x: ad.sum_all(ad.row_l2_norm(x)), (3, 4), "off_kink"),
        ("l2_normalize_rows", lambda x: ad.sum_all(ad.mul_elementwise(
            ad.l2_normalize_rows(x), ad.constant(c1))), (3, 4), "off_kink"),
        ("row_softmax", lambda x: ad.sum_all(ad.mul_elementwise(
            ad.row_softmax(x, 0.7), ad.constant(c1))), (3, 4), ""),
    ]


def _fd(f: Callable, grad_index: int = 1) -> Callable:
    """x -> error of output ``grad_index`` of ``f(x)``, a gradient, against
    central differences of output 0, the value."""
    return lambda x: ad.max_rel_error(f(x)[grad_index], lambda y: f(y)[0], x)


def _loss_checks(rng: np.random.Generator) -> list[tuple[str, Callable, tuple, str]]:
    t, v, vw, aug = (_unit_rows(rng, 4, 8) for _ in range(4))
    tau = 0.3
    terms = {  # name -> x -> (value, gradient parts for x)
        "info_nce_audio_text": lambda a: info_nce(a, t, tau)[:2],
        "info_nce_audio_visual": lambda a: info_nce(a, v, tau)[:2],
        "self_supervised": lambda a: info_nce(a, aug, tau)[:2],
        "self_supervised_augmented": lambda a_aug: info_nce(aug, a_aug, tau)[::2],
        "weak_kl": lambda a: weak_kl(a, vw, t, tau),
        "weak_kl_full_rows": lambda a: weak_kl(a, vw, t, tau, True),
    }

    def summed(term):
        value, parts = term
        return value, sum(parts, 0.0)

    return [(name, _fd(lambda x, f=f: summed(f(x))), (4, 8), "unit_rows")
            for name, f in terms.items()]


def _encoder_checks(rng: np.random.Generator) -> list[tuple[str, Callable, tuple, str]]:
    """The encoder backward for each parameter array, through the scalar
    sum(probe * embeddings)."""
    params = init_encoder_params(rng, 6, 5, 4)
    x, probe = rng.standard_normal((3, 6)), rng.standard_normal((3, 4))

    def wrt(key):
        def f(p):
            y, vjp = encode_vjp(replace(params, **{key: p}), x)
            return float((y * probe).sum()), vjp(probe)[key]
        return f

    return [(f"encoder_{k}", _fd(wrt(k)), getattr(params, k).shape, "")
            for k in PARAM_KEYS]


def _manipulation_checks(rng: np.random.Generator,
                         ) -> list[tuple[str, Callable, tuple, str]]:
    gen = replace(init_generator(rng, side=8, latent_dim=32),
                  bias=0.1 * rng.standard_normal(64))
    image_params = init_encoder_params(rng, 64, 32, 16)
    identity = init_identity_extractor(rng, pixels=64, hidden=16, out_dim=8)
    target = rng.standard_normal(16)
    target /= np.linalg.norm(target)
    w_s = rng.standard_normal((8, 32))
    gate = rng.standard_normal(8)
    config = RunConfig(lambda_reg=0.05, lambda_id=0.05)
    models = ModelBundle(gen, image_params, image_params, image_params, identity)
    # row 1's source, target and gate are row 0's reversed, so no new draw;
    # its source is also the drifted latent the gate check needs
    sources = np.stack([w_s, w_s[::-1]])
    targets = np.stack([target, target[::-1]])
    gates = np.stack([gate, gate[::-1]])
    d_src, src_id = source_reference(sources, targets, config, models)

    def objective(rows, cfg=config):
        # one step bound per (rows, config), reused by every evaluation; the
        # rows are independent, so the sum's gradient is each row's
        step = bind_step(sources[rows], targets[rows], cfg, models,
                         (d_src[rows], src_id[rows]))

        def f(w, g):
            total, _, _, _, grad_w, grad_g = step(
                w.reshape(-1, *w_s.shape), g.reshape(-1, len(gate)))
            return total.sum(), grad_w.reshape(w.shape), grad_g.reshape(g.shape)
        return f

    one, both = objective(slice(0, 1)), objective(slice(None))
    plain = objective(slice(0, 1), replace(config, adaptive_masking=False))
    return [("manipulation_objective", _fd(lambda w: one(w, gate)),
             (8, 32), ""),
            ("manipulation_gate", _fd(lambda g: one(sources[1], g), 2),
             (8,), ""),
            ("manipulation_plain_reg", _fd(lambda w: plain(w, gate)),
             (8, 32), ""),
            ("manipulation_batch", _fd(lambda w: both(w, gates)),
             (2, 8, 32), "")]


def _sample(rng: np.random.Generator, shape, domain: str) -> np.ndarray:
    x = rng.standard_normal(shape)
    if domain == "positive":
        return np.exp(x)
    if domain == "off_kink":
        return np.where(np.abs(x) < 0.2, x + 0.5, x)
    if domain == "unit_rows":
        return x / np.linalg.norm(x, axis=1, keepdims=True)
    return x


def run_gradient_checks(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    # primitive checks map a leaf Node to a scalar Node; every other check
    # maps a point to its gradient's error
    checks = [(name, lambda x, fn=fn: ad.finite_difference_check(fn, x),
               shape, domain)
              for name, fn, shape, domain in _primitive_checks(rng)]
    checks += (_loss_checks(rng) + _encoder_checks(rng)
               + _manipulation_checks(rng))
    results = []
    for name, error_at, shape, domain in checks:
        worst = 0.0
        for _ in range(POINTS):
            x = _sample(rng, shape, domain)
            worst = max(worst, error_at(x))
        results.append(CheckResult(name, worst))
    return results


def format_results(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        lines.append(f"{status} {r.name:<{width}} max_rel_err={r.max_rel_error:.3e}")
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks "
                 f"within {TOLERANCE}")
    return "\n".join(lines) + "\n"
