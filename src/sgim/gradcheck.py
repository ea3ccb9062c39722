"""Finite-difference verification of every differentiable operation and of
the composite losses, and of the hand-derived gradient of the manipulation
objective: with respect to the latent, with respect to the gate logits, and
with adaptive masking off (the plain-norm regularizer).

Each check evaluates the analytic gradient against central differences at
10 seeded points and reports the worst relative error. The gate is 1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import losses
from .encoders import init_encoder_params
from .generator import init_generator
from .manipulate import (ManipConfig, ModelBundle, init_identity_extractor,
                         objective_and_grad, source_reference)

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


def _composite_checks(rng: np.random.Generator) -> list[tuple[str, Callable, tuple, str]]:
    t = _unit_rows(rng, 4, 8)
    v = _unit_rows(rng, 4, 8)
    vw = _unit_rows(rng, 4, 8)
    aug = _unit_rows(rng, 4, 8)
    tau = 0.3

    def nce_at(x):
        return losses.info_nce_pair_node(ad.l2_normalize_rows(x),
                                         ad.constant(t), tau)

    def nce_av(x):
        return losses.info_nce_pair_node(ad.l2_normalize_rows(x),
                                         ad.constant(v), tau)

    def self_loss(x):
        return losses.info_nce_pair_node(ad.l2_normalize_rows(x),
                                         ad.constant(aug), tau)

    def weak_kl(x):
        return losses.weak_kl_loss_node(ad.l2_normalize_rows(x),
                                        ad.constant(vw), t, tau)

    return [("info_nce_audio_text", nce_at, (4, 8), ""),
            ("info_nce_audio_visual", nce_av, (4, 8), ""),
            ("self_supervised", self_loss, (4, 8), ""),
            ("weak_kl", weak_kl, (4, 8), "")]


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
    config = ManipConfig(lambda_reg=0.05, lambda_id=0.05)
    models = ModelBundle(gen, image_params, image_params, image_params, identity)
    d_src, src_id = source_reference(w_s, target, config, models)
    # the gate check needs a drifted latent; reversing the layers of w_s
    # gives one without another draw
    w_gate = w_s[::-1].copy()

    def objective(w, g, cfg=config):
        return objective_and_grad(w, g, w_s, target, d_src, cfg, models, src_id)

    def check(f, grad_index):
        """x -> error of output ``grad_index`` of ``f(x)`` against central
        differences of its total (output 0)."""
        return lambda x: ad.max_rel_error(f(x)[grad_index],
                                          lambda y: f(y)[0], x)

    plain = replace(config, adaptive_masking=False)
    return [("manipulation_objective", check(lambda w: objective(w, gate), 4),
             (8, 32), ""),
            ("manipulation_gate", check(lambda g: objective(w_gate, g), 5),
             (8,), ""),
            ("manipulation_plain_reg",
             check(lambda w: objective(w, gate, plain), 4), (8, 32), "")]


def _sample(rng: np.random.Generator, shape, domain: str) -> np.ndarray:
    x = rng.standard_normal(shape)
    if domain == "positive":
        return np.exp(x)
    if domain == "off_kink":
        return np.where(np.abs(x) < 0.2, x + 0.5, x)
    return x


def run_gradient_checks(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    # graph checks map a leaf Node to a scalar Node; each manipulation
    # check maps a point to its gradient's error
    checks = [(name, lambda x, fn=fn: ad.finite_difference_check(fn, x),
               shape, domain)
              for name, fn, shape, domain
              in _primitive_checks(rng) + _composite_checks(rng)]
    checks += _manipulation_checks(rng)
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
