"""The four training losses, each a numpy function that returns the term's
value and the gradients of its inputs:

  nce_at   symmetric InfoNCE over audio/text pairs
  nce_av   symmetric InfoNCE over audio/image pairs from the same video
  self_aa  the same form over audio and its augmented view
  kl_weak  diagonal cross-entropy pulling the audio-to-resampled-image
           similarity toward the frozen teacher's text-to-image similarity

Each is a cross-entropy on one logits matrix z = r @ c.T / tau, taken by
log-sum-exp (log softmax(z)_ij = z_ij - lse_i), so no softmax entry is
logged and a value is finite wherever the maths is. Values and gradients
repeat the numpy expressions of the graph oracle in
tests/graph_reference.py, so they match it bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ParameterError, UsageError


class LossBreakdown(NamedTuple):
    nce_at: float
    nce_av: float
    self_aa: float
    kl_weak: float
    total: float


def _check(a: np.ndarray, b: np.ndarray, tau: float, min_n: int = 2) -> int:
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise UsageError(f"embedding sets must share shape, got {a.shape} {b.shape}")
    if len(a) < min_n:
        raise UsageError(f"need at least {min_n} pairs, got {len(a)}")
    if tau <= 0.0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    return len(a)


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-subtracted: of one row or a stack."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_sum_exp(z: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """log sum exp(z) along ``axis``, kept as a length-1 axis, and the
    softmax along it, both max-subtracted."""
    m = z.max(axis=axis, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=axis, keepdims=True)
    return m + np.log(s), e / s


def similarity(rows: np.ndarray, cols: np.ndarray, tau: float) -> np.ndarray:
    """The (n, n) row softmax of rows @ cols.T / tau, as ``weak_kl`` takes
    its teacher target."""
    _check(rows, cols, tau, min_n=1)
    return softmax((rows @ np.ascontiguousarray(cols.T)) * (1.0 / tau))


def info_nce(a: np.ndarray, b: np.ndarray, tau: float, grad_b: bool = True,
             ) -> tuple[float, np.ndarray, np.ndarray | None]:
    """(1/N) sum_i [-log M_ab[i,i] - log M_ba[i,i]], as (sum lse_row + sum
    lse_col - 2 tr z) / N, and its gradients to a and to b (None without
    ``grad_b``, for a frozen b), by the gradient (P_row + P_col - 2I) / N to
    z, P_row and P_col z's two softmaxes."""
    n = _check(a, b, tau)
    inv, c = 1.0 / tau, 1.0 / n
    b_t = np.ascontiguousarray(b.T)
    z = (a @ b_t) * inv
    lse_r, p_r = log_sum_exp(z, 1)
    lse_c, p_c = log_sum_exp(z, 0)
    value = ((lse_r.sum() + lse_c.sum()) - np.trace(z) * 2.0) * c
    g = p_c * c
    g.flat[::n + 1] -= 2.0 * c
    g += p_r * c
    g *= inv
    if not grad_b:
        return float(value), g @ b_t.T, None
    return float(value), g @ b_t.T, np.ascontiguousarray((a.T @ g).T)


def weak_kl(a: np.ndarray, v_weak: np.ndarray, t: np.ndarray,
            tau: float, full_rows: bool) -> tuple[float, np.ndarray]:
    """(1/N) sum_i -Q[i,i] log M[i,i], or with ``full_rows`` the row-wise
    KL(Q || M), whose gradient to z is (M - Q) / N, for the frozen teacher's
    similarity Q of ``t`` to ``v_weak`` (neither gets a gradient) and the
    student's M of ``a`` to ``v_weak``; and its gradient to ``a``."""
    n = _check(a, v_weak, tau)
    if np.shape(t) != a.shape:
        raise UsageError("teacher text embeddings must match shape")
    inv, c = 1.0 / tau, 1.0 / n
    v_t = np.ascontiguousarray(v_weak.T)
    z_t = (np.asarray(t) @ v_t) * inv
    lse_t, q = log_sum_exp(z_t, 1)
    z = (a @ v_t) * inv
    lse, p = log_sum_exp(z, 1)
    if full_rows:  # sum_ij q_ij ((z_t - lse_t)_ij - (z - lse)_ij) / N
        value = (lse.sum() - (q * z).sum()) * c + (q * (z_t - lse_t)).sum() * c
        g = p * c - q * c
    else:
        q_ii = np.diagonal(q)[:, None]
        value = (q_ii * (np.diagonal(z)[:, None] - lse)).sum() * -c
        g = q_ii * c * p
        g.flat[::n + 1] -= np.diagonal(q) * c
    return float(value), (g * inv) @ v_t.T
