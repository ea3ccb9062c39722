"""The four training losses, each a numpy function that returns the term's
value and the gradients of its inputs.

All matrices are temperature-scaled row softmaxes of cosine scores between
unit-norm embeddings: entry (i, j) = exp(r_i . c_j / tau) / sum_k exp(r_i . c_k / tau).
The four components:

  nce_at   symmetric InfoNCE over audio/text pairs
  nce_av   symmetric InfoNCE over audio/image pairs from the same video
  self_aa  the same form over audio and its augmented view
  kl_weak  diagonal cross-entropy pulling the audio-to-resampled-image
           similarity toward the frozen teacher's text-to-image similarity

The weak term implements the literal diagonal form -p_ii * log q_ii; a full
row-wise KL variant is available behind a flag for experiments.

Forward and backward repeat the numpy expressions of the autodiff graph
kept as the oracle in tests/graph_reference.py, so values and gradients
match it bit for bit. A gradient comes as the tuple of its parts in the
order the graph's backward pass adds them: ``sum(parts, 0.0)`` adds them
the same way, onto zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError, UsageError


@dataclass(frozen=True)
class LossBreakdown:
    nce_at: float
    nce_av: float
    self_aa: float
    kl_weak: float
    total: float


def _check_pair(a: np.ndarray, b: np.ndarray, min_n: int = 2) -> int:
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise UsageError(f"embedding sets must share shape, got {a.shape} {b.shape}")
    n = a.shape[0]
    if n < min_n:
        raise UsageError(f"need at least {min_n} pairs, got {n}")
    return n


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-subtracted: of one row or a stack."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def similarity(rows: np.ndarray, cols: np.ndarray, tau: float) -> np.ndarray:
    """The (n, n) row softmax of rows @ cols.T / tau."""
    _check_pair(rows, cols, min_n=1)
    if tau <= 0.0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    return softmax((rows @ np.ascontiguousarray(cols.T)) / tau)


def _cross_entropy(rows: np.ndarray, cols: np.ndarray, target: np.ndarray,
                   tau: float) -> tuple[float, np.ndarray, np.ndarray]:
    """-(1/n) sum_ij target_ij log M_ij for M = similarity(rows, cols), and
    its gradients to rows and to cols."""
    m = similarity(rows, cols, tau)
    if np.any(m <= 0.0):
        raise DegenerateInputError("log requires strictly positive input")
    c = -1.0 / rows.shape[0]
    value = (np.log(m) * target).sum() * c
    g_m = c * target / m
    dot = (g_m * m).sum(axis=1, keepdims=True)
    # each "0.0 +" is the graph's accumulation onto zeros, which turns an
    # underflowed -0.0 into +0.0
    g_s = 0.0 + m * (g_m - dot) / tau
    return (float(value), g_s @ np.ascontiguousarray(cols.T).T,
            np.ascontiguousarray((0.0 + rows.T @ g_s).T))


def info_nce(a: np.ndarray, b: np.ndarray, tau: float,
             ) -> tuple[float, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """(1/N) sum_i [-log M_ab[i,i] - log M_ba[i,i]], and the gradient parts
    for a and for b, the b-to-a direction's first."""
    n = _check_pair(a, b)
    l_ab, g_a1, g_b1 = _cross_entropy(a, b, np.eye(n), tau)
    l_ba, g_b2, g_a2 = _cross_entropy(b, a, np.eye(n), tau)
    return l_ab + l_ba, (g_a2, g_a1), (g_b2, g_b1)


def weak_kl(a: np.ndarray, v_weak: np.ndarray, t: np.ndarray,
            tau: float, full_rows: bool) -> tuple[float, tuple[np.ndarray]]:
    """Distillation toward the teacher's text-to-weak-image similarity, and
    the gradient parts for ``a``.

    ``t`` and ``v_weak`` come from the frozen teacher and get no gradient.
    Without ``full_rows`` it is the diagonal form (1/N) sum_i -M_tv[i,i] *
    log M_av[i,i]; with it, the row-wise KL(teacher row || student row).
    """
    n = _check_pair(a, v_weak)
    if np.shape(t) != a.shape:
        raise UsageError("teacher text embeddings must match shape")
    m_tv = similarity(np.asarray(t), v_weak, tau)
    target = m_tv if full_rows else np.diag(np.diag(m_tv))
    value, g_a, _ = _cross_entropy(a, v_weak, target, tau)
    if full_rows:  # sum_ij p_ij (log p_ij - log q_ij) / N
        value = value + float((m_tv * np.log(m_tv)).sum()) / n
    return value, (g_a,)
