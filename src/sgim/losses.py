"""The four training losses and their unweighted sum.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import UsageError

DEFAULT_TEMPERATURE = 0.07


@dataclass(frozen=True)
class SimilarityMatrix:
    values: np.ndarray
    temperature: float

    def __post_init__(self):
        rowsums = self.values.sum(axis=1)
        if np.any(np.abs(rowsums - 1.0) > 1e-9):
            raise UsageError("similarity rows must sum to 1")
        if np.any(self.values <= 0.0) or np.any(self.values >= 1.0):
            raise UsageError("similarity entries must lie in (0, 1)")


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


def similarity_matrix_node(rows: Node, cols: Node, tau: float) -> Node:
    return ad.row_softmax(ad.matmul(rows, ad.transpose(cols)), tau)


def similarity_matrix(rows: np.ndarray, cols: np.ndarray,
                      tau: float = DEFAULT_TEMPERATURE) -> SimilarityMatrix:
    _check_pair(np.asarray(rows), np.asarray(cols), min_n=1)
    node = similarity_matrix_node(ad.constant(rows), ad.constant(cols), tau)
    return SimilarityMatrix(node.value, tau)


def _neg_mean_log_diag(m: Node) -> Node:
    n = m.value.shape[0]
    mask = ad.constant(np.eye(n))
    return ad.scale(ad.sum_all(ad.mul_elementwise(ad.log(m), mask)), -1.0 / n)


def info_nce_pair_node(a: Node, b: Node, tau: float) -> Node:
    """(1/N) sum_i [-log M_ab[i,i] - log M_ba[i,i]]."""
    _check_pair(a.value, b.value)
    loss_ab = _neg_mean_log_diag(similarity_matrix_node(a, b, tau))
    loss_ba = _neg_mean_log_diag(similarity_matrix_node(b, a, tau))
    return ad.add(loss_ab, loss_ba)


def info_nce_pair(a: np.ndarray, b: np.ndarray,
                  tau: float = DEFAULT_TEMPERATURE) -> float:
    return float(info_nce_pair_node(ad.constant(a), ad.constant(b), tau).value)


def diag_cross_entropy_term(teacher_p: float, student_q: float) -> float:
    """One diagonal's contribution to the weak loss: -p * log(q)."""
    if not (0.0 < student_q <= 1.0) or not (0.0 <= teacher_p <= 1.0):
        raise UsageError("diagonal probabilities must lie in (0, 1]")
    return -teacher_p * float(np.log(student_q))


def weak_kl_loss_node(a: Node, v_weak: Node, t: np.ndarray, tau: float,
                      full_rows: bool = False) -> Node:
    """Distillation toward the teacher's text-to-weak-image similarity.

    ``t`` is plain data, never a Node: teacher targets are constants and no
    gradient reaches them. Default is the diagonal form
    (1/N) sum_i -M_tv[i,i] * log M_av[i,i]; ``full_rows`` switches to a
    row-wise KL(teacher row || student row).
    """
    n = _check_pair(a.value, v_weak.value)
    t = np.asarray(t)
    if t.shape != a.value.shape:
        raise UsageError("teacher text embeddings must match shape")
    m_tv = similarity_matrix_node(ad.constant(t), v_weak, tau).value
    m_av = similarity_matrix_node(a, v_weak, tau)
    if full_rows:
        # sum_ij p_ij (log p_ij - log q_ij) / N
        entropy = float((m_tv * np.log(m_tv)).sum()) / n
        cross = ad.scale(ad.sum_all(ad.mul_elementwise(
            ad.constant(m_tv), ad.log(m_av))), -1.0 / n)
        return ad.add(cross, ad.constant(entropy))
    target_diag = np.diag(np.diag(m_tv))
    return ad.scale(ad.sum_all(ad.mul_elementwise(
        ad.constant(target_diag), ad.log(m_av))), -1.0 / n)


def weak_kl_loss(a: np.ndarray, v_weak: np.ndarray, t: np.ndarray,
                 tau: float = DEFAULT_TEMPERATURE, full_rows: bool = False) -> float:
    return float(weak_kl_loss_node(ad.constant(a), ad.constant(v_weak), t, tau,
                                   full_rows).value)


@dataclass(frozen=True)
class LossFlags:
    use_at: bool = True
    use_av: bool = True
    use_self: bool = True
    use_kl: bool = True
    kl_full_rows: bool = False


def total_loss_node(a: Node, a_aug: Node, t: np.ndarray, v: np.ndarray,
                    v_weak: np.ndarray | None, tau: float,
                    flags: LossFlags = LossFlags()) -> tuple[Node, LossBreakdown]:
    """Graph plus float breakdown for one batch.

    ``a``/``a_aug`` are student nodes; ``t``, ``v``, ``v_weak`` come from the
    frozen teacher and enter the graph as constants. ``v_weak`` is only read
    when ``flags.use_kl`` is set.
    """
    zero = ad.constant(0.0)
    l_at = info_nce_pair_node(a, ad.constant(t), tau) if flags.use_at else zero
    l_av = info_nce_pair_node(a, ad.constant(v), tau) if flags.use_av else zero
    l_self = info_nce_pair_node(a, a_aug, tau) if flags.use_self else zero
    l_kl = (weak_kl_loss_node(a, ad.constant(v_weak), t, tau, flags.kl_full_rows)
            if flags.use_kl else zero)
    total = ad.add(ad.add(ad.add(l_at, l_av), l_self), l_kl)
    breakdown = LossBreakdown(float(l_at.value), float(l_av.value),
                              float(l_self.value), float(l_kl.value),
                              float(total.value))
    return total, breakdown


def total_loss(a: np.ndarray, a_aug: np.ndarray, t: np.ndarray, v: np.ndarray,
               v_weak: np.ndarray, tau: float = DEFAULT_TEMPERATURE,
               flags: LossFlags = LossFlags()) -> LossBreakdown:
    _, breakdown = total_loss_node(ad.constant(a), ad.constant(a_aug), t, v,
                                   v_weak, tau, flags)
    return breakdown
