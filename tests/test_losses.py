import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgim import autodiff as ad
from sgim.config import RunConfig
from sgim.encoders import audio_step, encode_np, init_encoder_params
from sgim.errors import ParameterError, UsageError
from sgim.gradcheck import max_rel_error
from sgim.losses import info_nce, similarity, weak_kl

from graph_reference import (diag_cross_entropy_term, info_nce_pair_node,
                             weak_kl_loss_node)


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def info_nce_pair(a, b, tau):
    return info_nce(a, b, tau)[0]


def weak_kl_loss(a, v, t, tau, full_rows=False):
    return weak_kl(a, v, t, tau, full_rows)[0]


def step_breakdown(seed, n=6, **flags):
    """The audio step's loss breakdown for a random encoder, audio batch and
    teacher embeddings; the weak term runs on the batch itself."""
    rng = np.random.default_rng(seed)
    params = init_encoder_params(rng, 10, 12, 8)
    x, x_aug = rng.standard_normal((2, n, 10))
    t, v, v_weak = (_unit_rows(rng, n, 8) for _ in range(3))
    return audio_step(params, x, x_aug, t, v, (x, v_weak, t),
                      RunConfig(tau=0.2, **flags))[0]


def _softmax_rows(scores, tau):
    z = scores / tau
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


E2 = np.array([[1.0, 0.0], [0.0, 1.0]])


def test_similarity_matrix_hand_values():
    m = similarity(E2, E2, tau=1.0)
    e = math.e
    expect = np.array([[e / (e + 1), 1 / (e + 1)], [1 / (e + 1), e / (e + 1)]])
    assert np.allclose(m, expect, atol=1e-12)
    assert abs(m[0, 0] - 0.73106) < 1e-4
    assert abs(m[0, 1] - 0.26894) < 1e-4


def test_similarity_matrix_identical_rows_give_uniform():
    row = np.array([[0.6, 0.8]])
    a = np.repeat(row, 4, axis=0)
    m = similarity(a, a, tau=0.3)
    assert np.allclose(m, 0.25, atol=1e-12)


def test_similarity_matrix_asymmetric_normalization():
    rng = np.random.default_rng(17)
    a, b = _unit_rows(rng, 3, 5), _unit_rows(rng, 3, 5)
    m_ab = similarity(a, b, tau=0.5)
    m_ba = similarity(b, a, tau=0.5)
    assert not np.allclose(m_ab.T, m_ba)


def test_similarity_matrix_rejects_empty():
    with pytest.raises(UsageError):
        similarity(np.empty((0, 3)), np.empty((0, 3)), tau=1.0)


def test_info_nce_orthogonal_hand_value():
    # 2 * (-log(e/(e+1))) = 0.62652...
    val = info_nce_pair(E2, E2, tau=1.0)
    assert abs(val - 0.62652) < 1e-4
    exact = 2.0 * -math.log(math.e / (math.e + 1.0))
    assert abs(val - exact) < 1e-12


def test_info_nce_sharp_temperature_vanishes():
    assert info_nce_pair(E2, E2, tau=0.05) < 1e-3


def test_info_nce_rejects_singleton():
    with pytest.raises(UsageError):
        info_nce_pair(np.ones((1, 4)), np.ones((1, 4)), tau=1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.floats(0.05, 2.0))
def test_info_nce_nonnegative(seed, n, tau):
    rng = np.random.default_rng(seed)
    a, b = _unit_rows(rng, n, 8), _unit_rows(rng, n, 8)
    assert info_nce_pair(a, b, tau) >= 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_info_nce_permutation_equivariant(seed):
    rng = np.random.default_rng(seed)
    a, b = _unit_rows(rng, 5, 8), _unit_rows(rng, 5, 8)
    perm = rng.permutation(5)
    base = info_nce_pair(a, b, 0.2)
    assert abs(info_nce_pair(a[perm], b[perm], 0.2) - base) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_info_nce_rotation_invariant(seed):
    rng = np.random.default_rng(seed)
    a, b = _unit_rows(rng, 4, 6), _unit_rows(rng, 4, 6)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    base = info_nce_pair(a, b, 0.2)
    assert abs(info_nce_pair(a @ q, b @ q, 0.2) - base) < 1e-9


def test_self_supervised_reduces_to_info_nce():
    rng = np.random.default_rng(6)
    params = init_encoder_params(rng, 10, 12, 8)
    x, x_aug = rng.standard_normal((2, 6, 10))
    only_self = RunConfig(tau=1.0, use_loss_at=False, use_loss_av=False,
                          use_loss_kl=False)
    br, _ = audio_step(params, x, x_aug, None, None, None, only_self)
    assert br.self_aa == info_nce_pair(encode_np(params, x),
                                       encode_np(params, x_aug), 1.0)
    assert br.total == br.self_aa


def test_self_supervised_same_class_negatives_cost_more():
    # nearly collinear rows (cos 0.99) are harder negatives than orthogonal
    c = 0.99
    near = np.array([[1.0, 0.0], [c, math.sqrt(1 - c * c)]])
    assert info_nce_pair(near, near, 0.2) > info_nce_pair(E2, E2, 0.2)


def test_self_supervised_gradient_matches_fd():
    # the self term differentiates both of its inputs
    rng = np.random.default_rng(4)
    a, a_aug = _unit_rows(rng, 4, 8), _unit_rows(rng, 4, 8)
    _, g_a, g_aug = info_nce(a, a_aug, 0.3)
    assert max_rel_error(g_a, lambda x: info_nce_pair(x, a_aug, 0.3), a) < 1e-4
    assert max_rel_error(g_aug, lambda x: info_nce_pair(a, x, 0.3), a_aug) < 1e-4


def test_diag_cross_entropy_hand_values():
    assert diag_cross_entropy_term(1.0, 1.0) == 0.0
    assert abs(diag_cross_entropy_term(1.0, 0.5) - 0.69315) < 1e-4
    assert abs(diag_cross_entropy_term(1.0, 0.5) + math.log(0.5)) < 1e-12
    # nonzero even when teacher equals student: cross-entropy, not divergence
    assert abs(diag_cross_entropy_term(0.5, 0.5) - 0.34657) < 1e-4
    assert abs(diag_cross_entropy_term(0.5, 0.5) + 0.5 * math.log(0.5)) < 1e-12


def test_weak_kl_matches_per_diagonal_oracle():
    rng = np.random.default_rng(21)
    a, v, t = (_unit_rows(rng, 5, 8) for _ in range(3))
    tau = 0.3
    m_av = _softmax_rows(a @ v.T, tau)
    m_tv = _softmax_rows(t @ v.T, tau)
    oracle = np.mean([diag_cross_entropy_term(m_tv[i, i], m_av[i, i])
                      for i in range(5)])
    assert abs(weak_kl_loss(a, v, t, tau) - oracle) < 1e-12


def test_weak_kl_monotone_in_student_diagonal():
    # rotating a_2 toward v_2 raises both diagonals and lowers the loss
    rng = np.random.default_rng(3)
    v = _unit_rows(rng, 2, 4)
    t = _unit_rows(rng, 2, 4)
    mix = []
    for w in (0.2, 0.5, 0.9):
        a = _unit_rows(np.random.default_rng(8), 2, 4) * (1 - w) + v * w
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        mix.append(weak_kl_loss(a, v, t, 0.3))
    assert mix[0] > mix[1] > mix[2]


def test_weak_kl_teacher_receives_no_gradient():
    # weak_kl returns a gradient for the student alone; moving the teacher
    # inputs changes the value, so they are targets, not trained inputs
    rng = np.random.default_rng(5)
    a, v, t = (_unit_rows(rng, 3, 6) for _ in range(3))
    value, g_a = weak_kl(a, v, t, 0.2, False)
    assert g_a.shape == a.shape and np.any(g_a != 0.0)
    assert weak_kl(a, v, t[::-1], 0.2, False)[0] != value


def test_weak_kl_full_rows_variant_nonnegative_and_zero_at_match():
    rng = np.random.default_rng(11)
    a = _unit_rows(rng, 4, 8)
    v = _unit_rows(rng, 4, 8)
    t = _unit_rows(rng, 4, 8)
    val = weak_kl_loss(a, v, t, 0.3, full_rows=True)
    assert val >= -1e-12
    # teacher rows equal student rows: KL is exactly zero
    same = weak_kl_loss(a, v, a, 0.3, full_rows=True)
    assert abs(same) < 1e-12


def test_total_loss_additivity_and_ablation():
    full = step_breakdown(2)
    assert abs(full.total -
               (full.nce_at + full.nce_av + full.self_aa + full.kl_weak)) < 1e-9
    assert min(full.nce_at, full.nce_av, full.self_aa, full.kl_weak) >= 0.0
    ablated = step_breakdown(2, use_loss_kl=False)
    assert ablated.kl_weak == 0.0
    assert abs(ablated.total -
               (ablated.nce_at + ablated.nce_av + ablated.self_aa)) < 1e-9
    assert abs(ablated.total - (full.total - full.kl_weak)) < 1e-9


def test_loss_component_gradients_match_fd():
    rng = np.random.default_rng(14)
    t, vw, a = (_unit_rows(rng, 4, 8) for _ in range(3))
    _, g_a, g_t = info_nce(a, t, 0.3)
    assert max_rel_error(g_a, lambda x: info_nce_pair(x, t, 0.3), a) < 1e-4
    assert max_rel_error(g_t, lambda x: info_nce_pair(a, x, 0.3), t) < 1e-4
    for full_rows in (False, True):
        _, g = weak_kl(a, vw, t, 0.3, full_rows)
        assert max_rel_error(g, lambda x: weak_kl_loss(
            x, vw, t, 0.3, full_rows), a) < 1e-4


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 2.0))
def test_similarity_rows_stochastic(seed, tau):
    rng = np.random.default_rng(seed)
    m = similarity(_unit_rows(rng, 5, 7), _unit_rows(rng, 5, 7), tau)
    assert np.all(np.abs(m.sum(axis=1) - 1.0) < 1e-9)
    assert np.all((m > 0.0) & (m < 1.0))


@pytest.mark.parametrize("tau", [0.07, 0.3, 1.0])
def test_info_nce_matches_graph_bit_exact(tau):
    rng = np.random.default_rng(31)
    a, b = _unit_rows(rng, 6, 8), _unit_rows(rng, 6, 8)
    value, g_a, g_b = info_nce(a, b, tau)
    a_node, b_node = ad.leaf(a), ad.leaf(b)
    loss = info_nce_pair_node(a_node, b_node, tau)
    ad.backward(loss)
    assert np.float64(value).tobytes() == loss.value.tobytes()
    assert g_a.tobytes() == a_node.grad.tobytes()
    assert g_b.tobytes() == b_node.grad.tobytes()


@pytest.mark.parametrize("full_rows", [False, True])
def test_weak_kl_matches_graph_bit_exact(full_rows):
    rng = np.random.default_rng(32)
    a, v, t = (_unit_rows(rng, 8, 8) for _ in range(3))
    value, g_a = weak_kl(a, v, t, 0.07, full_rows)
    a_node = ad.leaf(a)
    loss = weak_kl_loss_node(a_node, ad.constant(v), t, 0.07, full_rows)
    ad.backward(loss)
    assert np.float64(value).tobytes() == loss.value.tobytes()
    assert g_a.tobytes() == a_node.grad.tobytes()


def test_loss_degenerate_inputs_keep_their_errors():
    # antipodal rows at a sharp temperature underflow every off-diagonal
    # softmax entry to 0; the loss stays finite and equal to the graph's.
    # A non-positive temperature and mismatched shapes are rejected.
    a = np.array([[1.0, 0.0], [-1.0, 0.0]])
    value, g_a, g_b = info_nce(a, a, 5e-4)
    a_node, b_node = ad.leaf(a), ad.leaf(a)
    loss = info_nce_pair_node(a_node, b_node, 5e-4)
    ad.backward(loss)
    assert value == 0.0
    assert np.float64(value).tobytes() == loss.value.tobytes()
    assert g_a.tobytes() == a_node.grad.tobytes()
    assert g_b.tobytes() == b_node.grad.tobytes()
    with pytest.raises(ParameterError):
        info_nce(E2, E2, 0.0)
    with pytest.raises(UsageError):
        weak_kl(E2, E2, np.eye(3)[:2], 0.3, False)


def test_weak_kl_full_rows_finite_where_teacher_softmax_underflows():
    # the teacher's off-diagonal softmax entries underflow to 0; its
    # entropy comes from the log-softmax, so 0 * log 0 never appears and
    # the KL of a one-hot row against a uniform one is log 2
    a = np.array([[0.0, 1.0], [0.0, 1.0]])
    v = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with np.errstate(divide="raise", invalid="raise"):
        value, g_a = weak_kl(a, v, v, 1e-3, True)
    assert value == pytest.approx(math.log(2.0), abs=1e-15)
    assert np.all(np.isfinite(g_a))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8), st.integers(2, 6),
       st.floats(1e-4, 10.0))
def test_losses_finite_for_unit_rows_at_any_temperature(seed, n, d, tau):
    rng = np.random.default_rng(seed)
    a, b, t = (_unit_rows(rng, n, d) for _ in range(3))
    # antipodal and repeated rows are where softmax entries underflow
    a[0], b[-1] = -b[0], t[0]
    value, g_a, g_b = info_nce(a, b, tau)
    assert np.isfinite(value) and np.isfinite(g_a).all() and np.isfinite(g_b).all()
    for full_rows in (False, True):
        value, g_a = weak_kl(a, b, t, tau, full_rows)
        assert np.isfinite(value) and np.isfinite(g_a).all()
