import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgim import autodiff as ad
from sgim.data import label_token_seq
from sgim.augment import default_vocabulary
from sgim.errors import ParameterError, SgimError
from sgim.generator import synthesize
from sgim.manipulate import (ManipConfig, gate_softmax, hinge_from_distances,
                             hinge_loss, identity_features, identity_loss,
                             interpolate, masked_regularization,
                             moving_average, objective_node, optimize_guided,
                             optimize_latent, style_mix, text_guided_latent,
                             trajectory_csv)

from conftest import AUDIO_INDEX, SOURCE_INDEX


@pytest.fixture(scope="module")
def manip_run(gen_fit, model_bundle, dataset):
    w_s = gen_fit.latents[SOURCE_INDEX]
    mel = dataset.audio[AUDIO_INDEX]
    config = ManipConfig()
    w_a, gate, trajectory = optimize_latent(w_s, mel, config, model_bundle)
    return w_s, w_a, gate, trajectory


def test_hinge_hand_values(gen_fit, model_bundle):
    # ties give exactly 1; a full margin closer gives 0; farther gives 2
    assert hinge_from_distances(1.0, 0.0) == 0.0
    assert hinge_from_distances(0.4, 1.4) == 2.0
    w_s = gen_fit.latents[SOURCE_INDEX]
    a = np.zeros(32)
    a[0] = 1.0
    assert hinge_loss(w_s, w_s, a, model_bundle.generator,
                      model_bundle.image) == 1.0


def test_masked_regularization_hand_value():
    w_s = np.zeros((8, 4))
    w_a = np.zeros((8, 4))
    w_a[2, 0] = 1.0  # single layer differs by unit norm
    val = masked_regularization(w_a, w_s, np.zeros(8), adaptive=True)
    assert val == pytest.approx(1.0 / 64.0, abs=1e-15)
    assert masked_regularization(w_s, w_s, np.zeros(8)) == 0.0


def test_masked_regularization_gate_concentration():
    w_s = np.zeros((8, 4))
    w_a = np.zeros((8, 4))
    w_a[0, 1] = 2.0
    logits = np.zeros(8)
    logits[0] = 1e3  # softmax mass collapses onto layer 0
    val = masked_regularization(w_a, w_s, logits, adaptive=True)
    assert val == pytest.approx(2.0 / 8.0, rel=1e-12)


def test_plain_regularization_is_frobenius():
    rng = np.random.default_rng(0)
    w_s, w_a = rng.standard_normal((2, 8, 4))
    val = masked_regularization(w_a, w_s, np.zeros(8), adaptive=False)
    assert val == pytest.approx(np.linalg.norm(w_a - w_s), rel=1e-12)


def test_identity_loss_bounds_and_zero(gen_fit, model_bundle):
    w_s = gen_fit.latents[3]
    assert identity_loss(w_s, w_s, model_bundle.generator,
                         model_bundle.identity) == pytest.approx(0.0, abs=1e-12)
    w_other = gen_fit.latents[200]
    val = identity_loss(w_s, w_other, model_bundle.generator,
                        model_bundle.identity)
    assert 0.0 <= val <= 2.0


def test_optimize_rejects_bad_steps(gen_fit, model_bundle, dataset):
    with pytest.raises(ParameterError):
        optimize_latent(gen_fit.latents[0], dataset.audio[0],
                        ManipConfig(steps=0), model_bundle)


def test_one_zero_size_step_keeps_source(gen_fit, model_bundle, dataset):
    w_s = gen_fit.latents[SOURCE_INDEX]
    w_a, gate, traj = optimize_latent(
        w_s, dataset.audio[AUDIO_INDEX],
        ManipConfig(steps=1, step_size=0.0), model_bundle)
    assert np.array_equal(w_a, w_s)
    assert traj[0].hinge == 1.0


def test_huge_step_aborts_loudly(gen_fit, model_bundle, dataset):
    # tanh and row normalization keep embeddings finite, so the blowup
    # surfaces in the drift norms once the latent overflows float64
    with np.errstate(over="ignore"), pytest.raises(SgimError):
        optimize_latent(gen_fit.latents[0], dataset.audio[0],
                        ManipConfig(steps=8, step_size=1e300), model_bundle)


def test_canonical_run_drives_hinge_below_one(manip_run):
    _, _, _, trajectory = manip_run
    hinges = [p.hinge for p in trajectory]
    assert hinges[0] == 1.0
    assert min(hinges) < 1.0
    assert hinges[-1] < 1.0


def test_objective_moving_average_non_increasing(manip_run):
    _, _, _, trajectory = manip_run
    ma = moving_average([p.total for p in trajectory], 20)
    assert np.all(np.diff(ma) <= 1e-12)


def test_gate_softmax_sums_to_one_every_step(manip_run):
    _, _, _, trajectory = manip_run
    for p in trajectory:
        assert abs(p.gate_softmax.sum() - 1.0) < 1e-12
        assert np.all(p.gate_softmax > 0.0)


def test_gate_mass_moves_to_static_fine_layers(gen_fit, model_bundle, dataset):
    # class image templates are coarse-band dominant, so the edit leaves the
    # fine layers nearly untouched and the minimized penalty concentrates
    # its softmax mass there; amplified lambda_reg makes the effect visible
    w_s = gen_fit.latents[SOURCE_INDEX]
    config = ManipConfig(lambda_reg=1.0)
    w_a, gate, _ = optimize_latent(w_s, dataset.audio[AUDIO_INDEX], config,
                                   model_bundle)
    softmax = gate_softmax(gate)
    drift = np.linalg.norm(w_a - w_s, axis=1)
    assert drift[4:].mean() < drift[:4].mean()
    assert softmax[4:].sum() > 0.5


def test_identity_lambda_ordering(gen_fit, model_bundle, dataset):
    w_s = gen_fit.latents[SOURCE_INDEX]
    mel = dataset.audio[AUDIO_INDEX]

    def identity_cos(lambda_id):
        w_a, _, _ = optimize_latent(w_s, mel,
                                    ManipConfig(lambda_id=lambda_id),
                                    model_bundle)
        f_s = identity_features(model_bundle.identity,
                                synthesize(w_s, model_bundle.generator))
        f_a = identity_features(model_bundle.identity,
                                synthesize(w_a, model_bundle.generator))
        return float(f_s @ f_a)

    assert identity_cos(0.5) > identity_cos(0.0)


def test_objective_gradient_matches_fd(gen_fit, model_bundle, dataset):
    w_s = gen_fit.latents[SOURCE_INDEX]
    target = np.random.default_rng(3).standard_normal(32)
    target /= np.linalg.norm(target)
    config = ManipConfig()
    from sgim.encoders import encode_np
    v_src = encode_np(model_bundle.image,
                      synthesize(w_s, model_bundle.generator)[None, :])[0]
    d_src = 1.0 - float(v_src @ target)
    src_id = identity_features(model_bundle.identity,
                               synthesize(w_s, model_bundle.generator))
    g = np.random.default_rng(4).standard_normal(8)

    def f(w):
        total, *_ = objective_node(w, ad.constant(g[None, :]), w_s, target,
                                   d_src, config, model_bundle, src_id)
        return total

    start = w_s + 0.05 * np.random.default_rng(5).standard_normal(w_s.shape)
    assert ad.finite_difference_check(f, start) < 1e-4


def test_optimizer_deterministic(gen_fit, model_bundle):
    w_s = gen_fit.latents[10]
    target = np.random.default_rng(6).standard_normal(32)
    target /= np.linalg.norm(target)
    config = ManipConfig(steps=25)
    a1, g1, _ = optimize_guided(w_s, target, config, model_bundle)
    a2, g2, _ = optimize_guided(w_s, target, config, model_bundle)
    assert np.array_equal(a1, a2)
    assert np.array_equal(g1, g2)


def test_text_guided_runs_and_is_finite(gen_fit, model_bundle):
    vocab = default_vocabulary()
    w_s = gen_fit.latents[SOURCE_INDEX]
    w_t, _, traj = text_guided_latent(w_s, label_token_seq(vocab, 3),
                                      ManipConfig(steps=50), model_bundle)
    assert np.all(np.isfinite(w_t))
    assert traj[-1].hinge < 1.0


def test_interpolate_endpoints_bit_exact():
    rng = np.random.default_rng(1)
    w_a, w_t = rng.standard_normal((2, 8, 32))
    assert interpolate(w_a, w_t, 0.0).tobytes() == w_a.tobytes()
    assert interpolate(w_a, w_t, 1.0).tobytes() == w_t.tobytes()


def test_interpolate_midpoint_and_affine_identity():
    w_a = np.zeros((2, 3))
    w_t = 2.0 * np.ones((2, 3))
    assert np.array_equal(interpolate(w_a, w_t, 0.5), np.ones((2, 3)))
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((2, 8, 32))
    lhs = interpolate(x, y, 0.5) + interpolate(x, y, 0.5)
    assert np.array_equal(lhs, x + y)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0))
def test_interpolate_affine_identity_property(alpha):
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((2, 4, 6))
    lhs = interpolate(x, y, alpha) + interpolate(x, y, 1.0 - alpha)
    assert np.allclose(lhs, x + y, atol=1e-12)


def test_interpolate_rejects_out_of_range():
    w = np.zeros((2, 2))
    with pytest.raises(ParameterError):
        interpolate(w, w, -0.1)
    with pytest.raises(ParameterError):
        interpolate(w, w, 1.5)


def test_style_mix_provenance():
    rng = np.random.default_rng(4)
    w_a, w_t = rng.standard_normal((2, 8, 32))
    mixed = style_mix(w_a, w_t, 4)
    assert mixed[:4].tobytes() == w_a[:4].tobytes()
    assert mixed[4:].tobytes() == w_t[4:].tobytes()
    assert np.array_equal(style_mix(w_a, w_a, 3), w_a)


def test_style_mix_split_range():
    w = np.zeros((8, 4))
    with pytest.raises(ParameterError):
        style_mix(w, w, 0)
    with pytest.raises(ParameterError):
        style_mix(w, w, 8)


def test_trajectory_csv(manip_run):
    _, _, _, trajectory = manip_run
    csv = trajectory_csv(trajectory)
    lines = csv.strip().splitlines()
    assert lines[0] == "step,hinge,reg,id,total"
    assert len(lines) == len(trajectory) + 1
    cols = lines[1].split(",")
    assert float(cols[1]) == trajectory[0].hinge
