import numpy as np
import pytest

from sgim import autodiff as ad
from sgim.basis import band_slices, cosine_basis
from sgim.encoders import encode_np
from sgim.errors import DimensionError, ParameterError, UsageError
from sgim.generator import (GeneratorParams, band_coefficients,
                            fit_generator_to_dataset, init_generator,
                            lipschitz_bound, sample_source_latent, synthesize,
                            synthesize_node)

# reference-run pins (master seed 7)
PINNED_LIPSCHITZ = 0.15743218095607175
PINNED_BIAS_HEAD = [-0.0007232366983333289, -0.019183401684831302,
                    -0.039619621715352354]


def test_basis_is_orthonormal():
    b = cosine_basis(8)
    assert np.allclose(b @ b.T, np.eye(64), atol=1e-12)
    sizes = [sl.stop - sl.start for sl in band_slices(8)]
    assert sizes == [1, 3, 5, 7, 9, 11, 13, 15]


def test_zero_latent_gives_bias_only_image(gen_fit, dataset):
    out = synthesize(np.zeros((8, 32)), gen_fit.params)
    assert np.array_equal(out, dataset.image.mean(axis=0))
    assert np.allclose(out[:3], PINNED_BIAS_HEAD, atol=1e-12)


def test_synthesize_shape_guard(gen_fit):
    with pytest.raises(DimensionError):
        synthesize(np.zeros((4, 32)), gen_fit.params)
    with pytest.raises(DimensionError):
        synthesize_node(ad.leaf(np.zeros((8, 16))), gen_fit.params)


def test_synthesize_deterministic(gen_fit):
    w = sample_source_latent(3)
    assert synthesize(w, gen_fit.params).tobytes() == \
        synthesize(w, gen_fit.params).tobytes()


def test_node_and_numpy_paths_agree(gen_fit):
    w = sample_source_latent(5)
    node = synthesize_node(ad.leaf(w), gen_fit.params)
    assert np.allclose(node.value[0], synthesize(w, gen_fit.params), atol=1e-12)


def test_last_layer_touches_only_finest_band(gen_fit):
    w = sample_source_latent(0)
    bumped = w.copy()
    bumped[7] += 0.25
    delta = synthesize(bumped, gen_fit.params) - synthesize(w, gen_fit.params)
    coeffs = band_coefficients(delta, 8)
    for k, sl in enumerate(band_slices(8)):
        band_energy = float(np.abs(coeffs[sl]).max())
        if k == 7:
            assert band_energy > 1e-4
        else:
            assert band_energy < 1e-12


def test_zeroing_layer_modulation_zeroes_band(gen_fit):
    gp = gen_fit.params
    hollow = GeneratorParams(gp.side, gp.latent_dim,
                             [m.copy() for m in gp.layer_mods], gp.bias.copy())
    hollow.layer_mods[3][:] = 0.0
    w = sample_source_latent(9)
    coeffs = band_coefficients(synthesize(w, hollow) - hollow.bias, 8)
    assert np.all(np.abs(coeffs[band_slices(8)[3]]) < 1e-12)


def test_synthesize_gradient_matches_fd(gen_fit):
    probe = np.random.default_rng(12).standard_normal((1, 64))

    def f(w):
        return ad.sum_all(ad.mul_elementwise(
            synthesize_node(w, gen_fit.params), ad.constant(probe)))

    err = ad.finite_difference_check(f, sample_source_latent(4))
    assert err < 1e-4


def test_lipschitz_bound_pinned(gen_fit):
    assert lipschitz_bound(gen_fit.params) == \
        pytest.approx(PINNED_LIPSCHITZ, rel=1e-9)
    # and it really bounds output change on the test box
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = rng.standard_normal((8, 32))
        b = rng.standard_normal((8, 32))
        lhs = np.linalg.norm(synthesize(a, gen_fit.params) -
                             synthesize(b, gen_fit.params))
        assert lhs <= PINNED_LIPSCHITZ * np.linalg.norm(a - b) + 1e-12


def test_sample_source_latent_contract():
    a = sample_source_latent(42)
    assert a.shape == (8, 32)
    assert np.array_equal(a, sample_source_latent(42))
    assert not np.array_equal(a, sample_source_latent(43))
    draws = np.random.default_rng(0).standard_normal(100_000)
    assert abs(draws.mean()) < 0.01


def test_fit_reduces_mse_below_tenth(gen_fit):
    assert gen_fit.final_mse < 0.1 * gen_fit.mse_history[0]


def test_fit_zero_epochs_returns_initialization(dataset, run_config):
    images = dataset.image
    seed = run_config.seed_for("generator")
    fit0 = fit_generator_to_dataset(images, epochs=0, seed=seed)
    rng = np.random.default_rng(seed)
    expected = init_generator(rng, 8, 32, bias=images.mean(axis=0))
    for got, want in zip(fit0.params.layer_mods, expected.layer_mods):
        assert np.array_equal(got, want)
    assert np.array_equal(fit0.params.bias, expected.bias)


def test_fit_rejects_empty():
    with pytest.raises(UsageError):
        fit_generator_to_dataset(np.empty((0, 64)), 1, seed=0)


def test_fitted_latents_reconstruct_through_encoder(gen_fit, dataset, teacher):
    recon = np.stack([synthesize(gen_fit.latents[i], gen_fit.params)
                      for i in range(0, len(dataset), 16)])
    e_orig = encode_np(teacher[0].image, dataset.image[::16])
    e_rec = encode_np(teacher[0].image, recon)
    assert float((e_orig * e_rec).sum(axis=1).min()) >= 0.9


def test_fitted_latent_scale_is_unit(gen_fit):
    for k in range(8):
        assert gen_fit.latents[:, k, :].std() == pytest.approx(1.0, abs=1e-9)


def test_pixels_must_be_square():
    with pytest.raises(ParameterError):
        fit_generator_to_dataset(np.ones((4, 60)), 1, seed=0)
