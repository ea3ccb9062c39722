from dataclasses import replace

import numpy as np
import pytest

from sgim import autodiff as ad
from sgim.basis import band_slices, cosine_basis
from sgim.encoders import encode_np
from sgim.errors import DimensionError, ParameterError, UsageError
from sgim.generator import (GeneratorParams, fit_generator_to_dataset,
                            init_generator, sample_source_latent, synthesize)

from graph_reference import finite_difference_check, synthesize_node

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
        synthesize(np.zeros((3, 8, 16)), gen_fit.params)
    with pytest.raises(DimensionError):
        synthesize_node(ad.leaf(np.zeros((8, 16))), gen_fit.params)


def per_band_image(w, gen):
    """The generator written band by band: bias + sum_k (w_k @ M_k) @ B_k."""
    basis = cosine_basis(gen.side)
    out = gen.bias.copy()
    for k, sl in enumerate(band_slices(gen.side)):
        out += (w[k] @ gen.layer_mods[k]) @ basis[sl]
    return out


def test_synthesize_matches_per_band_formula(gen_fit):
    gen = gen_fit.params
    ws = np.random.default_rng(31).standard_normal((50, 8, 32))
    want = np.stack([per_band_image(w, gen) for w in ws])
    images = synthesize(ws, gen)
    assert np.allclose(images, want, rtol=0.0, atol=1e-12)
    # row i of a stack is code i's image alone, byte for byte
    for w, row in zip(ws, images):
        assert synthesize(w, gen).tobytes() == row.tobytes()


# the right operands (rows, columns) of the products under the product rule
# (see generator.synthesize): A; the manipulation step's folded first layer
# with and without the identity term, the image encoder's w2 and w3, the
# identity extractor's w2, and their bound transposes; the audio encoder's
# first layer
RULE_OPERANDS = [(256, 64), (256, 96), (64, 64), (64, 32), (32, 16),
                 (96, 256), (32, 64), (16, 32), (200, 64)]
RULE_ROWS = [*range(2, 17), 64, 96, 384]


def test_plain_products_are_row_invariant():
    """The product rule rests on this property of the installed BLAS: every
    row of a plain 2-D product of two or more rows, with a C-contiguous
    right operand, equals the same row of a 400-row product byte for byte,
    whatever the other rows are. Left operands are contiguous or column
    slices, as in the step, and both ``@`` and ``ndarray.dot`` are pinned.
    A numpy or BLAS upgrade that breaks this fails here."""
    rng = np.random.default_rng(41)
    for k, n in RULE_OPERANDS:
        m = rng.standard_normal((k, n))
        wide = rng.standard_normal((400, k + 32))
        for x in (np.ascontiguousarray(wide[:, :k]), wide[:, :k],
                  wide[:, 32:]):
            full = x @ m
            for rows in RULE_ROWS:
                for start in (0, 7):
                    part = x[start:start + rows]
                    # the step spells its products x.dot(m)
                    for got in (part @ m, part.dot(m)):
                        assert got.tobytes() == \
                            full[start:start + rows].tobytes(), (k, n, rows)


def test_single_code_runs_as_two_rows(gen_fit):
    # one code is a two-row product of copies of itself, so it equals its
    # row of any stack
    gen = gen_fit.params
    ws = np.random.default_rng(32).standard_normal((5, 8, 32))
    for size in range(1, 6):
        images = synthesize(ws[:size], gen)
        assert images.shape == (size, 64)
        for w, row in zip(ws, images):
            assert synthesize(w, gen).tobytes() == row.tobytes()


def test_fitted_params_are_read_only(gen_fit):
    gp = gen_fit.params
    for array in (gp.layer_mods[3], gp.bias, gp.A):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    with pytest.raises(TypeError):
        gp.layer_mods[3] = np.zeros_like(gp.layer_mods[3])
    with pytest.raises(AttributeError):
        gp.bias = np.zeros(64)


def test_synthesize_deterministic(gen_fit):
    w = sample_source_latent(3, gen_fit.params)
    assert synthesize(w, gen_fit.params).tobytes() == \
        synthesize(w, gen_fit.params).tobytes()


def test_node_and_numpy_paths_agree(gen_fit):
    w = sample_source_latent(5, gen_fit.params)
    node = synthesize_node(ad.leaf(w), gen_fit.params)
    assert np.allclose(node.value[0], synthesize(w, gen_fit.params), atol=1e-12)


def test_last_layer_touches_only_finest_band(gen_fit):
    w = sample_source_latent(0, gen_fit.params)
    bumped = w.copy()
    bumped[7] += 0.25
    delta = synthesize(bumped, gen_fit.params) - synthesize(w, gen_fit.params)
    coeffs = delta @ cosine_basis(8).T
    for k, sl in enumerate(band_slices(8)):
        band_energy = float(np.abs(coeffs[sl]).max())
        if k == 7:
            assert band_energy > 1e-4
        else:
            assert band_energy < 1e-12


def test_zeroing_layer_modulation_zeroes_band(gen_fit):
    gp = gen_fit.params
    hollow = GeneratorParams(gp.side, gp.latent_dim,
                             [np.zeros_like(m) if k == 3 else m
                              for k, m in enumerate(gp.layer_mods)], gp.bias)
    w = sample_source_latent(9, gp)
    coeffs = (synthesize(w, hollow) - hollow.bias) @ cosine_basis(8).T
    assert np.all(np.abs(coeffs[band_slices(8)[3]]) < 1e-12)


def test_synthesize_gradient_matches_fd(gen_fit):
    probe = np.random.default_rng(12).standard_normal((1, 64))

    def f(w):
        return ad.sum_all(ad.mul_elementwise(
            synthesize_node(w, gen_fit.params), ad.constant(probe)))

    w = sample_source_latent(4, gen_fit.params)
    err = finite_difference_check(f, w)
    assert err < 1e-4


def lipschitz_bound(gen: GeneratorParams) -> float:
    """Spectral norm of the (flattened latent -> image) linear map."""
    return float(np.linalg.svd(gen.A, compute_uv=False)[0])


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


def test_sample_source_latent_contract(gen_fit):
    a = sample_source_latent(42, gen_fit.params)
    assert a.shape == (8, 32)
    assert np.array_equal(a, sample_source_latent(42, gen_fit.params))
    assert not np.array_equal(a, sample_source_latent(43, gen_fit.params))
    # the shape is the generator's
    other = init_generator(np.random.default_rng(0), side=7, latent_dim=16)
    assert sample_source_latent(42, other).shape == (7, 16)
    draws = np.random.default_rng(0).standard_normal(100_000)
    assert abs(draws.mean()) < 0.01


def test_fit_reduces_mse_below_tenth(gen_fit):
    assert gen_fit.final_mse < 0.1 * gen_fit.mse_history[0]


def test_fit_zero_epochs_returns_initialization(dataset, run_config):
    images = dataset.image
    seed = run_config.seed_for("generator")
    fit0 = fit_generator_to_dataset(images, epochs=0, seed=seed,
                                    latent_dim=run_config.latent_dim)
    rng = np.random.default_rng(seed)
    expected = replace(init_generator(rng, 8, run_config.latent_dim),
                       bias=images.mean(axis=0))
    for got, want in zip(fit0.params.layer_mods, expected.layer_mods):
        assert np.array_equal(got, want)
    assert np.array_equal(fit0.params.bias, expected.bias)


def test_fit_rejects_empty():
    with pytest.raises(UsageError):
        fit_generator_to_dataset(np.empty((0, 64)), 1, seed=0, latent_dim=32)


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
        fit_generator_to_dataset(np.ones((4, 60)), 1, seed=0, latent_dim=32)
