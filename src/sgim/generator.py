"""Differentiable layered generator over an extended latent space.

The latent code is an (layers x latent_dim) matrix; layer k modulates only
frequency band k of an orthonormal 2-D cosine basis over the square image,
so early layers control coarse structure and late layers fine detail, and
the synthesis is fully linear: image = bias + sum_k w_k @ C_k @ B_k.

Fitting to a dataset is alternating least squares on per-band coefficients;
since each band has at most 2*side-1 coefficients and latent_dim is larger,
the reconstruction is essentially exact after one alternation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import band_slices, cosine_basis, image_side
from .errors import DimensionError, UsageError

_BASIS_CACHE: dict[int, np.ndarray] = {}


def _basis(side: int) -> np.ndarray:
    if side not in _BASIS_CACHE:
        b = cosine_basis(side)
        b.flags.writeable = False
        _BASIS_CACHE[side] = b
    return _BASIS_CACHE[side]


@dataclass
class GeneratorParams:
    side: int                       # image is side x side, layers == side
    latent_dim: int
    layer_mods: list[np.ndarray]    # layer k: (latent_dim, 2k+1)
    bias: np.ndarray                # (side*side,)

    @property
    def layers(self) -> int:
        return self.side

    @property
    def pixels(self) -> int:
        return self.side * self.side

    def check_latent(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.layers, self.latent_dim):
            raise DimensionError(
                f"latent must be {(self.layers, self.latent_dim)}, got {w.shape}")
        return w


def init_generator(rng: np.random.Generator, side: int = 8,
                   latent_dim: int = 32,
                   bias: np.ndarray | None = None) -> GeneratorParams:
    mods = [0.1 * rng.standard_normal((latent_dim, 2 * k + 1))
            for k in range(side)]
    if bias is None:
        bias = np.zeros(side * side)
    return GeneratorParams(side, latent_dim, mods, np.asarray(bias, float))


def synthesize(w: np.ndarray, gen: GeneratorParams) -> np.ndarray:
    """Deterministic image for a latent code, shape (pixels,)."""
    w = gen.check_latent(w)
    basis = _basis(gen.side)
    out = gen.bias.copy()
    for k, sl in enumerate(band_slices(gen.side)):
        out += (w[k] @ gen.layer_mods[k]) @ basis[sl]
    return out


def band_factors(gen: GeneratorParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per layer k, the pair (M_k, B_k) with image = bias + sum_k
    (w[k] @ M_k) @ B_k: the layer modulation as C-ordered float64 and the
    band-k rows of the cosine basis."""
    basis = _basis(gen.side)
    return [(np.asarray(gen.layer_mods[k], dtype=np.float64, order="C"),
             basis[sl]) for k, sl in enumerate(band_slices(gen.side))]


def sample_source_latent(seed: int, side: int = 8,
                         latent_dim: int = 32) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((side, latent_dim))


def band_coefficients(image: np.ndarray, side: int) -> np.ndarray:
    """Project a flat image onto the cosine basis, band-major order."""
    return np.asarray(image, float) @ _basis(side).T


def lipschitz_bound(gen: GeneratorParams) -> float:
    """Spectral norm of the (flattened latent -> image) linear map."""
    blocks = []
    basis = _basis(gen.side)
    for k, sl in enumerate(band_slices(gen.side)):
        blocks.append(gen.layer_mods[k] @ basis[sl])
    return float(np.linalg.svd(np.vstack(blocks), compute_uv=False)[0])


@dataclass
class GeneratorFit:
    params: GeneratorParams
    latents: np.ndarray        # (n_images, layers, latent_dim)
    mse_history: list[float] = field(default_factory=list)

    @property
    def final_mse(self) -> float:
        return self.mse_history[-1] if self.mse_history else float("nan")


def fit_generator_to_dataset(images: np.ndarray, epochs: int, seed: int,
                             latent_dim: int = 32) -> GeneratorFit:
    """Alternating least squares over modulations and per-image latents.

    The bias is the mean image. epochs=0 returns the seeded initialization
    untouched. After fitting, latents are rescaled to unit standard
    deviation per layer (modulations absorb the scale), so randomly drawn
    standard-normal codes live on the fitted latent scale.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 2 or images.shape[0] == 0:
        raise UsageError("need a nonempty (n, pixels) image array")
    n, pixels = images.shape
    side = image_side(pixels)
    rng = np.random.default_rng(seed)
    gen = init_generator(rng, side, latent_dim, bias=images.mean(axis=0))
    latents = rng.standard_normal((n, side, latent_dim))

    basis = _basis(side)
    targets = (images - gen.bias) @ basis.T
    slices = band_slices(side)

    def current_mse():
        recon = np.stack([synthesize(latents[i], gen) for i in range(n)])
        return float(((images - recon) ** 2).mean())

    history = [current_mse()]
    for _ in range(epochs):
        for k, sl in enumerate(slices):
            w_k = latents[:, k, :]
            gen.layer_mods[k] = np.linalg.lstsq(w_k, targets[:, sl],
                                                rcond=None)[0]
        for k, sl in enumerate(slices):
            latents[:, k, :] = targets[:, sl] @ np.linalg.pinv(gen.layer_mods[k])
        history.append(current_mse())
    if epochs > 0:
        for k in range(side):
            scale = latents[:, k, :].std()
            if scale > 0:
                latents[:, k, :] /= scale
                gen.layer_mods[k] *= scale
    return GeneratorFit(gen, latents, history)
