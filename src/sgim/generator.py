"""Linear layered generator over an extended latent space.

The latent code is an (layers x latent_dim) matrix; layer k modulates only
frequency band k of an orthonormal 2-D cosine basis over the square image,
so early layers control coarse structure and late layers fine detail. The
synthesis is linear, bias + sum_k (w_k @ M_k) @ B_k = bias + vec(w) @ A,
with A = vstack_k(M_k @ B_k) built once with the params.

Fitting to a dataset is alternating least squares on per-band coefficients;
since each band has at most 2*side-1 coefficients and latent_dim is larger,
the reconstruction is essentially exact after one alternation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .basis import band_slices, cosine_basis, image_side
from .errors import DimensionError, UsageError

_BASIS_CACHE: dict[int, np.ndarray] = {}


def _read_only(a) -> np.ndarray:
    a = np.array(a, dtype=np.float64, order="C")
    a.flags.writeable = False
    return a


def _basis(side: int) -> np.ndarray:
    if side not in _BASIS_CACHE:
        _BASIS_CACHE[side] = _read_only(cosine_basis(side))
    return _BASIS_CACHE[side]


@dataclass(frozen=True, eq=False)
class GeneratorParams:
    """Read-only copies of the modulations and bias, and A built from them,
    so A cannot go stale; build new params to change them."""

    side: int                           # image is side x side, layers == side
    latent_dim: int
    layer_mods: tuple[np.ndarray, ...]  # layer k: (latent_dim, 2k+1)
    bias: np.ndarray                    # (side*side,)
    A: np.ndarray = field(init=False, repr=False)  # (layers*latent_dim, pixels)

    def __post_init__(self):
        mods = tuple(_read_only(m) for m in self.layer_mods)
        basis = _basis(self.side)
        a = _read_only(np.vstack([m @ basis[sl] for m, sl
                                  in zip(mods, band_slices(self.side))]))
        object.__setattr__(self, "layer_mods", mods)
        object.__setattr__(self, "bias", _read_only(self.bias))
        object.__setattr__(self, "A", a)

    @property
    def layers(self) -> int:
        return self.side

    def check_latent(self, w: np.ndarray) -> np.ndarray:
        """w as float64, if it is one latent code or a stack of them."""
        w = np.asarray(w, dtype=np.float64)
        if w.ndim not in (2, 3) or w.shape[-2:] != (self.layers, self.latent_dim):
            raise DimensionError(f"latent must be {(self.layers, self.latent_dim)} "
                                 f"or a stack of them, got {w.shape}")
        return w


def init_generator(rng: np.random.Generator, side: int,
                   latent_dim: int) -> GeneratorParams:
    mods = [0.1 * rng.standard_normal((latent_dim, 2 * k + 1))
            for k in range(side)]
    return GeneratorParams(side, latent_dim, mods, np.zeros(side * side))


def gemm_rows(x: np.ndarray) -> np.ndarray:
    """A one-row left operand as two copies of its row (the caller keeps
    row 0), under the product rule of ``synthesize``; more rows as given."""
    return np.concatenate([x, x]) if len(x) == 1 else x


def synthesize(w: np.ndarray, gen: GeneratorParams) -> np.ndarray:
    """Image of a latent code, bias + vec(w) @ A: shape (pixels,) for one
    (layers, latent_dim) code, (n, pixels) for a stack of n codes.

    The product rule: every product is a plain 2-D gemm of two or more rows
    whose right operand is C-contiguous. On the BLAS pinned in
    tests/test_generator.py, a row of such a product rounds the same
    whatever the other rows are, so row i is code i's image alone, byte for
    byte. One code runs as two copies of its row (``gemm_rows``), since a
    one-row product rounds differently. The manipulation step folds A into
    the encoders' first layer instead (``manipulate.bind_step``)."""
    w = gen.check_latent(w)
    flat = w.reshape(-1, gen.layers * gen.latent_dim)
    images = gen.bias + gemm_rows(flat) @ gen.A
    return images[0] if w.ndim == 2 else images[:len(flat)]


def sample_source_latent(seed: int, gen: GeneratorParams) -> np.ndarray:
    """A seeded standard-normal latent code of ``gen``'s shape."""
    return np.random.default_rng(seed).standard_normal(
        (gen.layers, gen.latent_dim))


@dataclass
class GeneratorFit:
    params: GeneratorParams
    latents: np.ndarray        # (n_images, layers, latent_dim)
    mse_history: list[float] = field(default_factory=list)

    @property
    def final_mse(self) -> float:
        return self.mse_history[-1] if self.mse_history else float("nan")


def fit_generator_to_dataset(images: np.ndarray, epochs: int, seed: int,
                             latent_dim: int) -> GeneratorFit:
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
    gen = replace(init_generator(rng, side, latent_dim),
                  bias=images.mean(axis=0))
    latents = rng.standard_normal((n, side, latent_dim))

    targets = (images - gen.bias) @ _basis(side).T
    slices = band_slices(side)

    def mse(gen: GeneratorParams) -> float:
        return float(((images - synthesize(latents, gen)) ** 2).mean())

    history = [mse(gen)]
    mods = list(gen.layer_mods)
    for _ in range(epochs):
        for k, sl in enumerate(slices):
            mods[k] = np.linalg.lstsq(latents[:, k, :], targets[:, sl],
                                      rcond=None)[0]
        for k, sl in enumerate(slices):
            latents[:, k, :] = targets[:, sl] @ np.linalg.pinv(mods[k])
        gen = GeneratorParams(side, latent_dim, mods, gen.bias)
        history.append(mse(gen))
    if epochs > 0:
        for k in range(side):
            scale = latents[:, k, :].std()
            if scale > 0:
                latents[:, k, :] /= scale
                mods[k] = mods[k] * scale
        gen = GeneratorParams(side, latent_dim, mods, gen.bias)
    return GeneratorFit(gen, latents, history)
