"""Orthonormal 2-D cosine basis over a square pixel grid, split into
frequency bands. Band k collects the basis images with max(u, v) == k, so a
side-n grid yields n bands of sizes 1, 3, 5, ..., 2n-1. Band 0 is the DC
image; higher bands carry progressively finer detail.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def _dct_rows(n: int) -> np.ndarray:
    # orthonormal DCT-II rows: row u, column x
    x = np.arange(n)
    rows = np.cos(np.pi * (2 * x[None, :] + 1) * np.arange(n)[:, None] / (2 * n))
    rows *= np.sqrt(2.0 / n)
    rows[0] = np.sqrt(1.0 / n)
    return rows


def image_side(pixels: int) -> int:
    side = int(round(np.sqrt(pixels)))
    if side * side != pixels:
        raise ParameterError(f"pixel count {pixels} is not a perfect square")
    return side


def cosine_basis(side: int) -> np.ndarray:
    """Basis matrix of shape (side*side, side*side); rows are flattened
    orthonormal basis images ordered band-major, coarse to fine."""
    d = _dct_rows(side)
    rows = []
    for u, v in band_index_pairs(side):
        rows.append(np.outer(d[u], d[v]).reshape(-1))
    return np.ascontiguousarray(np.array(rows))


def band_index_pairs(side: int) -> list[tuple[int, int]]:
    pairs = []
    for band in range(side):
        for u in range(side):
            for v in range(side):
                if max(u, v) == band:
                    pairs.append((u, v))
    return pairs


def band_slices(side: int) -> list[slice]:
    """Row ranges of cosine_basis belonging to each band; band k holds
    2k+1 rows, so it starts at row k*k."""
    return [slice(k * k, (k + 1) * (k + 1)) for k in range(side)]


def band_of_rows(side: int) -> np.ndarray:
    """Band id of every basis row, shape (side*side,)."""
    out = np.empty(side * side, dtype=np.int64)
    for band, sl in enumerate(band_slices(side)):
        out[sl] = band
    return out
