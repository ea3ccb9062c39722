"""The per-row draws that the batched samplers replaced: the oracle that
`sgim.augment.spec_augment` and `sgim.data.sample_weak_pairs` must
reproduce.

`spec_augment_row` masks one (F, T) grid with one scalar draw per nonzero
band, and `weak_pair` picks one row's weak pair with one scalar draw. Run
row by row, they must give the batched functions' values byte for byte and
leave the rng in the same state.
"""

from __future__ import annotations

import numpy as np

from sgim.errors import ParameterError


def spec_augment_row(mel: np.ndarray, freq_ratio: float, time_ratio: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Zero one frequency band and one time band of a copy of ``mel``.

    Band widths are floor(ratio * dim); zero-width bands are skipped, so
    ratios (0, 0) return an identical copy.
    """
    if not (0.0 <= freq_ratio < 1.0) or not (0.0 <= time_ratio < 1.0):
        raise ParameterError(
            f"mask ratios must lie in [0, 1), got ({freq_ratio}, {time_ratio})")
    out = np.array(mel, dtype=np.float64, copy=True)
    if out.ndim != 2:
        raise ParameterError("mel grid must be 2-D")
    f_bins, t_frames = out.shape
    f_width = int(freq_ratio * f_bins)
    t_width = int(time_ratio * t_frames)
    if f_width > 0:
        f0 = int(rng.integers(0, f_bins - f_width + 1))
        out[f0:f0 + f_width, :] = 0.0
    if t_width > 0:
        t0 = int(rng.integers(0, t_frames - t_width + 1))
        out[:, t0:t0 + t_width] = 0.0
    return out


def weak_pair(candidates: list[np.ndarray], row: int,
              rng: np.random.Generator) -> int:
    """A same-class row from a different video, uniform over the
    ``weak_candidates`` of ``row``."""
    pool = candidates[row]
    return int(pool[rng.integers(0, len(pool))])
