"""Plain-text (P2) portable graymap output for eyeballing images.

Float images are min-max scaled to 0..maxval per file; the original range
is preserved in a comment line so nothing is lost for later inspection.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .files import write_atomic


def write_pgm(path, image: np.ndarray, maxval: int = 255) -> None:
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 1:
        side = int(round(np.sqrt(img.size)))
        if side * side != img.size:
            raise UsageError("flat image length is not a perfect square")
        img = img.reshape(side, side)
    if img.ndim != 2:
        raise UsageError("PGM wants a 2-D image")
    lo, hi = float(img.min()), float(img.max())
    scale = (img - lo) / (hi - lo) if hi > lo else np.zeros_like(img)
    pixels = np.rint(scale * maxval).astype(int)
    lines = [f"P2", f"# range {lo!r} {hi!r}", f"{img.shape[1]} {img.shape[0]}",
             str(maxval)]
    for row in pixels:
        lines.append(" ".join(str(v) for v in row))
    write_atomic(path, "\n".join(lines) + "\n")
