"""Audio and text augmentation, and the text vocabulary.

Audio augmentation zeroes one contiguous band of frequency rows and one of
time columns in each grid of a batch (widths floor(ratio * dim), positions
uniform, all drawn in one call).

Text is carried as rows of token ids, indices into ``WORDS``, and reaches
the encoders only as bags: token count rows from ``bag_matrix``. Text
augmentation works on those bags. ``augment_bags`` adds a synonym of one of
the row's words and one random word to its counts, each with probability
``prob``; the original tokens are never removed.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, UsageError

# Built-in class labels, their synonyms, and filler words. The synonym table
# stands in for a real thesaurus.
CLASS_LABEL_WORDS = (
    ("wave", "crashing"),
    ("rain", "falling"),
    ("thunder", "rolling"),
    ("bird", "singing"),
    ("dog", "barking"),
    ("fire", "crackling"),
    ("wind", "howling"),
    ("engine", "humming"),
)

SYNONYMS: dict[str, tuple[str, ...]] = {
    "wave": ("surf",),
    "rain": ("drizzle",),
    "thunder": ("storm",),
    "bird": ("chirp",),
    "dog": ("hound",),
    "fire": ("flame",),
    "wind": ("gust",),
    "engine": ("motor",),
}

_FILLER_WORDS = ("loud", "soft", "distant", "near")

# the vocabulary: token id i is WORDS[i]
WORDS: tuple[str, ...] = (*(w for pair in CLASS_LABEL_WORDS for w in pair),
                          *(s for syns in SYNONYMS.values() for s in syns),
                          *_FILLER_WORDS)
VOCAB_SIZE = len(WORDS)
TOKEN_ID = {w: i for i, w in enumerate(WORDS)}
SYNONYM_IDS: dict[int, tuple[int, ...]] = {
    TOKEN_ID[w]: tuple(TOKEN_ID[s] for s in syns) for w, syns in SYNONYMS.items()}


def spec_augment(mels: np.ndarray, freq_ratio: float, time_ratio: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Zero one frequency band and one time band of each grid in a copy of
    the (n, freq_bins, time_frames) stack ``mels``.

    Band widths are floor(ratio * dim); zero-width bands are skipped, so
    ratios (0, 0) return an identical copy. Band starts are uniform, drawn
    in one call in the order of one scalar draw per band: each row's
    frequency start, then its time start. A skipped band draws nothing.
    """
    if not (0.0 <= freq_ratio < 1.0) or not (0.0 <= time_ratio < 1.0):
        raise ParameterError(
            f"mask ratios must lie in [0, 1), got ({freq_ratio}, {time_ratio})")
    mels = np.asarray(mels, dtype=np.float64)
    if mels.ndim != 3:
        raise ParameterError("mel grids must come as an (n, F, T) stack")
    n = len(mels)
    bands = [(dim, int(ratio * dim))
             for dim, ratio in zip(mels.shape[1:], (freq_ratio, time_ratio))]
    highs = [dim - width + 1 for dim, width in bands if width > 0]
    drawn = rng.integers(0, np.tile(highs, n).astype(np.int64))
    starts = iter(drawn.reshape(n, len(highs)).T)
    masks = []
    for dim, width in bands:
        # (n, dim) rows of the band; a skipped band's mask is one False row
        start = next(starts)[:, None] if width > 0 else 0
        offset = np.arange(dim) - start
        masks.append((offset >= 0) & (offset < width))
    f_band, t_band = masks
    return np.where(f_band[..., :, None] | t_band[..., None, :], 0.0, mels)


def bag_matrix(token_rows) -> np.ndarray:
    """(n, VOCAB_SIZE) float64 token counts of n equal-length id rows."""
    rows = np.atleast_2d(np.asarray(token_rows, dtype=np.intp))
    if rows.size and (rows.min() < 0 or rows.max() >= VOCAB_SIZE):
        raise UsageError("token id outside vocabulary")
    bags = np.zeros((len(rows), VOCAB_SIZE))
    np.add.at(bags, (np.arange(len(rows))[:, None], rows), 1.0)
    return bags


def _pick(rng: np.random.Generator, n: int) -> int:
    """``rng.integers(0, n)``, with no call for a one-element pool: that
    draw is 0 and leaves the generator's state as it was."""
    return rng.integers(0, n) if n > 1 else 0


def augment_bags(token_rows, rng: np.random.Generator,
                 prob: float) -> np.ndarray:
    """Bags of the id rows, each enriched by synonym insertion, then a
    permutation, then random-word insertion.

    Each stage fires independently with probability ``prob`` and always
    consumes its stage-decision draw. A bag has no order, so the
    permutation and the insert positions cannot change it; they are still
    drawn, and dropped, so the rng stream moves exactly as it does when
    the augmented token sequences are built.
    """
    rows = np.atleast_2d(np.asarray(token_rows))
    if rows.shape[1] == 0:
        raise UsageError("cannot augment an empty token sequence")
    bags = bag_matrix(rows)
    for bag, row in zip(bags, rows.tolist()):
        length = len(row)
        if rng.random() < prob:
            candidates = [t for t in row if t in SYNONYM_IDS]
            if candidates:
                syns = SYNONYM_IDS[candidates[_pick(rng, len(candidates))]]
                bag[syns[_pick(rng, len(syns))]] += 1.0
                rng.integers(0, length + 1)    # insert position
                length += 1
        if rng.random() < prob:
            rng.permutation(length)
        if rng.random() < prob:
            bag[rng.integers(0, VOCAB_SIZE)] += 1.0
            rng.integers(0, length + 1)        # insert position
    return bags
