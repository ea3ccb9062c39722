"""Procedural tri-modal dataset: mel-like audio grids, label token ids, and
images with class structure, per-sample intensity, video grouping, and a
deliberate class-conditional nuisance pattern.

Every record of a video shares that video's offsets; audio amplitude is
scaled by a per-record intensity; images are dominated by low-frequency
cosine bands (as natural images are), while the nuisance pattern lives in
the mid bands so it is visually orthogonal to class content.

In memory a dataset is a ``Dataset``: the same five columns its ``.tmd``
files hold (audio, image, text token ids, the class/video/nuisance ids and
intensity), one row per record. A record's text is its class label as a row
of token ids into ``augment.WORDS`` (``label_tokens``); it stays ids all the
way to the encoders, which read it as a bag of tokens. ``ds[i]`` gives a
one-row ``TriModalRecord`` view, built on demand. ``load_dataset`` checks
the columns against ``manifest.txt`` before it returns them.
"""

from __future__ import annotations

import logging
import math
import os
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import kvtext
from .augment import CLASS_LABEL_WORDS, TOKEN_ID, VOCAB_SIZE, spec_augment
from .basis import band_of_rows, cosine_basis, image_side
from .errors import DegenerateInputError, ParameterError, UsageError
from .files import read_text, write_atomic

log = logging.getLogger(__name__)

LABEL_TOKENS_PER_CLASS = 2


@dataclass(frozen=True)
class TriModalRecord:
    """One row of a ``Dataset``, built on demand by ``Dataset.__getitem__``."""

    audio: np.ndarray      # (freq_bins, time_frames)
    text: np.ndarray       # (LABEL_TOKENS_PER_CLASS,) token ids
    image: np.ndarray      # (pixels,)
    class_id: int
    video_id: int
    intensity: float
    nuisance_id: int = -1  # pattern stamped into the image, -1 if none


@dataclass(frozen=True, eq=False)
class Dataset:
    """The dataset as columns, the same ones its ``.tmd`` files hold: row i
    of every array is record i. ``ds[i]`` gives a one-row ``TriModalRecord``
    view, so iterating yields one view per row; ``take`` selects rows."""

    audio: np.ndarray        # (n, freq_bins, time_frames) float64
    image: np.ndarray        # (n, pixels) float64
    text: np.ndarray         # (n, LABEL_TOKENS_PER_CLASS) int32 token ids
    class_id: np.ndarray     # (n,) int32
    video_id: np.ndarray     # (n,) int32
    nuisance_id: np.ndarray  # (n,) int32, pattern in the image, -1 if none
    intensity: np.ndarray    # (n,) float64

    def __len__(self) -> int:
        return len(self.class_id)

    def __getitem__(self, i: int) -> TriModalRecord:
        # an index past the end raises IndexError, which ends iteration
        return TriModalRecord(
            self.audio[i], self.text[i], self.image[i], int(self.class_id[i]),
            int(self.video_id[i]), float(self.intensity[i]),
            int(self.nuisance_id[i]))

    def take(self, rows) -> "Dataset":
        """The rows picked by an index array or a boolean mask, in order."""
        return Dataset(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass
class DatasetManifest:
    classes: int = 8
    videos_per_class: int = 6
    records_per_video: int = 8
    freq_bins: int = 20
    time_frames: int = 10
    pixels: int = 64
    seed: int = 0
    bias_cooccurrence: float = 0.8
    audio_video_offset: float = 0.7
    image_video_offset: float = 0.7
    audio_noise: float = 0.005
    image_noise: float = 0.01
    nuisance_scale: float = 0.5
    intensity_min: float = 0.2
    intensity_max: float = 1.0
    bias_spec: dict[int, int] = field(default_factory=lambda: {0: 0, 1: 0})

    def validate(self) -> None:
        counts = (self.classes, self.videos_per_class, self.records_per_video,
                  self.freq_bins, self.time_frames, self.pixels)
        if any(c < 1 for c in counts):
            raise ParameterError("manifest counts must all be >= 1")
        if self.classes > len(CLASS_LABEL_WORDS):
            raise ParameterError(
                f"at most {len(CLASS_LABEL_WORDS)} classes are supported")
        image_side(self.pixels)
        if not (0.2 <= self.intensity_min <= self.intensity_max <= 1.0):
            raise ParameterError("intensity range must sit inside [0.2, 1.0]")
        if not (0.0 <= self.bias_cooccurrence <= 1.0):
            raise ParameterError("bias_cooccurrence must lie in [0, 1]")
        for key in ("audio_video_offset", "image_video_offset", "audio_noise",
                    "image_noise", "nuisance_scale"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0.0):
                raise ParameterError(
                    f"{key} must be finite and >= 0, got {value!r}")
        for c, pattern in self.bias_spec.items():
            if not (0 <= c < self.classes):
                raise ParameterError(f"bias_spec class {c} out of range")
            if not (0 <= pattern < self.classes):
                raise ParameterError(f"bias_spec pattern {pattern} of class "
                                     f"{c} must lie in [0, {self.classes})")

    @property
    def record_count(self) -> int:
        return self.classes * self.videos_per_class * self.records_per_video


def label_tokens(class_id: int) -> np.ndarray:
    """The token ids of a class's label words, as an int32 row."""
    return np.array([TOKEN_ID[w] for w in CLASS_LABEL_WORDS[class_id]],
                    dtype=np.int32)


def _unit(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a)


def _image_spectrum(pixels: int) -> np.ndarray:
    # per-coefficient std, halving with every band: coarse-dominant images
    return 0.5 ** band_of_rows(image_side(pixels)).astype(np.float64)


def _nuisance_pattern(rng: np.random.Generator, pixels: int) -> np.ndarray:
    # mid-band energy only, so the pattern is orthogonal to the DC-heavy
    # class templates yet easy for a probe to find
    side = image_side(pixels)
    bands = band_of_rows(side)
    lo, hi = side // 2, side - 2
    coeffs = rng.standard_normal(pixels) * ((bands >= lo) & (bands <= hi))
    return _unit(coeffs @ cosine_basis(side))


def generate_dataset(manifest: DatasetManifest) -> Dataset:
    """Deterministically expand a manifest into a dataset.

    Biased classes receive the shared nuisance pattern on an exact quota of
    videos (round(cooccurrence * videos_per_class)); the pattern-free videos
    are drawn among all but the final video of the class so the held-out
    split keeps the bias intact.
    """
    manifest.validate()
    m = manifest
    rng = np.random.default_rng(m.seed)
    basis = cosine_basis(image_side(m.pixels))
    spectrum = _image_spectrum(m.pixels)

    audio_templates = [_unit(rng.standard_normal((m.freq_bins, m.time_frames)))
                       for _ in range(m.classes)]
    # orthonormalize class image templates in coefficient space so visually
    # distinct classes stay distinct after the coarse-band spectral weighting
    raw_coeffs = rng.standard_normal((m.classes, m.pixels)) * spectrum
    ortho, _ = np.linalg.qr(raw_coeffs.T)
    image_templates = [_unit(ortho[:, c] @ basis) for c in range(m.classes)]
    n_patterns = max(m.bias_spec.values(), default=-1) + 1
    patterns = [_nuisance_pattern(rng, m.pixels) for _ in range(n_patterns)]

    n_videos = m.classes * m.videos_per_class
    video_id = np.repeat(np.arange(n_videos, dtype=np.int32),
                         m.records_per_video)
    video_nuisance = np.full(n_videos, -1, dtype=np.int32)
    audio = np.empty((m.record_count, m.freq_bins, m.time_frames))
    image = np.empty((m.record_count, m.pixels))
    intensity = np.empty(m.record_count)
    for c in range(m.classes):
        nuisance_videos = _nuisance_video_set(m, c, rng)
        for j in range(m.videos_per_class):
            v = c * m.videos_per_class + j
            audio_off = _unit(rng.standard_normal((m.freq_bins, m.time_frames)))
            image_off = _unit((rng.standard_normal(m.pixels) * spectrum) @ basis)
            base_image = image_templates[c] + m.image_video_offset * image_off
            if j in nuisance_videos:
                video_nuisance[v] = m.bias_spec[c]
                base_image = base_image + m.nuisance_scale * patterns[m.bias_spec[c]]
            for i in range(v * m.records_per_video,
                           (v + 1) * m.records_per_video):
                intensity[i] = rng.uniform(m.intensity_min, m.intensity_max)
                audio[i] = intensity[i] * (audio_templates[c]
                                           + m.audio_video_offset * audio_off)
                audio[i] += m.audio_noise * rng.standard_normal(
                    (m.freq_bins, m.time_frames))
                image[i] = base_image + m.image_noise * rng.standard_normal(m.pixels)
    labels = np.array([label_tokens(c) for c in range(m.classes)])
    class_id = video_id // np.int32(m.videos_per_class)
    return Dataset(audio=audio, image=image, text=labels[class_id],
                   class_id=class_id, video_id=video_id,
                   nuisance_id=video_nuisance[video_id], intensity=intensity)


def _nuisance_video_set(m: DatasetManifest, class_id: int,
                        rng: np.random.Generator) -> set[int]:
    if class_id not in m.bias_spec:
        return set()
    quota = int(round(m.bias_cooccurrence * m.videos_per_class))
    quota = min(quota, m.videos_per_class)
    n_clean = m.videos_per_class - quota
    if n_clean == 0:
        return set(range(m.videos_per_class))
    # clean videos never include the final (held-out) video of the class
    pool = max(m.videos_per_class - 1, 1)
    clean = set(int(v) for v in rng.choice(pool, size=min(n_clean, pool),
                                           replace=False))
    return set(range(m.videos_per_class)) - clean


def heldout_mask(ds: Dataset, manifest: DatasetManifest) -> np.ndarray:
    """The rows of each class's final video, the held-out split."""
    v = manifest.videos_per_class
    return ds.video_id % v == v - 1


def split_by_video(ds: Dataset,
                   manifest: DatasetManifest) -> tuple[Dataset, Dataset]:
    """Train/held-out split by ``heldout_mask``."""
    held = heldout_mask(ds, manifest)
    return ds.take(~held), ds.take(held)


def group_rows(keys: np.ndarray) -> list[np.ndarray]:
    """Row indices of each distinct key, keys in order of first appearance."""
    _, first = np.unique(keys, return_index=True)
    return [np.flatnonzero(keys == keys[f]) for f in np.sort(first)]


@dataclass(frozen=True)
class MiniBatch:
    rows: np.ndarray        # (n,) dataset rows, in draw order
    audio: np.ndarray       # (n, F, T)
    audio_aug: np.ndarray   # (n, F, T)
    text: np.ndarray        # (n, k) token ids


def sample_minibatch(ds: Dataset, n: int, rng: np.random.Generator,
                     freq_mask_ratio: float,
                     time_mask_ratio: float) -> MiniBatch:
    """n distinct records without replacement, plus their augmented audio."""
    if n < 2:
        raise UsageError("minibatch needs at least 2 records")
    if n > len(ds):
        raise UsageError(f"cannot draw {n} records from {len(ds)}")
    rows = rng.choice(len(ds), size=n, replace=False)
    audio = ds.audio[rows]
    audio_aug = spec_augment(audio, freq_mask_ratio, time_mask_ratio, rng)
    return MiniBatch(rows, audio, audio_aug, ds.text[rows])


def weak_candidates(ds: Dataset) -> list[np.ndarray]:
    """For each row, the rows ``sample_weak_pairs`` chooses among: the
    same-class rows of other videos, in row order.

    A class with a single video falls back to all of its rows, with one
    logged warning per class.
    """
    per_row: list[np.ndarray] = [None] * len(ds)
    for rows in group_rows(ds.video_id):
        same_class = np.flatnonzero(ds.class_id == ds.class_id[rows[0]])
        pool = same_class[ds.video_id[same_class] != ds.video_id[rows[0]]]
        if pool.size == 0:
            log.warning("weak pair fallback: class %d has a single video",
                        ds.class_id[rows[0]])
            pool = same_class
        for i in rows:
            per_row[i] = pool
    return per_row


def sample_from_each(pools: list[np.ndarray],
                     rng: np.random.Generator) -> np.ndarray:
    """One element of each pool, uniform: one draw per pool, in pool order,
    made in one call (the values and rng state of one scalar draw each)."""
    picks = rng.integers(0, np.array([len(p) for p in pools], dtype=np.int64))
    return np.array([p[k] for p, k in zip(pools, picks)], dtype=np.int64)


def sample_weak_pairs(candidates: list[np.ndarray], rows,
                      rng: np.random.Generator) -> np.ndarray:
    """For each of ``rows``, a same-class row from a different video,
    uniform over its ``weak_candidates``."""
    return sample_from_each([candidates[i] for i in rows], rng)


# ---------------------------------------------------------------------------
# persistence: manifest as key=value text, one flat binary file per modality

_MAGIC = b"TMD1"


def _write_tmd(path: Path, arr: np.ndarray) -> None:
    if arr.dtype not in (np.float64, np.int32):
        raise UsageError(f"unsupported dtype {arr.dtype}")
    header = struct.pack(f"<4sii{arr.ndim - 1}i", _MAGIC, arr.shape[0],
                         arr.ndim - 1, *arr.shape[1:])
    body = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
    write_atomic(path, header + body)


def _read_tmd(path: Path, dtype, expected: tuple[int, ...]) -> np.ndarray:
    """The array in a TMD1 file, which must have shape ``expected``, read
    straight into its own array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if head[:4] != _MAGIC:
            raise UsageError(f"{path}: bad magic {head[:4]!r}")
        if size < 12:
            raise UsageError(f"{path}: truncated header ({size} bytes)")
        count, ndim = struct.unpack_from("<ii", head, 4)
        body = size - 12 - 4 * ndim
        if ndim < 0 or body < 0:
            raise UsageError(f"{path}: truncated header ({size} bytes, "
                             f"{ndim} dims)")
        shape = (count, *struct.unpack(f"<{ndim}i", fh.read(4 * ndim)))
        if shape != expected:
            raise UsageError(f"{path}: shape {shape} does not match "
                             f"{expected} from manifest.txt")
        arr = np.empty(math.prod(shape), dtype=dtype)
        # a short read (the file shrank meanwhile) fills less of arr
        if body != arr.nbytes or fh.readinto(arr.view(np.uint8)) != body:
            raise UsageError(f"{path}: body of {body} bytes does not match "
                             f"shape {shape}")
    return arr.reshape(shape).astype(arr.dtype.newbyteorder("="), copy=False)


def manifest_to_text(m: DatasetManifest) -> str:
    return kvtext.to_text(m)


def manifest_from_text(text: str, source: str = "manifest") -> DatasetManifest:
    """The manifest that ``text`` writes out in full; a missing key is an
    error, never a default."""
    return kvtext.update_from_text(DatasetManifest(), text, source,
                                   complete=True)


def save_dataset(dirpath, manifest: DatasetManifest, ds: Dataset) -> None:
    d = Path(dirpath)
    write_atomic(d / "manifest.txt", manifest_to_text(manifest))
    _write_tmd(d / "audio.tmd", ds.audio)
    _write_tmd(d / "image.tmd", ds.image)
    _write_tmd(d / "text.tmd", ds.text)
    _write_tmd(d / "ids.tmd",
               np.stack([ds.class_id, ds.video_id, ds.nuisance_id], axis=1))
    _write_tmd(d / "intensity.tmd", ds.intensity[:, None])


def load_dataset(dirpath) -> tuple[DatasetManifest, Dataset]:
    """Read a dataset directory, checking its columns against the manifest."""
    d = Path(dirpath)
    path = d / "manifest.txt"
    m = manifest_from_text(read_text(path), str(path))
    try:
        m.validate()
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None

    def read(name, dtype, *dims):
        return _read_tmd(d / f"{name}.tmd", dtype, (m.record_count, *dims))

    audio = read("audio", "<f8", m.freq_bins, m.time_frames)
    image = read("image", "<f8", m.pixels)
    text = read("text", "<i4", LABEL_TOKENS_PER_CLASS)
    ids = read("ids", "<i4", 3)
    intensity = read("intensity", "<f8", 1)
    for name, column in (("audio", audio), ("image", image),
                         ("intensity", intensity)):
        if not np.isfinite(column).all():
            raise DegenerateInputError(f"{d / name}.tmd: NaN or Inf value")
    class_id, video_id = ids[:, 0], ids[:, 1]
    if np.any((class_id < 0) | (class_id >= m.classes)
              | (video_id // m.videos_per_class != class_id)):
        raise UsageError(f"{d / 'ids.tmd'}: ids outside {m.classes} classes "
                         f"of {m.videos_per_class} videos")
    # a record's nuisance id is -1 or its class's bias_spec pattern
    pattern = np.full(m.classes, -1)
    pattern[list(m.bias_spec)] = list(m.bias_spec.values())
    if np.any((ids[:, 2] != -1) & (ids[:, 2] != pattern[class_id])):
        raise UsageError(f"{d / 'ids.tmd'}: nuisance id other than -1 or "
                         f"its class's bias_spec pattern")
    if np.any((text < 0) | (text >= VOCAB_SIZE)):
        raise UsageError(f"{d / 'text.tmd'}: token id outside the "
                         f"{VOCAB_SIZE}-word vocabulary")
    return m, Dataset(audio=audio, image=image, text=text, class_id=class_id,
                      video_id=video_id, nuisance_id=ids[:, 2],
                      intensity=intensity[:, 0])
