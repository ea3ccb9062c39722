"""Procedural tri-modal dataset: mel-like audio grids, label token sequences,
and images with class structure, per-sample intensity, video grouping, and a
deliberate class-conditional nuisance pattern.

Every record of a video shares that video's offsets; audio amplitude is
scaled by a per-record intensity; images are dominated by low-frequency
cosine bands (as natural images are), while the nuisance pattern lives in
the mid bands so it is visually orthogonal to class content.
"""

from __future__ import annotations

import logging
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kvtext
from .augment import (CLASS_LABEL_WORDS, TokenSeq, Vocabulary,
                      default_vocabulary, spec_augment)
from .basis import band_of_rows, cosine_basis, image_side
from .errors import ParameterError, UsageError

log = logging.getLogger(__name__)

LABEL_TOKENS_PER_CLASS = 2


@dataclass(frozen=True)
class TriModalRecord:
    audio: np.ndarray      # (freq_bins, time_frames)
    text: TokenSeq
    image: np.ndarray      # (pixels,)
    class_id: int
    video_id: int
    intensity: float
    nuisance_id: int = -1  # pattern stamped into the image, -1 if none


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
        for c in self.bias_spec:
            if not (0 <= c < self.classes):
                raise ParameterError(f"bias_spec class {c} out of range")

    @property
    def record_count(self) -> int:
        return self.classes * self.videos_per_class * self.records_per_video


def label_token_seq(vocab: Vocabulary, class_id: int) -> TokenSeq:
    words = CLASS_LABEL_WORDS[class_id]
    return TokenSeq(tuple(vocab.id_of(w) for w in words), vocab)


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


def generate_dataset(manifest: DatasetManifest) -> list[TriModalRecord]:
    """Deterministically expand a manifest into records.

    Biased classes receive the shared nuisance pattern on an exact quota of
    videos (round(cooccurrence * videos_per_class)); the pattern-free videos
    are drawn among all but the final video of the class so the held-out
    split keeps the bias intact.
    """
    manifest.validate()
    m = manifest
    rng = np.random.default_rng(m.seed)
    vocab = default_vocabulary()
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

    records: list[TriModalRecord] = []
    for c in range(m.classes):
        text = label_token_seq(vocab, c)
        nuisance_videos = _nuisance_video_set(m, c, rng)
        for j in range(m.videos_per_class):
            video_id = c * m.videos_per_class + j
            audio_off = _unit(rng.standard_normal((m.freq_bins, m.time_frames)))
            image_off = _unit((rng.standard_normal(m.pixels) * spectrum) @ basis)
            pattern_id = m.bias_spec.get(c, -1) if j in nuisance_videos else -1
            base_image = image_templates[c] + m.image_video_offset * image_off
            if pattern_id >= 0:
                base_image = base_image + m.nuisance_scale * patterns[pattern_id]
            for _ in range(m.records_per_video):
                intensity = float(rng.uniform(m.intensity_min, m.intensity_max))
                audio = intensity * (audio_templates[c]
                                     + m.audio_video_offset * audio_off)
                audio = audio + m.audio_noise * rng.standard_normal(
                    (m.freq_bins, m.time_frames))
                image = base_image + m.image_noise * rng.standard_normal(m.pixels)
                records.append(TriModalRecord(
                    audio=audio, text=text, image=image, class_id=c,
                    video_id=video_id, intensity=intensity,
                    nuisance_id=pattern_id))
    return records


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


def split_by_video(records: list[TriModalRecord],
                   manifest: DatasetManifest) -> tuple[list[TriModalRecord],
                                                       list[TriModalRecord]]:
    """Train/held-out split holding out each class's final video."""
    v = manifest.videos_per_class
    train = [r for r in records if r.video_id % v != v - 1]
    held = [r for r in records if r.video_id % v == v - 1]
    return train, held


@dataclass(frozen=True)
class MiniBatch:
    records: tuple[TriModalRecord, ...]
    audio: np.ndarray       # (n, F, T)
    audio_aug: np.ndarray   # (n, F, T)
    images: np.ndarray      # (n, P)

    @property
    def texts(self) -> tuple[TokenSeq, ...]:
        return tuple(r.text for r in self.records)


def sample_minibatch(records: list[TriModalRecord], n: int,
                     rng: np.random.Generator, freq_mask_ratio: float = 0.15,
                     time_mask_ratio: float = 0.3) -> MiniBatch:
    """n distinct records without replacement, plus their augmented audio."""
    if n < 2:
        raise UsageError("minibatch needs at least 2 records")
    if n > len(records):
        raise UsageError(f"cannot draw {n} records from {len(records)}")
    idx = rng.choice(len(records), size=n, replace=False)
    chosen = tuple(records[int(i)] for i in idx)
    audio = np.stack([r.audio for r in chosen])
    audio_aug = np.stack([
        spec_augment(r.audio, freq_mask_ratio, time_mask_ratio, rng)
        for r in chosen])
    images = np.stack([r.image for r in chosen])
    return MiniBatch(chosen, audio, audio_aug, images)


def sample_weak_pair(records: list[TriModalRecord], record: TriModalRecord,
                     rng: np.random.Generator) -> TriModalRecord:
    """A same-class record from a different video, uniform over candidates.

    Falls back to a same-video record (with a logged warning) when the class
    has no other video in the pool.
    """
    candidates = [r for r in records
                  if r.class_id == record.class_id and r.video_id != record.video_id]
    if not candidates:
        log.warning("weak pair fallback: class %d has a single video",
                    record.class_id)
        candidates = [r for r in records if r.class_id == record.class_id]
        if not candidates:
            raise UsageError("record's class not present in the pool")
    return candidates[int(rng.integers(0, len(candidates)))]


def weak_candidate_counts(records: list[TriModalRecord],
                          ) -> dict[tuple[int, int], int]:
    """How many records ``sample_weak_pair`` chooses among, per
    (class_id, video_id) of the pool, counting its single-video fallback."""
    per_class = Counter(r.class_id for r in records)
    per_video = Counter((r.class_id, r.video_id) for r in records)
    counts = {}
    for (c, v), n in per_video.items():
        counts[(c, v)] = per_class[c] - n
        if counts[(c, v)] == 0:
            log.warning("weak pair fallback: class %d has a single video", c)
            counts[(c, v)] = per_class[c]
    return counts


# ---------------------------------------------------------------------------
# persistence: manifest as key=value text, one flat binary file per modality

_MAGIC = b"TMD1"


def _write_tmd(path: Path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<i", arr.shape[0]))
        fh.write(struct.pack("<i", arr.ndim - 1))
        for d in arr.shape[1:]:
            fh.write(struct.pack("<i", d))
        if arr.dtype == np.float64:
            fh.write(arr.astype("<f8").tobytes())
        elif arr.dtype == np.int32:
            fh.write(arr.astype("<i4").tobytes())
        else:
            raise UsageError(f"unsupported dtype {arr.dtype}")


def _read_tmd(path: Path, dtype) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:4] != _MAGIC:
        raise UsageError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 12:
        raise UsageError(f"{path}: truncated header ({len(blob)} bytes)")
    count, ndim = struct.unpack_from("<ii", blob, 4)
    body_start = 12 + 4 * ndim
    if ndim < 0 or len(blob) < body_start:
        raise UsageError(f"{path}: truncated header ({len(blob)} bytes, "
                         f"{ndim} dims)")
    shape = (count, *struct.unpack_from(f"<{ndim}i", blob, 12))
    body = len(blob) - body_start
    if min(shape) < 0 or body != math.prod(shape) * np.dtype(dtype).itemsize:
        raise UsageError(f"{path}: body of {body} bytes does not match "
                         f"shape {shape}")
    arr = np.frombuffer(blob, dtype=dtype, offset=body_start).reshape(shape)
    return arr.astype(arr.dtype.newbyteorder("="), copy=True)


def manifest_to_text(m: DatasetManifest) -> str:
    return kvtext.to_text(m)


def manifest_from_text(text: str, source: str = "manifest") -> DatasetManifest:
    return kvtext.update_from_text(DatasetManifest(), text, source)


def save_dataset(dirpath, manifest: DatasetManifest,
                 records: list[TriModalRecord]) -> None:
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    (d / "manifest.txt").write_text(manifest_to_text(manifest), encoding="utf-8")
    _write_tmd(d / "audio.tmd", np.stack([r.audio for r in records]))
    _write_tmd(d / "image.tmd", np.stack([r.image for r in records]))
    _write_tmd(d / "text.tmd", np.array([r.text.tokens for r in records],
                                        dtype=np.int32))
    ids = np.array([[r.class_id, r.video_id, r.nuisance_id] for r in records],
                   dtype=np.int32)
    _write_tmd(d / "ids.tmd", ids)
    _write_tmd(d / "intensity.tmd",
               np.array([[r.intensity] for r in records]))


def load_dataset(dirpath) -> tuple[DatasetManifest, list[TriModalRecord]]:
    d = Path(dirpath)
    path = d / "manifest.txt"
    manifest = manifest_from_text(path.read_text(encoding="utf-8"), str(path))
    audio = _read_tmd(d / "audio.tmd", "<f8")
    image = _read_tmd(d / "image.tmd", "<f8")
    text = _read_tmd(d / "text.tmd", "<i4")
    ids = _read_tmd(d / "ids.tmd", "<i4")
    intensity = _read_tmd(d / "intensity.tmd", "<f8")
    vocab = default_vocabulary()
    records = []
    for i in range(audio.shape[0]):
        records.append(TriModalRecord(
            audio=audio[i], text=TokenSeq(tuple(int(t) for t in text[i]), vocab),
            image=image[i], class_id=int(ids[i, 0]), video_id=int(ids[i, 1]),
            intensity=float(intensity[i, 0]), nuisance_id=int(ids[i, 2])))
    return manifest, records
