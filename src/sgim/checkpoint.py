"""Binary checkpoint container and model (de)serialization.

Layout, all little-endian:

    magic   b"SGIM1\\0"
    seed    int64
    config  uint32 length + utf-8 key=value text
    count   uint32
    arrays  count times: uint16 name length + utf-8 name,
            uint8 ndim, int32 dims, float64 payload

Loading a saved checkpoint reproduces every byte of every array.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .encoders import PARAM_KEYS, EncoderParams, TeacherParams
from .errors import UsageError
from .generator import GeneratorFit, GeneratorParams

MAGIC = b"SGIM1\x00"


def save_checkpoint(path, arrays: dict[str, np.ndarray], config_text: str,
                    seed: int) -> None:
    """Writes the checkpoint atomically: the whole blob goes to a temp file
    beside ``path``, which then replaces it, so a write that fails leaves
    any old file whole and no temp file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = config_text.encode("utf-8")
    parts = [MAGIC, struct.pack("<q", seed), struct.pack("<I", len(blob)),
             blob, struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64, order="C")
        encoded = name.encode("utf-8")
        parts += [struct.pack("<H", len(encoded)), encoded,
                  struct.pack("<B", arr.ndim),
                  *(struct.pack("<i", d) for d in arr.shape),
                  arr.astype("<f8", copy=False).data]
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(b"".join(parts))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read(fh, n: int, path: Path) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise UsageError(f"{path}: truncated checkpoint (wanted {n} bytes at "
                         f"offset {fh.tell() - len(data)}, got {len(data)})")
    return data


def _unpack(fh, fmt: str, path: Path):
    return struct.unpack(fmt, _read(fh, struct.calcsize(fmt), path))[0]


def _text(fh, len_fmt: str, path: Path) -> str:
    try:
        return _read(fh, _unpack(fh, len_fmt, path), path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: checkpoint text is not utf-8: {exc}") from exc


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str, int]:
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise UsageError(f"{path}: not a checkpoint (magic {magic!r})")
        seed = _unpack(fh, "<q", path)
        config_text = _text(fh, "<I", path)
        count = _unpack(fh, "<I", path)
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            name = _text(fh, "<H", path)
            ndim = _unpack(fh, "<B", path)
            shape = tuple(_unpack(fh, "<i", path) for _ in range(ndim))
            if any(d < 0 for d in shape):
                raise UsageError(f"{path}: array {name!r} has shape {shape}")
            data = np.frombuffer(_read(fh, 8 * math.prod(shape), path),
                                 dtype="<f8")
            arrays[name] = data.reshape(shape).astype(np.float64, copy=True)
    return arrays, config_text, seed


def encoder_arrays(prefix: str, params: EncoderParams) -> dict[str, np.ndarray]:
    return {f"{prefix}.{k}": v for k, v in params.arrays().items()}


def encoder_from_arrays(prefix: str, arrays: dict[str, np.ndarray],
                        frozen: bool = False) -> EncoderParams:
    try:
        parts = [arrays[f"{prefix}.{k}"] for k in PARAM_KEYS]
    except KeyError as exc:
        raise UsageError(f"checkpoint missing {exc.args[0]}") from exc
    return EncoderParams(*parts, frozen=frozen)


def teacher_arrays(teacher: TeacherParams) -> dict[str, np.ndarray]:
    return {**encoder_arrays("text", teacher.text),
            **encoder_arrays("image", teacher.image)}


def teacher_from_arrays(arrays: dict[str, np.ndarray]) -> TeacherParams:
    return TeacherParams(text=encoder_from_arrays("text", arrays, frozen=True),
                         image=encoder_from_arrays("image", arrays, frozen=True))


def generator_arrays(fit: GeneratorFit) -> dict[str, np.ndarray]:
    out = {f"gen.mod{k}": m for k, m in enumerate(fit.params.layer_mods)}
    out["gen.bias"] = fit.params.bias
    out["gen.latents"] = fit.latents.reshape(fit.latents.shape[0], -1)
    return out


def generator_from_arrays(arrays: dict[str, np.ndarray]) -> GeneratorFit:
    mods = []
    k = 0
    while f"gen.mod{k}" in arrays:
        mods.append(arrays[f"gen.mod{k}"])
        k += 1
    if not mods or "gen.bias" not in arrays:
        raise UsageError("checkpoint does not hold a generator")
    side = len(mods)
    latent_dim = mods[0].shape[0]
    params = GeneratorParams(side, latent_dim, mods, arrays["gen.bias"])
    latents = arrays.get("gen.latents")
    if latents is not None:
        latents = latents.reshape(latents.shape[0], side, latent_dim)
    else:
        latents = np.zeros((0, side, latent_dim))
    return GeneratorFit(params, latents)


def latent_arrays(w: np.ndarray, gate: np.ndarray | None = None,
                  ) -> dict[str, np.ndarray]:
    out = {"latent.w": np.asarray(w, float)}
    if gate is not None:
        out["latent.gate"] = np.asarray(gate, float)
    return out


def latent_from_arrays(arrays: dict[str, np.ndarray],
                       ) -> tuple[np.ndarray, np.ndarray | None]:
    if "latent.w" not in arrays:
        raise UsageError("checkpoint does not hold a latent code")
    return arrays["latent.w"], arrays.get("latent.gate")
