"""Atomic writes for every artifact the pipeline leaves, and the checked
read of its text artifacts."""

from __future__ import annotations

import os
from pathlib import Path

from .errors import UsageError


def write_atomic(path, data: bytes | str) -> None:
    """Writes ``data`` (str as utf-8) to a temp file beside ``path``, which
    then replaces it, so a failed write leaves any old file whole and no
    temp file behind; makes parent directories. A file that already holds
    ``data`` is left as is (creating a file costs more than reading one)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = data.encode("utf-8") if isinstance(data, str) else data
    if path.is_file() and path.read_bytes() == data:
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_text(path) -> str:
    """The utf-8 text of ``path``; bytes that are not utf-8 raise
    ``UsageError`` naming the file."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not utf-8 text: {exc}") from None
