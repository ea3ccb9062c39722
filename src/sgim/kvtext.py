"""The key=value text format of ``config.txt`` and ``manifest.txt``.

A dataclass is the schema: one ``key=value`` line per field, in field order.
The type of a field's default value decides how its value is written and
parsed: bools as 0/1, ints with ``str``, floats with ``repr`` (so they
round-trip exactly), and int-to-int dicts as sorted ``k:v`` pairs joined by
commas. Blank lines and ``#`` comments are skipped when parsing.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

from .errors import ConfigError

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _format_value(value) -> str:
    if isinstance(value, dict):
        return ",".join(f"{k}:{v}" for k, v in sorted(value.items()))
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_text(obj) -> str:
    return "".join(f"{f.name}={_format_value(getattr(obj, f.name))}\n"
                   for f in fields(obj))


def _defaults(cls) -> dict:
    # field annotations are strings under postponed evaluation, so the
    # default value is what carries each field's type
    return {f.name: f.default if f.default is not MISSING else f.default_factory()
            for f in fields(cls)}


def _parse_value(default, key: str, text: str):
    """``text`` parsed as the type of ``default``; ConfigError names ``key``."""
    text = text.strip()
    try:
        if isinstance(default, bool):  # before int: bool is an int subclass
            if text.lower() in _TRUE:
                return True
            if text.lower() in _FALSE:
                return False
            raise ValueError(text)
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        if isinstance(default, dict):
            return {int(k): int(v) for k, v in
                    (item.split(":") for item in text.split(",") if text)}
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {type(default).__name__}, "
                          f"got {text!r}") from exc
    raise TypeError(f"{key}: no text form for {type(default).__name__}")


def set_key(obj, key: str, text: str) -> None:
    """Parse ``text`` into field ``key`` of the dataclass instance ``obj``."""
    defaults = _defaults(type(obj))
    if key not in defaults:
        raise ConfigError(f"unknown {type(obj).__name__} key {key!r}")
    setattr(obj, key, _parse_value(defaults[key], key, text))


def update_from_text(obj, text: str, source: str, complete: bool):
    """Apply every line of ``text`` to ``obj`` and return it; with
    ``complete``, ``text`` must set every field. One ConfigError names
    ``source`` and every malformed or unknown key, or else every missing
    one."""
    bad: list[str] = []
    seen: set[str] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            bad.append(line)
            continue
        try:
            set_key(obj, key.strip(), value)
        except ConfigError:
            bad.append(key.strip())
        seen.add(key.strip())
    if bad:
        raise ConfigError(f"{source}: invalid entries: "
                          f"{', '.join(sorted(set(bad)))}")
    missing = [f.name for f in fields(obj) if f.name not in seen]
    if complete and missing:
        raise ConfigError(f"{source}: missing entries: {', '.join(missing)}")
    return obj
