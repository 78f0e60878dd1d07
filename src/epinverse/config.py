"""Flat key-value run configuration.

Format: one `key = value` pair per line ('=' optional), '#' starts a comment.
Values are strings; typed access goes through the getters, which raise
ConfigError with a machine-readable code used in summary.json.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigError


class ConfigKeyError(ConfigError):
    def __init__(self, message: str, code: str):
        super().__init__(message)
        self.code = code


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, value = line.split("=", 1)
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ConfigKeyError(f"line {lineno}: cannot parse {raw!r}", "bad_config_line")
            key, value = parts
        out[key.strip()] = value.strip()
    return out


def load_config(path: str | Path) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigKeyError(f"config file {p} not found", "config_not_found")
    return parse_config_text(p.read_text())


_MISSING = object()


def get_str(cfg: dict[str, str], key: str, default=_MISSING) -> str:
    if key in cfg:
        return cfg[key]
    if default is _MISSING:
        raise ConfigKeyError(f"missing required key {key!r}", f"missing_{key}")
    return default


def get_float(cfg: dict[str, str], key: str, default=_MISSING) -> float:
    """A finite number; nan and +-inf are ``bad_<key>``."""
    raw = get_str(cfg, key, default)
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigKeyError(f"key {key!r}: {raw!r} is not a number", f"bad_{key}") from exc
    if not math.isfinite(value):
        raise ConfigKeyError(f"key {key!r}: {raw!r} is not finite", f"bad_{key}")
    return value


def get_int(cfg: dict[str, str], key: str, default=_MISSING) -> int:
    raw = get_str(cfg, key, default)
    if isinstance(raw, int):
        return raw
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigKeyError(f"key {key!r}: {raw!r} is not an integer", f"bad_{key}") from exc


def get_bool(cfg: dict[str, str], key: str, default=_MISSING) -> bool:
    raw = get_str(cfg, key, default)
    if isinstance(raw, bool):
        return raw
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigKeyError(f"key {key!r}: {raw!r} is not a boolean", f"bad_{key}")


def get_choice(cfg: dict[str, str], key: str, choices: tuple[str, ...]) -> str:
    """One of ``choices``, the first being the default."""
    raw = get_str(cfg, key, choices[0])
    if raw not in choices:
        raise ConfigKeyError(f"key {key!r}: {raw!r} is not one of {', '.join(choices)}", f"bad_{key}")
    return raw


def get_existing_path(cfg: dict[str, str], key: str, code: str) -> Path:
    raw = get_str(cfg, key)
    p = Path(raw)
    if not p.is_file():
        raise ConfigKeyError(f"key {key!r}: file {p} not found", code)
    return p


def get_float_list(cfg: dict[str, str], key: str, default=_MISSING) -> list[float]:
    """Finite numbers separated by spaces or commas; nan and +-inf are
    ``bad_<key>``."""
    raw = get_str(cfg, key, default)
    if not isinstance(raw, str):
        return raw
    try:
        values = [float(v) for v in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigKeyError(f"key {key!r}: {raw!r} is not a number list", f"bad_{key}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigKeyError(f"key {key!r}: {raw!r} has a non-finite number", f"bad_{key}")
    return values
