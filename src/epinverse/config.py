"""Flat key-value run configuration.

Format: one `key = value` pair per line ('=' optional), '#' starts a comment.
Values are strings.  Every key the CLI reads is declared once in ``KEYS``,
with its parser, its default and its rule; ``get`` reads a key through its
declaration and raises ConfigKeyError with a machine-readable code used in
summary.json.  Keys that ``KEYS`` does not declare are ignored.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Callable

from .eit import cem
from .ep import SWEEP_MODES
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


# ---------------------------------------------------------------------------
# parsers: the text of a value to its value, or ValueError saying what is
# wrong with it; ``int`` and ``float`` are two of them, and the rules of
# float keys refuse nan and +-inf
# ---------------------------------------------------------------------------

def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean")


def _choice(*choices: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"not one of {', '.join(choices)}")
        return raw

    return parse


def _file(raw: str) -> Path:
    p = Path(raw)
    if not p.is_file():
        raise ValueError("no such file")
    return p


def _float_list(raw: str) -> list[float] | None:
    """Finite numbers separated by spaces or commas, or ``default`` (None)."""
    if raw == "default":
        return None
    values = [float(v) for v in raw.replace(",", " ").split()]
    if not all(map(math.isfinite, values)):
        raise ValueError("a number is not finite")
    return values


def _patterns(raw: str) -> list[tuple[int, ...]] | None:
    """``a-b`` electrode pairs separated by commas, or ``adjacent`` (None)."""
    return None if raw == "adjacent" else [tuple(map(int, tok.split("-"))) for tok in raw.split(",")]


REQUIRED = object()


def declare(parse: Callable[[str], Any], default: Any = REQUIRED, rule: Callable[[Any], bool] | None = None,
            must: str = "", code: str | None = None) -> tuple:
    """One config key, as the tuple ``get`` unpacks (a plain tuple unpacks in
    half the time of a named one): ``parse`` reads its text; ``default`` is
    its value when absent (REQUIRED: the key must be given); a value for
    which ``rule`` is false is refused as breaking ``must``.  A text that does
    not parse is the error ``code`` (``bad_<key>`` when None), a value that
    breaks the rule ``bad_<key>``."""
    return parse, default, rule, must, code


# rules with their text; a float rule refuses nan and +-inf
_FINITE = (math.isfinite, "be finite")
_POSITIVE = (lambda v: 0.0 < v < math.inf, "be finite and > 0")
_POSITIVE_INT = (lambda v: v > 0, "be > 0")

# The defaults of `alpha`, `lambda`, `floor` and `sigma_bg` are the EIT ones;
# `problem = linear` passes its own to ``get``.  The keys marked with a
# default in a comment have one that depends on other keys, which the command
# that reads them computes.
KEYS: dict[str, tuple] = {
    # every command
    "out": declare(str, "."),
    "seed": declare(int, 0, lambda v: v >= 0, "be >= 0"),
    # the posterior
    "problem": declare(_choice("linear", "eit")),
    "alpha": declare(float, cem.ALPHA_DEFAULT, *_POSITIVE),
    "lambda": declare(float, cem.LAMBDA_DEFAULT, *_POSITIVE),
    "floor": declare(float, cem.SIGMA_FLOOR, lambda v: -math.inf <= v < math.inf, "be finite or -inf"),
    "sigma_bg": declare(float, cem.SIGMA_BG, *_FINITE),
    # EIT data and electrodes
    "mesh": declare(_file, code="mesh_not_found"),
    "data": declare(_file, code="data_not_found"),
    "electrodes": declare(int, cem.N_ELECTRODES, lambda v: v >= 3, "be >= 3"),
    "impedances": declare(_float_list, None, lambda z: z is None or all(v > 0.0 for v in z), "be positive"),
    "patterns": declare(_patterns, None, lambda ps: ps is None or all(len(p) == 2 and p[0] != p[1] for p in ps),
                        "be a-b pairs of distinct electrodes"),
    "amplitude": declare(float, cem.CURRENT_AMPLITUDE, *_FINITE),
    # the synthetic linear problem
    "linear_m": declare(int, 20, *_POSITIVE_INT),
    "linear_n": declare(int, 12, *_POSITIVE_INT),
    "linear_sparsity": declare(int, 3),
    "linear_amplitude": declare(float, 1.0, *_FINITE),
    "linear_diagonal": declare(_bool, False),
    # EP
    "ep_max_sweeps": declare(int, 5, *_POSITIVE_INT),
    "ep_site_tol": declare(float, 1e-4, *_POSITIVE),
    "ep_sweep_mode": declare(_choice(*SWEEP_MODES), SWEEP_MODES[0]),
    "ep_max_outer": declare(int, 10, *_POSITIVE_INT),
    "ep_outer_tol": declare(float, 1e-3, *_POSITIVE),
    # MCMC
    "mcmc_chains": declare(int, 8, lambda v: v >= 2, "be >= 2"),
    "mcmc_steps": declare(int, 1_000_000, *_POSITIVE_INT),
    "mcmc_burn_in": declare(int),  # mcmc_steps // 10
    "mcmc_thin": declare(int, 10, *_POSITIVE_INT),
    "mcmc_pilot_steps": declare(int, 4000, *_POSITIVE_INT),
    "mcmc_init_spread": declare(float, 0.0, *_FINITE),
    "mcmc_proposal_std": declare(float, REQUIRED, *_POSITIVE),  # per problem
    "mcmc_same_seed": declare(_bool, False),
    "case": declare(str, "default"),
    # compare
    "ep_dir": declare(str),
    "mcmc_dir": declare(str),
    # mesh and synth
    "radius": declare(float, cem.TANK_RADIUS, *_POSITIVE),
    "electrode_coverage": declare(float, cem.ELECTRODE_COVERAGE, *_FINITE),
    "target_nodes": declare(int, 424),
    "mesh_file": declare(
        str, "mesh.txt", lambda v: v not in ("", ".", "..") and Path(v).name == v, "be a bare file name"
    ),
    # a file, or empty (None) for a generated mesh
    "fine_mesh": declare(lambda raw: _file(raw) if raw else None, None, code="mesh_not_found"),
    "fine_target_nodes": declare(int, 1200),
    "noise_std": declare(float, REQUIRED, lambda v: 0.0 <= v < math.inf, "be finite and >= 0"),  # 1 / sqrt(alpha)
    "inclusion_cx": declare(float, REQUIRED, *_FINITE),
    "inclusion_cy": declare(float, REQUIRED, *_FINITE),
    "inclusion_radius": declare(float, REQUIRED, *_FINITE),
    "inclusion_value": declare(float, REQUIRED, *_FINITE),
}


def refused(key: str, value, must: str) -> ConfigKeyError:
    """The error ``bad_<key>`` for ``value`` of ``key`` breaking the rule ``must``."""
    return ConfigKeyError(f"key {key!r} must {must}, got {value}", f"bad_{key}")


def get(cfg: dict[str, str], key: str, default=None):
    """The value of ``key`` as ``KEYS`` declares it: parsed from ``cfg``, or
    else ``default`` when it is not None, or else the declared default;
    either way checked against the key's rule.  A required key that is
    absent is ``missing_<key>``."""
    parse, value, rule, must, code = KEYS[key]
    raw = cfg.get(key)
    if raw is not None:
        try:
            value = parse(raw)
        except ValueError as exc:
            raise ConfigKeyError(f"key {key!r}: cannot read {raw!r}: {exc}", code or f"bad_{key}") from None
    elif default is not None:
        value = default
    elif value is REQUIRED:
        raise ConfigKeyError(f"missing required key {key!r}", f"missing_{key}")
    if rule is None or rule(value):
        return value
    raise refused(key, value, must)
