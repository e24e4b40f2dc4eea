"""Flat key-value experiment configuration.

Format: one ``section.key = value`` per line, ``#`` comments, blank lines
ignored.  Values parse as int, float, bool, comma-separated lists of those,
or bare strings.  Every subcommand validates against its schema; unknown
keys and non-finite numbers (nan, inf) are errors.
"""

from __future__ import annotations

import hashlib
import math
from ..errors import ConfigInvalid


def _parse_scalar(text: str):
    t = text.strip()
    low = t.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def parse_value(text: str):
    if "," in text:
        return [_parse_scalar(p) for p in text.split(",") if p.strip()]
    return _parse_scalar(text)


def parse_config_text(text: str) -> dict:
    out: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {ln}: expected 'section.key = value'")
        key, val = line.split("=", 1)
        key = key.strip()
        if not key or ("." not in key and key != "seed"):
            raise ConfigInvalid(f"line {ln}: key must look like section.key")
        if key in out:
            raise ConfigInvalid(f"line {ln}: duplicate key {key!r}")
        out[key] = parse_value(val)
    return out


def load_config(path) -> dict:
    with open(path) as fh:
        return parse_config_text(fh.read())


# ---------------------------------------------------------------- schemas

_BODY = {"body.kind", "body.radius", "body.semiaxes"}
_FIELD = {"field.preset"}
# no schema holds the seed: the command line takes it out of the config
# (or from --seed) and passes it to run() on its own

SCHEMAS: dict[str, set] = {
    "forward": _BODY | _FIELD | {
        "rays.boundary", "rays.directions", "xray.dt", "noise.level"},
    "slice-check": _BODY | _FIELD | {
        "grid.points", "grid.pad", "slice.count", "slice.n_launch",
        "slice.n_s", "slice.xi_max"},
    "reconstruct": _BODY | _FIELD | {
        "grid.points", "grid.extent", "recon.epsilon", "recon.delta",
        "recon.R", "slice.n_launch", "slice.n_s"},
    "stability-curve": _BODY | _FIELD | {
        "grid.points", "grid.extent", "recon.epsilon", "noise.levels",
        "slice.n_launch", "slice.n_s"},
    "beam": _BODY | {
        "conformal.amplitude", "conformal.width", "conformal.center",
        "beam.dt", "beam.lambdas", "beam.t0", "ray.angle"},
    "dtn": {
        "grid.nx", "grid.k", "grid.T", "probes.count", "family.scales",
        "bump.center", "bump.width"},
    "identity-check": {
        "grid.sizes", "grid.cfl", "grid.T", "bump.amplitude",
        "bump.center", "bump.width", "probe.first", "probe.second"},
    # the criteria fix their own seeds, so acceptance takes none
    "acceptance": {"acceptance.only"},
}


def validate(subcommand: str, cfg: dict) -> dict:
    if subcommand not in SCHEMAS:
        raise ConfigInvalid(f"unknown subcommand {subcommand!r}")
    allowed = SCHEMAS[subcommand]
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigInvalid(
            f"unknown keys for {subcommand!r}: {', '.join(unknown)}")
    # NaN passes every range check the pipelines make, and inf most
    for key, value in sorted(cfg.items()):
        for v in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigInvalid(f"{key} = {value!r} is not finite")
    return cfg


def canonical_text(cfg: dict, seed: int) -> str:
    lines = [f"{k} = {cfg[k]!r}" for k in sorted(cfg)]
    lines.append(f"seed = {seed}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: dict, seed: int) -> str:
    return hashlib.sha256(canonical_text(cfg, seed).encode()).hexdigest()
