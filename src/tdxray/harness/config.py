"""Flat key-value experiment configuration.

Format: one ``section.key = value`` per line, ``#`` comments, blank lines
ignored.  Values parse as int, float, comma-separated lists of those, or
bare strings.  Each subcommand's schema declares every key it takes,
with the key's type, default and bound; ``validate`` checks a config
against it, and any other key or value is a ``ConfigInvalid``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import partial

from .. import fields as field_lib
from ..errors import ConfigInvalid


def _parse_scalar(text: str):
    t = text.strip()
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
        key, sep, val = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigInvalid(f"line {ln}: expected 'section.key = value'")
        if key in out:
            raise ConfigInvalid(f"line {ln}: duplicate key {key!r}")
        out[key] = parse_value(val)
    return out


def load_config(path) -> dict:
    with open(path) as fh:
        return parse_config_text(fh.read())


# ---------------------------------------------------------------- schemas


def _zero_field():
    f = field_lib.single_bump(amplitude=0.0, name="zero")
    return f


# the field.preset options
FIELD_PRESETS = {
    "slice-default": field_lib.default_slice_field,
    "recon-default": field_lib.default_recon_field,
    "hidden-calibration": field_lib.calibration_field,
    "symmetric": field_lib.symmetric_field,
    "tail": field_lib.tail_field,
    "zero": _zero_field,
}


@dataclass(frozen=True)
class Key:
    """A config key's default, type and bound.

    The value is one of options, if there are any; else an int (kind int;
    a bool is none) or a float (an int is taken for one) in lo..hi, the
    ends excluded when open.  With length = (fewest, most) it is a list of
    such numbers, none twice when distinct, and a lone number is a list of
    one.  A None default leaves the key unset when it is not given; a
    callable one is worked out from the keys checked before it, in the
    schema's order.
    """
    default: object
    kind: type = float
    lo: float = -math.inf
    hi: float = math.inf
    open: bool = False
    length: tuple | None = None
    distinct: bool = False
    options: tuple = ()

    def check(self, key: str, value):
        if self.options:
            if value not in self.options:
                raise ConfigInvalid(f"{key} = {value!r} is none of "
                                    f"{', '.join(self.options)}")
            return value
        if self.length is None:
            return self._number(key, value)
        values = [self._number(key, v) for v in
                  (value if isinstance(value, (list, tuple)) else [value])]
        fewest, most = self.length
        if not fewest <= len(values) <= most:
            raise ConfigInvalid(f"{key} has {len(values)} values, not "
                                f"{fewest} to {most}")
        if self.distinct and len(set(values)) < len(values):
            raise ConfigInvalid(f"{key} = {value!r} repeats a value")
        return values

    def _number(self, key: str, value):
        if type(value) not in (self.kind, int):
            noun = "an int" if self.kind is int else "a number"
            raise ConfigInvalid(f"{key} = {value!r} is not {noun}")
        try:
            value = self.kind(value)
        except OverflowError:       # an int beyond every float
            value = math.inf
        # NaN passes every range check, and inf most
        if not -math.inf < value < math.inf:
            raise ConfigInvalid(f"{key} = {value!r} is not finite")
        if not (self.lo < value < self.hi if self.open
                else self.lo <= value <= self.hi):
            ends = "()" if self.open else "[]"
            raise ConfigInvalid(f"{key} = {value!r} is not in {ends[0]}"
                                f"{self.lo!r}, {self.hi!r}{ends[1]}")
        return value


count = partial(Key, kind=int, lo=1)
positive = partial(Key, lo=0.0, open=True)
LIST = (1, math.inf)
# the wave pipelines' bump and the beam's conformal factor are planar
PAIR = (2, 2)
# the wave grids' one-sided conormal stencil spans 3 nodes per axis
WAVE_NODES = 3


def _body(radius: float) -> dict:
    return {"body.kind": Key("ball", options=("ball", "ellipse")),
            "body.radius": positive(radius),
            "body.semiaxes": Key([2.0, 1.0], lo=0.0, open=True, length=LIST)}


def _field(preset: str) -> dict:
    return {"field.preset": Key(preset, options=tuple(FIELD_PRESETS))}


# the cut-radius rule needs recon.epsilon inside (0, 1)
_EPSILON = Key(0.5, lo=0.0, hi=1.0, open=True)
_RECON = {**_body(field_lib.RECON_RADIUS), **_field("recon-default"),
          "grid.points": count(64), "grid.extent": positive(14.0),
          "recon.epsilon": _EPSILON,
          "slice.n_launch": count(200), "slice.n_s": count(160)}

# no schema holds the seed: the command line takes it out of the config
# (or from --seed) and passes it to run() on its own
SCHEMAS: dict[str, dict[str, Key]] = {
    "forward": {
        **_body(1.0), **_field("slice-default"),
        "rays.boundary": count(16), "rays.directions": count(8),
        "xray.dt": positive(2.5e-3), "noise.level": Key(0.0, lo=0.0)},
    "slice-check": {
        **_body(1.0), **_field("slice-default"), "grid.points": count(128),
        # a negative pad shrinks the lattice box inside the field's support
        "grid.pad": Key(0.25, lo=0.0),
        "slice.count": count(20), "slice.n_launch": count(160),
        "slice.n_s": count(160), "slice.xi_max": Key(6.0, lo=0.0)},
    "reconstruct": {
        # recon.R fixes the cut radius, so the rule's inputs are filled
        # only without it (the pipeline rejects them given with it)
        "recon.R": Key(None), **_RECON,
        "recon.delta": positive(lambda c: None if "recon.R" in c else 1e-6),
        "recon.epsilon": replace(_EPSILON, default=lambda c: (
            None if "recon.R" in c else _EPSILON.default))},
    "stability-curve": {
        **_RECON,
        "noise.levels": Key([10.0 ** (-k) for k in range(3, 10)], lo=0.0,
                            length=LIST)},
    "beam": {
        **_body(1.0),
        "conformal.amplitude": Key(0.0), "conformal.width": positive(0.75),
        "conformal.center": Key([0.1, 0.0], length=PAIR),
        # the residual sweep runs only when given; its slope fit needs 4
        # distinct asymptotic parameters, each above 1
        "beam.lambdas": Key(None, lo=1.0, open=True, length=(4, math.inf),
                            distinct=True),
        "beam.dt": positive(2e-3), "beam.t0": Key(0.0),
        "ray.angle": Key(0.0)},
    "dtn": {
        # grid.k defaults to a CFL number of 0.6 on the grid.nx grid
        "grid.nx": count(97, lo=WAVE_NODES),
        "grid.k": positive(lambda c: 0.6 / (c["grid.nx"] - 1)),
        "grid.T": positive(2.0), "probes.count": count(6),
        "family.scales": Key([0.01, 0.02, 0.04, 0.08], length=LIST),
        "bump.center": Key([0.55, 0.42], length=PAIR),
        "bump.width": positive(0.3)},
    "identity-check": {
        "grid.sizes": Key([33, 65, 129], int, WAVE_NODES, length=LIST),
        "grid.cfl": positive(0.6), "grid.T": positive(1.5),
        "bump.amplitude": Key(0.05),
        "bump.center": Key([0.55, 0.42], length=PAIR),
        "bump.width": positive(0.27),
        # indices into the pipeline's four boundary probes
        "probe.first": Key(0, int, 0, 3), "probe.second": Key(2, int, 0, 3)},
    # the criteria fix their own seeds, so acceptance takes none; the
    # options are the modules of acceptance.CRITERIA
    "acceptance": {"acceptance.only": Key(None, options=(
        "spectral", "reconstruct", "beams", "wavesim", "harness"))},
}


def validate(subcommand: str, cfg: dict) -> dict:
    """A new dict of cfg's values, each checked against the subcommand's
    schema, and of every default of a key cfg does not give."""
    if subcommand not in SCHEMAS:
        raise ConfigInvalid(f"unknown subcommand {subcommand!r}")
    schema = SCHEMAS[subcommand]
    unknown = sorted(set(cfg) - set(schema))
    if unknown:
        raise ConfigInvalid(
            f"unknown keys for {subcommand!r}: {', '.join(unknown)}")
    checked: dict = {}
    for key, spec in schema.items():
        if key in cfg:
            checked[key] = spec.check(key, cfg[key])
            continue
        default = spec.default
        if callable(default):
            default = default(checked)
        if default is not None:
            checked[key] = spec.check(key, default)
    return checked


def canonical_text(cfg: dict, seed: int) -> str:
    lines = [f"{k} = {cfg[k]!r}" for k in sorted(cfg)]
    lines.append(f"seed = {seed}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: dict, seed: int) -> str:
    return hashlib.sha256(canonical_text(cfg, seed).encode()).hexdigest()
