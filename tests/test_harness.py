import importlib
import math
import os
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import load_perfbench
from tdxray import beams, errors, geometry, reconstruct, wavesim
from tdxray.cli import main
from tdxray.conformal import bump_factor
from tdxray.errors import ConfigInvalid
from tdxray.geometry import MetricSpec, sample_inward_bundle
from tdxray.harness import acceptance as acc
from tdxray.harness.config import (SCHEMAS, canonical_text, config_hash,
                                   parse_config_text, parse_value, validate)
from tdxray.harness.manifest import RunManifest
from tdxray.harness.runner import PIPELINES, _write_csv, run
from tdxray.parallel import thread_count
from tdxray.spectral import SpectralGrid, slice_from_sinogram
from tdxray.wavesim import WaveGrid
from tdxray.xray import sinogram

# small but complete runs of each pipeline; every other key keeps its
# default, which validate fills in
SMALL = {
    "forward": {"rays.boundary": 2, "rays.directions": 1},
    "slice-check": {"grid.points": 8, "slice.count": 1,
                    "slice.n_launch": 16, "slice.n_s": 16},
    "reconstruct": {"grid.points": 16, "recon.R": 1.5,
                    "slice.n_launch": 16, "slice.n_s": 16},
    "stability-curve": {"grid.points": 16, "noise.levels": [1e-3, 1e-4],
                        "slice.n_launch": 16, "slice.n_s": 16},
    "beam": {"conformal.amplitude": 0.01, "beam.dt": 0.01,
             "beam.lambdas": [16, 32, 64, 128]},
    "dtn": {"grid.nx": 9, "grid.T": 1.0, "probes.count": 1,
            "family.scales": [0.02, 0.04]},
    "identity-check": {"grid.sizes": [9], "grid.T": 1.0},
}

# lattice boxes whose squared diagonal (pad 1e300, extent 1e300) or cell
# volume (pad 1e152) overflows
LATTICE_OVERFLOW = [
    ("slice-check", {"grid.pad": 1e300, "grid.points": 32,
                     "slice.count": 3}),
    ("slice-check", {"grid.pad": 1e152, "grid.points": 32,
                     "slice.count": 3}),
    ("stability-curve", {**SMALL["stability-curve"], "grid.extent": 1e300}),
]

# wave grids too large to allocate, each with the key that makes them so:
# each escaped run() as numpy's ValueError (a dimension past the maximum)
# or as a MemoryError for terabytes (grid.cfl 1e-7, grid.nx 10**6)
WAVE_OVERFLOW = [
    ("dtn", "grid.cfl", 1e-300),
    ("dtn", "grid.T", 1e300),
    ("dtn", "grid.cfl", 1e-7),
    ("dtn", "grid.nx", 10**6),
    ("identity-check", "grid.cfl", 1e-300),
    ("identity-check", "grid.T", 1e300),
]
# time steps cfl / (nx - 1) that underflow to 0: identity-check's escaped
# run() as a ZeroDivisionError from T / k
WAVE_UNDERFLOW = [
    ("dtn", "grid.cfl", 5e-324),
    ("identity-check", "grid.cfl", 5e-324),
]


class ReadLog(dict):
    """Config dict that records every key a pipeline looks up."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def conforms(spec, value) -> bool:
    """Whether value is of the type a schema key declares, inside its
    bound."""
    if spec.options:
        return value in spec.options
    if spec.length is not None:
        fewest, most = spec.length
        return (type(value) is list and fewest <= len(value) <= most
                and all(conforms(replace(spec, length=None), v)
                        for v in value)
                and not (spec.distinct and len(set(value)) < len(value)))
    return (type(value) is spec.kind and -math.inf < value < math.inf
            and (spec.lo < value < spec.hi if spec.open
                 else spec.lo <= value <= spec.hi))


# config lines as a user might write them, numbers, lists and words
CONFIG_TEXT = st.one_of(
    st.text(max_size=12), st.integers().map(str), st.floats().map(repr),
    st.lists(st.one_of(st.integers(), st.floats()), max_size=6).map(
        lambda vs: ", ".join(map(repr, vs))),
    st.sampled_from(["true", "off", "ball", "ellipse", "zero", "spectral",
                     "nan", "-inf", ",", "16, 16, 32, 64"]))

# the optional keys validate leaves unset when they are not given
UNFILLED = {"reconstruct": {"recon.R"}, "beam": {"beam.lambdas"},
            "acceptance": {"acceptance.only"}}


def manifest_sections(path) -> dict:
    """{section: {key: value}} of a run manifest."""
    sections: dict = {}
    entries = sections.setdefault("header", {})
    for line in path.read_text().splitlines():
        if line.startswith("["):
            entries = sections.setdefault(line.strip("[]"), {})
        else:
            key, value = line.split(" = ", 1)
            entries[key] = value
    return sections


class TestConfig:
    def test_parsing(self):
        cfg = parse_config_text(
            "# comment\n"
            "body.kind = ball\n"
            "rays.boundary = 16  # trailing comment\n"
            "noise.levels = 1e-3, 1e-5\n"
            "xray.dt = 0.001\n")
        assert cfg["body.kind"] == "ball"
        assert cfg["rays.boundary"] == 16
        assert cfg["noise.levels"] == [1e-3, 1e-5]
        assert cfg["xray.dt"] == 0.001

    def test_malformed_line(self):
        for text in ["just words\n", "= 1\n"]:
            with pytest.raises(ConfigInvalid, match="^line 1: expected"):
                parse_config_text(text)

    def test_duplicate_key(self):
        with pytest.raises(ConfigInvalid):
            parse_config_text("a.b = 1\na.b = 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            validate("forward", {"body.semiaxes": 1.0, "bogus.key": 1})

    @pytest.mark.parametrize("key, value", [("body.kind", "ball"),
                                            ("body.radius", 1.0)])
    def test_body_is_its_semiaxes(self, key, value):
        # body.semiaxes alone sets the body; body.kind chose between it and
        # body.radius, and the one it did not choose was ignored
        for name, schema in SCHEMAS.items():
            if "body.semiaxes" in schema:
                with pytest.raises(ConfigInvalid,
                                   match=f"unknown keys.*{key}"):
                    validate(name, {key: value})

    @pytest.mark.parametrize("name, text", [
        ("forward", "noise.level = nan"),
        ("reconstruct", "recon.R = -inf"),
        ("stability-curve", "noise.levels = 1e-3, inf"),
    ])
    def test_non_finite_value_rejected(self, name, text):
        key = text.split(" = ")[0]
        with pytest.raises(ConfigInvalid, match=rf"^{key} = .* not finite"):
            validate(name, parse_config_text(text))

    def test_unknown_subcommand(self):
        with pytest.raises(ConfigInvalid):
            validate("nonesuch", {})

    # acceptance.only is read by the command line, not by a pipeline
    @pytest.mark.parametrize("name", sorted(set(SCHEMAS) - {"acceptance"}))
    def test_every_schema_key_is_read(self, name, tmp_path):
        cfg = ReadLog(validate(name, SMALL[name]))
        PIPELINES[name](cfg, 0, str(tmp_path),
                        RunManifest(name, SMALL[name], 0))
        assert SCHEMAS[name].keys() - cfg.read == set()

    @given(text=CONFIG_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_validate_returns_checked_values(self, text):
        # under every key of every subcommand, a value is either refused by
        # name or comes back of its declared kind inside its bound, and so
        # does every default filled in
        given = parse_value(text)
        values = given if isinstance(given, list) else [given]
        for name, schema in SCHEMAS.items():
            for key in schema:
                try:
                    checked = validate(name, {key: given})
                except ConfigInvalid as exc:
                    assert str(exc).startswith(key)
                    continue
                # handed back as given, as a float where an int is taken for
                # one, and a lone value as a list of one for a list key
                back = checked[key]
                back = back if isinstance(back, list) else [back]
                assert back == [type(b)(v) for b, v in zip(back, values)]
                assert len(back) == len(values)
                for k, value in checked.items():
                    assert conforms(schema[k], value), (k, value)

    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    def test_defaults_filled(self, name):
        assert set(validate(name, {})) == (
            SCHEMAS[name].keys() - UNFILLED.get(name, set()))

    def test_cut_radius_rule_inputs_unfilled_with_R(self):
        # the pipeline must see whether recon.delta or recon.epsilon was
        # given alongside recon.R
        assert set(validate("reconstruct", {})) - set(
            validate("reconstruct", {"recon.R": 2.0})) == {
            "recon.delta", "recon.epsilon"}

    def test_acceptance_options_are_its_modules(self):
        assert set(SCHEMAS["acceptance"]["acceptance.only"].options) == {
            module for _, module in acc.CRITERIA}

    def test_hash_stable_under_ordering(self):
        a = {"x.a": 1, "x.b": [1, 2]}
        b = {"x.b": [1, 2], "x.a": 1}
        assert config_hash(a, 3) == config_hash(b, 3)
        assert config_hash(a, 3) != config_hash(a, 4)
        assert "seed = 3" in canonical_text(a, 3)


# the largest noise level numpy's uniform draws on
NOISE_TOP = sys.float_info.max / 2


class TestRunner:
    def test_forward_artifacts(self, tmp_path, capsys):
        cfg = {"rays.boundary": 6, "rays.directions": 2}
        code = run("forward", dict(cfg), str(tmp_path), seed=5)
        assert code == 0
        art = tmp_path / f"forward-{config_hash(cfg, 5)[:12]}"
        sino = (art / "sinogram.csv").read_text().splitlines()
        assert sino[0] == "x1,x2,omega1,omega2,tau,value"
        assert len(sino) == 1 + 12
        manifest = (art / "manifest.txt").read_text()
        assert "config_hash" in manifest and "quad_tol" in manifest
        # the quadrature diagnostics are kept, not only printed
        sections = manifest_sections(art / "manifest.txt")
        values = dict(item.split("=")
                      for item in sections["diagnostics"]["sinogram"].split())
        assert list(values) == ["max_halving_gap", "refinement_ratio",
                                "noise_sup"]
        tol = float(sections["tolerances"]["quad_tol"])
        assert 0.0 <= float(values["max_halving_gap"]) <= 10.0 * tol
        assert float(values["noise_sup"]) == 0.0
        printed = capsys.readouterr().out
        assert f"refinement_ratio = {values['refinement_ratio']}\n" in printed
        # with noise, noise_sup is the sup-norm of what was added
        level = 1e-3
        noisy_cfg = {**cfg, "noise.level": level}
        assert run("forward", dict(noisy_cfg), str(tmp_path), seed=5) == 0
        noisy = tmp_path / f"forward-{config_hash(noisy_cfg, 5)[:12]}"
        sections = manifest_sections(noisy / "manifest.txt")
        values = dict(item.split("=")
                      for item in sections["diagnostics"]["sinogram"].split())
        added = [float(b.rsplit(",", 1)[1]) - float(a.rsplit(",", 1)[1])
                 for a, b in zip(sino[1:], (noisy / "sinogram.csv")
                                 .read_text().splitlines()[1:])]
        noise_sup = float(values["noise_sup"])
        assert 0.0 < noise_sup <= level
        assert max(map(abs, added)) == pytest.approx(noise_sup, rel=1e-9)

    def test_csv_cell_rule(self, tmp_path):
        # a float cell, numpy's included, is the shortest text that reads
        # back to its double, never a numpy repr; any other cell is its str
        path = tmp_path / "cells.csv"
        _write_csv(path, ["a", "b", "c", "d", "e", "f"],
                   [[np.float64(0.5), 0.1, 3, math.nan, -0.0, math.inf]])
        assert path.read_bytes() == b"a,b,c,d,e,f\n0.5,0.1,3,nan,-0.0,inf\n"

    def test_seed_key_rejected(self, tmp_path):
        # the seed is run()'s argument; as a key it would change the
        # artifact hash and nothing else
        cfg = {"rays.boundary": 2, "rays.directions": 1, "seed": 5}
        assert run("forward", dict(cfg), str(tmp_path), seed=0) == 2
        art = tmp_path / f"forward-{config_hash(cfg, 0)[:12]}"
        first = (art / "error.txt").read_text().splitlines()[0]
        assert first == "error_type = ConfigInvalid"

    def test_error_record(self, tmp_path):
        cfg = {"body.semiaxes": "torus"}
        code = run("forward", dict(cfg), str(tmp_path), seed=0)
        assert code == 2
        art = tmp_path / f"forward-{config_hash(cfg, 0)[:12]}"
        assert "ConfigInvalid" in (art / "error.txt").read_text()

    @pytest.mark.parametrize("cfg", [
        {"body.semiaxes": 0.3},
        {"body.semiaxes": [0.3, 0.2]}])
    def test_forward_rejects_field_reaching_boundary(self, tmp_path, cfg):
        # the default field reaches past both bodies: the disk ran as the
        # transform of the field cut off at its boundary (or on the unit
        # disk, its semiaxis ignored), and the ellipse failed as
        # QuadratureNotConverged on one ray, hiding the cause
        assert run("forward", dict(cfg), str(tmp_path), seed=0) == 2
        art = tmp_path / f"forward-{config_hash(cfg, 0)[:12]}"
        first = (art / "error.txt").read_text().splitlines()[0]
        assert first == "error_type = CoverageError"

    SMALL_CURVE = {"grid.points": 16, "slice.n_launch": 16, "slice.n_s": 16}
    # values of the wrong type, length or range: each escaped run() as a
    # ValueError or an IndexError, or ran with a truncated or dropped value
    NOT_IN_SCHEMA = [
        ("stability-curve", {"grid.points": "abc"}),
        ("dtn", {"grid.nx": "x"}),
        ("beam", {"ray.angle": "abc"}),
        ("beam", {"conformal.amplitude": 0.1, "conformal.center": "a"}),
        ("forward", {"body.semiaxes": "a"}),
        ("dtn", {"bump.center": [0.5]}),
        ("identity-check", {"bump.center": 0.5}),
        ("beam", {"beam.lambdas": [0.5, 16, 32, 64]}),
        ("slice-check", {"slice.xi_max": -1}),
        ("forward", {"rays.boundary": 2.7}),
        ("dtn", {"grid.nx": 17.5}),
        ("identity-check", {"probe.first": 1.7}),
        ("forward", {"rays.boundary": True}),
        ("forward", {"body.semiaxes": True}),
        ("dtn", {"bump.center": [0.5, 0.5, 0.5]}),
        ("identity-check", {"grid.sizes": []}),
        ("beam", {"beam.lambdas": [16, 16, 16, 16]}),
    ]
    # not in the schema either; listed after every other rejected input,
    # so that the parameter ids of those keep their indices
    REPEATED_SIZES = ("identity-check", {"grid.sizes": [17, 17]})
    BODY_3D = {"body.dim": 3}
    ELLIPSOID = {"body.semiaxes": [2.0, 1.0, 1.0]}

    @pytest.mark.parametrize("name, cfg", [
        ("reconstruct", {"grid.points": 33}),
        ("forward", {"body.kind": "ellipse", "body.dim": 3}),
        # one and zero feasible rows leave the log-stability fit undetermined
        ("stability-curve", {**SMALL_CURVE, "noise.levels": [1e-3]}),
        ("stability-curve", {**SMALL_CURVE, "noise.levels": [1e-1]}),
        # 3-D bodies against the 2-D fields, ray and conformal factor; a
        # body takes its dimension from the field, so body.dim is no key
        ("forward", BODY_3D), ("slice-check", BODY_3D),
        ("reconstruct", BODY_3D), ("stability-curve", BODY_3D),
        ("beam", BODY_3D),
        ("forward", ELLIPSOID), ("slice-check", ELLIPSOID),
        ("reconstruct", ELLIPSOID), ("stability-curve", ELLIPSOID),
        ("beam", ELLIPSOID),
        # probe counts and indices out of range
        ("dtn", {"grid.nx": 17, "probes.count": 0}),
        ("dtn", {"grid.nx": 17, "probes.count": -1}),
        ("identity-check", {"grid.sizes": [17], "probe.first": -1}),
        ("identity-check", {"grid.sizes": [17], "probe.second": 4}),
        # a 3-D conformal factor for the planar beam ray
        ("beam", {"conformal.amplitude": 0.1,
                  "conformal.center": [0.1, 0.0, 0.0]}),
        ("stability-curve", {**SMALL_CURVE, "noise.levels": [1e-3, 1e-2]}),
        # out-of-range values: each escaped run() as a ValueError or a
        # ZeroDivisionError, except beam.dt = 0, which wrote a two-node
        # beam at the launch point, and recon.R with recon.delta or
        # recon.epsilon, which ignored them
        ("reconstruct", {"grid.points": 16, "slice.n_launch": 16,
                         "recon.R": 0.5}),
        ("reconstruct", {"recon.epsilon": 1.5}),
        ("reconstruct", {"recon.delta": -1}),
        ("reconstruct", {"recon.R": 2.0, "recon.delta": 1e-6}),
        ("reconstruct", {"recon.R": 2.0, "recon.epsilon": 0.5}),
        ("reconstruct", {"grid.points": 0}),
        ("stability-curve", {"recon.epsilon": 0}),
        ("forward", {"rays.boundary": 0}),
        ("forward", {"rays.directions": -2}),
        ("forward", {"xray.dt": 0}),
        ("slice-check", {"slice.n_launch": 0}),
        ("slice-check", {"grid.points": 0}),
        ("beam", {"beam.dt": 0}),
        # these ran, without the perturbation and with no slice at all
        ("forward", {"noise.level": -1e-3}),
        ("slice-check", {"slice.count": 0}),
        # wave grids too coarse for the conormal stencil or the probes'
        # zero window, degenerate wave steps, too few beam wavenumbers for
        # the slope fit and a lattice box smaller than the field: each
        # escaped run() as a ZeroDivisionError, IndexError or ValueError
        ("dtn", {"grid.nx": 1}),
        ("dtn", {"grid.nx": 2}),
        ("dtn", {"grid.nx": 3}),
        ("identity-check", {"grid.sizes": [1]}),
        ("beam", {"beam.lambdas": [16.0, 32.0]}),
        ("reconstruct", {"grid.extent": 1.0}),
        ("stability-curve", {"grid.extent": 1.0}),
        ("dtn", {"grid.cfl": 0.0}),
        ("dtn", {"grid.T": 0.0}),
        ("identity-check", {"grid.sizes": [17], "grid.cfl": 0.0}),
        ("identity-check", {"grid.sizes": [17], "grid.T": -1.0}),
        # wave grids of one and two time levels, too few for the leapfrog,
        # and one of three on which every probe samples to 0: each escaped
        # run() as an IndexError or a ZeroDivisionError
        ("dtn", {"grid.nx": 17, "grid.T": 0.01}),
        ("dtn", {"grid.nx": 17, "grid.T": 0.04}),
        ("dtn", {"grid.nx": 17, "grid.T": 0.075}),
        ("identity-check", {"grid.sizes": [17], "grid.T": 0.01}),
        # sizes not above 0 (below 0 for grid.pad): a ZeroDivisionError, a
        # NaN envelope, a 0.0 gap, a truncated lattice, a TangentRay, and a
        # disk and an ellipse run as their reflections
        ("beam", {"conformal.amplitude": 0.1, "conformal.width": 0}),
        ("dtn", {"grid.nx": 17, "bump.width": 0}),
        ("identity-check", {"grid.sizes": [17], "bump.width": 0}),
        ("slice-check", {"grid.pad": -1}),
        ("forward", {"body.semiaxes": 0}),
        ("slice-check", {"body.semiaxes": -1.0}),
        ("forward", {"body.semiaxes": [2.0, -1.0]}),
        # wave grids too short for the probes' time window: every DtN norm
        # at roundoff (exit 0 with a NaN envelope) and both identity
        # pairings exactly 0 (exit 0 with gap 0.0)
        ("dtn", {"grid.nx": 17, "grid.T": 0.3}),
        ("dtn", {"grid.nx": 17, "grid.T": 0.4}),
        ("identity-check", {"grid.sizes": [17], "grid.T": 0.1}),
        ("identity-check", {"grid.sizes": [17], "grid.T": 0.4}),
        # identity pairings of opposite signs: exit 0 with gap 1.0
        ("identity-check", {"grid.sizes": [17], "grid.T": 0.5}),
        ("identity-check", {"grid.sizes": [17], "grid.T": 1.0}),
        ("identity-check", {"grid.sizes": [3]}),
        # non-finite values: an unperturbed sinogram, R = nan with l2 1.0,
        # a NaN beam marched until NoExit, and an infinite noise level
        ("forward", {"noise.level": float("nan")}),
        ("reconstruct", {"recon.R": float("nan")}),
        ("beam", {"conformal.amplitude": float("nan")}),
        ("stability-curve", {"noise.levels": [1e-3, float("inf")]}),
        *NOT_IN_SCHEMA,
        # identity pairings at roundoff, far below the probes' norms: at
        # grid.T 0.9 they shared a sign and exited 0 with gap 0.995
        ("identity-check", {"grid.sizes": [3], "grid.T": 0.9}),
        ("identity-check", {"grid.sizes": [3], "grid.T": 1.5}),
        ("identity-check", {"grid.sizes": [5], "grid.T": 0.9}),
        # a zero field: each escaped run() as a ZeroDivisionError from the
        # error relative to it
        ("reconstruct", {**SMALL["reconstruct"], "field.preset": "zero"}),
        ("stability-curve", {**SMALL["stability-curve"],
                             "field.preset": "zero"}),
        # a clock before the paper's t = 0 and a clock too coarse for its
        # step (1,001 rows of t = 1e+300), from when beam.t0 was a key; the
        # beam now launches at t = 0 and both are rejected as unknown keys
        ("beam", {"beam.t0": -0.5}),
        ("beam", {"beam.t0": 1e300}),
        # steps too many to take: these would never end, since t + dt == t
        ("beam", {"beam.dt": 1e-300}),
        ("forward", {**SMALL["forward"], "xray.dt": 1e-300}),
        # a lattice padded past overflow: NaN in every row's reference and
        # errors, yet the worst error printed 0.0
        ("slice-check", {"grid.pad": 1e300, "grid.points": 32,
                         "slice.count": 3}),
        # bumps that reach the unit square's boundary, where c must be 1:
        # each exited 0, the identity gaps falling by 1.35 and 1.08 a
        # refinement, against the ~4 of second order
        ("dtn", {"grid.nx": 33, "bump.width": 0.5}),
        ("dtn", {"grid.nx": 33, "bump.width": 2.0}),
        ("identity-check", {"grid.sizes": [17, 33], "bump.width": 0.5}),
        ("identity-check", {"bump.center": [0.1, 0.5]}),
        # lattice boxes whose cell volume or squared distances overflow
        # (grid.pad 1e300 is above): numpy warned of overflow on stderr
        # while sampling, before the probe check or the cut radius
        # rejected them
        *LATTICE_OVERFLOW[1:],
        *[(name, {key: value}) for name, key, value in WAVE_OVERFLOW],
        # repeated sizes: two identical rows and manifest entries, and a
        # convergence ratio of 1.0
        REPEATED_SIZES,
    ])
    def test_rejected_input_recorded(self, tmp_path, name, cfg):
        assert run(name, dict(cfg), str(tmp_path), seed=0) == 2
        art = tmp_path / f"{name}-{config_hash(cfg, 0)[:12]}"
        first = (art / "error.txt").read_text().splitlines()[0]
        error_type = first.removeprefix("error_type = ")
        assert issubclass(getattr(errors, error_type), errors.TdxrayError)
        if (name, cfg) in [*self.NOT_IN_SCHEMA, self.REPEATED_SIZES]:
            assert error_type == "ConfigInvalid"

    @pytest.mark.parametrize("name, cfg", LATTICE_OVERFLOW)
    def test_lattice_overflow_rejected_before_sampling(self, tmp_path,
                                                       monkeypatch, name,
                                                       cfg):
        def no_sample(*args, **kwargs):
            raise AssertionError("the lattice sampled a field")

        monkeypatch.setattr(SpectralGrid, "sample", no_sample)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(name, dict(cfg), str(tmp_path), seed=0) == 2
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        art = tmp_path / f"{name}-{config_hash(cfg, 0)[:12]}"
        first, message = (art / "error.txt").read_text().splitlines()[:2]
        key = "grid.pad" if "grid.pad" in cfg else "grid.extent"
        assert first == "error_type = ConfigInvalid"
        assert message.startswith(f"message = {key} = {cfg[key]!r}")

    @pytest.mark.parametrize("name, key, value",
                             WAVE_OVERFLOW + WAVE_UNDERFLOW)
    def test_wave_grid_bounded_before_allocation(self, tmp_path, monkeypatch,
                                                 name, key, value):
        def no_grid(*args, **kwargs):
            raise AssertionError("a wave grid was built")

        monkeypatch.setattr(wavesim, "WaveGrid", no_grid)
        cfg = {key: value}
        assert run(name, cfg, str(tmp_path), seed=0) == 2
        art = tmp_path / f"{name}-{config_hash(cfg, 0)[:12]}"
        first, message = (art / "error.txt").read_text().splitlines()[:2]
        assert first == "error_type = ConfigInvalid"
        assert f"{key} = {value!r}" in message

    # a grid size past every float: cfl / (nx - 1) was formed before the
    # bound, so both escaped run() as OverflowError
    @pytest.mark.parametrize("name, cfg", [
        ("dtn", {"grid.nx": 10**400}),
        ("identity-check", {"grid.sizes": [10**400]})],
        ids=["dtn", "identity-check"])
    def test_wave_size_past_every_float_rejected(self, tmp_path, name, cfg):
        assert run(name, dict(cfg), str(tmp_path), seed=0) == 2
        art = tmp_path / f"{name}-{config_hash(cfg, 0)[:12]}"
        first = (art / "error.txt").read_text().splitlines()[0]
        assert first == "error_type = ConfigInvalid"

    def test_identity_sizes_checked_before_first_solve(self, tmp_path,
                                                        monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("an identity check ran")

        monkeypatch.setattr(wavesim, "key_identity_check", no_solve)
        cfg = {"grid.sizes": [17, 10**5]}
        assert run("identity-check", cfg, str(tmp_path), seed=0) == 2
        art = tmp_path / f"identity-check-{config_hash(cfg, 0)[:12]}"
        first, message = (art / "error.txt").read_text().splitlines()[:2]
        assert first == "error_type = ConfigInvalid"
        assert "grid.sizes entry 100000" in message

    @pytest.mark.parametrize("name, key, top, above", [
        ("forward", "noise.level", NOISE_TOP,
         math.nextafter(NOISE_TOP, math.inf)),
        ("stability-curve", "noise.levels", [NOISE_TOP, 1e-3, 1e-4],
         [1e308, 1e-3, 1e-4])])
    def test_noise_level_bounded(self, tmp_path, name, key, top, above):
        # numpy's uniform draws on twice the level: above the top level it
        # overflowed, and the run escaped as an OverflowError
        with pytest.raises(ConfigInvalid, match=rf"^{key} = .* is not in"):
            validate(name, {**SMALL[name], key: above})
        assert run(name, {**SMALL[name], key: top}, str(tmp_path),
                   seed=0) == 0

    @pytest.mark.parametrize("name, key, value", [
        ("beam", "beam.dt", 1e-300),
        ("forward", "xray.dt", 1e-300)])
    def test_clock_and_budgets_checked_first(self, tmp_path, monkeypatch,
                                             name, key, value):
        # named before any march or chord: xray.dt = 1e-300 escaped as
        # numpy's ValueError from the chord's sample grid
        def no_path(*args, **kwargs):
            raise AssertionError("a march or a chord started")

        monkeypatch.setattr(geometry, "march_to_exit", no_path)
        monkeypatch.setattr(geometry, "_chord", no_path)
        monkeypatch.setattr(beams, "march_to_exit", no_path)
        cfg = {**SMALL[name], key: value}
        assert run(name, cfg, str(tmp_path), seed=0) == 2
        art = tmp_path / f"{name}-{config_hash(cfg, 0)[:12]}"
        first, message = (art / "error.txt").read_text().splitlines()[:2]
        assert first == "error_type = ConfigInvalid"
        assert message.startswith(f"message = {key} = {value!r}")

    def test_stability_diagnostics_recorded(self, tmp_path):
        cfg = {"grid.points": 32, "noise.levels": [1e-3, 1e-4, 0.0],
               "slice.n_launch": 48, "slice.n_s": 48}
        assert run("stability-curve", dict(cfg), str(tmp_path), seed=3) == 0
        art = tmp_path / f"stability-curve-{config_hash(cfg, 3)[:12]}"
        sections = manifest_sections(art / "manifest.txt")
        tol = float(sections["tolerances"]["hermitian_tol"])
        rows = sections["diagnostics"]
        n_rows = len((art / "stability_curve.csv").read_text().splitlines())
        assert list(rows) == [f"row{i}" for i in range(n_rows - 1)]
        # at recon.epsilon 0.5 the cut-radius rule's ends cross on every
        # noisy row; the noise-free row takes no cut
        for entry, conflict in zip(rows.values(), ["1", "1", "0"]):
            values = dict(item.split("=") for item in entry.split())
            assert int(values["n_modes"]) > 0
            assert float(values["imag_residual"]) <= tol
            assert values["conflict"] == conflict

    @pytest.mark.parametrize("name, cfg, samples, transforms", [
        ("stability-curve", SMALL["stability-curve"], 1, 0),
        ("stability-curve", {**SMALL["stability-curve"],
                             "noise.levels": [1e-3, 1e-4, 0.0]}, 1, 1),
        ("reconstruct", SMALL["reconstruct"], 1, 0),
    ])
    def test_field_sampled_once(self, tmp_path, monkeypatch, name, cfg,
                                samples, transforms):
        # the lattice samples feed the errors, the fill's origin and, on a
        # noise-free row only, the tensor-grid oracle
        calls = []
        for method in ("sample", "forward"):
            def counted(self, *args, _method=method,
                        _orig=getattr(SpectralGrid, method)):
                calls.append(_method)
                return _orig(self, *args)

            monkeypatch.setattr(SpectralGrid, method, counted)
        assert run(name, dict(cfg), str(tmp_path), seed=0) == 0
        assert calls.count("sample") == samples
        assert calls.count("forward") == transforms

    @pytest.mark.parametrize("name, cfg", [
        ("reconstruct", {"grid.points": 32, "slice.n_launch": 32,
                         "recon.R": 100.0}),
        ("stability-curve", {**SMALL_CURVE, "grid.points": 8,
                             "noise.levels": [1e-9, 1e-10]}),
    ])
    def test_oversized_cut_radius_rejected_before_fill(
            self, tmp_path, monkeypatch, name, cfg):
        slices = []

        def counted(*args, **kwargs):
            slices.append(args[1])
            return slice_from_sinogram(*args, **kwargs)

        monkeypatch.setattr(reconstruct, "slice_from_sinogram", counted)
        assert run(name, dict(cfg), str(tmp_path), seed=0) == 2
        art = tmp_path / f"{name}-{config_hash(cfg, 0)[:12]}"
        first = (art / "error.txt").read_text().splitlines()[0]
        assert first == "error_type = RTooLargeForGrid"
        assert slices == []

    def test_dtn_diagnostics_recorded(self, tmp_path):
        cfg = {"grid.nx": 17, "probes.count": 3,
               "family.scales": [0.02, 0.04, 0.08]}
        assert run("dtn", dict(cfg), str(tmp_path), seed=0) == 0
        art = tmp_path / f"dtn-{config_hash(cfg, 0)[:12]}"
        rows = manifest_sections(art / "manifest.txt")["diagnostics"]
        lines = (art / "dtn_curve.csv").read_text().splitlines()[1:]
        # 53 steps of 0.6/16 end at 1.9875 (in floats), short of grid.T 2
        t_end = WaveGrid(17, 0.6 / 16, 2.0).t_end
        assert rows.pop("grid") == f"t_end={t_end!r}"
        assert list(rows) == [f"row{i}" for i in range(len(lines))]
        for line, entry in zip(lines, rows.values()):
            scale, c_dist, norm, _ = (float(v) for v in line.split(","))
            values = {k: float(v) for k, v in
                      (item.split("=") for item in entry.split())}
            ratios = [v for k, v in values.items() if k.startswith("ratio_")]
            assert len(ratios) == 3
            assert max(ratios) == norm
            assert values["c_dist_over_norm"] == c_dist / norm
            assert 0.0 < values["cfl_margin"] <= 1.0

    def test_identity_check_pipeline(self, tmp_path, capsys):
        # at grid.T 1.0 the nx = 17 pairings have opposite signs, which
        # the pipeline rejects; at the default 1.5 both grids resolve
        cfg = {"grid.sizes": [17, 33], "grid.T": 1.5}
        code = run("identity-check", dict(cfg), str(tmp_path), seed=0)
        assert code == 0
        art = tmp_path / f"identity-check-{config_hash(cfg, 0)[:12]}"
        lines = (art / "identity_check.csv").read_text().splitlines()
        assert lines[0] == "nx,lhs,rhs,relative_gap"
        assert len(lines) == 3
        rows = manifest_sections(art / "manifest.txt")["diagnostics"]
        grids = [WaveGrid(nx, 0.6 / (nx - 1), 1.5) for nx in (17, 33)]
        assert rows == {f"grid{g.nx}": f"t_end={g.t_end!r}" for g in grids}

    @given(nx=st.sampled_from([3, 5, 9, 17]), T=st.floats(0.3, 2.0))
    # both pairings are negative roundoff, 3.5e-54 against 6.6e-35, so the
    # gap rounds to exactly 1 with the signs agreeing
    @example(nx=3, T=1.181640625)
    @settings(max_examples=40, deadline=None)
    def test_identity_gap_resolved_or_rejected(self, nx, T):
        # a written gap compares two pairings of one sign, so it is below
        # 1; anything else is a named error
        cfg = {"grid.sizes": [nx], "grid.T": T}
        with tempfile.TemporaryDirectory() as tmp:
            code = run("identity-check", dict(cfg), tmp, seed=0)
            art = Path(tmp) / f"identity-check-{config_hash(cfg, 0)[:12]}"
            if code == 2:
                first = (art / "error.txt").read_text().splitlines()[0]
            else:
                row = (art / "identity_check.csv").read_text().splitlines()[1]
        if WaveGrid(nx=nx, k=0.6 / (nx - 1), T=T).nt < 3:
            assert first == "error_type = ConfigInvalid"
        elif code == 2:
            assert first == "error_type = IncompatibleData"
        else:
            assert code == 0
            _, lhs, rhs, gap = (float(v) for v in row.split(","))
            assert (lhs > 0 and rhs > 0) or (lhs < 0 and rhs < 0)
            assert gap < 1.0


class TestCli:
    def test_bad_config_path(self, tmp_path):
        assert main(["forward", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("subcommand", ["forward", "acceptance"])
    def test_dotless_key_rejected_by_schema(self, monkeypatch, tmp_path,
                                            capsys, subcommand):
        # the schema is the one rule for a key: a key without a dot is
        # unknown like any other
        monkeypatch.setattr(acc, "CRITERIA", [])
        cfg = tmp_path / "f.cfg"
        cfg.write_text("foo = 1\n")
        argv = [subcommand, "--config", str(cfg)]
        if subcommand != "acceptance":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        printed = capsys.readouterr()
        assert (f"ERROR ConfigInvalid: unknown keys for {subcommand!r}: "
                "foo\n") in printed.out + printed.err

    def test_forward_roundtrip(self, tmp_path):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("rays.boundary = 4\nrays.directions = 1\nseed = 9\n")
        code = main(["forward", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        assert code == 0
        subdirs = list((tmp_path / "out").iterdir())
        assert len(subdirs) == 1
        assert (subdirs[0] / "sinogram.csv").exists()

    def test_seed_line_same_as_seed_flag(self, tmp_path):
        base = "rays.boundary = 2\nrays.directions = 1\nnoise.level = 0.01\n"
        blobs = []
        for name, text, argv in [("line", base + "seed = 5\n", []),
                                 ("flag", base, ["--seed", "5"]),
                                 ("none", base, [])]:
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            out = tmp_path / name
            assert main(["forward", "--config", str(cfg), "--out", str(out),
                         *argv]) == 0
            (art,) = out.iterdir()
            blobs.append((art / "sinogram.csv").read_bytes())
        assert blobs[0] == blobs[1] != blobs[2]

    def test_acceptance_only_filter(self, monkeypatch, capsys):
        calls = []

        def fake(ctx):
            calls.append("ran")
            return acc.CriterionResult(99, "fake", True, "x",
                                       "y", 0.0)

        monkeypatch.setattr(acc, "CRITERIA",
                            [(fake, "spectral"), (fake, "beams")])
        code = main(["acceptance", "--only", "spectral"])
        assert code == 0
        assert len(calls) == 1
        assert "1/1 criteria passed" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, text", [
        (["--only", "typo"], ""),
        ([], "foo.bar = 1\n"),
        ([], "acceptance.only = typo\n"),
        # the criteria fix their own seeds and write no artifacts
        (["--seed", "1"], ""),
        (["--out", "elsewhere"], ""),
        ([], "seed = 1\n"),
    ], ids=["only-typo", "unknown-key", "only-key-typo", "seed-flag",
            "out-flag", "seed-key"])
    def test_acceptance_rejects_unknown_input(self, monkeypatch, tmp_path,
                                              argv, text):
        calls = []

        def fake(ctx):
            calls.append("ran")
            return acc.CriterionResult(99, "fake", True, "x", "y", 0.0)

        monkeypatch.setattr(acc, "CRITERIA", [(fake, "spectral")])
        cfg = tmp_path / "a.cfg"
        cfg.write_text(text)
        try:
            code = main(["acceptance", "--config", str(cfg), *argv])
        except SystemExit as exc:       # argparse rejects a flag
            code = exc.code
        assert code == 2
        assert calls == []

    @pytest.mark.parametrize("seed", ["abc", "nan", "1.5", "true", "-1"])
    def test_non_integer_seed_rejected(self, tmp_path, capsys, seed):
        # each escaped main() as a ValueError or ran at a truncated seed; a
        # negative one ran here, with no noise drawn, and escaped any run
        # that seeds a generator as numpy's ValueError
        cfg = tmp_path / "f.cfg"
        cfg.write_text(f"rays.boundary = 2\nrays.directions = 1\n"
                       f"seed = {seed}\n")
        assert main(["forward", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2
        assert "ConfigInvalid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_acceptance_failure_exit_code(self, monkeypatch, capsys):
        def fake(ctx):
            return acc.CriterionResult(99, "fake", False, "x",
                                       "y", 0.0)

        monkeypatch.setattr(acc, "CRITERIA", [(fake, "spectral")])
        assert main(["acceptance"]) == 1


class TestThreads:
    @pytest.mark.parametrize("value", ["0", "-2", "two", "1.5", ""])
    def test_invalid_thread_count_rejected(self, monkeypatch, value):
        monkeypatch.setenv("TDXRAY_THREADS", value)
        with pytest.raises(ConfigInvalid):
            thread_count()

    def test_thread_count(self, monkeypatch):
        monkeypatch.delenv("TDXRAY_THREADS", raising=False)
        assert thread_count() == 1
        monkeypatch.setenv("TDXRAY_THREADS", "3")
        assert thread_count() == 3

    def test_determinism_criterion_restores_threads(self, monkeypatch):
        monkeypatch.setenv("TDXRAY_THREADS", "2")
        assert acc.criterion_12(acc.AcceptanceContext()).passed
        assert os.environ["TDXRAY_THREADS"] == "2"


class TestBenchmarkHooks:
    def test_traced_names_still_bind(self, monkeypatch):
        # the benchmark's traced run rebinds these names from outside; a
        # rename in the package would break it without this check
        tracer = load_perfbench("tracer", monkeypatch)
        originals = {}
        for mod, attr, *_ in tracer.FUNCTIONS:
            module = importlib.import_module(mod)
            originals[(module, attr)] = getattr(module, attr)
        rec = tracer.Recorder()
        rec.install()
        try:
            for (module, attr), fn in originals.items():
                assert getattr(module, attr) is not fn
        finally:
            rec.uninstall()
        for (module, attr), fn in originals.items():
            assert getattr(module, attr) is fn

    def test_traced_tiny_rays_beams(self, tmp_path, monkeypatch):
        # a traced run calls every factory and field preset through the
        # tracer, which rebuilds each factor with dataclasses.replace and
        # wraps its views; the run must still match its reference and the
        # beam spans must see their work
        tracer = load_perfbench("tracer", monkeypatch)
        workloads = load_perfbench("workloads", monkeypatch)
        rec = tracer.Recorder()
        rec.install()
        try:
            _, calls = workloads.build("rays-beams", 0, "tiny",
                                       str(tmp_path))
            reference = workloads.load_reference("tiny", "rays-beams", 0)
            for name, call in calls:
                assert workloads.compare(call(), reference[name]) == []
        finally:
            rec.uninstall()
        metrics = tracer.layer_metrics(rec.spans)
        assert metrics["beams.build_s"] > 0
        assert metrics["beams.fd_points"] > 0
        # each table is counted by the one write span that wrote it
        assert metrics["harness.csv_bytes"] == sum(
            p.stat().st_size for p in tmp_path.rglob("*.csv"))

    @staticmethod
    def check_run(workload, variant, size, tmp_path, monkeypatch):
        # the benchmark refuses a run whose outputs leave its recorded
        # reference by more than 1e-12 relative
        workloads = load_perfbench("workloads", monkeypatch)
        _, calls = workloads.build(workload, variant, size, str(tmp_path))
        reference = workloads.load_reference(size, workload, variant)
        for name, call in calls:
            assert workloads.compare(call(), reference[name]) == []

    @pytest.mark.parametrize("variant", [0, 5, 10, 15])
    def test_tiny_recon_sweep_matches_reference(self, tmp_path, monkeypatch,
                                                variant):
        self.check_run("recon-sweep", variant, "tiny", tmp_path,
                       monkeypatch)

    @pytest.mark.parametrize("variant", [0, 5, 10, 15])
    def test_tiny_rays_beams_matches_reference(self, tmp_path, monkeypatch,
                                               variant):
        # forward, a beam and a conformal sinogram through the bundled march
        self.check_run("rays-beams", variant, "tiny", tmp_path,
                       monkeypatch)

    def test_tiny_dtn_family_matches_reference(self, tmp_path, monkeypatch):
        # dtn takes no random input, so one variant covers the workload
        self.check_run("dtn-family", 0, "tiny", tmp_path, monkeypatch)

    def test_full_recon_sweep_matches_reference(self, tmp_path,
                                                monkeypatch):
        # the benchmark times the full size: a 64-point lattice and 200
        # launch intervals, against the tiny run's 32 and 48
        self.check_run("recon-sweep", 7, "full", tmp_path, monkeypatch)

    def test_full_dtn_family_matches_reference(self, tmp_path, monkeypatch):
        # dtn at its defaults, the size the benchmark times: six marches of
        # the reference and four factors on 97 nodes per axis, against the
        # tiny run's two marches of three on 33
        self.check_run("dtn-family", 0, "full", tmp_path, monkeypatch)


class TestDeterminism:
    def test_forward_byte_identical_across_threads(self, tmp_path,
                                                   monkeypatch):
        cfg = {"rays.boundary": 6, "rays.directions": 2,
               "noise.level": 1e-3}
        blobs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("TDXRAY_THREADS", threads)
            sub = tmp_path / f"t{threads}"
            run("forward", dict(cfg), str(sub), seed=11)
            art = sub / f"forward-{config_hash(cfg, 11)[:12]}"
            diagnostics = manifest_sections(art / "manifest.txt")[
                "diagnostics"]
            blobs.append(((art / "sinogram.csv").read_bytes(), diagnostics))
        assert blobs[0] == blobs[1]

    def test_conformal_sinogram_byte_identical_across_threads(
            self, tmp_path, monkeypatch, slice_field, unit_disk):
        metric = MetricSpec("conformal", bump_factor(0.05, (0.1, 0.0), 0.75))
        rays = sample_inward_bundle(unit_disk, 3, 2)
        blobs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("TDXRAY_THREADS", threads)
            path = tmp_path / f"t{threads}.csv"
            sinogram(slice_field, rays, metric, unit_disk).write_csv(path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_dtn_byte_identical_across_threads(self, tmp_path,
                                               monkeypatch):
        cfg = {"grid.nx": 17, "probes.count": 3,
               "family.scales": [0.02, 0.04]}
        blobs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("TDXRAY_THREADS", threads)
            sub = tmp_path / f"t{threads}"
            assert run("dtn", dict(cfg), str(sub), seed=0) == 0
            art = sub / f"dtn-{config_hash(cfg, 0)[:12]}"
            # the curve keeps only each row's largest ratio; the per-probe
            # ratios, labelled by probe, are in the diagnostics
            diagnostics = manifest_sections(art / "manifest.txt")[
                "diagnostics"]
            blobs.append(((art / "dtn_curve.csv").read_bytes(), diagnostics))
        assert blobs[0] == blobs[1]

    def test_forward_zero_field(self, tmp_path):
        cfg = {"field.preset": "zero", "rays.boundary": 4,
               "rays.directions": 1}
        assert run("forward", dict(cfg), str(tmp_path), seed=0) == 0
        art = tmp_path / f"forward-{config_hash(cfg, 0)[:12]}"
        rows = (art / "sinogram.csv").read_text().splitlines()[1:]
        assert all(row.rsplit(",", 1)[1] == "0.0" for row in rows)
