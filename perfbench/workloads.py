"""The three benchmark workloads, driven through tdxray's public API.

A workload is a list of calls.  Each call runs one CLI pipeline
(``tdxray.harness.runner.run``) or one public API function and returns its
outputs as named lists of floats.  The reference check compares them with
the values in ``reference.json``, recorded at the seed commit.

The workload seed picks one of ``VARIANTS`` input variants (seed mod
``VARIANTS``).  The variant drives the noise draws of ``recon-sweep`` and
rotates the ray family of ``rays-beams``; ``dtn-family`` takes no random
input.  Every variant's outputs are recorded, so each run is checked at the
1e-12 relative bar whatever seed it is given.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
from pathlib import Path

import numpy as np

import tdxray.beams  # noqa: F401  imported here so tracing can wrap it
import tdxray.wavesim  # noqa: F401
from tdxray import conformal, geometry, xray
from tdxray.harness import runner

VARIANTS = 16
RTOL = 1e-12
SIZES = ("full", "tiny")
REFERENCE = Path(__file__).with_name("reference.json")


class CallFailed(Exception):
    """A pipeline returned a non-zero status."""


def _pipeline(subcommand: str, cfg: dict, out_dir: str, seed: int):
    """Run one CLI pipeline; returns (artifact directory, printed text)."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        status = runner.run(subcommand, cfg, out_dir, seed)
    text = printed.getvalue()
    if status != 0:
        raise CallFailed(f"{subcommand} returned {status}: {text.strip()}")
    return re.search(r"^artifacts: (.*)$", text, re.M).group(1), text


def _columns(path: str, names) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {n: [float(r[n]) for r in rows] for n in names}


def recon_sweep(variant: int, tiny: bool, out_dir: str):
    if tiny:
        cfg = {"noise.levels": [1e-2, 1e-3, 1e-4], "grid.points": 32,
               "slice.n_launch": 48, "slice.n_s": 48}
    else:
        cfg = {"noise.levels": [1e-3, 1e-4, 1e-5, 1e-6]}

    def stability_curve():
        art, _ = _pipeline("stability-curve", cfg, out_dir, variant)
        return _columns(os.path.join(art, "stability_curve.csv"),
                        ["delta", "R", "l2_error", "c0_error", "envelope",
                         "feasible"])

    return [("stability-curve", stability_curve)]


def dtn_family(variant: int, tiny: bool, out_dir: str):
    cfg = ({"grid.nx": 33, "family.scales": [0.02, 0.04],
            "probes.count": 2} if tiny else {})

    def dtn():
        art, _ = _pipeline("dtn", cfg, out_dir, variant)
        return _columns(os.path.join(art, "dtn_curve.csv"),
                        ["scale", "c_dist_l2", "dtn_norm", "envelope"])

    return [("dtn", dtn)]


def _rotated(ray, angle: float):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return geometry.BoundaryRay(rot @ ray.x, rot @ ray.omega,
                                rot @ ray.normal)


def rays_beams(variant: int, tiny: bool, out_dir: str):
    turn = 2.0 * math.pi * variant / VARIANTS
    if tiny:
        forward_cfg = {"rays.boundary": 4, "rays.directions": 2}
        lambdas, n_boundary, n_directions = [16, 32, 64, 128], 2, 2
    else:
        forward_cfg = {}
        lambdas, n_boundary, n_directions = [16, 32, 64, 128, 256], 8, 4
    beam_cfg = {"conformal.amplitude": 0.01, "beam.lambdas": lambdas,
                "ray.angle": turn}
    body = geometry.ball()
    # the bundle is symmetric under turns of 2 pi / n_boundary, so the
    # variants spread over one such turn
    rays = [_rotated(r, turn / n_boundary)
            for r in geometry.sample_inward_bundle(body, n_boundary,
                                                   n_directions)]

    def forward():
        art, _ = _pipeline("forward", forward_cfg, out_dir, variant)
        return _columns(os.path.join(art, "sinogram.csv"), ["tau", "value"])

    def beam():
        art, text = _pipeline("beam", beam_cfg, out_dir, variant)
        out = _columns(os.path.join(art, "beam_residual.csv"),
                       ["lambda", "residual_l2"])
        out["slope"] = [float(re.search(r"residual slope = (\S+)",
                                        text).group(1))]
        return out

    def conformal_sinogram():
        # looked up through the modules at call time, so that traced
        # iterations see the wrapped factories and field presets
        c = conformal.bump_factor(0.05, (0.1, 0.0), 0.75)
        sino = xray.sinogram(runner.build_field({}), rays,
                             geometry.MetricSpec("conformal", c), body)
        return {"tau": sino.taus.tolist(), "value": sino.values.tolist()}

    return [("forward", forward), ("beam", beam),
            ("conformal-sinogram", conformal_sinogram)]


WORKLOADS = {
    "recon-sweep": recon_sweep,
    "dtn-family": dtn_family,
    "rays-beams": rays_beams,
}


def build(name: str, seed: int, size: str, out_dir: str):
    """(variant, [(call name, call)]) for one workload and seed."""
    variant = seed % VARIANTS
    return variant, WORKLOADS[name](variant, size == "tiny", out_dir)


def load_reference(size: str, name: str, variant: int) -> dict:
    return json.loads(REFERENCE.read_text())["outputs"][size][name][
        str(variant)]


def compare(outputs: dict, reference: dict) -> list[str]:
    """Mismatches between one call's outputs and its reference values.

    Values agree when |got - ref| <= RTOL * (|ref| + max|ref of that
    output|); the second term keeps exact zeros (rays that miss the field)
    from demanding bit equality.  NaN matches NaN.
    """
    problems = []
    for key in sorted(set(outputs) | set(reference)):
        if key not in outputs or key not in reference:
            problems.append(f"{key}: present on one side only")
            continue
        got = np.asarray(outputs[key], dtype=float)
        ref = np.asarray(reference[key], dtype=float)
        if got.shape != ref.shape:
            problems.append(f"{key}: {got.size} values, expected {ref.size}")
            continue
        finite = ref[np.isfinite(ref)]
        scale = float(np.max(np.abs(finite))) if finite.size else 0.0
        bad = np.flatnonzero(~np.isclose(got, ref, rtol=RTOL,
                                         atol=RTOL * scale, equal_nan=True))
        if bad.size:
            i = int(bad[0])
            problems.append(f"{key}[{i}] = {got[i]!r}, expected {ref[i]!r} "
                            f"({bad.size} of {ref.size} differ)")
    return problems
