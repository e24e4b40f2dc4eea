"""Experiment pipelines behind the CLI subcommands.

Every run writes its CSV artifacts plus a manifest into a directory keyed
by the config hash, so distinct experiments never clobber each other and
identical config+seed reruns produce byte-identical CSVs.
"""

from __future__ import annotations

import csv
import os
import numpy as np

from ..conformal import bump_factor, constant_factor
from ..errors import ConfigInvalid, IncompatibleData, TdxrayError
from ..geometry import MetricSpec, ball, ellipsoid, make_ray, sample_inward_bundle
from ..reconstruct import (StabilityCurve, check_cut_radius, choose_R,
                           reconstruction_errors, stability_curve,
                           truncated_inversion, visible_slice_source)
from ..spectral import SpectralGrid, check_coverage, slice_from_sinogram
from ..xray import perturb_sinogram, sinogram
from .config import FIELD_PRESETS, validate
from .manifest import RunManifest


def build_body(cfg: dict, dim: int):
    """The configured body, which must have the dimension dim of the field
    (or ray) it is traced with."""
    kind = cfg["body.kind"]
    body = (ball(cfg["body.radius"], dim=dim) if kind == "ball"
            else ellipsoid(cfg["body.semiaxes"]))
    if body.dim != dim:
        raise ConfigInvalid(f"{kind} with {body.dim} axes does not match "
                            f"the {dim}-D field")
    return body


def build_field(cfg: dict):
    # the benchmark builds the default field with build_field({})
    return FIELD_PRESETS[cfg.get("field.preset", "slice-default")]()


def _wave_grid(nx: int, k: float, T: float):
    """A wave grid whose grid.T spans the 2 steps the leapfrog needs."""
    from ..wavesim import WaveGrid

    grid = WaveGrid(nx=nx, k=k, T=T)
    if grid.nt < 3:
        raise ConfigInvalid(f"grid.T = {T!r} spans {grid.nt - 1} steps of "
                            f"{k:.3g} at nx = {nx}; the leapfrog needs at "
                            "least 2")
    return grid


def _recon_grid(cfg: dict, f) -> SpectralGrid:
    """The reconstruction lattice, whose grid.extent must cover the
    field's support."""
    extent = cfg["grid.extent"]
    try:
        return SpectralGrid.for_field(f, n_points=cfg["grid.points"],
                                      extent=extent)
    except ValueError as exc:
        raise ConfigInvalid(f"grid.extent = {extent!r}: {exc}") from exc


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


# ---------------------------------------------------------------- pipelines


def run_forward(cfg: dict, seed: int, art: str, man: RunManifest) -> None:
    f = build_field(cfg)
    body = build_body(cfg, f.dim)
    check_coverage(f, body)
    nb, nd, dt = cfg["rays.boundary"], cfg["rays.directions"], cfg["xray.dt"]
    rays = sample_inward_bundle(body, nb, nd)
    man.stage("setup")
    sino = sinogram(f, rays, MetricSpec(), body, dt=dt)
    # any finite family undersamples the sup over all boundary rays; the
    # ratio against a doubled family is the standard refinement diagnostic
    fine = sinogram(f, sample_inward_bundle(body, 2 * nb, nd), MetricSpec(),
                    body, dt=dt)
    ratio = fine.sup_norm / sino.sup_norm if sino.sup_norm > 0 else 1.0
    sino, noise_sup = perturb_sinogram(sino, cfg["noise.level"], seed)
    man.stage("sinogram")
    man.diagnostics.append(("sinogram", {
        "max_halving_gap": sino.max_halving_gap,
        "refinement_ratio": float(ratio), "noise_sup": noise_sup}))
    sino.write_csv(os.path.join(art, "sinogram.csv"))
    man.stage("write")
    print(f"rays = {len(rays)}  sup_norm = {float(sino.sup_norm)!r}  "
          f"refinement_ratio = {float(ratio)!r}")


def run_slice_check(cfg: dict, seed: int, art: str,
                    man: RunManifest) -> float:
    """The worst relative slice-identity error over the probes."""
    f = build_field(cfg)
    body = build_body(cfg, f.dim)
    grid = SpectralGrid.for_field(f, n_points=cfg["grid.points"],
                                  pad=cfg["grid.pad"])
    samples = grid.sample(f)
    man.stage("sample")
    rng = np.random.default_rng(seed)
    xi_max = cfg["slice.xi_max"]
    rows = []
    worst = 0.0
    for _ in range(cfg["slice.count"]):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        omega = np.array([np.cos(ang), np.sin(ang)])
        xi = rng.uniform(-xi_max, xi_max, f.dim)
        tau = -float(omega @ xi)
        ref = grid.point_transform(samples, [tau], [xi])[0]
        val = slice_from_sinogram(f, omega, xi, body,
                                  n_launch=cfg["slice.n_launch"],
                                  n_s=cfg["slice.n_s"])
        err = abs(val - ref)
        rel = err / (1.0 + abs(ref))
        worst = max(worst, rel)
        rows.append([float(omega[0]), float(omega[1]), float(xi[0]),
                     float(xi[1]), tau, float(ref.real), float(ref.imag),
                     float(val.real), float(val.imag), float(err),
                     float(rel)])
    man.stage("probes")
    _write_csv(os.path.join(art, "slice_check.csv"),
               ["omega1", "omega2", "xi1", "xi2", "tau", "re_grid",
                "im_grid", "re_slice", "im_slice", "abs_err", "rel_err"],
               rows)
    man.stage("write")
    print(f"max relative slice-identity error = {float(worst)!r}")
    return worst


def run_reconstruct(cfg: dict, seed: int, art: str, man: RunManifest) -> None:
    f = build_field(cfg)
    body = build_body(cfg, f.dim)
    grid = _recon_grid(cfg, f)
    if "recon.R" in cfg:
        # the rule's inputs would change nothing once R is given
        if "recon.delta" in cfg or "recon.epsilon" in cfg:
            raise ConfigInvalid("recon.R fixes the cut radius; recon.delta "
                                "and recon.epsilon cannot be set with it")
        R, conflict = cfg["recon.R"], False
    else:
        cut = choose_R(cfg["recon.delta"], cfg["recon.epsilon"], f.dim)
        R, conflict = cut.R, cut.conflict
    check_cut_radius(grid, R)
    samples = grid.sample(f)
    man.stage("setup")
    source = visible_slice_source(f, body, grid, samples, R,
                                  n_launch=cfg["slice.n_launch"],
                                  n_s=cfg["slice.n_s"])
    man.stage("slices")
    rec, diag = truncated_inversion(source, R)
    l2, c0 = reconstruction_errors(grid, samples, rec)
    man.stage("invert")
    _write_csv(os.path.join(art, "recon_metrics.csv"),
               ["R", "conflict", "n_modes", "l2_error", "c0_error",
                "imag_residual"],
               [[float(R), int(conflict), diag["n_modes"], float(l2),
                 float(c0), float(diag["imag_residual"])]])
    man.stage("write")
    print(f"R = {R:.4f}  l2 = {float(l2)!r}  c0 = {float(c0)!r}")


def run_stability_curve(cfg: dict, seed: int, art: str,
                        man: RunManifest) -> StabilityCurve:
    f = build_field(cfg)
    body = build_body(cfg, f.dim)
    grid = _recon_grid(cfg, f)
    man.stage("setup")
    curve = stability_curve(
        f, body, cfg["noise.levels"], cfg["recon.epsilon"], seed, grid,
        n_launch=cfg["slice.n_launch"], n_s=cfg["slice.n_s"])
    man.stage("sweep")
    man.diagnostics += [
        (f"row{i}", {"n_modes": r.n_modes, "imag_residual": r.imag_residual,
                     "conflict": int(r.conflict)})
        for i, r in enumerate(curve.rows)]
    curve.write_csv(os.path.join(art, "stability_curve.csv"))
    man.stage("write")
    fit = curve.fit()
    print(f"fit C = {float(fit['C'])!r}  R^2 = {float(fit['r_squared'])!r}")
    return curve


def run_beam(cfg: dict, seed: int, art: str, man: RunManifest) -> None:
    from ..beams import build_beam, residual_scaling

    amp = cfg["conformal.amplitude"]
    c = (constant_factor(1.0) if amp == 0.0 else
         bump_factor(amp, cfg["conformal.center"], cfg["conformal.width"]))
    # ray.angle sets a ray in the plane, and the factor is planar too
    body = build_body(cfg, c.dim)
    ang = cfg["ray.angle"]
    anchor = body.boundary_point(np.array([-np.cos(ang), -np.sin(ang)]))
    ray = make_ray(body, anchor, [np.cos(ang), np.sin(ang)])
    man.stage("setup")
    beam = build_beam(c, body, ray, t0=cfg["beam.t0"], dt=cfg["beam.dt"])
    beam.write_csv(os.path.join(art, "beam.csv"))
    man.stage("beam")
    if "beam.lambdas" in cfg:
        res = residual_scaling(beam, body, cfg["beam.lambdas"])
        _write_csv(os.path.join(art, "beam_residual.csv"),
                   ["lambda", "residual_l2"],
                   [[lam, float(s)] for lam, s in zip(res["lambdas"],
                                                      res["sups"])])
        print(f"residual slope = {float(res['slope'])!r}")
    man.stage("write")


def run_dtn(cfg: dict, seed: int, art: str, man: RunManifest) -> dict:
    """The conformal_stability_experiment result."""
    from ..wavesim import conformal_stability_experiment

    grid = _wave_grid(cfg["grid.nx"], cfg["grid.k"], cfg["grid.T"])
    man.stage("setup")
    out = conformal_stability_experiment(
        cfg["family.scales"], grid, probe_count=cfg["probes.count"],
        bump_center=tuple(cfg["bump.center"]), bump_width=cfg["bump.width"])
    if np.isnan(out["envelope_C"]):
        # no row's DtN norm is above roundoff, so none fixes the envelope
        raise IncompatibleData(f"grid.T = {grid.T!r}: every probed DtN "
                               "norm is at roundoff")
    man.stage("experiment")
    for i, r in enumerate(out["rows"]):
        norm = r["dtn_norm"]
        man.diagnostics.append((f"row{i}", {
            **{f"ratio_{name}": v for name, v in r["ratios"].items()},
            "c_dist_over_norm": (r["c_dist_l2"] / norm if norm > 0
                                 else float("nan")),
            "cfl_margin": r["cfl_margin"]}))
    _write_csv(os.path.join(art, "dtn_curve.csv"),
               ["scale", "c_dist_l2", "dtn_norm", "envelope"],
               [[r["scale"], r["c_dist_l2"], r["dtn_norm"], r["envelope"]]
                for r in out["rows"]])
    man.stage("write")
    norms = [r["dtn_norm"] for r in out["rows"]]
    print(f"envelope C = {float(out['envelope_C'])!r}  monotone = "
          f"{all(a < b for a, b in zip(norms, norms[1:]))}")
    return out


# the identity pairings' floor relative to the product of the two probes'
# boundary L2 norms.  On the default bump and probes, over grid.T 0.9 to
# 2.0, the pairings at 3 and 5 nodes per axis are roundoff, at most 3e-12
# of that product, and at 9 to 33 nodes they are at least 4e-5 of it; 1e-8
# lies more than three decades from either.
PAIRING_FLOOR = 1e-8


def run_identity_check(cfg: dict, seed: int, art: str,
                       man: RunManifest) -> list[float]:
    """The relative identity gap on each grid size."""
    from ..wavesim import boundary_probes, key_identity_check, l2_boundary_norm

    T, cfl = cfg["grid.T"], cfg["grid.cfl"]
    c = bump_factor(cfg["bump.amplitude"], cfg["bump.center"],
                    cfg["bump.width"], T=T)
    # the schema bounds probe.first and probe.second by these four
    probes = boundary_probes(4, T)
    f1, f2 = probes[cfg["probe.first"]], probes[cfg["probe.second"]]
    man.stage("setup")
    rows = []
    for nx in cfg["grid.sizes"]:
        grid = _wave_grid(nx, cfl / (nx - 1), T)
        res = key_identity_check(c, grid, f1, f2)
        lhs, rhs, gap = res["lhs"], res["rhs"], res["relative_gap"]
        if not (np.sign(lhs) * np.sign(rhs) > 0.0 and gap < 1.0):
            # the relative gap reads 0 / 0 or exactly 1 (opposite signs, or
            # one pairing below the other's rounding): it cannot tell an
            # unresolved grid from a wrong identity
            raise IncompatibleData(
                f"grid.T = {T!r}: the identity pairings lhs = {lhs:.3g} "
                f"and rhs = {rhs:.3g} give no relative gap below 1 at "
                f"nx = {nx}")
        norms = np.prod([l2_boundary_norm(grid, f.sample(grid), grid.corner)
                         for f in (f1, f2)])
        if max(abs(lhs), abs(rhs)) < PAIRING_FLOOR * norms:
            # pairings this far below the probes' norms are roundoff, whose
            # signs and gap mean nothing
            raise IncompatibleData(
                f"grid.T = {T!r}: the identity pairings lhs = {lhs:.3g} "
                f"and rhs = {rhs:.3g} are below {PAIRING_FLOOR:g} times the "
                f"probes' norm product {norms:.3g} at nx = {nx}")
        rows.append([nx, float(lhs), float(rhs), float(gap)])
        man.stage(f"grid{nx}")
    _write_csv(os.path.join(art, "identity_check.csv"),
               ["nx", "lhs", "rhs", "relative_gap"], rows)
    man.stage("write")
    gaps = [r[3] for r in rows]
    ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
    print(f"gaps = {[repr(g) for g in gaps]}  ratios = "
          f"{[round(r, 2) for r in ratios]}")
    return gaps


PIPELINES = {
    "forward": run_forward,
    "slice-check": run_slice_check,
    "reconstruct": run_reconstruct,
    "stability-curve": run_stability_curve,
    "beam": run_beam,
    "dtn": run_dtn,
    "identity-check": run_identity_check,
}


def run(subcommand: str, cfg: dict, out_dir: str, seed: int) -> int:
    """Execute a pipeline; returns the process exit status."""
    man = RunManifest(subcommand, cfg, seed)
    art = os.path.join(out_dir, f"{subcommand}-{man.hash[:12]}")
    os.makedirs(art, exist_ok=True)
    try:
        # the manifest and the artifact directory keep the config as given
        PIPELINES[subcommand](validate(subcommand, cfg), seed, art, man)
    except TdxrayError as exc:
        record = os.path.join(art, "error.txt")
        with open(record, "w") as fh:
            fh.write(f"error_type = {type(exc).__name__}\n")
            fh.write(f"message = {exc}\n")
        print(f"ERROR {type(exc).__name__}: {exc}")
        man.write(os.path.join(art, "manifest.txt"))
        return 2
    man.write(os.path.join(art, "manifest.txt"))
    print(f"artifacts: {art}")
    return 0
