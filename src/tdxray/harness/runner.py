"""Experiment pipelines behind the CLI subcommands.

Every run writes its CSV artifacts plus a manifest into a directory keyed
by the config hash, so distinct experiments never clobber each other and
identical config+seed reruns produce byte-identical CSVs.
"""

from __future__ import annotations

import os
import numpy as np

from ..conformal import bump_factor, constant_factor
from ..errors import ConfigInvalid, IncompatibleData, Inadmissible, TdxrayError
from ..geometry import (MetricSpec, ball, ellipsoid, exit_budget, make_ray,
                        sample_inward_bundle)
from ..reconstruct import (StabilityCurve, check_cut_radius, choose_R,
                           kept_modes, reconstruction_errors,
                           stability_curve, truncated_inversion,
                           visible_slice_source)
from ..spectral import SpectralGrid, check_coverage, slice_from_sinogram
from ..table import write_table
from ..xray import perturb_sinogram, sinogram
from .config import FIELD_PRESETS, config_hash, validate
from .manifest import RunManifest


def build_body(cfg: dict, dim: int):
    """The configured body, which must have the dimension dim of the field
    (or ray) it is traced with: a lone semiaxis is a ball in it."""
    axes = cfg["body.semiaxes"]
    body = ball(axes[0], dim) if len(axes) == 1 else ellipsoid(axes)
    if body.dim != dim:
        raise ConfigInvalid(f"body.semiaxes = {axes!r} has {body.dim} axes, "
                            f"not the {dim} of the field")
    return body


def build_field(cfg: dict):
    # the benchmark builds the default field with build_field({})
    return FIELD_PRESETS[cfg.get("field.preset", "slice-default")]()


# values a wave grid may hold over its time levels, nt nx^2: 18 times
# identity-check's largest default grid, 321 levels of 129^2 nodes
WAVE_VALUES = 10**8


def _wave_grid(nx: int, k: float, T: float, named: str):
    """A wave grid whose grid.T spans the 2 steps the leapfrog needs, and
    whose time levels hold at most WAVE_VALUES values, checked before any
    allocation; named gives the config values that set nx, k and T."""
    from ..wavesim import WaveGrid

    levels = T / k + 1
    # nx^2 first, so that a huge nx is never converted to a float
    if nx**2 > WAVE_VALUES or levels * nx**2 > WAVE_VALUES:
        raise ConfigInvalid(f"{named} give {levels:.3g} time levels of "
                            f"nx^2 nodes each: more than the "
                            f"{WAVE_VALUES:g} values a wave grid may hold")
    grid = WaveGrid(nx=nx, k=k, T=T)
    if grid.nt < 3:
        raise ConfigInvalid(f"grid.T = {T!r} spans {grid.nt - 1} steps of "
                            f"{k:.3g} at nx = {nx}; the leapfrog needs at "
                            "least 2")
    return grid


def _check_bump_support(cfg: dict) -> None:
    """c = 1 near the unit square's boundary, as the boundary identity and
    the admissible class need: the bump's support, the disk of radius
    bump.width about bump.center, must stay inside the square."""
    (cx, cy), width = cfg["bump.center"], cfg["bump.width"]
    if not width < min(cx, cy, 1.0 - cx, 1.0 - cy):
        raise Inadmissible(f"bump.width = {width!r} reaches the unit "
                           f"square's boundary from bump.center = "
                           f"{[cx, cy]!r}")


def _lattice(cfg: dict, f, key: str) -> SpectralGrid:
    """The lattice over f's support whose box is sized by key, grid.extent
    (which must cover the support) or grid.pad; a box whose squared
    distances or cell volume overflow is rejected before any sampling."""
    value, n_points = cfg[key], cfg["grid.points"]
    try:
        if key == "grid.extent":
            return SpectralGrid.for_field(f, n_points, extent=value)
        return SpectralGrid.for_field(f, n_points, pad=value)
    except ValueError as exc:
        raise ConfigInvalid(f"{key} = {value!r}: {exc}") from exc


# a function of its own, not an alias of write_table: perfbench's tracer
# wraps it by identity, and an alias would nest, and count twice, the write
# of every typed table's write_csv
def _write_csv(path, header, rows):
    write_table(path, header, rows)


# ---------------------------------------------------------------- pipelines


# path samples a ray may take across the body's diameter
PATH_SAMPLES = 10**5
# RK4 steps a beam may take across its march's time budget
BEAM_STEPS = 10**6


def run_forward(cfg: dict, seed: int, art: str, man: RunManifest) -> None:
    f = build_field(cfg)
    body = build_body(cfg, f.dim)
    check_coverage(f, body)
    nb, nd, dt = cfg["rays.boundary"], cfg["rays.directions"], cfg["xray.dt"]
    if body.diameter / dt > PATH_SAMPLES:
        raise ConfigInvalid(f"xray.dt = {dt!r} takes more than "
                            f"{PATH_SAMPLES} samples across the body's "
                            f"diameter {body.diameter!r}")
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
    grid = _lattice(cfg, f, "grid.pad")
    samples = grid.sample(f)
    man.stage("sample")
    rng = np.random.default_rng(seed)
    xi_max = cfg["slice.xi_max"]
    rows = []
    for _ in range(cfg["slice.count"]):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        omega = np.array([np.cos(ang), np.sin(ang)])
        xi = rng.uniform(-xi_max, xi_max, f.dim)
        tau = -float(omega @ xi)
        ref = grid.point_transform(samples, [tau], [xi])[0]
        val = slice_from_sinogram(f, omega, xi, body,
                                  n_launch=cfg["slice.n_launch"],
                                  n_s=cfg["slice.n_s"])
        if not np.isfinite([ref, val]).all():
            raise IncompatibleData(
                f"grid.pad = {cfg['grid.pad']!r} and grid.points = "
                f"{cfg['grid.points']!r} give the lattice reference "
                f"{complex(ref)!r} and slice value {complex(val)!r}")
        err = abs(val - ref)
        rel = err / (1.0 + abs(ref))
        # rel is the returned and printed worst, a Python float
        rows.append([*omega, *xi, tau, ref.real, ref.imag, val.real,
                     val.imag, err, float(rel)])
    man.stage("probes")
    _write_csv(os.path.join(art, "slice_check.csv"),
               ["omega1", "omega2", "xi1", "xi2", "tau", "re_grid",
                "im_grid", "re_slice", "im_slice", "abs_err", "rel_err"],
               rows)
    man.stage("write")
    worst = max(row[-1] for row in rows)
    print(f"max relative slice-identity error = {worst!r}")
    return worst


def run_reconstruct(cfg: dict, seed: int, art: str, man: RunManifest) -> None:
    f = build_field(cfg)
    body = build_body(cfg, f.dim)
    grid = _lattice(cfg, f, "grid.extent")
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
    rec, diag = truncated_inversion(grid, *kept_modes(source, R), R)
    l2, c0 = reconstruction_errors(grid, samples, rec)
    man.stage("invert")
    _write_csv(os.path.join(art, "recon_metrics.csv"),
               ["R", "conflict", "n_modes", "l2_error", "c0_error",
                "imag_residual"],
               [[R, int(conflict), diag["n_modes"], l2, c0,
                 diag["imag_residual"]]])
    man.stage("write")
    print(f"R = {R:.4f}  l2 = {float(l2)!r}  c0 = {float(c0)!r}")


def run_stability_curve(cfg: dict, seed: int, art: str,
                        man: RunManifest) -> StabilityCurve:
    f = build_field(cfg)
    body = build_body(cfg, f.dim)
    grid = _lattice(cfg, f, "grid.extent")
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
    c = (constant_factor() if amp == 0.0 else
         bump_factor(amp, cfg["conformal.center"], cfg["conformal.width"]))
    # ray.angle sets a ray in the plane, and the factor is planar too
    body = build_body(cfg, c.dim)
    ang = cfg["ray.angle"]
    anchor = body.boundary_point(np.array([-np.cos(ang), -np.sin(ang)]))
    ray = make_ray(body, anchor, [np.cos(ang), np.sin(ang)])
    dt = cfg["beam.dt"]
    # the march's time budget is set by the admissible speed sqrt(m0)
    c.check_admissible(*body.bounding_box)
    t_max = exit_budget(c, body)
    if t_max / dt > BEAM_STEPS:
        raise ConfigInvalid(f"beam.dt = {dt!r} takes more than {BEAM_STEPS} "
                            f"steps across the time budget {t_max!r}")
    man.stage("setup")
    beam = build_beam(c, body, ray, dt=dt)
    beam.write_csv(os.path.join(art, "beam.csv"))
    man.stage("beam")
    if "beam.lambdas" in cfg:
        res = residual_scaling(beam, body, cfg["beam.lambdas"])
        _write_csv(os.path.join(art, "beam_residual.csv"),
                   ["lambda", "residual_l2"],
                   zip(res["lambdas"], res["sups"]))
        print(f"residual slope = {float(res['slope'])!r}")
    man.stage("write")


def run_dtn(cfg: dict, seed: int, art: str, man: RunManifest) -> dict:
    """The conformal_stability_experiment result."""
    from ..wavesim import conformal_stability_experiment

    _check_bump_support(cfg)
    nx, k, T = cfg["grid.nx"], cfg["grid.k"], cfg["grid.T"]
    grid = _wave_grid(nx, k, T, f"grid.nx = {nx!r}, grid.k = {k!r} and "
                      f"grid.T = {T!r}")
    man.stage("setup")
    out = conformal_stability_experiment(
        cfg["family.scales"], grid, probe_count=cfg["probes.count"],
        bump_center=tuple(cfg["bump.center"]), bump_width=cfg["bump.width"])
    if np.isnan(out["envelope_C"]):
        # no row's DtN norm is above roundoff, so none fixes the envelope
        raise IncompatibleData(f"grid.T = {grid.T!r}: every probed DtN "
                               "norm is at roundoff")
    man.stage("experiment")
    # the march and the time integrals end here, not at grid.T
    man.diagnostics.append(("grid", {"t_end": grid.t_end}))
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

    _check_bump_support(cfg)
    T, cfl = cfg["grid.T"], cfg["grid.cfl"]
    c = bump_factor(cfg["bump.amplitude"], cfg["bump.center"],
                    cfg["bump.width"], T=T)
    # the schema bounds probe.first and probe.second by these four
    probes = boundary_probes(4, T)
    f1, f2 = probes[cfg["probe.first"]], probes[cfg["probe.second"]]
    # every size is checked before the first solve
    grids = [_wave_grid(nx, cfl / (nx - 1), T, f"grid.sizes entry {nx!r}, "
                        f"grid.cfl = {cfl!r} and grid.T = {T!r}")
             for nx in cfg["grid.sizes"]]
    man.stage("setup")
    rows = []
    for grid in grids:
        nx = grid.nx
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
        norms = np.prod([l2_boundary_norm(grid, f.sample(grid))
                         for f in (f1, f2)])
        if max(abs(lhs), abs(rhs)) < PAIRING_FLOOR * norms:
            # pairings this far below the probes' norms are roundoff, whose
            # signs and gap mean nothing
            raise IncompatibleData(
                f"grid.T = {T!r}: the identity pairings lhs = {lhs:.3g} "
                f"and rhs = {rhs:.3g} are below {PAIRING_FLOOR:g} times the "
                f"probes' norm product {norms:.3g} at nx = {nx}")
        # gap is returned and printed, a Python float
        rows.append([nx, lhs, rhs, float(gap)])
        man.diagnostics.append((f"grid{nx}", {"t_end": grid.t_end}))
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


def artifact_dir(out_dir: str, subcommand: str, cfg: dict, seed: int) -> str:
    """Where run() writes the artifacts of cfg, as given, at seed."""
    return os.path.join(out_dir, f"{subcommand}-{config_hash(cfg, seed)[:12]}")


def run(subcommand: str, cfg: dict, out_dir: str, seed: int) -> int:
    """Execute a pipeline; returns the process exit status."""
    man = RunManifest(subcommand, cfg, seed)
    art = artifact_dir(out_dir, subcommand, cfg, seed)
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
