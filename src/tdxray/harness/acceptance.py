"""Cross-module acceptance suite.

Twelve quantitative criteria with fixed tolerances; each one prints a
single pass/fail line with the measured value.  C01, C05, C10 and C11 run
the slice-check, stability-curve, identity-check and dtn pipelines at their
defaults, so a pipeline default is its criterion's experiment.  Heavy
intermediates are cached on the context object so independent criteria
can share them.
"""

from __future__ import annotations

import functools
import io
import math
import os
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from unittest import mock

import numpy as np

from .. import beams
from .. import fields as field_lib
from ..conformal import bump_factor, constant_factor
from ..geometry import MetricSpec, ball, make_ray, sample_inward_bundle
from ..reconstruct import (SpectralSource, choose_R, kept_modes,
                           parseval_split, truncated_inversion)
from ..spectral import (SpectralGrid, hidden_bound, is_visible,
                        visible_direction)
from ..xray import sinogram
from .config import validate
from .manifest import TOLERANCES, RunManifest
from .runner import PIPELINES, artifact_dir, run


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    measured: str
    tolerance: str
    seconds: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"C{self.cid:02d} {self.name:<24s} {flag}  "
                f"measured: {self.measured}  tolerance: {self.tolerance}  "
                f"[{self.seconds:.1f}s]")


def criterion(cid: int, name: str, tolerance: str, limit_s=math.inf):
    """Declare a criterion.  Its check takes the context and returns
    (passed, measured); the declared criterion times the check and fails
    it past limit_s, which its tolerance then states."""
    if limit_s < math.inf:
        tolerance = f"{tolerance}, < {limit_s} s"

    def declare(check):
        @functools.wraps(check)
        def timed(ctx) -> CriterionResult:
            t0 = time.perf_counter()
            passed, measured = check(ctx)
            seconds = time.perf_counter() - t0
            return CriterionResult(cid, name, passed and seconds < limit_s,
                                   measured, tolerance, seconds)

        timed.cid, timed.name = cid, name
        return timed

    return declare


# the seed of the pipelines the criteria run and of the criteria's draws
SEED = 20260809


class AcceptanceContext:
    """What several criteria share, each built on first use."""

    def run_pipeline(self, name: str):
        """The named pipeline's result at validate's defaults and SEED;
        its artifacts go to a temporary directory and its printed line is
        dropped, so the report holds criterion lines only."""
        with tempfile.TemporaryDirectory() as tmp, \
                redirect_stdout(io.StringIO()):
            return PIPELINES[name](validate(name, {}), SEED, tmp,
                                   RunManifest(name, {}, SEED))

    @functools.cached_property
    def envelope(self):
        """Calibration (the slice-default bump) + held-out fields, shared
        lattice, data sup-norms."""
        body = ball()
        fields = [field_lib.default_slice_field()] + field_lib.heldout_fields()
        grid = SpectralGrid.for_field(fields[0], n_points=64, extent=8.0)
        entries = []
        for f in fields:
            rays = sample_inward_bundle(body, 48, 24)
            sino = sinogram(f, rays, MetricSpec(), body, dt=4e-3)
            entries.append({"values": grid.forward(grid.sample(f)),
                            "delta": sino.sup_norm})
        return grid, entries

    @functools.cached_property
    def beam(self):
        """The unit disk, its horizontal diameter, c = 1 and its beam."""
        body = ball()
        ray = make_ray(body, (-1.0, 0.0), (1.0, 0.0))
        c1 = constant_factor()
        return body, ray, c1, beams.build_beam(c1, body, ray, dt=2e-3)


# ---------------------------------------------------------------- criteria


@criterion(1, "fourier-slice-identity", "<= 1e-6", limit_s=30)
def criterion_01(ctx: AcceptanceContext):
    """Fourier-slice identity on 20 random (omega, xi) pairs."""
    worst = ctx.run_pipeline("slice-check")
    return (worst <= TOLERANCES["slice_identity_tol"],
            f"max rel err {worst:.2e}")


@criterion(2, "region-decomposition", "0 mismatches, 1e-12")
def criterion_02(ctx: AcceptanceContext):
    """Region classification vs brute force; direction identities."""
    axis = np.linspace(-10.0, 10.0, 64)
    tt, x1, x2 = np.meshgrid(axis, axis, axis, indexing="ij")
    xi = np.stack([x1, x2], axis=-1)
    fast = is_visible(tt, xi)
    mism = 0
    step = 7  # brute-force loop over a strided sublattice plus full check
    brute = np.abs(tt) <= np.sqrt(x1**2 + x2**2)
    mism += int(np.sum(fast != brute))
    for i in range(0, 64, step):
        for j in range(0, 64, step):
            for k in range(0, 64, step):
                expect = abs(axis[i]) <= (axis[j] ** 2
                                          + axis[k] ** 2) ** 0.5
                if bool(fast[i, j, k]) != expect:
                    mism += 1

    rng = np.random.default_rng(SEED + 1)
    n = 10_000
    xi = rng.uniform(-8.0, 8.0, (n, 2))
    keep = np.linalg.norm(xi, axis=1) > 1e-6
    xi = xi[keep]
    tau = rng.uniform(-1.0, 1.0, xi.shape[0]) * np.linalg.norm(xi, axis=1)
    omega = visible_direction(tau, xi)
    res_dot = np.max(np.abs(np.einsum("ij,ij->i", omega, xi) + tau)
                     / np.maximum(1.0, np.abs(tau)))
    res_norm = np.max(np.abs(np.linalg.norm(omega, axis=1) - 1.0))
    tol = TOLERANCES["direction_identity_tol"]
    ok = mism == 0 and res_dot <= tol and res_norm <= tol
    return ok, f"mism {mism}, dot {res_dot:.1e}, norm {res_norm:.1e}"


@criterion(3, "hidden-envelope", "ratios <= 1")
def criterion_03(ctx: AcceptanceContext):
    """Hidden-region envelope transfers from calibration to held-out bumps."""
    grid, entries = ctx.envelope
    hidden = ~grid.visible_mask
    tau = np.broadcast_to(grid.frequency_mesh()[0], grid.shape)
    taus = np.abs(tau[hidden])

    def ratio(entry):
        vals = np.abs(entry["values"][hidden])
        env = np.array([hidden_bound(t, entry["delta"]) for t in taus])
        return float(np.max(vals / env))

    C_cal = ratio(entries[0])
    margins = [ratio(e) / C_cal for e in entries[1:]]
    ok = all(m <= 1.0 + 1e-12 for m in margins)
    return ok, (f"C_cal {C_cal:.3e}, heldout/cal "
                + ", ".join(f"{m:.3f}" for m in margins))


@criterion(4, "tail-bound", "T(R) <= C/R after fit at R=4")
def criterion_04(ctx: AcceptanceContext):
    """Out-of-ball L1 tail dominated by fitted C R^(n+1-a), a = n+2.

    Uses the widest unit-box bump: the multi-scale sweep field carries
    spectral ladder rungs through [4, 8] by design, which is exactly the
    regime this criterion requires to be pure tail.
    """
    f = field_lib.tail_field()
    grid = SpectralGrid.for_field(f, n_points=64, extent=8.0)
    values = grid.forward(grid.sample(f))
    radius = grid.radius_mesh
    w = float(np.prod(grid.dk))
    tails = {R: float(np.sum(np.abs(values)[radius > R]) * w)
             for R in (4.0, 8.0, 16.0)}
    C = tails[4.0] * 4.0
    ok = tails[8.0] <= C / 8.0 and tails[16.0] <= C / 16.0
    return ok, (f"T(4)={tails[4.0]:.2e} T(8)={tails[8.0]:.2e} "
                f"T(16)={tails[16.0]:.2e}")


@criterion(5, "log-stability-curve", "R^2 >= 0.9, errs <= envelope",
           limit_s=300)
def criterion_05(ctx: AcceptanceContext):
    """Log-stability sweep: C/log(1/delta) fit quality and envelope."""
    curve = ctx.run_pipeline("stability-curve")
    fit = curve.fit()
    feas = [r for r in curve.rows if r.feasible]
    env_ok = all(r.l2_error <= r.envelope + 1e-12 for r in feas)
    return (fit["r_squared"] >= 0.9 and env_ok,
            f"R^2 {fit['r_squared']:.3f}, envelope "
            f"{'ok' if env_ok else 'violated'}")


@criterion(6, "parseval-split", "<= 1e-6")
def criterion_06(ctx: AcceptanceContext):
    """Parseval accounting of the hidden-zeroed truncation error."""
    f = field_lib.default_recon_field()
    grid = SpectralGrid.for_field(f, n_points=64, extent=14.0)
    truth = grid.sample(f)
    source = SpectralSource.from_samples(grid, truth)
    R = choose_R(1e-9, 0.5, 2).R
    rec, _ = truncated_inversion(grid, *kept_modes(source, R), R)
    err2 = grid.discrete_l2(rec - truth) ** 2
    split = parseval_split(source, R)
    expect = split["hidden_in_ball"] + split["out_of_ball"]
    gap = abs(err2 - expect) / expect
    return gap <= 1e-6, f"rel gap {gap:.2e}"


SLOPE_BOUND = 2 / 4 + 0.25


@criterion(7, "beam-residual", f"<= {SLOPE_BOUND}", limit_s=120)
def criterion_07(ctx: AcceptanceContext):
    """Wave-operator residual growth across the lambda sweep.

    The residual is measured in the spatial L2 norm (sup over time), the
    quantity the energy estimates consume; the pointwise sup of the
    pinned quadratic-phase construction carries an extra sqrt(lambda).
    """
    body, ray, _, beam = ctx.beam
    lams = [16, 32, 64, 128, 256]
    s1 = beams.residual_scaling(beam, body, lams)["slope"]
    bent = beams.build_beam(bump_factor(0.01, (0.1, 0.0), 0.75), body, ray)
    s2 = beams.residual_scaling(bent, body, lams)["slope"]
    return (s1 <= SLOPE_BOUND and s2 <= SLOPE_BOUND,
            f"slopes {s1:.3f} (c=1), {s2:.3f} (perturbed)")


@criterion(8, "beam-geometry", "dev < 1e-8, >= 0")
def criterion_08(ctx: AcceptanceContext):
    """Beam geometry: straight center line and phase positivity."""
    body, ray, c1, beam = ctx.beam
    chord = ray.x[None, :] + beam.times[:, None] * ray.omega[None, :]
    dev = float(np.max(np.linalg.norm(beam.xtilde - chord, axis=1)))

    # each probe draws its time, then its offset, from the one generator
    rng = np.random.default_rng(SEED + 2)
    ts, ds = zip(*[(rng.uniform(0.02, beam.t_exit - 0.02),
                    rng.uniform(-0.5, 0.5, 2)) for _ in range(1000)])
    states = beam.state_at(np.array(ts))
    worst = np.inf
    for i, d in enumerate(ds):
        st = {key: v[i] for key, v in states.items()}
        x = st["x"] + d
        im_psi = float(np.imag(beams.beam_psi(st, x[None, :])[0]))
        Ct = 0.5 * float(np.min(np.linalg.eigvalsh(st["M"].imag)))
        worst = min(worst, im_psi - Ct * float(d @ d))
    return (dev < 1e-8 and worst >= -1e-10,
            f"chord dev {dev:.1e}, min(Im psi - C|dx|^2) {worst:.1e}")


DECAY_BOUND = beams.SIGMA - 0.5 + 0.1


@criterion(9, "concentration", f"<= {DECAY_BOUND:.2f}")
def criterion_09(ctx: AcceptanceContext):
    """Gaussian concentration error decay across the lambda sweep."""
    body, ray, c1, beam = ctx.beam

    def h(t, x):
        x = np.asarray(x, dtype=float)
        d2 = np.sum((x - np.array([0.3, 0.1])) ** 2, axis=-1)
        return field_lib.bump_profile(d2 / 0.8 ** 2)

    out = beams.gaussian_concentration(h, beam, [32, 64, 128, 256, 512],
                                       t_eval=1.25)
    return (out["decay_exponent"] <= DECAY_BOUND,
            f"decay exponent {out['decay_exponent']:.3f}")


@criterion(10, "key-identity", "ratios in [3,5], finest < 2%")
def criterion_10(ctx: AcceptanceContext):
    """Boundary identity gap: second-order convergence, finest gap < 2%."""
    gaps = ctx.run_pipeline("identity-check")
    ratios = [gaps[i] / gaps[i + 1] for i in range(2)]
    ok = all(3.0 <= r <= 5.0 for r in ratios) and gaps[-1] < 0.02
    return ok, (f"gaps {', '.join(f'{g:.4f}' for g in gaps)}; "
                f"ratios {', '.join(f'{r:.2f}' for r in ratios)}")


@criterion(11, "conformal-stability", "envelope holds, norms monotone",
           limit_s=600)
def criterion_11(ctx: AcceptanceContext):
    """Conformal log-stability at desk scale (96^2)."""
    rows = ctx.run_pipeline("dtn")["rows"]
    env_ok = all(r["c_dist_l2"] <= r["envelope"] + 1e-12 for r in rows)
    norms = [r["dtn_norm"] for r in rows]
    mono = all(a < b for a, b in zip(norms, norms[1:]))
    return (env_ok and mono,
            f"envelope {'ok' if env_ok else 'violated'}, monotone {mono}")


def _diagnostics(manifest: str) -> str:
    """The [diagnostics] section of a run manifest, "" without one."""
    with open(manifest) as fh:
        text = fh.read()
    start = text.find("[diagnostics]\n")
    return "" if start < 0 else text[start:text.index("[wall_clock_seconds]")]


@criterion(12, "determinism", "byte-identical")
def criterion_12(ctx: AcceptanceContext):
    """Byte-identical CSVs and manifest diagnostics across reruns and
    thread counts; dtn is the pipeline whose probes run on threads."""
    cfg = {"rays.boundary": 12, "rays.directions": 4, "noise.level": 1e-3}
    curve_cfg = {"grid.points": 32, "noise.levels": [1e-3, 1e-5],
                 "slice.n_launch": 64, "slice.n_s": 64}
    dtn_cfg = {"grid.nx": 33, "family.scales": [0.02, 0.04],
               "probes.count": 2}
    ok = True
    detail = []
    # patch.dict restores the caller's TDXRAY_THREADS on the way out; the
    # runs' printed lines are dropped, as in run_pipeline
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ), \
            redirect_stdout(io.StringIO()):
        for name, c, artifact in (("forward", cfg, "sinogram.csv"),
                                  ("stability-curve", curve_cfg,
                                   "stability_curve.csv"),
                                  ("dtn", dtn_cfg, "dtn_curve.csv")):
            blobs = []
            for threads in ("1", "4"):
                os.environ["TDXRAY_THREADS"] = threads
                sub = os.path.join(tmp, f"{name}-{threads}")
                run(name, dict(c), sub, seed=7)
                art = artifact_dir(sub, name, c, 7)
                with open(os.path.join(art, artifact), "rb") as fh:
                    blobs.append((fh.read(), _diagnostics(
                        os.path.join(art, "manifest.txt"))))
            same = blobs[0] == blobs[1] and len(blobs[0][0]) > 0
            ok &= same
            detail.append(f"{name}:{'identical' if same else 'DIFFER'}")
    return ok, "; ".join(detail)


CRITERIA = [
    (criterion_01, "spectral"), (criterion_02, "spectral"),
    (criterion_03, "spectral"), (criterion_04, "reconstruct"),
    (criterion_05, "reconstruct"), (criterion_06, "reconstruct"),
    (criterion_07, "beams"), (criterion_08, "beams"),
    (criterion_09, "beams"), (criterion_10, "wavesim"),
    (criterion_11, "wavesim"), (criterion_12, "harness"),
]


def run_acceptance(only: str | None) -> list[CriterionResult]:
    """Every criterion, or those of the one module named by only."""
    ctx = AcceptanceContext()
    results = []
    for crit, module in CRITERIA:
        if only and module != only:
            continue
        res = crit(ctx)
        results.append(res)
        print(res.line())
    return results
