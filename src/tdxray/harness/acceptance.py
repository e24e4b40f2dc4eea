"""Cross-module acceptance suite.

Twelve quantitative criteria with fixed tolerances; each one prints a
single pass/fail line with the measured value.  C01, C05, C10 and C11 run
the slice-check, stability-curve, identity-check and dtn pipelines at their
defaults, so a pipeline default is its criterion's experiment.  Heavy
intermediates are cached on the context object so independent criteria
can share them.
"""

from __future__ import annotations

import io
import os
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

from .. import fields as field_lib
from ..conformal import bump_factor, constant_factor
from ..geometry import MetricSpec, ball, make_ray, sample_inward_bundle
from ..reconstruct import (SpectralSource, choose_R, parseval_split,
                           truncated_inversion)
from ..spectral import (SpectralGrid, hidden_bound, is_visible,
                        visible_direction)
from ..xray import sinogram
from .config import config_hash, validate
from .manifest import TOLERANCES, RunManifest
from .runner import PIPELINES, run


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


# the seed of the pipelines the criteria run and of the criteria's draws
SEED = 20260809


@dataclass
class AcceptanceContext:
    _cache: dict = field(default_factory=dict)

    def run_pipeline(self, name: str):
        """The named pipeline's result at validate's defaults and SEED;
        its artifacts go to a temporary directory and its printed line is
        dropped, so the report holds criterion lines only."""
        with tempfile.TemporaryDirectory() as tmp, \
                redirect_stdout(io.StringIO()):
            return PIPELINES[name](validate(name, {}), SEED, tmp,
                                   RunManifest(name, {}, SEED))

    def envelope_setup(self):
        """Calibration + held-out fields, shared lattice, data sup-norms."""
        if "envelope" not in self._cache:
            body = ball()
            fields = [field_lib.calibration_field()] + field_lib.heldout_fields()
            grid = SpectralGrid.for_field(fields[0], n_points=64, extent=8.0)
            entries = []
            for f in fields:
                rays = sample_inward_bundle(body, 48, 24)
                sino = sinogram(f, rays, MetricSpec(), body, dt=4e-3)
                entries.append({"values": grid.forward(grid.sample(f)),
                                "delta": sino.sup_norm})
            self._cache["envelope"] = (grid, entries)
        return self._cache["envelope"]

    def beam_setup(self):
        if "beam" not in self._cache:
            from ..beams import build_beam
            body = ball()
            ray = make_ray(body, (-1.0, 0.0), (1.0, 0.0))
            c1 = constant_factor(1.0)
            beam = build_beam(c1, body, ray, dt=2e-3)
            self._cache["beam"] = (body, ray, c1, beam)
        return self._cache["beam"]


# ---------------------------------------------------------------- criteria


def criterion_01(ctx: AcceptanceContext) -> CriterionResult:
    """Fourier-slice identity on 20 random (omega, xi) pairs."""
    t0 = time.perf_counter()
    worst = ctx.run_pipeline("slice-check")
    dt = time.perf_counter() - t0
    return CriterionResult(1, "fourier-slice-identity",
                           worst <= TOLERANCES["slice_identity_tol"]
                           and dt < 30.0,
                           f"max rel err {worst:.2e}, {dt:.1f}s",
                           "<= 1e-6, < 30 s", dt)


def criterion_02(ctx: AcceptanceContext) -> CriterionResult:
    """Region classification vs brute force; direction identities."""
    t0 = time.perf_counter()
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
    dt = time.perf_counter() - t0
    tol = TOLERANCES["direction_identity_tol"]
    ok = mism == 0 and res_dot <= tol and res_norm <= tol
    return CriterionResult(2, "region-decomposition", ok,
                           f"mism {mism}, dot {res_dot:.1e}, "
                           f"norm {res_norm:.1e}",
                           "0 mismatches, 1e-12", dt)


def criterion_03(ctx: AcceptanceContext) -> CriterionResult:
    """Hidden-region envelope transfers from calibration to held-out bumps."""
    t0 = time.perf_counter()
    grid, entries = ctx.envelope_setup()
    mesh = grid.frequency_mesh()
    hidden = ~grid.visible_mask
    taus = np.abs(mesh[0][hidden])

    def ratio(entry):
        vals = np.abs(entry["values"][hidden])
        env = np.array([hidden_bound(t, entry["delta"], 1.0) for t in taus])
        return float(np.max(vals / env))

    C_cal = ratio(entries[0])
    margins = [ratio(e) / C_cal for e in entries[1:]]
    dt = time.perf_counter() - t0
    ok = all(m <= 1.0 + 1e-12 for m in margins)
    return CriterionResult(3, "hidden-envelope", ok,
                           f"C_cal {C_cal:.3e}, heldout/cal "
                           + ", ".join(f"{m:.3f}" for m in margins),
                           "ratios <= 1", dt)


def criterion_04(ctx: AcceptanceContext) -> CriterionResult:
    """Out-of-ball L1 tail dominated by fitted C R^(n+1-a), a = n+2.

    Uses the widest unit-box bump: the multi-scale sweep field carries
    spectral ladder rungs through [4, 8] by design, which is exactly the
    regime this criterion requires to be pure tail.
    """
    t0 = time.perf_counter()
    f = field_lib.tail_field()
    grid = SpectralGrid.for_field(f, n_points=64, extent=8.0)
    values = grid.forward(grid.sample(f))
    radius = grid.radius_mesh
    w = float(np.prod(grid.dk))
    tails = {R: float(np.sum(np.abs(values)[radius > R]) * w)
             for R in (4.0, 8.0, 16.0)}
    C = tails[4.0] * 4.0
    ok = tails[8.0] <= C / 8.0 and tails[16.0] <= C / 16.0
    dt = time.perf_counter() - t0
    return CriterionResult(4, "tail-bound", ok,
                           f"T(4)={tails[4.0]:.2e} T(8)={tails[8.0]:.2e} "
                           f"T(16)={tails[16.0]:.2e}",
                           "T(R) <= C/R after fit at R=4", dt)


def criterion_05(ctx: AcceptanceContext) -> CriterionResult:
    """Log-stability sweep: C/log(1/delta) fit quality and envelope."""
    t0 = time.perf_counter()
    curve = ctx.run_pipeline("stability-curve")
    elapsed = time.perf_counter() - t0
    fit = curve.fit()
    feas = [r for r in curve.rows if r.feasible]
    env_ok = all(r.l2_error <= r.envelope + 1e-12 for r in feas)
    ok = fit["r_squared"] >= 0.9 and env_ok and elapsed < 300.0
    return CriterionResult(5, "log-stability-curve", ok,
                           f"R^2 {fit['r_squared']:.3f}, envelope "
                           f"{'ok' if env_ok else 'violated'}, "
                           f"{elapsed:.0f}s",
                           "R^2 >= 0.9, errs <= envelope, < 300 s",
                           elapsed)


def criterion_06(ctx: AcceptanceContext) -> CriterionResult:
    """Parseval accounting of the hidden-zeroed truncation error."""
    t0 = time.perf_counter()
    f = field_lib.default_recon_field()
    grid = SpectralGrid.for_field(f, n_points=64, extent=14.0)
    truth = grid.sample(f)
    source = SpectralSource.from_samples(grid, truth)
    R = choose_R(1e-9, 0.5, 2).R
    rec, _ = truncated_inversion(source, R)
    err2 = grid.discrete_l2(rec - truth) ** 2
    split = parseval_split(source, R)
    expect = split["hidden_in_ball"] + split["out_of_ball"]
    gap = abs(err2 - expect) / expect
    dt = time.perf_counter() - t0
    return CriterionResult(6, "parseval-split", gap <= 1e-6,
                           f"rel gap {gap:.2e}", "<= 1e-6", dt)


def criterion_07(ctx: AcceptanceContext) -> CriterionResult:
    """Wave-operator residual growth across the lambda sweep.

    The residual is measured in the spatial L2 norm (sup over time), the
    quantity the energy estimates consume; the pointwise sup of the
    pinned quadratic-phase construction carries an extra sqrt(lambda).
    """
    from ..beams import build_beam, residual_scaling
    t0 = time.perf_counter()
    body, ray, _, beam = ctx.beam_setup()
    lams = [16, 32, 64, 128, 256]
    s1 = residual_scaling(beam, body, lams)["slope"]
    bent = build_beam(bump_factor(0.01, (0.1, 0.0), 0.75), body, ray)
    s2 = residual_scaling(bent, body, lams)["slope"]
    dt = time.perf_counter() - t0
    bound = 2 / 4 + 0.25
    ok = s1 <= bound and s2 <= bound and dt < 120.0
    return CriterionResult(7, "beam-residual", ok,
                           f"slopes {s1:.3f} (c=1), {s2:.3f} (perturbed), "
                           f"{dt:.0f}s",
                           f"<= {bound}, < 120 s", dt)


def criterion_08(ctx: AcceptanceContext) -> CriterionResult:
    """Beam geometry: straight center line and phase positivity."""
    from ..beams import beam_psi
    t0 = time.perf_counter()
    body, ray, c1, beam = ctx.beam_setup()
    chord = ray.x[None, :] + beam.times[:, None] * ray.omega[None, :]
    dev = float(np.max(np.linalg.norm(beam.xtilde - chord, axis=1)))

    rng = np.random.default_rng(SEED + 2)
    worst = np.inf
    for _ in range(1000):
        t = rng.uniform(0.02, beam.t_exit - 0.02)
        st = beam.state_at(t)
        d = rng.uniform(-0.5, 0.5, 2)
        x = st["x"] + d
        im_psi = float(np.imag(beam_psi(st, x[None, :])[0]))
        Ct = 0.5 * float(np.min(np.linalg.eigvalsh(st["M"].imag)))
        worst = min(worst, im_psi - Ct * float(d @ d))
    dt = time.perf_counter() - t0
    ok = dev < 1e-8 and worst >= -1e-10
    return CriterionResult(8, "beam-geometry", ok,
                           f"chord dev {dev:.1e}, min(Im psi - C|dx|^2) "
                           f"{worst:.1e}",
                           "dev < 1e-8, >= 0", dt)


def criterion_09(ctx: AcceptanceContext) -> CriterionResult:
    """Gaussian concentration error decay across the lambda sweep."""
    from ..beams import SIGMA, gaussian_concentration
    t0 = time.perf_counter()
    body, ray, c1, beam = ctx.beam_setup()

    def h(t, x):
        x = np.asarray(x, dtype=float)
        d2 = np.sum((x - np.array([0.3, 0.1])) ** 2, axis=-1)
        return field_lib.bump_profile(d2 / 0.8 ** 2)

    out = gaussian_concentration(h, beam, [32, 64, 128, 256, 512],
                                 t_eval=1.25)
    dt = time.perf_counter() - t0
    bound = SIGMA - 0.5 + 0.1
    ok = out["decay_exponent"] <= bound
    return CriterionResult(9, "concentration", ok,
                           f"decay exponent {out['decay_exponent']:.3f}",
                           f"<= {bound:.2f}", dt)


def criterion_10(ctx: AcceptanceContext) -> CriterionResult:
    """Boundary identity gap: second-order convergence, finest gap < 2%."""
    t0 = time.perf_counter()
    gaps = ctx.run_pipeline("identity-check")
    ratios = [gaps[i] / gaps[i + 1] for i in range(2)]
    dt = time.perf_counter() - t0
    ok = all(3.0 <= r <= 5.0 for r in ratios) and gaps[-1] < 0.02
    return CriterionResult(10, "key-identity", ok,
                           f"gaps {', '.join(f'{g:.4f}' for g in gaps)}; "
                           f"ratios {', '.join(f'{r:.2f}' for r in ratios)}",
                           "ratios in [3,5], finest < 2%", dt)


def criterion_11(ctx: AcceptanceContext) -> CriterionResult:
    """Conformal log-stability at desk scale (96^2)."""
    t0 = time.perf_counter()
    rows = ctx.run_pipeline("dtn")["rows"]
    env_ok = all(r["c_dist_l2"] <= r["envelope"] + 1e-12 for r in rows)
    norms = [r["dtn_norm"] for r in rows]
    mono = all(a < b for a, b in zip(norms, norms[1:]))
    dt = time.perf_counter() - t0
    ok = env_ok and mono and dt < 600.0
    return CriterionResult(11, "conformal-stability", ok,
                           f"envelope {'ok' if env_ok else 'violated'}, "
                           f"monotone {mono}, {dt:.0f}s",
                           "envelope holds, norms monotone, < 600 s", dt)


def criterion_12(ctx: AcceptanceContext) -> CriterionResult:
    """Byte-identical CSVs across reruns and thread counts."""
    t0 = time.perf_counter()
    cfg = {"rays.boundary": 12, "rays.directions": 4, "noise.level": 1e-3}
    curve_cfg = {"grid.points": 32, "noise.levels": [1e-3, 1e-5],
                 "slice.n_launch": 64, "slice.n_s": 64}
    ok = True
    detail = []
    # patch.dict restores the caller's TDXRAY_THREADS on the way out; the
    # runs' printed lines are dropped, as in run_pipeline
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ), \
            redirect_stdout(io.StringIO()):
        for name, c, artifact in (("forward", cfg, "sinogram.csv"),
                                  ("stability-curve", curve_cfg,
                                   "stability_curve.csv")):
            blobs = []
            for threads in ("1", "4"):
                os.environ["TDXRAY_THREADS"] = threads
                sub = os.path.join(tmp, f"{name}-{threads}")
                run(name, dict(c), sub, seed=7)
                art = os.path.join(sub, f"{name}-{config_hash(c, 7)[:12]}")
                with open(os.path.join(art, artifact), "rb") as fh:
                    blobs.append(fh.read())
            same = blobs[0] == blobs[1] and len(blobs[0]) > 0
            ok &= same
            detail.append(f"{name}:{'identical' if same else 'DIFFER'}")
    dt = time.perf_counter() - t0
    return CriterionResult(12, "determinism", ok,
                           "; ".join(detail), "byte-identical", dt)


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
