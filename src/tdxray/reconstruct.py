"""Truncated Fourier inversion from visible-region data.

The reconstruction keeps only lattice frequencies inside the ball B_R that
lie in the visible cone, fills them from chord-family slice data, zeroes
the hidden region, and inverts with the (2 pi)^-(n+1) convention.  The cut
radius R follows the delta rule

    lower = 3 (1 - eps) log(1/delta),
    upper = (1 - eps/2) log(1/delta) / (n + 2),
    R = min(lower, upper),

with a conflict flag when the two ends cross, lower > upper, which holds
for eps < (6(n+2) - 2) / (6(n+2) - 1) (22/23 at n = 2); the printed
interval is then empty and the upper end binds.  InfeasibleSandwich is
raised when no R > 1 exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigInvalid, FitUnderdetermined, IncompatibleData,
                     InfeasibleSandwich, RTooLargeForGrid)
from .fields import SpaceTimeField
from .geometry import ConvexBody
from .spectral import SpectralGrid, slice_from_sinogram, visible_direction
from .table import write_table


# ---------------------------------------------------------------- R rule


@dataclass
class RCut:
    R: float
    lower: float
    upper: float
    conflict: bool


def feasibility_threshold(epsilon: float, n: int) -> float:
    """Largest delta for which choose_R still returns R > 1."""
    need = max((n + 2) / (1.0 - epsilon / 2.0), 1.0 / (3.0 * (1.0 - epsilon)))
    return float(np.exp(-need))


def choose_R(delta: float, epsilon: float, n: int) -> RCut:
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    L = np.log(1.0 / delta)
    lower = 3.0 * (1.0 - epsilon) * L
    upper = (1.0 - epsilon / 2.0) * L / (n + 2)
    R = min(lower, upper)
    if R <= 1.0:
        raise InfeasibleSandwich(
            f"delta = {delta:.3e} too large: R = {R:.3f} <= 1 "
            f"(feasible below {feasibility_threshold(epsilon, n):.3e})")
    return RCut(float(R), float(lower), float(upper), bool(lower > upper))


# ---------------------------------------------------------------- sources


@dataclass
class SpectralSource:
    """Lattice of frequency data feeding the inversion.

    ``available`` marks the points whose values are data-backed; the
    inversion treats everything else as zero.
    """

    grid: SpectralGrid
    values: np.ndarray
    available: np.ndarray

    @classmethod
    def from_samples(cls, grid: SpectralGrid,
                     samples: np.ndarray) -> "SpectralSource":
        """Oracle source: the tensor-grid transform of the lattice samples,
        available everywhere."""
        values = grid.forward(samples)
        return cls(grid, values, np.ones(values.shape, dtype=bool))


def visible_slice_source(f: SpaceTimeField, body: ConvexBody,
                         grid: SpectralGrid, samples: np.ndarray,
                         R_max: float, n_launch: int,
                         n_s: int) -> SpectralSource:
    """Fill the visible lattice inside B_Rmax from chord-family slices.

    Each visible lattice point (tau, xi) with xi != 0 gets the chord slice
    in the direction omega(tau, xi) with omega . xi = -tau; the origin is
    the tensor-grid transform of f's lattice samples (no chord direction
    exists for xi = 0).  Values are Hermitian-symmetrised: only one point
    per mirror pair is integrated, the other is its conjugate, as for real
    data.

    omega depends on the point only through tau/|xi| and xi/|xi|, so the
    points of one line through the origin share a chord family.  The
    points are grouped by the exact bits of their omega, in the C order of
    each group's first point, and each group is one slice_from_sinogram
    call over all its xi: one ray-data grid per direction, and the same
    values as one call per point, bit for bit.
    """
    mesh = grid.frequency_mesh()
    available = grid.visible_mask & (grid.radius_mesh <= R_max)

    # one representative per Hermitian mirror pair, the first of the two
    # in C order; a point off the core or equal to its mirror stands alone
    index = np.arange(available.size).reshape(available.shape)
    partner = index.copy()
    partner[grid.core] = grid.mirrored(index)
    paired = available & available.ravel()[partner] & (partner != index)
    rep = available & ~(paired & (partner < index))
    has_mirror = paired[rep]
    mirrors = partner[rep][has_mirror]
    del index, partner, paired

    taus = mesh[0][rep]
    xis = np.stack([m[rep] for m in mesh[1:]], axis=-1)
    results = np.empty(taus.shape, dtype=complex)
    origin = np.all(xis == 0.0, axis=-1)
    results[origin] = grid.point_transform(samples, taus[origin],
                                           xis[origin])
    chords = np.flatnonzero(~origin)
    omegas = visible_direction(taus[chords], xis[chords])
    groups: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for i, omega in zip(chords, omegas):
        groups.setdefault(omega.tobytes(), (omega, []))[1].append(i)
    for omega, members in groups.values():
        results[members] = slice_from_sinogram(f, omega, xis[members], body,
                                               n_launch=n_launch, n_s=n_s)

    values = np.zeros(available.shape, dtype=complex)
    values[rep] = results
    values.flat[mirrors] = np.conj(results[has_mirror])
    return SpectralSource(grid, values, available)


def hermitian_noise(grid: SpectralGrid, mask: np.ndarray, amplitude: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Complex uniform noise on the masked lattice with eta(-k) = conj(eta(k)).

    Components are uniform in [-amplitude, amplitude]; symmetrisation
    averages mirror pairs, preserving the amplitude bound.
    """
    shape = mask.shape
    eta = (rng.uniform(-amplitude, amplitude, shape)
           + 1j * rng.uniform(-amplitude, amplitude, shape))
    eta[~mask] = 0.0
    sym = eta.copy()
    sym[grid.core] = 0.5 * (eta[grid.core] + np.conj(grid.mirrored(eta)))
    sym[~mask] = 0.0
    return sym


# ---------------------------------------------------------------- inversion


def lattice_radius_limit(grid: SpectralGrid) -> float:
    """Largest ball radius fully inside the centered lattice."""
    return float(min(np.max(grid.freqs(a)) for a in range(grid.dim + 1)))


def check_cut_radius(grid: SpectralGrid, R: float) -> None:
    """InfeasibleSandwich unless R > 1, RTooLargeForGrid unless the ball
    B_R fits the lattice; checked before any slice is filled for R."""
    if R <= 1.0:
        raise InfeasibleSandwich(f"cut radius R = {R:.3f} must exceed 1")
    if R > lattice_radius_limit(grid):
        raise RTooLargeForGrid(
            f"R = {R:.2f} exceeds the lattice radius "
            f"{lattice_radius_limit(grid):.2f}")


def kept_modes(source: SpectralSource, R: float) -> np.ndarray:
    """The lattice points the inversion keeps: inside B_R, visible and
    data-backed."""
    grid = source.grid
    return (grid.radius_mesh < R) & grid.visible_mask & source.available


def truncated_inversion(source: SpectralSource, R: float):
    """Invert the kept modes inside the cut radius R back onto the sample
    grid.

    Returns (real reconstruction samples, diagnostics dict).  Hidden
    lattice points contribute zero; the imaginary residual of the inverse
    transform is reported and should be at roundoff level for noise-free
    Hermitian data.  R must exceed 1 (InfeasibleSandwich) and fit the
    lattice (RTooLargeForGrid).
    """
    grid = source.grid
    check_cut_radius(grid, R)
    mask = kept_modes(source, R)
    rec = grid.inverse(np.where(mask, source.values, 0.0))
    field_norm = grid.discrete_l2(rec.real)
    diag = {
        "n_modes": int(mask.sum()),
        "imag_residual": (grid.discrete_l2(rec.imag)
                          / (field_norm + 1e-300)),
    }
    return rec.real, diag


def reconstruction_errors(grid: SpectralGrid, truth: np.ndarray,
                          rec: np.ndarray) -> tuple[float, float]:
    """Relative discrete L2 and sampled sup-norm errors."""
    norm = grid.discrete_l2(truth)
    if norm == 0.0:
        raise IncompatibleData("the field samples to 0 on the lattice")
    l2 = grid.discrete_l2(rec - truth) / norm
    c0 = float(np.max(np.abs(rec - truth)) / np.max(np.abs(truth)))
    return float(l2), c0


def parseval_split(source: SpectralSource, R: float) -> dict:
    """Three-way energy split of the lattice values at cut radius R."""
    grid = source.grid
    E2 = np.abs(source.values) ** 2
    in_ball = grid.radius_mesh < R
    vis = grid.visible_mask
    w = np.prod(grid.dk) / (2 * np.pi) ** (grid.dim + 1)
    return {
        "kept": float(E2[in_ball & vis].sum() * w),
        "hidden_in_ball": float(E2[in_ball & ~vis].sum() * w),
        "out_of_ball": float(E2[~in_ball].sum() * w),
        "total": float(E2.sum() * w),
    }


# ---------------------------------------------------------------- sweep


@dataclass
class StabilityRow:
    delta: float
    R: float
    l2_error: float
    c0_error: float
    envelope: float
    feasible: bool
    conflict: bool
    n_modes: int                 # modes the inversion kept, 0 if not run
    imag_residual: float         # of the inverse transform, nan if not run


@dataclass
class StabilityCurve:
    rows: list[StabilityRow]
    envelope_C: float            # nan without a feasible noisy row

    def fit(self) -> dict:
        """Least-squares fit err = C / log(1/delta) on feasible rows."""
        feas = [r for r in self.rows if r.feasible and r.delta > 0]
        if len(feas) < 2:
            raise FitUnderdetermined(
                f"{len(feas)} feasible row(s); the fit needs at least 2")
        L = np.array([np.log(1 / r.delta) for r in feas])
        e = np.array([r.l2_error for r in feas])
        z = 1.0 / L
        C = float((e * z).sum() / (z * z).sum())
        pred = C * z
        ss_res = float(((e - pred) ** 2).sum())
        ss_tot = float(((e - e.mean()) ** 2).sum())
        return {"C": C, "r_squared": 1.0 - ss_res / ss_tot,
                "n_rows": len(feas)}

    def write_csv(self, path) -> None:
        write_table(path, ["delta", "R", "l2_error", "c0_error", "envelope",
                           "feasible"],
                    ([r.delta, r.R, r.l2_error, r.c0_error, r.envelope,
                      int(r.feasible)] for r in self.rows))


def noise_transfer_volume(f: SpaceTimeField) -> float:
    """Worst-case launch-region area transferring per-ray sup noise to a
    slice value: |F(dIf)| <= area * sup|dIf|."""
    (t_lo, t_hi), x_lo, x_hi = f.support_box
    span = np.asarray(x_hi) - np.asarray(x_lo) + (t_hi - t_lo)
    return float(np.prod(span))


def stability_curve(f: SpaceTimeField, body: ConvexBody,
                    noise_levels, epsilon: float, seed: int,
                    grid: SpectralGrid,
                    n_launch: int, n_s: int) -> StabilityCurve:
    """Log-stability sweep: perturb data at each level, cut, reconstruct.

    Each level draws a 64-ray uniform perturbation; its measured sup-norm
    is the level's delta.  Noise enters the visible lattice values as
    Hermitian complex uniform noise of amplitude delta * V, where V is the
    worst-case launch-area factor transferring per-ray sup noise into a
    slice value.  The envelope constant is calibrated on the first
    feasible row.
    """
    noise_levels = list(noise_levels)
    if any(noise_levels[i] < noise_levels[i + 1]
           for i in range(len(noise_levels) - 1)):
        raise ConfigInvalid("noise levels must be nonincreasing")
    n = f.dim
    truth = grid.sample(f)
    rng = np.random.default_rng(seed)
    V = noise_transfer_volume(f)
    R_limit = lattice_radius_limit(grid)

    cuts: list[RCut | None] = []
    deltas: list[float] = []
    for level in noise_levels:
        if level == 0.0:
            deltas.append(0.0)
            cuts.append(None)
            continue
        delta_hat = float(np.max(np.abs(rng.uniform(-level, level, 64))))
        deltas.append(delta_hat)
        try:
            cuts.append(choose_R(delta_hat, epsilon, n))
        except InfeasibleSandwich:
            cuts.append(None)

    # with no feasible cut, no row reads the slice fill
    R_need = max([c.R for c in cuts if c is not None], default=0.0)
    if R_need > 0.0:
        check_cut_radius(grid, R_need)
        source = visible_slice_source(f, body, grid, truth, R_need,
                                      n_launch=n_launch, n_s=n_s)

    rows = []
    for level, delta_hat, cut in zip(noise_levels, deltas, cuts):
        if level == 0.0:
            R = 0.98 * R_limit
            rec, diag = truncated_inversion(
                SpectralSource.from_samples(grid, truth), R)
            l2, c0 = reconstruction_errors(grid, truth, rec)
            rows.append(StabilityRow(0.0, R, l2, c0, float("nan"), True, False,
                                     **diag))
            continue
        if cut is None:
            rows.append(StabilityRow(delta_hat, float("nan"), float("nan"),
                                     float("nan"), float("nan"), False,
                                     False, 0, float("nan")))
            continue
        noise = hermitian_noise(grid, kept_modes(source, cut.R),
                                delta_hat * V, rng)
        noisy = SpectralSource(grid, source.values + noise, source.available)
        rec, diag = truncated_inversion(noisy, cut.R)
        l2, c0 = reconstruction_errors(grid, truth, rec)
        rows.append(StabilityRow(delta_hat, cut.R, l2, c0, float("nan"),
                                 True, cut.conflict, **diag))

    feas = [r for r in rows if r.feasible and r.delta > 0]
    envelope_C = float("nan")
    if feas:
        envelope_C = feas[0].l2_error * np.log(1.0 / feas[0].delta)
        for r in feas:
            r.envelope = float(envelope_C / np.log(1.0 / r.delta))
    return StabilityCurve(rows, envelope_C)
