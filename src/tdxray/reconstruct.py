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
    """Frequency data feeding the inversion: ``available``, the dense bool
    mask of the lattice points whose values are data-backed, and
    ``values``, the values at those points only, in C order.  The
    inversion treats every other point as zero.
    """

    grid: SpectralGrid
    values: np.ndarray
    available: np.ndarray

    @classmethod
    def from_samples(cls, grid: SpectralGrid,
                     samples: np.ndarray) -> "SpectralSource":
        """Oracle source: the tensor-grid transform of the lattice samples,
        flattened, available everywhere."""
        return cls(grid, grid.forward(samples).reshape(-1),
                   np.ones(grid.shape, dtype=bool))


def visible_slice_source(f: SpaceTimeField, body: ConvexBody,
                         grid: SpectralGrid, samples: np.ndarray,
                         R_max: float, n_launch: int,
                         n_s: int) -> SpectralSource:
    """Fill the visible lattice inside B_Rmax from chord-family slices.

    Each visible lattice point (tau, xi) with xi != 0 gets the chord slice
    in the direction omega(tau, xi) with omega . xi = -tau; the origin is
    the tensor-grid transform of f's lattice samples (no chord direction
    exists for xi = 0).  Values are Hermitian-symmetrised: of each mirror
    pair (SpectralGrid.mirror) only the first in the FFT-order lattice's
    C order is integrated, and the later takes its conjugate, as for real
    data.  The source holds the filled modes only, with no complex lattice.

    omega depends on the point only through tau/|xi| and xi/|xi|, so the
    points of one line through the origin share a chord family.  The
    points are grouped by the exact bits of their omega, in the C order of
    each group's first point, and each group is one slice_from_sinogram
    call over all its xi: one ray-data grid per direction, and the same
    values as one call per point, bit for bit.
    """
    available = grid.visible_mask & (grid.radius_mesh <= R_max)
    index = np.flatnonzero(available)
    pair = grid.mirror(index)
    late = (pair >= 0) & (pair < np.arange(index.size))

    at = np.unravel_index(index[~late], grid.shape)
    taus, *xi = (grid.freqs(a)[j] for a, j in enumerate(at))
    xis = np.stack(xi, axis=-1)
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

    values = np.empty(index.shape, dtype=complex)
    values[~late] = results
    values[late] = np.conj(values[pair[late]])
    return SpectralSource(grid, values, available)


def hermitian_noise(grid: SpectralGrid, index: np.ndarray, amplitude: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Complex uniform noise at the kept modes (flat C-order indices of the
    FFT-order lattice, increasing) with eta(-k) = conj(eta(k)), as an
    array over index.

    Components are uniform in [-amplitude, amplitude], drawn over whole
    centred lattices (k = 0 at index N/2), the real parts before the
    imaginary ones, one lattice of draws at a time; the mode at FFT index
    j reads its draw at (j + N/2) mod N on every axis.  Symmetrisation
    averages mirror pairs (SpectralGrid.mirror), preserving the amplitude
    bound: a kept point takes the mean of its draw and the conjugate of
    its mirror's, which counts as zero where the mirror is not kept.
    """
    at = np.unravel_index(index, grid.shape)
    drawn = tuple((j + grid.n // 2) % grid.n for j in at)
    eta = np.empty(index.shape, dtype=complex)
    for part in (eta.real, eta.imag):
        draw = rng.uniform(-amplitude, amplitude, grid.shape)
        part[:] = draw[drawn]
        del draw
    pair = grid.mirror(index)
    mean = np.conj(np.where(pair >= 0, eta[pair], 0.0))
    np.add(eta, mean, out=mean)
    mean *= 0.5
    return mean


# ---------------------------------------------------------------- inversion


def lattice_radius_limit(grid: SpectralGrid) -> float:
    """Largest ball radius fully inside the lattice."""
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


def kept_modes(source: SpectralSource,
               R: float) -> tuple[np.ndarray, np.ndarray]:
    """The modes the inversion keeps at cut radius R, the lattice points
    inside B_R, visible and data-backed: their flat indices in the C
    order of the FFT-order lattice, and the source's values there, picked
    by the (radius < R) & visible mask over the available points."""
    grid = source.grid
    keep = (grid.radius_mesh < R) & grid.visible_mask & source.available
    return np.flatnonzero(keep), source.values[keep[source.available]]


def truncated_inversion(grid: SpectralGrid, index: np.ndarray,
                        values: np.ndarray, R: float):
    """Invert the kept modes of the cut radius R (kept_modes: flat indices
    and values) back onto the sample grid.

    Returns (real reconstruction samples, diagnostics dict); the inverse
    transform's complex buffer is released on return.  Every other
    lattice point contributes zero; the imaginary residual of the inverse
    transform is reported and should be at roundoff level for noise-free
    Hermitian data.  R must exceed 1 (InfeasibleSandwich) and fit the
    lattice (RTooLargeForGrid).
    """
    check_cut_radius(grid, R)
    rec = grid.inverse(index, values)
    field_norm = grid.discrete_l2(rec.real)
    diag = {
        "n_modes": int(index.size),
        "imag_residual": (grid.discrete_l2(rec.imag)
                          / (field_norm + 1e-300)),
    }
    # a copy of the real part, so the complex buffer is released here and
    # not held through the caller's error norms
    return rec.real.copy(), diag


def reconstruction_errors(grid: SpectralGrid, truth: np.ndarray,
                          rec: np.ndarray) -> tuple[float, float]:
    """Relative discrete L2 and sampled sup-norm errors."""
    norm = grid.discrete_l2(truth)
    if norm == 0.0:
        raise IncompatibleData("the field samples to 0 on the lattice")
    diff = rec - truth
    l2 = grid.discrete_l2(diff) / norm
    c0 = float(np.max(np.abs(diff)) / np.max(np.abs(truth)))
    return float(l2), c0


def parseval_split(source: SpectralSource, R: float) -> dict:
    """Three-way energy split of the source's values at cut radius R;
    the masks are read over the available points, and every other point
    counts as zero."""
    grid = source.grid
    E2 = np.abs(source.values) ** 2
    in_ball = (grid.radius_mesh < R)[source.available]
    vis = grid.visible_mask[source.available]
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
    slice value.  Each feasible noisy row is built with its envelope
    C / log(1/delta), C fixed by the first.  The slice fill is one source,
    its modes inside the largest cut; each row takes its kept_modes at its
    own cut, adds its noise at them, and holds one complex lattice, the
    inverse transform's buffer, which is released with the row's
    reconstruction before the next row draws.  A noise-free row takes the
    kept_modes of the tensor-grid transform of the samples.
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

    # with no feasible cut, no row reads the slice fill; every row's cut
    # keeps a subset of the modes of the largest
    R_need = max([c.R for c in cuts if c is not None], default=0.0)
    if R_need > 0.0:
        check_cut_radius(grid, R_need)
        fill = visible_slice_source(f, body, grid, truth, R_need,
                                    n_launch=n_launch, n_s=n_s)

    rows = []
    envelope_C = None
    for level, delta_hat, cut in zip(noise_levels, deltas, cuts):
        envelope = float("nan")
        if level == 0.0:
            R, conflict = 0.98 * R_limit, False
            index, values = kept_modes(
                SpectralSource.from_samples(grid, truth), R)
        elif cut is None:
            rows.append(StabilityRow(delta_hat, float("nan"), float("nan"),
                                     float("nan"), float("nan"), False,
                                     False, 0, float("nan")))
            continue
        else:
            R, conflict = cut.R, cut.conflict
            index, values = kept_modes(fill, R)
            values = values + hermitian_noise(grid, index, delta_hat * V,
                                              rng)
        rec, diag = truncated_inversion(grid, index, values, R)
        l2, c0 = reconstruction_errors(grid, truth, rec)
        del rec
        if level != 0.0:
            if envelope_C is None:
                envelope_C = l2 * np.log(1.0 / delta_hat)
            envelope = float(envelope_C / np.log(1.0 / delta_hat))
        rows.append(StabilityRow(delta_hat, R, l2, c0, envelope, True,
                                 conflict, **diag))
    return StabilityCurve(rows)
