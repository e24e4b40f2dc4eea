"""Discrete (n+1)-dimensional Fourier analysis and the slice identity.

Convention (no 2*pi in the forward exponent):

    f^(tau, xi) = integral f(t, x) exp(-i (t tau + x . xi)) dt dx,

so inversion carries (2*pi)^-(n+1).  On a uniform sample grid the forward
transform is the trapezoid rule, i.e. a DFT scaled by the cell volume; the
frequency lattice is the DFT-conjugate lattice, in the FFT's own order.

Phase space splits into the visible region {|tau| <= |xi|}, where slice
data determines f^ exactly, and the hidden region {|tau| > |xi|}, where
only the exponentially weighted envelope bound holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (CoverageError, NotVisible, OddLattice, SupportTruncated,
                     ZeroXi)
from .fields import SpaceTimeField
from .geometry import ConvexBody, perp_frame


# ---------------------------------------------------------------- regions


def is_visible(tau, xi) -> np.ndarray:
    """Visible iff |tau| <= |xi| (ties visible).

    |xi| is evaluated with max-scaling so the comparison stays exact even
    where naive squaring would underflow.  The scale and the scaled sum
    run axis by axis, in axis order: the same bits as np.max and np.sum
    over the last axis, without the cost of a reduction over a short axis.
    """
    tau = np.asarray(tau, dtype=float)
    xi = np.asarray(xi, dtype=float)
    scale = np.abs(xi[..., 0])
    for a in range(1, xi.shape[-1]):
        scale = np.maximum(scale, np.abs(xi[..., a]))
    safe = np.where(scale > 0.0, scale, 1.0)
    total = (xi[..., 0] / safe) ** 2
    for a in range(1, xi.shape[-1]):
        total = total + (xi[..., a] / safe) ** 2
    return np.abs(tau) <= safe * np.sqrt(total)


def visible_direction(tau, xi) -> np.ndarray:
    """Unit omega with omega . xi = -tau, deterministic construction.

    omega = -(tau/|xi|^2) xi + sqrt(1 - tau^2/|xi|^2) e_perp, where e_perp
    is the first canonical basis vector with nonzero rejection against xi,
    normalised.  Supports batched xi with shape (..., n).
    """
    xi = np.asarray(xi, dtype=float)
    tau = np.asarray(tau, dtype=float)
    norm2 = np.sum(xi * xi, axis=-1)
    if np.any(norm2 == 0.0):
        if np.all(np.abs(tau) == 0.0):
            raise ZeroXi("xi = 0 with tau = 0: direction undefined at the origin")
        raise ZeroXi("xi = 0: no direction can match a nonzero tau")
    if np.any(np.abs(tau) > np.sqrt(norm2) * (1 + 1e-15)):
        raise NotVisible("|tau| > |xi|: point lies in the hidden region")

    n = xi.shape[-1]
    batch = xi.shape[:-1]
    e_perp = np.zeros(batch + (n,))
    chosen = np.zeros(batch, dtype=bool)
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = 1.0
        rej = ej - (xi[..., j] / norm2)[..., None] * xi
        rnorm = np.linalg.norm(rej, axis=-1)
        take = (~chosen) & (rnorm > 1e-12)
        if np.any(take):
            e_perp[take] = rej[take] / rnorm[take][..., None]
            chosen |= take
        if np.all(chosen):
            break
    # second orthogonalisation pass: when the chosen basis vector is almost
    # parallel to xi the first rejection is all cancellation noise
    dot = np.sum(e_perp * xi, axis=-1)
    e_perp = e_perp - (dot / norm2)[..., None] * xi
    e_perp = e_perp / np.linalg.norm(e_perp, axis=-1, keepdims=True)
    ratio = np.clip(tau * tau / norm2, 0.0, 1.0)
    omega = (-(tau / norm2)[..., None] * xi
             + np.sqrt(1.0 - ratio)[..., None] * e_perp)
    return omega / np.linalg.norm(omega, axis=-1, keepdims=True)


def hidden_bound(tau: float, delta: float) -> float:
    """The hidden-region envelope exp(|tau|/3) |tau|^(-1/3) delta^(2/3),
    up to the constant that C03 calibrates."""
    if tau == 0:
        raise ValueError("hidden bound needs |tau| > 0")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    at = abs(tau)
    return np.exp(at / 3.0) * at ** (-1.0 / 3.0) * delta ** (2.0 / 3.0)


# ---------------------------------------------------------------- grid


_AXIS_LABELS = "abc"


def _phase_sum(values: np.ndarray, phases, labels: str):
    """Sum of values against the outer product of one phase vector per
    axis; labels names the axes, one letter each."""
    return np.einsum(f"{labels},{','.join(labels)}->", values, *phases)


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, read-only, so no caller of a cached lattice array can change
    what the next one reads."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Uniform (t, x) sample grid and its DFT-conjugate frequency lattice.

    The dim + 1 axes, t first, start at origin, step by spacing and hold
    n points each.  Frozen, because the radius mesh, the visible mask and
    the cell phase (the cell volume times exp(-i origin . k), the factor
    that turns the DFT into the trapezoid rule) are computed once per grid
    from the open frequency mesh and shared read-only.  Every lattice
    array is in the FFT's own order, a mode its flat C-order index there.
    forward transforms a complex copy of the samples in place; inverse
    scatters the kept modes (flat indices and values) into one zeroed
    buffer and divides and transforms in place there.  Grids compare and
    hash by identity, as the array fields have no single truth value.
    """

    origin: np.ndarray
    spacing: np.ndarray
    n: int

    def __post_init__(self):
        # the FFT-order mirror pairs any size, but every reference lattice
        # is even: an odd size stays an error, not an unchecked answer
        if self.n % 2:
            raise OddLattice(f"lattice size {self.n} must be even")

    @classmethod
    def for_field(cls, f: SpaceTimeField, n_points: int,
                  pad: float = 0.25,
                  extent: float | None = None) -> "SpectralGrid":
        """Grid covering the field support.

        With ``extent`` unset the box is the support padded by ``pad`` per
        side.  An explicit ``extent`` centers a box of that total length on
        the support (heavy zero padding refines the frequency lattice;
        the delta-sweep experiments need that resolution).  A box whose
        squared diagonal or cell volume overflows raises ValueError before
        any sampling, as its points' squared distances from the support or
        the transform's cell volume would.
        """
        (t_lo, t_hi), x_lo, x_hi = f.support_box
        lo = np.array([t_lo, *x_lo], dtype=float)
        hi = np.array([t_hi, *x_hi], dtype=float)
        with np.errstate(over="ignore"):
            if extent is None:
                margin = pad * (hi - lo)
                lo, hi = lo - margin, hi + margin
            else:
                span = float(np.max(hi - lo))
                if extent < span:
                    raise ValueError(
                        f"extent {extent} smaller than the field support "
                        f"span {span:.3g}: samples would truncate the field")
                mid = 0.5 * (lo + hi)
                lo, hi = mid - extent / 2, mid + extent / 2
            spacing = (hi - lo) / n_points
            reach, cell = np.sum(np.square(hi - lo)), np.prod(spacing)
        if not np.isfinite([reach, cell]).all():
            raise ValueError(f"the lattice box overflows: squared "
                             f"diagonal {reach}, cell volume {cell}")
        return cls(origin=lo, spacing=spacing, n=n_points)

    @property
    def dim(self) -> int:
        """Spatial dimension: the axes after t."""
        return self.origin.size - 1

    # --- sample and frequency axes (frequencies in FFT order) ---------

    def axis(self, a: int) -> np.ndarray:
        """Sample points of axis a; axis 0 is t."""
        return self.origin[a] + self.spacing[a] * np.arange(self.n)

    def freqs(self, a: int) -> np.ndarray:
        """Frequencies of axis a in the FFT's order, 0 first and the
        Nyquist frequency -N/2 dk at index N/2; axis 0 is tau."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, self.spacing[a])

    @property
    def cell_volume(self) -> float:
        return float(self.spacing[0] * np.prod(self.spacing[1:]))

    @property
    def dk(self) -> np.ndarray:
        """Frequency spacing per axis, tau first."""
        return 2 * np.pi / (self.n * self.spacing)

    @property
    def shape(self) -> tuple:
        """Shape of the sample grid and of the frequency lattice."""
        return (self.n,) * (self.dim + 1)

    def frequency_mesh(self):
        """The open frequency mesh: axis a's frequencies along axis a,
        length 1 on every other axis, so they broadcast to the lattice."""
        return np.meshgrid(*(self.freqs(a) for a in range(self.dim + 1)),
                           indexing="ij", sparse=True)

    def mirror(self, index: np.ndarray) -> np.ndarray:
        """Each point's Hermitian mirror's position in index (flat C-order
        indices, increasing), -1 where the mirror is not in index.  The
        mirror -k of index j is (-j) mod N on every axis, so every point
        has one; at the Nyquist index N/2 it is N/2 itself, the alias of
        +N/2 dk."""
        at = np.unravel_index(index, self.shape)
        flip = np.ravel_multi_index(np.negative(at), self.shape, mode="wrap")
        pos = np.searchsorted(index, flip)
        return np.where(np.take(index, pos, mode="clip") == flip, pos, -1)

    @cached_property
    def radius_mesh(self) -> np.ndarray:
        r = sum(m * m for m in self.frequency_mesh())
        return _read_only(np.sqrt(r, out=r))

    @cached_property
    def visible_mask(self) -> np.ndarray:
        tau, *xi = self.frequency_mesh()
        return _read_only(is_visible(
            tau, np.stack(np.broadcast_arrays(*xi), axis=-1)))

    # --- transforms ----------------------------------------------------

    def sample(self, f: SpaceTimeField) -> np.ndarray:
        """f on the lattice, (n,) * (dim + 1), in one evaluator call: the
        t axis, shaped (n, 1, ..., 1), broadcasts against the x mesh.
        ValueError when the evaluator does not broadcast them."""
        axes = [self.axis(a) for a in range(1, self.dim + 1)]
        xmesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        t = self.axis(0).reshape((self.n,) + (1,) * self.dim)
        out = np.asarray(f(t, xmesh), dtype=float)
        if out.shape != self.shape:
            raise ValueError(f"{f.name}: evaluator gave shape {out.shape} "
                             f"for t {t.shape} against x {xmesh.shape}")
        return out

    @cached_property
    def _cell_phase(self) -> np.ndarray:
        """cell_volume * exp(-i origin . (tau, xi)): the factor of the
        trapezoid rule over the DFT."""
        mesh = self.frequency_mesh()
        phase = self.origin[0] * mesh[0]
        for o, m in zip(self.origin[1:], mesh[1:]):
            phase = phase + o * m
        phase = -1j * phase
        np.exp(phase, out=phase)
        phase *= self.cell_volume
        return _read_only(phase)

    def forward(self, samples: np.ndarray) -> np.ndarray:
        """Trapezoid-rule transform on the frequency lattice, in place.

        ValueError unless samples has the lattice's shape: numpy would
        broadcast a lower-dimensional array into a plausible answer.
        """
        if np.shape(samples) != self.shape:
            raise ValueError(f"samples of shape {np.shape(samples)}: the "
                             f"lattice is {self.shape}")
        spec = np.array(samples, dtype=complex)
        np.fft.fftn(spec, out=spec)
        np.multiply(self._cell_phase, spec, out=spec)
        return spec

    def inverse(self, index: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Exact inverse of :meth:`forward` back onto the sample grid, from
        the kept modes: flat C-order indices of the lattice and the values
        there, every other point zero.

        The values are scattered into one zeroed buffer, which is divided
        by the cell phase and transformed in place.  ValueError unless
        index and values are one 1-D pair, or when an index is off the
        lattice, where a scatter would fail or wrap round.
        """
        if np.ndim(index) != 1 or np.shape(values) != np.shape(index):
            raise ValueError(f"modes: index of shape {np.shape(index)} and "
                             f"values of shape {np.shape(values)} are not "
                             f"one 1-D pair")
        # a grid's first call builds the phase before the buffer exists
        phase = self._cell_phase
        spec = np.zeros(self.shape, dtype=complex)
        if not np.all((0 <= index) & (index < spec.size)):
            raise ValueError("modes: an index is out of bounds")
        spec.reshape(-1)[index] = values
        np.divide(spec, phase, out=spec)
        return np.fft.ifftn(spec, out=spec)

    def point_transform(self, samples: np.ndarray, taus, xis) -> np.ndarray:
        """Direct trapezoid sum at arbitrary (tau, xi) points.

        Same quadrature as :meth:`forward`, so lattice and off-lattice
        evaluations are mutually consistent.
        """
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        out = np.empty(taus.shape, dtype=complex)
        axes = [self.axis(a) for a in range(self.dim + 1)]
        labels = "t" + _AXIS_LABELS[:self.dim]
        for i, (tau, xi) in enumerate(zip(taus, xis)):
            phases = [np.exp(-1j * ax * k) for ax, k in zip(axes, (tau, *xi))]
            out[i] = _phase_sum(samples, phases, labels)
        return self.cell_volume * out

    def discrete_l2(self, samples: np.ndarray) -> float:
        """Trapezoid L2 norm of real samples on the sample grid."""
        return float(np.sqrt(self.cell_volume * np.sum(np.square(samples))))


# ---------------------------------------------------------------- slices

# margin of the launch grid on each side of the support, in units of its
# widest perpendicular extent
LAUNCH_PAD = 0.06


def check_coverage(f: SpaceTimeField, body: ConvexBody) -> None:
    """CoverageError unless the spatial support of f (where it is actually
    nonzero, not its box) sits strictly inside the body."""
    if np.any(body.phi(f.live_support) >= 0.0):
        raise CoverageError(
            "field support reaches the domain boundary: the chord family "
            "cannot sweep it")


def slice_from_sinogram(f: SpaceTimeField, omega, xi, body: ConvexBody,
                        n_launch: int, n_s: int) -> complex | np.ndarray:
    """Spatial Fourier transform of the ray data in direction omega at xi.

    Evaluates F_{x->xi}(If)(xi, omega) by quadrature organised along the
    chord family: launch points X live on a grid in the frame spanned by
    omega and its orthogonal complement, each carries the ray integral
    q(X) = int f(s, X + s omega) ds, and the result is the spatial Fourier
    sum of q.  Equals f^(-omega . xi, xi); the identity is exercised by
    comparing against the tensor-grid transform, which organises the same
    integral along coordinate axes instead.

    xi of shape (n,) gives a complex; xi of shape (K, n) gives the (K,)
    array of the values at its rows.  The launch frame, the ray data q
    and its checks depend on omega alone, so they are built once per
    call; each row then takes its own Fourier sum of q, with the
    operations of a one-row call, so every value equals that call's bit
    for bit.

    n_launch sets the interval count across the support padded by
    LAUNCH_PAD (perpendicular axes, whose end columns lie outside the
    support box); the along-ray axis inherits the same spacing.  n_s is
    the s-point count of the tensor evaluation only.  For separable fields
    f = g(t) H(x) the s-integration is an exact discrete correlation along
    the ray, whose Fourier sum factorises into a sum over g and a sum over
    H on its support, which is much cheaper.  That path hands H the launch
    frame (center, omega, perp, the 1-D along rows and v-axes) and builds
    no point mesh; the tensor path meshes the launch points and evaluates
    f on every chord sample.  A field without a separable form takes the
    tensor path, which stays the oracle of the correlation path.  Either
    path raises SupportTruncated when the ray data do not vanish at the
    edges of the support box, along the ray or across it.
    """
    omega = np.asarray(omega, dtype=float)
    omega = omega / np.linalg.norm(omega)
    xis = np.asarray(xi, dtype=float)
    check_coverage(f, body)

    (t_lo, t_hi), x_lo, x_hi = f.support_box
    center = 0.5 * (np.asarray(x_lo) + np.asarray(x_hi))
    half = 0.5 * (np.asarray(x_hi) - np.asarray(x_lo))
    perp = perp_frame(omega)

    h_par = float(np.sum(np.abs(omega) * half))
    h_perp = [float(np.sum(np.abs(e) * half)) for e in perp]

    # launch coordinates: x = center + u*omega + sum_k v_k*perp_k, with u
    # shifted by the time support so every chord through the support at
    # some admissible time is launched
    perp_pad = LAUNCH_PAD * 2 * max(h_perp)
    spacing = (2 * max(h_perp) + 2 * perp_pad) / n_launch
    u_lo = -h_par - t_hi - perp_pad
    u_hi = h_par - t_lo + perp_pad
    n_u = int(np.ceil((u_hi - u_lo) / spacing)) + 1
    v_axes = [np.arange(n_launch + 1) * spacing - (h + perp_pad)
              for h in h_perp]

    if f.separable is not None:
        # f = g(t) H(x) with the s-grid on the launch spacing, so with
        # m = u + s the ray sum is the correlation q_j = spacing
        # sum_k g_k H_{j+k}, and by the correlation theorem its u-Fourier
        # sum at a = omega . xi is spacing (sum_k g_k e^{i s_k a})
        # (sum_l H_l e^{-i m_l a}).
        # That is exact when H vanishes on the m-rows outside
        # [n_s_conv - 1, n_u - 1], where the correlation is cut off.  H is
        # zero for |m| > h_par, so only that window is evaluated, with
        # one row more at each end to check that it really is zero there.
        n_s_conv = int(np.ceil((t_hi - t_lo) / spacing)) + 1
        s_conv = t_lo + spacing * np.arange(n_s_conv)
        g, H = f.separable
        m_lo = u_lo + t_lo
        first = int(np.ceil((-h_par - m_lo) / spacing))
        last = int(np.floor((h_par - m_lo) / spacing))
        if first < n_s_conv - 1 or last > n_u - 1:
            raise SupportTruncated(
                f"m-rows {first}..{last} of |m| <= h_par leave the exact "
                f"correlation rows {n_s_conv - 1}..{n_u - 1}")
        along = m_lo + spacing * np.arange(first - 1, last + 2)
        Hv = H(center, omega, perp, along, v_axes)
        if np.any(Hv[0] != 0.0) or np.any(Hv[-1] != 0.0):
            raise SupportTruncated(
                f"{f.name}: the separable factor H is nonzero beyond the "
                f"support box along omega = {omega}")
        along, q = along[1:-1], Hv[1:-1]
        g_conv = g(s_conv)
    else:
        along, g_conv = u_lo + spacing * np.arange(n_u), None
        s_grid = np.linspace(t_lo, t_hi, n_s)
        mesh = np.meshgrid(along, *v_axes, indexing="ij")
        base = (center + mesh[0][..., None] * omega
                + sum(m[..., None] * e for m, e in zip(mesh[1:], perp)))
        q = np.zeros(base.shape[:-1])
        for s in s_grid:
            q += f(np.full(base.shape[:-1], s), base + s * omega)
        q *= float(s_grid[1] - s_grid[0])
    # the end columns of every v-axis lie outside the support box, so the
    # ray data must vanish there; the last one then leaves the sum, which
    # keeps the summation order of the axis that stopped short of it
    for k in range(1, q.ndim):
        if np.any(np.take(q, [0, -1], axis=k) != 0.0):
            raise SupportTruncated(
                f"{f.name}: the ray data are nonzero beyond the support box "
                f"across omega = {omega}")
    q = q[(slice(None),) + (slice(-1),) * len(perp)]
    v_axes = [v[:-1] for v in v_axes]
    cell = spacing ** (1 + len(perp))

    # Fourier sum per row: X . xi = center.xi + along a + sum v_k (perp_k.xi)
    rows = np.atleast_2d(xis)
    out = np.empty(len(rows), dtype=complex)
    for k, row in enumerate(rows):
        a = float(np.dot(omega, row))
        weight = 1.0
        if g_conv is not None:
            weight = spacing * np.sum(g_conv * np.exp(1j * s_conv * a))
        ph_u = np.exp(-1j * along * a)
        ph_v = [np.exp(-1j * v_axes[j] * float(np.dot(perp[j], row)))
                for j in range(len(perp))]
        val = _phase_sum(q, [ph_u, *ph_v], _AXIS_LABELS[:f.dim])
        out[k] = complex(weight * val * cell
                         * np.exp(-1j * float(np.dot(center, row))))
    return complex(out[0]) if xis.ndim == 1 else out
