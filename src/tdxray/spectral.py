"""Discrete (n+1)-dimensional Fourier analysis and the slice identity.

Convention (no 2*pi in the forward exponent):

    f^(tau, xi) = integral f(t, x) exp(-i (t tau + x . xi)) dt dx,

so inversion carries (2*pi)^-(n+1).  On a uniform sample grid the forward
transform is the trapezoid rule, i.e. a DFT scaled by the cell volume; the
frequency lattice is the DFT-conjugate lattice, stored centered.

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
    where naive squaring would underflow.
    """
    tau = np.asarray(tau, dtype=float)
    xi = np.asarray(xi, dtype=float)
    scale = np.max(np.abs(xi), axis=-1)
    safe = np.where(scale > 0.0, scale, 1.0)
    norm = safe * np.sqrt(np.sum((xi / safe[..., None]) ** 2, axis=-1))
    return np.abs(tau) <= norm


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


def hidden_bound(tau: float, delta: float, C: float) -> float:
    """Certified envelope C * exp(|tau|/3) |tau|^(-1/3) delta^(2/3)."""
    if tau == 0:
        raise ValueError("hidden bound needs |tau| > 0")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    at = abs(tau)
    return C * np.exp(at / 3.0) * at ** (-1.0 / 3.0) * delta ** (2.0 / 3.0)


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
    the corner phase are computed once per grid and shared read-only.
    Grids compare and hash by identity, as the array fields have no
    single truth value.
    """

    origin: np.ndarray
    spacing: np.ndarray
    n: int

    def __post_init__(self):
        # the centered lattice mirrors index i to N - i only for even N;
        # odd sizes would pair each frequency with a wrong partner
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
        the delta-sweep experiments need that resolution).
        """
        (t_lo, t_hi), x_lo, x_hi = f.support_box
        lo = np.array([t_lo, *x_lo], dtype=float)
        hi = np.array([t_hi, *x_hi], dtype=float)
        if extent is None:
            margin = pad * (hi - lo)
            lo, hi = lo - margin, hi + margin
        else:
            span = float(np.max(hi - lo))
            if extent < span:
                raise ValueError(
                    f"extent {extent} smaller than the field support span "
                    f"{span:.3g}: samples would truncate the field")
            mid = 0.5 * (lo + hi)
            lo, hi = mid - extent / 2, mid + extent / 2
        return cls(origin=lo, spacing=(hi - lo) / n_points, n=n_points)

    @property
    def dim(self) -> int:
        """Spatial dimension: the axes after t."""
        return self.origin.size - 1

    # --- sample and frequency axes (frequencies centered) -------------

    def axis(self, a: int) -> np.ndarray:
        """Sample points of axis a; axis 0 is t."""
        return self.origin[a] + self.spacing[a] * np.arange(self.n)

    def freqs(self, a: int) -> np.ndarray:
        """Frequencies of axis a in fftshift order; axis 0 is tau."""
        return 2.0 * np.pi * np.fft.fftshift(
            np.fft.fftfreq(self.n, self.spacing[a]))

    @property
    def cell_volume(self) -> float:
        return float(self.spacing[0] * np.prod(self.spacing[1:]))

    @property
    def dk(self) -> np.ndarray:
        """Frequency spacing per axis, tau first."""
        return 2 * np.pi / (self.n * self.spacing)

    def frequency_mesh(self):
        return np.meshgrid(*(self.freqs(a) for a in range(self.dim + 1)),
                           indexing="ij")

    @property
    def core(self) -> tuple:
        """Index of the core lattice: index >= 1 on every axis.

        On the centered even lattice freq(j) = (j - N/2) dk, so -freq lives
        at index N - j; the core holds every point whose mirror -k is on
        the lattice, and the j = 0 row (most negative frequency) is outside.
        """
        return (slice(1, None),) * (self.dim + 1)

    def mirrored(self, a: np.ndarray) -> np.ndarray:
        """a(-k) on the core lattice, for a lattice-shaped array a."""
        return a[self.core][(slice(None, None, -1),) * (self.dim + 1)]

    @cached_property
    def radius_mesh(self) -> np.ndarray:
        mesh = self.frequency_mesh()
        return _read_only(np.sqrt(sum(m * m for m in mesh)))

    @cached_property
    def visible_mask(self) -> np.ndarray:
        mesh = self.frequency_mesh()
        return _read_only(is_visible(mesh[0], np.stack(mesh[1:], axis=-1)))

    # --- transforms ----------------------------------------------------

    def sample(self, f: SpaceTimeField) -> np.ndarray:
        shape = (self.n,) * self.dim
        axes = [self.axis(a) for a in range(1, self.dim + 1)]
        xmesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        out = np.empty((self.n,) + shape)
        for j, t in enumerate(self.axis(0)):
            out[j] = f(np.full(shape, t), xmesh)
        return out

    @cached_property
    def _corner_phase(self) -> np.ndarray:
        """exp(-i origin . (tau, xi)) on the centered lattice."""
        mesh = self.frequency_mesh()
        phase = self.origin[0] * mesh[0]
        for o, m in zip(self.origin[1:], mesh[1:]):
            phase = phase + o * m
        return _read_only(np.exp(-1j * phase))

    def forward(self, samples: np.ndarray) -> np.ndarray:
        """Trapezoid-rule transform on the centered frequency lattice."""
        spec = np.fft.fftshift(np.fft.fftn(samples))
        return self.cell_volume * self._corner_phase * spec

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Exact inverse of :meth:`forward` back onto the sample grid."""
        spec = values / (self.cell_volume * self._corner_phase)
        return np.fft.ifftn(np.fft.ifftshift(spec))

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
        return float(np.sqrt(self.cell_volume * np.sum(np.abs(samples) ** 2)))


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
                        n_launch: int, n_s: int,
                        use_separable: bool = True) -> complex:
    """Spatial Fourier transform of the ray data in direction omega at xi.

    Evaluates F_{x->xi}(If)(xi, omega) by quadrature organised along the
    chord family: launch points X live on a grid in the frame spanned by
    omega and its orthogonal complement, each carries the ray integral
    q(X) = int f(s, X + s omega) ds, and the result is the spatial Fourier
    sum of q.  Equals f^(-omega . xi, xi); the identity is exercised by
    comparing against the tensor-grid transform, which organises the same
    integral along coordinate axes instead.

    n_launch sets the interval count across the support padded by
    LAUNCH_PAD (perpendicular axes, whose end columns lie outside the
    support box); the along-ray axis inherits the same spacing.  n_s is
    the s-point count of the tensor evaluation only.  For separable fields
    f = g(t) H(x) the s-integration is an exact discrete correlation along
    the ray, whose Fourier sum factorises into a sum over g and a sum over
    H on its support, which is much cheaper.  That path hands H the launch
    frame (center, omega, perp, the 1-D along rows and v-axes) and builds
    no point mesh; the tensor path meshes the launch points and evaluates
    f on every chord sample.  Either path raises
    SupportTruncated when the ray data do not vanish at the edges of the
    support box, along the ray or across it.  Pass use_separable=False to
    force the direct tensor evaluation.
    """
    omega = np.asarray(omega, dtype=float)
    omega = omega / np.linalg.norm(omega)
    xi = np.asarray(xi, dtype=float)
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

    a = float(np.dot(omega, xi))
    if use_separable and f.separable is not None:
        # f = g(t) H(x) with the s-grid on the launch spacing, so with
        # m = u + s the ray sum is the correlation q_j = spacing
        # sum_k g_k H_{j+k}, and by the correlation theorem its u-Fourier
        # sum is spacing (sum_k g_k e^{i s_k a}) (sum_l H_l e^{-i m_l a}).
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
        weight = spacing * np.sum(g(s_conv) * np.exp(1j * s_conv * a))
    else:
        along, weight = u_lo + spacing * np.arange(n_u), 1.0
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

    # Fourier sum: X . xi = center.xi + along a + sum v_k (perp_k.xi)
    ph_u = np.exp(-1j * along * a)
    ph_v = [np.exp(-1j * v_axes[k] * float(np.dot(perp[k], xi)))
            for k in range(len(perp))]
    val = _phase_sum(q, [ph_u, *ph_v], _AXIS_LABELS[:f.dim])
    cell = spacing ** (1 + len(perp))
    return complex(weight * val * cell
                   * np.exp(-1j * float(np.dot(center, xi))))
