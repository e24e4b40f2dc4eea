"""Exception types shared across the toolkit.

Every failure mode that callers are expected to catch gets its own class so
experiment drivers can report which operation and which input broke.
"""


class TdxrayError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------- geometry


class TangentRay(TdxrayError):
    """Ray is (numerically) tangent to the boundary; no transversal chord."""


class NoExit(TdxrayError):
    """Traced path failed to leave the domain within the time budget."""


# ---------------------------------------------------------------- xray


class QuadratureNotConverged(TdxrayError):
    """Grid-halving estimate of the quadrature error exceeded tolerance."""


# ---------------------------------------------------------------- spectral


class CoverageError(TdxrayError):
    """Chord family in the requested direction does not sweep the support."""


class SupportTruncated(TdxrayError):
    """A separable factor is nonzero outside the declared support box, so
    the slice quadrature built on that box would cut it off."""


class NotVisible(TdxrayError):
    """Frequency point lies outside the visible cone |tau| <= |xi|."""


class ZeroXi(TdxrayError):
    """Spatial frequency is zero; no direction can match a nonzero tau."""


class OddLattice(TdxrayError):
    """Sample lattice has an odd size; the Hermitian mirror needs even."""


# ---------------------------------------------------------------- reconstruct


class InfeasibleSandwich(TdxrayError):
    """Data sup-norm too large: no cut radius R > 1 satisfies the rule."""


class RTooLargeForGrid(TdxrayError):
    """Requested cut radius exceeds the extent of the frequency lattice."""


class FitUnderdetermined(TdxrayError):
    """Fewer than two feasible rows: the log-stability fit is undetermined."""


# ---------------------------------------------------------------- beams


class CausticDetected(TdxrayError):
    """det Y(t) crossed zero along the ray (integrator failure diagnostic)."""


class Inadmissible(TdxrayError):
    """Conformal factor violates its admissibility bounds."""


class StencilUnderResolved(TdxrayError):
    """Halving the finite-difference step changed the residual sup too much."""


# ---------------------------------------------------------------- wavesim


class CFLViolation(TdxrayError):
    """Time step too large for the explicit scheme at this wave speed."""


class Unstable(TdxrayError):
    """Discrete energy blew up; scheme failure."""


class IncompatibleData(TdxrayError):
    """Boundary input does not vanish to first order at t = 0 (the zero
    initial state), or the wave grid sees none of it."""


# ---------------------------------------------------------------- harness


class ConfigInvalid(TdxrayError):
    """Configuration file failed schema validation."""
