"""Exception types shared across the package."""


class EpinverseError(Exception):
    """Base class for all package errors."""


class NotPositiveDefinite(EpinverseError):
    """A matrix required to be SPD failed its Cholesky pivot test."""


class DowndateFailed(EpinverseError):
    """A rank-one downdate would leave the precision matrix indefinite."""


class CavityInvalid(EpinverseError):
    """A cavity precision came out negative definite; the site cannot be refit."""


class GlobalNotPD(EpinverseError):
    """The assembled global precision is not positive definite."""


class DegenerateSupport(EpinverseError):
    """A tilted factor has no numerically reachable probability mass."""


class QuadratureNotConverged(EpinverseError):
    """Adaptive quadrature failed to reach its target accuracy."""


class MeshGenFailed(EpinverseError):
    """Disk mesh generation could not satisfy its constraints."""


class MeshFileError(EpinverseError):
    """A mesh file is truncated, malformed or breaks the mesh invariants."""


class ElectrodeCountMismatch(EpinverseError):
    """A mesh and a CEM configuration disagree on the number of electrodes."""


class SingularSystem(EpinverseError):
    """The assembled FEM system is singular (conductivity below floor or bad mesh)."""


class NonFiniteIterate(EpinverseError):
    """An outer iterate, or the linearization at it, left the admissible set
    or became non-finite."""


class NonFiniteResult(EpinverseError, ValueError):
    """A value that must be finite is not, as when finite inputs overflow: an
    MH chain's initial log posterior, or synthesized data.  It is also a
    ValueError, so that callers of ``mh_chain`` that catch ValueError for a
    start with zero posterior probability still catch it."""


class AdaptFailed(EpinverseError):
    """Proposal adaptation did not reach the target acceptance band."""


class ConfigError(EpinverseError):
    """A run configuration is missing keys or references missing files."""
