"""Exception types shared across the package."""


class BlochpacketError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(BlochpacketError):
    """Invalid experiment configuration."""


class PotentialError(BlochpacketError):
    """Invalid potential data (symmetry, growth class, ...)."""


class EigensolverError(BlochpacketError):
    """Dense eigensolve failed or produced residuals above tolerance."""


class DegenerateBandError(BlochpacketError):
    """Requested band is not isolated at the requested quasimomentum."""


class GaugeError(BlochpacketError):
    """Anchored gauge undefined: the Bloch wave vanishes at the anchor point."""


class FlowError(BlochpacketError):
    """Trajectory integration failed (blow-up, time window, ...)."""


class EnvelopeError(BlochpacketError):
    """Envelope propagation failed (box too small, invariant drift, ...)."""


class GridError(BlochpacketError):
    """Spatial grid cannot represent the requested field."""


class SolverError(BlochpacketError):
    """Reference time stepping failed a validity monitor."""
