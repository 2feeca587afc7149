"""Exception types raised across the workbench."""


class MembraneHomogError(Exception):
    """Base class for all workbench errors."""


class MeshQualityFailure(MembraneHomogError):
    """Generated mesh violates the minimum-angle requirement."""


class StitchFailure(MembraneHomogError):
    """Shared boundary nodes of adjacent cells disagree beyond tolerance."""


class NonEllipticField(MembraneHomogError):
    """Sampled conductivity field violates the ellipticity bounds."""


class SolverDivergence(MembraneHomogError):
    """The direct condensed solve's true residual stayed above fem.RTOL after fem.APPLICATIONS."""


class InsufficientSamples(MembraneHomogError):
    """Too few Monte-Carlo samples to compute a standard error."""


class EllipticityViolation(MembraneHomogError):
    """Effective tensor failed the positivity / upper-bound check."""


class HypothesisViolation(MembraneHomogError):
    """Backward-induction instance violates its preconditions."""


class MeshMismatch(MembraneHomogError):
    """Interpolation between meshes failed."""


class DegenerateFit(MembraneHomogError):
    """Rate fit rejected: an error value is at round-off level."""


class ConfigError(MembraneHomogError):
    """Experiment configuration is malformed; message names the key."""
