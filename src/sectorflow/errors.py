"""Exception hierarchy shared across the package."""


class SectorflowError(Exception):
    """Base class for all package-specific errors."""


class InvalidRadii(SectorflowError):
    """Inner/outer radius pair violates 0 <= a < b <= inf."""


class InvalidAngle(SectorflowError):
    """Opening angle outside (0, 2*pi]."""


class GridError(SectorflowError):
    """Grid construction parameters inconsistent with the domain."""


class GridMismatch(GridError):
    """A field export was written on another grid than it is read onto."""


class ParameterDomain(SectorflowError):
    """Family parameters violate the constraints of the chosen branch."""


class SingularityInRange(SectorflowError):
    """A pole of the angular profile falls inside the requested interval."""

    def __init__(self, message, theta=None):
        super().__init__(message)
        self.theta = theta


class OutOfValidity(SectorflowError):
    """Evaluation point outside the solution's validity interval."""


class ZeroSwirl(SectorflowError):
    """The swirl constant c vanishes; the profile equation degenerates."""


class SingularSwirl(SectorflowError):
    """The angular velocity component reached the v = 0 singularity."""

    def __init__(self, message, theta=None):
        super().__init__(message)
        self.theta = theta


class NoConvergence(SectorflowError):
    """Newton iteration stalled; best iterate attached."""

    def __init__(self, message, field=None, report=None):
        super().__init__(message)
        self.field = field
        self.report = report


class DegenerateField(SectorflowError):
    """Field magnitude below the detection floor everywhere."""


class InsufficientOverlap(SectorflowError):
    """Recovered nonlinearity does not cover both sides of the relation."""


class EmptyOverlap(SectorflowError):
    """Translation too large: shifted and original rectangles are disjoint."""


class ConfigError(SectorflowError):
    """Scenario configuration failed to parse or validate."""


class PipelineFailure(SectorflowError):
    """A scenario pipeline step raised; the cause is chained."""
