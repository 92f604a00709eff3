"""Exception types shared across the package."""


class EdgeqError(Exception):
    """Base class for all edgeq errors."""


class DomainError(EdgeqError, ValueError):
    """A parameter lies outside the domain of the requested formula."""


class UnstableQueue(DomainError):
    """Offered load leaves no spare capacity; the waiting time diverges."""


class UnreachableScv(DomainError):
    """The requested squared coefficient of variation cannot be produced
    by the chosen distribution family."""


class ConfigError(EdgeqError):
    """A simulation or scenario configuration is malformed or inconsistent."""


class ParseError(EdgeqError):
    """A trace or config file could not be parsed; message names the line."""


class EmptyTrace(ParseError):
    """A trace file contained no VM requests."""


class OversizedVm(DomainError):
    """A VM requests more cores than a single server provides."""


class InstabilityDetected(EdgeqError):
    """Unbounded queue growth observed in a model declared stationary."""
