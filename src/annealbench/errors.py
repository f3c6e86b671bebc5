"""Exception types shared across the package."""


class AnnealBenchError(Exception):
    """Base class for all package errors."""


class InvalidEdge(AnnealBenchError):
    """Edge endpoint out of range, or a self-loop."""


class CapExceeded(AnnealBenchError):
    """Graph too large for the exhaustive alpha solver."""


class NotBipartite(AnnealBenchError):
    """Side labels missing or inconsistent with the edge set."""


class NotAForest(AnnealBenchError):
    """Input graph contains a cycle."""


class NotIndependent(AnnealBenchError):
    """Vertex set spans an edge where an independent set was required."""


class InvalidFugacity(AnnealBenchError):
    """Fugacity outside [1, inf]."""


class InvalidRate(AnnealBenchError):
    """Non-positive vertex update rate."""


class InvalidDenseParams(AnnealBenchError):
    """Dense parameterization outside its validity region."""


class InvalidDrift(AnnealBenchError):
    """Walk drift is not positive."""


class InvalidChain(AnnealBenchError):
    """Malformed birth-death chain rates."""


class OutOfRegime(AnnealBenchError):
    """Closed-form bound requested outside its regime of validity."""


class InsufficientRecord(AnnealBenchError):
    """Trial record lacks the fields needed by an analysis."""


class EmptyInput(AnnealBenchError):
    """An aggregate was requested over zero records."""


class ConfigError(AnnealBenchError):
    """An experiment config, or a trial row it reads, is missing, malformed or inconsistent."""


class IncompleteRun(AnnealBenchError):
    """Verdict requested for a criterion with no matching summary."""


class IoError(AnnealBenchError):
    """Output location could not be written."""
