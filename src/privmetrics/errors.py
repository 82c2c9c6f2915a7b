"""Error hierarchy shared by every module.

Each exception carries a stable machine-readable ``code`` that the CLI maps
onto its exit-code contract (2 for input/validation problems, 3 for
computation failures).
"""

from __future__ import annotations


class MetricError(Exception):
    """Base class for all package errors."""

    code = "E_ERROR"

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


class SchemaError(MetricError):
    """Malformed input file, unknown column, or role/kind mismatch."""

    code = "E_SCHEMA"


class DistributionError(MetricError):
    """Negative probability or mass that does not sum to one."""

    code = "E_DIST"


class ShapeError(MetricError):
    """Mismatched lengths, label sets, or dimensions."""

    code = "E_SHAPE"


class ParamError(MetricError):
    """Parameter outside its documented domain."""

    code = "E_PARAM"


class DomainError(MetricError):
    """Value outside the mathematical domain of the operation."""

    code = "E_DOMAIN"


class EmptyError(MetricError):
    """Operation needs at least one element and got none."""

    code = "E_EMPTY"


class DegenerateError(MetricError):
    """Input is degenerate for the operation (e.g. zero variance)."""

    code = "E_DEGENERATE"


class ConvergenceError(MetricError):
    """Iterative solver hit its iteration cap before converging."""

    code = "E_CONVERGE"


class UnknownMetricError(MetricError):
    """Requested metric id is not in the catalog."""

    code = "E_UNKNOWN"


class UsageError(MetricError):
    """Command line the CLI cannot parse: an unknown command or option, a
    missing argument or option value, or a value outside an option's choices."""

    code = "E_USAGE"


# Errors that indicate a failed computation rather than bad input.
COMPUTATION_CODES = frozenset({"E_CONVERGE", "E_DOMAIN"})
