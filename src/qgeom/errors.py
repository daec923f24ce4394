"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: DomainError -> 2, NumericalError
(and subclasses) -> 3.
"""


class QgeomError(Exception):
    """Base class for package errors."""


class DomainError(QgeomError):
    """A parameter point violates a model's domain constraints."""


class NumericalError(QgeomError):
    """A computation failed for numerical reasons (degeneracy, convergence...)."""


class DegeneracyError(NumericalError):
    """The selected eigenstate sits in a (near-)degenerate cluster."""


class StateTrackingError(NumericalError):
    """An eigenstate could not be tracked across a parameter displacement."""
