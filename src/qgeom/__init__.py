"""Generalized quantum geometric tensor toolkit for oscillator models."""

from . import fock, gauss, geometry, models, qgt
from .errors import (DegeneracyError, DomainError, NumericalError, QgeomError,
                     StateTrackingError)
from .models import get_model, MODEL_NAMES

__version__ = "0.1.0"

__all__ = [
    "fock", "gauss", "geometry", "models", "qgt",
    "get_model", "MODEL_NAMES",
    "QgeomError", "DomainError", "NumericalError", "DegeneracyError",
    "StateTrackingError",
    "__version__",
]
