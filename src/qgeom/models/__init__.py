"""Model catalog: the five systems studied, selectable by name."""

from __future__ import annotations

from .base import Model, NormalModeData, ParamBatch, ParamPoint, aval, bval
from .coupled import LinearCoupled, SymmetricCoupled
from .gaussian import GaussianModel, default_gaussian, oscillator_slice_gaussian
from .generalized import GeneralizedOscillator, GeneralizedOscillatorLinear

_FACTORIES = {
    "gho": GeneralizedOscillator,
    "gho-linear": GeneralizedOscillatorLinear,
    "sym-coupled": SymmetricCoupled,
    "lin-coupled": LinearCoupled,
    "gaussian": default_gaussian,
}

MODEL_NAMES = tuple(sorted(_FACTORIES))


def get_model(name: str, **kwargs) -> Model:
    """Look up a model by its catalog name.

    For "gaussian", keyword arguments (sigma, mu, dsigma, dmu, param_names)
    construct a custom family; with no arguments a default exp/linear family
    is returned.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}"
        ) from None
    if name == "gaussian" and kwargs:
        return GaussianModel(**kwargs)
    if kwargs:
        raise ValueError(f"model {name!r} takes no construction arguments")
    return factory()


__all__ = [
    "Model", "NormalModeData", "ParamBatch", "ParamPoint", "aval", "bval",
    "GeneralizedOscillator", "GeneralizedOscillatorLinear",
    "SymmetricCoupled", "LinearCoupled", "GaussianModel",
    "default_gaussian", "oscillator_slice_gaussian",
    "get_model", "MODEL_NAMES",
]
