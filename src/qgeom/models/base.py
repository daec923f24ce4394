"""Shared model machinery: parameter points, normal-mode data, model ABC."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DomainError
from ..fock import FockBasis, Operator, basis as make_basis, quadratics


@dataclass(frozen=True)
class ParamPoint:
    """An ordered set of real parameter values tied to their names."""

    names: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        names = tuple(self.names)
        values = tuple(float(v) for v in self.values)
        if len(names) != len(values):
            raise ValueError("names/values length mismatch")
        if any(not math.isfinite(v) for v in values):
            raise DomainError("parameter values must be finite reals")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", values)

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.values[self.names.index(key)]
        return self.values[key]

    def as_array(self) -> np.ndarray:
        return np.array(self.values)

    def replace(self, **updates) -> "ParamPoint":
        vals = list(self.values)
        for name, v in updates.items():
            vals[self.names.index(name)] = float(v)
        return ParamPoint(self.names, tuple(vals))

    def shifted(self, index: int, delta: float) -> "ParamPoint":
        vals = list(self.values)
        vals[index] += delta
        return ParamPoint(self.names, tuple(vals))


@dataclass(frozen=True)
class NormalModeData:
    """Normal frequencies plus, when applicable, the mixing angle zeta."""

    frequencies: tuple[float, ...]
    angle: float | None = None


class Model(ABC):
    """A parameter-dependent Hamiltonian family with closed-form oracles.

    Concrete models define the Hamiltonian/deformation builders (Weyl-ordered
    sparse operators in a Fock basis), the normal-mode data, and a catalog of
    closed-form quantities used as regression oracles.
    """

    name: str = ""
    dof: int = 1
    param_names: tuple[str, ...] = ()

    # ---- parameter handling -------------------------------------------------

    def point(self, *values, **kw) -> ParamPoint:
        if kw:
            if values:
                raise ValueError("pass either positional values or keywords")
            values = tuple(kw[name] for name in self.param_names)
        if len(values) != len(self.param_names):
            raise DomainError(
                f"{self.name} expects {len(self.param_names)} parameters "
                f"{self.param_names}, got {len(values)}"
            )
        pt = ParamPoint(self.param_names, tuple(values))
        self.validate(pt)
        return pt

    @abstractmethod
    def validate(self, point: ParamPoint) -> None:
        """Raise DomainError if the point violates the model's constraints."""

    # ---- labels -------------------------------------------------------------

    @property
    def phase_labels(self) -> tuple[str, ...]:
        qs = tuple(f"q{a + 1}" for a in range(self.dof))
        ps = tuple(f"p{a + 1}" for a in range(self.dof))
        return qs + ps

    @property
    def labels(self) -> tuple[str, ...]:
        return self.param_names + self.phase_labels

    # ---- operator builders --------------------------------------------------

    def qp_operators(self, fb: FockBasis):
        """All position and momentum matrices, (q_1..q_N, p_1..p_N)."""
        quads = quadratics(fb)
        return list(quads.qs), list(quads.ps)

    @abstractmethod
    def hamiltonian(self, point: ParamPoint, fb: FockBasis) -> Operator:
        ...

    @abstractmethod
    def deformations(self, point: ParamPoint, fb: FockBasis) -> dict[str, Operator]:
        """Weyl-ordered dH/dz for every key in self.labels."""

    @abstractmethod
    def normal_modes(self, point: ParamPoint) -> NormalModeData:
        ...

    def normal_mode_ladders(self, point: ParamPoint, fb: FockBasis) -> list[Operator]:
        """Lowering operators b_i of the analytic normal modes.

        Default: the model supplies normal coordinates via `normal_coordinates`;
        b_i = sqrt(w_i/2) Q_i + i P_i / sqrt(2 w_i).
        """
        data = self.normal_modes(point)
        out = []
        for i, (Q, P) in enumerate(self.normal_coordinates(point, fb)):
            w = data.frequencies[i]
            out.append(math.sqrt(w / 2.0) * Q + (1j / math.sqrt(2.0 * w)) * P)
        return out

    def normal_coordinates(self, point: ParamPoint, fb: FockBasis):
        """Pairs (Q_i, P_i) of normal-mode quadratures; override per model."""
        raise NotImplementedError

    def basis_frequency(self, point: ParamPoint) -> float:
        """Geometric mean of the normal frequencies (default basis scaling)."""
        freqs = self.normal_modes(point).frequencies
        return float(np.exp(np.mean(np.log(freqs))))

    def default_basis(self, point: ParamPoint, cutoff: int) -> FockBasis:
        return make_basis(self.dof, cutoff, self.basis_frequency(point))

    # ---- closed forms ---------------------------------------------------

    #: quantity name -> method name; populated by subclasses
    _closed: dict[str, str] = {}

    def closed_quantities(self) -> tuple[str, ...]:
        return tuple(sorted(self._closed))

    def closed_form(self, quantity: str, point: ParamPoint,
                    qn: Sequence[int] = (0,)):
        """Evaluate a transcribed closed-form quantity at a point.

        qn is the vector of quantum numbers (length = dof).
        """
        self.validate(point)
        qn = self._check_qn(qn)
        try:
            method = self._closed[quantity]
        except KeyError:
            raise ValueError(
                f"model {self.name!r} has no closed form {quantity!r}; "
                f"available: {', '.join(self.closed_quantities())}"
            ) from None
        return getattr(self, method)(point, qn)

    def _check_qn(self, qn) -> tuple[int, ...]:
        if np.isscalar(qn):
            qn = (int(qn),)
        qn = tuple(int(n) for n in qn)
        if len(qn) != self.dof:
            raise ValueError(f"{self.name} needs {self.dof} quantum numbers, got {qn}")
        if any(n < 0 for n in qn):
            raise ValueError("quantum numbers must be non-negative")
        return qn


def bval(n: int) -> float:
    """n^2 + n + 1, the excited-state weight of the metric closed forms."""
    return float(n * n + n + 1)


def aval(n: int) -> float:
    """n + 1/2."""
    return n + 0.5
