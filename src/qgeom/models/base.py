"""Shared model machinery: parameter points, normal-mode data, model ABC.

Models transcribe closed forms; `Model` derives qgt from metric and berry,
and phase_qgt and covariance from phase_metric (`DERIVED`, through `gauss`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import gauss
from ..errors import DomainError, NumericalError
from ..fock import FockBasis, Operator, basis as make_basis, form_operators
from ..fock import quadratics  # noqa: F401  (perfbench instruments it here)


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


# derived quantity -> (the transcribed quantities it follows from, how)
DERIVED = {
    "qgt": (("metric", "berry"), lambda metric, berry: metric - 0.5j * berry),
    "phase_qgt": (("phase_metric",), gauss.add_half_omega),
    "covariance": (("phase_metric",), gauss.quadrature_swap),
}


def _derived_method(combine, sources):
    """The closed-form method (self, point, qn) -> combine(*source values)."""
    def method(self, point, qn):
        return combine(*[source(self, point, qn) for source in sources])
    return method


# How far the normal frequencies derived from a model's quadratic form may sit
# from the ones it declares, relative to the declared ones.
FREQUENCY_RTOL = 1e-10


@dataclass(frozen=True)
class NormalModeData:
    """Normal frequencies plus, when applicable, the mixing angle zeta."""

    frequencies: tuple[float, ...]
    angle: float | None = None


class Model(ABC):
    """A parameter-dependent Hamiltonian family with closed-form oracles.

    Concrete models define `quadratic_form` and `form_derivatives`, the
    normal-mode data (which fixes the mode labels and order), `validate`,
    and the `_closed` table of the closed forms they transcribe, used as
    regression oracles. The Weyl-ordered sparse operators in a Fock basis
    (`hamiltonian`, `deformations`, `normal_mode_ladders`) are derived here
    from the form, and the `DERIVED` quantities from the transcribed ones.
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

    # ---- the quadratic form and what follows from it -----------------------

    @abstractmethod
    def quadratic_form(self, point: ParamPoint) -> tuple[np.ndarray, np.ndarray, float]:
        """(M, b, k) of H = r^T M r/2 + b^T r + k, r = (q_1..q_N, p_1..p_N)."""

    @abstractmethod
    def form_derivatives(self, point: ParamPoint) -> list[tuple]:
        """(dM_i, db_i, dk_i) of the form for each parameter, in order."""

    @abstractmethod
    def normal_modes(self, point: ParamPoint) -> NormalModeData:
        ...

    def hamiltonian(self, point: ParamPoint, fb: FockBasis) -> Operator:
        return form_operators(fb, [self.quadratic_form(point)])[0]

    def deformations(self, point: ParamPoint, fb: FockBasis) -> dict[str, Operator]:
        """Weyl-ordered dH/dz for every key in self.labels: the parameter
        rows from `form_derivatives`, the phase rows dH/dr_a = (M r)_a + b_a."""
        M, b, _ = self.quadratic_form(point)
        phase = [(None, M[a], b[a]) for a in range(2 * self.dof)]
        ops = form_operators(fb, self.form_derivatives(point) + phase)
        return dict(zip(self.labels, ops))

    def normal_mode_ladders(self, point: ParamPoint, fb: FockBasis) -> list[Operator]:
        """Lowering operators b_k = c_k^T (r - r0), in the order of `normal_modes`.

        r0 = -M^{-1} b is the classical minimum, and c_k solves
        -i M Omega c = w_k c with i c^T Omega c^* = 1, so [b_k, H] = w_k b_k
        and [b_j, b_k^dag] = delta_jk. With M = L L^T, c = L v / sqrt(w) for
        a unit eigenvector v of the Hermitian -i L^T Omega L (Williamson), so
        the two ladders of a degenerate pair come out orthonormal too. The
        derived frequencies are matched to the declared ones by rank; they
        must agree to FREQUENCY_RTOL.
        """
        M, b, _ = self.quadratic_form(point)
        n = self.dof
        try:
            L = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise NumericalError(f"{self.name}: the form's M is not positive "
                                 "definite") from None
        omega_L = np.concatenate([L[n:], -L[:n]])  # Omega @ L
        freqs, vecs = np.linalg.eigh(-1j * (L.T @ omega_L))  # -w_k..., +w_k...
        shift = np.linalg.solve(M, b)  # -r0
        declared = self.normal_modes(point).frequencies
        forms = [None] * n
        for rank, mode in enumerate(sorted(range(n), key=declared.__getitem__)):
            w = freqs[n + rank]
            if abs(w - declared[mode]) > FREQUENCY_RTOL * declared[mode]:
                raise NumericalError(
                    f"{self.name}: the form's normal frequency {w:.12g} differs "
                    f"from the declared {declared[mode]:.12g}")
            c = (L @ vecs[:, n + rank]) / math.sqrt(w)
            forms[mode] = (None, c, c @ shift)
        return form_operators(fb, forms)

    def basis_frequency(self, point: ParamPoint) -> float:
        """Geometric mean of the normal frequencies (default basis scaling)."""
        freqs = self.normal_modes(point).frequencies
        return float(np.exp(np.mean(np.log(freqs))))

    def default_basis(self, point: ParamPoint, cutoff: int) -> FockBasis:
        return make_basis(self.dof, cutoff, self.basis_frequency(point))

    # ---- closed forms ---------------------------------------------------

    #: transcribed quantity name -> method name; populated by subclasses
    _closed: dict[str, str] = {}
    #: every quantity -> its function (self, point, qn); built per class
    _catalog: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        catalog = {q: getattr(cls, method) for q, method in cls._closed.items()}
        for quantity, (sources, combine) in DERIVED.items():
            if quantity in catalog:
                raise TypeError(f"{cls.__name__} transcribes {quantity!r}, which "
                                f"Model derives from {', '.join(sources)}")
            if all(s in catalog for s in sources):
                catalog[quantity] = _derived_method(
                    combine, [catalog[s] for s in sources])
        cls._catalog = catalog

    def closed_quantities(self) -> tuple[str, ...]:
        return tuple(sorted(self._catalog))

    def closed_form(self, quantity: str, point: ParamPoint,
                    qn: Sequence[int] = (0,)):
        """Evaluate a transcribed or derived closed-form quantity at a point.

        qn is the vector of quantum numbers (length = dof).
        """
        self.validate(point)
        qn = self._check_qn(qn)
        return self.closed_method(quantity)(point, qn)

    def closed_method(self, quantity: str):
        """The bound method behind `closed_form(quantity, ...)`.

        It takes (point, qn) and checks neither: callers that evaluate one
        quantity many times resolve it once and validate each point.
        """
        try:
            function = self._catalog[quantity]
        except KeyError:
            raise ValueError(
                f"model {self.name!r} has no closed form {quantity!r}; "
                f"available: {', '.join(self.closed_quantities())}"
            ) from None
        return function.__get__(self)

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
