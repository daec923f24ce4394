"""Shared model machinery: parameter points, normal-mode data, model ABC.

Models transcribe closed forms; `Model` derives qgt from metric and berry,
and phase_qgt and covariance from phase_metric (`DERIVED`, through `gauss`).

Every closed form and every `validate` takes either one `ParamPoint` or a
`ParamBatch` of P points. Closed forms are written with numpy ufuncs and
`matrix`, so a batch value has a leading (P,) axis and a single point is the
shape-() case of the same code. They avoid the `**` operator: on numpy
scalars it is C `pow`, while on arrays it is numpy's own power, and the two
differ in the last bit for a few percent of inputs. With products and
ufuncs, a batch equals the stack of its single-point values bitwise.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, Iterator, Sequence

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
    shape: ClassVar[tuple[int, ...]] = ()  # the batch shape of one point

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

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        """The values of each point, as plain floats: here the one point."""
        return (self.values,)

    def __str__(self) -> str:
        return ", ".join(f"{n}={v}" for n, v in zip(self.names, self.values))

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


class ParamBatch:
    """P parameter points, as one (P,) array per parameter.

    It reads like a `ParamPoint` (`names`, `values`, `point["X"]`), so the
    closed forms and `validate` take either.
    """

    def __init__(self, names: Sequence[str], values: np.ndarray):
        """values: (P, len(names)), one row per point."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(names):
            raise ValueError(f"need a (P, {len(names)}) array of points, got "
                             f"shape {values.shape}")
        self.names = tuple(names)
        self.shape = values.shape[:1]
        self.values = tuple(np.ascontiguousarray(values.T))
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            row = values[int(np.argmin(finite))]
            at = ", ".join(f"{n}={float(v)}" for n, v in zip(self.names, row))
            raise DomainError(f"parameter values must be finite reals (at {at})")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.values[self.names.index(name)]

    @cached_property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        """The values of each point, as plain floats."""
        return tuple(zip(*(v.tolist() for v in self.values)))

    def point(self, index: int) -> ParamPoint:
        return ParamPoint(self.names, tuple(float(v[index]) for v in self.values))

    def shifted(self, index: int, delta) -> "ParamBatch":
        columns = list(self.values)
        columns[index] = columns[index] + delta
        return ParamBatch(self.names, np.stack(columns, axis=1))


Points = ParamPoint | ParamBatch
#: (failed, message) pairs: failed is a bool, or a boolean array over the
#: batch, and message() is the error text for a single point
Checks = Iterator[tuple[object, Callable[[], str]]]


def check_domain(point: Points, checks: Callable[[Points], Checks]) -> None:
    """Raise DomainError if a point fails one of `checks(point)`.

    A single point gets the message of the first check it fails. A batch is
    checked as a whole; the error then carries the message of its first
    failing point, which it names. The checks may read an overflow to inf
    or nan as a failure, so floating-point warnings are off while they run.
    """
    with np.errstate(all="ignore"):
        if not point.shape:
            for failed, message in checks(point):
                if failed:
                    raise DomainError(message())
            return
        outside = np.zeros(point.shape, dtype=bool)
        for failed, _ in checks(point):
            outside |= failed
    if outside.any():
        first = point.point(int(np.argmax(outside)))
        try:
            check_domain(first, checks)
        except DomainError as exc:
            raise DomainError(f"{exc} (at {first})") from None


def nonfinite(x):
    """x is inf or nan, elementwise. Plain comparisons, so a point's check
    stays in Python floats and costs no ufunc call."""
    return (x != x) | (abs(x) == math.inf)


def matrix(shape: tuple[int, ...], rows) -> np.ndarray:
    """The (*shape, r, c) stack of a matrix whose entries are scalars or
    arrays of the batch shape `shape`."""
    if not shape:  # one point: every entry is a scalar
        return np.array(rows, dtype=float)
    out = np.empty(shape + (len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def lift(value):
    """A scalar, or one value per point, shaped to scale a stack of
    matrices point by point (a scalar broadcasts as it is)."""
    if np.ndim(value) == 0:
        return value
    return value[..., None, None]


def full(point: Points, value: float):
    """A constant over the batch shape of `point`: a scalar for one point."""
    return np.full(point.shape, value)[()]


def ipow(x, k: int):
    """x^k for an integer k >= 1 by repeated products (see the module
    docstring for why not `x ** k`)."""
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


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

    def validate(self, point: Points) -> None:
        """Raise DomainError if a point violates the model's constraints;
        for a batch, the error names the first such point."""
        check_domain(point, self._domain)

    @abstractmethod
    def _domain(self, point: Points) -> Checks:
        """The model's constraints as `check_domain` pairs, in order."""

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

    def closed_form(self, quantity: str, point: Points,
                    qn: Sequence[int] = (0,)):
        """Evaluate a transcribed or derived closed-form quantity at a point,
        or at each point of a batch (with a leading (P,) axis).

        qn is the vector of quantum numbers (length = dof).
        """
        self.validate(point)
        qn = self._check_qn(qn)
        return self.closed_method(quantity)(point, qn)

    def closed_method(self, quantity: str):
        """The bound method behind `closed_form(quantity, ...)`.

        It takes (point, qn) and checks neither: callers that evaluate one
        quantity many times resolve it once and validate each batch.
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
