"""Truncated bosonic Fock-space engine.

Operators are sparse. Each (modes, cutoff) caches its quadratic monomials
at unit basis frequency once, on one shared CSR sparsity pattern: the
identity, q_a, p_a and the symmetrized q_a q_b, p_a p_b and
(q_a p_a + p_a q_a)/2. An `Operator` is a coefficient vector over them, so
model builders do their arithmetic on a few coefficients, and the basis
frequency enters only the coefficients. Eigensolves are gauge-fixed: every
level by dense LAPACK, or the lowest few by shift-invert Lanczos (ARPACK) on
a banded Cholesky factor of H - sigma, with sigma below the Gershgorin bound.
The band costs (kd + 1) * dim entries, kd = 2 for one mode and 2 * cutoff
for two: 128 MB for a real two-mode basis at cutoff 200.
Units: hbar = 1; a mode with basis frequency w_b has q = (a + a^dag)/sqrt(2 w_b)
and p = i sqrt(w_b/2) (a^dag - a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DegeneracyError, NumericalError

HERMITICITY_RTOL = 1e-12
DEGENERACY_RTOL = 1e-8
# Seed of ARPACK's start vector, a fixed normal draw. A uniform vector is
# symmetric under mode exchange, so Lanczos would never reach the
# exchange-antisymmetric levels from it.
START_VECTOR_SEED = 20240817
# How far the window's shift sits below the Gershgorin bound, relative to the
# Gershgorin extent max_i(|a_ii| + r_i). The bound is the lowest level itself
# for a diagonal matrix, where a zero margin would leave H - sigma singular.
# The margin stays far above rounding, and far below the low-lying gaps even
# at cutoff 200, where the extent grows with the cutoff; a margin of 1e-3
# there cost 52 band solves against 37.
SHIFT_MARGIN = 1e-6


@dataclass(frozen=True)
class FockBasis:
    """Truncated multimode Fock basis.

    modes: number of bosonic modes N (1 or 2 for the systems treated here)
    cutoff: occupation cutoff n_max per mode; total dimension is n_max**N
    frequencies: basis frequency w_b per mode, used to scale q and p
    """

    modes: int
    cutoff: int
    frequencies: tuple[float, ...]

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError("modes must be >= 1")
        if self.cutoff < 2:
            raise ValueError("cutoff must be >= 2 per mode")
        freqs = tuple(float(w) for w in self.frequencies)
        if len(freqs) != self.modes:
            raise ValueError("need one basis frequency per mode")
        if any(w <= 0 for w in freqs):
            raise ValueError("basis frequencies must be positive")
        object.__setattr__(self, "frequencies", freqs)

    @property
    def dim(self) -> int:
        return self.cutoff ** self.modes

    def with_cutoff(self, cutoff: int) -> "FockBasis":
        return FockBasis(self.modes, cutoff, self.frequencies)


def basis(modes: int, cutoff: int, frequency: float | Sequence[float] = 1.0) -> FockBasis:
    """Convenience constructor; a scalar frequency is shared by all modes."""
    if np.isscalar(frequency):
        freqs = (float(frequency),) * modes
    else:
        freqs = tuple(float(w) for w in frequency)
    return FockBasis(modes, cutoff, freqs)


@dataclass(frozen=True, eq=False)
class Pattern:
    """Square sparsity pattern in CSR order, closed under transposition and
    holding the diagonal.

    Entry j sits at (rows[j], cols[j]); entry transpose[j] sits at
    (cols[j], rows[j]).
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    indptr: np.ndarray
    transpose: np.ndarray

    @classmethod
    def of(cls, rows: np.ndarray, cols: np.ndarray, dim: int) -> "Pattern":
        diag = np.arange(dim, dtype=np.int64) * (dim + 1)
        keys = np.sort(np.concatenate([rows * dim + cols, cols * dim + rows, diag]))
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]  # unique
        rows, cols = np.divmod(keys, dim)
        return cls(dim, rows, cols, np.searchsorted(rows, np.arange(dim + 1)),
                   np.searchsorted(keys, cols * dim + rows))

    def matvec(self, data: np.ndarray, vec: np.ndarray) -> np.ndarray:
        # every row holds its diagonal, so no reduceat segment is empty
        return np.add.reduceat(data * vec[self.cols], self.indptr[:-1])


@dataclass(frozen=True, eq=False)
class Monomials:
    """Quadratic monomials of a (modes, cutoff) basis at unit frequency.

    Monomial k is phases[k] * data[k] on the shared pattern. data is real;
    the phase is 1j for p_a and (q_a p_a + p_a q_a)/2 and 1 otherwise, so
    every monomial is Hermitian. index maps the keys ("1",), ("q", a),
    ("p", a), ("qq", a, b), ("pp", a, b) (a <= b) and ("qp", a) to k.
    """

    pattern: Pattern
    index: dict
    data: np.ndarray
    phases: np.ndarray

    def operator(self, key: tuple, scale: float = 1.0) -> "Operator":
        coeffs = np.zeros(len(self.index))
        coeffs[self.index[key]] = scale
        return Operator(self, coeffs)


def _kron_entries(factors: Sequence[np.ndarray]):
    """(rows, cols, values) of the nonzeros of a Kronecker product whose
    first factor is the slowest index."""
    rows = cols = np.zeros(1, dtype=np.int64)
    values = np.ones(1)
    for f in factors:
        r, c = np.nonzero(f)
        rows = (rows[:, None] * f.shape[0] + r).ravel()
        cols = (cols[:, None] * f.shape[0] + c).ravel()
        values = (values[:, None] * f[r, c]).ravel()
    return rows, cols, values


@lru_cache(maxsize=8)
def monomials(modes: int, cutoff: int) -> Monomials:
    """The unit-frequency monomials of a basis shape, built once.

    Single-mode factors are dense cutoff x cutoff matrices. A multimode
    monomial is the Kronecker product of its factors, which keeps their
    exact (anti)symmetry.
    """
    a = np.diag(np.sqrt(np.arange(1, cutoff)), 1)
    eye = np.eye(cutoff)
    q = (a + a.T) / math.sqrt(2.0)
    p = (a.T - a) / math.sqrt(2.0)  # the momentum is 1j * p
    qq, pp, qp = q @ q, -(p @ p), 0.5 * (q @ p + p @ q)

    def placed(at: dict) -> list:  # mode -> factor, identity elsewhere
        return [at.get(m, eye) for m in range(modes)]

    terms = {("1",): (placed({}), 1)}
    for m in range(modes):
        terms[("q", m)] = (placed({m: q}), 1)
        terms[("p", m)] = (placed({m: p}), 1j)
    for m in range(modes):
        terms[("qq", m, m)] = (placed({m: 0.5 * (qq + qq.T)}), 1)
        terms[("pp", m, m)] = (placed({m: 0.5 * (pp + pp.T)}), 1)
        for n in range(m + 1, modes):  # distinct modes commute
            terms[("qq", m, n)] = (placed({m: q, n: q}), 1)
            terms[("pp", m, n)] = (placed({m: -p, n: p}), 1)  # (1j p)(1j p)
    for m in range(modes):
        terms[("qp", m)] = (placed({m: 0.5 * (qp - qp.T)}), 1j)

    dim = cutoff ** modes
    entries = [_kron_entries(factors) for factors, _ in terms.values()]
    pattern = Pattern.of(np.concatenate([e[0] for e in entries]),
                         np.concatenate([e[1] for e in entries]), dim)
    keys = pattern.rows * dim + pattern.cols
    data = np.zeros((len(terms), len(keys)))
    for k, (rows, cols, values) in enumerate(entries):
        data[k, np.searchsorted(keys, rows * dim + cols)] = values
    phases = np.array([phase for _, phase in terms.values()], dtype=complex)
    return Monomials(pattern, {key: k for k, key in enumerate(terms)}, data, phases)


class Operator:
    """A linear combination of a basis's quadratic monomials.

    Arithmetic acts on the coefficient vector, so building an operator costs
    a few small vector operations; its matrix entries are formed once, by
    `data`, as one combination of the monomial data arrays.
    """

    __slots__ = ("monomials", "coeffs")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, monomials: Monomials, coeffs: np.ndarray):
        self.monomials = monomials
        self.coeffs = coeffs

    @property
    def dim(self) -> int:
        return self.monomials.pattern.dim

    @property
    def hermitian(self) -> bool:
        """Every monomial is Hermitian, so real coefficients make the sum so."""
        return not np.iscomplexobj(self.coeffs) or not self.coeffs.imag.any()

    def adjoint(self) -> "Operator":
        return Operator(self.monomials, np.conj(self.coeffs))

    def data(self) -> np.ndarray:
        """Matrix entries on the shared pattern, real when they can be."""
        weights = self.coeffs * self.monomials.phases
        out = weights.real @ self.monomials.data
        if weights.imag.any():
            out = out + 1j * (weights.imag @ self.monomials.data)
        return out

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """The dense vector op |vec>."""
        return self.monomials.pattern.matvec(self.data(), vec)

    def __add__(self, other):
        if isinstance(other, Operator):
            if other.monomials is not self.monomials:
                raise ValueError("operators belong to bases of different shape")
            return Operator(self.monomials, self.coeffs + other.coeffs)
        if np.isscalar(other):  # shift by other * identity
            coeffs = self.coeffs.astype(np.result_type(self.coeffs, other))
            coeffs[self.monomials.index[("1",)]] += other
            return Operator(self.monomials, coeffs)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Operator":
        return Operator(self.monomials, -self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return Operator(self.monomials, scalar * self.coeffs)

    __rmul__ = __mul__


def identity(fb: FockBasis) -> Operator:
    return monomials(fb.modes, fb.cutoff).operator(("1",))


@dataclass(frozen=True)
class QuadraticSet:
    """q_a, p_a and their symmetrized pairwise products for one basis."""

    qs: tuple[Operator, ...]
    ps: tuple[Operator, ...]
    qq: dict  # (a, b) a <= b -> q_a q_b symmetrized
    pp: dict  # (a, b) a <= b -> p_a p_b symmetrized
    qp: tuple[Operator, ...]  # same-mode (q_a p_a + p_a q_a)/2


def quadratics(fb: FockBasis) -> QuadraticSet:
    """All q_a, p_a and their symmetrized pairwise products for a basis.

    The cached unit-frequency monomials are shared; the basis frequency
    scales only the coefficients, q as w_b^(-1/2) and p as w_b^(1/2) per mode.
    """
    mono = monomials(fb.modes, fb.cutoff)
    root = [math.sqrt(w) for w in fb.frequencies]
    pairs = [(a, b) for a in range(fb.modes) for b in range(a, fb.modes)]
    return QuadraticSet(
        tuple(mono.operator(("q", a), 1.0 / root[a]) for a in range(fb.modes)),
        tuple(mono.operator(("p", a), root[a]) for a in range(fb.modes)),
        {(a, b): mono.operator(("qq", a, b), 1.0 / (root[a] * root[b])) for a, b in pairs},
        {(a, b): mono.operator(("pp", a, b), root[a] * root[b]) for a, b in pairs},
        tuple(mono.operator(("qp", a)) for a in range(fb.modes)),
    )


def position_momentum(fb: FockBasis, mode: int = 0) -> tuple[Operator, Operator]:
    """Dimensionless q and p for one mode, [q, p] = i up to the truncation edge."""
    if not 0 <= mode < fb.modes:
        raise ValueError(f"mode {mode} out of range for {fb.modes}-mode basis")
    quads = quadratics(fb)
    return quads.qs[mode], quads.ps[mode]


def ladder(fb: FockBasis, mode: int = 0) -> tuple[Operator, Operator]:
    """Annihilation/creation pair (a, a^dag) acting on the given mode.

    a|n> = sqrt(n)|n-1>, truncated at the cutoff; identity on other modes.
    """
    q, p = position_momentum(fb, mode)
    w = fb.frequencies[mode]
    half_q = math.sqrt(w / 2.0) * q
    half_p = (1j / math.sqrt(2.0 * w)) * p
    return half_q + half_p, half_q - half_p


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition with a deterministic phase convention.

    energies are ascending (all levels, or the lowest few of a windowed
    solve); states holds unit-norm column eigenvectors whose
    largest-magnitude component is real and positive.
    """

    energies: np.ndarray
    states: np.ndarray
    gauge: str = "max-component-positive"

    @property
    def dim(self) -> int:
        """Number of levels held."""
        return len(self.energies)

    def vector(self, k: int) -> np.ndarray:
        return self.states[:, k]

    def overlaps(self, vecs: np.ndarray, upto: int | None = None) -> np.ndarray:
        """<k|v> for the first `upto` levels k (all by default), for a vector v
        or for each column v of a matrix.

        One BLAS pass over `states`, which is neither copied nor recast:
        complex states are conjugated through the small operand, and real
        states meet the real and imaginary parts of complex vectors apart.
        """
        states = self.states if upto is None else self.states[:, :upto]
        if np.iscomplexobj(states):
            return (vecs.conj().T @ states).conj().T
        if np.iscomplexobj(vecs):
            return (states.T @ np.ascontiguousarray(vecs.real)
                    + 1j * (states.T @ np.ascontiguousarray(vecs.imag)))
        return states.T @ vecs

    def gap_scale(self) -> float:
        return float(np.abs(self.energies).max() or 1.0)

    def min_gap(self, k: int, upto: int | None = None) -> float:
        """Smallest |E_m - E_k| over m != k (restricted to the first `upto`)."""
        e = self.energies if upto is None else self.energies[:upto]
        gaps = np.abs(e - self.energies[k])
        gaps[k] = np.inf
        return float(gaps.min())

    def check_nondegenerate(self, k: int, upto: int | None = None,
                            rtol: float = DEGENERACY_RTOL) -> None:
        if self.min_gap(k, upto) < rtol * self.gap_scale():
            raise DegeneracyError(
                f"state {k} (E={self.energies[k]:.6g}) sits within "
                f"{rtol:.0e} * max|E| of another level"
            )


def _gauge_phases(states: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(states), axis=0)
    pivots = states[idx, np.arange(states.shape[1])]
    mags = np.abs(pivots)
    mags[mags == 0] = 1.0
    return np.conj(pivots) / mags


def gauge_fix(states: np.ndarray) -> np.ndarray:
    """Rotate each column's phase so its largest-|.| entry is real positive.

    Returns a new array. Ties in |.| resolve to the first index (argmax),
    keeping repeated runs bitwise identical.
    """
    return states * _gauge_phases(states)


def _hermitian_entries(op) -> tuple[Pattern, np.ndarray]:
    """Pattern and symmetrized entries of a Hermitian operator or matrix."""
    if isinstance(op, Operator):
        pattern, data = op.monomials.pattern, op.data()
    else:
        m = op.toarray() if hasattr(op, "toarray") else np.asarray(op)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("eigh needs a square matrix")
        pattern = Pattern.of(*np.nonzero(m), m.shape[0])
        data = m[pattern.rows, pattern.cols]
    if not np.isfinite(data).all():
        raise NumericalError(
            f"eigh needs finite matrix entries; found "
            f"{np.count_nonzero(~np.isfinite(data))} NaN or inf"
        )
    adjoint = np.conj(data[pattern.transpose])
    scale = np.abs(data).max() or 1.0
    defect = np.abs(data - adjoint).max()
    if defect > HERMITICITY_RTOL * scale:
        raise ValueError(
            f"eigh needs a Hermitian matrix, but max|A - A^dag| = {defect:.3e} "
            f"exceeds {HERMITICITY_RTOL:.0e} * max|A|"
        )
    data = 0.5 * (data + adjoint)
    if np.iscomplexobj(data) and np.abs(data.imag).max() <= HERMITICITY_RTOL * scale:
        data = data.real
    return pattern, data


def _lowest_levels(pattern: Pattern, data: np.ndarray, k: int):
    """The k lowest eigenpairs by shift-invert Lanczos below the spectrum.

    sigma sits SHIFT_MARGIN * (Gershgorin extent) below the Gershgorin lower
    bound, so H - sigma is positive definite and its banded Cholesky factor
    exists. ARPACK then finds the k largest 1/(E - sigma), each step one
    band solve.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    n = pattern.dim
    off = pattern.rows != pattern.cols
    radius = np.add.reduceat(np.where(off, np.abs(data), 0.0), pattern.indptr[:-1])
    diag = data[~off].real  # the pattern holds one diagonal entry per row
    extent = float((np.abs(diag) + radius).max()) or 1.0
    sigma = float((diag - radius).min()) - SHIFT_MARGIN * extent
    # LAPACK lower band storage: A[i, j] at band[i - j, j] for i >= j
    lower = pattern.rows >= pattern.cols
    rows, cols = pattern.rows[lower], pattern.cols[lower]
    band = np.zeros((int((rows - cols).max()) + 1, n), dtype=data.dtype, order="F")
    band[rows - cols, cols] = data[lower]
    band[0] -= sigma
    pbtrf, pbtrs = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"), (band,))
    band, info = pbtrf(band, lower=1, overwrite_ab=1)  # the factor replaces the band
    if info != 0:
        raise NumericalError(f"banded Cholesky of H - sigma failed (info {info})")
    inverse = LinearOperator((n, n), dtype=data.dtype,
                             matvec=lambda v: pbtrs(band, v, lower=1)[0])
    v0 = np.random.default_rng(START_VECTOR_SEED).standard_normal(n)
    try:
        theta, states = eigsh(inverse, k=k, which="LA",
                              v0=(v0 / np.linalg.norm(v0)).astype(data.dtype))
    except ArpackError as exc:  # no convergence included
        raise NumericalError(f"ARPACK failed on the {k} lowest levels: {exc}") from None
    energies = sigma + 1.0 / theta
    order = np.argsort(energies)
    return energies[order], states[:, order]


def eigh(op, lowest: int | None = None) -> Spectrum:
    """Gauge-fixed Hermitian eigendecomposition, ascending.

    op is an Operator or a square matrix (dense or scipy.sparse); either must
    be Hermitian to HERMITICITY_RTOL, and a NaN or inf entry raises
    NumericalError before any solve. By default every level comes from dense
    LAPACK (evd driver). lowest=k asks for the k lowest levels only, from
    shift-invert Lanczos (ARPACK, fixed start vector) on a banded Cholesky
    factor of H - sigma, sigma below the Gershgorin bound; the band takes
    (kd + 1) * dim entries for half-bandwidth kd. k >= dim - 1 takes the
    full solve.
    Real-symmetric input takes the real path, and eigenvectors stay real.
    """
    if lowest is not None and lowest < 1:
        raise ValueError("lowest must be a positive level count")
    pattern, data = _hermitian_entries(op)
    if lowest is not None and lowest < pattern.dim - 1:
        energies, states = _lowest_levels(pattern, data, lowest)
    else:
        # Fortran order lets LAPACK overwrite the matrix with the eigenvectors
        dense = np.zeros((pattern.dim, pattern.dim), dtype=data.dtype, order="F")
        dense[pattern.rows, pattern.cols] = data
        energies, states = scipy.linalg.eigh(dense, driver="evd", overwrite_a=True,
                                             check_finite=False)
    states *= _gauge_phases(states)  # the solver's own array: no copy
    return Spectrum(energies, states)


@dataclass(frozen=True)
class ConvergenceReport:
    value: object
    deviation: float
    tol: float
    cutoffs: tuple[int, int]

    @property
    def converged(self) -> bool:
        return self.deviation <= self.tol


def truncation_convergence(evaluate: Callable[[FockBasis], np.ndarray | float],
                           fb: FockBasis, tol: float = 1e-8,
                           raise_on_failure: bool = False) -> ConvergenceReport:
    """Check that doubling the cutoff moves the result by < tol (relative).

    `evaluate` maps a basis to a scalar or array; the deviation is the
    max-abs difference normalized by the doubled-cutoff result's scale.
    """
    v1 = np.asarray(evaluate(fb), dtype=complex)
    v2 = np.asarray(evaluate(fb.with_cutoff(2 * fb.cutoff)), dtype=complex)
    scale = max(float(np.abs(v2).max()), 1e-300)
    dev = float(np.abs(v1 - v2).max()) / scale
    report = ConvergenceReport(v2, dev, tol, (fb.cutoff, 2 * fb.cutoff))
    if raise_on_failure and not report.converged:
        raise ConvergenceError(
            f"result changed by {dev:.3e} (rel) when doubling cutoff "
            f"{fb.cutoff} -> {2 * fb.cutoff}; tol = {tol:.0e}"
        )
    return report
