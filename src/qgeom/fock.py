"""Truncated bosonic Fock-space engine.

Operators are sparse. Each (modes, cutoff) caches its quadratic monomials
at unit basis frequency once, on one shared CSR sparsity pattern: the
identity, q_a, p_a and the symmetrized q_a q_b, p_a p_b and
(q_a p_a + p_a q_a)/2. An `Operator` is a coefficient vector over them, and
the basis frequency enters only the coefficients. `form_operators` is the
one writer of operators: it takes quadratic forms r^T M r/2 + b^T r + k
straight into such vectors. Operators have no arithmetic, and `eigh` takes
an `Operator`, not a matrix. Eigensolves are gauge-fixed: every level by
dense LAPACK, or the lowest few by shift-invert Lanczos (ARPACK) on a
banded Cholesky factor of H - sigma, with sigma below the Gershgorin bound.
The band costs (kd + 1) * dim entries, kd = 2 for one mode and 2 * cutoff
for two: 128 MB for a real two-mode basis at cutoff 200. An operator
without q_a or p_a terms commutes with the parity (-1)^(n_1 + ... + n_N),
and a window may solve one parity sector alone: half the rows and about
half the bandwidth, so a quarter of the band (32 MB at cutoff 200).
scipy is imported by the first eigensolve, not with this module, so the
closed-form and geometry layers run without loading it.
Units: hbar = 1; a mode with basis frequency w_b has q = (a + a^dag)/sqrt(2 w_b)
and p = i sqrt(w_b/2) (a^dag - a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DegeneracyError, NumericalError

# How far an operator handed to `eigh` may be from Hermitian, relative to its
# largest entry.
OPERATOR_HERMITICITY_RTOL = 1e-12
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

    @cached_property
    def monomial_scales(self) -> np.ndarray:
        """The factor each unit-frequency monomial takes at this basis's
        frequencies, in `Monomials.index` order: w_b^(-1/2) per q_a and
        w_b^(1/2) per p_a, so (q_a p_a + p_a q_a)/2 keeps 1."""
        root = [math.sqrt(w) for w in self.frequencies]
        scales = []
        for kind, *modes in monomials(self.modes, self.cutoff).index:
            product = 1.0 if kind == "qp" else math.prod(root[a] for a in modes)
            scales.append(1.0 / product if kind in ("q", "qq") else product)
        return np.array(scales, dtype=float)


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
class Sector:
    """The basis states of one parity and the pattern entries joining two of
    them. pattern is the sector's own, with its entries in the order of
    `entries`, and sector state i is basis state states[i]."""

    states: np.ndarray
    entries: np.ndarray
    pattern: Pattern


@dataclass(frozen=True, eq=False)
class Monomials:
    """Quadratic monomials of a (modes, cutoff) basis at unit frequency.

    Monomial k is phases[k] * data[k] on the shared pattern. data is real;
    the phase is 1j for p_a and (q_a p_a + p_a q_a)/2 and 1 otherwise, so
    every monomial is Hermitian. index maps the keys ("1",), ("q", a),
    ("p", a), ("qq", a, b), ("pp", a, b) (a <= b) and ("qp", a) to k.
    parity holds (n_1 + ... + n_N) mod 2 for each basis state. form_map
    takes the flattened form F = [[M, b], [b^T, 2k]] over (r, 1),
    r = (q_1..q_N, p_1..p_N), whose (r, 1)^T F (r, 1)/2 is
    r^T M r/2 + b^T r + k, to the unit-frequency coefficients: monomial k
    takes F_ij/2 of its entry (i, j) if i = j, and F_ij if i < j, where F_ij
    stands for itself and F_ji.
    """

    pattern: Pattern
    index: dict
    data: np.ndarray
    phases: np.ndarray
    parity: np.ndarray
    form_map: np.ndarray

    @cached_property
    def crossing(self) -> np.ndarray:
        """Pattern entries that join states of opposite parity."""
        return np.flatnonzero(self.parity[self.pattern.rows]
                              != self.parity[self.pattern.cols])

    @cached_property
    def sectors(self) -> tuple[Sector, Sector]:
        """The even and the odd sector, built on first use."""
        rows, cols = self.pattern.rows, self.pattern.cols
        out = []
        for bit in (0, 1):
            inside = self.parity == bit
            entries = np.flatnonzero(inside[rows] & inside[cols])
            position = np.cumsum(inside) - 1  # basis state -> sector state
            # the map is increasing, so the sector pattern keeps the CSR order
            pattern = Pattern.of(position[rows[entries]], position[cols[entries]],
                                 int(inside.sum()))
            out.append(Sector(np.flatnonzero(inside), entries, pattern))
        return tuple(out)


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

    # each term: factors, phase and the entry of the form F that it carries
    one = 2 * modes  # the position of 1 in (r, 1)
    terms = {("1",): (placed({}), 1, (one, one))}
    for m in range(modes):
        terms[("q", m)] = (placed({m: q}), 1, (m, one))
        terms[("p", m)] = (placed({m: p}), 1j, (modes + m, one))
    for m in range(modes):
        terms[("qq", m, m)] = (placed({m: 0.5 * (qq + qq.T)}), 1, (m, m))
        terms[("pp", m, m)] = (placed({m: 0.5 * (pp + pp.T)}), 1, (modes + m, modes + m))
        for n in range(m + 1, modes):  # distinct modes commute
            terms[("qq", m, n)] = (placed({m: q, n: q}), 1, (m, n))
            # (1j p)(1j p)
            terms[("pp", m, n)] = (placed({m: -p, n: p}), 1, (modes + m, modes + n))
    for m in range(modes):
        terms[("qp", m)] = (placed({m: 0.5 * (qp - qp.T)}), 1j, (m, modes + m))

    dim = cutoff ** modes
    nonzeros = [_kron_entries(factors) for factors, *_ in terms.values()]
    pattern = Pattern.of(np.concatenate([e[0] for e in nonzeros]),
                         np.concatenate([e[1] for e in nonzeros]), dim)
    keys = pattern.rows * dim + pattern.cols
    data = np.zeros((len(terms), len(keys)))
    for k, (rows, cols, values) in enumerate(nonzeros):
        data[k, np.searchsorted(keys, rows * dim + cols)] = values
    phases = np.array([phase for _, phase, _ in terms.values()], dtype=complex)
    parity = np.indices((cutoff,) * modes).sum(axis=0).ravel() % 2
    form_map = np.zeros((len(terms), one + 1, one + 1))
    for k, (*_, (i, j)) in enumerate(terms.values()):
        form_map[k, i, j] = 0.5 if i == j else 1.0
    return Monomials(pattern, {key: k for k, key in enumerate(terms)}, data, phases,
                     parity, form_map.reshape(len(terms), -1))


class Operator:
    """A linear combination of a basis's quadratic monomials, written by
    `form_operators`.

    Its matrix entries are formed on demand, by `data`, as one combination
    of the monomial data arrays.
    """

    __slots__ = ("monomials", "coeffs")

    def __init__(self, monomials: Monomials, coeffs: np.ndarray):
        self.monomials = monomials
        self.coeffs = coeffs

    @property
    def dim(self) -> int:
        return self.monomials.pattern.dim

    @property
    def keeps_parity(self) -> bool:
        """No q_a or p_a term, so the operator commutes with the parity
        (-1)^(n_1 + ... + n_N) and each sector can be solved alone."""
        linear = [k for key, k in self.monomials.index.items() if key[0] in ("q", "p")]
        return not self.coeffs[linear].any()

    def adjoint(self) -> "Operator":
        return Operator(self.monomials, np.conj(self.coeffs))

    def data(self) -> np.ndarray:
        """Matrix entries on the shared pattern, real when they can be.

        Complex weights take one pass over the monomial data, as the float
        view of their interleaved real and imaginary parts (see
        `Spectrum.overlaps`).
        """
        weights = self.coeffs * self.monomials.phases
        if not weights.imag.any():
            return weights.real @ self.monomials.data
        pairs = np.ascontiguousarray(weights).view(float).reshape(-1, 2)
        return (self.monomials.data.T @ pairs).view(complex).ravel()

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """The dense vector op |vec>."""
        return self.monomials.pattern.matvec(self.data(), vec)


def form_operators(fb: FockBasis, forms) -> list[Operator]:
    """The Weyl-ordered r^T M r/2 + b^T r + k of each form (M, b, k),
    r = (q_1..q_N, p_1..p_N).

    M is a symmetric 2N x 2N array, or None for a linear form; M, b and k
    may be complex. The coefficient vectors are written directly, all forms
    in one product with `Monomials.form_map`, each monomial taking its
    `FockBasis.monomial_scales` factor. A non-symmetric M raises ValueError,
    and so does an entry no monomial carries: q_a p_b of two different modes.
    """
    n, modes = 2 * fb.modes, fb.modes
    M = np.array([np.zeros((n, n)) if form[0] is None else form[0] for form in forms])
    b = np.array([form[1] for form in forms])
    k = np.array([form[2] for form in forms])
    if M.shape[1:] != (n, n) or b.shape[1:] != (n,):
        raise ValueError(f"a form over {n} quadratures needs M of shape {(n, n)} "
                         f"and b of shape {(n,)}")
    if np.count_nonzero(M != M.transpose(0, 2, 1)):
        raise ValueError("the form's M must be symmetric")
    if np.count_nonzero(M[:, :modes, modes:][:, ~np.eye(modes, dtype=bool)]):
        raise ValueError("a q_a p_b term of two different modes has no monomial")
    form = np.zeros((len(forms), n + 1, n + 1), dtype=np.result_type(M, b, k))
    form[:, :n, :n], form[:, :n, n], form[:, n, n] = M, b, 2 * k
    mono = monomials(fb.modes, fb.cutoff)
    coeffs = (form.reshape(len(forms), -1) @ mono.form_map.T) * fb.monomial_scales
    return [Operator(mono, c) for c in coeffs]


def quadratics(fb: FockBasis) -> list[Operator]:
    """q_1..q_N, p_1..p_N of a basis: each one monomial, so its coefficient
    vector is one-hot, times that monomial's `FockBasis.monomial_scales`."""
    mono = monomials(fb.modes, fb.cutoff)
    rows = [mono.index[kind, a] for kind in ("q", "p") for a in range(fb.modes)]
    coeffs = np.eye(len(mono.index))[rows] * fb.monomial_scales
    return [Operator(mono, c) for c in coeffs]


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition with a deterministic phase convention.

    energies are ascending (all levels, or the lowest few of a windowed
    solve); states holds unit-norm column eigenvectors whose
    largest-magnitude component is real and positive.
    """

    energies: np.ndarray
    states: np.ndarray

    @property
    def dim(self) -> int:
        """Number of levels held."""
        return len(self.energies)

    def vector(self, k: int) -> np.ndarray:
        return self.states[:, k]

    def overlaps(self, vecs: np.ndarray, upto: int | None = None) -> np.ndarray:
        """<k|v> for the first `upto` levels k (all by default), for a vector v
        or for each column v of a matrix.

        One matrix product, so one BLAS pass over `states`, which is neither
        copied nor recast. Complex states are conjugated through the small
        operand. Real states meet complex vectors as real numbers: the float
        view of a complex (dim, m) array is its (dim, 2m) array of interleaved
        Re and Im columns, and the float view of the (levels, 2m) product is
        again complex.
        """
        states = self.states if upto is None else self.states[:, :upto]
        if np.iscomplexobj(states):
            return (vecs.conj().T @ states).conj().T
        if np.iscomplexobj(vecs):
            pairs = np.ascontiguousarray(vecs, dtype=complex).reshape(len(vecs), -1)
            out = (states.T @ pairs.view(float)).view(complex)
            return out if vecs.ndim == 2 else out[:, 0]
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
                            rtol: float = DEGENERACY_RTOL,
                            label: str | None = None) -> None:
        """Raise DegeneracyError if level k has a neighbour within rtol *
        max|E|; label names the level in the message (default "state k")."""
        if self.min_gap(k, upto) < rtol * self.gap_scale():
            raise DegeneracyError(
                f"{label or f'state {k}'} (E={self.energies[k]:.6g}) sits within "
                f"{rtol:.0e} * max|E| of another level"
            )


def _gauge_phases(states: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(states), axis=0)
    pivots = states[idx, np.arange(states.shape[1])]
    mags = np.abs(pivots)
    mags[mags == 0] = 1.0
    return np.conj(pivots) / mags


def _hermitian_entries(op: Operator) -> tuple[Pattern, np.ndarray]:
    """Pattern and symmetrized entries of a Hermitian operator."""
    pattern, data = op.monomials.pattern, op.data()
    if not np.isfinite(data).all():
        raise NumericalError(
            f"eigh needs finite matrix entries; found "
            f"{np.count_nonzero(~np.isfinite(data))} NaN or inf"
        )
    adjoint = np.conj(data[pattern.transpose])
    scale = np.abs(data).max() or 1.0
    defect = np.abs(data - adjoint).max()
    if defect > OPERATOR_HERMITICITY_RTOL * scale:
        raise ValueError(
            f"eigh needs a Hermitian matrix, but max|A - A^dag| = {defect:.3e} "
            f"exceeds {OPERATOR_HERMITICITY_RTOL:.0e} * max|A|"
        )
    data = 0.5 * (data + adjoint)
    if (np.iscomplexobj(data)
            and np.abs(data.imag).max() <= OPERATOR_HERMITICITY_RTOL * scale):
        data = data.real
    return pattern, data


def _lowest_levels(pattern: Pattern, data: np.ndarray, k: int):
    """The k lowest eigenpairs by shift-invert Lanczos below the spectrum.

    sigma sits SHIFT_MARGIN * (Gershgorin extent) below the Gershgorin lower
    bound, so H - sigma is positive definite and its banded Cholesky factor
    exists. ARPACK then finds the k largest 1/(E - sigma), each step one
    band solve.
    """
    import scipy.linalg
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


def eigh(op: Operator, lowest: int | None = None,
         parity: int | None = None) -> Spectrum:
    """Gauge-fixed Hermitian eigendecomposition, ascending.

    op is an Operator from `form_operators`, whose matrix must be Hermitian
    to OPERATOR_HERMITICITY_RTOL (else ValueError); a NaN or inf entry
    raises NumericalError before any solve. By default every level comes
    from dense LAPACK (evd driver). lowest=k asks for the k lowest levels
    only, from shift-invert Lanczos (ARPACK, fixed start vector) on a banded
    Cholesky factor of H - sigma, sigma below the Gershgorin bound; the band
    takes (kd + 1) * dim entries for half-bandwidth kd. k >= dim - 1 takes
    the full solve.
    parity=p (0 even, 1 odd) solves only the levels of parity
    (-1)^(n_1 + ... + n_N) = (-1)^p, on the sector's entries: half the rows
    and about half the bandwidth, and dim above is the sector's. The states
    are returned in the full basis, zero outside the sector. op must have no
    entry joining the two sectors (see `Operator.keeps_parity`); otherwise
    ValueError.
    Real-symmetric input takes the real path, and eigenvectors stay real.
    """
    if lowest is not None and lowest < 1:
        raise ValueError("lowest must be a positive level count")
    if parity not in (None, 0, 1):
        raise ValueError("parity must be 0 (even) or 1 (odd)")
    pattern, data = _hermitian_entries(op)
    if parity is not None:
        if data[op.monomials.crossing].any():
            raise ValueError("the operator joins the two parity sectors")
        sector = op.monomials.sectors[parity]
        pattern, data = sector.pattern, data[sector.entries]
    if lowest is not None and lowest < pattern.dim - 1:
        energies, states = _lowest_levels(pattern, data, lowest)
    else:
        import scipy.linalg

        # Fortran order lets LAPACK overwrite the matrix with the eigenvectors
        dense = np.zeros((pattern.dim, pattern.dim), dtype=data.dtype, order="F")
        dense[pattern.rows, pattern.cols] = data
        energies, states = scipy.linalg.eigh(dense, driver="evd", overwrite_a=True,
                                             check_finite=False)
    states *= _gauge_phases(states)  # the solver's own array: no copy
    if parity is not None:
        full = np.zeros((op.dim, states.shape[1]), dtype=states.dtype)
        full[sector.states] = states
        states = full
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
                           fb: FockBasis, tol: float = 1e-8) -> ConvergenceReport:
    """Check that doubling the cutoff moves the result by < tol (relative).

    `evaluate` maps a basis to a scalar or array; the deviation is the
    max-abs difference normalized by the doubled-cutoff result's scale.
    """
    v1 = np.asarray(evaluate(fb), dtype=complex)
    v2 = np.asarray(evaluate(fb.with_cutoff(2 * fb.cutoff)), dtype=complex)
    scale = max(float(np.abs(v2).max()), 1e-300)
    dev = float(np.abs(v1 - v2).max()) / scale
    return ConvergenceReport(v2, dev, tol, (fb.cutoff, 2 * fb.cutoff))
