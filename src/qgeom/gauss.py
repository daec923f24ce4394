"""Covariance matrices, the phase-space QGT block, and Gaussian entanglement.

Conventions: hbar = 1, quadrature ordering r = (q_1..q_N, p_1..p_N), so the
symplectic form is Omega = [[0, I], [-I, 0]] and a pure vacuum mode has
nu = 1/2. In every state the phase-space QGT block is the covariance matrix
sigma: `add_half_omega(quadrature_swap(sigma))`. Purity and von Neumann
entropy follow the standard Gaussian-state formulas; they are
state-independent functions of the covariance, so they are physically
meaningful only when the underlying state is Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError

SYMMETRY_ATOL = 1e-12
UNCERTAINTY_ATOL = 1e-10
NU_CLAMP = 1e-10


def symplectic_form(modes: int) -> np.ndarray:
    """Omega with [q_a, p_b] = i delta_ab in (q.., p..) ordering."""
    eye = np.eye(modes)
    omega = np.zeros((2 * modes, 2 * modes))
    omega[:modes, modes:] = eye
    omega[modes:, :modes] = -eye
    return omega


def add_half_omega(matrix: np.ndarray) -> np.ndarray:
    """matrix + i Omega/2: the phase-space QGT block of a phase metric, and
    the Robertson-Schroedinger matrix of a covariance."""
    return matrix + 0.5j * symplectic_form(len(matrix) // 2)


def quadrature_swap(matrix: np.ndarray) -> np.ndarray:
    """[[qq, qp], [pq, pp]] -> [[pp, -qp], [-pq, qq]], its own inverse.

    It maps the covariance sigma onto the phase metric Re G (g_qq = sigma_pp,
    g_qp = -sigma_qp, g_pp = sigma_qq) and the phase metric back onto sigma.
    """
    n = len(matrix) // 2
    return np.block([[matrix[n:, n:], -matrix[:n, n:]],
                     [-matrix[n:, :n], matrix[:n, :n]]])


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetrized second moments sigma_ab = <{r_a, r_b}>/2 - <r_a><r_b>."""

    modes: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        n2 = 2 * self.modes
        if m.shape != (n2, n2):
            raise ValueError(f"expected a {n2}x{n2} matrix for {self.modes} modes")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m - m.T).max() > SYMMETRY_ATOL * scale:
            raise NumericalError("covariance matrix is not symmetric")
        object.__setattr__(self, "entries", m)
        # Robertson-Schroedinger bound: sigma + i Omega/2 >= 0
        lo = float(np.linalg.eigvalsh(add_half_omega(m)).min())
        if lo < -UNCERTAINTY_ATOL * scale:
            raise NumericalError(
                f"covariance violates the uncertainty bound (min eig {lo:.3e})"
            )


def reduce(cov: CovarianceMatrix, keep: Sequence[int]) -> CovarianceMatrix:
    """Reduced covariance of a mode subset; (q.., p..) ordering preserved."""
    keep = list(keep)
    if not keep:
        raise ValueError("mode subset must be nonempty")
    if any(not 0 <= k < cov.modes for k in keep):
        raise ValueError(f"mode subset {keep} out of range for {cov.modes} modes")
    if len(set(keep)) != len(keep):
        raise ValueError("mode subset contains duplicates")
    idx = keep + [cov.modes + k for k in keep]
    return CovarianceMatrix(len(keep), cov.entries[np.ix_(idx, idx)])


def symplectic_eigenvalues(cov: CovarianceMatrix) -> np.ndarray:
    """Positive spectrum of i Omega sigma, ascending; nu_k >= 1/2 for states."""
    ev = np.linalg.eigvals(1j * symplectic_form(cov.modes) @ cov.entries)
    mags = np.sort(np.abs(ev))
    # eigenvalues come in +/- pairs; average each pair into one nu
    nus = 0.5 * (mags[0::2] + mags[1::2])
    if nus.min() < 0.5 - 1e-8:
        raise NumericalError(
            f"symplectic eigenvalue {nus.min():.12f} < 1/2: invalid state upstream"
        )
    return nus


def purity(cov: CovarianceMatrix) -> float:
    """mu = (1/2)^n / sqrt(det sigma) for an n-mode Gaussian state."""
    det = float(np.linalg.det(cov.entries))
    if det <= 0:
        raise NumericalError(f"covariance determinant must be positive, got {det}")
    return 0.5 ** cov.modes / math.sqrt(det)


def _entropy_term(nu: float) -> float:
    if nu <= 0.5 + NU_CLAMP:
        return 0.0  # (nu - 1/2) ln(nu - 1/2) -> 0 at the pure-state edge
    return (nu + 0.5) * math.log(nu + 0.5) - (nu - 0.5) * math.log(nu - 0.5)


def von_neumann_entropy(cov: CovarianceMatrix) -> float:
    """S = sum_k [(nu_k + 1/2) ln(nu_k + 1/2) - (nu_k - 1/2) ln(nu_k - 1/2)]."""
    return float(sum(_entropy_term(nu) for nu in symplectic_eigenvalues(cov)))
