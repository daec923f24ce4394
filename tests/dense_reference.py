"""Dense reference operators: test oracles for the sparse Fock engine.

The ladders here are built from np.diag and np.kron, independently of
qgeom.fock's monomial cache, and products are plain matrix products, so
sparse operators can be checked entry by entry against them.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from qgeom.fock import DEGENERACY_RTOL


def dense(op) -> np.ndarray:
    """The matrix of a qgeom.fock.Operator as a dense array."""
    pattern = op.monomials.pattern
    data = op.data()
    out = np.zeros((pattern.dim, pattern.dim), dtype=data.dtype)
    out[pattern.rows, pattern.cols] = data
    return out


def lowering(modes: int, cutoff: int, mode: int) -> np.ndarray:
    """a on one mode, identity on the others; mode 0 is the slowest index."""
    out = np.ones((1, 1))
    for m in range(modes):
        factor = np.diag(np.sqrt(np.arange(1, cutoff)), 1) if m == mode else np.eye(cutoff)
        out = np.kron(out, factor)
    return out


def position_momentum(modes: int, cutoff: int, frequency: float, mode: int):
    """q = (a + a^dag)/sqrt(2 w_b) and p = i sqrt(w_b/2)(a^dag - a)."""
    a = lowering(modes, cutoff, mode)
    return (a + a.T) / np.sqrt(2 * frequency), 1j * np.sqrt(frequency / 2) * (a.T - a)


def weyl_product(*mats: np.ndarray) -> np.ndarray:
    """Fully symmetrized (Weyl-ordered) product: average over all orderings."""
    if not mats:
        raise ValueError("weyl_product needs at least one operand")
    if any(m.shape != mats[0].shape for m in mats):
        raise ValueError("operand dimensions differ")
    if len(mats) == 1:
        return mats[0]
    acc = sum(functools.reduce(np.matmul, perm) for perm in itertools.permutations(mats))
    return acc / math.factorial(len(mats))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def assert_hermitian(m: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    scale = np.abs(m).max() or 1.0
    assert np.abs(m - dagger(m)).max() <= rtol * scale
    return m


def expectation(m: np.ndarray, state: np.ndarray) -> complex:
    """<state|m|state> for a unit-norm vector."""
    return complex(np.vdot(state, m @ state))


def flagged_gaps(spec, rtol: float = DEGENERACY_RTOL) -> np.ndarray:
    """Boolean mask over adjacent gaps |E_{k+1} - E_k| < rtol * max|E|."""
    return np.diff(spec.energies) < rtol * spec.gap_scale()


def spectral_sum(spec, n: int, images: dict, keep: int) -> np.ndarray:
    """The perturbative QGT as an explicit per-label sum over levels m < keep:
    G_AB = sum_{m != n} <n|O_A|m><m|O_B|n> / (E_m - E_n)^2, where
    images[A] = O_A|n> and each amplitude <m|O_A|n> is its own vdot."""
    amps = [np.array([np.vdot(spec.states[:, m], image) for m in range(keep)])
            for image in images.values()]
    g = np.zeros((len(amps), len(amps)), dtype=complex)
    for i, ti in enumerate(amps):
        for j, tj in enumerate(amps):
            for m in range(keep):
                if m != n:
                    g[i, j] += (np.conj(ti[m]) * tj[m]
                                / (spec.energies[m] - spec.energies[n]) ** 2)
    return g
