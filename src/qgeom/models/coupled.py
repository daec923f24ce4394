"""Two coupled harmonic oscillators: symmetric and linear coupling.

Symmetric:  H = (1/2)[p1^2 + p2^2 + k0(q1^2 + q2^2) + k1(q1 - q2)^2],
            w1 = sqrt(k0), w2 = sqrt(k0 + 2 k1).
Linear:     H = (1/2)(p1^2 + p2^2 + A q1^2 + B q2^2 + C q1 q2),
            normal modes via the rotation angle zeta with
            tan(zeta) = sqrt(eps^2 + 1) - eps, eps = (B - A)/C  (eps > 0 branch).

Both transcribe the excited-state parameter metric, the 4x4 phase metric (the
real part of the phase-space QGT block, from which `Model` derives the block
and the covariance matrix), and ground-state entanglement closed forms. The
per-model weight c_m differs on purpose: 2m + 1 in the symmetric system,
m + 1/2 in the linear one (the source uses both).
"""

from __future__ import annotations

import numpy as np

from .. import gauss
from ..fock import quadratics  # noqa: F401  (perfbench instruments it here)
from .base import Model, NormalModeData, aval, bval, full, ipow, lift, matrix, nonfinite

_KINETIC = np.diag([0.0, 0.0, 1.0, 1.0])  # the form of p1^2 + p2^2


def _potential(K) -> np.ndarray:
    """The 4x4 form matrix of q^T K q, for a symmetric 2x2 K."""
    M = np.zeros((4, 4))
    M[:2, :2] = K
    return M


def _phase_metric(gq: np.ndarray, gp: np.ndarray) -> np.ndarray:
    """The 4x4 phase metrics from stacks of their qq and pp blocks (no q-p
    entries)."""
    z = np.zeros_like(gq)
    return np.block([[gq, z], [z, gp]])


_MODE_1 = (..., *np.ix_([0, 2], [0, 2]))  # (q1, p1) rows and columns


def _reduced_covariance(self, point, qn):
    """Covariance of mode 1 alone: the swap commutes with dropping mode 2."""
    return gauss.quadrature_swap(self._cf_phase_metric(point, qn)[_MODE_1])


class SymmetricCoupled(Model):
    """Symmetrically coupled pair, parameters (k0, k1)."""

    name = "sym-coupled"
    dof = 2
    param_names = ("k0", "k1")

    _closed = {
        "energy": "_cf_energy",
        "metric": "_cf_metric",
        "berry": "_cf_berry",
        "metric_det": "_cf_det",
        "phase_metric": "_cf_phase_metric",
        "phase_metric_reduced": "_cf_phase_reduced",
        "covariance_reduced": "_cf_covariance_reduced",
        "symplectic_nu": "_cf_nu",
        "purity": "_cf_purity",
        "entropy": "_cf_entropy",
        "christoffel": "_cf_christoffel",
        "beltrami": "_cf_beltrami",
        "scalar:param": "_cf_scalar_param",
        "scalar:phase-reduced": "_cf_scalar_phase_reduced",
    }

    def _domain(self, point):
        k0, k1 = point.values
        yield k0 <= 0, lambda: f"k0 must be positive, got {k0}"
        yield k0 + 2 * k1 <= 0, lambda: f"k0 + 2 k1 must be positive, got {k0 + 2 * k1}"
        yield (nonfinite(k0 + 2 * k1),
               lambda: f"k0 + 2 k1 is out of floating-point range at k0={k0}, k1={k1}")

    def _freqs(self, point):
        k0, k1 = point.values
        return np.sqrt(k0), np.sqrt(k0 + 2 * k1)

    def normal_modes(self, point):
        return NormalModeData(self._freqs(point))

    def quadratic_form(self, point):
        k0, k1 = point.values
        return _KINETIC + _potential([[k0 + k1, -k1], [-k1, k0 + k1]]), np.zeros(4), 0.0

    def form_derivatives(self, point):
        return [(_potential(K), np.zeros(4), 0.0)  # q1^2 + q2^2, (q1 - q2)^2
                for K in (np.eye(2), [[1, -1], [-1, 1]])]

    # -- closed forms ---------------------------------------------------------

    def _cf_energy(self, point, qn):
        w1, w2 = self._freqs(point)
        return w1 * aval(qn[0]) + w2 * aval(qn[1])

    def _cf_metric(self, point, qn):
        w1, w2 = self._freqs(point)
        bm, bn = bval(qn[0]), bval(qn[1])
        w14, w24 = ipow(w1, 4), ipow(w2, 4)
        return (1 / 32) * matrix(point.shape, [
            [bm / w14 + bn / w24, 2 * bn / w24],
            [2 * bn / w24, 4 * bn / w24],
        ])

    def _cf_berry(self, point, qn):
        return np.zeros(point.shape + (2, 2))

    def _cf_det(self, point, qn):
        w1, w2 = self._freqs(point)
        return bval(qn[0]) * bval(qn[1]) / (256 * ipow(w1, 4) * ipow(w2, 4))

    def _c(self, qn):
        return 2 * qn[0] + 1.0, 2 * qn[1] + 1.0

    def _cf_phase_metric(self, point, qn):
        w1, w2 = self._freqs(point)
        cm, cn = self._c(qn)
        gq = 0.25 * matrix(point.shape, [[cm * w1 + cn * w2, cm * w1 - cn * w2],
                                         [cm * w1 - cn * w2, cm * w1 + cn * w2]])
        gp = 0.25 * matrix(point.shape, [[cm / w1 + cn / w2, cm / w1 - cn / w2],
                                         [cm / w1 - cn / w2, cm / w1 + cn / w2]])
        return _phase_metric(gq, gp)

    def _cf_phase_reduced(self, point, qn):
        w1, w2 = self._freqs(point)
        cm, cn = self._c(qn)
        return 0.25 * matrix(point.shape, [[cm * w1 + cn * w2, 0.0],
                                           [0.0, cm / w1 + cn / w2]])

    _cf_covariance_reduced = _reduced_covariance

    def _require_ground(self, qn, what):
        if qn != (0, 0):
            raise ValueError(f"{what} closed form covers the ground state only")

    def _cf_nu(self, point, qn):
        self._require_ground(qn, "symplectic_nu")
        w1, w2 = self._freqs(point)
        return (w1 + w2) / (4 * np.sqrt(w1 * w2))

    def _cf_purity(self, point, qn):
        self._require_ground(qn, "purity")
        w1, w2 = self._freqs(point)
        return 2 * np.sqrt(w1 * w2) / (w1 + w2)

    def _cf_entropy(self, point, qn):
        return gauss._entropy_term(self._cf_nu(point, qn))

    def _cf_christoffel(self, point, qn):
        k0, k1 = point.values
        t = np.zeros(point.shape + (2, 2, 2))
        t[..., 0, 0, 0] = -1 / k0
        t[..., 1, 0, 0] = k1 / (k0 * (k0 + 2 * k1))
        t[..., 1, 0, 1] = t[..., 1, 1, 0] = -1 / (k0 + 2 * k1)
        t[..., 1, 1, 1] = -2 / (k0 + 2 * k1)
        return t

    def _cf_beltrami(self, point, qn):
        """Flat coordinates (u, v) with ds^2 = du^2 + dv^2 (pullback-exact)."""
        k0, k1 = point.values
        bm, bn = bval(qn[0]), bval(qn[1])
        det = self._cf_det(point, qn)
        u = np.sqrt(bm * bn / (128 * (bm + bn))) * np.log(det)
        v = (bm * np.log(k0) - bn * np.log(k0 + 2 * k1)) / np.sqrt(32 * (bm + bn))
        return np.stack([u, v], axis=-1)

    def _cf_scalar_param(self, point, qn):
        return full(point, 0.0)  # flat parameter manifold

    def _cf_scalar_phase_reduced(self, point, qn):
        self._require_ground(qn, "scalar:phase-reduced")
        w1, w2 = self._freqs(point)
        return (2 * w1 * (w1 + 3 * w2) / (w2 * w2 * ipow(w1 + w2, 3))
                - (w1 * w1 + w1 * w2 + w2 * w2) * (5 * w1 * w1 - 8 * w1 * w2 + 5 * w2 * w2)
                / (2 * ipow(w1, 4) * ipow(w2, 4) * (w1 + w2)))


class LinearCoupled(Model):
    """Linearly coupled pair, parameters (A, B, C); B > A >= 0, C >= 0 branch."""

    name = "lin-coupled"
    dof = 2
    param_names = ("A", "B", "C")

    _closed = {
        "energy": "_cf_energy",
        "metric": "_cf_metric",
        "berry": "_cf_berry",
        "metric_det": "_cf_det",
        "phase_metric": "_cf_phase_metric",
        "phase_metric_reduced": "_cf_phase_reduced",
        "covariance_reduced": "_cf_covariance_reduced",
        "purity": "_cf_purity",
        "entropy": "_cf_entropy",
        "christoffel": "_cf_christoffel",
        "scalar:param": "_cf_scalar_param",
    }

    def _domain(self, point):
        A, B, C = point.values
        yield A <= 0, lambda: f"A must be positive, got {A}"
        yield B <= A, lambda: f"need B > A (implemented branch), got A={A}, B={B}"
        yield C < 0, lambda: f"need C >= 0 (implemented branch), got C={C}"
        disc = 4 * A * B - C * C
        yield disc <= 0, lambda: f"need 4AB - C^2 > 0, got {disc}"
        yield (nonfinite(disc),
               lambda: f"4AB - C^2 is out of floating-point range at A={A}, B={B}, C={C}")
        eps = _eps(point)  # the mixing angle squares (B - A)/C
        yield (nonfinite(eps * eps), lambda: "((B - A)/C)^2 is out of floating-point "
               f"range at A={A}, B={B}, C={C}")

    def mixing(self, point):
        """(w1, w2, zeta); zeta = 0 at C = 0 by continuity."""
        A, B, C = point.values
        eps = _eps(point)  # >= 0 on the domain (B > A, C >= 0)
        tz = 1 / (np.sqrt(eps * eps + 1) + eps)  # = sqrt(eps^2 + 1) - eps, uncancelled
        w1 = np.sqrt(A - 0.5 * C * tz)  # C tz = 0 at C = 0
        w2 = np.sqrt(B + 0.5 * C * tz)
        return w1, w2, np.arctan(tz) * (C != 0)  # tz = 1 at C = 0

    def normal_modes(self, point):
        w1, w2, zeta = self.mixing(point)
        return NormalModeData((w1, w2), angle=zeta)

    def quadratic_form(self, point):
        A, B, C = point.values
        return _KINETIC + _potential([[A, 0.5 * C], [0.5 * C, B]]), np.zeros(4), 0.0

    def form_derivatives(self, point):
        return [(_potential(K), np.zeros(4), 0.0)
                for K in ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 0.5], [0.5, 0]])]

    # -- closed forms ---------------------------------------------------------

    def _cf_energy(self, point, qn):
        w1, w2, _ = self.mixing(point)
        return w1 * aval(qn[0]) + w2 * aval(qn[1])

    def _cf_metric(self, point, qn):
        C = point["C"]
        w1, w2, zeta = self.mixing(point)
        eps = _eps(point)
        r = np.sqrt(eps * eps + 1)
        # (eta, phi) = (eps, 1)/r, and (1, 0) at C = 0, where eps = 0 and r = 1
        eta = eps / r + (C == 0)
        phi = (1 / r) * (C != 0)
        bm, bn = bval(qn[0]), bval(qn[1])
        up, dn, phi2 = (1 + eta) * (1 + eta), (1 - eta) * (1 - eta), phi * phi
        M = 0.25 * matrix(point.shape, [
            [up, phi2, -(1 + eta) * phi],
            [phi2, dn, -(1 - eta) * phi],
            [-(1 + eta) * phi, -(1 - eta) * phi, phi2],
        ])
        N = 0.25 * matrix(point.shape, [
            [dn, phi2, (1 - eta) * phi],
            [phi2, up, (1 + eta) * phi],
            [(1 - eta) * phi, (1 + eta) * phi, phi2],
        ])
        L = matrix(point.shape, [
            [phi2, -phi2, eta * phi],
            [-phi2, phi2, -eta * phi],
            [eta * phi, -eta * phi, eta * eta],
        ])
        coupling = ((w1 / w2 + w2 / w1) * aval(qn[0]) * aval(qn[1]) - 0.5)
        split = w2 * w2 - w1 * w1
        return (lift(bm / (32 * ipow(w1, 4))) * M + lift(bn / (32 * ipow(w2, 4))) * N
                + lift(coupling / (4 * (split * split))) * L)

    def _cf_berry(self, point, qn):
        return np.zeros(point.shape + (3, 3))

    def _cf_det(self, point, qn):
        w1, w2, _ = self.mixing(point)
        m, n = qn
        split = w2 * w2 - w1 * w1
        return (bval(m) * bval(n)
                * (aval(m) * aval(n) * (w1 * w1 + w2 * w2) - w1 * w2 / 2)
                / (4096 * ipow(w1, 5) * ipow(w2, 5) * (split * split)))

    def _cf_phase_metric(self, point, qn):
        w1, w2, zeta = self.mixing(point)
        cm, cn = aval(qn[0]), aval(qn[1])
        c, s = np.cos(zeta), np.sin(zeta)
        gq = matrix(point.shape, [
            [cm * w1 * c * c + cn * w2 * s * s, (cn * w2 - cm * w1) * s * c],
            [(cn * w2 - cm * w1) * s * c, cm * w1 * s * s + cn * w2 * c * c],
        ])
        gp = matrix(point.shape, [
            [cm * c * c / w1 + cn * s * s / w2, (cn / w2 - cm / w1) * s * c],
            [(cn / w2 - cm / w1) * s * c, cm * s * s / w1 + cn * c * c / w2],
        ])
        return _phase_metric(gq, gp)

    def _cf_phase_reduced(self, point, qn):
        g = self._cf_phase_metric(point, qn)
        # (p1p1, q1q1) diagonal, matching the printed reduced metric ordering
        return matrix(point.shape, [[g[..., 2, 2], 0.0], [0.0, g[..., 0, 0]]])

    _cf_covariance_reduced = _reduced_covariance

    def _cf_purity(self, point, qn):
        """Ground-state purity mu = 1/(2 sqrt(det sigma_1)) of one oscillator.

        With K = [[A, C/2], [C/2, B]] the ground state has
        sigma_qq = K^{-1/2}/2 and sigma_pp = K^{1/2}/2, and for a 2x2 matrix
        K^{1/2} = (K + (E/2) I)/sqrt(F), E = sqrt(4AB - C^2), F = A + B + E.
        Hence det sigma_1 = (1 + C^2/(2EF))/4 and mu = sqrt(2EF/(2EF + C^2)).
        The printed expression is sqrt((4AB - C^2)/(4AB)); it has no A + B
        dependence at fixed 4AB - C^2, so it cannot be the purity of this
        family. The value used here is the one consistent with the model's
        own covariance closed forms.
        """
        if qn != (0, 0):
            raise ValueError("purity closed form covers the ground state only")
        A, B, C = point.values
        E = np.sqrt(4 * A * B - C * C)
        F = A + B + E
        return np.sqrt(2 * E * F / (2 * E * F + C * C))

    def _cf_entropy(self, point, qn):
        """Entropy of the reduced ground state, nu = 1/(2 mu)."""
        return gauss._entropy_term(0.5 / self._cf_purity(point, qn))

    def _cf_christoffel(self, point, qn):
        if tuple(qn) != (0, 0):
            raise ValueError("Christoffel table covers the ground state only")
        A, B, C = point.values
        E = np.sqrt(4 * A * B - C * C)
        F = A + B + E
        t = np.zeros(point.shape + (3, 3, 3))

        def put(i, j, k, v):
            t[..., i, j, k] = v
            t[..., i, k, j] = v

        put(0, 0, 0, -((2 * B + E) * (2 * B + E)) / (E * E * F))
        put(0, 1, 0, -C * C / (2 * E * E * F))
        put(1, 1, 0, -C * C / (2 * E * E * F))
        put(0, 2, 0, C * (3 * B + 2 * E) / (2 * E * E * F))
        put(0, 2, 1, A * C / (2 * E * E * F))
        put(0, 2, 2, -A * (2 * B + E) / (E * E * F))
        put(1, 1, 1, -((2 * A + E) * (2 * A + E)) / (E * E * F))
        put(1, 2, 0, B * C / (2 * E * E * F))
        put(1, 2, 1, C * (3 * A + 2 * E) / (2 * E * E * F))
        put(1, 2, 2, -B * (2 * A + E) / (E * E * F))
        put(2, 0, 0, 2 * B * C / (E * E * F))
        put(2, 1, 0, C * (A + B + 2 * E) / (E * E * F))
        put(2, 1, 1, 2 * A * C / (E * E * F))
        put(2, 2, 0, -B * (3 * A + B + 2 * E) / (E * E * F))
        put(2, 2, 1, -A * (A + 3 * B + 2 * E) / (E * E * F))
        put(2, 2, 2, C / (E * E))
        return t

    def _cf_scalar_param(self, point, qn):
        m, n = qn
        if m != 0 and n != 0:
            raise ValueError("parameter scalar curvature known for (0, n)/(m, 0) only")
        if n == 0:
            n = m  # the formula is symmetric under swapping the excited mode
        A, B, C = point.values
        E = np.sqrt(4 * A * B - C * C)
        if n == 0:
            return full(point, -8.0)
        pref = -1.0 / (bval(n) * ipow(2 * n * (A + B) + A + B - E, 3))
        inner = (ipow(A, 3) * (2 * n + 1) ** 2
                 + A * A * (B * (28 * n * (n + 1) + 15) - 3 * (2 * n + 1) * E)
                 - A * (10 * B * (2 * n + 1) * E - B * B * (28 * n * (n + 1) + 15)
                        + C * C * (4 * n * (n + 1) + 3))
                 - 3 * B * B * (2 * n + 1) * E + C * C * (2 * n + 1) * E
                 + ipow(B, 3) * (2 * n + 1) ** 2 - B * C * C * (4 * n * (n + 1) + 3))
        return pref * 4 * (2 * n + 1) * (n * n + n + 2) * inner


def _eps(point):
    """(B - A)/C, and 0 at C = 0, where the modes do not mix. The boolean
    masks keep C = 0 out of the division, for one point or a batch."""
    A, B, C = point.values
    return (B - A) * (C != 0) / (C + (C == 0))
