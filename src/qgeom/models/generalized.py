"""Single-mode generalized oscillator, with and without a linear term.

H = (1/2)[Z p^2 + Y(pq + qp) + X q^2] (+ W q), normal frequency
w = sqrt(XZ - Y^2).  The transcribed closed forms are the parameter metric
and Berry curvature, the phase metric (blind to the linear term), restricted
submanifold metrics, their scalar curvatures, and (for the linear-term model)
the Christoffel/Ricci tables and the metric determinant on the Z = 1 slice;
`Model` derives the QGT blocks and the covariance from them.
"""

from __future__ import annotations

import math

import numpy as np

from ..fock import quadratics  # noqa: F401  (perfbench instruments it here)
from .base import (Model, NormalModeData, ParamPoint, aval, bval, check_domain,
                   full, ipow, lift, matrix, nonfinite)


def _xyz_derivatives() -> list:
    """d(M, b, k) of the oscillator's form along X, Y and Z, the same at
    every point."""
    return [(np.array(dM, dtype=float), np.zeros(2), 0.0)
            for dM in ([[1, 0], [0, 0]], [[0, 1], [1, 0]], [[0, 0], [0, 1]])]


def _oscillator_domain(X, Y, Z):
    disc = X * Z - Y * Y
    yield ((disc <= 0) | (Z <= 0),
           lambda: f"need Z > 0 and XZ - Y^2 > 0, got Z={Z}, XZ-Y^2={disc}")
    yield (nonfinite(disc),
           lambda: f"XZ - Y^2 is out of floating-point range at X={X}, Y={Y}, Z={Z}")


def _omega(X, Y, Z):
    return np.sqrt(X * Z - Y * Y)


def _phase_metric(X, Y, Z, n):
    """Re of the phase-space QGT block of level n, (a_n / w) [[X, Y], [Y, Z]]."""
    return lift(aval(n) / _omega(X, Y, Z)) * matrix(np.shape(X), [[X, Y], [Y, Z]])


# the index of a stack of 3x3 arrays' 2x2 blocks without row and column k
_SUB_BLOCKS = tuple((..., *np.ix_(keep, keep)) for keep in ([1, 2], [0, 2], [0, 1]))


class GeneralizedOscillator(Model):
    """Quadratic oscillator with parameters (X, Y, Z)."""

    name = "gho"
    dof = 1
    param_names = ("X", "Y", "Z")

    _closed = {
        "energy": "_cf_energy",
        "metric": "_cf_metric",
        "berry": "_cf_berry",
        "phase_metric": "_cf_phase_metric",
        "metric_sub:X": "_cf_sub_x",
        "metric_sub:Y": "_cf_sub_y",
        "metric_sub:Z": "_cf_sub_z",
        "scalar:param": "_cf_scalar_param",
        "scalar:phase:XY": "_cf_scalar_pq_xy",
        "scalar:phase:XZ": "_cf_scalar_pq_xz",
        "scalar:phase:YZ": "_cf_scalar_pq_yz",
    }

    def _domain(self, point):
        return _oscillator_domain(point["X"], point["Y"], point["Z"])

    def quadratic_form(self, point):
        X, Y, Z = point.values
        return np.array([[X, Y], [Y, Z]]), np.zeros(2), 0.0

    def form_derivatives(self, point):
        return _xyz_derivatives()

    def normal_modes(self, point):
        return NormalModeData((_omega(*point.values),))

    # -- closed forms --------------------------------------------------------

    def _cf_energy(self, point, qn):
        return _omega(*point.values) * aval(qn[0])

    def _cf_metric(self, point, qn):
        X, Y, Z = point.values
        w = _omega(X, Y, Z)
        return lift(bval(qn[0]) / (32 * ipow(w, 4))) * matrix(point.shape, [
            [Z * Z, -2 * Y * Z, -X * Z + 2 * Y * Y],
            [-2 * Y * Z, 4 * Z * X, -2 * Y * X],
            [-X * Z + 2 * Y * Y, -2 * Y * X, X * X],
        ])

    def _cf_berry(self, point, qn):
        X, Y, Z = point.values
        w = _omega(X, Y, Z)
        return lift(aval(qn[0]) / (-4 * ipow(w, 3))) * matrix(point.shape, [
            [0.0, Z, -Y],
            [-Z, 0.0, X],
            [Y, -X, 0.0],
        ])

    def _cf_phase_metric(self, point, qn):
        return _phase_metric(*point.values, qn[0])

    def _metric_sub(self, point, qn, k):
        return self._cf_metric(point, qn)[_SUB_BLOCKS[k]]

    def _cf_sub_x(self, point, qn):
        return self._metric_sub(point, qn, 0)

    def _cf_sub_y(self, point, qn):
        return self._metric_sub(point, qn, 1)

    def _cf_sub_z(self, point, qn):
        return self._metric_sub(point, qn, 2)

    def _cf_scalar_param(self, point, qn):
        # same constant for the X-, Y- or Z-fixed two-parameter submanifold
        return full(point, -16.0 / bval(qn[0]))

    def _cf_scalar_pq_xy(self, point, qn):
        X, Y, Z = point.values
        w = _omega(X, Y, Z)
        t = 2 * qn[0] + 1
        return -(4 * X * X * Z + 8 * X * Y * Y + 6 * X * Z * Z
                 + 6 * Y * Y * Z + 3 * ipow(Z, 3)) / (2 * t * ipow(w, 5))

    def _cf_scalar_pq_xz(self, point, qn):
        X, Y, Z = point.values
        w = _omega(X, Y, Z)
        t = 2 * qn[0] + 1
        return ((-3 * ipow(X, 3) + 4 * X * Y * Z + 2 * ipow(Y, 3) - 3 * ipow(Z, 3))
                / (2 * t * ipow(w, 5)))

    def _cf_scalar_pq_yz(self, point, qn):
        X, Y, Z = point.values
        w = _omega(X, Y, Z)
        t = 2 * qn[0] + 1
        return -(3 * ipow(X, 3) + 6 * X * X * Z + 6 * X * Y * Y
                 + 4 * X * Z * Z + 8 * Y * Y * Z) / (2 * t * ipow(w, 5))

    def palumbo_residual(self, point: ParamPoint) -> float:
        """Max relative residual of F_ij = -2 eps_ijk sqrt(det g[k]), ground state.

        The printed prefactor in the source relation is -1/2; the value
        consistent with the model's own closed forms is -2 (see ledger).
        Valid on the X, Y, Z > 0 branch.
        """
        g = self._cf_metric(point, (0,))
        F = self._cf_berry(point, (0,))
        worst = 0.0
        for k, (i, j) in enumerate([(1, 2), (0, 2), (0, 1)]):
            eps = -1.0 if k == 1 else 1.0  # eps_ijk for the (i, j) pair above
            sub = g[_SUB_BLOCKS[k]]
            rhs = -2.0 * eps * math.sqrt(max(np.linalg.det(sub), 0.0))
            scale = max(abs(F[i, j]), abs(rhs), 1e-300)
            worst = max(worst, abs(F[i, j] - rhs) / scale)
        return worst


class GeneralizedOscillatorLinear(Model):
    """Generalized oscillator plus a linear term W q; parameters (W, X, Y, Z)."""

    name = "gho-linear"
    dof = 1
    param_names = ("W", "X", "Y", "Z")

    _closed = {
        "energy": "_cf_energy",
        "metric": "_cf_metric",
        "berry": "_cf_berry",
        "phase_metric": "_cf_phase_metric",
        "metric_z1": "_cf_metric_z1",
        "berry_z1": "_cf_berry_z1",
        "metric_det": "_cf_det_z1",
        "christoffel": "_cf_christoffel_z1",
        "ricci": "_cf_ricci_z1",
        "scalar:param-z1": "_cf_scalar_z1",
    }

    def _domain(self, point):
        return _oscillator_domain(point["X"], point["Y"], point["Z"])

    def quadratic_form(self, point):
        W, X, Y, Z = point.values
        return np.array([[X, Y], [Y, Z]]), np.array([W, 0.0]), 0.0

    def form_derivatives(self, point):
        return [(np.zeros((2, 2)), np.array([1.0, 0.0]), 0.0)] + _xyz_derivatives()

    def normal_modes(self, point):
        W, X, Y, Z = point.values
        return NormalModeData((_omega(X, Y, Z),))

    def _cf_energy(self, point, qn):
        W, X, Y, Z = point.values
        w = _omega(X, Y, Z)
        return w * aval(qn[0]) - W * W * Z / (2 * w * w)

    def _cf_metric(self, point, qn):
        W, X, Y, Z = point.values
        w = _omega(X, Y, Z)
        a, b = aval(qn[0]), bval(qn[0])
        w2 = w * w
        m1 = matrix(point.shape, [
            [Z * (w2 * w2), -W * Z * Z * w2, 2 * W * Y * Z * w2, -W * Y * Y * w2],
            [-W * Z * Z * w2, W * W * ipow(Z, 3), -2 * W * W * Y * Z * Z, W * W * Y * Y * Z],
            [2 * W * Y * Z * w2, -2 * W * W * Y * Z * Z,
             W * W * Z * (3 * Y * Y + X * Z), -W * W * Y * (Y * Y + X * Z)],
            [-W * Y * Y * w2, W * W * Y * Y * Z,
             -W * W * Y * (Y * Y + X * Z), W * W * X * Y * Y],
        ])
        m2 = matrix(point.shape, [
            [0.0, 0, 0, 0],
            [0, Z * Z, -2 * Y * Z, 2 * Y * Y - X * Z],
            [0, -2 * Y * Z, 4 * X * Z, -2 * X * Y],
            [0, 2 * Y * Y - X * Z, -2 * X * Y, X * X],
        ])
        return lift(a / ipow(w, 7)) * m1 + lift(b / (32 * ipow(w, 4))) * m2

    def _cf_berry(self, point, qn):
        W, X, Y, Z = point.values
        w = _omega(X, Y, Z)
        a = aval(qn[0])
        w2 = w * w
        f1 = matrix(point.shape, [
            [0.0, 0, 0, 0],
            [0, 0, -Z, Y],
            [0, Z, 0, -X],
            [0, -Y, X, 0],
        ])
        f2 = matrix(point.shape, [
            [0.0, 0, W * Z * w2, -W * Y * w2],
            [0, 0, -W * W * Z * Z, W * W * Y * Z],
            [-W * Z * w2, W * W * Z * Z, 0, -W * W * Y * Y],
            [W * Y * w2, -W * W * Y * Z, W * W * Y * Y, 0],
        ])
        return lift(a / (4 * ipow(w, 3))) * f1 + f2 / lift(ipow(w, 6))

    def _cf_phase_metric(self, point, qn):
        # blind to the linear term: identical to the W = 0 oscillator block
        W, X, Y, Z = point.values
        return _phase_metric(X, Y, Z, qn[0])

    # -- Z = 1 slice over (W, X, Y) ------------------------------------------

    def _z1_coords(self, point):
        check_domain(point, _on_z1_slice)
        return point.values[:3]

    def _cf_metric_z1(self, point, qn):
        W, X, Y = self._z1_coords(point)
        w = np.sqrt(X - Y * Y)
        a, b = aval(qn[0]), bval(qn[0])
        w2 = w * w
        m1 = matrix(point.shape, [
            [w2 * w2, -W * w2, 2 * W * Y * w2],
            [-W * w2, W * W, -2 * W * W * Y],
            [2 * W * Y * w2, -2 * W * W * Y, W * W * (3 * Y * Y + X)],
        ])
        m2 = matrix(point.shape, [[0.0, 0, 0], [0, 1, -2 * Y], [0, -2 * Y, 4 * X]])
        return lift(a / ipow(w, 7)) * m1 + lift(b / (32 * ipow(w, 4))) * m2

    def _cf_berry_z1(self, point, qn):
        # the (W, X, Y) submatrix of the full Berry curvature at Z = 1; the
        # source's standalone display of this block carries a spurious 1/2
        # on the a_n term (its own full-matrix form is authoritative)
        return self._cf_berry(point, qn)[..., :3, :3]

    def _cf_det_z1(self, point, qn):
        W, X, Y = self._z1_coords(point)
        n = qn[0]
        w2 = X - Y * Y
        b = bval(n)
        return ((2 * n**3 + 3 * n * n + 3 * n + 1)
                * (b * (w2 * np.sqrt(w2)) + (8 * n + 4) * W * W)) / (512 * ipow(w2, 6))

    def _cf_scalar_z1(self, point, qn):
        W, X, Y = self._z1_coords(point)
        a, b = aval(qn[0]), bval(qn[0])
        w2 = X - Y * Y
        w3 = w2 * np.sqrt(w2)
        D = 8 * a * W * W + b * w3
        return (-4 * (64 * a * a * ipow(W, 4) + 40 * a * b * W * W * w3 + 7 * b * b * w3 * w3)
                / (b * (D * D)))

    def _cf_christoffel_z1(self, point, qn):
        """Gamma^i_jk on the Z = 1 slice, coordinates (W, X, Y); NaN where the
        source table leaves an entry untabulated (it vanishes at Y = 0)."""
        W, X, Y = self._z1_coords(point)
        a, b = aval(qn[0]), bval(qn[0])
        w = np.sqrt(X - Y * Y)
        w3, w4, w5, w7 = (ipow(w, k) for k in (3, 4, 5, 7))
        D = 8 * a * W * W + b * w3
        t = np.full(point.shape + (3, 3, 3), np.nan)

        def put(i, j, k, v):
            t[..., i, j, k] = v
            t[..., i, k, j] = v

        put(0, 0, 0, -8 * a * W / (b * w3))
        put(1, 1, 0, 8 * a * W / (b * w3))
        put(0, 1, 0, 8 * a * W * W / (b * w5) - 3 / (4 * w * w))
        put(0, 1, 1, W / (2 * w4) - 8 * a * ipow(W, 3) / (b * w7))
        put(0, 2, 0, 3 * Y / (2 * w * w) - 16 * a * W * W * Y / (b * w5))
        put(0, 2, 1, W * Y * (16 * a * W * W - b * w3) / (b * w7))
        put(1, 0, 0, -8 * a / (b * w))
        put(1, 1, 1, -1 / (w * w) - 8 * a * W * W / (b * w5))
        put(1, 2, 0, -128 * a * a * ipow(W, 3) * Y / (b * w * w * (8 * a * W * W * w + b * w4)))
        put(2, 2, 0, 8 * a * W / D)
        put(2, 2, 1, (-20 * a * W * W - b * w3) / (2 * w * w * D))
        put(2, 2, 2, 2 * Y * (20 * a * W * W + b * w3) / (w * w * D))
        put(1, 2, 1, Y * (128 * a * a * ipow(W, 4) * w + 12 * a * b * W * W * w4 + b * b * w7)
            / (b * w5 * (8 * a * W * W * w + b * w4)))
        put(1, 2, 2, 8 * a * W * W * (8 * a * W * W * (X - 5 * Y * Y) * w
                                      + b * w4 * (X + Y * Y))
            / (b * w5 * (8 * a * W * W * w + b * w4)))
        put(0, 2, 2, 8 * a * ipow(W, 3) * (X - 5 * Y * Y) / (b * w7)
            + W * (X + Y * Y) / w4)
        return t

    def _cf_ricci_z1(self, point, qn):
        W, X, Y = self._z1_coords(point)
        a, b = aval(qn[0]), bval(qn[0])
        w = np.sqrt(X - Y * Y)
        w3, w4, w5, w6, w7 = (ipow(w, k) for k in (3, 4, 5, 6, 7))
        W4 = ipow(W, 4)
        D = 8 * a * W * W + b * w3
        D2 = D * D
        R = np.empty(point.shape + (3, 3))
        R[..., 0, 0] = 2 * a * (8 * a * W * W - 3 * b * w3) / D2
        R[..., 1, 0] = R[..., 0, 1] = (8 * a * W * (2 * a * W * W + b * w3)
                                       / ((w * D) * (w * D)))
        R[..., 1, 1] = (-896 * a * a * W4 * w - 224 * a * b * W * W * w4
                        - 5 * b * b * w7) / (16 * w5 * D2)
        R[..., 2, 0] = R[..., 0, 2] = (-16 * a * W * Y * (2 * a * W * W + b * w3)
                                       / (w * w * D2))
        R[..., 2, 1] = R[..., 1, 2] = (-Y * (-896 * a * a * W4 - 224 * a * b * W * W * w3
                                             - 5 * b * b * w6) / (8 * w4 * D2))
        R[..., 2, 2] = (-64 * a * a * W4 * (3 * X + 11 * Y * Y)
                        - 8 * a * b * W * W * (9 * X + 19 * Y * Y) * w3
                        - b * b * (6 * X - Y * Y) * w6) / (4 * w4 * D2)
        return R


def _on_z1_slice(point):
    yield abs(point["Z"] - 1.0) > 1e-12, lambda: "the reduced closed forms fix Z = 1"
