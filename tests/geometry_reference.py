"""Per-point FD recursion for curvature: the reference for `qgeom.geometry`.

Each function here mirrors the public one of the same name by walking the
stencil center by center: a Christoffel evaluation looks up its own metric
values and inverse in a table keyed by point bytes, and Riemann nests
Christoffel evaluations at x +- h_k e_k. The batched engine must return the
same bits and evaluate the same points.
"""

from __future__ import annotations

import math

import numpy as np

from qgeom.errors import NumericalError
from qgeom.geometry import COND_LIMIT, MetricField, default_steps, flatness_threshold


class _Table:
    """One curvature call's metric values and inverses, keyed by point bytes.

    Exact bytes, not closeness: x + h - h that does not round back to x is
    its own point, so every value is the one the bare field returns there.
    """

    def __init__(self, field: MetricField):
        self.field = field
        self.dim = field.dim
        self.values: dict[bytes, np.ndarray] = {}
        self.inverses: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def __call__(self, x: np.ndarray) -> np.ndarray:
        key = x.tobytes()
        g = self.values.get(key)
        if g is None:
            g = self.values[key] = self.field(x)
        return g

    def metric_and_inverse(self, x: np.ndarray):
        """g and its inverse, via diagonal equilibration."""
        key = x.tobytes()
        if key not in self.inverses:
            g = self(x)
            d = np.sqrt(np.abs(np.diag(g)))
            if np.any(d == 0):
                raise NumericalError(f"metric has a vanishing diagonal entry at {x.tolist()}")
            scaled = g / np.outer(d, d)
            if np.linalg.cond(scaled) > COND_LIMIT:
                raise NumericalError(f"metric is numerically singular at {x.tolist()}")
            self.inverses[key] = g, np.linalg.inv(scaled) / np.outer(d, d)
        return self.inverses[key]


def _resolved(field: MetricField, x: np.ndarray, step):
    x = np.asarray(x, dtype=float)
    return _Table(field), x, default_steps(x, step if step is not None else field.step)


def _metric_derivatives(table: _Table, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    dg = np.empty((table.dim, table.dim, table.dim))
    for k in range(table.dim):
        xp = x.copy(); xp[k] += h[k]
        xm = x.copy(); xm[k] -= h[k]
        dg[k] = (table(xp) - table(xm)) / (2 * h[k])
    return dg


def _christoffel(table: _Table, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    _, ginv = table.metric_and_inverse(x)
    dg = _metric_derivatives(table, x, h)
    braces = np.einsum('klj->ljk', dg) + np.einsum('jlk->ljk', dg) - dg
    return 0.5 * np.einsum('il,ljk->ijk', ginv, braces)


def _riemann(table: _Table, x: np.ndarray,
             h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = table.dim
    dgam = np.empty((d, d, d, d))
    for k in range(d):
        xp = x.copy(); xp[k] += h[k]
        xm = x.copy(); xm[k] -= h[k]
        dgam[k] = (_christoffel(table, xp, h) - _christoffel(table, xm, h)) / (2 * h[k])
    gam = _christoffel(table, x, h)
    term1 = np.einsum('kilj->ijkl', dgam)
    term2 = np.einsum('likj->ijkl', dgam)
    term3 = np.einsum('slj,iks->ijkl', gam, gam)
    term4 = np.einsum('skj,ils->ijkl', gam, gam)
    return term1 - term2 + term3 - term4, gam


def metric_derivatives(field, x, step=None):
    return _metric_derivatives(*_resolved(field, x, step))


def christoffel(field, x, step=None):
    return _christoffel(*_resolved(field, x, step))


def riemann(field, x, step=None):
    return _riemann(*_resolved(field, x, step))[0]


def ricci_scalar(field, x, step=None):
    table, x, h = _resolved(field, x, step)

    def once(hh):
        r4, _ = _riemann(table, x, hh)
        ric = np.einsum('kjkl->jl', r4)
        _, ginv = table.metric_and_inverse(x)
        return ric, float(np.einsum('jl,jl->', ginv, ric))

    ric, scalar = once(h)
    ric2, scalar2 = once(h / 2)
    return (4 * ric2 - ric) / 3, (4 * scalar2 - scalar) / 3


def curvature_report(field, x, step=None):
    """(christoffel, riemann, ricci, scalar, flat, flat_threshold)."""
    table, x, h = _resolved(field, x, step)
    r4_half, gam_half = _riemann(table, x, h / 2)
    r4_full, gam_full = _riemann(table, x, h)
    gam = (4 * gam_half - gam_full) / 3
    r4 = (4 * r4_half - r4_full) / 3
    ric = np.einsum('kjkl->jl', r4)
    g, ginv = table.metric_and_inverse(x)
    scalar = float(np.einsum('jl,jl->', ginv, ric))
    thresh = flatness_threshold(g, x)
    return gam, r4, ric, scalar, bool(np.abs(r4).max() <= thresh), thresh


def scalar_2d_direct(field, x, step=None):
    if field.dim != 2:
        raise ValueError("the direct expression is for 2D metrics only")
    table, x, h = _resolved(field, x, step)

    def brackets(y: np.ndarray, hh: np.ndarray) -> np.ndarray:
        g = table(y)
        if abs(g[0, 0]) < 1e-14 * max(np.abs(g).max(), 1.0):
            raise NumericalError("g11 vanishes; direct 2D expression inapplicable")
        det = g[0, 0] * g[1, 1] - g[0, 1] ** 2
        if det <= 0:
            raise NumericalError("metric determinant must be positive")
        dg = _metric_derivatives(table, y, hh)
        root = math.sqrt(det)
        b1 = (g[0, 1] / g[0, 0] * dg[1, 0, 0] - dg[0, 1, 1]) / root
        b2 = (2 * dg[0, 0, 1] - dg[1, 0, 0] - g[0, 1] / g[0, 0] * dg[0, 0, 0]) / root
        return np.array([b1, b2])

    def once(hh: np.ndarray) -> float:
        g = table(x)
        det = g[0, 0] * g[1, 1] - g[0, 1] ** 2
        total = 0.0
        for k in range(2):
            xp = x.copy(); xp[k] += hh[k]
            xm = x.copy(); xm[k] -= hh[k]
            total += (brackets(xp, hh)[k] - brackets(xm, hh)[k]) / (2 * hh[k])
        return total / math.sqrt(det)

    r = once(h)
    return (4 * once(h / 2) - r) / 3
