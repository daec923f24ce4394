"""Numerical Riemannian geometry of low-dimensional metric fields.

Everything is finite differences over a callable metric field g(x):
Christoffel symbols Gamma^i_jk = (1/2) g^il (d_k g_lj + d_j g_lk - d_l g_jk),
Riemann R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj + Gamma^s_lj Gamma^i_ks
- Gamma^s_kj Gamma^i_ls, Ricci R_jl = R^k_jkl, scalar R = g^jl R_jl, plus the
direct 2D scalar-curvature expression and the flat-coordinate pullback check
for the symmetric-coupled system. Sign conventions: negative R = hyperbolic.

Scalar outputs use Richardson (h, h/2) extrapolation; curvature stacks two
FD derivatives, so the cancellation matters.

Each curvature call (`ricci_scalar`, `curvature_report`, `scalar_2d_direct`,
`riemann`, `christoffel`, `metric_derivatives`) resolves its FD steps once
and keeps one table of metric values, keyed by the exact bytes of the point,
with each center's inverse metric. It hands both to the private `_riemann`,
`_christoffel` and `_metric_derivatives` it nests, so each distinct stencil
point is evaluated once. The table is dropped when the call returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericalError
from .gauss import SYMMETRY_ATOL
from .models.base import Model, ParamPoint

# Relative FD step for geometry. After Richardson the truncation error falls
# as h^4 and the roundoff grows as h shrinks; over the sampled benchmark
# draws the two worst-case margins cross near 6.5e-4. Truncation: on the
# Y^2 = 0.9 X edge of the oscillator box, R + 16/b_0 misses its 1e-4
# tolerance by 2.76x at 1e-3, 0.66x at 7e-4 and 0.49x at 6.5e-4. Roundoff:
# the worst sym-coupled flatness ratio (bound 1) rises from 0.18-0.20 at
# 1e-3 to 0.46-0.48 at 6.5e-4 and 1.04-1.08 at 4e-4, and the worst
# R - scalar:param-z1 margin from 0.11-0.14 to 0.24-0.37.
STEP_REL = 6.5e-4
COND_LIMIT = 1e12
FLATNESS_RTOL = 1e-6


@dataclass(frozen=True)
class MetricField:
    """A symmetric-matrix-valued field over a dim-dimensional chart."""

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    step: np.ndarray | None = None  # per-coordinate default FD steps

    def __call__(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise ValueError(f"metric eval returned shape {g.shape}")
        scale = max(np.abs(g).max(), 1.0)
        if np.abs(g - g.T).max() > SYMMETRY_ATOL * scale:
            raise NumericalError("metric field returned a non-symmetric matrix")
        return 0.5 * (g + g.T)


def metric_field(model: Model, which: str, qn: Sequence[int],
                 coords: Sequence[str] | None = None,
                 fixed: dict[str, float] | None = None) -> MetricField:
    """Wrap one of a model's closed-form metrics as a field.

    which: a closed-form quantity name evaluating to a square matrix
    ("metric", "metric_z1", "phase_metric", "phase_metric_reduced", ...).
    coords picks which parameters vary (default: all of them); the rest are
    pinned by `fixed`. A name in either that the model does not have raises
    ValueError. For phase-space metrics reinterpreted as parameter-space
    metrics the matrix dimension must match len(coords).
    """
    names = model.param_names
    coords = tuple(coords) if coords is not None else names
    fixed = dict(fixed or {})
    unknown = [n for n in (*coords, *fixed) if n not in names]
    if unknown:
        raise ValueError(f"model {model.name} has no parameters {unknown}; "
                         f"its parameters are {list(names)}")
    missing = [n for n in names if n not in coords and n not in fixed]
    if missing:
        raise ValueError(f"fix the non-coordinate parameters {missing}")
    qn = tuple(qn)

    def func(x: np.ndarray) -> np.ndarray:
        values = dict(fixed)
        values.update(zip(coords, x))
        point = ParamPoint(names, tuple(values[n] for n in names))
        return np.asarray(model.closed_form(which, point, qn), dtype=float)

    return MetricField(len(coords), func)


def chart_field(field: MetricField, center: np.ndarray,
                kinds: Sequence[str]) -> tuple[MetricField, np.ndarray]:
    """Pull a metric field back to a better-conditioned chart around `center`.

    kinds[i] is "log" (x_i = c_i e^{u_i}, needs c_i > 0), "linear"
    (x_i = c_i + s_i u_i with s_i = |c_i|, or 1 at c_i = 0), or an explicit
    positive number used as the linear scale s_i. Scalar curvature is
    chart-invariant; Christoffel magnitudes drop to O(1) for metrics built
    from powers of the coordinates, which is what makes near-transition
    probes computable in double precision.

    Returns (field in u-coordinates, u-coordinates of `center`) — the center
    maps to u = 0.
    """
    center = np.asarray(center, dtype=float)
    if len(kinds) != field.dim:
        raise ValueError("need one chart kind per coordinate")
    is_log = [k == "log" for k in kinds]
    scales = np.empty(field.dim)
    for i, kind in enumerate(kinds):
        if kind == "log":
            if center[i] <= 0:
                raise ValueError("log chart needs a positive center coordinate")
            scales[i] = center[i]
        elif kind == "linear":
            scales[i] = abs(center[i]) if center[i] != 0 else 1.0
        else:
            try:
                value = float(kind)
            except (TypeError, ValueError):
                raise ValueError(f"unknown chart kind {kind!r}") from None
            if value <= 0:
                raise ValueError("explicit chart scales must be positive")
            scales[i] = value

    def to_x(u: np.ndarray) -> np.ndarray:
        x = np.empty(field.dim)
        for i in range(field.dim):
            x[i] = center[i] * math.exp(u[i]) if is_log[i] else center[i] + scales[i] * u[i]
        return x

    def jac(u: np.ndarray) -> np.ndarray:
        j = np.empty(field.dim)
        for i in range(field.dim):
            j[i] = center[i] * math.exp(u[i]) if is_log[i] else scales[i]
        return j

    def func(u: np.ndarray) -> np.ndarray:
        j = jac(u)
        return field(to_x(u)) * np.outer(j, j)

    return MetricField(field.dim, func), np.zeros(field.dim)


def default_steps(x: np.ndarray, step=None) -> np.ndarray:
    """Per-coordinate FD steps: STEP_REL of the coordinate scale.

    The scale of x_i is |x_i|, floored at 5% of the largest coordinate so a
    vanishing coordinate (Y = 0, k1 = 0, ...) still gets a sensible step.
    """
    x = np.asarray(x, dtype=float)
    if step is None:
        base = max(float(np.abs(x).max()), 1.0e-30)
        if base <= 1.0e-30:
            return np.full(x.shape, STEP_REL)
        return STEP_REL * np.maximum(np.abs(x), 0.05 * base)
    arr = np.broadcast_to(np.asarray(step, dtype=float), x.shape).copy()
    if np.any(arr <= 0):
        raise ValueError("steps must be positive")
    return arr


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
        """g and its inverse, via diagonal equilibration.

        Metrics near a phase transition are badly scaled (entries spanning
        many decades) without being singular; the conditioning test and the
        inversion run on the equilibrated matrix D g D with
        D = diag(g)^(-1/2). The limit admits the near-transition probes while
        rejecting exactly singular metrics (e.g. the full 3x3 oscillator
        parameter metric, det = 0).
        """
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
    """(fresh table, x as floats, resolved steps) for one top-level call."""
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
    # Gamma^i_jk = 1/2 g^il (d_k g_lj + d_j g_lk - d_l g_jk)
    braces = np.einsum('klj->ljk', dg) + np.einsum('jlk->ljk', dg) - dg
    return 0.5 * np.einsum('il,ljk->ijk', ginv, braces)


def _riemann(table: _Table, x: np.ndarray,
             h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R^i_jkl, Gamma^i_jk at x): the center Christoffel symbols come along."""
    d = table.dim
    dgam = np.empty((d, d, d, d))  # dgam[k, i, j, l] = d_k Gamma^i_jl
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


def metric_derivatives(field: MetricField, x: np.ndarray,
                       step=None) -> np.ndarray:
    """dg[k, i, j] = d_k g_ij by central differences."""
    return _metric_derivatives(*_resolved(field, x, step))


def christoffel(field: MetricField, x: np.ndarray, step=None) -> np.ndarray:
    """Gamma[i, j, k] = Gamma^i_jk; symmetric in (j, k) by construction."""
    return _christoffel(*_resolved(field, x, step))


def riemann(field: MetricField, x: np.ndarray, step=None) -> np.ndarray:
    """R[i, j, k, l] = R^i_jkl from FD derivatives of the Christoffel field."""
    return _riemann(*_resolved(field, x, step))[0]


def ricci_scalar(field: MetricField, x: np.ndarray,
                 step=None) -> tuple[np.ndarray, float]:
    """(Ricci tensor, scalar R); the scalar gets Richardson extrapolation."""
    table, x, h = _resolved(field, x, step)

    def once(hh):
        r4, _ = _riemann(table, x, hh)
        ric = np.einsum('kjkl->jl', r4)
        _, ginv = table.metric_and_inverse(x)
        return ric, float(np.einsum('jl,jl->', ginv, ric))

    ric, scalar = once(h)
    ric2, scalar2 = once(h / 2)
    return (4 * ric2 - ric) / 3, (4 * scalar2 - scalar) / 3


def flatness_threshold(g: np.ndarray, x: np.ndarray,
                       rtol: float = FLATNESS_RTOL) -> float:
    """Dimensionally consistent zero test: rtol * max|g| / (coordinate scale)^2."""
    coord = min(max(abs(v), 1e-2) for v in np.asarray(x).ravel())
    return rtol * float(np.abs(g).max()) / coord**2


@dataclass(frozen=True)
class CurvatureReport:
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    flat: bool
    flat_threshold: float


def curvature_report(field: MetricField, x: np.ndarray,
                     step=None) -> CurvatureReport:
    table, x, h = _resolved(field, x, step)
    r4_half, gam_half = _riemann(table, x, h / 2)
    r4_full, gam_full = _riemann(table, x, h)
    gam = (4 * gam_half - gam_full) / 3
    r4 = (4 * r4_half - r4_full) / 3
    ric = np.einsum('kjkl->jl', r4)
    g, ginv = table.metric_and_inverse(x)
    scalar = float(np.einsum('jl,jl->', ginv, ric))
    thresh = flatness_threshold(g, x)
    return CurvatureReport(gam, r4, ric, scalar,
                           bool(np.abs(r4).max() <= thresh), thresh)


def scalar_2d_direct(field: MetricField, x: np.ndarray, step=None) -> float:
    """Direct 2D scalar-curvature expression (no Christoffel assembly).

    R = (1/sqrt g) { d_1 [ (1/sqrt g)((g12/g11) d_2 g11 - d_1 g22) ]
                   + d_2 [ (1/sqrt g)(2 d_1 g12 - d_2 g11 - (g12/g11) d_1 g11) ] }
    with g = det(g_ij); requires g11 bounded away from zero.
    """
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


def beltrami_residual(model: Model, point: ParamPoint, qn: Sequence[int],
                      step=None) -> float:
    """max |J^T J - g| for the flat coordinates (u, v) of the sym-coupled model.

    J is the FD Jacobian of (u(k0, k1), v(k0, k1)); a small residual verifies
    ds^2 = du^2 + dv^2.
    """
    if "beltrami" not in model._closed:
        raise DomainError(f"model {model.name!r} has no flat-coordinate map")
    qn = tuple(qn)
    x = point.as_array()
    h = default_steps(x, step)
    jac = np.empty((2, 2))
    for k in range(2):
        up = model.closed_form("beltrami", point.shifted(k, +h[k]), qn)
        dn = model.closed_form("beltrami", point.shifted(k, -h[k]), qn)
        jac[:, k] = (np.asarray(up) - np.asarray(dn)) / (2 * h[k])
    g = np.asarray(model.closed_form("metric", point, qn), dtype=float)
    return float(np.abs(jac.T @ jac - g).max())
