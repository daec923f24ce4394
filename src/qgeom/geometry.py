"""Numerical Riemannian geometry of low-dimensional metric fields.

Everything is finite differences over a callable metric field g(x):
Christoffel symbols Gamma^i_jk = (1/2) g^il (d_k g_lj + d_j g_lk - d_l g_jk),
Riemann R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj + Gamma^s_lj Gamma^i_ks
- Gamma^s_kj Gamma^i_ls, Ricci R_jl = R^k_jkl, scalar R = g^jl R_jl, plus the
direct 2D scalar-curvature expression and the flat-coordinate pullback check
for the symmetric-coupled system. Sign conventions: negative R = hyperbolic.

Scalar outputs use Richardson (h, h/2) extrapolation; curvature stacks two
FD derivatives, so the cancellation matters.

A metric field maps a (P, d) stack of points to the (P, d, d) stack of its
metrics there (`MetricField`). Each curvature call (`ricci_scalar`,
`curvature_report`, `scalar_2d_direct`, `riemann`, `christoffel`,
`metric_derivatives`) works in three steps. It enumerates its whole stencil
up front, by broadcast adds of a table of +-h_k offsets: the Christoffel
centers x and x +- h_k e_k at every Richardson step, and their neighbours,
deduplicated by the exact bytes of each point. It calls the field once, on
the stack of distinct points in that order, and checks the stack of values
once. It then runs the FD algebra as one array pass over all centers of all
steps, the step being a leading axis: one metric-derivative stack, one
equilibrated conditioning test (`eigvalsh`) and one `inv`, one einsum for
the Christoffel symbols and one Riemann assembly. Nothing is kept after the
call returns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NumericalError
from .gauss import SYMMETRY_ATOL
from .models.base import DERIVED, Model, ParamBatch, ParamPoint

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
    """A symmetric-matrix-valued field over a dim-dimensional chart.

    func maps a (P, d) stack of points to the (P, d, d) stack of the metrics
    there, in one call. Calling the field itself evaluates one point: the
    P = 1 case, checked like any stack (`_evaluate`). name and coords only
    label errors: the quantity the field evaluates and the names of its
    coordinates.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    step: np.ndarray | None = None  # per-coordinate default FD steps
    name: str = "metric"
    coords: tuple[str, ...] = ()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _evaluate(self, np.asarray(x, dtype=float)[None])[0]


def _evaluate(field: MetricField, points: np.ndarray) -> np.ndarray:
    """The symmetrized (P, d, d) stack of field values at (P, d) points.

    One call to field.func, then one check of the stack: its shape, real
    and finite values, and symmetry.
    """
    g = np.asarray(field.func(points))
    if g.shape != (len(points), field.dim, field.dim):
        if g.shape[:1] != (len(points),):
            raise ValueError(f"{field.name} returned shape {g.shape} for {len(points)} "
                             "points; a field maps (P, d) points to (P, d, d) metrics")
        size = "x".join(map(str, g.shape[1:])) if g.ndim == 3 else f"of shape {g.shape[1:]}"
        names = f" ({', '.join(field.coords)})" if field.coords else ""
        raise ValueError(f"{field.name} is {size} but the field has "
                         f"{field.dim} coordinates{names}")
    if g.dtype.kind == "c":
        real = DERIVED[field.name][0][0] if field.name in DERIVED else None
        hint = f"use its real part, {real}" if real else "a metric must be real"
        raise ValueError(f"{field.name} is complex-valued; {hint}")
    g = g.astype(float, copy=False)
    if not np.isfinite(g).all():
        at = points[int(np.argmin(np.isfinite(g).all(axis=(1, 2))))].tolist()
        raise NumericalError(f"{field.name} is not finite at {at}")
    gt = np.swapaxes(g, 1, 2)
    if not (g == gt).all():  # an exactly symmetric stack needs no tolerance test
        scale = np.maximum(np.abs(g).max(axis=(1, 2)), 1.0)
        if np.any(np.abs(g - gt).max(axis=(1, 2)) > SYMMETRY_ATOL * scale):
            raise NumericalError("metric field returned a non-symmetric matrix")
    return 0.5 * (g + gt)


def metric_field(model: Model, which: str, qn: Sequence[int],
                 coords: Sequence[str] | None = None,
                 fixed: dict[str, float] | None = None) -> MetricField:
    """Wrap one of a model's closed-form metrics as a field.

    which: a closed-form quantity name evaluating to a square matrix
    ("metric", "metric_z1", "phase_metric", "phase_metric_reduced", ...).
    coords picks which parameters vary (default: all of them); the rest are
    pinned by `fixed`. A name in either that the model does not have raises
    ValueError, as do an unknown quantity and bad quantum numbers, all
    checked here once. Each evaluation validates its whole stack of points
    as one `ParamBatch` and runs the closed form once on it, so a stencil
    point outside the model's domain raises DomainError naming that point.
    For phase-space metrics reinterpreted as parameter-space metrics the
    matrix dimension must match len(coords) (ValueError at evaluation
    otherwise).
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
    qn = model._check_qn(qn)
    evaluate = model.closed_method(which)
    varying = [names.index(n) for n in coords]
    pinned = [names.index(n) for n in fixed]
    pinned_values = [float(fixed[n]) for n in fixed]

    def func(x: np.ndarray) -> np.ndarray:
        values = np.empty((len(x), len(names)))
        values[:, varying] = x
        values[:, pinned] = pinned_values
        points = ParamBatch(names, values)
        model.validate(points)
        return evaluate(points, qn)

    return MetricField(len(coords), func, name=which, coords=coords)


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
    is_log = np.array([k == "log" for k in kinds])
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

    def func(u: np.ndarray) -> np.ndarray:
        # x_i and dx_i/du_i on each row of the (P, d) stack u
        x = center + scales * u
        j = np.broadcast_to(scales, u.shape).copy()
        x[:, is_log] = j[:, is_log] = center[is_log] * np.exp(u[:, is_log])
        return _evaluate(field, x) * (j[:, :, None] * j[:, None, :])

    return (MetricField(field.dim, func, name=field.name, coords=field.coords),
            np.zeros(field.dim))


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


@functools.cache
def _signs(dim: int, own: int) -> np.ndarray:
    """(2d + 1, d) offset signs: the rows +e_0, -e_0, +e_1, ..., -e_{d-1},
    with a row of -0.0 (the point itself) inserted at index `own`.

    Off the shifted coordinate each row holds -0.0, so a stencil is one
    broadcast add y + hh * signs: with hh > 0, hh_j * (-0.0) is -0.0 and
    y_j + (-0.0) is y_j bitwise, signed zeros included, and y_k + (-hh_k)
    is y_k - hh_k.
    """
    signs = np.full((2 * dim, dim), -0.0)
    k = np.arange(dim)
    signs[2 * k, k] = 1.0
    signs[2 * k + 1, k] = -1.0
    signs = np.insert(signs, own, -0.0, axis=0)
    signs.flags.writeable = False
    return signs


def _shifted(y: np.ndarray, hh: np.ndarray) -> np.ndarray:
    """(..., 2d, d): y + hh_0 e_0, y - hh_0 e_0, y + hh_1 e_1, ... for each y;
    hh (..., d) broadcasts against y's leading axes."""
    return y[..., None, :] + hh[..., None, :] * _signs(hh.shape[-1], 0)[1:]


class _Centers(NamedTuple):
    """Stencil rows of C derivative centers at each of S FD steps."""

    own: np.ndarray    # (S, C) the center itself
    plus: np.ndarray   # (S, C, d) center + hh_k e_k
    minus: np.ndarray  # (S, C, d) center - hh_k e_k
    hh: np.ndarray     # (S, d)


def _center_points(centers: np.ndarray, hh: np.ndarray) -> np.ndarray:
    """(S, C, 1 + 2d, d): each center of the (S, C, d) stack, then its
    neighbours center +- hh[s, k] e_k at its step s."""
    return centers[..., None, :] + (hh[:, None, :] * _signs(hh.shape[-1], 0))[:, None]


def _split(rows: np.ndarray, hh: np.ndarray) -> _Centers:
    """The _Centers of the stencil rows of `_center_points`."""
    return _Centers(rows[..., 0], rows[..., 1::2], rows[..., 2::2], hh)


def _riemann_points(x: np.ndarray, hh: np.ndarray) -> np.ndarray:
    """Stencil points of the Riemann tensor at x for each step of the (S, d)
    stack hh: the Christoffel centers x + hh_k e_k, x - hh_k e_k for each k,
    then x itself, each with its neighbours (`_center_points`)."""
    return _center_points(x + hh[:, None, :] * _signs(len(x), 2 * len(x)), hh)


class _Stencil:
    """One curvature call's distinct points, in the order they are first used.

    Points are keyed by their exact bytes, not by closeness: x + h - h that
    does not round back to x is its own point, so every value is the one the
    bare field returns there. The field is called once, on the stack of
    distinct points, and the FD algebra indexes the resulting (P, d, d)
    stack through `rows`, the row of each given point in it.
    """

    def __init__(self, field: MetricField, points: np.ndarray):
        points = np.ascontiguousarray(points, dtype=float)
        width = 8 * points.shape[-1]
        keys = points.view(np.dtype((np.void, width))).ravel().tolist()
        numbered: dict[bytes, int] = {}
        index = [numbered.setdefault(key, len(numbered)) for key in keys]
        self.rows = np.array(index).reshape(points.shape[:-1])
        self.points = np.frombuffer(b"".join(numbered)).reshape(len(numbered), -1).copy()
        self.values = _evaluate(field, self.points)


def _derivatives(g: np.ndarray, plus: np.ndarray, minus: np.ndarray,
                 hh: np.ndarray) -> np.ndarray:
    """dg[..., k, i, j] = d_k g_ij by central differences over stacked rows;
    hh (..., d) broadcasts against the leading axes of plus and minus."""
    return (g[plus] - g[minus]) / (2 * hh)[..., None, None]


def _inverses(st: _Stencil, rows: np.ndarray) -> np.ndarray:
    """Inverse metrics at the given rows (any shape), via diagonal equilibration.

    Metrics near a phase transition are badly scaled (entries spanning many
    decades) without being singular; the conditioning test and the
    inversion run on the equilibrated matrix D g D with D = diag(g)^(-1/2).
    The limit admits the near-transition probes while rejecting exactly
    singular metrics (e.g. the full 3x3 oscillator parameter metric,
    det = 0). The first failing row, in order, is the one reported.
    """
    g = st.values[rows]
    d = np.sqrt(np.abs(np.diagonal(g, axis1=-2, axis2=-1)))
    vanishing = ~d.all(axis=-1)
    d[vanishing] = 1.0  # keeps the batch finite; those rows raise below
    dd = d[..., :, None] * d[..., None, :]
    scaled = g / dd
    # D g D is symmetric, so its 2-norm condition number is max|l| / min|l|
    lam = np.abs(np.linalg.eigvalsh(scaled))
    failed = vanishing | (lam.max(axis=-1) > COND_LIMIT * lam.min(axis=-1))
    if failed.any():
        c = np.unravel_index(np.argmax(failed), failed.shape)
        at = st.points[rows[c]].tolist()
        if vanishing[c]:
            raise NumericalError(f"metric has a vanishing diagonal entry at {at}")
        raise NumericalError(f"metric is numerically singular at {at}")
    return np.linalg.inv(scaled) / dd


def _christoffel(st: _Stencil, c: _Centers) -> tuple[np.ndarray, np.ndarray]:
    """(Gamma[s, c, i, j, k] = Gamma^i_jk, inverse metric) at every center."""
    ginv = _inverses(st, c.own)
    dg = _derivatives(st.values, c.plus, c.minus, c.hh[:, None])
    # Gamma^i_jk = 1/2 g^il (d_k g_lj + d_j g_lk - d_l g_jk)
    braces = dg.transpose(0, 1, 3, 4, 2) + dg.transpose(0, 1, 3, 2, 4) - dg
    return 0.5 * np.einsum('...il,...ljk->...ijk', ginv, braces), ginv


def _riemann(st: _Stencil, c: _Centers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R^i_jkl, Gamma^i_jk, g^ij) at x for each step, for `_riemann_points`."""
    gam, ginv = _christoffel(st, c)
    dim = c.hh.shape[-1]
    # dgam[s, k, i, j, l] = d_k Gamma^i_jl
    dgam = (gam[:, 0:2 * dim:2] - gam[:, 1:2 * dim:2]) / (2 * c.hh)[..., None, None, None]
    gam = gam[:, -1]
    term1 = dgam.transpose(0, 2, 4, 1, 3)  # d_k Gamma^i_lj
    term2 = dgam.transpose(0, 2, 4, 3, 1)  # d_l Gamma^i_kj
    term3 = np.einsum('...slj,...iks->...ijkl', gam, gam)  # Gamma^s_lj Gamma^i_ks
    term4 = term3.swapaxes(-2, -1)  # Gamma^s_kj Gamma^i_ls
    return term1 - term2 + term3 - term4, gam, ginv[:, -1]


def _resolved(field: MetricField, x: np.ndarray, step) -> tuple[np.ndarray, np.ndarray]:
    """(x as floats, resolved steps) for one top-level call."""
    x = np.asarray(x, dtype=float)
    return x, default_steps(x, step if step is not None else field.step)


def metric_derivatives(field: MetricField, x: np.ndarray,
                       step=None) -> np.ndarray:
    """dg[k, i, j] = d_k g_ij by central differences."""
    x, h = _resolved(field, x, step)
    st = _Stencil(field, _shifted(x, h))
    return _derivatives(st.values, st.rows[0::2], st.rows[1::2], h)


def christoffel(field: MetricField, x: np.ndarray, step=None) -> np.ndarray:
    """Gamma[i, j, k] = Gamma^i_jk; symmetric in (j, k) by construction."""
    x, h = _resolved(field, x, step)
    st = _Stencil(field, _center_points(x[None, None], h[None]))
    return _christoffel(st, _split(st.rows, h[None]))[0][0, 0]


def riemann(field: MetricField, x: np.ndarray, step=None) -> np.ndarray:
    """R[i, j, k, l] = R^i_jkl from FD derivatives of the Christoffel field."""
    x, h = _resolved(field, x, step)
    st = _Stencil(field, _riemann_points(x, h[None]))
    return _riemann(st, _split(st.rows, h[None]))[0][0]


def ricci_scalar(field: MetricField, x: np.ndarray,
                 step=None) -> tuple[np.ndarray, float]:
    """(Ricci tensor, scalar R); the scalar gets Richardson extrapolation."""
    x, h = _resolved(field, x, step)
    hh = h * np.array([[1.0], [0.5]])  # the steps h and h/2
    st = _Stencil(field, _riemann_points(x, hh))
    r4, _, ginv = _riemann(st, _split(st.rows, hh))
    ric = np.einsum('...kjkl->...jl', r4)
    scalar = np.einsum('...jl,...jl->...', ginv, ric)
    return (4 * ric[1] - ric[0]) / 3, float((4 * scalar[1] - scalar[0]) / 3)


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
    x, h = _resolved(field, x, step)
    hh = h * np.array([[0.5], [1.0]])  # the steps h/2 and h
    st = _Stencil(field, _riemann_points(x, hh))
    c = _split(st.rows, hh)
    (r4_half, r4_full), (gam_half, gam_full), ginv = _riemann(st, c)
    gam = (4 * gam_half - gam_full) / 3
    r4 = (4 * r4_half - r4_full) / 3
    ric = np.einsum('kjkl->jl', r4)
    g = st.values[c.own[0, -1]]
    scalar = float(np.einsum('jl,jl->', ginv[0], ric))
    thresh = flatness_threshold(g, x)
    return CurvatureReport(gam, r4, ric, scalar,
                           bool(np.abs(r4).max() <= thresh), thresh)


def scalar_2d_direct(field: MetricField, x: np.ndarray, step=None) -> float:
    """Direct 2D scalar-curvature expression (no Christoffel assembly).

    R = (1/sqrt g) { d_1 [ (1/sqrt g)((g12/g11) d_2 g11 - d_1 g22) ]
                   + d_2 [ (1/sqrt g)(2 d_1 g12 - d_2 g11 - (g12/g11) d_1 g11) ] }
    with g = det(g_ij); requires g11 bounded away from zero. The two
    brackets are evaluated at the four centers x +- hh_k e_k of both
    Richardson steps at once.
    """
    if field.dim != 2:
        raise ValueError("the direct expression is for 2D metrics only")
    x, h = _resolved(field, x, step)
    hh = h * np.array([[1.0], [0.5]])  # the steps h and h/2
    points = _center_points(_shifted(x, hh), hh)
    st = _Stencil(field, np.concatenate([x[None], points.reshape(-1, 2)]))
    c = _split(st.rows[1:].reshape(points.shape[:-1]), hh)
    g = st.values
    # `v ** 2` on a float is C pow, which can round differently from the
    # array square in the last bit; determinants are formed from floats so
    # the bits match the per-point recursion in tests/geometry_reference.py
    det = np.array([g11 * g22 - g12 ** 2 for g11, g12, _, g22 in g.reshape(-1, 4).tolist()])
    gc, dets = g[c.own], det[c.own]
    g11, g12 = gc[..., 0, 0], gc[..., 0, 1]
    vanishing = np.abs(g11) < 1e-14 * np.maximum(np.abs(gc).max(axis=(-2, -1)), 1.0)
    failed = vanishing | (dets <= 0)
    if failed.any():
        if vanishing.flat[np.argmax(failed)]:
            raise NumericalError("g11 vanishes; direct 2D expression inapplicable")
        raise NumericalError("metric determinant must be positive")
    dg = _derivatives(g, c.plus, c.minus, hh[:, None])
    root = np.sqrt(dets)
    brackets = ((g12 / g11 * dg[..., 1, 0, 0] - dg[..., 0, 1, 1]) / root,
                (2 * dg[..., 0, 0, 1] - dg[..., 1, 0, 0] - g12 / g11 * dg[..., 0, 0, 0]) / root)
    total = 0.0
    for k in range(2):
        total = total + (brackets[k][:, 2 * k] - brackets[k][:, 2 * k + 1]) / (2 * hh[:, k])
    r, r2 = total / math.sqrt(det[0])  # x is the first point
    return (4 * r2 - r) / 3


def beltrami_residual(model: Model, point: ParamPoint, qn: Sequence[int],
                      step=None) -> float:
    """max |J^T J - g| for the flat coordinates (u, v) of the sym-coupled model.

    J is the FD Jacobian of (u(k0, k1), v(k0, k1)), from one batch of the
    four points x +- h_k e_k; a small residual verifies ds^2 = du^2 + dv^2.
    """
    if "beltrami" not in model.closed_quantities():
        raise DomainError(f"model {model.name!r} has no flat-coordinate map")
    qn = tuple(qn)
    x = point.as_array()
    h = default_steps(x, step)
    uv = model.closed_form("beltrami", ParamBatch(point.names, _shifted(x, h)), qn)
    jac = (uv[0::2] - uv[1::2]).T / (2 * h)
    g = np.asarray(model.closed_form("metric", point, qn), dtype=float)
    return float(np.abs(jac.T @ jac - g).max())
