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
up front: the Christoffel centers x and x +- h_k e_k at each Richardson
step, and their neighbours, deduplicated by the exact bytes of each point.
It calls the field once, on the stack of distinct points in that order, and
checks the stack of values once. It then runs the FD algebra as array
operations over all centers of a step at once: one metric-derivative stack,
one equilibrated `cond` and `inv`, one einsum for the Christoffel symbols.
Nothing is kept after the call returns.
"""

from __future__ import annotations

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
    if np.iscomplexobj(g):
        real = DERIVED[field.name][0][0] if field.name in DERIVED else None
        hint = f"use its real part, {real}" if real else "a metric must be real"
        raise ValueError(f"{field.name} is complex-valued; {hint}")
    g = g.astype(float, copy=False)
    finite = np.isfinite(g).all(axis=(1, 2))
    if not finite.all():
        at = points[int(np.argmin(finite))].tolist()
        raise NumericalError(f"{field.name} is not finite at {at}")
    gt = np.swapaxes(g, 1, 2)
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


def _shifted(y: np.ndarray, hh: np.ndarray) -> np.ndarray:
    """(..., 2d, d): y + hh_0 e_0, y - hh_0 e_0, y + hh_1 e_1, ... for each y."""
    k = np.arange(len(hh))
    out = np.repeat(y[..., None, :], 2 * len(hh), axis=-2)
    out[..., 2 * k, k] += hh
    out[..., 2 * k + 1, k] -= hh
    return out


class _Centers(NamedTuple):
    """Stencil rows of C derivative centers at one FD step."""

    own: np.ndarray    # (C,) the center itself
    plus: np.ndarray   # (C, d) center + hh_k e_k
    minus: np.ndarray  # (C, d) center - hh_k e_k
    hh: np.ndarray


class _Stencil:
    """One curvature call's distinct points, in the order they are first used.

    Points are keyed by their exact bytes, not by closeness: x + h - h that
    does not round back to x is its own point, so every value is the one the
    bare field returns there. `evaluate` then calls the field once per point
    and the FD algebra indexes the resulting (P, d, d) stack.
    """

    def __init__(self):
        self._rows: dict[bytes, int] = {}

    def rows(self, points: np.ndarray) -> np.ndarray:
        """Stack rows of points (..., d), numbering new ones in order."""
        raw = np.ascontiguousarray(points, dtype=float).tobytes()
        width = 8 * points.shape[-1]
        rows = self._rows
        index = [rows.setdefault(raw[i:i + width], len(rows))
                 for i in range(0, len(raw), width)]
        return np.array(index).reshape(points.shape[:-1])

    def centers(self, centers: np.ndarray, hh: np.ndarray) -> _Centers:
        """Each center (C, d) with its neighbours center +- hh_k e_k."""
        rows = self.rows(np.concatenate([centers[:, None], _shifted(centers, hh)], axis=1))
        return _Centers(rows[:, 0], rows[:, 1::2], rows[:, 2::2], hh)

    def riemann_centers(self, x: np.ndarray, hh: np.ndarray) -> _Centers:
        """x + hh_k e_k, x - hh_k e_k for each k, then x itself."""
        return self.centers(np.concatenate([_shifted(x, hh), x[None]]), hh)

    def evaluate(self, field: MetricField) -> np.ndarray:
        self.points = np.frombuffer(b"".join(self._rows)).reshape(len(self._rows), -1).copy()
        self.values = _evaluate(field, self.points)
        return self.values


def _derivatives(g: np.ndarray, plus: np.ndarray, minus: np.ndarray,
                 hh: np.ndarray) -> np.ndarray:
    """dg[..., k, i, j] = d_k g_ij by central differences over stacked rows."""
    return (g[plus] - g[minus]) / (2 * hh)[:, None, None]


def _inverses(st: _Stencil, rows: np.ndarray) -> np.ndarray:
    """Inverse metrics at the given rows, via diagonal equilibration.

    Metrics near a phase transition are badly scaled (entries spanning many
    decades) without being singular; the conditioning test and the
    inversion run on the equilibrated matrix D g D with D = diag(g)^(-1/2).
    The limit admits the near-transition probes while rejecting exactly
    singular metrics (e.g. the full 3x3 oscillator parameter metric,
    det = 0). The first failing row, in order, is the one reported.
    """
    g = st.values[rows]
    d = np.sqrt(np.abs(np.diagonal(g, axis1=1, axis2=2)))
    vanishing = np.any(d == 0, axis=1)
    d[vanishing] = 1.0  # keeps the batch finite; those rows raise below
    dd = d[:, :, None] * d[:, None, :]
    scaled = g / dd
    failed = vanishing | (np.linalg.cond(scaled) > COND_LIMIT)
    if failed.any():
        c = int(np.argmax(failed))
        at = st.points[rows[c]].tolist()
        if vanishing[c]:
            raise NumericalError(f"metric has a vanishing diagonal entry at {at}")
        raise NumericalError(f"metric is numerically singular at {at}")
    return np.linalg.inv(scaled) / dd


def _christoffel(st: _Stencil, c: _Centers) -> tuple[np.ndarray, np.ndarray]:
    """(Gamma[c, i, j, k] = Gamma^i_jk, inverse metric) at every center."""
    ginv = _inverses(st, c.own)
    dg = _derivatives(st.values, c.plus, c.minus, c.hh)
    # Gamma^i_jk = 1/2 g^il (d_k g_lj + d_j g_lk - d_l g_jk)
    braces = np.einsum('cklj->cljk', dg) + np.einsum('cjlk->cljk', dg) - dg
    return 0.5 * np.einsum('cil,cljk->cijk', ginv, braces), ginv


def _riemann(st: _Stencil, c: _Centers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R^i_jkl, Gamma^i_jk, g^ij) at x, for centers from `riemann_centers`."""
    gam, ginv = _christoffel(st, c)
    dim = len(c.hh)
    # dgam[k, i, j, l] = d_k Gamma^i_jl
    dgam = (gam[0:2 * dim:2] - gam[1:2 * dim:2]) / (2 * c.hh)[:, None, None, None]
    gam = gam[-1]
    term1 = np.einsum('kilj->ijkl', dgam)
    term2 = np.einsum('likj->ijkl', dgam)
    term3 = np.einsum('slj,iks->ijkl', gam, gam)
    term4 = np.einsum('skj,ils->ijkl', gam, gam)
    return term1 - term2 + term3 - term4, gam, ginv[-1]


def _resolved(field: MetricField, x: np.ndarray, step) -> tuple[np.ndarray, np.ndarray]:
    """(x as floats, resolved steps) for one top-level call."""
    x = np.asarray(x, dtype=float)
    return x, default_steps(x, step if step is not None else field.step)


def metric_derivatives(field: MetricField, x: np.ndarray,
                       step=None) -> np.ndarray:
    """dg[k, i, j] = d_k g_ij by central differences."""
    x, h = _resolved(field, x, step)
    st = _Stencil()
    rows = st.rows(_shifted(x, h))
    return _derivatives(st.evaluate(field), rows[0::2], rows[1::2], h)


def christoffel(field: MetricField, x: np.ndarray, step=None) -> np.ndarray:
    """Gamma[i, j, k] = Gamma^i_jk; symmetric in (j, k) by construction."""
    x, h = _resolved(field, x, step)
    st = _Stencil()
    c = st.centers(x[None], h)
    st.evaluate(field)
    return _christoffel(st, c)[0][0]


def riemann(field: MetricField, x: np.ndarray, step=None) -> np.ndarray:
    """R[i, j, k, l] = R^i_jkl from FD derivatives of the Christoffel field."""
    x, h = _resolved(field, x, step)
    st = _Stencil()
    c = st.riemann_centers(x, h)
    st.evaluate(field)
    return _riemann(st, c)[0]


def ricci_scalar(field: MetricField, x: np.ndarray,
                 step=None) -> tuple[np.ndarray, float]:
    """(Ricci tensor, scalar R); the scalar gets Richardson extrapolation."""
    x, h = _resolved(field, x, step)
    st = _Stencil()
    steps = [st.riemann_centers(x, hh) for hh in (h, h / 2)]
    st.evaluate(field)
    out = []
    for c in steps:
        r4, _, ginv = _riemann(st, c)
        ric = np.einsum('kjkl->jl', r4)
        out.append((ric, float(np.einsum('jl,jl->', ginv, ric))))
    (ric, scalar), (ric2, scalar2) = out
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
    x, h = _resolved(field, x, step)
    st = _Stencil()
    half, full = st.riemann_centers(x, h / 2), st.riemann_centers(x, h)
    st.evaluate(field)
    r4_half, gam_half, ginv = _riemann(st, half)
    r4_full, gam_full, _ = _riemann(st, full)
    gam = (4 * gam_half - gam_full) / 3
    r4 = (4 * r4_half - r4_full) / 3
    ric = np.einsum('kjkl->jl', r4)
    g = st.values[half.own[-1]]
    scalar = float(np.einsum('jl,jl->', ginv, ric))
    thresh = flatness_threshold(g, x)
    return CurvatureReport(gam, r4, ric, scalar,
                           bool(np.abs(r4).max() <= thresh), thresh)


def scalar_2d_direct(field: MetricField, x: np.ndarray, step=None) -> float:
    """Direct 2D scalar-curvature expression (no Christoffel assembly).

    R = (1/sqrt g) { d_1 [ (1/sqrt g)((g12/g11) d_2 g11 - d_1 g22) ]
                   + d_2 [ (1/sqrt g)(2 d_1 g12 - d_2 g11 - (g12/g11) d_1 g11) ] }
    with g = det(g_ij); requires g11 bounded away from zero. The two
    brackets are evaluated at the four centers x +- hh_k e_k at once.
    """
    if field.dim != 2:
        raise ValueError("the direct expression is for 2D metrics only")
    x, h = _resolved(field, x, step)
    st = _Stencil()
    st.rows(x)
    steps = [st.centers(_shifted(x, hh), hh) for hh in (h, h / 2)]
    g = st.evaluate(field)
    # `v ** 2` on a NumPy scalar is C pow, which can round differently from
    # the array square in the last bit; determinants are formed from scalars
    # so the bits match the per-point recursion in tests/geometry_reference.py
    det = g[0, 0, 0] * g[0, 1, 1] - g[0, 0, 1] ** 2

    def once(c: _Centers) -> float:
        gc = g[c.own]
        dets = np.array([m[0, 0] * m[1, 1] - m[0, 1] ** 2 for m in gc])
        g11, g12 = gc[:, 0, 0], gc[:, 0, 1]
        vanishing = np.abs(g11) < 1e-14 * np.maximum(np.abs(gc).max(axis=(1, 2)), 1.0)
        failed = vanishing | (dets <= 0)
        if failed.any():
            if vanishing[np.argmax(failed)]:
                raise NumericalError("g11 vanishes; direct 2D expression inapplicable")
            raise NumericalError("metric determinant must be positive")
        dg = _derivatives(g, c.plus, c.minus, c.hh)
        root = np.sqrt(dets)
        brackets = ((g12 / g11 * dg[:, 1, 0, 0] - dg[:, 0, 1, 1]) / root,
                    (2 * dg[:, 0, 0, 1] - dg[:, 1, 0, 0] - g12 / g11 * dg[:, 0, 0, 0]) / root)
        total = 0.0
        for k in range(2):
            total += (brackets[k][2 * k] - brackets[k][2 * k + 1]) / (2 * c.hh[k])
        return total / math.sqrt(det)

    r = once(steps[0])
    return (4 * once(steps[1]) - r) / 3


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
