"""Acceptance suite: every release gate as a named, self-contained check.

Checks are grouped by criterion:
  1  cross-method equivalence of the QGT pathways
  2  closed-form regression of the metric / Berry / phase blocks
  3  scalar-curvature constants and limits from FD geometry
  4  flatness and flat-coordinate pullback of the symmetric-coupled system
  5  entanglement measures vs closed forms, vacuum nu, monotonic trends
  6  Berry-curvature / metric-determinant relation (generalized oscillator)
  7  divergence signals at the quantum phase transition
  8  structural properties (Hermiticity, gauge invariance, uncertainty bound,
     Bianchi and 2D Riemann identities, truncation convergence)

`run_checks` executes them and reports one PASS/FAIL line each; the CLI
`check` command and tests/test_acceptance.py both drive this module.

To add a check, write a function of the AcceptanceConfig that returns one
`(passed, detail)` pair per outcome and decorate it with
`@check((name, criterion), ...)`, one pair per outcome in the same order.
Registration order is run order, and CHECK_NAMES is read off the registry.
The check itself neither times nor guards anything: `run_checks` times each
registered function once (outcomes of one function share that timing) and
turns an exception into FAIL outcomes under the function's declared names,
so one broken probe cannot hide the rest.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import gauss, geometry, qgt
from .errors import NumericalError
from .fock import eigh, truncation_convergence
from .models import get_model
from .models.gaussian import GaussianModel, default_gaussian, oscillator_slice_gaussian


@dataclass(frozen=True)
class AcceptanceConfig:
    cutoff_1mode: int = 80
    cutoff_2mode: int = 40
    seed: int = 20240817

    def cutoff(self, model) -> int:
        return self.cutoff_1mode if model.dof == 1 else self.cutoff_2mode


@dataclass
class CheckOutcome:
    name: str
    criterion: str
    passed: bool
    detail: str
    seconds: float = 0.0
    cpu_seconds: float = 0.0  # process CPU time, every thread counted


# probe sets ----------------------------------------------------------------

C1_POINTS = {
    "gho": [(2.0, 0.5, 1.0), (1.3, -0.4, 2.2), (0.8, 0.2, 1.5)],
    "gho-linear": [(1.0, 1.0, 0.0, 1.0), (0.7, 1.4, -0.3, 1.1), (1.5, 2.0, 0.5, 1.0)],
    "sym-coupled": [(1.0, 0.8), (1.7, 0.45), (0.9, 2.0)],
    "lin-coupled": [(1.0, 2.0, 1.0), (0.8, 1.9, 0.7), (1.0, 3.0, 2.5)],
}

C1_STATES = {
    1: [(0,), (1,), (2,)],
    2: [(m, n) for m in range(3) for n in range(3)],
}

# criterion 1 holds the pathways to each other, criterion 2 to the closed
# forms: the relative comparisons
PAIRS = tuple(c for c in qgt.COMPARISONS if not c.relative)
CLOSED = tuple(c for c in qgt.COMPARISONS if c.relative)
CLOSED_TOL = min(c.tolerance for c in CLOSED)
C1_RUNTIME_LIMIT = 120.0


def _fmt(x: float) -> str:
    return f"{x:.2e}"


# registry --------------------------------------------------------------------

Result = list[tuple[bool, str]]  # one (passed, detail) per declared outcome


@dataclass(frozen=True)
class Check:
    names: tuple[tuple[str, str], ...]  # (name, criterion) of each outcome
    run: Callable[[AcceptanceConfig, dict[str, CheckOutcome]], Result]


#: every check in run order; `check` appends to it
REGISTRY: list[Check] = []


def check(*names: tuple[str, str]):
    """Register fn(config) -> Result under its outcomes' (name, criterion)."""
    def register(fn):
        REGISTRY.append(Check(names, lambda config, done: fn(config)))
        return fn
    return register


def _one_model_cross_methods(config: AcceptanceConfig, name: str, points) -> Result:
    """Criteria 1 and 2 share the probe runs (and their diagonalizations)."""
    model = get_model(name)
    worst = dict.fromkeys((c.name for c in qgt.COMPARISONS), 0.0)
    for values in points:
        point = model.point(*values)
        fb = model.default_basis(point, config.cutoff(model))
        spectrum = eigh(model.hamiltonian(point, fb))
        fd_cache: dict = {}
        for qn in C1_STATES[model.dof]:
            rep = qgt.consistency_report(
                model, point, qgt.StateSelector(qn), fb,
                spectrum=spectrum, fd_cache=fd_cache)
            for comp in rep.comparisons:
                worst[comp.name] = max(worst[comp.name], comp.deviation)
    closed_dev = max(worst[c.name] for c in CLOSED)
    return [
        (all(worst[c.name] <= c.tolerance for c in PAIRS),
         ", ".join(f"{c.block} dev {_fmt(worst[c.name])} (tol {c.tolerance:.0e})"
                   for c in PAIRS)),
        (closed_dev <= CLOSED_TOL,
         f"max relative dev {_fmt(closed_dev)} (tol {CLOSED_TOL:.0e})"),
    ]


for _name, _points in C1_POINTS.items():
    check((f"cross-method[{_name}]", "1"), (f"closed-form[{_name}]", "2"))(
        partial(_one_model_cross_methods, name=_name, points=_points))


def _cross_method_runtime(config: AcceptanceConfig, done: dict[str, CheckOutcome]) -> Result:
    """Gate the wall time the runner measured for the per-model runs above.

    The process CPU time is printed beside it: wall far above CPU means the
    run waited on other processes, not that the checks got slower.
    """
    runs = [done[f"cross-method[{name}]"] for name in C1_POINTS]
    wall = sum(r.seconds for r in runs)
    cpu = sum(r.cpu_seconds for r in runs)
    return [(wall < C1_RUNTIME_LIMIT,
             f"{wall:.1f}s wall ({cpu:.1f}s process CPU) for all models "
             f"(limit {C1_RUNTIME_LIMIT:.0f}s wall)")]


REGISTRY.append(Check((("cross-method[runtime]", "1"),), _cross_method_runtime))


@check(("curvature[oscillator-submanifolds]", "3"))
def _oscillator_submanifolds(config: AcceptanceConfig) -> Result:
    # R = -16/(n^2+n+1) on the Z-fixed submanifold
    worst = 0.0
    model = get_model("gho")
    for n in (0, 1, 5, 100):
        f = geometry.metric_field(model, "metric_sub:Z", (n,),
                                  coords=("X", "Y"), fixed={"Z": 1.0})
        _, r = geometry.ricci_scalar(f, np.array([2.0, 0.5]))
        worst = max(worst, abs(r + 16.0 / (n * n + n + 1)))
    return [(worst <= 1e-4, f"max |R + 16/b_n| = {_fmt(worst)} (tol 1e-4)")]


@check(("curvature[gaussian-minus-4]", "3"))
def _gaussian_minus_4(config: AcceptanceConfig) -> Result:
    # R = -4 for three Gaussian families
    families = [
        default_gaussian(),
        oscillator_slice_gaussian(),
        GaussianModel(sigma=lambda a, b: 1 + a * a + b * b,
                      mu=lambda a, b: math.sin(a) + b),
    ]
    probes = [np.array([0.3, 0.7]), np.array([1.3, 0.8]), np.array([0.4, -0.2])]
    worst = 0.0
    for fam, x in zip(families, probes):
        f = geometry.metric_field(fam, "metric", (0,))
        _, r = geometry.ricci_scalar(f, x)
        worst = max(worst, abs(r + 4.0))
    return [(worst <= 1e-4,
             f"max |R + 4| = {_fmt(worst)} over 3 (sigma, mu) choices (tol 1e-4)")]


@check(("curvature[lin-coupled-minus-8]", "3"))
def _lin_coupled_minus_8(config: AcceptanceConfig) -> Result:
    # R^(00) = -8 for the linearly coupled pair
    model = get_model("lin-coupled")
    worst = 0.0
    for values in C1_POINTS["lin-coupled"]:
        f = geometry.metric_field(model, "metric", (0, 0))
        _, r = geometry.ricci_scalar(f, np.array(values))
        worst = max(worst, abs(r + 8.0))
    return [(worst <= 1e-3, f"max |R + 8| = {_fmt(worst)} at 3 points (tol 1e-3)")]


@check(("curvature[linear-term-scalar]", "3"))
def _linear_term_scalar(config: AcceptanceConfig) -> Result:
    # linear-term oscillator scalar formula at generic points ...
    model = get_model("gho-linear")
    worst = 0.0
    for n, (W, X, Y) in [(0, (1.0, 1.0, 0.0)), (1, (0.5, 2.0, 0.7)),
                         (3, (1.5, 1.2, -0.3))]:
        point = model.point(W, X, Y, 1.0)
        f = geometry.metric_field(model, "metric_z1", (n,),
                                  coords=("W", "X", "Y"), fixed={"Z": 1.0})
        _, r = geometry.ricci_scalar(f, np.array([W, X, Y]))
        closed = model.closed_form("scalar:param-z1", point, (n,))
        worst = max(worst, abs(r - closed))
    return [(worst <= 1e-4,
             f"max |R_fd - R_closed| = {_fmt(worst)} at 3 points (tol 1e-4)")]


@check(("curvature[linear-term-limits]", "3"))
def _linear_term_limits(config: AcceptanceConfig) -> Result:
    # ... and its limits: R -> -4/b_n (omega -> 0) and R -> -28/b_n (W -> 0)
    model = get_model("gho-linear")
    worst = 0.0
    om = 3e-2
    for n in (0, 1, 3):
        b = n * n + n + 1
        f = geometry.metric_field(model, "metric_z1", (n,),
                                  coords=("W", "X", "Y"), fixed={"Z": 1.0})
        chart, u0 = geometry.chart_field(f, np.array([1.0, om * om, 0.0]),
                                         ("log", "log", om))
        _, r = geometry.ricci_scalar(chart, u0, step=1e-3)
        worst = max(worst, abs(r + 4.0 / b))
        _, r = geometry.ricci_scalar(f, np.array([1e-6, 1.0, 0.0]),
                                     step=np.array([1e-3, 1e-3, 1e-3]))
        worst = max(worst, abs(r + 28.0 / b))
    return [(worst <= 1e-2, f"max limit deviation {_fmt(worst)} "
             f"(omega->0 at {om}, W->0 at 1e-6; tol 1e-2)")]


@check(("flatness[sym-coupled]", "4"), ("flatness[beltrami]", "4"))
def _flatness(config: AcceptanceConfig) -> Result:
    model = get_model("sym-coupled")
    rng = np.random.default_rng(config.seed)
    worst_riem_ratio = 0.0
    worst_beltrami = 0.0
    for _ in range(5):
        k0 = rng.uniform(0.6, 2.2)
        k1 = rng.uniform(0.3, 2.2)
        point = model.point(k0, k1)
        for qn in ((0, 0), (1, 2)):
            f = geometry.metric_field(model, "metric", qn)
            rep = geometry.curvature_report(f, np.array([k0, k1]))
            worst_riem_ratio = max(worst_riem_ratio,
                                   float(np.abs(rep.riemann).max()) / rep.flat_threshold)
            worst_beltrami = max(worst_beltrami,
                                 geometry.beltrami_residual(model, point, qn))
    return [
        (worst_riem_ratio <= 1.0, f"max |Riemann|/threshold = {worst_riem_ratio:.3f} "
         "at 5 random points, (m,n) in {(0,0),(1,2)}"),
        (worst_beltrami <= 1e-6, f"max |J^T J - g| = {_fmt(worst_beltrami)} (tol 1e-6)"),
    ]


def _ground_state_measures(model, point, cutoff):
    fb = model.default_basis(point, cutoff)
    cov = qgt.covariance_from_state(model, point, qgt.selector(0, 0), fb)
    red = gauss.reduce(cov, [0])
    return (gauss.purity(red), gauss.von_neumann_entropy(red),
            float(gauss.symplectic_eigenvalues(red)[0]))


def _entanglement_vs_closed(config: AcceptanceConfig, name: str, points) -> Result:
    model = get_model(name)
    worst = 0.0
    for values in points:
        point = model.point(*values)
        mu, s, _ = _ground_state_measures(model, point, config.cutoff_2mode)
        worst = max(worst,
                    abs(mu - model.closed_form("purity", point, (0, 0))),
                    abs(s - model.closed_form("entropy", point, (0, 0))))
    return [(worst <= 1e-6, f"max |numeric - closed| = {_fmt(worst)} for purity/entropy "
             "(tol 1e-6)")]


check(("entanglement[sym-coupled]", "5"))(partial(
    _entanglement_vs_closed, name="sym-coupled", points=[(1.0, 1.0), (2.0, 3.0)]))
check(("entanglement[lin-coupled-printed-eqs]", "5"))(partial(
    _entanglement_vs_closed, name="lin-coupled",
    points=[(1.0, 2.0, 1.0), (0.8, 1.9, 0.7)]))


@check(("entanglement[vacuum-nu]", "5"))
def _vacuum_nu(config: AcceptanceConfig) -> Result:
    gho = get_model("gho")
    point = gho.point(1.0, 0.0, 1.0)
    fb = gho.default_basis(point, 40)
    cov = qgt.covariance_from_state(gho, point, qgt.selector(0), fb)
    nu = float(gauss.symplectic_eigenvalues(cov)[0])
    return [(abs(nu - 0.5) <= 1e-10, f"|nu - 1/2| = {_fmt(abs(nu - 0.5))} (tol 1e-10)")]


@check(("entanglement[monotonic-trends]", "5"))
def _monotonic_trends(config: AcceptanceConfig) -> Result:
    model = get_model("sym-coupled")
    k1_grid = np.linspace(0.0, 5.0, 11)
    mus, ents = [], []
    for k1 in k1_grid:
        point = model.point(1.0, float(k1))
        mus.append(model.closed_form("purity", point, (0, 0)))
        ents.append(model.closed_form("entropy", point, (0, 0)))
    mono = (all(b < a for a, b in zip(mus, mus[1:]))
            and all(b > a for a, b in zip(ents, ents[1:])))
    return [(mono, f"purity {mus[0]:.3f}->{mus[-1]:.3f} decreasing, "
             f"entropy {ents[0]:.3f}->{ents[-1]:.3f} increasing over k1 in [0, 5]")]


@check(("palumbo[berry-vs-det]", "6"))
def _palumbo(config: AcceptanceConfig) -> Result:
    model = get_model("gho")
    rng = np.random.default_rng(config.seed + 1)
    worst = 0.0
    for _ in range(5):
        X = rng.uniform(0.5, 3.0)
        Z = rng.uniform(0.5, 3.0)
        Y = rng.uniform(0.1, 0.9) * math.sqrt(X * Z)
        point = model.point(X, Y, Z)
        worst = max(worst, model.palumbo_residual(point))
    return [(worst <= 1e-10,
             f"max relative residual {_fmt(worst)} at 5 random points (tol 1e-10)")]


@check(("divergence[metric-determinants]", "7"))
def _metric_determinants(config: AcceptanceConfig) -> Result:
    model = get_model("gho-linear")
    dets = [model.closed_form("metric_det", model.point(1.0, om * om, 0.0, 1.0), (0,))
            for om in (1.0, 1e-2)]
    ratio1 = dets[1] / dets[0]

    lin = get_model("lin-coupled")

    def lin_point(w1, w2, zeta):
        c, s = math.cos(zeta), math.sin(zeta)
        A = c * c * w1 * w1 + s * s * w2 * w2
        B = s * s * w1 * w1 + c * c * w2 * w2
        C = 2 * c * s * (w2 * w2 - w1 * w1)
        return lin.point(A, B, C)

    dets = [lin.closed_form("metric_det", lin_point(w1, 2.0, math.pi / 8), (0, 0))
            for w1 in (1.0, 1e-2)]
    ratio2 = dets[1] / dets[0]
    return [(ratio1 >= 1e3 and ratio2 >= 1e3,
             f"det growth {ratio1:.2e} (linear-term), {ratio2:.2e} (lin-coupled) "
             "as the frequency drops 1 -> 1e-2 (need >= 1e3)")]


@check(("divergence[reduced-phase-curvature]", "7"))
def _reduced_phase_curvature(config: AcceptanceConfig) -> Result:
    lin = get_model("lin-coupled")
    A, B = 1.0, 2.0
    cmax = 2 * math.sqrt(A * B)
    rs = []
    for s in (0.99, 0.999):
        C = s * cmax
        f = geometry.metric_field(lin, "phase_metric_reduced", (0, 0),
                                  coords=("B", "C"), fixed={"A": A})
        steps = np.array([1e-4 * B, min(1e-4 * C, 0.05 * (cmax - C))])
        _, r = geometry.ricci_scalar(f, np.array([B, C]), step=steps)
        rs.append(r)
    return [(rs[-1] < -1e3 and rs[-1] < rs[0] < 0,
             f"R = {rs[0]:.1f} -> {rs[1]:.1f} as C^2 -> 4AB (need < -1e3)")]


@check(("properties[hermiticity]", "8"))
def _prop_hermiticity(config: AcceptanceConfig) -> Result:
    worst = 0.0
    for name, values in [("gho", (2.0, 0.5, 1.0)), ("gho-linear", (1.0, 1.0, 0.0, 1.0)),
                         ("sym-coupled", (1.0, 0.8)), ("lin-coupled", (1.0, 2.0, 1.0))]:
        model = get_model(name)
        point = model.point(*values)
        fb = model.default_basis(point, min(config.cutoff(model),
                                            24 if model.dof == 2 else 60))
        qn = (0,) * model.dof
        res = qgt.qgt_perturbative(model, point, qgt.StateSelector(qn), fb)
        worst = max(worst, res.hermiticity_defect())
    return [(worst <= 1e-10, f"max Hermiticity defect {_fmt(worst)} (tol 1e-10)")]


@check(("properties[gauge-invariance]", "8"))
def _prop_gauge(config: AcceptanceConfig) -> Result:
    model = get_model("gho")
    point = model.point(2.0, 0.5, 1.0)
    fb = model.default_basis(point, config.cutoff_1mode)
    sel = qgt.selector(1)
    plain = qgt.qgt_overlap_fd(model, point, sel, fb)
    twisted = qgt.qgt_overlap_fd(model, point, sel, fb,
                                 phase_rng=np.random.default_rng(config.seed + 2))
    dev_re = float(np.abs(plain.values.real - twisted.values.real).max())
    dev_berry = float(np.abs(-2 * plain.values.imag + 2 * twisted.values.imag).max())
    return [(dev_re <= 1e-8 and dev_berry <= 1e-8,
             f"metric shift {_fmt(dev_re)}, curvature shift {_fmt(dev_berry)} "
             "under random phase twist (tol 1e-8)")]


@check(("properties[uncertainty-bound]", "8"))
def _prop_uncertainty(config: AcceptanceConfig) -> Result:
    model = get_model("sym-coupled")
    point = model.point(1.0, 0.8)
    fb = model.default_basis(point, 24)
    lo = 0.0
    for qn in ((0, 0), (1, 2)):
        cov = qgt.covariance_from_state(model, point, qgt.StateSelector(qn), fb)
        lo = min(lo, float(np.linalg.eigvalsh(gauss.add_half_omega(cov.entries)).min()))
    return [(lo >= -1e-10, f"min eig(sigma + i Omega/2) = {_fmt(lo)} (tol -1e-10)")]


@check(("properties[bianchi]", "8"))
def _prop_bianchi(config: AcceptanceConfig) -> Result:
    worst = 0.0
    cases = [
        (geometry.metric_field(get_model("gho-linear"), "metric_z1", (1,),
                               coords=("W", "X", "Y"), fixed={"Z": 1.0}),
         np.array([0.8, 1.7, 0.6])),
        (geometry.metric_field(get_model("lin-coupled"), "metric", (0, 0)),
         np.array([1.0, 2.0, 1.0])),
    ]
    for f, x in cases:
        riem = geometry.riemann(f, x)
        cyc = riem + np.einsum('iklj->ijkl', riem) + np.einsum('iljk->ijkl', riem)
        worst = max(worst, float(np.abs(cyc).max() / max(np.abs(riem).max(), 1e-300)))
    return [(worst <= 1e-6,
             f"max relative cyclic residual {_fmt(worst)} on 3D metrics (tol 1e-6)")]


@check(("properties[riemann-2d-identity]", "8"))
def _prop_riemann_2d(config: AcceptanceConfig) -> Result:
    worst = 0.0
    cases_2d = [
        (geometry.metric_field(get_model("gho"), "metric_sub:Z", (1,),
                               coords=("X", "Y"), fixed={"Z": 1.0}),
         np.array([2.0, 0.5])),
        (geometry.metric_field(get_model("sym-coupled"), "phase_metric_reduced", (0, 0)),
         np.array([1.0, 1.0])),
    ]
    for f, x in cases_2d:
        g = f(x)
        rep = geometry.curvature_report(f, x)
        riem_dn = np.einsum('im,mjkl->ijkl', g, rep.riemann)
        expected = 0.5 * rep.scalar * (np.einsum('ik,jl->ijkl', g, g)
                                       - np.einsum('il,jk->ijkl', g, g))
        scale = max(float(np.abs(expected).max()), 1e-300)
        worst = max(worst, float(np.abs(riem_dn - expected).max()) / scale)
    return [(worst <= 1e-6, f"max relative deviation {_fmt(worst)} (tol 1e-6)")]


@check(("properties[truncation-convergence]", "8"))
def _prop_truncation(config: AcceptanceConfig) -> Result:
    model = get_model("gho")
    point = model.point(2.0, 0.9, 1.0)

    def metric_entry(fb):
        res = qgt.qgt_perturbative(model, point, qgt.selector(2), fb)
        return res.values

    sym = get_model("sym-coupled")
    spt = sym.point(1.0, 0.8)

    def sym_cov(fb):
        return qgt.covariance_from_state(sym, spt, qgt.selector(0, 0), fb).entries

    parts = []
    converged = True
    for label, fn, mdl, pt, base in [
        ("1-mode", metric_entry, model, point, config.cutoff_1mode // 2),
        ("2-mode", sym_cov, sym, spt, config.cutoff_2mode // 2),
    ]:
        try:
            rep = truncation_convergence(fn, mdl.default_basis(pt, base), tol=1e-8)
            converged = converged and rep.converged
            parts.append(f"{_fmt(rep.deviation)} ({label} {rep.cutoffs})")
        except NumericalError as exc:
            # an invalid state out of an under-resolved basis is itself a
            # truncation failure, not a crash
            converged = False
            parts.append(f"{label}: {exc}")
    return [(converged, f"relative changes {', '.join(parts)}; tol 1e-8")]


#: names of all checks, in run order
CHECK_NAMES = tuple(name for entry in REGISTRY for name, _ in entry.names)


def run_checks(config: AcceptanceConfig | None = None,
               printer: Callable[[str], None] | None = None) -> list[CheckOutcome]:
    """Run every registered check once, timing it (wall and process CPU) and
    containing its failure. A check's `run` sees the outcomes so far by name."""
    config = config or AcceptanceConfig()
    results: list[CheckOutcome] = []
    done: dict[str, CheckOutcome] = {}
    for entry in REGISTRY:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            pairs = entry.run(config, done)
            if len(pairs) != len(entry.names):
                raise ValueError(f"{len(pairs)} outcomes for {len(entry.names)} names")
        except Exception as exc:  # a raising check fails under its own names
            pairs = [(False, f"{type(exc).__name__}: {exc}")] * len(entry.names)
        dt, cpu = time.perf_counter() - t0, time.process_time() - c0
        for (name, criterion), (passed, detail) in zip(entry.names, pairs):
            outcome = CheckOutcome(name, criterion, bool(passed), detail, dt, cpu)
            done[name] = outcome
            results.append(outcome)
            if printer is not None:
                mark = "PASS" if outcome.passed else "FAIL"
                printer(f"[{mark}] (criterion {outcome.criterion}) {outcome.name}: "
                        f"{outcome.detail} [{outcome.seconds:.1f}s]")
    return results
