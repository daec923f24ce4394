"""Seeded probe workloads over the public qgeom API, with their oracles.

A probe is one library call (or a short fixed chain of calls) whose output
is checked against an oracle. Probes are grouped into units, the smallest
batch a workload runs as a whole: a model point with all its states for the
cross-method workloads, one ground state for `entangle-sweep`, one round of
curvature probes for `geometry-fd`. `unit()` returns the calls each layer
must have received during that unit, which the traced run checks.

Inputs come only from the seed. DOMAINS is the single statement of the
sampled ranges; a draw is rejected only by the rules written here, never
because a probe failed on it.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import sys
from time import perf_counter

import numpy as np

from qgeom import fock, gauss, geometry, qgt
from qgeom.models import get_model
from qgeom.models.gaussian import default_gaussian, oscillator_slice_gaussian

# Oracle tolerances of the acceptance suite (qgeom.acceptance); loosen none.
CURVATURE_TOL = 1e-4  # -16/b_n, -4, scalar:param-z1 (and 2D direct vs Ricci)
LIN_MINUS_8_TOL = 1e-3
FLAT_RATIO_MAX = 1.0  # max |Riemann| / flatness threshold
ENTANGLEMENT_TOL = 1e-6

# Sampled ranges. "u" factors scale a coupling by its domain bound.
DOMAINS = {
    "sym-coupled": {"k0": (0.6, 2.2), "k1": (0.3, 2.2)},
    "lin-coupled": {"A": (0.7, 1.3), "B": (1.8, 3.0), "u": (0.2, 0.6)},  # C = u 2 sqrt(AB)
    "gho": {"X": (0.8, 2.5), "Z": (0.8, 2.5), "u": (-0.6, 0.6)},  # Y = u sqrt(XZ)
    "gho-linear": {"W": (0.3, 1.5), "X": (0.8, 2.0), "u": (-0.5, 0.5)},  # Y = u sqrt(X), Z = 1
    "gaussian": {"l1": (0.2, 1.0), "l2": (-0.5, 0.5)},
    "oscillator-slice": {"W": (-1.0, 1.0), "X": (0.5, 2.0)},
}
# Two-mode draws whose targeted level (m, n <= 2) lies within
# SEPARATION * min(w) of another level (m', n' < SEPARATION_LEVELS), from the
# closed-form normal frequencies, are rejected: that is the physical
# DegeneracyError region.
SEPARATION = 0.1
SEPARATION_LEVELS = 8

STATES_2MODE = tuple((m, n) for m in range(3) for n in range(3))
GHO_SUB_LEVELS = (0, 1, 5, 100)
Z1_LEVELS = (0, 1, 3)
FLAT_STATES = ((0, 0), (1, 2))

# Dense symmetric eigendecomposition with eigenvectors: about 9 n^3 flops
# (Golub & Van Loan, Matrix Computations, 4th ed., sec. 8.3). Computed from
# the dimension, not measured.
EIGH_FLOP_PER_N3 = 9

# Layers measured by the traced run: module -> public functions. Model
# methods are wrapped on the instances a workload builds.
LAYER_FUNCTIONS = {
    "fock": ("eigh", "quadratics"),
    "qgt": ("consistency_report", "select_state", "qgt_perturbative",
            "qgt_overlap_fd", "covariance_from_state"),
    "geometry": ("ricci_scalar", "curvature_report", "scalar_2d_direct",
                 "christoffel", "riemann"),
    "gauss": ("reduce", "symplectic_eigenvalues", "purity", "von_neumann_entropy"),
}
MODEL_METHODS = ("hamiltonian", "deformations", "normal_mode_ladders", "closed_form")
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns) \
    + tuple(f"models.{m}" for m in MODEL_METHODS)


class Recorder:
    """Times probes and counts the ones that raise or miss their oracle."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failures: list[tuple[int, str]] = []

    def run(self, call, verify):
        """Time call(); verify(result) returns None or what went wrong."""
        pid = len(self.latencies)
        if self.tracer is not None:
            self.tracer.probe = pid
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising probe is a counted failure
            self._record(pid, perf_counter() - start, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            if self.tracer is not None:
                self.tracer.probe = -1
        elapsed = perf_counter() - start
        try:
            problem = verify(result)
        except Exception as exc:
            problem = f"oracle raised {type(exc).__name__}: {exc}"
        self._record(pid, elapsed, problem)
        return result

    def _record(self, pid, elapsed, problem):
        self.latencies.append(elapsed)
        if problem is not None:
            self.failures.append((pid, problem))
            print(f"probe {pid} failed: {problem}", file=sys.stderr)


def _uniform(rng, lo_hi) -> float:
    return float(rng.uniform(*lo_hi))


def draw(rng, family: str) -> tuple[float, ...]:
    """One parameter tuple of a model family from DOMAINS."""
    d = DOMAINS[family]
    if family == "sym-coupled":
        return _uniform(rng, d["k0"]), _uniform(rng, d["k1"])
    if family == "lin-coupled":
        A, B = _uniform(rng, d["A"]), _uniform(rng, d["B"])
        return A, B, _uniform(rng, d["u"]) * 2 * math.sqrt(A * B)
    if family == "gho":
        X, Z = _uniform(rng, d["X"]), _uniform(rng, d["Z"])
        return X, _uniform(rng, d["u"]) * math.sqrt(X * Z), Z
    if family == "gho-linear":
        W, X = _uniform(rng, d["W"]), _uniform(rng, d["X"])
        return W, X, _uniform(rng, d["u"]) * math.sqrt(X), 1.0
    return tuple(_uniform(rng, lo_hi) for lo_hi in d.values())


def well_separated(freqs, states=STATES_2MODE) -> bool:
    """No targeted level within SEPARATION * min(w) of another level."""
    w1, w2 = freqs
    gap = SEPARATION * min(w1, w2)
    levels = range(SEPARATION_LEVELS)
    for m, n in states:
        e = w1 * (m + 0.5) + w2 * (n + 0.5)
        for a in levels:
            for b in levels:
                if (a, b) != (m, n) and abs(w1 * (a + 0.5) + w2 * (b + 0.5) - e) < gap:
                    return False
    return True


def _passed(report) -> str | None:
    if report.passed:
        return None
    worst = max(report.comparisons, key=lambda c: c.deviation / c.tolerance)
    return f"{worst.name} deviation {worst.deviation:.3e} > {worst.tolerance:.0e}"


def _within(value, reference, tol, what) -> str | None:
    dev = abs(value - reference)
    return None if dev <= tol else f"{what}: |{value:.12g} - {reference:.12g}| = {dev:.3e} > {tol:.0e}"


def cross_method_point(rec: Recorder, model, point, states, cutoff) -> dict:
    """One consistency_report probe per state, sharing one spectrum and one
    FD cache as the acceptance suite does; the shared spectrum is part of
    the first probe's latency."""
    fb = model.default_basis(point, cutoff)
    shared: dict = {"fd": {}}

    def probe(qn):
        if "spectrum" not in shared:
            shared["spectrum"] = fock.eigh(model.hamiltonian(point, fb))
        return qgt.consistency_report(model, point, qgt.StateSelector(qn), fb,
                                      spectrum=shared["spectrum"],
                                      fd_cache=shared["fd"])

    for qn in states:
        rec.run(lambda qn=qn: probe(qn), _passed)
    solves = 1 + 2 * len(point.values)
    return {
        "fock.eigh": solves,
        "models.hamiltonian": solves,
        "models.deformations": len(states),
        "qgt.consistency_report": len(states),
        "qgt.select_state": len(states),
        "models.normal_mode_ladders": len(states) if model.dof == 2 else 0,
    }


class Workload:
    name = ""
    cutoff = 0
    trace_units = 1  # units the traced run measures

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.units = 0
        self.tracer = None  # set by the traced run
        self.models: list = []  # instances whose methods the traced run wraps

    def twin(self, stream: int) -> "Workload":
        """The same workload drawing from another input stream of its seed."""
        other = copy.copy(self)
        other.rng = np.random.default_rng([self.seed, stream])
        other.units = 0
        return other

    def warm_up(self, rec: Recorder) -> None:
        raise NotImplementedError

    def unit(self, rec: Recorder) -> dict:
        raise NotImplementedError


class XMethod2Mode(Workload):
    name = "xmethod-2mode"
    trace_units = 2

    def __init__(self, seed: int, cutoff: int = 40):
        super().__init__(seed)
        self.cutoff = cutoff
        self.models = [get_model("sym-coupled"), get_model("lin-coupled")]

    def warm_up(self, rec):
        model = self.models[0]
        cross_method_point(rec, model, model.point(1.0, 0.8), [(0, 0)], self.cutoff)

    def unit(self, rec):
        model = self.models[self.units % 2]
        self.units += 1
        while True:
            point = model.point(*draw(self.rng, model.name))
            if well_separated(model.normal_modes(point).frequencies):
                break
        return cross_method_point(rec, model, point, STATES_2MODE, self.cutoff)


class XMethod1Mode(Workload):
    name = "xmethod-1mode"
    trace_units = 300

    def __init__(self, seed: int, cutoff: int = 80):
        super().__init__(seed)
        self.cutoff = cutoff
        self.models = [get_model("gho"), get_model("gho-linear"), get_model("gaussian")]

    def warm_up(self, rec):
        model = self.models[0]
        cross_method_point(rec, model, model.point(2.0, 0.5, 1.0), [(0,)], self.cutoff)

    def unit(self, rec):
        model = self.models[self.units % 3]
        self.units += 1
        point = model.point(*draw(self.rng, model.name))
        # the Gaussian closed forms cover the ground state only
        states = [(0,)] if model.name == "gaussian" else [(0,), (1,), (2,)]
        return cross_method_point(rec, model, point, states, self.cutoff)


def corrected_lin_purity(A: float, B: float, C: float) -> float:
    """Ground-state purity of the lin-coupled pair as README corrects it."""
    E = math.sqrt(4 * A * B - C * C)
    F = A + B + E
    return math.sqrt(2 * E * F / (2 * E * F + C * C))


def entropy_from_nu(nu: float) -> float:
    if nu <= 0.5:
        return 0.0
    return (nu + 0.5) * math.log(nu + 0.5) - (nu - 0.5) * math.log(nu - 0.5)


class EntangleSweep(Workload):
    name = "entangle-sweep"
    trace_units = 8

    def __init__(self, seed: int, cutoff: int = 40):
        super().__init__(seed)
        self.cutoff = cutoff
        self.models = [get_model("sym-coupled"), get_model("lin-coupled")]

    def _probe(self, rec, model, point):
        def call():
            fb = model.default_basis(point, self.cutoff)
            cov = qgt.covariance_from_state(model, point, qgt.selector(0, 0), fb)
            red = gauss.reduce(cov, [0])
            return (gauss.purity(red), gauss.von_neumann_entropy(red),
                    float(gauss.symplectic_eigenvalues(red)[0]))

        def verify(out):
            mu, s, nu = out
            if model.name == "lin-coupled":
                # not the transcribed closed form (the known-red acceptance check)
                ref_mu = corrected_lin_purity(*point.values)
                ref_nu = 1.0 / (2.0 * ref_mu)  # one-mode Gaussian: mu = 1/(2 nu)
                ref_s = entropy_from_nu(ref_nu)
            else:
                ref_mu = model.closed_form("purity", point, (0, 0))
                ref_s = model.closed_form("entropy", point, (0, 0))
                ref_nu = model.closed_form("symplectic_nu", point, (0, 0))
            return (_within(mu, ref_mu, ENTANGLEMENT_TOL, "purity")
                    or _within(s, ref_s, ENTANGLEMENT_TOL, "entropy")
                    or _within(nu, ref_nu, ENTANGLEMENT_TOL, "nu"))

        rec.run(call, verify)

    def warm_up(self, rec):
        model = self.models[0]
        self._probe(rec, model, model.point(1.0, 1.0))

    def unit(self, rec):
        model = self.models[self.units % 2]
        self.units += 1
        self._probe(rec, model, model.point(*draw(self.rng, model.name)))
        return {
            "fock.eigh": 1,
            "models.hamiltonian": 1,
            "qgt.covariance_from_state": 1,
            "qgt.select_state": 1,
            "models.normal_mode_ladders": 1,
            "gauss.reduce": 1,
            "gauss.purity": 1,
            "gauss.von_neumann_entropy": 1,
            "gauss.symplectic_eigenvalues": 2,  # once directly, once in the entropy
        }


class GeometryFD(Workload):
    """Curvature of closed-form metric fields; no Fock basis is built."""

    name = "geometry-fd"
    trace_units = 300

    def __init__(self, seed: int):
        super().__init__(seed)
        self.gho = get_model("gho")
        self.gho_linear = get_model("gho-linear")
        self.lin = get_model("lin-coupled")
        self.sym = get_model("sym-coupled")
        # Families with analytic sigma/mu gradients. A family without them
        # (GaussianModel's FD gradients) misses R = -4 by up to ~0.8 over
        # generic points, so it is not used as an oracle here (see SPEC.md).
        self.gaussians = [
            ("gaussian", default_gaussian()),
            ("oscillator-slice", oscillator_slice_gaussian()),
        ]
        self.models = [self.gho, self.gho_linear, self.lin, self.sym] \
            + [m for _, m in self.gaussians]

    def _field(self, model, which, qn, **kw):
        field = geometry.metric_field(model, which, qn, **kw)
        if self.tracer is not None:
            field = dataclasses.replace(
                field, func=self.tracer.counted("geometry.field_evals", field.func))
        return field

    def _ricci(self, rec, field, x, reference, tol, what):
        return rec.run(lambda: geometry.ricci_scalar(field, x)[1],
                       lambda r: _within(r, reference, tol, what))

    def _direct_2d(self, rec, field, x, ricci):
        def verify(r):
            if ricci is None:
                return "no ricci_scalar reference (its probe failed)"
            return _within(r, ricci, CURVATURE_TOL, "scalar_2d_direct vs ricci_scalar")
        rec.run(lambda: geometry.scalar_2d_direct(field, x), verify)

    def warm_up(self, rec):
        field = self._field(self.gho, "metric_sub:Z", (1,), coords=("X", "Y"),
                            fixed={"Z": 1.0})
        self._ricci(rec, field, np.array([2.0, 0.5]), -16.0 / 3.0, CURVATURE_TOL, "R + 16/b_1")

    def unit(self, rec):
        rng = self.rng
        round_no = self.units
        self.units += 1

        # R = -16/b_n on the Z = 1 submanifold of the generalized oscillator
        n = GHO_SUB_LEVELS[int(rng.integers(len(GHO_SUB_LEVELS)))]
        X, Y, _ = draw(rng, "gho")
        field = self._field(self.gho, "metric_sub:Z", (n,), coords=("X", "Y"),
                            fixed={"Z": 1.0})
        x = np.array([X, Y])
        r = self._ricci(rec, field, x, -16.0 / (n * n + n + 1), CURVATURE_TOL, f"R + 16/b_{n}")
        self._direct_2d(rec, field, x, r)

        # R = -4 for the Gaussian families, one family per round in turn
        family, model = self.gaussians[round_no % len(self.gaussians)]
        field = self._field(model, "metric", (0,))
        x = np.array(draw(rng, family))
        r = self._ricci(rec, field, x, -4.0, CURVATURE_TOL, f"R + 4 ({family})")
        self._direct_2d(rec, field, x, r)

        # R = -8 for the lin-coupled ground-state metric
        field = self._field(self.lin, "metric", (0, 0))
        self._ricci(rec, field, np.array(draw(rng, "lin-coupled")), -8.0,
                    LIN_MINUS_8_TOL, "R + 8")

        # closed-form scalar curvature of the gho-linear Z = 1 slice
        n = Z1_LEVELS[int(rng.integers(len(Z1_LEVELS)))]
        W, X, Y, _ = draw(rng, "gho-linear")
        closed = self.gho_linear.closed_form("scalar:param-z1",
                                             self.gho_linear.point(W, X, Y, 1.0), (n,))
        field = self._field(self.gho_linear, "metric_z1", (n,), coords=("W", "X", "Y"),
                            fixed={"Z": 1.0})
        self._ricci(rec, field, np.array([W, X, Y]), closed, CURVATURE_TOL,
                    "R - scalar:param-z1")

        # the sym-coupled parameter manifold is flat
        qn = FLAT_STATES[int(rng.integers(len(FLAT_STATES)))]
        field = self._field(self.sym, "metric", qn)

        def flat(rep):
            ratio = float(np.abs(rep.riemann).max()) / rep.flat_threshold
            return None if ratio <= FLAT_RATIO_MAX else \
                f"|Riemann|/threshold = {ratio:.3f} > {FLAT_RATIO_MAX}"

        rec.run(lambda: geometry.curvature_report(field, np.array(draw(rng, "sym-coupled"))),
                flat)
        return {
            "fock.eigh": 0,
            "geometry.ricci_scalar": 4,
            "geometry.scalar_2d_direct": 2,
            "geometry.curvature_report": 1,
        }


WORKLOADS = {w.name: w for w in (XMethod2Mode, XMethod1Mode, EntangleSweep, GeometryFD)}


def instrument(tracer, work: Workload) -> None:
    """Wrap every layer function in each qgeom namespace that holds it.

    Functions imported by value (fock.eigh in qgt, fock.quadratics in the
    model modules) are wrapped wherever the same object is bound; calls
    within a module resolve through its globals and are caught too.
    """
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "qgeom" or name.startswith("qgeom.")]
    observers = {"fock.eigh": _observe_eigh}
    for module_name, functions in LAYER_FUNCTIONS.items():
        home = sys.modules[f"qgeom.{module_name}"]
        for fn_name in functions:
            target = getattr(home, fn_name)
            span = f"{module_name}.{fn_name}"
            for ns in namespaces:
                if vars(ns).get(fn_name) is target:
                    tracer.wrap(ns, fn_name, span, observers.get(span))
    for model in work.models:
        for method in MODEL_METHODS:
            tracer.wrap(model, method, f"models.{method}")


def _observe_eigh(tracer, args, spectrum) -> None:
    op = args[0]
    n = op.shape[0] if hasattr(op, "shape") else op.dim
    c = tracer.counts
    c["fock.eigh.dim_max"] = max(c["fock.eigh.dim_max"], n)
    c["fock.eigh.pairs_computed"] += len(spectrum.energies)
    c["fock.eigh.flop"] += EIGH_FLOP_PER_N3 * n ** 3
