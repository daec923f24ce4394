"""Three independent QGT computation pathways plus a consistency checker.

Pathways over a (model, point, state):
  * qgt_perturbative  - spectral sum over deformation matrix elements,
    G_AB = sum_{m != n} <n|O_A|m><m|O_B|n> / (E_m - E_n)^2, all index keys
    (parameters and phase-space translations).
  * qgt_overlap_fd    - central differences of gauge-fixed eigenvectors,
    G_ij = <d_i n|d_j n> - <d_i n|n><n|d_j n> (parameter block only).
  * covariance_from_state + phase_block_from_covariance - second moments
    mapped onto the phase-space block (g_qq = sigma_pp, g_qp = -sigma_qp,
    g_pp = sigma_qq, Im = Omega/2).

All pathways must agree; consistency_report quantifies the deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import StateTrackingError
from .fock import FockBasis, Spectrum, eigh
from .gauss import CovarianceMatrix, symplectic_form
from .models.base import Model, ParamPoint

HERMITICITY_RTOL = 1e-10
FD_STEP_REL = 1e-4
DISCARD_TOP = 0.2


@dataclass(frozen=True)
class StateSelector:
    """Which eigenstate to study and how to locate it in the spectrum.

    energy-order takes the k-th lowest level (adequate for one mode);
    overlap-track finds the eigenvector with maximal overlap against the
    analytic normal-mode product state (required for two modes, where energy
    ordering scrambles the (m, n) labels).
    """

    quantum_numbers: tuple[int, ...]
    resolution: str = "auto"
    min_overlap: float = 0.9

    def __post_init__(self):
        qn = tuple(int(n) for n in np.atleast_1d(self.quantum_numbers))
        if any(n < 0 for n in qn):
            raise ValueError("quantum numbers must be non-negative")
        if self.resolution not in ("auto", "energy-order", "overlap-track"):
            raise ValueError(f"unknown resolution {self.resolution!r}")
        object.__setattr__(self, "quantum_numbers", qn)

    def mode(self, model: Model) -> str:
        if self.resolution != "auto":
            return self.resolution
        return "energy-order" if model.dof == 1 else "overlap-track"


def selector(*qn: int, **kw) -> StateSelector:
    return StateSelector(tuple(qn), **kw)


@dataclass(frozen=True)
class SelectedState:
    index: int
    energy: float
    vector: np.ndarray
    overlap: float


def _levels_at_or_below(model: Model, point: ParamPoint, qn: tuple[int, ...],
                        cutoff: int) -> int:
    """Analytic normal-mode levels, occupations below the cutoff, whose
    excitation energy sum w_a m_a does not exceed that of `qn`."""
    freqs = np.asarray(model.normal_modes(point).frequencies)
    grid = np.indices((cutoff,) * len(qn)).reshape(len(qn), -1)
    return int(np.count_nonzero(freqs @ grid <= freqs @ np.asarray(qn)))


def select_state(model: Model, point: ParamPoint, sel: StateSelector,
                 fb: FockBasis, spectrum: Spectrum | None = None) -> SelectedState:
    """Locate the eigenstate named by the selector's quantum numbers.

    Without a spectrum, only a window of the lowest levels is solved for:
    n + 3 in energy order, and in overlap tracking the analytic normal-mode
    levels at or below the target plus 2.
    """
    qn = model._check_qn(sel.quantum_numbers)
    tracking = sel.mode(model) == "overlap-track"
    if not tracking and model.dof != 1:
        raise ValueError("energy-order resolution is only safe for one mode")
    spec = spectrum
    if spec is None:
        window = (_levels_at_or_below(model, point, qn, fb.cutoff) + 2 if tracking
                  else qn[0] + 3)
        spec = eigh(model.hamiltonian(point, fb), lowest=window)
    if not tracking:
        idx = qn[0]
        if idx >= spec.dim:
            raise ValueError(f"state {idx} beyond basis dimension {spec.dim}")
        return SelectedState(idx, float(spec.energies[idx]), spec.vector(idx), 1.0)
    ladders = model.normal_mode_ladders(point, fb)
    target = spec.vector(0).astype(complex)
    for b, n in zip(ladders, qn):
        raising = b.adjoint()
        for _ in range(n):
            target = raising.apply(target)
    norm = np.linalg.norm(target)
    if norm == 0:
        raise StateTrackingError("normal-mode target state vanished (cutoff too small)")
    target /= norm
    overlaps = np.abs(spec.overlaps(target))
    idx = int(np.argmax(overlaps))
    if overlaps[idx] < sel.min_overlap:
        raise StateTrackingError(
            f"best overlap {overlaps[idx]:.3f} with the ({', '.join(map(str, qn))}) "
            f"normal-mode state is below {sel.min_overlap}"
        )
    return SelectedState(idx, float(spec.energies[idx]), spec.vector(idx),
                         float(overlaps[idx]))


@dataclass(frozen=True)
class QGTResult:
    """Complex QGT block with labeled indices.

    Hermitian by construction: the real part is the (generalized) metric,
    -2x the imaginary part is the (generalized) Berry curvature.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    quantum_numbers: tuple[int, ...]
    method: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (len(self.labels),) * 2:
            raise ValueError("values shape does not match labels")
        object.__setattr__(self, "values", v)

    def hermiticity_defect(self) -> float:
        scale = max(np.abs(self.values).max(), 1e-300)
        return float(np.abs(self.values - self.values.conj().T).max() / scale)

    def block(self, labels: Sequence[str]) -> np.ndarray:
        idx = [self.labels.index(name) for name in labels]
        return self.values[np.ix_(idx, idx)]

    def parameter_block(self, model: Model) -> np.ndarray:
        return self.block(model.param_names)

    def phase_block(self, model: Model) -> np.ndarray:
        return self.block(model.phase_labels)


def split(result: QGTResult) -> tuple[np.ndarray, np.ndarray]:
    """(metric, berry) = (Re G, -2 Im G); rejects non-Hermitian input."""
    if result.hermiticity_defect() > HERMITICITY_RTOL:
        raise ValueError(
            f"QGT block is not Hermitian (defect {result.hermiticity_defect():.2e})"
        )
    g = result.values.real
    return 0.5 * (g + g.T), -2.0 * result.values.imag


def _keep_count(dim: int, discard_top: float) -> int:
    return max(2, dim - int(math.floor(dim * discard_top)))


def qgt_perturbative(model: Model, point: ParamPoint, sel: StateSelector,
                     fb: FockBasis, *, discard_top: float = DISCARD_TOP,
                     spectrum: Spectrum | None = None,
                     state: SelectedState | None = None) -> QGTResult:
    """Spectral-sum QGT over every key: parameters and (q_a, p_a) translations.

    The top `discard_top` fraction of eigenpairs is dropped from the sum;
    truncated-basis eigenvectors near the cutoff are boundary-contaminated.
    """
    model.validate(point)
    spec = spectrum if spectrum is not None else eigh(model.hamiltonian(point, fb))
    keep = _keep_count(spec.dim, discard_top)
    if state is None:
        state = select_state(model, point, sel, fb, spectrum=spec)
    if state.index >= keep:
        raise ValueError(
            f"selected state {state.index} lies in the discarded top of the spectrum"
        )
    spec.check_nondegenerate(state.index, upto=keep)
    ops = model.deformations(point, fb)
    labels = model.labels
    images = np.column_stack([ops[name].apply(state.vector) for name in labels])
    amps = spec.overlaps(images, upto=keep)  # <m|O_A|n>, one row per level m
    gaps = np.abs(spec.energies[:keep] - state.energy)
    gaps[state.index] = np.inf
    weighted = amps / gaps[:, None]
    g = weighted.conj().T @ weighted  # W^dag W, W_mA = <m|O_A|n>/|E_m - E_n|
    return QGTResult(labels, g, tuple(sel.quantum_numbers), "perturbative")


def _fd_steps(point: ParamPoint, step) -> np.ndarray:
    n = len(point.values)
    if step is None:
        return np.array([FD_STEP_REL * max(abs(v), 1.0) for v in point.values])
    arr = np.broadcast_to(np.asarray(step, dtype=float), (n,)).copy()
    if np.any(arr <= 0):
        raise ValueError("FD steps must be positive")
    return arr


def _tracked_vector(spec: Spectrum, ref: np.ndarray, min_overlap: float,
                    rng: np.random.Generator | None) -> np.ndarray:
    """Find the displaced twin of `ref` and align its phase to it."""
    overlaps = spec.overlaps(ref)
    idx = int(np.argmax(np.abs(overlaps)))
    mag = abs(overlaps[idx])
    if mag < min_overlap:
        raise StateTrackingError(
            f"state tracking lost across displacement (overlap {mag:.3f})"
        )
    vec = spec.states[:, idx].astype(complex)
    if rng is not None:  # deliberate gauge twist; alignment must undo it
        vec = vec * np.exp(2j * math.pi * rng.random())
    phase = np.vdot(vec, ref)
    vec = vec * (phase / abs(phase))
    return vec


def qgt_overlap_fd(model: Model, point: ParamPoint, sel: StateSelector,
                   fb: FockBasis, *, step=None, richardson: bool = False,
                   phase_rng: np.random.Generator | None = None,
                   spectrum: Spectrum | None = None,
                   cache: dict | None = None,
                   state: SelectedState | None = None) -> QGTResult:
    """Provost-Vallee QGT of the parameter block via central differences.

    Displaced eigenvectors are matched to the center state by overlap and
    phase-aligned to it, which makes the result invariant under any incoming
    eigenvector phases (pass phase_rng to twist them deliberately and check).
    With richardson=True the (h, h/2) extrapolant is returned.
    """
    model.validate(point)
    spec = spectrum if spectrum is not None else eigh(model.hamiltonian(point, fb))
    if state is None:
        state = select_state(model, point, sel, fb, spectrum=spec)
    steps = _fd_steps(point, step)
    cache = cache if cache is not None else {}

    def displaced(i: int, sign: int, h: float) -> Spectrum:
        key = (i, sign, float(h))
        if key not in cache:
            shifted = point.shifted(i, sign * h)
            model.validate(shifted)
            cache[key] = eigh(model.hamiltonian(shifted, fb))
        return cache[key]

    def one_pass(hs: np.ndarray) -> np.ndarray:
        ref = state.vector.astype(complex)
        derivs = []
        for i in range(len(point.values)):
            plus = _tracked_vector(displaced(i, +1, hs[i]), ref,
                                   sel.min_overlap, phase_rng)
            minus = _tracked_vector(displaced(i, -1, hs[i]), ref,
                                    sel.min_overlap, phase_rng)
            derivs.append((plus - minus) / (2 * hs[i]))
        n = len(derivs)
        g = np.empty((n, n), dtype=complex)
        for i in range(n):
            di_n = np.vdot(derivs[i], ref)
            for j in range(n):
                g[i, j] = np.vdot(derivs[i], derivs[j]) - di_n * np.vdot(ref, derivs[j])
        return g

    g = one_pass(steps)
    if richardson:
        g = (4.0 * one_pass(steps / 2) - g) / 3.0
    g = 0.5 * (g + g.conj().T)
    return QGTResult(model.param_names, g, tuple(sel.quantum_numbers), "overlap-fd")


def covariance_from_state(model: Model, point: ParamPoint, sel: StateSelector,
                          fb: FockBasis, *,
                          spectrum: Spectrum | None = None,
                          state: SelectedState | None = None) -> CovarianceMatrix:
    """Quadrature covariance sigma_ab of the selected eigenstate."""
    model.validate(point)
    if state is None:
        state = select_state(model, point, sel, fb, spectrum=spectrum)
    qs, ps = model.qp_operators(fb)
    quads = qs + ps
    vec = state.vector.astype(complex)
    # for Hermitian r_i: <{r_i, r_j}>/2 = Re[(r_i v)^dag (r_j v)]
    images = [op.apply(vec) for op in quads]
    firsts = np.array([np.vdot(vec, w).real for w in images])
    n2 = len(quads)
    sigma = np.empty((n2, n2))
    for i in range(n2):
        for j in range(i, n2):
            moment = np.vdot(images[i], images[j]).real
            sigma[i, j] = sigma[j, i] = moment - firsts[i] * firsts[j]
    return CovarianceMatrix(fb.modes, sigma)


def phase_block_from_covariance(cov: CovarianceMatrix,
                                quantum_numbers: tuple[int, ...] = ()) -> QGTResult:
    """Phase-space QGT block from the covariance matrix.

    Re: g_{q_a q_b} = sigma_{p_a p_b}, g_{q_a p_b} = -sigma_{q_a p_b},
    g_{p_a p_b} = sigma_{q_a q_b}.  Im: Omega/2 (i.e. F = -Omega).
    """
    n = cov.modes
    s = cov.entries
    qq, pp, qp = s[:n, :n], s[n:, n:], s[:n, n:]
    real = np.block([[pp, -qp], [-qp.T, qq]])
    values = real + 0.5j * symplectic_form(n)
    labels = tuple(f"q{a + 1}" for a in range(n)) + tuple(f"p{a + 1}" for a in range(n))
    return QGTResult(labels, values, tuple(quantum_numbers), "covariance-derived")


@dataclass(frozen=True)
class Comparison:
    name: str
    deviation: float
    tolerance: float
    relative: bool

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


@dataclass(frozen=True)
class ConsistencyReport:
    model: str
    point: tuple[float, ...]
    quantum_numbers: tuple[int, ...]
    comparisons: tuple[Comparison, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.comparisons)

    def deviation(self, name: str) -> float:
        for c in self.comparisons:
            if c.name == name:
                return c.deviation
        raise KeyError(name)


DEFAULT_TOLERANCES = {
    "param:perturbative-vs-overlap-fd": 1e-5,
    "phase:perturbative-vs-covariance": 1e-8,
    "param:perturbative-vs-closed": 1e-6,
    "phase:perturbative-vs-closed": 1e-6,
}


def _max_abs(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return _max_abs(a, b) / max(float(np.abs(b).max()), 1e-300)


def consistency_report(model: Model, point: ParamPoint, sel: StateSelector,
                       fb: FockBasis, tolerances: dict | None = None,
                       *, fd_step=None, spectrum: Spectrum | None = None,
                       fd_cache: dict | None = None) -> ConsistencyReport:
    """Pairwise agreement of all runnable pathways (and closed forms)."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    spec = spectrum if spectrum is not None else eigh(model.hamiltonian(point, fb))
    state = select_state(model, point, sel, fb, spectrum=spec)
    pert = qgt_perturbative(model, point, sel, fb, spectrum=spec, state=state)
    fd = qgt_overlap_fd(model, point, sel, fb, step=fd_step,
                        spectrum=spec, cache=fd_cache, state=state)
    cov = covariance_from_state(model, point, sel, fb, spectrum=spec, state=state)
    phase_cov = phase_block_from_covariance(cov, tuple(sel.quantum_numbers))
    comps = [
        Comparison("param:perturbative-vs-overlap-fd",
                   _max_abs(pert.parameter_block(model), fd.values),
                   tol["param:perturbative-vs-overlap-fd"], False),
        Comparison("phase:perturbative-vs-covariance",
                   _max_abs(pert.phase_block(model), phase_cov.values),
                   tol["phase:perturbative-vs-covariance"], False),
    ]
    qn = model._check_qn(sel.quantum_numbers)
    for quantity, getter, key in (
        ("qgt", pert.parameter_block, "param:perturbative-vs-closed"),
        ("phase_qgt", pert.phase_block, "phase:perturbative-vs-closed"),
    ):
        if quantity not in model._closed:
            continue
        try:
            closed = np.asarray(model.closed_form(quantity, point, qn), dtype=complex)
        except ValueError:
            continue  # closed form not defined for these quantum numbers
        comps.append(Comparison(key, _rel(getter(model), closed), tol[key], True))
    return ConsistencyReport(model.name, point.values, qn, tuple(comps))
