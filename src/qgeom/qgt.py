"""Three independent QGT computation pathways plus a consistency checker.

Pathways over a (model, point, state):
  * qgt_perturbative  - spectral sum over deformation matrix elements,
    G_AB = sum_{m != n} <n|O_A|m><m|O_B|n> / (E_m - E_n)^2, all index keys
    (parameters and phase-space translations).
  * qgt_overlap_fd    - central differences of gauge-fixed eigenvectors
    (one-sided at a domain edge),
    G_ij = <d_i n|d_j n> - <d_i n|n><n|d_j n> (parameter block only).
  * covariance_from_state + phase_block_from_covariance - second moments
    mapped onto the phase-space block by the two `gauss` maps
    (g_qq = sigma_pp, g_qp = -sigma_qp, g_pp = sigma_qq, Im = Omega/2),
    the same ones `Model` derives its closed phase_qgt and covariance with.
The model's closed forms (qgt, phase_qgt) are a fourth, exact one.

Two tables hold them. PATHWAYS maps each `eval --method` name to what the
pathway needs and to an adapter returning its "param"/"phase" blocks and
its `eval` columns. COMPARISONS lists each agreement once: name, pathways,
block, tolerance, relative or not. `run_pathways`, `compare` and so
`consistency_report`, `eval` and the acceptance suite read only these. A
new pathway is its function, an adapter calling it through this module's
globals (perfbench rebinds them), a PATHWAYS row and its COMPARISONS rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NumericalError, StateTrackingError
from .fock import FockBasis, Spectrum, eigh, quadratics
from .gauss import CovarianceMatrix, add_half_omega, quadrature_swap
from .models.base import Model, ParamPoint

# How far a QGT block handed to `split` may be from Hermitian, relative to its
# largest entry.
RESULT_HERMITICITY_RTOL = 1e-10
FD_STEP_REL = 1e-4
DISCARD_TOP = 0.2


@dataclass(frozen=True)
class StateSelector:
    """Which eigenstate to study: its quantum numbers, and the overlap with
    the analytic normal-mode state that a two-mode match must reach.

    One mode takes the n-th lowest level (energy order). Two modes track the
    eigenvector with maximal overlap against the normal-mode product state,
    since energy ordering scrambles the (m, n) labels.
    """

    quantum_numbers: tuple[int, ...]
    min_overlap: float = 0.9

    def __post_init__(self):
        qn = tuple(int(n) for n in np.atleast_1d(self.quantum_numbers))
        if any(n < 0 for n in qn):
            raise ValueError("quantum numbers must be non-negative")
        if not 0 < self.min_overlap <= 1:
            raise ValueError(f"min_overlap must lie in (0, 1], not {self.min_overlap}")
        object.__setattr__(self, "quantum_numbers", qn)


def selector(*qn: int, **kw) -> StateSelector:
    return StateSelector(tuple(qn), **kw)


@dataclass(frozen=True)
class SelectedState:
    """The selected eigenstate. index is its position in the spectrum that was
    searched: the caller's spectrum, or the window `select_state` solved, which
    may hold one parity sector only."""

    index: int
    energy: float
    vector: np.ndarray
    overlap: float


def _levels_at_or_below(freqs: np.ndarray, qn: tuple[int, ...], cutoff: int,
                        parity: int | None = None) -> int:
    """Analytic normal-mode levels, occupations below the cutoff, whose
    excitation energy sum w_a m_a does not exceed that of `qn`; with a
    parity, only the levels whose sum m_a has that parity."""
    grid = np.indices((cutoff,) * len(qn)).reshape(len(qn), -1)
    below = freqs @ grid <= freqs @ np.asarray(qn)
    if parity is not None:
        below &= grid.sum(axis=0) % 2 == parity
    return int(np.count_nonzero(below))


# How far a candidate level's overlap must clear min_overlap to be accepted
# without a scan: far above the rounding that separates one inner product
# from the same entry of the scan's matrix product.
MATCH_SLACK = 1e-12


def _best_match(spec: Spectrum, ref: np.ndarray, candidate: int,
                min_overlap: float) -> tuple[int, float]:
    """The level k with the largest |<k|ref>| for a unit `ref`, and that value.

    The levels are orthonormal, so sum_k |<k|ref>|^2 <= 1 (Bessel). A
    candidate level with |<c|ref>| >= min_overlap + MATCH_SLACK, where
    min_overlap > 1/sqrt(2), therefore leaves every other level below
    1/sqrt(2): it is the argmax the scan would return, and it passes the
    scan's min_overlap test too, found with one inner product. Otherwise,
    and whenever min_overlap <= 1/sqrt(2), every level is projected on.
    """
    if min_overlap > math.sqrt(0.5):
        mag = abs(np.vdot(spec.states[:, candidate], ref))
        if mag >= min_overlap + MATCH_SLACK:
            return candidate, float(mag)
    overlaps = np.abs(spec.overlaps(ref))
    idx = int(np.argmax(overlaps))
    return idx, float(overlaps[idx])


def select_state(model: Model, point: ParamPoint, sel: StateSelector,
                 fb: FockBasis, spectrum: Spectrum | None = None) -> SelectedState:
    """Locate the eigenstate named by the selector's quantum numbers: by
    energy order for one mode, by overlap tracking for two (`StateSelector`).

    Without a spectrum, only a window of the lowest levels is solved for:
    n + 3 in energy order, and in overlap tracking the analytic normal-mode
    levels at or below the target plus 2. A Hamiltonian without linear terms
    keeps the parity (-1)^(n_1 + ... + n_N), and the normal-mode state n has
    parity sum(n) mod 2, so overlap tracking then solves only that sector
    and counts only its levels; an odd target also takes the even sector's
    ground state, which it is raised from. Overlap tracking first tries the
    level nearest the analytic energy E_0 + w.n (see `_best_match`).
    A level selected from its own window must be nondegenerate over that
    window (otherwise DegeneracyError, which names the quantum numbers). A
    degenerate partner lies at or below the target, so the window always
    holds it.
    """
    qn = model._check_qn(sel.quantum_numbers)
    label = f"the ({', '.join(map(str, qn))}) state"
    tracking = model.dof != 1
    if tracking:
        freqs = np.asarray(model.normal_modes(point).frequencies)
    spec = ground = spectrum
    windowed = spectrum is None
    if windowed:
        H = model.hamiltonian(point, fb)
        if not tracking:
            spec = eigh(H, lowest=qn[0] + 3)
        else:
            parity = sum(qn) % 2 if H.keeps_parity else None
            window = _levels_at_or_below(freqs, qn, fb.cutoff, parity) + 2
            spec = ground = eigh(H, lowest=window, parity=parity)
            if parity == 1:
                ground = eigh(H, lowest=1, parity=0)
    if not tracking:
        idx = qn[0]
        if idx >= spec.dim:
            raise ValueError(f"state {idx} beyond basis dimension {spec.dim}")
        if windowed:
            spec.check_nondegenerate(idx, label=label)
        return SelectedState(idx, float(spec.energies[idx]), spec.vector(idx), 1.0)
    ladders = model.normal_mode_ladders(point, fb)
    target = ground.vector(0).astype(complex)
    for b, n in zip(ladders, qn):
        raising = b.adjoint()
        for _ in range(n):
            target = raising.apply(target)
    norm = np.linalg.norm(target)
    if norm == 0:
        raise StateTrackingError("normal-mode target state vanished (cutoff too small)")
    target /= norm
    expected = ground.energies[0] + freqs @ np.asarray(qn)
    candidate = int(np.argmin(np.abs(spec.energies - expected)))
    idx, mag = _best_match(spec, target, candidate, sel.min_overlap)
    if windowed:  # a degenerate level also scatters the overlap: report the cause
        spec.check_nondegenerate(idx, label=label)
    if mag < sel.min_overlap:
        raise StateTrackingError(
            f"best overlap {mag:.3f} with the ({', '.join(map(str, qn))}) "
            f"normal-mode state is below {sel.min_overlap}"
        )
    return SelectedState(idx, float(spec.energies[idx]), spec.vector(idx), mag)


@dataclass(frozen=True)
class QGTResult:
    """Complex QGT block with labeled indices.

    Hermitian by construction: the real part is the (generalized) metric,
    -2x the imaginary part is the (generalized) Berry curvature.
    """

    labels: tuple[str, ...]
    values: np.ndarray

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
    if result.hermiticity_defect() > RESULT_HERMITICITY_RTOL:
        raise ValueError(
            f"QGT block is not Hermitian (defect {result.hermiticity_defect():.2e})"
        )
    g = result.values.real
    return 0.5 * (g + g.T), -2.0 * result.values.imag


def _keep_count(dim: int, discard_top: float) -> int:
    return max(2, dim - int(math.floor(dim * discard_top)))


def qgt_perturbative(model: Model, point: ParamPoint, sel: StateSelector,
                     fb: FockBasis, *, spectrum: Spectrum | None = None,
                     state: SelectedState | None = None) -> QGTResult:
    """Spectral-sum QGT over every key: parameters and (q_a, p_a) translations.

    The top DISCARD_TOP fraction of eigenpairs is dropped from the sum;
    truncated-basis eigenvectors near the cutoff are boundary-contaminated.
    """
    model.validate(point)
    spec = spectrum if spectrum is not None else eigh(model.hamiltonian(point, fb))
    keep = _keep_count(spec.dim, DISCARD_TOP)
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
    return QGTResult(labels, g)


def _fd_steps(point: ParamPoint, step) -> np.ndarray:
    n = len(point.values)
    if step is None:
        return np.array([FD_STEP_REL * max(abs(v), 1.0) for v in point.values])
    arr = np.broadcast_to(np.asarray(step, dtype=float), (n,)).copy()
    if np.any(arr <= 0):
        raise ValueError("FD steps must be positive")
    return arr


def _tracked_vector(spec: Spectrum, ref: np.ndarray, energy: float,
                    min_overlap: float, rng: np.random.Generator | None) -> np.ndarray:
    """Find the displaced twin of `ref`, a level at `energy`, and align its
    phase to it. The twin level nearest that energy is tried first."""
    candidate = int(np.argmin(np.abs(spec.energies - energy)))
    idx, mag = _best_match(spec, ref, candidate, min_overlap)
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
                   fb: FockBasis, *, step=None,
                   phase_rng: np.random.Generator | None = None,
                   spectrum: Spectrum | None = None,
                   cache: dict | None = None,
                   state: SelectedState | None = None) -> QGTResult:
    """Provost-Vallee QGT of the parameter block via central differences.

    Displaced eigenvectors are matched to the center state by overlap and
    phase-aligned to it, which makes the result invariant under any incoming
    eigenvector phases (pass phase_rng to twist them deliberately and check).
    Where x - h or x + h leaves the model's domain, the derivative in that
    parameter is the second-order one-sided (-3 v(x) + 4 v(x + h) - v(x + 2h))
    / (2h) on the side where both points fit; DomainError only if neither does.
    """
    model.validate(point)
    spec = spectrum if spectrum is not None else eigh(model.hamiltonian(point, fb))
    if state is None:
        state = select_state(model, point, sel, fb, spectrum=spec)
    steps = _fd_steps(point, step)
    cache = cache if cache is not None else {}
    ref = state.vector.astype(complex)

    def key(i: int, delta: float) -> tuple:
        return i, 1 if delta > 0 else -1, float(abs(delta))

    def outside(i: int, delta: float) -> str | None:
        """Why x + delta e_i leaves the domain; None if it fits."""
        if key(i, delta) in cache:
            return None
        shifted = point.shifted(i, delta)
        try:
            model.validate(shifted)
        except DomainError as exc:
            at = ", ".join(f"{n}={v:g}" for n, v in zip(shifted.names, shifted.values))
            return f"({at}): {exc}"
        return None

    def twin(i: int, delta: float) -> np.ndarray:
        if key(i, delta) not in cache:
            cache[key(i, delta)] = eigh(model.hamiltonian(point.shifted(i, delta), fb))
        return _tracked_vector(cache[key(i, delta)], ref, state.energy,
                               sel.min_overlap, phase_rng)

    def derivative(i: int, h: float) -> np.ndarray:
        problem = outside(i, h) or outside(i, -h)
        if problem is None:
            return (twin(i, h) - twin(i, -h)) / (2 * h)
        for sign in (1, -1):
            if not (outside(i, sign * h) or outside(i, 2 * sign * h)):
                return sign * (4 * twin(i, sign * h) - twin(i, 2 * sign * h)
                               - 3 * ref) / (2 * h)
        raise DomainError(
            f"overlap-fd: at step h={h:g} in {point.names[i]}, neither the central "
            f"nor a one-sided difference fits in the domain; it leaves it at {problem}")

    derivs = [derivative(i, steps[i]) for i in range(len(point.values))]
    n = len(derivs)
    g = np.empty((n, n), dtype=complex)
    for i in range(n):
        di_n = np.vdot(derivs[i], ref)
        for j in range(n):
            g[i, j] = np.vdot(derivs[i], derivs[j]) - di_n * np.vdot(ref, derivs[j])
    g = 0.5 * (g + g.conj().T)
    return QGTResult(model.param_names, g)


def covariance_from_state(model: Model, point: ParamPoint, sel: StateSelector,
                          fb: FockBasis, *,
                          spectrum: Spectrum | None = None,
                          state: SelectedState | None = None) -> CovarianceMatrix:
    """Quadrature covariance sigma_ab of the selected eigenstate. A
    covariance that fails `CovarianceMatrix`'s checks raises NumericalError
    naming the cutoff, whose truncation is the likely cause."""
    model.validate(point)
    if state is None:
        state = select_state(model, point, sel, fb, spectrum=spectrum)
    ops = quadratics(fb)
    vec = state.vector.astype(complex)
    # for Hermitian r_i: <{r_i, r_j}>/2 = Re[(r_i v)^dag (r_j v)]
    images = [op.apply(vec) for op in ops]
    firsts = np.array([np.vdot(vec, w).real for w in images])
    n2 = len(ops)
    sigma = np.empty((n2, n2))
    for i in range(n2):
        for j in range(i, n2):
            moment = np.vdot(images[i], images[j]).real
            sigma[i, j] = sigma[j, i] = moment - firsts[i] * firsts[j]
    try:
        return CovarianceMatrix(fb.modes, sigma)
    except NumericalError as exc:  # a truncated basis can break the bound
        raise NumericalError(f"{exc} at cutoff {fb.cutoff}; a larger cutoff may "
                             "resolve it") from None


def phase_block_from_covariance(cov: CovarianceMatrix) -> QGTResult:
    """Phase-space QGT block from the covariance matrix.

    Re: g_{q_a q_b} = sigma_{p_a p_b}, g_{q_a p_b} = -sigma_{q_a p_b},
    g_{p_a p_b} = sigma_{q_a q_b}.  Im: Omega/2 (i.e. F = -Omega).
    """
    n = cov.modes
    values = add_half_omega(quadrature_swap(cov.entries))
    labels = tuple(f"q{a + 1}" for a in range(n)) + tuple(f"p{a + 1}" for a in range(n))
    return QGTResult(labels, values)


Blocks = dict[str, np.ndarray]  # "param" and/or "phase" -> complex QGT block


class Pathway(NamedTuple):
    """needs: "nothing", "state" (the selected eigenstate) or "spectrum" (every
    level, and the state). run(model, point, sel, fb, *, spectrum, state, step,
    cache) -> (blocks, columns); columns() gives the (prefix, labels, matrix)
    triples `eval` writes, so only `eval` pays for them."""

    needs: str
    run: Callable[..., tuple[Blocks, Callable[[], tuple]]]


def _perturbative(model, point, sel, fb, *, spectrum, state, **_):
    res = qgt_perturbative(model, point, sel, fb, spectrum=spectrum, state=state)

    def columns():
        metric, berry = split(res)
        return (("G", res.labels, res.values), ("metric", res.labels, metric),
                ("berry", res.labels, berry))
    return {"param": res.parameter_block(model), "phase": res.phase_block(model)}, columns


def _overlap_fd(model, point, sel, fb, *, spectrum, state, step, cache):
    res = qgt_overlap_fd(model, point, sel, fb, step=step, spectrum=spectrum,
                         cache=cache, state=state)
    return {"param": res.values}, lambda: (("G", res.labels, res.values),)


def _covariance(model, point, sel, fb, *, spectrum, state, **_):
    cov = covariance_from_state(model, point, sel, fb, spectrum=spectrum, state=state)
    res = phase_block_from_covariance(cov)
    return {"phase": res.values}, lambda: (("G", res.labels, res.values),
                                           ("sigma", res.labels, cov.entries))


def _closed_form(model, point, sel, fb, **_):
    """The catalog's qgt and phase_qgt, where it has them for this state."""
    heads = {"param": ("qgt", "G", model.param_names),
             "phase": ("phase_qgt", "Gphase", model.phase_labels)}
    blocks = {}
    for block, (quantity, _, _) in heads.items():
        try:
            blocks[block] = np.asarray(
                model.closed_form(quantity, point, sel.quantum_numbers), dtype=complex)
        except ValueError:
            continue  # no such closed form, or none for these quantum numbers
    return blocks, lambda: tuple((*heads[b][1:], m) for b, m in blocks.items())


#: every QGT pathway, by its `eval --method` name, in output order
PATHWAYS: dict[str, Pathway] = {
    "perturbative": Pathway("spectrum", _perturbative),
    "overlap-fd": Pathway("spectrum", _overlap_fd),
    "covariance": Pathway("state", _covariance),
    "closed-form": Pathway("nothing", _closed_form),
}


@dataclass(frozen=True)
class Comparison:
    """A row of COMPARISONS and, once measured, its deviation: max |a - b|
    between the `block` of the first pathway (a) and of the second (b),
    divided by max |b| if relative. measure() gives None for a missing block."""

    name: str
    pathways: tuple[str, str]
    block: str
    tolerance: float
    relative: bool
    deviation: float = math.nan

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance

    def measure(self, blocks: dict[str, Blocks]) -> Comparison | None:
        first, second = self.pathways
        try:
            a, b = blocks[first][self.block], blocks[second][self.block]
        except KeyError:
            return None
        deviation = float(np.abs(a - b).max())
        if self.relative:
            deviation /= max(float(np.abs(b).max()), 1e-300)
        return replace(self, deviation=deviation)


#: every agreement the pathways must reach
COMPARISONS: tuple[Comparison, ...] = (
    Comparison("param:perturbative-vs-overlap-fd",
               ("perturbative", "overlap-fd"), "param", 1e-5, False),
    Comparison("phase:perturbative-vs-covariance",
               ("perturbative", "covariance"), "phase", 1e-8, False),
    Comparison("param:perturbative-vs-closed",
               ("perturbative", "closed-form"), "param", 1e-6, True),
    Comparison("phase:perturbative-vs-closed",
               ("perturbative", "closed-form"), "phase", 1e-6, True),
)


def run_pathways(model: Model, point: ParamPoint, sel: StateSelector, fb: FockBasis,
                 names: Sequence[str], *, spectrum: Spectrum | None = None, step=None,
                 cache: dict | None = None) -> dict[str, tuple[Blocks, Callable]]:
    """Run the named PATHWAYS at one point and state. The full spectrum is
    solved only if one of them needs it, the state selected once if any
    needs one; step and cache go to `qgt_overlap_fd`."""
    needs = {PATHWAYS[name].needs for name in names}
    if spectrum is None and "spectrum" in needs:
        spectrum = eigh(model.hamiltonian(point, fb))
    state = (select_state(model, point, sel, fb, spectrum=spectrum)
             if needs - {"nothing"} else None)
    return {name: PATHWAYS[name].run(model, point, sel, fb, spectrum=spectrum,
                                     state=state, step=step, cache=cache)
            for name in names}


def compare(results: dict[str, tuple[Blocks, Callable]]) -> tuple[Comparison, ...]:
    """Every COMPARISONS row whose two blocks are in `run_pathways` results."""
    blocks = {name: out[0] for name, out in results.items()}
    measured = (c.measure(blocks) for c in COMPARISONS)
    return tuple(c for c in measured if c is not None)


@dataclass(frozen=True)
class ConsistencyReport:
    comparisons: tuple[Comparison, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.comparisons)


def consistency_report(model: Model, point: ParamPoint, sel: StateSelector,
                       fb: FockBasis, *, spectrum: Spectrum | None = None,
                       fd_cache: dict | None = None) -> ConsistencyReport:
    """Every PATHWAYS row at one point and state, held to COMPARISONS."""
    return ConsistencyReport(compare(run_pathways(model, point, sel, fb, PATHWAYS,
                                                  spectrum=spectrum, cache=fd_cache)))
