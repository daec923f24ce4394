import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_reference import dense, spectral_sum
from qgeom import gauss, qgt
from qgeom.acceptance import C1_POINTS, C1_STATES, AcceptanceConfig
from qgeom.errors import DegeneracyError, StateTrackingError
from qgeom.fock import Spectrum, eigh, quadratics
from qgeom.models import get_model

CUTOFF_1 = 60
CUTOFF_2 = 24
STATES_2 = [(m, n) for m in range(3) for n in range(3)]


@pytest.fixture(scope="module")
def gho_setup():
    model = get_model("gho")
    point = model.point(2.0, 0.5, 1.0)
    fb = model.default_basis(point, CUTOFF_1)
    return model, point, fb


def test_selector_validation():
    with pytest.raises(ValueError):
        qgt.StateSelector((-1,))
    for bad in (0.0, -0.1, 1.5):  # 0 accepts any level, > 1 none
        with pytest.raises(ValueError, match="min_overlap"):
            qgt.StateSelector((0,), min_overlap=bad)
    assert qgt.StateSelector((0,), min_overlap=1.0).min_overlap == 1.0
    sel = qgt.selector(1, 2)
    assert sel.quantum_numbers == (1, 2)


def test_select_state_energy_order(gho_setup):
    model, point, fb = gho_setup
    state = qgt.select_state(model, point, qgt.selector(3), fb)
    w = model.normal_modes(point).frequencies[0]
    assert state.energy == pytest.approx(3.5 * w, abs=1e-8)


def test_select_state_overlap_track():
    model = get_model("sym-coupled")
    point = model.point(1.0, 0.8)
    fb = model.default_basis(point, CUTOFF_2)
    state = qgt.select_state(model, point, qgt.StateSelector((1, 2)), fb)
    w1, w2 = model.normal_modes(point).frequencies
    assert state.energy == pytest.approx(1.5 * w1 + 2.5 * w2, abs=1e-8)
    assert state.overlap > 0.99


def test_select_state_overlap_failure():
    model = get_model("sym-coupled")
    point = model.point(1.0, 0.8)
    fb = model.default_basis(point, 8)
    with pytest.raises(StateTrackingError):
        qgt.select_state(model, point, qgt.StateSelector((5, 6)), fb)


def test_perturbative_matches_closed(gho_setup):
    model, point, fb = gho_setup
    for n in (0, 1, 2):
        res = qgt.qgt_perturbative(model, point, qgt.selector(n), fb)
        closed = model.closed_form("qgt", point, (n,))
        closed_pq = model.closed_form("phase_qgt", point, (n,))
        np.testing.assert_allclose(res.parameter_block(model), closed, atol=1e-10)
        np.testing.assert_allclose(res.phase_block(model), closed_pq, atol=1e-10)
        # parameter-phase cross terms vanish for this family
        cross = res.block(("X", "q1"))[0, 1]
        assert abs(cross) < 1e-12


def test_perturbative_degeneracy_guard():
    # k1/k0 ~ 1.5 makes w2 ~ 2 w1: the (1, 2) level collides with (3, 1).
    # Slightly off resonance the states still resolve, but the gap sits far
    # below the degeneracy threshold and the sum must refuse to run.
    model = get_model("sym-coupled")
    point = model.point(2.0, 3.0 + 4e-9)
    fb = model.default_basis(point, 20)
    with pytest.raises(DegeneracyError):
        qgt.qgt_perturbative(model, point, qgt.selector(1, 2), fb)
    # the ground state at the same point is fine
    qgt.qgt_perturbative(model, point, qgt.selector(0, 0), fb)
    # at exact resonance the degenerate subspace mixes and tracking fails
    exact = model.point(2.0, 3.0)
    with pytest.raises((DegeneracyError, StateTrackingError)):
        qgt.qgt_perturbative(model, exact, qgt.selector(1, 2), fb)


def test_overlap_fd_matches_perturbative(gho_setup):
    model, point, fb = gho_setup
    spec = eigh(model.hamiltonian(point, fb))
    for n in (0, 1):
        pert = qgt.qgt_perturbative(model, point, qgt.selector(n), fb, spectrum=spec)
        fd = qgt.qgt_overlap_fd(model, point, qgt.selector(n), fb, spectrum=spec)
        np.testing.assert_allclose(fd.values, pert.parameter_block(model), atol=1e-5)


def test_overlap_fd_gauge_invariance(gho_setup):
    model, point, fb = gho_setup
    spec = eigh(model.hamiltonian(point, fb))
    sel = qgt.selector(2)
    plain = qgt.qgt_overlap_fd(model, point, sel, fb, spectrum=spec)
    twisted = qgt.qgt_overlap_fd(model, point, sel, fb, spectrum=spec,
                                 phase_rng=np.random.default_rng(99))
    assert np.abs(plain.values.real - twisted.values.real).max() <= 1e-8
    assert np.abs(-2 * plain.values.imag + 2 * twisted.values.imag).max() <= 1e-8


def test_covariance_examples(gho_setup):
    model, point, fb = gho_setup
    # vacuum of the unit oscillator
    unit = get_model("gho")
    up = unit.point(1.0, 0.0, 1.0)
    ufb = unit.default_basis(up, 30)
    cov = qgt.covariance_from_state(unit, up, qgt.selector(0), ufb)
    np.testing.assert_allclose(cov.entries, 0.5 * np.eye(2), atol=1e-12)
    # generic point matches the closed covariance
    cov = qgt.covariance_from_state(model, point, qgt.selector(1), fb)
    closed = model.closed_form("covariance", point, (1,))
    np.testing.assert_allclose(cov.entries, closed, atol=1e-10)


def test_sym_covariance_matches_reduced_closed():
    model = get_model("sym-coupled")
    point = model.point(1.0, 1.0)
    fb = model.default_basis(point, CUTOFF_2)
    cov = qgt.covariance_from_state(model, point, qgt.selector(0, 0), fb)
    red = gauss.reduce(cov, [0])
    closed = model.closed_form("covariance_reduced", point, (0, 0))
    np.testing.assert_allclose(red.entries, closed, atol=1e-10)
    # symmetry: both oscillators reduce identically
    red2 = gauss.reduce(cov, [1])
    np.testing.assert_allclose(red.entries, red2.entries, atol=1e-10)


def test_lin_covariance_det_reduced():
    # det sigma_1 = (1/4)(1 + C^2/(2EF)), from inverting the Gaussian purity
    # of the consistent reduced state
    model = get_model("lin-coupled")
    A, B, C = 1.0, 2.0, 1.0
    point = model.point(A, B, C)
    fb = model.default_basis(point, CUTOFF_2)
    cov = qgt.covariance_from_state(model, point, qgt.selector(0, 0), fb)
    red = gauss.reduce(cov, [0])
    E = math.sqrt(4 * A * B - C * C)
    F = A + B + E
    np.testing.assert_allclose(np.linalg.det(red.entries),
                               0.25 * (1 + C * C / (2 * E * F)), atol=1e-10)


@pytest.mark.parametrize("name,values", [("gho-linear", (0.7, 1.4, -0.3, 1.1)),
                                         ("gaussian", (0.3, 0.7))])
def test_closed_covariance_matches_the_state(name, values):
    model = get_model(name)
    point = model.point(*values)
    fb = model.default_basis(point, 60)
    for n in range(3):
        cov = qgt.covariance_from_state(model, point, qgt.selector(n), fb)
        np.testing.assert_allclose(cov.entries, model.closed_form("covariance", point, (n,)),
                                   rtol=0, atol=1e-8)


def test_phase_block_from_covariance_mapping():
    model = get_model("sym-coupled")
    point = model.point(1.0, 0.8)
    fb = model.default_basis(point, CUTOFF_2)
    spec = eigh(model.hamiltonian(point, fb))
    for qn in ((0, 0), (1, 2)):
        sel = qgt.StateSelector(qn)
        cov = qgt.covariance_from_state(model, point, sel, fb, spectrum=spec)
        blk = qgt.phase_block_from_covariance(cov)
        pert = qgt.qgt_perturbative(model, point, sel, fb, spectrum=spec)
        np.testing.assert_allclose(blk.values, pert.phase_block(model), atol=1e-8)
        np.testing.assert_allclose(blk.values.imag,
                                   0.5 * gauss.symplectic_form(2), atol=1e-12)


def test_split():
    model = get_model("gho")
    point = model.point(2.0, 0.5, 1.0)
    fb = model.default_basis(point, CUTOFF_1)
    res = qgt.qgt_perturbative(model, point, qgt.selector(1), fb)
    metric, berry = qgt.split(res)
    np.testing.assert_allclose(metric, metric.T, atol=1e-14)
    np.testing.assert_allclose(berry, -berry.T, atol=1e-14)
    block = res.parameter_block(model)
    np.testing.assert_allclose(berry[:3, :3], -2 * block.imag, atol=1e-14)
    # real input has zero curvature
    real = qgt.QGTResult(("a", "b"), np.eye(2))
    _, curv = qgt.split(real)
    np.testing.assert_allclose(curv, 0.0, atol=1e-15)
    # phase block: curvature = -Omega
    cov = qgt.covariance_from_state(model, point, qgt.selector(0), fb)
    blk = qgt.phase_block_from_covariance(cov)
    _, curv = qgt.split(blk)
    np.testing.assert_allclose(curv, -gauss.symplectic_form(1), atol=1e-12)


def test_split_rejects_nonhermitian():
    bad = qgt.QGTResult(("a", "b"), np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        qgt.split(bad)


def test_consistency_report(gho_setup):
    model, point, fb = gho_setup
    rep = qgt.consistency_report(model, point, qgt.selector(1), fb)
    assert rep.passed
    names = {c.name for c in rep.comparisons}
    assert "param:perturbative-vs-overlap-fd" in names
    assert "phase:perturbative-vs-covariance" in names
    assert "param:perturbative-vs-closed" in names


def _direct_comparisons(model, point, sel, fb, spec, cache):
    """consistency_report's comparisons computed straight from the four public
    pathways, with the names, order and tolerances the report must keep."""
    pert = qgt.qgt_perturbative(model, point, sel, fb, spectrum=spec)
    fd = qgt.qgt_overlap_fd(model, point, sel, fb, spectrum=spec, cache=cache)
    cov = qgt.covariance_from_state(model, point, sel, fb, spectrum=spec)
    phase_cov = qgt.phase_block_from_covariance(cov)
    out = [
        ("param:perturbative-vs-overlap-fd",
         float(np.abs(pert.parameter_block(model) - fd.values).max()), 1e-5, False),
        ("phase:perturbative-vs-covariance",
         float(np.abs(pert.phase_block(model) - phase_cov.values).max()), 1e-8, False),
    ]
    for quantity, block, name in (("qgt", pert.parameter_block(model),
                                    "param:perturbative-vs-closed"),
                                   ("phase_qgt", pert.phase_block(model),
                                    "phase:perturbative-vs-closed")):
        if quantity not in model.closed_quantities():
            continue
        try:
            closed = np.asarray(model.closed_form(quantity, point, sel.quantum_numbers),
                                dtype=complex)
        except ValueError:
            continue
        dev = float(np.abs(block - closed).max()) / max(float(np.abs(closed).max()),
                                                         1e-300)
        out.append((name, dev, 1e-6, True))
    return out


@pytest.mark.parametrize("name", list(C1_POINTS))
def test_consistency_report_is_the_pathways_bitwise_on_c1_probes(name):
    # the acceptance suite's points and states; a two-mode cutoff of 20, not
    # 40, since equality does not depend on it and the FD solves then cost little
    model = get_model(name)
    config = AcceptanceConfig(cutoff_2mode=20)
    for values in C1_POINTS[name]:
        point = model.point(*values)
        fb = model.default_basis(point, config.cutoff(model))
        spec = eigh(model.hamiltonian(point, fb))
        cache: dict = {}  # shared, so each displaced solve runs once
        for qn in C1_STATES[model.dof]:
            sel = qgt.StateSelector(qn)
            rep = qgt.consistency_report(model, point, sel, fb, spectrum=spec,
                                         fd_cache=cache)
            got = [(c.name, c.deviation, c.tolerance, c.relative)
                   for c in rep.comparisons]
            assert got == _direct_comparisons(model, point, sel, fb, spec, cache)


def test_consistency_gaussian_excited_skips_closed():
    model = get_model("gaussian")
    point = model.point(0.2, 0.4)
    fb = model.default_basis(point, 40)
    rep = qgt.consistency_report(model, point, qgt.selector(1), fb)
    assert rep.passed
    names = {c.name for c in rep.comparisons}
    assert "param:perturbative-vs-closed" not in names  # ground state only
    # phase block closed form holds for any n
    assert "phase:perturbative-vs-closed" in names


def test_truncation_deviation_shrinks():
    # second-order basis convergence: halving the truncation error by >= 4x
    model = get_model("gho")
    point = model.point(2.0, 0.9, 1.0)

    def entry(fb):
        return qgt.qgt_perturbative(model, point, qgt.selector(2), fb).values

    fb0 = model.default_basis(point, 16)
    v16 = entry(fb0)
    v32 = entry(fb0.with_cutoff(32))
    v64 = entry(fb0.with_cutoff(64))
    d1 = np.abs(v16 - v32).max()
    d2 = np.abs(v32 - v64).max()
    assert d2 < d1  # strictly decreasing
    assert d2 <= d1 / 4


def test_perturbative_discard_guard():
    model = get_model("gho")
    point = model.point(1.0, 0.0, 1.0)
    fb = model.default_basis(point, 10)
    with pytest.raises(ValueError, match="discarded top"):
        qgt.qgt_perturbative(model, point, qgt.selector(9), fb)


@pytest.mark.parametrize("name,values,cutoff", [
    ("sym-coupled", (1.0, 0.8), 14),      # real states
    ("lin-coupled", (1.0, 2.0, 1.0), 14),
    ("gho", (2.0, 0.5, 1.0), 40),         # complex states
])
def test_perturbative_matches_explicit_spectral_sum(name, values, cutoff):
    model = get_model(name)
    point = model.point(*values)
    fb = model.default_basis(point, cutoff)
    spec = eigh(model.hamiltonian(point, fb))
    assert np.iscomplexobj(spec.states) == (name == "gho")
    ops = model.deformations(point, fb)
    keep = qgt._keep_count(spec.dim, qgt.DISCARD_TOP)
    states = [(m, n) for m in range(3) for n in range(3)] if model.dof == 2 else [(0,), (1,), (2,)]
    for qn in states:
        sel = qgt.StateSelector(qn)
        state = qgt.select_state(model, point, sel, fb, spectrum=spec)
        res = qgt.qgt_perturbative(model, point, sel, fb, spectrum=spec, state=state)
        images = {label: dense(ops[label]) @ state.vector for label in res.labels}
        expected = spectral_sum(spec, state.index, images, keep)
        np.testing.assert_allclose(res.values, expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max(), err_msg=str(qn))


def test_overlap_fd_matches_linear_term_metric():
    # FD metric against the closed linear-term metric at (1, 1, 0, 1), n = 0
    model = get_model("gho-linear")
    point = model.point(1.0, 1.0, 0.0, 1.0)
    fb = model.default_basis(point, CUTOFF_1)
    fd = qgt.qgt_overlap_fd(model, point, qgt.selector(0), fb)
    closed = model.closed_form("qgt", point, (0,))
    np.testing.assert_allclose(fd.values, closed, atol=1e-5)


def test_lin_covariance_reduced_matches_closed():
    model = get_model("lin-coupled")
    point = model.point(1.0, 2.0, 1.0)
    fb = model.default_basis(point, CUTOFF_2)
    cov = qgt.covariance_from_state(model, point, qgt.selector(0, 0), fb)
    red = gauss.reduce(cov, [0])
    closed = model.closed_form("covariance_reduced", point, (0, 0))
    np.testing.assert_allclose(red.entries, closed, atol=1e-10)


@pytest.mark.slow
def test_sym_entanglement_closed_forms_at_cutoff_60():
    # ground-state covariance at n_max = 60 per mode reproduces the closed
    # purity/entropy to 1e-6 (it is converged far beyond that)
    model = get_model("sym-coupled")
    point = model.point(1.0, 1.0)
    fb = model.default_basis(point, 60)
    cov = qgt.covariance_from_state(model, point, qgt.selector(0, 0), fb)
    red = gauss.reduce(cov, [0])
    assert gauss.purity(red) == pytest.approx(
        model.closed_form("purity", point, (0, 0)), abs=1e-6)
    assert gauss.von_neumann_entropy(red) == pytest.approx(
        model.closed_form("entropy", point, (0, 0)), abs=1e-6)


def test_sym_decoupled_limit_parameter_block():
    # at k1 = 0 the perturbative parameter block equals the closed form's
    # k1 -> 0 limit (ground state stays non-degenerate there)
    model = get_model("sym-coupled")
    point = model.point(1.3, 0.0)
    fb = model.default_basis(point, CUTOFF_2)
    res = qgt.qgt_perturbative(model, point, qgt.selector(0, 0), fb)
    closed = model.closed_form("qgt", point, (0, 0))
    np.testing.assert_allclose(res.parameter_block(model), closed, atol=1e-8)


@pytest.mark.parametrize("qn", [(1, 0), (0, 1), (1, 1)])
def test_window_selection_refuses_a_degenerate_level(qn):
    # at k1 = 0 both normal modes have w = sqrt(k0): (1,0) and (0,1) name one
    # degenerate pair, and (1,1) shares its level with (2,0) and (0,2)
    model = get_model("sym-coupled")
    point = model.point(1.0, 0.0)
    fb = model.default_basis(point, 20)
    with pytest.raises(DegeneracyError):
        qgt.select_state(model, point, qgt.selector(*qn), fb)
    with pytest.raises(DegeneracyError):
        qgt.covariance_from_state(model, point, qgt.selector(*qn), fb)


def test_window_selection_keeps_the_nondegenerate_ground_state_at_k1_zero():
    model = get_model("sym-coupled")
    point = model.point(1.0, 0.0)
    fb = model.default_basis(point, 20)
    cov = qgt.covariance_from_state(model, point, qgt.selector(0, 0), fb)
    assert gauss.purity(gauss.reduce(cov, [0])) == pytest.approx(
        model.closed_form("purity", point, (0, 0)), abs=1e-10)


def test_window_selection_passes_a_nondegenerate_excited_level():
    # near k1 = 0 the pair splits: (1,0) and (0,1) are selected again
    model = get_model("sym-coupled")
    point = model.point(1.0, 0.1)
    fb = model.default_basis(point, 20)
    for qn in ((1, 0), (0, 1), (1, 1)):
        state = qgt.select_state(model, point, qgt.selector(*qn), fb)
        assert state.overlap > 0.9


def test_perturbative_example_values_frozen():
    # at (X, Y, Z) = (2, 0, 1), n = 0: Re G_XX = Z^2/(32 w^4) = 1/128 and the
    # imaginary phase block is Omega/2
    model = get_model("gho")
    point = model.point(2.0, 0.0, 1.0)
    fb = model.default_basis(point, CUTOFF_1)
    res = qgt.qgt_perturbative(model, point, qgt.selector(0), fb)
    blk = res.parameter_block(model)
    assert blk[0, 0].real == pytest.approx(1.0 / 128.0, abs=1e-8)
    phase = res.phase_block(model)
    np.testing.assert_allclose(phase.imag, 0.5 * np.array([[0, 1], [-1, 0]]),
                               atol=1e-8)


def test_sym_deformation_operator_identity():
    # dH/dq1 = (w2^2 - w1^2)(q1 - q2)/2 + w1^2 q1 as an operator identity
    model = get_model("sym-coupled")
    point = model.point(1.3, 0.6)
    fb = model.default_basis(point, 8)
    ops = model.deformations(point, fb)
    q1, q2 = map(dense, quadratics(fb)[:2])
    w1, w2 = model.normal_modes(point).frequencies
    expected = 0.5 * (w2 * w2 - w1 * w1) * (q1 - q2) + w1 * w1 * q1
    np.testing.assert_allclose(dense(ops["q1"]), expected, atol=1e-12)


def test_lin_entropy_grows_toward_transition():
    # S(C = 0.99 Cmax) > S(C = 0.9 Cmax), from the numeric covariance
    model = get_model("lin-coupled")
    A, B = 1.0, 2.0
    cmax = 2 * math.sqrt(A * B)
    entropies = []
    for frac in (0.9, 0.99):
        point = model.point(A, B, frac * cmax)
        fb = model.default_basis(point, 32)
        cov = qgt.covariance_from_state(model, point, qgt.selector(0, 0), fb)
        entropies.append(gauss.von_neumann_entropy(gauss.reduce(cov, [0])))
    assert entropies[1] > entropies[0] > 0


def _normal_mode_state(model, point, fb, n):
    """b^dag^n |ground>, normalized: the state two-mode overlap tracking
    matches against, here for one mode."""
    state = eigh(model.hamiltonian(point, fb)).vector(0).astype(complex)
    raising = model.normal_mode_ladders(point, fb)[0].adjoint()
    for _ in range(n):
        state = raising.apply(state)
    return state / np.linalg.norm(state)


def test_overlap_track_matches_energy_order_single_mode():
    # one mode selects by energy order; the overlap-tracking target of the
    # same quantum number is that level
    model = get_model("gho")
    point = model.point(2.0, 0.5, 1.0)
    fb = model.default_basis(point, CUTOFF_1)
    full = eigh(model.hamiltonian(point, fb))
    by_energy = qgt.select_state(model, point, qgt.selector(2), fb, spectrum=full)
    target = _normal_mode_state(model, point, fb, 2)
    assert abs(np.vdot(target, full.vector(by_energy.index))) >= 1 - 1e-10


@pytest.mark.parametrize("values", [(1.5, 2.0, 0.9, 1.0), (2.0, 1.0, 0.5, 1.0)])
@pytest.mark.parametrize("n", [1, 2])
def test_overlap_track_finds_the_energy_level_with_a_linear_term(values, n):
    # the normal-mode ladder of gho-linear lowers about the shifted minimum,
    # so the raised ground state is the n-th level itself
    model = get_model("gho-linear")
    point = model.point(*values)
    fb = model.default_basis(point, CUTOFF_1)
    full = eigh(model.hamiltonian(point, fb))
    selected = qgt.select_state(model, point, qgt.selector(n), fb)
    assert abs(np.vdot(_normal_mode_state(model, point, fb, n), full.vector(n))) >= 1 - 1e-10
    assert abs(np.vdot(selected.vector, full.vector(n))) >= 1 - 1e-10
    assert abs(selected.energy - full.energies[n]) <= 1e-10


def _seeded_point(model, seed):
    # draws from the benchmark's sampling ranges
    rng = np.random.default_rng(seed)
    if model.name == "sym-coupled":
        return model.point(rng.uniform(0.6, 2.2), rng.uniform(0.3, 2.2))
    if model.name == "lin-coupled":
        A, B = rng.uniform(0.7, 1.3), rng.uniform(1.8, 3.0)
        return model.point(A, B, rng.uniform(0.2, 0.6) * 2 * math.sqrt(A * B))
    X, Z = rng.uniform(0.8, 2.5), rng.uniform(0.8, 2.5)
    Y = rng.uniform(-0.6, 0.6) * math.sqrt(X * Z)
    if model.name == "gho":
        return model.point(X, Y, Z)
    return model.point(rng.uniform(0.3, 1.5), X, Y, Z)  # gho-linear, W != 0


def _assert_window_matches_full(model, point, sel, fb, full):
    # the window's index counts the levels it solved (one parity sector for
    # overlap tracking), so the level is identified by energy and overlap
    windowed = qgt.select_state(model, point, sel, fb)
    reference = qgt.select_state(model, point, sel, fb, spectrum=full)
    assert abs(windowed.energy - full.energies[reference.index]) <= 1e-10
    assert abs(np.vdot(windowed.vector, reference.vector)) >= 1 - 1e-10
    np.testing.assert_allclose(
        qgt.covariance_from_state(model, point, sel, fb).entries,
        qgt.covariance_from_state(model, point, sel, fb, spectrum=full).entries,
        atol=1e-10)
    return windowed


@pytest.mark.parametrize("name", ["sym-coupled", "lin-coupled"])
def test_window_solve_matches_full_two_modes(name):
    # select_state without a spectrum solves only the lowest levels (ARPACK)
    model = get_model(name)
    point = _seeded_point(model, 5)
    fb = model.default_basis(point, 40)
    full = eigh(model.hamiltonian(point, fb))
    for qn in [(m, n) for m in range(3) for n in range(3)]:
        state = _assert_window_matches_full(model, point, qgt.StateSelector(qn), fb, full)
        if name == "sym-coupled":
            # odd n is odd under q1 <-> q2: a symmetric start vector misses it
            psi = state.vector.reshape(fb.cutoff, fb.cutoff)
            parity = np.vdot(psi.T.ravel(), psi.ravel()).real
            assert parity == pytest.approx((-1) ** qn[1], abs=1e-10)


@pytest.mark.parametrize("name", ["gho", "gho-linear"])
def test_window_solve_matches_full_energy_order(name):
    model = get_model(name)
    point = _seeded_point(model, 5)
    fb = model.default_basis(point, 80)
    full = eigh(model.hamiltonian(point, fb))
    for n in range(3):
        _assert_window_matches_full(model, point, qgt.selector(n), fb, full)


@pytest.mark.parametrize("seed", [3, 4])  # seed 5 is the cutoff-40 test above
@pytest.mark.parametrize("name", ["sym-coupled", "lin-coupled"])
def test_sector_window_matches_full_spectrum(name, seed):
    model = get_model(name)
    point = _seeded_point(model, seed)
    fb = model.default_basis(point, CUTOFF_2)
    full = eigh(model.hamiltonian(point, fb))
    for qn in STATES_2:
        _assert_window_matches_full(model, point, qgt.StateSelector(qn), fb, full)


@pytest.fixture
def eigh_calls(monkeypatch):
    """The keyword arguments of each fock.eigh call that qgt makes."""
    calls = []
    real = qgt.eigh

    def counted(op, **kwargs):
        calls.append(kwargs)
        return real(op, **kwargs)

    monkeypatch.setattr(qgt, "eigh", counted)
    return calls


@pytest.mark.parametrize("qn", [(0, 0), (1, 1), (2, 0), (1, 0), (0, 1), (1, 2)])
@pytest.mark.parametrize("name", ["sym-coupled", "lin-coupled"])
def test_sector_window_solves(monkeypatch, eigh_calls, name, qn):
    # one sector solve for an even target; an odd one adds the even ground state
    model = get_model(name)
    point = _seeded_point(model, 5)
    fb = model.default_basis(point, CUTOFF_2)
    builds = []
    real = model.hamiltonian

    def counted(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(model, "hamiltonian", counted)
    qgt.select_state(model, point, qgt.StateSelector(qn), fb)
    odd = sum(qn) % 2
    assert [kw["parity"] for kw in eigh_calls] == ([1, 0] if odd else [0])
    if odd:
        assert eigh_calls[1]["lowest"] == 1  # the even ground state alone
    assert len(builds) == 1


def test_lin_entanglement_at_cutoff_100_through_the_sector_window(eigh_calls):
    # README "Printed closed forms corrected": purity sqrt(2EF / (2EF + C^2)),
    # entropy of nu = 1/(2 purity)
    model = get_model("lin-coupled")
    A, B, C = 1.0, 2.0, 1.0
    point = model.point(A, B, C)
    fb = model.default_basis(point, 100)
    red = gauss.reduce(qgt.covariance_from_state(model, point, qgt.selector(0, 0), fb), [0])
    assert [kw["parity"] for kw in eigh_calls] == [0]
    E = math.sqrt(4 * A * B - C * C)
    F = A + B + E
    purity = math.sqrt(2 * E * F / (2 * E * F + C * C))
    nu = 1.0 / (2.0 * purity)
    entropy = (nu + 0.5) * math.log(nu + 0.5) - (nu - 0.5) * math.log(nu - 0.5)
    assert gauss.purity(red) == pytest.approx(purity, abs=1e-8)
    assert gauss.von_neumann_entropy(red) == pytest.approx(entropy, abs=1e-8)


def _separated(freqs, qn, gap_rel=0.1, levels=8):
    # the benchmark's draw rule: no level within 0.1 min(w) of the target
    e = freqs @ np.asarray(qn)
    grid = np.indices((levels, levels)).reshape(2, -1)
    gaps = np.abs(freqs @ grid - e)
    gaps[np.all(grid == np.asarray(qn)[:, None], axis=0)] = np.inf
    return gaps.min() >= gap_rel * freqs.min()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(name=st.sampled_from(["sym-coupled", "lin-coupled"]),
       u=st.tuples(*[st.floats(0.0, 1.0)] * 3), qn=st.sampled_from(STATES_2))
def test_sector_window_matches_full_on_benchmark_domain(name, u, qn):
    # the two-mode sampling ranges of the benchmark
    model = get_model(name)
    if name == "sym-coupled":
        point = model.point(0.6 + 1.6 * u[0], 0.3 + 1.9 * u[1])
    else:
        A, B = 0.7 + 0.6 * u[0], 1.8 + 1.2 * u[1]
        point = model.point(A, B, (0.2 + 0.4 * u[2]) * 2 * math.sqrt(A * B))
    freqs = np.asarray(model.normal_modes(point).frequencies)
    assume(_separated(freqs, qn))
    fb = model.default_basis(point, CUTOFF_2)
    full = eigh(model.hamiltonian(point, fb))
    _assert_window_matches_full(model, point, qgt.StateSelector(qn), fb, full)


def _full_scan(spec, ref, candidate, min_overlap):
    # the reference match: project onto every level and take the argmax
    overlaps = np.abs(spec.overlaps(ref))
    idx = int(np.argmax(overlaps))
    return idx, float(overlaps[idx])


@pytest.fixture
def overlap_calls(monkeypatch):
    calls = []
    real = Spectrum.overlaps

    def counted(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Spectrum, "overlaps", counted)
    return calls


@pytest.mark.parametrize("name,values,states,misses", [
    ("sym-coupled", 3, STATES_2, False),
    ("lin-coupled", 3, STATES_2, False),
    ("sym-coupled", 4, STATES_2, False),
    ("lin-coupled", 4, STATES_2, False),
    # w2 = 2 w1 up to 1e-5: (3, 1) sits 4e-6 from (1, 2), and an FD step
    # moves the two levels apart by 1e-4, so a twin's level nearest the
    # center energy is the wrong one and the full scan must take over
    ("sym-coupled", (2.0, 3.0 + 1e-5), [(1, 2), (3, 1), (5, 0)], True),
])
def test_candidate_match_equals_full_scan(monkeypatch, overlap_calls, name, values,
                                          states, misses):
    model = get_model(name)
    point = model.point(*values) if misses else _seeded_point(model, values)
    fb = model.default_basis(point, 20)
    spec = eigh(model.hamiltonian(point, fb))
    cache: dict = {}

    def run():
        out = []
        for qn in states:
            sel = qgt.StateSelector(qn)
            state = qgt.select_state(model, point, sel, fb, spectrum=spec)
            fd = qgt.qgt_overlap_fd(model, point, sel, fb, spectrum=spec, cache=cache,
                                    state=state)
            out.append((state.index, fd.values.tobytes()))
        return out

    fast = run()
    assert bool(overlap_calls) == misses  # a scan runs only where a candidate missed
    monkeypatch.setattr(qgt, "_best_match", _full_scan)
    assert run() == fast


def test_low_min_overlap_takes_the_full_scan(overlap_calls):
    model = get_model("sym-coupled")
    point = model.point(1.0, 0.8)
    fb = model.default_basis(point, CUTOFF_2)
    spec = eigh(model.hamiltonian(point, fb))
    fast = qgt.select_state(model, point, qgt.StateSelector((1, 2)), fb, spectrum=spec)
    assert not overlap_calls
    low = qgt.select_state(model, point, qgt.StateSelector((1, 2), min_overlap=0.5), fb,
                           spectrum=spec)
    assert overlap_calls == [spec]
    assert low.index == fast.index


def test_later_state_report_projects_onto_the_spectrum_once(overlap_calls):
    # the spectral sum's amplitudes are the only projection onto every level
    model = get_model("lin-coupled")
    point = model.point(1.0, 2.0, 1.0)
    fb = model.default_basis(point, CUTOFF_2)
    spec = eigh(model.hamiltonian(point, fb))
    cache: dict = {}
    qgt.consistency_report(model, point, qgt.selector(0, 0), fb, spectrum=spec,
                           fd_cache=cache)
    overlap_calls.clear()
    rep = qgt.consistency_report(model, point, qgt.selector(1, 2), fb, spectrum=spec,
                                 fd_cache=cache)
    assert rep.passed
    assert overlap_calls == [spec]


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(2, 10), levels=st.integers(1, 10),
       picks=st.tuples(*[st.integers(0, 9)] * 3), seed=st.integers(0, 2**32 - 1),
       complex_states=st.booleans(), weight=st.floats(0.0, 1.0), pair=st.booleans(),
       min_overlap=st.one_of(
           st.floats(0.0, 1.0, exclude_min=True),
           st.sampled_from([math.sqrt(0.5), float(np.nextafter(math.sqrt(0.5), 2.0)),
                            0.9, 1.0])))
def test_tracked_vector_matches_full_argmax(dim, levels, picks, seed, complex_states,
                                            weight, pair, min_overlap):
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((dim, dim))
    if complex_states:
        basis = basis + 1j * rng.standard_normal((dim, dim))
    levels = min(levels, dim)
    states = np.linalg.qr(basis)[0][:, :levels]
    spec = Spectrum(np.sort(rng.uniform(0.0, 1.0, levels)), states)
    # weight on level a, the rest on level b or a random direction; the
    # candidate is level c
    a, b, c = (k % levels for k in picks)
    rest = states[:, b] if pair else rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    ref = math.sqrt(weight) * states[:, a] + math.sqrt(1 - weight) * rest / np.linalg.norm(rest)
    if np.linalg.norm(ref) < 1e-3:
        return
    ref = (ref / np.linalg.norm(ref)).astype(complex)

    overlaps = np.abs(spec.overlaps(ref))
    best = int(np.argmax(overlaps))
    idx, mag = qgt._best_match(spec, ref, c, min_overlap)
    if overlaps[best] >= min_overlap:
        assert idx == best
    else:
        assert (idx, mag) == (best, overlaps[best])

    def tracked(match):
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qgt, "_best_match", match)
                return qgt._tracked_vector(spec, ref, spec.energies[c], min_overlap,
                                           None).tobytes()
        except StateTrackingError as exc:
            return str(exc)

    assert tracked(qgt._best_match) == tracked(_full_scan)


def test_overlap_fd_is_central_inside_and_one_sided_at_an_edge():
    # at C = 0 only C's derivative goes one-sided, over C + h and C + 2h; an
    # interior point is the central difference of its two cached twins, bit
    # for bit
    model = get_model("lin-coupled")
    sel = qgt.selector(1, 0)
    for C, keys_of_C in ((0.0, [(2, 1, 1e-4), (2, 1, 2e-4)]),
                         (0.5, [(2, 1, 1e-4), (2, -1, 1e-4)])):
        point = model.point(1.0, 2.0, C)
        fb = model.default_basis(point, 12)
        spec = eigh(model.hamiltonian(point, fb))
        cache = {}
        fd = qgt.qgt_overlap_fd(model, point, sel, fb, spectrum=spec, cache=cache)
        assert sorted(k for k in cache if k[0] == 2) == sorted(keys_of_C)
        assert len(cache) == 6
        pert = qgt.qgt_perturbative(model, point, sel, fb, spectrum=spec)
        assert np.abs(fd.values - pert.parameter_block(model)).max() <= 1e-7
    state = qgt.select_state(model, point, sel, fb, spectrum=spec)
    ref = state.vector.astype(complex)
    twins = [qgt._tracked_vector(cache[2, s, 1e-4], ref, state.energy, sel.min_overlap, None)
             for s in (1, -1)]
    d = (twins[0] - twins[1]) / (2 * 1e-4)
    g = np.vdot(d, d) - np.vdot(d, ref) * np.vdot(ref, d)
    assert fd.values[2, 2] == 0.5 * (g + g.conjugate())
