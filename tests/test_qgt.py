import math

import numpy as np
import pytest

from dense_reference import dense, spectral_sum
from qgeom import gauss, qgt
from qgeom.errors import DegeneracyError, StateTrackingError
from qgeom.fock import eigh
from qgeom.models import get_model

CUTOFF_1 = 60
CUTOFF_2 = 24


@pytest.fixture(scope="module")
def gho_setup():
    model = get_model("gho")
    point = model.point(2.0, 0.5, 1.0)
    fb = model.default_basis(point, CUTOFF_1)
    return model, point, fb


def test_selector_validation():
    with pytest.raises(ValueError):
        qgt.StateSelector((-1,))
    with pytest.raises(ValueError):
        qgt.StateSelector((0,), resolution="nope")
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
    state = qgt.select_state(
        model, point, qgt.StateSelector((1, 2), resolution="overlap-track"), fb)
    w1, w2 = model.normal_modes(point).frequencies
    assert state.energy == pytest.approx(1.5 * w1 + 2.5 * w2, abs=1e-8)
    assert state.overlap > 0.99


def test_select_state_overlap_failure():
    model = get_model("sym-coupled")
    point = model.point(1.0, 0.8)
    fb = model.default_basis(point, 8)
    with pytest.raises(StateTrackingError):
        qgt.select_state(model, point,
                         qgt.StateSelector((5, 6), resolution="overlap-track"), fb)


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


def test_overlap_fd_richardson_tightens(gho_setup):
    model, point, fb = gho_setup
    spec = eigh(model.hamiltonian(point, fb))
    closed = model.closed_form("qgt", point, (1,))
    plain = qgt.qgt_overlap_fd(model, point, qgt.selector(1), fb,
                               spectrum=spec, step=1e-3)
    rich = qgt.qgt_overlap_fd(model, point, qgt.selector(1), fb,
                              spectrum=spec, step=1e-3, richardson=True)
    err_plain = np.abs(plain.values - closed).max()
    err_rich = np.abs(rich.values - closed).max()
    assert err_rich < err_plain / 4


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


def test_phase_block_from_covariance_mapping():
    model = get_model("sym-coupled")
    point = model.point(1.0, 0.8)
    fb = model.default_basis(point, CUTOFF_2)
    spec = eigh(model.hamiltonian(point, fb))
    for qn in ((0, 0), (1, 2)):
        sel = qgt.StateSelector(qn)
        cov = qgt.covariance_from_state(model, point, sel, fb, spectrum=spec)
        blk = qgt.phase_block_from_covariance(cov, qn)
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
    real = qgt.QGTResult(("a", "b"), np.eye(2), (0,), "test")
    _, curv = qgt.split(real)
    np.testing.assert_allclose(curv, 0.0, atol=1e-15)
    # phase block: curvature = -Omega
    cov = qgt.covariance_from_state(model, point, qgt.selector(0), fb)
    blk = qgt.phase_block_from_covariance(cov)
    _, curv = qgt.split(blk)
    np.testing.assert_allclose(curv, -gauss.symplectic_form(1), atol=1e-12)


def test_split_rejects_nonhermitian():
    bad = qgt.QGTResult(("a", "b"), np.array([[0.0, 1.0], [0.0, 0.0]]), (0,), "test")
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
    (q1, q2), _ = model.qp_operators(fb)
    w1, w2 = model.normal_modes(point).frequencies
    expected = 0.5 * (w2 * w2 - w1 * w1) * (q1 - q2) + w1 * w1 * q1
    np.testing.assert_allclose(dense(ops["q1"]), dense(expected), atol=1e-12)


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


def test_overlap_track_matches_energy_order_single_mode():
    model = get_model("gho")
    point = model.point(2.0, 0.5, 1.0)
    fb = model.default_basis(point, CUTOFF_1)
    by_energy = qgt.select_state(model, point, qgt.selector(2), fb)
    by_overlap = qgt.select_state(
        model, point, qgt.StateSelector((2,), resolution="overlap-track"), fb)
    assert by_energy.index == by_overlap.index
    assert by_overlap.overlap > 0.999


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
    windowed = qgt.select_state(model, point, sel, fb)
    reference = qgt.select_state(model, point, sel, fb, spectrum=full)
    assert windowed.index == reference.index
    assert abs(windowed.energy - reference.energy) <= 1e-10
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
