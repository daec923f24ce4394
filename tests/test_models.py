import itertools
import math
import warnings

import numpy as np
import pytest

from dense_reference import (assert_hermitian, commutator, dagger, dense,
                             position_momentum)
from qgeom import MODEL_NAMES, fock, gauss, qgt
from qgeom.errors import DomainError, NumericalError
from qgeom.models import (GeneralizedOscillator, NormalModeData, get_model,
                          oscillator_slice_gaussian)

PROBE = {
    "gho": (2.0, 0.5, 1.0),
    "gho-linear": (0.7, 1.4, -0.3, 1.1),
    "sym-coupled": (1.0, 0.8),
    "lin-coupled": (1.0, 2.0, 1.0),
    "gaussian": (0.3, 0.7),
}


def test_registry():
    with pytest.raises(ValueError):
        get_model("nope")
    for name in MODEL_NAMES:
        assert get_model(name).name == name
    # a new catalog model cannot skip the form, deformation and ladder tests
    assert set(PROBE) == set(MODEL_NAMES)


@pytest.mark.parametrize("name,values", [
    ("gho", (1.0, 2.0, 1.0)),          # XZ - Y^2 < 0
    ("gho", (1.0, 0.0, -1.0)),         # Z < 0
    ("gho-linear", (1.0, 0.5, 1.0, 1.0)),
    ("sym-coupled", (-1.0, 1.0)),
    ("sym-coupled", (1.0, -0.6)),      # k0 + 2 k1 < 0
    ("lin-coupled", (2.0, 1.0, 0.5)),  # B < A: rejected branch
    ("lin-coupled", (1.0, 2.0, -0.5)),
    ("lin-coupled", (1.0, 2.0, 3.0)),  # 4AB - C^2 < 0
])
def test_domain_violations(name, values):
    with pytest.raises(DomainError):
        get_model(name).point(*values)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_deformations_are_hermitian_and_complete(name):
    model = get_model(name)
    point = model.point(*PROBE[name])
    fb = model.default_basis(point, 10)
    ops = model.deformations(point, fb)
    assert set(ops) == set(model.labels)
    for key, op in ops.items():
        m = dense(op)
        scale = max(np.abs(m).max(), 1e-300)
        assert np.abs(m - m.conj().T).max() <= 1e-12 * scale, key


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_deformations_match_hamiltonian_derivative(name):
    # central difference of H along each parameter reproduces dH/dlambda
    model = get_model(name)
    point = model.point(*PROBE[name])
    fb = model.default_basis(point, 10)
    ops = model.deformations(point, fb)
    for i, pname in enumerate(model.param_names):
        h = 1e-4 * max(abs(point.values[i]), 1.0)
        hp = dense(model.hamiltonian(point.shifted(i, +h), fb))
        hm = dense(model.hamiltonian(point.shifted(i, -h), fb))
        fd = (hp - hm) / (2 * h)
        assert np.abs(fd - dense(ops[pname])).max() <= 1e-6, pname


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_hamiltonian_hermitian_and_bounded(name):
    model = get_model(name)
    point = model.point(*PROBE[name])
    fb = model.default_basis(point, 24)
    H = model.hamiltonian(point, fb)
    assert_hermitian(dense(H))
    spec = fock.eigh(H)
    closed = model.closed_form("energy", point, (0,) * model.dof)
    assert abs(spec.energies[0] - closed) < 1e-6


def _inner_block(fb):
    """Basis states at least 3 below the cutoff in every mode: there a
    quadratic and a linear operator commute as they would untruncated."""
    occupations = np.indices((fb.cutoff,) * fb.modes).reshape(fb.modes, -1)
    return np.flatnonzero((occupations <= fb.cutoff - 4).all(axis=0))


def _small_basis(model, point):
    return model.default_basis(point, 8 if model.dof == 2 else 12)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_phase_deformations_are_heisenberg_commutators(name):
    # dH/dq_a = i[p_a, H] and dH/dp_a = -i[q_a, H], with dense q and p
    model = get_model(name)
    point = model.point(*PROBE[name])
    fb = _small_basis(model, point)
    H = dense(model.hamiltonian(point, fb))
    ops = model.deformations(point, fb)
    block = _inner_block(fb)
    for a in range(model.dof):
        q, p = position_momentum(fb.modes, fb.cutoff, fb.frequencies[a], a)
        for label, expected in ((f"q{a + 1}", 1j * commutator(p, H)),
                                (f"p{a + 1}", -1j * commutator(q, H))):
            np.testing.assert_allclose(dense(ops[label])[:, block], expected[:, block],
                                       atol=1e-12, err_msg=label)


# every catalog probe, plus sym-coupled with equal frequencies (k1 = 0) and
# with its modes declared in descending order (k1 < 0)
LADDER_POINTS = [(name, PROBE[name]) for name in MODEL_NAMES] + [
    ("sym-coupled", (1.0, 0.0)), ("sym-coupled", (1.0, -0.3))]


@pytest.mark.parametrize("name,values", LADDER_POINTS)
def test_ladders_lower_by_their_frequency(name, values):
    # [b_k, H] = w_k b_k and [b_j, b_k^dag] = delta_jk
    model = get_model(name)
    point = model.point(*values)
    fb = _small_basis(model, point)
    H = dense(model.hamiltonian(point, fb))
    ladders = [dense(b) for b in model.normal_mode_ladders(point, fb)]
    freqs = model.normal_modes(point).frequencies
    block = _inner_block(fb)
    for j, (bj, w) in enumerate(zip(ladders, freqs)):
        np.testing.assert_allclose(commutator(bj, H)[:, block], w * bj[:, block],
                                   atol=1e-12)
        for k, bk in enumerate(ladders):
            np.testing.assert_allclose(commutator(bj, dagger(bk))[:, block],
                                       float(j == k) * np.eye(fb.dim)[:, block],
                                       atol=1e-12)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_ladders_annihilate_the_ground_state(name):
    model = get_model(name)
    point = model.point(*PROBE[name])
    fb = model.default_basis(point, 30 if model.dof == 2 else 60)
    ground = fock.eigh(model.hamiltonian(point, fb)).vector(0).astype(complex)
    for b in model.normal_mode_ladders(point, fb):
        assert np.linalg.norm(b.apply(ground)) <= 1e-10


def test_form_contradicting_declared_modes_raises():
    class Detuned(GeneralizedOscillator):
        def normal_modes(self, point):
            (w,) = super().normal_modes(point).frequencies
            return NormalModeData((w * (1 + 1e-8),))

    model = Detuned()
    point = model.point(*PROBE["gho"])
    with pytest.raises(NumericalError, match="normal frequency"):
        model.normal_mode_ladders(point, model.default_basis(point, 10))


def test_gho_spectrum_unit():
    model = get_model("gho")
    point = model.point(1.0, 0.0, 1.0)
    spec = fock.eigh(model.hamiltonian(point, model.default_basis(point, 60)))
    np.testing.assert_allclose(spec.energies[:6], np.arange(6) + 0.5, atol=1e-9)


def test_gho_metric_sub_is_the_metric_block():
    # metric_sub:K is the metric without row and column K, entry for entry
    model = get_model("gho")
    rng = np.random.default_rng(23)
    points = [(2.0, 0.0, 1.0)]  # Y = 0, where -2YZ is a signed zero
    for _ in range(3):
        Y, Z = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
        points.append(((Y * Y + rng.uniform(0.5, 2.0)) / Z, Y, Z))
    for values in points:
        point = model.point(*values)
        for n in (0, 1, 3):
            g = model.closed_form("metric", point, (n,))
            for k, name in enumerate(model.param_names):
                keep = [i for i in range(3) if i != k]
                sub = model.closed_form(f"metric_sub:{name}", point, (n,))
                assert np.array_equal(sub, g[np.ix_(keep, keep)]), (values, n, name)


def test_sym_decoupled_spectrum():
    model = get_model("sym-coupled")
    point = model.point(1.0, 0.0)
    spec = fock.eigh(model.hamiltonian(point, model.default_basis(point, 12)))
    np.testing.assert_allclose(spec.energies[:4], [1.0, 2.0, 2.0, 3.0], atol=1e-10)


def test_ghol_ground_energy_shift():
    model = get_model("gho-linear")
    point = model.point(1.0, 1.0, 0.0, 1.0)
    spec = fock.eigh(model.hamiltonian(point, model.default_basis(point, 60)))
    # E_0 = w/2 - W^2 Z/(2 w^2) = 0 here
    assert abs(spec.energies[0]) < 1e-8


def test_normal_mode_data():
    sym = get_model("sym-coupled")
    data = sym.normal_modes(sym.point(1.0, 1.0))
    np.testing.assert_allclose(data.frequencies, (1.0, math.sqrt(3.0)), atol=1e-14)

    lin = get_model("lin-coupled")
    with pytest.raises(DomainError):
        lin.point(1.0, 1.0, 0.5)  # A = B is out of the implemented branch
    # C -> 0+ limit: zeta -> 0, frequencies -> sqrt(A), sqrt(B)
    data = lin.normal_modes(lin.point(1.0, 2.0, 1e-9))
    assert abs(data.angle) < 1e-9
    np.testing.assert_allclose(data.frequencies, (1.0, math.sqrt(2.0)), atol=1e-8)
    data = lin.normal_modes(lin.point(1.0, 2.0, 0.0))
    assert data.angle == 0.0


def test_lin_coupled_mixing_diagonalizes():
    lin = get_model("lin-coupled")
    for A, B, C in [(1.0, 2.0, 1.0), (0.8, 1.9, 0.7), (1.0, 3.0, 2.5)]:
        w1, w2, zeta = lin.mixing(lin.point(A, B, C))
        K = np.array([[A, C / 2], [C / 2, B]])
        R = np.array([[math.cos(zeta), -math.sin(zeta)],
                      [math.sin(zeta), math.cos(zeta)]])
        D = R @ K @ R.T
        np.testing.assert_allclose(D, np.diag([w1 * w1, w2 * w2]), atol=1e-12)
        assert -math.pi / 4 < zeta < math.pi / 4


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_closed_metric_symmetric_psd(name):
    model = get_model(name)
    point = model.point(*PROBE[name])
    qn = (1,) * model.dof if name not in ("gaussian",) else (0,)
    g = np.asarray(model.closed_form("metric", point, qn))
    np.testing.assert_allclose(g, g.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(g)
    assert eigs.min() >= -1e-10 * max(np.abs(g).max(), 1.0)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_derived_closed_forms_follow_their_sources(name):
    # Model derives qgt, phase_qgt and covariance for every catalog model
    model = get_model(name)
    point = model.point(*PROBE[name])
    half_omega = 0.5 * gauss.symplectic_form(model.dof)
    for qn in itertools.product(range(3), repeat=model.dof):
        phase = model.closed_form("phase_qgt", point, qn)
        assert np.array_equal(phase.imag, half_omega)
        cov = gauss.CovarianceMatrix(model.dof, model.closed_form("covariance", point, qn))
        assert np.array_equal(qgt.phase_block_from_covariance(cov).values, phase)
        if name == "gaussian" and qn != (0,):
            continue  # its parameter closed forms cover the ground state only
        G = model.closed_form("qgt", point, qn)
        assert np.array_equal(G.real, model.closed_form("metric", point, qn))
        assert np.array_equal(-2 * G.imag, model.closed_form("berry", point, qn))


def test_closed_berry_antisymmetric():
    model = get_model("gho")
    point = model.point(*PROBE["gho"])
    f = model.closed_form("berry", point, (2,))
    np.testing.assert_allclose(f, -f.T, atol=1e-12)


def test_gho_qgt_example_value():
    # G_XY at (2, 0, 1), n = 0: purely imaginary i/(16 w^3) with w = sqrt(2)
    model = get_model("gho")
    point = model.point(2.0, 0.0, 1.0)
    g = model.closed_form("qgt", point, (0,))
    w = math.sqrt(2.0)
    np.testing.assert_allclose(g[0, 1], 1j / (16 * w**3), atol=1e-15)
    np.testing.assert_allclose(g[0, 0], 1.0 / 128.0, atol=1e-15)  # Z^2/(32 w^4)


def test_gho_phase_block_structure():
    model = get_model("gho")
    point = model.point(2.0, 0.0, 1.0)
    g = model.closed_form("phase_qgt", point, (0,))
    np.testing.assert_allclose(g.imag, 0.5 * np.array([[0, 1], [-1, 0]]), atol=1e-15)


def test_palumbo_residual_small_on_positive_branch():
    model = get_model("gho")
    rng = np.random.default_rng(11)
    for _ in range(5):
        X, Z = rng.uniform(0.5, 3.0, size=2)
        Y = rng.uniform(0.1, 0.9) * math.sqrt(X * Z)
        assert model.palumbo_residual(model.point(X, Y, Z)) <= 1e-10


def test_full_gho_parameter_metric_is_singular():
    model = get_model("gho")
    g = model.closed_form("metric", model.point(*PROBE["gho"]), (0,))
    assert abs(np.linalg.det(g)) < 1e-14


def test_sym_phase_block_decoupling():
    # at k1 = 0 and m = n the phase block equals two independent oscillators
    sym = get_model("sym-coupled")
    gho = get_model("gho")
    for n in (0, 1, 2):
        k0 = 1.3
        blk = sym.closed_form("phase_qgt", sym.point(k0, 0.0), (n, n))
        single = gho.closed_form("phase_qgt", gho.point(k0, 0.0, 1.0), (n,))
        expected = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            expected[a, a] = single[0, 0]
            expected[2 + a, 2 + a] = single[1, 1]
            expected[a, 2 + a] = single[0, 1]
            expected[2 + a, a] = single[1, 0]
        np.testing.assert_allclose(blk, expected, atol=1e-12)


def test_sym_metric_structure_identity():
    # g_ij = b_m d_i w1 d_j w1/(8 w1^2) + b_n d_i w2 d_j w2/(8 w2^2)
    sym = get_model("sym-coupled")
    for (m, n), (k0, k1) in [((0, 0), (1.0, 1.0)), ((1, 2), (2.0, 0.7))]:
        point = sym.point(k0, k1)
        g = np.asarray(sym.closed_form("metric", point, (m, n)))
        w1, w2 = sym.normal_modes(point).frequencies
        dw1 = np.array([1 / (2 * w1), 0.0])
        dw2 = np.array([1 / (2 * w2), 1 / w2])
        bm, bn = m * m + m + 1, n * n + n + 1
        expected = (bm * np.outer(dw1, dw1) / (8 * w1**2)
                    + bn * np.outer(dw2, dw2) / (8 * w2**2))
        np.testing.assert_allclose(g, expected, atol=1e-12)


def test_sym_reduced_covariance_ground():
    sym = get_model("sym-coupled")
    point = sym.point(1.0, 1.0)
    red = sym.closed_form("covariance_reduced", point, (0, 0))
    w1, w2 = 1.0, math.sqrt(3.0)
    expected = 0.25 * np.diag([1 / w1 + 1 / w2, w1 + w2])
    np.testing.assert_allclose(red, expected, atol=1e-14)
    nu = sym.closed_form("symplectic_nu", point, (0, 0))
    np.testing.assert_allclose(nu, (w1 + w2) / (4 * math.sqrt(w1 * w2)), atol=1e-14)


def test_sym_det_matches_matrix():
    sym = get_model("sym-coupled")
    point = sym.point(1.3, 0.4)
    for qn in ((0, 0), (2, 1)):
        det = np.linalg.det(np.asarray(sym.closed_form("metric", point, qn)))
        np.testing.assert_allclose(sym.closed_form("metric_det", point, qn),
                                   det, rtol=1e-12)


def test_lin_det_matches_matrix():
    lin = get_model("lin-coupled")
    point = lin.point(1.0, 2.0, 1.0)
    for qn in ((0, 0), (1, 2)):
        det = np.linalg.det(np.asarray(lin.closed_form("metric", point, qn)))
        np.testing.assert_allclose(lin.closed_form("metric_det", point, qn),
                                   det, rtol=1e-10)


def test_ghol_det_matches_matrix():
    model = get_model("gho-linear")
    point = model.point(1.0, 1.5, 0.3, 1.0)
    for n in (0, 2):
        det = np.linalg.det(np.asarray(model.closed_form("metric_z1", point, (n,))))
        np.testing.assert_allclose(model.closed_form("metric_det", point, (n,)),
                                   det, rtol=1e-10)


def test_gaussian_matches_linear_term_slice():
    # sigma = X^(-1/4), mu = W/X over (W, X) reproduces the (W, X) rows of the
    # Z = 1 metric at Y = 0, n = 0
    gauss = oscillator_slice_gaussian()
    ghol = get_model("gho-linear")
    for W, X in [(1.0, 1.0), (0.5, 2.0)]:
        gm = gauss.closed_form("metric", gauss.point(W, X), (0,))
        g4 = ghol.closed_form("metric_z1", ghol.point(W, X, 0.0, 1.0), (0,))
        np.testing.assert_allclose(gm, g4[:2, :2], atol=1e-12)


def test_gaussian_default_derivatives_close_to_analytic():
    from qgeom.models.gaussian import GaussianModel
    analytic = oscillator_slice_gaussian()
    fd = GaussianModel(sigma=lambda W, X: X ** -0.25, mu=lambda W, X: W / X,
                       param_names=("W", "X"))
    point = analytic.point(1.0, 1.3)
    ga = analytic.closed_form("metric", point, (0,))
    gf = fd.closed_form("metric", point, (0,))
    np.testing.assert_allclose(gf, ga, atol=1e-9)


def test_unknown_quantity_raises():
    model = get_model("gho")
    with pytest.raises(ValueError, match="no closed form"):
        model.closed_form("nonsense", model.point(*PROBE["gho"]), (0,))


def test_lin_purity_printed_vs_consistent():
    """The printed ground-state purity disagrees with the model's own
    covariance; the catalog uses the consistent value sqrt(2EF/(2EF + C^2))."""
    lin = get_model("lin-coupled")
    A, B, C = 1.0, 2.0, 1.0
    point = lin.point(A, B, C)
    red = lin.closed_form("covariance_reduced", point, (0, 0))
    mu_from_cov = 0.5 / math.sqrt(np.linalg.det(red))
    E = math.sqrt(4 * A * B - C * C)
    F = A + B + E
    consistent = math.sqrt(2 * E * F / (2 * E * F + C * C))
    printed = math.sqrt((4 * A * B - C * C) / (4 * A * B))
    np.testing.assert_allclose(mu_from_cov, consistent, atol=1e-12)
    assert abs(printed - mu_from_cov) > 1e-2  # documented inconsistency
    np.testing.assert_allclose(lin.closed_form("purity", point, (0, 0)),
                               mu_from_cov, atol=1e-12)


@pytest.mark.parametrize("C", [0.0, 1e-9, 1e-3])
def test_lin_entropy_uses_vacuum_half_convention(C):
    # S(nu) with nu = 1/(2 mu): the vacuum sits at nu = 1/2, so the entropy
    # vanishes continuously as the coupling C -> 0+
    lin = get_model("lin-coupled")
    point = lin.point(1.0, 2.0, C)
    mu = lin.closed_form("purity", point, (0, 0))
    nu = 0.5 / mu
    expected = gauss.von_neumann_entropy(gauss.CovarianceMatrix(1, nu * np.eye(2)))
    entropy = lin.closed_form("entropy", point, (0, 0))
    assert entropy == pytest.approx(expected, abs=1e-12)
    assert 0.0 <= entropy < 1e-6


def test_energy_closed_forms():
    for name in MODEL_NAMES:
        model = get_model(name)
        point = model.point(*PROBE[name])
        freqs = model.normal_modes(point).frequencies
        qn = tuple([1] * model.dof)
        expected = sum(w * (n + 0.5) for w, n in zip(freqs, qn))
        if name == "gho-linear":
            W, X, Y, Z = point.values
            expected -= W * W * Z / (2 * (X * Z - Y * Y))
        np.testing.assert_allclose(model.closed_form("energy", point, qn),
                                   expected, rtol=1e-12)


def test_ghol_reduced_berry_matches_full():
    model = get_model("gho-linear")
    point = model.point(0.8, 1.7, 0.4, 1.0)
    full = model.closed_form("berry", point, (1,))
    reduced = model.closed_form("berry_z1", point, (1,))
    np.testing.assert_allclose(reduced, full[:3, :3], atol=1e-13)


def _fd_gaussian():
    """The oscillator-slice family without analytic gradients (FD `_grad`)."""
    from qgeom.models.gaussian import GaussianModel
    return GaussianModel(sigma=lambda W, X: X ** -0.25, mu=lambda W, X: W / X,
                         param_names=("W", "X"))


# catalog model -> (seeded in-domain draws, one point outside the domain)
BATCH_MODELS = {
    "gho": (get_model("gho"), (1.0, 2.0, 1.0)),
    "gho-linear": (get_model("gho-linear"), (1.0, 0.5, 1.0, 1.0)),
    "sym-coupled": (get_model("sym-coupled"), (1.0, -0.6)),
    "lin-coupled": (get_model("lin-coupled"), (2.0, 1.0, 0.5)),
    "gaussian": (get_model("gaussian"), (200.0, 0.0)),  # sigma^5 overflows
    "oscillator-slice": (oscillator_slice_gaussian(), (0.5, 1e300)),  # sigma^-5
    "fd-gaussian": (_fd_gaussian(), (0.5, 1e300)),
}


def _batch_rows(name, size, rng):
    """size in-domain points; every model also gets its special lines:
    Y = 0 (signed zeros), Z = 1 (the gho-linear slice forms), k1 = 0, C = 0."""
    u = lambda lo, hi: rng.uniform(lo, hi, size)  # noqa: E731
    if name == "gho":
        X, Z = u(0.8, 2.5), u(0.8, 2.5)
        Y = u(-0.6, 0.6) * np.sqrt(X * Z)
        Y[0] = 0.0
        return np.stack([X, Y, Z], axis=1)
    if name == "gho-linear":
        X = u(0.8, 2.0)
        Z = np.where(np.arange(size) % 2 == 0, 1.0, u(0.8, 2.0))
        Y = u(-0.5, 0.5) * np.sqrt(X * Z)
        Y[0] = 0.0
        return np.stack([u(-1.5, 1.5), X, Y, Z], axis=1)
    if name == "sym-coupled":
        k1 = u(-0.2, 2.2)
        k1[0] = 0.0
        return np.stack([u(0.6, 2.2), k1], axis=1)
    if name == "lin-coupled":
        A, B = u(0.7, 1.3), u(1.8, 3.0)
        C = u(0.0, 0.6) * 2 * np.sqrt(A * B)
        C[0] = 0.0
        return np.stack([A, B, C], axis=1)
    if name == "gaussian":
        return np.stack([u(-0.5, 1.0), u(-1.0, 1.0)], axis=1)
    return np.stack([u(-1.0, 1.0), u(0.5, 2.0)], axis=1)  # (W, X) families


def _first_error(call):
    try:
        call()
    except (DomainError, ValueError) as exc:
        return exc
    return None


@pytest.mark.parametrize("name", BATCH_MODELS)
def test_batch_closed_forms_equal_single_points_bitwise(name):
    # every closed quantity and valid qn: one call on a batch is the stack of
    # the single-point calls, bit for bit, and raises no warning
    from qgeom.models import ParamBatch
    model, _ = BATCH_MODELS[name]
    rows = _batch_rows(name, 48, np.random.default_rng(2024))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for quantity in model.closed_quantities():
            for qn in itertools.product(range(3), repeat=model.dof):
                singles, inside, outside = [], [], []
                for row in rows:
                    point = model.point(*row)
                    error = _first_error(lambda: model.closed_form(quantity, point, qn))
                    if isinstance(error, ValueError):  # this qn has no closed form
                        break
                    if error is None:
                        singles.append(model.closed_form(quantity, point, qn))
                        inside.append(row)
                    else:
                        outside.append(point)
                else:
                    # a quantity with its own domain (the Z = 1 slice forms):
                    # the whole batch names its first point outside
                    if outside:
                        with pytest.raises(DomainError) as exc:
                            model.closed_form(quantity, ParamBatch(model.param_names, rows), qn)
                        assert str(exc.value).endswith(f"(at {outside[0]})")
                    assert len(inside) >= 20, (quantity, qn)
                    want = np.array(singles)
                    got = model.closed_form(quantity, ParamBatch(model.param_names, inside), qn)
                    assert got.shape == want.shape, (quantity, qn)
                    assert got.dtype == want.dtype, (quantity, qn)
                    assert got.tobytes() == want.tobytes(), (quantity, qn)
                    continue
                with pytest.raises(ValueError):
                    model.closed_form(quantity, ParamBatch(model.param_names, rows), qn)


@pytest.mark.parametrize("name", BATCH_MODELS)
def test_batch_validation_names_the_first_point_outside(name):
    from qgeom.models import ParamBatch, ParamPoint
    model, outside = BATCH_MODELS[name]
    rows = _batch_rows(name, 24, np.random.default_rng(7))
    rows[9] = outside
    rows[15] = outside[::-1] if name != "gaussian" else (300.0, 0.0)
    bad = ParamPoint(model.param_names, outside)
    with pytest.raises(DomainError) as single:
        model.validate(bad)
    batch = ParamBatch(model.param_names, rows)
    for call in (lambda: model.validate(batch),
                 lambda: model.closed_form(model.closed_quantities()[0], batch, (0,) * model.dof)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as exc:
                call()
        # today's single-point message, then the point it belongs to
        assert str(exc.value) == f"{single.value} (at {bad})"
    with pytest.raises(DomainError, match=r"finite reals \(at "):
        ParamBatch(model.param_names, np.where(np.arange(len(rows))[:, None] == 3, np.inf, rows))


def test_entropy_closed_form_is_the_gauss_term():
    # one entropy term, with its pure-state edge: at k1 = 1e-5 the closed nu
    # sits 6e-12 above 1/2, inside NU_CLAMP, so both give 0
    sym = get_model("sym-coupled")
    point = sym.point(1.0, 1e-5)
    nu = sym.closed_form("symplectic_nu", point, (0, 0))
    assert 0.5 < nu <= 0.5 + gauss.NU_CLAMP
    assert sym.closed_form("entropy", point, (0, 0)) == gauss._entropy_term(nu) == 0.0
    lin = get_model("lin-coupled")
    point = lin.point(1.0, 2.0, 0.8)
    nu = 0.5 / lin.closed_form("purity", point, (0, 0))
    assert lin.closed_form("entropy", point, (0, 0)) == gauss._entropy_term(nu) > 0
    nus = np.array([0.5, 0.5 + 5e-11, 0.7, 2.0])
    np.testing.assert_array_equal(gauss._entropy_term(nus),
                                  [gauss._entropy_term(v) for v in nus])
