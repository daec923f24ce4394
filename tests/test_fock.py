import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from dense_reference import (assert_hermitian, commutator, dagger, dense,
                             expectation, flagged_gaps, position_momentum,
                             weyl_product)
from qgeom import fock
from qgeom.errors import ConvergenceError, NumericalError
from qgeom.models import get_model


def test_basis_validation():
    with pytest.raises(ValueError):
        fock.basis(1, 1)
    with pytest.raises(ValueError):
        fock.basis(1, 10, -1.0)
    fb = fock.basis(2, 5, (1.0, 2.0))
    assert fb.dim == 25
    assert fb.with_cutoff(7).dim == 49


def test_ladder_entries():
    fb = fock.basis(1, 3)
    a, adag = fock.ladder(fb)
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    expected[1, 2] = np.sqrt(2.0)
    np.testing.assert_allclose(dense(a), expected, atol=1e-15)
    np.testing.assert_allclose(dense(adag), dagger(dense(a)), atol=1e-14)
    assert not a.hermitian and not adag.hermitian


def test_truncated_commutator():
    # [a, a^dag] = I except the last diagonal entry, which is -(n_max - 1)
    fb = fock.basis(1, 4)
    a, adag = fock.ladder(fb)
    comm = commutator(dense(a), dense(adag))
    np.testing.assert_allclose(comm, np.diag([1.0, 1.0, 1.0, -3.0]), atol=1e-14)


def test_ladder_mode_out_of_range():
    fb = fock.basis(2, 3)
    with pytest.raises(ValueError):
        fock.ladder(fb, 2)


def test_position_two_level():
    fb = fock.basis(1, 2, 1.0)
    q, p = fock.position_momentum(fb)
    np.testing.assert_allclose(dense(q), np.array([[0, 1], [1, 0]]) / np.sqrt(2),
                               atol=1e-15)
    assert q.hermitian and p.hermitian


def test_vacuum_variance():
    for wb in (1.0, 2.5):
        fb = fock.basis(1, 20, wb)
        q, _ = fock.position_momentum(fb)
        vac = np.zeros(fb.dim)
        vac[0] = 1.0
        np.testing.assert_allclose(np.vdot(q.apply(vac), q.apply(vac)), 1.0 / (2 * wb),
                                   atol=1e-13)
        q2 = expectation(dense(q) @ dense(q), vac)
        np.testing.assert_allclose(q2, 1.0 / (2 * wb), atol=1e-13)


def test_excited_position_variance():
    # <n|q^2|n> = (2n + 1)/(2 w); frozen at n = 1, w = 1 -> 1.5
    fb = fock.basis(1, 30, 1.0)
    q, _ = fock.position_momentum(fb)
    state = np.zeros(fb.dim)
    state[1] = 1.0
    np.testing.assert_allclose(expectation(dense(q) @ dense(q), state), 1.5, atol=1e-13)
    np.testing.assert_allclose(expectation(dense(q), state), 0.0, atol=1e-14)


def test_canonical_commutator_bulk():
    fb = fock.basis(1, 30, 1.3)
    q, p = fock.position_momentum(fb)
    comm = commutator(dense(q), dense(p))
    bulk = comm[: fb.cutoff - 1, : fb.cutoff - 1]
    np.testing.assert_allclose(bulk, 1j * np.eye(fb.cutoff - 1), atol=1e-12)


def test_kron_embedding_commutes_across_modes():
    fb = fock.basis(2, 6, (1.0, 2.0))
    q1, p1 = map(dense, fock.position_momentum(fb, 0))
    q2, p2 = map(dense, fock.position_momentum(fb, 1))
    for a, b in [(q1, q2), (q1, p2), (p1, q2), (p1, p2)]:
        assert np.abs(commutator(a, b)).max() <= 1e-12


def test_adjoint_consistency():
    fb = fock.basis(2, 5, (0.7, 1.9))
    for mode in range(2):
        a, adag = fock.ladder(fb, mode)
        np.testing.assert_allclose(dense(adag), dagger(dense(a)), atol=1e-14)
        np.testing.assert_allclose(dense(a.adjoint()), dense(adag), atol=1e-14)


def test_weyl_product():
    fb = fock.basis(1, 12)
    q, p = map(dense, fock.position_momentum(fb))
    qp = weyl_product(q, p)
    np.testing.assert_allclose(qp, 0.5 * (q @ p + p @ q), atol=1e-14)
    assert_hermitian(qp)
    # single operand and commuting operands
    assert weyl_product(q) is q
    np.testing.assert_allclose(weyl_product(q, q), q @ q, atol=1e-13)


def test_weyl_dimension_mismatch():
    q1, _ = position_momentum(1, 4, 1.0, 0)
    q2, _ = position_momentum(1, 5, 1.0, 0)
    with pytest.raises(ValueError):
        weyl_product(q1, q2)


def test_quadratics_match_products():
    fb = fock.basis(2, 5, (0.8, 1.7))
    quads = fock.quadratics(fb)
    qs, ps = [dense(q) for q in quads.qs], [dense(p) for p in quads.ps]
    for (a, b), op in quads.qq.items():
        np.testing.assert_allclose(dense(op), qs[a] @ qs[b], atol=1e-13)
    for (a, b), op in quads.pp.items():
        np.testing.assert_allclose(dense(op), 0.5 * (ps[a] @ ps[b] + ps[b] @ ps[a]),
                                   atol=1e-13)
    for a, op in enumerate(quads.qp):
        np.testing.assert_allclose(dense(op), weyl_product(qs[a], ps[a]), atol=1e-13)


@pytest.mark.parametrize("modes,frequencies", [
    (1, (0.7,)), (1, (2.3,)), (2, (0.8, 1.7)), (2, (2.1, 0.45)),
])
def test_monomials_match_dense_weyl_products(modes, frequencies):
    # every cached monomial, scaled to the basis frequency, against the
    # Weyl product of independently built dense q and p
    cutoff = 7
    fb = fock.basis(modes, cutoff, frequencies)
    quads = fock.quadratics(fb)
    ref = [dict(zip("qp", position_momentum(modes, cutoff, frequencies[a], a)))
           for a in range(modes)]
    got = {("1",): fock.form_operators(fb, [(None, np.zeros(2 * modes), 1.0)])[0]}
    got.update({("q", a): op for a, op in enumerate(quads.qs)})
    got.update({("p", a): op for a, op in enumerate(quads.ps)})
    got.update({("qq",) + key: op for key, op in quads.qq.items()})
    got.update({("pp",) + key: op for key, op in quads.pp.items()})
    got.update({("qp", a): op for a, op in enumerate(quads.qp)})
    assert set(got) == set(fock.monomials(modes, cutoff).index)
    for key, op in got.items():
        kind, modes_of = key[0], key[1:]
        if kind == "1":
            expected = np.eye(fb.dim)
        elif kind == "qp":
            expected = weyl_product(ref[modes_of[0]]["q"], ref[modes_of[0]]["p"])
        else:  # q, p, qq, pp: one factor of the kind per listed mode
            expected = weyl_product(*(ref[a][kind[0]] for a in modes_of))
        assert op.hermitian, key
        np.testing.assert_allclose(dense(op), expected, atol=1e-13, err_msg=str(key))


@pytest.mark.parametrize("modes,frequencies", [(1, (0.7,)), (2, (0.8, 1.7))])
def test_form_operators_match_dense_weyl_form(modes, frequencies):
    # r^T M r/2 + b^T r + k, every pair of r Weyl-ordered, from dense q and p
    cutoff = 7
    fb = fock.basis(modes, cutoff, frequencies)
    rng = np.random.default_rng(3)
    M = rng.standard_normal((2 * modes, 2 * modes))
    M = M + M.T
    if modes == 2:
        M[0, 3] = M[3, 0] = M[1, 2] = M[2, 1] = 0.0  # q_a p_b of two modes
    b, k = rng.standard_normal(2 * modes), 0.3
    qp = [position_momentum(modes, cutoff, frequencies[a], a) for a in range(modes)]
    r = [q for q, _ in qp] + [p for _, p in qp]
    expected = k * np.eye(fb.dim) + sum(b[i] * r[i] for i in range(2 * modes))
    for i in range(2 * modes):
        for j in range(2 * modes):
            expected = expected + 0.5 * M[i, j] * weyl_product(r[i], r[j])
    # with a complex linear form, as a ladder, in the same call
    op, linear = fock.form_operators(fb, [(M, b, k), (None, 1j * b, 2.0)])
    assert op.hermitian
    np.testing.assert_allclose(dense(op), expected, atol=1e-12)
    np.testing.assert_allclose(dense(linear), 2.0 * np.eye(fb.dim) + 1j * sum(
        b[i] * r[i] for i in range(2 * modes)), atol=1e-12)


def test_form_operators_reject_forms_without_monomials():
    fb = fock.basis(2, 4)
    cross = np.eye(4)
    cross[0, 3] = cross[3, 0] = 0.5  # q1 p2
    with pytest.raises(ValueError, match="no monomial"):
        fock.form_operators(fb, [(cross, np.zeros(4), 0.0)])
    skew = np.eye(4)
    skew[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        fock.form_operators(fb, [(np.eye(4), np.zeros(4), 0.0), (skew, np.zeros(4), 0.0)])
    with pytest.raises(ValueError, match="shape"):
        fock.form_operators(fb, [(np.eye(2), np.zeros(4), 0.0)])


def test_operator_matrix_hermitian_flag():
    fb = fock.basis(1, 6, 1.3)
    q, p = fock.position_momentum(fb)
    H = 0.5 * (q - 2.0 * p) + 1.5
    assert H.hermitian
    assert_hermitian(dense(H))
    bad = 1j * q  # anti-Hermitian: the coefficient is not real
    assert not bad.hermitian
    with pytest.raises(ValueError):
        fock.eigh(bad)
    with pytest.raises(ValueError):
        q + fock.quadratics(fock.basis(1, 7)).qs[0]  # bases of different shape


def test_eigh_identity():
    spec = fock.eigh(np.eye(5))
    np.testing.assert_allclose(spec.energies, np.ones(5), atol=1e-14)
    np.testing.assert_allclose(np.abs(spec.states), np.eye(5), atol=1e-14)


def test_eigh_rejects_nonhermitian():
    with pytest.raises(ValueError):
        fock.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_unit_oscillator():
    fb = fock.basis(1, 40, 1.0)
    q, p = map(dense, fock.position_momentum(fb))
    H = 0.5 * (p @ p) + 0.5 * (q @ q)
    spec = fock.eigh(assert_hermitian(H))
    np.testing.assert_allclose(spec.energies[:5], np.arange(5) + 0.5, atol=1e-10)
    # eigenvectors unit norm with the gauge pivot real positive
    norms = np.linalg.norm(spec.states, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    idx = np.argmax(np.abs(spec.states), axis=0)
    pivots = spec.states[idx, np.arange(spec.dim)]
    assert np.all(np.real(pivots) > 0)
    assert np.abs(np.imag(pivots)).max() <= 1e-14


def test_eigh_residual():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(60, 60)) + 1j * rng.normal(size=(60, 60))
    m = m + m.conj().T
    spec = fock.eigh(m)
    resid = np.abs(m @ spec.states - spec.states * spec.energies).max()
    assert resid <= 1e-10 * np.abs(spec.energies).max()


def test_eigh_gauge_deterministic():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    m = m + m.conj().T
    s1 = fock.eigh(m)
    s2 = fock.eigh(m)
    assert np.array_equal(s1.states, s2.states)
    assert np.array_equal(s1.energies, s2.energies)
    # eigh fixes the gauge in place; the public gauge_fix returns a copy
    twisted = s1.states * np.exp(1j * np.arange(40))
    fixed = fock.gauge_fix(twisted)
    assert not np.shares_memory(fixed, twisted)
    np.testing.assert_allclose(fixed, s1.states, atol=1e-14)


def test_generalized_oscillator_frequency():
    # H = (Z p^2 + X q^2)/2 + Y(pq + qp)/2 has E_n = w(n + 1/2), w = sqrt(XZ - Y^2)
    X, Y, Z = 2.0, 0.5, 1.0
    w = np.sqrt(X * Z - Y * Y)
    fb = fock.basis(1, 80, w)
    q, p = map(dense, fock.position_momentum(fb))
    H = 0.5 * Z * (p @ p) + 0.5 * X * (q @ q) + weyl_product(q, p) * Y
    spec = fock.eigh(assert_hermitian(H))
    np.testing.assert_allclose(spec.energies[:6], w * (np.arange(6) + 0.5), atol=1e-8)


def test_degeneracy_guard():
    spec = fock.eigh(np.diag([0.0, 1.0, 1.0 + 1e-12, 3.0]))
    spec.check_nondegenerate(0)
    with pytest.raises(fock.DegeneracyError):
        spec.check_nondegenerate(1)


def test_truncation_convergence_report():
    fb = fock.basis(1, 12, 1.0)

    def ground_energy(basis):
        quads = fock.quadratics(basis)
        H = 0.5 * quads.pp[(0, 0)] + 0.5 * 4.0 * quads.qq[(0, 0)]
        return fock.eigh(H).energies[0]

    report = fock.truncation_convergence(ground_energy, fb, tol=1e-8)
    # basis frequency 1 vs oscillator frequency 2: slow but converging
    assert report.cutoffs == (12, 24)
    assert report.deviation > 0
    with pytest.raises(ConvergenceError):
        fock.truncation_convergence(ground_energy, fock.basis(1, 8, 1.0),
                                    tol=1e-14, raise_on_failure=True)


def test_flagged_gaps():
    spec = fock.eigh(np.diag([0.0, 1.0, 1.0 + 1e-12, 3.0]))
    np.testing.assert_array_equal(flagged_gaps(spec), [False, True, False])


@pytest.mark.parametrize("complex_states", [False, True])
def test_spectrum_overlaps_match_dense_projection(complex_states):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((30, 30))
    if complex_states:
        a = a + 1j * rng.standard_normal((30, 30))
    spec = fock.eigh(a + a.conj().T)
    assert np.iscomplexobj(spec.states) == complex_states
    vec = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    mat = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
    for v in (vec, vec.real, mat, mat.real):
        for upto in (None, 7):
            expected = spec.states[:, :upto].conj().T @ v
            got = spec.overlaps(v, upto=upto)
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)


def test_spectrum_overlaps_do_not_copy_states():
    # states.conj().T @ v would first make a real and then a complex copy
    dim = 1600
    rng = np.random.default_rng(5)
    spec = fock.Spectrum(np.arange(dim, dtype=float),
                         np.asfortranarray(rng.standard_normal((dim, dim))))
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    tracemalloc.start()
    try:
        spec.overlaps(vec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dim ** 2 * 8


def _window_input(name, values):
    """A model Hamiltonian, or one of the raw-matrix edge cases."""
    if name == "random-complex":  # levels of both signs; dense or scipy.sparse
        rng = np.random.default_rng(7)
        a = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
        h = 0.5 * (a + a.conj().T)
        return scipy.sparse.csr_array(h) if values == "sparse" else h
    if name == "diagonal":  # the Gershgorin bound is the lowest level itself
        return np.diag(np.random.default_rng(7).permutation(40) - 5.0)
    model = get_model(name)
    point = model.point(*values)
    return model.hamiltonian(point, model.default_basis(point, 14 if model.dof == 2 else 60))


@pytest.mark.parametrize("name,values", [
    ("sym-coupled", (1.0, 0.8)),      # real symmetric, exchange-antisymmetric levels
    ("lin-coupled", (1.0, 2.0, 1.0)),
    ("gho", (2.0, 0.5, 1.0)),         # complex Hermitian
    ("random-complex", "dense"),
    ("random-complex", "sparse"),
    ("diagonal", None),
])
def test_eigh_lowest_window_matches_full(name, values):
    H = _window_input(name, values)
    full = fock.eigh(H)
    window = fock.eigh(H, lowest=12)
    assert window.dim == 12
    np.testing.assert_allclose(window.energies, full.energies[:12], atol=1e-10)
    overlaps = np.abs(np.sum(window.states.conj() * full.states[:, :12], axis=0))
    np.testing.assert_allclose(overlaps, 1.0, atol=1e-10)
    if name == "random-complex":
        assert full.energies[0] < 0 < full.energies[-1]


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("name,values", [
    ("sym-coupled", (1.0, 0.8)),
    ("lin-coupled", (1.0, 2.0, 1.0)),
    ("gho", (2.0, 0.5, 1.0)),         # complex Hermitian
])
def test_eigh_parity_sector_matches_full(name, values, parity):
    H = _window_input(name, values)
    assert H.keeps_parity
    full = fock.eigh(H)
    outside = H.monomials.parity != parity
    # each full level lies in one sector; take those of this parity
    weight_outside = np.sum(np.abs(full.states[outside]) ** 2, axis=0)
    energies, states = full.energies[weight_outside < 0.5], full.states[:, weight_outside < 0.5]
    for lowest in (12, None):  # the sector's window and its dense solve
        spec = fock.eigh(H, lowest=lowest, parity=parity)
        assert spec.dim == (12 if lowest else len(energies))
        np.testing.assert_allclose(spec.energies, energies[:spec.dim], rtol=0, atol=1e-12)
        overlaps = np.abs(np.sum(spec.states.conj() * states[:, :spec.dim], axis=0))
        np.testing.assert_allclose(overlaps, 1.0, atol=1e-10)
        assert spec.states.shape[0] == H.dim
        assert not spec.states[outside].any()
    # the dense fallback counts the sector's levels, not the basis's
    assert fock.eigh(H, lowest=len(energies) - 1, parity=parity).dim == len(energies)


def test_eigh_parity_sector_needs_a_parity_keeping_operator():
    for name, values in (("gho-linear", (0.5, 2.0, 0.5, 1.0)), ("gaussian", (0.5, 0.3))):
        H = _window_input(name, values)
        assert not H.keeps_parity  # q_a or p_a terms join the sectors
        for lowest in (3, None):
            with pytest.raises(ValueError, match="joins the two parity sectors"):
                fock.eigh(H, lowest=lowest, parity=0)
    H = _window_input("sym-coupled", (1.0, 0.8))
    for matrix in (dense(H), scipy.sparse.csr_array(dense(H))):
        with pytest.raises(ValueError, match="needs an Operator"):
            fock.eigh(matrix, lowest=3, parity=0)
    with pytest.raises(ValueError, match="parity must be"):
        fock.eigh(H, lowest=3, parity=2)


def test_eigh_lowest_falls_back_to_full_solve():
    m = np.diag([3.0, 1.0, 2.0, 0.5])
    for k in (3, 4, 10):
        spec = fock.eigh(m, lowest=k)
        np.testing.assert_array_equal(spec.energies, [0.5, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fock.eigh(m, lowest=0)
    np.testing.assert_allclose(fock.eigh(m, lowest=2).energies, [0.5, 1.0], atol=1e-10)


def test_eigh_lowest_failures_raise_numerical_error(monkeypatch):
    m = np.diag(np.arange(10.0))
    # a shift above the lowest level leaves H - sigma indefinite
    monkeypatch.setattr(fock, "SHIFT_MARGIN", -0.2)
    with pytest.raises(NumericalError, match="banded Cholesky"):
        fock.eigh(m, lowest=3)
    monkeypatch.undo()
    with pytest.raises(NumericalError, match="finite matrix entries"):
        fock.eigh(np.diag([np.nan] + [1.0] * 9), lowest=3)

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(NumericalError, match="ARPACK"):
        fock.eigh(m, lowest=3)


@pytest.mark.parametrize("lowest", [None, 3])  # dense LAPACK and the window
@pytest.mark.parametrize("bad,where", [
    (np.nan, (0, 0)), (np.inf, (0, 0)), (np.nan, (2, 3)), (-np.inf, (2, 3)),
])
def test_eigh_rejects_non_finite_entries(lowest, bad, where):
    m = np.diag(np.arange(10.0))
    m[where] = m[where[::-1]] = bad
    for op in (m, scipy.sparse.csr_array(m)):
        with pytest.raises(NumericalError, match="finite matrix entries; found [12] NaN or inf"):
            fock.eigh(op, lowest=lowest)
