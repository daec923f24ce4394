import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

from dense_reference import (assert_hermitian, commutator, dagger, dense,
                             expectation, flagged_gaps, position_momentum,
                             weyl_product)
from qgeom import fock
from qgeom.errors import DomainError, NumericalError
from qgeom.models import get_model


def _quadratures(fb, mode=0):
    """Dense q and p of one mode, each written as a linear form."""
    r = fock.quadratics(fb)
    return dense(r[mode]), dense(r[fb.modes + mode])


def _ladders(fb, mode=0):
    """(a, a^dag) of one mode as complex linear forms:
    a = sqrt(w_b/2) q + i p/sqrt(2 w_b)."""
    w = fb.frequencies[mode]
    c = np.zeros(2 * fb.modes, dtype=complex)
    c[mode], c[fb.modes + mode] = np.sqrt(w / 2), 1j / np.sqrt(2 * w)
    return fock.form_operators(fb, [(None, c, 0.0), (None, c.conj(), 0.0)])


def _position(key, modes):
    """The entry (i, j), i <= j, of the form F = [[M, b], [b^T, 2k]] over
    (r, 1), r = (q_1..q_N, p_1..p_N), that carries the monomial `key`."""
    kind, *at = key
    one = 2 * modes
    if kind == "1":
        return one, one
    if kind in ("q", "p"):
        return at[0] + (modes if kind == "p" else 0), one
    if kind == "qp":
        return at[0], modes + at[0]
    shift = modes if kind == "pp" else 0
    return at[0] + shift, at[1] + shift


def _monomial_forms(keys, modes):
    """(M, b, k) of each monomial alone: a unit entry of F, 2 on its diagonal."""
    forms = []
    for key in keys:
        i, j = _position(key, modes)
        F = np.zeros((2 * modes + 1, 2 * modes + 1))
        F[i, j] = F[j, i] = 2.0 if i == j else 1.0
        forms.append((F[:-1, :-1], F[:-1, -1], F[-1, -1] / 2))
    return forms


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
    a, adag = _ladders(fb)
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    expected[1, 2] = np.sqrt(2.0)
    np.testing.assert_allclose(dense(a), expected, atol=1e-15)
    np.testing.assert_allclose(dense(adag), dagger(dense(a)), atol=1e-14)
    for op in (a, adag):  # not Hermitian, so no eigensolve
        with pytest.raises(ValueError, match="Hermitian"):
            fock.eigh(op)


def test_truncated_commutator():
    # [a, a^dag] = I except the last diagonal entry, which is -(n_max - 1)
    fb = fock.basis(1, 4)
    a, adag = _ladders(fb)
    comm = commutator(dense(a), dense(adag))
    np.testing.assert_allclose(comm, np.diag([1.0, 1.0, 1.0, -3.0]), atol=1e-14)


def test_position_two_level():
    fb = fock.basis(1, 2, 1.0)
    q, p = _quadratures(fb)
    np.testing.assert_allclose(q, np.array([[0, 1], [1, 0]]) / np.sqrt(2), atol=1e-15)
    assert_hermitian(q)
    assert_hermitian(p)


def test_vacuum_variance():
    for wb in (1.0, 2.5):
        fb = fock.basis(1, 20, wb)
        q, _ = fock.quadratics(fb)
        vac = np.zeros(fb.dim)
        vac[0] = 1.0
        np.testing.assert_allclose(np.vdot(q.apply(vac), q.apply(vac)), 1.0 / (2 * wb),
                                   atol=1e-13)
        q2 = expectation(dense(q) @ dense(q), vac)
        np.testing.assert_allclose(q2, 1.0 / (2 * wb), atol=1e-13)


def test_excited_position_variance():
    # <n|q^2|n> = (2n + 1)/(2 w); frozen at n = 1, w = 1 -> 1.5
    fb = fock.basis(1, 30, 1.0)
    q, _ = _quadratures(fb)
    state = np.zeros(fb.dim)
    state[1] = 1.0
    np.testing.assert_allclose(expectation(q @ q, state), 1.5, atol=1e-13)
    np.testing.assert_allclose(expectation(q, state), 0.0, atol=1e-14)


def test_canonical_commutator_bulk():
    fb = fock.basis(1, 30, 1.3)
    q, p = _quadratures(fb)
    comm = commutator(q, p)
    bulk = comm[: fb.cutoff - 1, : fb.cutoff - 1]
    np.testing.assert_allclose(bulk, 1j * np.eye(fb.cutoff - 1), atol=1e-12)


def test_kron_embedding_commutes_across_modes():
    fb = fock.basis(2, 6, (1.0, 2.0))
    q1, p1 = _quadratures(fb, 0)
    q2, p2 = _quadratures(fb, 1)
    for a, b in [(q1, q2), (q1, p2), (p1, q2), (p1, p2)]:
        assert np.abs(commutator(a, b)).max() <= 1e-12


def test_adjoint_consistency():
    fb = fock.basis(2, 5, (0.7, 1.9))
    for mode in range(2):
        a, adag = _ladders(fb, mode)
        np.testing.assert_allclose(dense(adag), dagger(dense(a)), atol=1e-14)
        np.testing.assert_allclose(dense(a.adjoint()), dense(adag), atol=1e-14)


def test_weyl_product():
    fb = fock.basis(1, 12)
    q, p = _quadratures(fb)
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
    # each pair monomial, written from a unit form entry, is the Weyl product
    # of the q and p that `quadratics` returns
    for fb in (fock.basis(1, 5, 0.8), fock.basis(2, 5, (0.8, 1.7))):
        r = [dense(op) for op in fock.quadratics(fb)] + [np.eye(fb.dim)]
        keys = [key for key in fock.monomials(fb.modes, fb.cutoff).index
                if key[0] in ("qq", "pp", "qp")]
        for key, op in zip(keys, fock.form_operators(fb, _monomial_forms(keys, fb.modes))):
            i, j = _position(key, fb.modes)
            np.testing.assert_allclose(dense(op), weyl_product(r[i], r[j]), atol=1e-13,
                                       err_msg=str(key))


@pytest.mark.parametrize("modes,frequencies", [(1, (0.7,)), (2, (0.8, 1.7)), (2, (2.1, 0.45))])
def test_quadratics_equal_their_linear_forms_bitwise(modes, frequencies):
    # the one-hot operators are those form_operators writes for each r_i
    fb = fock.basis(modes, 6, frequencies)
    forms = [(None, row, 0.0) for row in np.eye(2 * modes)]
    for got, want in zip(fock.quadratics(fb), fock.form_operators(fb, forms), strict=True):
        assert got.monomials is want.monomials
        assert got.coeffs.dtype == want.coeffs.dtype
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert got.data().tobytes() == want.data().tobytes()


@pytest.mark.parametrize("modes,frequencies", [
    (1, (0.7,)), (1, (2.3,)), (2, (0.8, 1.7)), (2, (2.1, 0.45)),
])
def test_monomials_match_dense_weyl_products(modes, frequencies):
    # every cached monomial, written from a unit form entry at the basis
    # frequency, against the Weyl product of independently built dense q and p
    cutoff = 7
    fb = fock.basis(modes, cutoff, frequencies)
    ref = [position_momentum(modes, cutoff, frequencies[a], a) for a in range(modes)]
    r = [q for q, _ in ref] + [p for _, p in ref] + [np.eye(fb.dim)]
    keys = list(fock.monomials(modes, cutoff).index)
    for key, op in zip(keys, fock.form_operators(fb, _monomial_forms(keys, modes))):
        i, j = _position(key, modes)
        np.testing.assert_allclose(assert_hermitian(dense(op)), weyl_product(r[i], r[j]),
                                   atol=1e-13, err_msg=str(key))
    for op, expected in zip(fock.quadratics(fb), r[:-1], strict=True):
        np.testing.assert_allclose(dense(op), expected, atol=1e-13)


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
    np.testing.assert_allclose(assert_hermitian(dense(op)), expected, atol=1e-12)
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


def _window_input(name, values=None):
    """An eigh input: a model Hamiltonian, or one of two forms for edge cases."""
    if name == "diagonal":  # (q^2 + p^2)/2 - 5: the Gershgorin bound is the lowest level
        return fock.form_operators(fock.basis(1, 40), [(np.eye(2), np.zeros(2), -5.0)])[0]
    if name == "random-complex":  # complex Hermitian with levels of both signs
        rng = np.random.default_rng(7)
        M = rng.standard_normal((4, 4))
        M = M + M.T
        M[0, 3] = M[3, 0] = M[1, 2] = M[2, 1] = 0.0  # q_a p_b of two modes
        return fock.form_operators(fock.basis(2, 10, (1.0, 1.3)),
                                   [(M, rng.standard_normal(4), -8.0)])[0]
    model = get_model(name)
    point = model.point(*values)
    return model.hamiltonian(point, model.default_basis(point, 14 if model.dof == 2 else 60))


def test_eigh_identity():
    one = fock.form_operators(fock.basis(1, 5), [(None, np.zeros(2), 1.0)])[0]
    spec = fock.eigh(one)
    np.testing.assert_allclose(spec.energies, np.ones(5), atol=1e-14)
    np.testing.assert_allclose(np.abs(spec.states), np.eye(5), atol=1e-14)


def test_eigh_rejects_nonhermitian():
    iq = fock.form_operators(fock.basis(1, 6, 1.3), [(None, np.array([1j, 0.0]), 0.0)])[0]
    with pytest.raises(ValueError, match="needs a Hermitian matrix"):
        fock.eigh(iq)


def test_eigh_unit_oscillator():
    spec = fock.eigh(_window_input("diagonal"))
    np.testing.assert_allclose(spec.energies[:5], np.arange(5) - 4.5, atol=1e-10)
    # eigenvectors unit norm with the gauge pivot real positive
    norms = np.linalg.norm(spec.states, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    idx = np.argmax(np.abs(spec.states), axis=0)
    pivots = spec.states[idx, np.arange(spec.dim)]
    assert np.all(np.real(pivots) > 0)
    assert np.abs(np.imag(pivots)).max() <= 1e-14


def test_eigh_residual():
    H = _window_input("random-complex")
    spec = fock.eigh(H)
    resid = np.abs(dense(H) @ spec.states - spec.states * spec.energies).max()
    assert resid <= 1e-10 * np.abs(spec.energies).max()


def test_eigh_gauge_deterministic():
    H = _window_input("random-complex")
    s1 = fock.eigh(H)
    s2 = fock.eigh(H)
    assert np.iscomplexobj(s1.states)
    assert np.array_equal(s1.states, s2.states)
    assert np.array_equal(s1.energies, s2.energies)
    # each column's largest-|.| entry is real positive
    pivots = s1.states[np.argmax(np.abs(s1.states), axis=0), np.arange(s1.dim)]
    assert np.all(pivots.real > 0)
    assert np.abs(pivots.imag).max() <= 1e-14


def test_generalized_oscillator_frequency():
    # H = (Z p^2 + X q^2)/2 + Y(pq + qp)/2 has E_n = w(n + 1/2), w = sqrt(XZ - Y^2)
    X, Y, Z = 2.0, 0.5, 1.0
    w = np.sqrt(X * Z - Y * Y)
    fb = fock.basis(1, 80, w)
    H = fock.form_operators(fb, [(np.array([[X, Y], [Y, Z]]), np.zeros(2), 0.0)])[0]
    spec = fock.eigh(H)
    np.testing.assert_allclose(spec.energies[:6], w * (np.arange(6) + 0.5), atol=1e-8)


def test_degeneracy_guard():
    spec = fock.Spectrum(np.array([0.0, 1.0, 1.0 + 1e-12, 3.0]), np.eye(4))
    spec.check_nondegenerate(0)
    with pytest.raises(fock.DegeneracyError):
        spec.check_nondegenerate(1)


def test_truncation_convergence_report():
    fb = fock.basis(1, 12, 1.0)

    def ground_energy(basis):
        H = fock.form_operators(basis, [(np.diag([4.0, 1.0]), np.zeros(2), 0.0)])[0]
        return fock.eigh(H).energies[0]

    report = fock.truncation_convergence(ground_energy, fb, tol=1e-8)
    # basis frequency 1 vs oscillator frequency 2: slow but converging
    assert report.cutoffs == (12, 24)
    assert report.deviation > 0
    assert not fock.truncation_convergence(ground_energy, fock.basis(1, 8, 1.0),
                                           tol=1e-14).converged


def test_flagged_gaps():
    spec = fock.Spectrum(np.array([0.0, 1.0, 1.0 + 1e-12, 3.0]), np.eye(4))
    np.testing.assert_array_equal(flagged_gaps(spec), [False, True, False])


@pytest.mark.parametrize("complex_states", [False, True])
def test_spectrum_overlaps_match_dense_projection(complex_states):
    H = _window_input(*(("random-complex",) if complex_states
                        else ("sym-coupled", (1.0, 0.8))))
    spec = fock.eigh(H)
    assert np.iscomplexobj(spec.states) == complex_states
    rng = np.random.default_rng(11)
    vec = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    mat = rng.standard_normal((H.dim, 4)) + 1j * rng.standard_normal((H.dim, 4))
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


@pytest.mark.parametrize("name,values", [
    ("sym-coupled", (1.0, 0.8)),      # real symmetric, exchange-antisymmetric levels
    ("lin-coupled", (1.0, 2.0, 1.0)),
    ("gho", (2.0, 0.5, 1.0)),         # complex Hermitian
    ("random-complex", "two-mode"),
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
    if name == "diagonal":  # the off-diagonal entries cancel exactly
        offdiag = dense(H) - np.diag(np.diag(dense(H)))
        assert not offdiag.any()


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
    with pytest.raises(ValueError, match="parity must be"):
        fock.eigh(H, lowest=3, parity=2)


def test_eigh_lowest_falls_back_to_full_solve():
    H = _window_input("diagonal")
    full = fock.eigh(H).energies
    for k in (H.dim - 1, H.dim, H.dim + 10):
        np.testing.assert_array_equal(fock.eigh(H, lowest=k).energies, full)
    with pytest.raises(ValueError):
        fock.eigh(H, lowest=0)
    np.testing.assert_allclose(fock.eigh(H, lowest=2).energies, [-4.5, -3.5], atol=1e-10)


def test_eigh_lowest_failures_raise_numerical_error(monkeypatch):
    H = _window_input("diagonal")
    # a shift above the lowest level leaves H - sigma indefinite
    monkeypatch.setattr(fock, "SHIFT_MARGIN", -0.2)
    with pytest.raises(NumericalError, match="banded Cholesky"):
        fock.eigh(H, lowest=3)
    monkeypatch.undo()
    coeffs = H.coeffs.copy()
    coeffs[H.monomials.index[("1",)]] = np.nan
    with pytest.raises(NumericalError, match="finite matrix entries"):
        fock.eigh(fock.Operator(H.monomials, coeffs), lowest=3)

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(NumericalError, match="ARPACK"):
        fock.eigh(H, lowest=3)


@pytest.mark.parametrize("lowest", [None, 3])  # dense LAPACK and the window
@pytest.mark.parametrize("bad,where", [  # where: the monomial given the bad coefficient
    (np.nan, ("1",)), (np.inf, ("1",)), (np.nan, ("qp", 0)), (-np.inf, ("qp", 0)),
])
def test_eigh_rejects_non_finite_entries(lowest, bad, where):
    H = fock.form_operators(fock.basis(1, 10), [(np.eye(2), np.zeros(2), 0.0)])[0]
    coeffs = H.coeffs.copy()
    coeffs[H.monomials.index[where]] = bad
    # data() weighs every monomial's entries by its coefficient, so the bad
    # one reaches every pattern entry, also where its monomial is 0 (inf * 0)
    found = len(H.monomials.pattern.rows)
    with pytest.raises(NumericalError, match=f"finite matrix entries; found {found} NaN or inf"):
        with np.errstate(invalid="ignore"):
            fock.eigh(fock.Operator(H.monomials, coeffs), lowest=lowest)


def _rows_on_numpy(dtype) -> int:
    """The most rows a full solve of this dtype runs on numpy's LAPACK."""
    return math.isqrt(fock.NUMPY_EIGH_MAX_EXTRA_BYTES // (2 * np.dtype(dtype).itemsize))


@pytest.mark.parametrize("dtype, Y", [(float, 0.0), (complex, 0.5)])
def test_eigh_agrees_with_scipy_on_both_sides_of_the_numpy_bound(monkeypatch, dtype, Y):
    # gho's (q p + p q)/2 term is imaginary in the Fock basis, so Y = 0 is real
    import scipy.linalg
    calls = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or real_eigh(a))
    model = get_model("gho")
    point = model.point(2.0, Y, 1.0)
    bound = _rows_on_numpy(dtype)
    for cutoff in (80, bound, bound + 1):
        H = model.hamiltonian(point, fock.basis(1, cutoff))
        calls.clear()
        spec = fock.eigh(H)
        assert calls == ([(cutoff, cutoff)] if cutoff <= bound else []), cutoff
        assert spec.states.dtype == dtype
        energies, states = scipy.linalg.eigh(dense(H), driver="evd")
        states = states * fock._gauge_phases(states)
        np.testing.assert_allclose(spec.energies, energies, rtol=1e-13, atol=0)
        np.testing.assert_allclose(spec.states, states, rtol=0, atol=1e-12)


def test_sizes_beyond_physical_memory_raise_domain_error(monkeypatch):
    # the guard runs before any allocation: a tiny stated memory trips it
    H = get_model("gho").hamiltonian(get_model("gho").point(2.0, 0.5, 1.0),
                                     fock.basis(1, 40))
    monkeypatch.setattr(fock, "PHYSICAL_MEMORY_BYTES", 4 * 40 * 40 * 16)
    with pytest.raises(DomainError, match="a dense eigensolve of dim 40 needs"):
        fock.eigh(H)
    fock.eigh(H, lowest=3)  # a window needs only its band
    with pytest.raises(DomainError, match="a 1-mode Fock basis at cutoff 41 needs"):
        fock.monomials.__wrapped__(1, 41)  # past the cache
