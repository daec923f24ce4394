import collections
import dataclasses
import math

import numpy as np
import pytest

from qgeom import geometry
from qgeom.errors import DomainError, NumericalError
from qgeom.models import get_model


def constant_field(matrix):
    """A field whose value is `matrix` at every point of the stack."""
    matrix = np.array(matrix, dtype=float)
    return geometry.MetricField(
        len(matrix), lambda x: np.broadcast_to(matrix, (len(x),) + matrix.shape))


def sphere_metrics(x, scale=1.0):
    """(P, 2, 2): the round metric diag(1, sin^2 theta) at each (theta, phi)."""
    g = np.zeros((len(x), 2, 2))
    g[:, 0, 0] = scale
    g[:, 1, 1] = scale * np.sin(x[:, 0]) ** 2
    return g


def sphere_field():
    return geometry.MetricField(2, sphere_metrics)


def euclidean_field(dim):
    return constant_field(np.eye(dim))


def test_field_validates_shape_and_symmetry():
    bad = constant_field([[1.0, 0.2], [0.1, 1.0]])
    with pytest.raises(NumericalError):
        bad(np.array([0.0, 0.0]))
    wrong = dataclasses.replace(constant_field(np.eye(3)), dim=2)
    with pytest.raises(ValueError, match="metric is 3x3 but the field has 2 coordinates"):
        wrong(np.array([0.0, 0.0]))
    # a per-point function breaks the stack contract, and says so
    per_point = geometry.MetricField(2, lambda x: np.eye(2))
    with pytest.raises(ValueError, match=r"returned shape \(2, 2\) for 1 points"):
        per_point(np.array([0.0, 0.0]))
    with pytest.raises(NumericalError, match=r"metric is not finite at \[0.0, 0.0\]"):
        constant_field([[1.0, 0.0], [0.0, np.nan]])(np.array([0.0, 0.0]))


def test_euclidean_is_flat():
    f = euclidean_field(3)
    x = np.array([0.4, 1.0, -0.3])
    np.testing.assert_allclose(geometry.christoffel(f, x), 0.0, atol=1e-10)
    np.testing.assert_allclose(geometry.riemann(f, x), 0.0, atol=1e-10)
    assert geometry.scalar_2d_direct(euclidean_field(2), np.array([1.0, 2.0])) == \
        pytest.approx(0.0, abs=1e-9)


def test_christoffel_symmetry_lower_indices():
    f = geometry.metric_field(get_model("lin-coupled"), "metric", (0, 0))
    gam = geometry.christoffel(f, np.array([1.0, 2.0, 1.0]))
    np.testing.assert_allclose(gam, np.swapaxes(gam, 1, 2), atol=1e-9)


def test_sphere_riemann():
    # textbook 2-sphere: R^theta_{phi theta phi} = sin^2(theta), R = 2
    f = sphere_field()
    for theta in (0.7, 1.0, 1.9):
        x = np.array([theta, 0.3])
        riem = geometry.curvature_report(f, x).riemann
        np.testing.assert_allclose(riem[0, 1, 0, 1], math.sin(theta) ** 2,
                                   rtol=0, atol=1e-6)
        # antisymmetry in the last index pair
        np.testing.assert_allclose(riem, -np.swapaxes(riem, 2, 3), atol=1e-8)
        _, scalar = geometry.ricci_scalar(f, x)
        assert scalar == pytest.approx(2.0, abs=1e-7)


def test_scalar_2d_direct_agrees_with_ricci():
    f = sphere_field()
    x = np.array([0.9, 0.2])
    direct = geometry.scalar_2d_direct(f, x)
    _, contracted = geometry.ricci_scalar(f, x)
    assert direct == pytest.approx(contracted, abs=1e-6)


def test_scalar_2d_requires_2d():
    with pytest.raises(ValueError):
        geometry.scalar_2d_direct(euclidean_field(3), np.zeros(3))


def test_singular_metric_rejected():
    f = constant_field([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NumericalError):
        geometry.ricci_scalar(f, np.array([1.0, 1.0]))
    # the full oscillator parameter metric is exactly singular
    f = geometry.metric_field(get_model("gho"), "metric", (0,))
    with pytest.raises(NumericalError):
        geometry.christoffel(f, np.array([2.0, 0.5, 1.0]))


def test_sym_christoffel_closed_values():
    model = get_model("sym-coupled")
    point = model.point(1.0, 1.0)
    f = geometry.metric_field(model, "metric", (0, 0))
    gam = geometry.christoffel(f, point.as_array(), step=1e-5)
    table = model.closed_form("christoffel", point, (0, 0))
    np.testing.assert_allclose(gam, table, atol=1e-6)
    assert gam[0, 0, 0] == pytest.approx(-1.0, abs=1e-6)


def test_ghol_christoffel_and_ricci_tables():
    model = get_model("gho-linear")
    n = 1
    W, X, Y = 0.8, 1.7, 0.6
    point = model.point(W, X, Y, 1.0)
    f = geometry.metric_field(model, "metric_z1", (n,),
                              coords=("W", "X", "Y"), fixed={"Z": 1.0})
    gam = geometry.christoffel(f, np.array([W, X, Y]), step=1e-5)
    table = model.closed_form("christoffel", point, (n,))
    mask = ~np.isnan(table)
    np.testing.assert_allclose(gam[mask], table[mask], atol=2e-4)
    ric, _ = geometry.ricci_scalar(f, np.array([W, X, Y]))
    np.testing.assert_allclose(ric, model.closed_form("ricci", point, (n,)),
                               atol=1e-5)
    # spot value from the table at (1, 1, 0), n = 0: Gamma^2_11 = -4
    g0 = geometry.christoffel(
        geometry.metric_field(model, "metric_z1", (0,),
                              coords=("W", "X", "Y"), fixed={"Z": 1.0}),
        np.array([1.0, 1.0, 0.0]), step=1e-5)
    assert g0[1, 0, 0] == pytest.approx(-4.0, abs=1e-5)


def test_oscillator_submanifold_curvature():
    model = get_model("gho")
    for n in (0, 1, 5):
        expected = -16.0 / (n * n + n + 1)
        for which, coords, fixed, x in [
            ("metric_sub:Z", ("X", "Y"), {"Z": 1.0}, [2.0, 0.5]),
            ("metric_sub:X", ("Y", "Z"), {"X": 2.0}, [0.5, 1.3]),
            ("metric_sub:Y", ("X", "Z"), {"Y": 0.5}, [2.0, 1.3]),
        ]:
            f = geometry.metric_field(model, which, (n,), coords=coords, fixed=fixed)
            _, r = geometry.ricci_scalar(f, np.array(x))
            assert r == pytest.approx(expected, abs=1e-5)


def test_phase_metric_scalar_curvatures():
    model = get_model("gho")
    point = model.point(2.0, 0.5, 1.0)
    cases = [
        ("scalar:phase:XY", ("X", "Y"), {"Z": 1.0}, [2.0, 0.5]),
        ("scalar:phase:XZ", ("X", "Z"), {"Y": 0.5}, [2.0, 1.0]),
        ("scalar:phase:YZ", ("Y", "Z"), {"X": 2.0}, [0.5, 1.0]),
    ]
    for n in (0, 1):
        for quantity, coords, fixed, x in cases:
            f = geometry.metric_field(model, "phase_metric", (n,),
                                      coords=coords, fixed=fixed)
            closed = model.closed_form(quantity, point, (n,))
            _, r = geometry.ricci_scalar(f, np.array(x))
            assert r == pytest.approx(closed, abs=1e-4)
            r2d = geometry.scalar_2d_direct(f, np.array(x))
            assert r2d == pytest.approx(closed, abs=1e-4)


def test_sym_flatness_and_beltrami():
    model = get_model("sym-coupled")
    for qn in ((0, 0), (1, 2)):
        f = geometry.metric_field(model, "metric", qn)
        for k0, k1 in [(1.0, 1.0), (2.0, 3.0), (1.0, 0.0)]:
            rep = geometry.curvature_report(f, np.array([k0, k1]))
            assert rep.flat, (qn, k0, k1, rep.flat_threshold)
            point = model.point(k0, k1)
            assert geometry.beltrami_residual(model, point, qn) <= 1e-6


def test_beltrami_requires_sym_model():
    with pytest.raises(DomainError):
        geometry.beltrami_residual(get_model("gho"),
                                   get_model("gho").point(2.0, 0.5, 1.0), (0,))


def test_sym_phase_reduced_curvature():
    model = get_model("sym-coupled")
    f = geometry.metric_field(model, "phase_metric_reduced", (0, 0))
    for k0, k1 in [(1.0, 1.0), (2.0, 0.5)]:
        point = model.point(k0, k1)
        closed = model.closed_form("scalar:phase-reduced", point, (0, 0))
        _, r = geometry.ricci_scalar(f, np.array([k0, k1]))
        assert r == pytest.approx(closed, abs=1e-5)
    # k1 -> 0 limit: (4 c_n k0 - 3(c_m + c_n))/(k0^(5/2) (c_m + c_n)^2), m=n=0
    k0 = 1.7
    _, r = geometry.ricci_scalar(f, np.array([k0, 1e-6]),
                                 step=np.array([1e-4 * k0, 1e-4 * k0]))
    limit = (4 * k0 - 6) / (k0 ** 2.5 * 4)
    assert r == pytest.approx(limit, abs=1e-3)


def test_lin_scalar_excited():
    model = get_model("lin-coupled")
    point = model.point(1.0, 2.0, 1.0)
    for qn in ((0, 1), (0, 2), (1, 0)):
        f = geometry.metric_field(model, "metric", qn)
        closed = model.closed_form("scalar:param", point, qn)
        _, r = geometry.ricci_scalar(f, point.as_array())
        assert r == pytest.approx(closed, abs=1e-3)


def test_metric_compatibility():
    # nabla_k g_ij = d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il = 0
    f = geometry.metric_field(get_model("lin-coupled"), "metric", (0, 0))
    x = np.array([1.0, 2.0, 1.0])
    dg = geometry.metric_derivatives(f, x)
    gam = geometry.christoffel(f, x)
    g = f(x)
    nabla = (dg - np.einsum('lki,lj->kij', gam, g)
             - np.einsum('lkj,il->kij', gam, g))
    assert np.abs(nabla).max() <= 1e-6 * max(np.abs(g).max(), 1.0)


def test_chart_field_invariance():
    # scalar curvature is unchanged by log/linear chart transforms
    model = get_model("sym-coupled")
    f = geometry.metric_field(model, "phase_metric_reduced", (0, 0))
    x = np.array([1.3, 0.7])
    _, r_plain = geometry.ricci_scalar(f, x)
    chart, u0 = geometry.chart_field(f, x, ("log", "log"))
    _, r_chart = geometry.ricci_scalar(chart, u0, step=1e-3)
    assert r_chart == pytest.approx(r_plain, abs=1e-6)
    with pytest.raises(ValueError):
        geometry.chart_field(f, np.array([0.0, 1.0]), ("log", "log"))


def test_default_steps():
    rel = geometry.STEP_REL
    steps = geometry.default_steps(np.array([2.0, 0.0, -3.0]))
    np.testing.assert_allclose(steps, [2 * rel, 0.05 * 3 * rel, 3 * rel])
    with pytest.raises(ValueError):
        geometry.default_steps(np.array([1.0]), step=-1e-3)


def test_metric_field_requires_fixed_params():
    model = get_model("gho")
    with pytest.raises(ValueError, match="fix the non-coordinate"):
        geometry.metric_field(model, "phase_metric", (0,), coords=("X", "Y"))


def test_linear_term_curvature_limits():
    # R -> -4/b_n as omega -> 0 and R -> -28/b_n as W -> 0.
    # The omega -> 0 end is checked on the closed-form scalar at omega = 1e-3
    # (FD there is beyond double precision; the FD limit check runs at a
    # feasible probe inside the acceptance suite). The W -> 0 end is a direct
    # FD evaluation at W = 1e-6.
    model = get_model("gho-linear")
    for n in (0, 1, 5):
        b = n * n + n + 1
        om = 1e-3
        point = model.point(1.0, om * om, 0.0, 1.0)
        closed = model.closed_form("scalar:param-z1", point, (n,))
        assert closed == pytest.approx(-4.0 / b, abs=1e-2)
        f = geometry.metric_field(model, "metric_z1", (n,),
                                  coords=("W", "X", "Y"), fixed={"Z": 1.0})
        _, r = geometry.ricci_scalar(f, np.array([1e-6, 1.0, 0.0]),
                                     step=np.array([1e-3, 1e-3, 1e-3]))
        assert r == pytest.approx(-28.0 / b, abs=1e-3)


def test_scalar_2d_cross_method_on_reduced_block():
    # direct 2D expression vs Ricci contraction on the reduced phase block
    model = get_model("sym-coupled")
    f = geometry.metric_field(model, "phase_metric_reduced", (0, 0))
    x = np.array([1.0, 1.0])
    direct = geometry.scalar_2d_direct(f, x)
    _, contracted = geometry.ricci_scalar(f, x)
    assert abs(direct - contracted) <= 1e-5


def test_2d_cross_method_across_catalog():
    # scalar_2d_direct vs Ricci contraction on every 2D metric in the catalog
    from qgeom.models import default_gaussian
    gho = get_model("gho")
    sym = get_model("sym-coupled")
    lin = get_model("lin-coupled")
    cases = [
        (geometry.metric_field(gho, "metric_sub:Z", (1,), coords=("X", "Y"),
                               fixed={"Z": 1.0}), np.array([2.0, 0.5])),
        (geometry.metric_field(gho, "metric_sub:X", (0,), coords=("Y", "Z"),
                               fixed={"X": 2.0}), np.array([0.5, 1.3])),
        (geometry.metric_field(gho, "phase_metric", (0,), coords=("X", "Y"),
                               fixed={"Z": 1.0}), np.array([2.0, 0.5])),
        (geometry.metric_field(default_gaussian(), "metric", (0,)),
         np.array([0.3, 0.7])),
        (geometry.metric_field(sym, "metric", (1, 2)), np.array([1.0, 0.8])),
        (geometry.metric_field(sym, "phase_metric_reduced", (0, 0)),
         np.array([1.3, 0.7])),
        (geometry.metric_field(lin, "phase_metric_reduced", (0, 0),
                               coords=("B", "C"), fixed={"A": 1.0}),
         np.array([2.0, 1.0])),
    ]
    for f, x in cases:
        direct = geometry.scalar_2d_direct(f, x)
        _, contracted = geometry.ricci_scalar(f, x)
        assert abs(direct - contracted) <= 1e-5, (x, direct, contracted)


def test_chart_field_rejects_bad_kind():
    f = sphere_field()
    with pytest.raises(ValueError, match="unknown chart kind"):
        geometry.chart_field(f, np.array([1.0, 1.0]), ("log", "bogus"))
    with pytest.raises(ValueError, match="positive"):
        geometry.chart_field(f, np.array([1.0, 1.0]), ("log", -2.0))


def test_oscillator_curvature_on_draw_edge():
    # R = -16/b_0 along Y^2 = 0.9 X, the edge of the benchmark's gho draw
    # (Y^2 <= 0.36 X Z with Z <= 2.5), where the FD truncation error is
    # largest: a relative step of 1e-3 misses by 2.8e-4 there
    model = get_model("gho")
    f = geometry.metric_field(model, "metric_sub:Z", (0,), coords=("X", "Y"),
                              fixed={"Z": 1.0})
    for X in np.linspace(0.8, 2.5, 18):
        for Y in (math.sqrt(0.9 * X), -math.sqrt(0.9 * X)):
            _, r = geometry.ricci_scalar(f, np.array([X, Y]))
            assert abs(r + 16.0) <= 1e-4, (X, Y, r)


def counting(field):
    """The field with its func wrapped by a per-point counter; seen[None]
    counts the calls."""
    seen = collections.Counter()

    def func(x):
        seen[None] += 1
        seen.update(row.tobytes() for row in x)
        return field.func(x)

    return dataclasses.replace(field, func=func), seen


@pytest.mark.parametrize("call, model, which, qn, kw, x, evals", [
    (geometry.ricci_scalar, "gho", "metric_sub:Z", (1,),
     dict(coords=("X", "Y"), fixed={"Z": 1.0}), [1.3, -0.7], 23),
    (geometry.ricci_scalar, "gho-linear", "metric_z1", (1,),
     dict(coords=("W", "X", "Y"), fixed={"Z": 1.0}), [0.8, 1.7, 0.6], 47),
    (geometry.curvature_report, "sym-coupled", "metric", (0, 0), {}, [1.0, 1.0], 25),
    (geometry.scalar_2d_direct, "gho", "metric_sub:Z", (1,),
     dict(coords=("X", "Y"), fixed={"Z": 1.0}), [1.3, -0.7], 23),
])
def test_each_stencil_point_evaluated_once(call, model, which, qn, kw, x, evals):
    # without the per-call table these take 52, 100, 61 and 42 evaluations
    f, seen = counting(geometry.metric_field(get_model(model), which, qn, **kw))
    call(f, np.array(x))
    assert seen.pop(None) == 1  # the whole stencil is one call
    assert max(seen.values()) == 1
    assert sum(seen.values()) == evals


def test_calls_share_no_table():
    # g -> c g scales R by 1/c; a second call must see the changed func
    scale = [1.0]
    f = geometry.MetricField(2, lambda x: sphere_metrics(x, scale[0]))
    x = np.array([0.9, 0.2])
    _, first = geometry.ricci_scalar(f, x)
    direct = geometry.scalar_2d_direct(f, x)
    scale[0] = 2.0
    _, second = geometry.ricci_scalar(f, x)
    assert first == pytest.approx(2.0, abs=1e-7)
    assert second == pytest.approx(1.0, abs=1e-7)
    assert geometry.scalar_2d_direct(f, x) == pytest.approx(direct / 2, abs=1e-7)


@pytest.mark.parametrize("coords, fixed, unknown", [
    (("A", "B", "Z"), {"C": 1.0}, "['Z']"),
    (("A", "B"), {"C": 1.0, "k1": 0.5}, "['k1']"),
])
def test_metric_field_rejects_names_the_model_lacks(coords, fixed, unknown):
    # an unknown name used to vanish from the point without a word
    with pytest.raises(ValueError) as exc:
        geometry.metric_field(get_model("lin-coupled"), "metric", (0, 0),
                              coords=coords, fixed=fixed)
    assert unknown in str(exc.value)
    assert "['A', 'B', 'C']" in str(exc.value)


def _reference_cases():
    """Seeded (field, point) pairs over the benchmark's curvature families."""
    from qgeom.models import default_gaussian, oscillator_slice_gaussian
    rng = np.random.default_rng(20240518)
    gho, ghol = get_model("gho"), get_model("gho-linear")
    lin, sym = get_model("lin-coupled"), get_model("sym-coupled")
    cases = []
    for n in (0, 1, 5, 100):
        X = rng.uniform(0.8, 2.5)
        cases.append((f"gho-Z1-n{n}",
                      geometry.metric_field(gho, "metric_sub:Z", (n,), coords=("X", "Y"),
                                            fixed={"Z": 1.0}),
                      [X, rng.uniform(-0.6, 0.6) * math.sqrt(X)]))
    for _ in range(2):
        cases.append(("gaussian", geometry.metric_field(default_gaussian(), "metric", (0,)),
                      [rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5)]))
        cases.append(("oscillator-slice",
                      geometry.metric_field(oscillator_slice_gaussian(), "metric", (0,)),
                      [rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)]))
    for qn in ((0, 0), (1, 0)):
        A, B = rng.uniform(0.7, 1.3), rng.uniform(1.8, 3.0)
        cases.append((f"lin-coupled-{qn}", geometry.metric_field(lin, "metric", qn),
                      [A, B, rng.uniform(0.2, 0.6) * 2 * math.sqrt(A * B)]))
    for n in (0, 1, 3):
        X = rng.uniform(0.8, 2.0)
        cases.append((f"gho-linear-z1-n{n}",
                      geometry.metric_field(ghol, "metric_z1", (n,), coords=("W", "X", "Y"),
                                            fixed={"Z": 1.0}),
                      [rng.uniform(0.3, 1.5), X, rng.uniform(-0.5, 0.5) * math.sqrt(X)]))
    for qn in ((0, 0), (1, 2)):
        cases.append((f"sym-coupled-{qn}", geometry.metric_field(sym, "metric", qn),
                      [rng.uniform(0.6, 2.2), rng.uniform(0.3, 2.2)]))
    chart, u0 = geometry.chart_field(
        geometry.metric_field(sym, "phase_metric_reduced", (0, 0)),
        np.array([1.3, 0.7]), ("log", "linear"))
    cases.append(("chart-sym-phase-reduced", chart, u0))
    # Y = -0.0: a shift along X leaves it -0.0; a +0.0 offset would make it
    # +0.0, a point of other bytes, and so add stencil points
    cases.append(("gho-Z1-signed-zero", geometry.metric_field(
        gho, "metric_sub:Z", (1,), coords=("X", "Y"), fixed={"Z": 1.0}), [1.3, -0.0]))
    cases.append(("sphere-signed-zero", sphere_field(), [0.9, -0.0]))
    return [pytest.param(field, x, id=name) for name, field, x in cases]


def _recorded(field):
    """The field with its func logging each point it is called at, and the
    number of calls as log.calls."""
    log = _Log()

    def func(x):
        log.calls += 1
        log.extend(row.tobytes() for row in x)
        return field.func(x)

    return dataclasses.replace(field, func=func), log


class _Log(list):
    calls = 0


@pytest.mark.parametrize("field, x", _reference_cases())
def test_engine_matches_per_point_reference(field, x):
    # same bits, and the same points in the same order, as the recursion
    import geometry_reference as ref
    x = np.array(x)
    calls = [geometry.metric_derivatives, geometry.christoffel, geometry.riemann,
             geometry.ricci_scalar, geometry.curvature_report]
    if field.dim == 2:
        calls.append(geometry.scalar_2d_direct)
    for call in calls:
        new_field, new_log = _recorded(field)
        old_field, old_log = _recorded(field)
        got = _parts(call(new_field, x))
        want = _parts(getattr(ref, call.__name__)(old_field, x))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b, err_msg=call.__name__)
        assert new_log == old_log, call.__name__
        assert new_log.calls == 1, call.__name__  # the reference: one per point


def _parts(result):
    if isinstance(result, geometry.CurvatureReport):
        return dataclasses.astuple(result)
    return result if isinstance(result, tuple) else (result,)


def _reference_error(call, field, x):
    import geometry_reference as ref
    with pytest.raises(Exception) as new:
        call(field, np.array(x))
    with pytest.raises(Exception) as old:
        getattr(ref, call.__name__)(field, np.array(x))
    assert type(new.value) is type(old.value)
    assert str(new.value) == str(old.value)
    return new.value


@pytest.mark.parametrize("call", [geometry.christoffel, geometry.riemann,
                                  geometry.ricci_scalar, geometry.curvature_report,
                                  geometry.scalar_2d_direct])
def test_engine_errors_match_reference(call):
    # a stencil point leaves the oscillator domain Y^2 < X Z
    f = geometry.metric_field(get_model("gho"), "metric_sub:Z", (0,), coords=("X", "Y"),
                              fixed={"Z": 1.0})
    assert isinstance(_reference_error(call, f, [1.0, 1.0 - 1e-6]), DomainError)
    singular = constant_field([[1.0, 1.0], [1.0, 1.0]])
    if call is geometry.scalar_2d_direct:
        err = _reference_error(call, singular, [1.0, 1.0])
        assert "determinant" in str(err)
        flat_g11 = constant_field([[0.0, 1.0], [1.0, 0.0]])
        err = _reference_error(call, flat_g11, [1.0, 1.0])
        assert isinstance(err, NumericalError) and "g11 vanishes" in str(err)
        return
    err = _reference_error(call, singular, [1.0, 1.0])
    assert isinstance(err, NumericalError) and "singular" in str(err)
    if call is not geometry.christoffel:
        # g22 vanishes only at the center x - h_0 e_0, which both name
        def kinked(x):
            g = np.zeros((len(x), 2, 2))
            g[:, 0, 0] = 1.0
            g[:, 1, 1] = np.maximum(x[:, 0] - 1.0, 0.0)
            return g

        kink = geometry.MetricField(2, kinked)
        err = _reference_error(call, kink, [1.0 + 1e-4, 1.0])
        assert "vanishing diagonal" in str(err)


def test_one_inverse_and_condition_number_per_call(monkeypatch):
    # both Richardson steps and all their centers share one conditioning
    # test (eigvalsh of the equilibrated stack) and one inv
    counts = collections.Counter()
    for name in ("inv", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kw):
            counts[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    f = geometry.metric_field(get_model("lin-coupled"), "metric", (0, 0))
    for call in (geometry.ricci_scalar, geometry.curvature_report):
        counts.clear()
        call(f, np.array([1.0, 2.0, 1.0]))
        assert counts == {"inv": 1, "eigvalsh": 1}, call.__name__


def test_parameter_read_of_a_phase_metric_names_the_mismatch():
    f = geometry.metric_field(get_model("sym-coupled"), "phase_metric", (0, 0))
    with pytest.raises(ValueError) as exc:
        geometry.curvature_report(f, np.array([1.0, 0.8]))
    assert str(exc.value) == "phase_metric is 4x4 but the field has 2 coordinates (k0, k1)"
