"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the sources on sys.path)
import workloads  # noqa: E402
from tracer import Span, Tracer, totals  # noqa: E402

import qgeom  # noqa: E402
from qgeom import fock, qgt  # noqa: E402


def test_self_time_of_nested_spans():
    # a[0, 10] holds b[1, 4] and c[5, 9]; c holds d[6, 7], which raised
    spans = [
        Span(1, "b", 1.0, 4.0, 0, 0, False),
        Span(3, "d", 6.0, 7.0, 2, 0, True),
        Span(2, "c", 5.0, 9.0, 0, 0, False),
        Span(0, "a", 0.0, 10.0, -1, 0, False),
        Span(4, "b", 11.0, 12.5, -1, 1, False),
    ]
    rows = totals(spans)
    assert rows["a"] == [1, pytest.approx(3.0), 0]
    assert rows["b"] == [2, pytest.approx(4.5), 0]
    assert rows["c"] == [1, pytest.approx(3.0), 0]
    assert rows["d"] == [1, pytest.approx(1.0), 1]


class _Thing:
    def method(self, x):
        return x + 1


def test_wrappers_record_parents_and_are_restored():
    mod = types.SimpleNamespace()
    mod.outer = lambda x: mod.inner(x) * 2
    mod.inner = lambda x: x + 1
    original_outer, original_inner = mod.outer, mod.inner
    thing = _Thing()
    with Tracer() as tracer:
        tracer.wrap(mod, "outer", "m.outer")
        tracer.wrap(mod, "inner", "m.inner")
        tracer.wrap(thing, "method", "thing.method")
        assert mod.outer(1) == 4
        assert thing.method(1) == 2
        with pytest.raises(TypeError):
            mod.inner(None)
    assert mod.outer is original_outer and mod.inner is original_inner
    assert "method" not in vars(thing)
    assert tracer.calls == {"m.outer": 1, "m.inner": 2, "thing.method": 1}
    assert tracer.parent_names()[("m.inner", "m.outer")] == 1
    assert tracer.totals()["m.inner"][2] == 1


def test_instrument_covers_names_imported_by_value_and_restores_them():
    work = workloads.GeometryFD(seed=0)
    homes = {name: mod for name, mod in sys.modules.items() if name.startswith("qgeom")}
    before = {(name, attr): getattr(mod, attr) for name, mod in homes.items()
              for attr in ("eigh", "quadratics") if hasattr(mod, attr)}
    assert {name for name, attr in before if attr == "quadratics"} >= {
        "qgeom.fock", "qgeom.models.base", "qgeom.models.coupled",
        "qgeom.models.generalized", "qgeom.models.gaussian"}
    assert ("qgeom.qgt", "eigh") in before
    with Tracer() as tracer:
        workloads.instrument(tracer, work)
        for (name, attr), original in before.items():
            assert getattr(homes[name], attr).__wrapped__ is original
        assert "hamiltonian" in vars(work.gho)
    for (name, attr), original in before.items():
        assert getattr(homes[name], attr) is original
    assert "hamiltonian" not in vars(work.gho)


@pytest.mark.parametrize("make", [
    lambda: workloads.XMethod2Mode(seed=3, cutoff=24),
    lambda: workloads.XMethod1Mode(seed=3, cutoff=40),
    lambda: workloads.EntangleSweep(seed=3, cutoff=24),
    lambda: workloads.GeometryFD(seed=3),
], ids=["xmethod-2mode", "xmethod-1mode", "entangle-sweep", "geometry-fd"])
def test_smoke_traced_run_passes_its_coverage_check(make):
    work = make()
    work.warm_up(workloads.Recorder())
    work.trace_units = 1
    eigh = fock.eigh
    # seconds=0: one unit untraced, one traced; a coverage miss raises
    metrics, notes, recs, tracer = run.traced_run(work, 0)
    assert fock.eigh is eigh and qgt.eigh is eigh
    assert all(not r.failures for r in recs)
    assert notes["traced_units"] == 1 and notes["traced_probes"] > 0
    for name in workloads.SPAN_NAMES:
        assert f"{name}.self_s" in metrics
    if work.name == "xmethod-2mode":  # the traced unit is a sym-coupled point
        params = len(qgeom.get_model("sym-coupled").param_names)
        assert metrics["fock.eigh.calls"][0] == 1 + 2 * params
        assert metrics["qgt.select_state.calls"][0] == 9
        assert metrics["models.normal_mode_ladders.calls"][0] == 9
        assert metrics["qgt.overlap_fd.displaced_solves"][0] == 2 * params
    if work.name == "geometry-fd":
        assert metrics["fock.eigh.calls"][0] == 0
        assert metrics["geometry.field_evals"][0] > 0


def test_tail_percentile_leaves_ten_probes_beyond():
    lat = list(np.arange(1, 28) / 100)  # 27 probes
    value, pct = run.tail(lat)
    assert pct == 62 and value == pytest.approx(0.17)
    assert sum(x > value for x in lat) == 10


def test_near_degenerate_two_mode_points_are_rejected():
    sym = qgeom.get_model("sym-coupled")
    assert not workloads.well_separated(sym.normal_modes(sym.point(1.0, 0.01)).frequencies)
    assert workloads.well_separated(sym.normal_modes(sym.point(1.0, 0.8)).frequencies)


def test_one_command_prints_metrics_and_fails_on_a_missed_oracle(monkeypatch, capsys):
    from qgeom import geometry

    real = geometry.curvature_report

    def curved(*args, **kwargs):
        rep = real(*args, **kwargs)
        return type(rep)(rep.christoffel, rep.riemann + 1.0, rep.ricci, rep.scalar,
                         False, rep.flat_threshold)

    monkeypatch.setattr(geometry, "curvature_report", curved)
    code = run.main(["--workload", "geometry-fd", "--seed", "1", "--seconds", "0"])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert set(result["metrics"]) == {"setup_s", "probes_per_s", "probe_p50_s",
                                      "probe_tail_s", "peak_rss_mb", "pass_ratio"}
    for name, m in result["metrics"].items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == m["unit"]
                   for line in lines)
