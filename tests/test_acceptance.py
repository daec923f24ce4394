"""Acceptance gate: runs every criterion at its stated tolerance.

One test per named check; each prints its PASS/FAIL line (run with -s to see
them as they come). The full suite takes about 20 s on 2 cores at the default
cutoffs (80 for one mode, 40 per mode for two).

entanglement[lin-coupled-printed-eqs] compares the numeric reduced ground
state of the linearly coupled pair with the catalog's purity/entropy closed
forms; see README "Printed closed forms corrected" for how those were fixed.
"""

import dataclasses
import time

import pytest

from qgeom import acceptance
from qgeom.acceptance import AcceptanceConfig, CHECK_NAMES, run_checks


@pytest.fixture(scope="session")
def results():
    return run_checks(AcceptanceConfig())


@pytest.fixture(scope="session")
def outcomes(results):
    return {r.name: r for r in results}


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_criterion(outcomes, name):
    outcome = outcomes[name]
    mark = "PASS" if outcome.passed else "FAIL"
    print(f"[{mark}] criterion {outcome.criterion} | {name}: {outcome.detail}")
    assert outcome.passed, f"criterion {outcome.criterion} {name}: {outcome.detail}"


def test_every_criterion_is_covered(outcomes):
    criteria = {o.criterion for o in outcomes.values()}
    assert criteria == {str(k) for k in range(1, 9)}


def test_outcomes_follow_the_registry(results):
    names = [o.name for o in results]
    assert names == list(CHECK_NAMES)
    assert not any("[error]" in name for name in names)


def test_raising_check_fails_under_its_own_names(monkeypatch):
    # stub every check, then make the two-outcome cross-method[gho-linear]
    # run raise: both of its names fail with the error, the rest still run
    def stub(entry):
        return lambda config, done: [(True, "stub")] * len(entry.names)

    def boom(config, done):
        raise RuntimeError("probe exploded")

    registry = [dataclasses.replace(entry, run=stub(entry))
                for entry in acceptance.REGISTRY]
    target = next(i for i, entry in enumerate(registry)
                  if ("cross-method[gho-linear]", "1") in entry.names)
    registry[target] = dataclasses.replace(registry[target], run=boom)
    monkeypatch.setattr(acceptance, "REGISTRY", registry)
    results = run_checks()
    assert [o.name for o in results] == list(CHECK_NAMES)
    failed = {o.name: o for o in results if not o.passed}
    assert set(failed) == {"cross-method[gho-linear]", "closed-form[gho-linear]"}
    for outcome in failed.values():
        assert outcome.detail == "RuntimeError: probe exploded"


def test_runtime_gate_prints_process_cpu_beside_wall():
    # a run that waited on other processes reads wall far above CPU
    done = {f"cross-method[{name}]": acceptance.CheckOutcome(
        f"cross-method[{name}]", "1", True, "", seconds=40.0, cpu_seconds=5.0)
        for name in acceptance.C1_POINTS}
    [(passed, detail)] = acceptance._cross_method_runtime(AcceptanceConfig(), done)
    assert not passed  # the gate stays on wall time
    assert detail == "160.0s wall (20.0s process CPU) for all models (limit 120s wall)"


def test_run_checks_records_process_cpu(monkeypatch):
    def busy(config, done):
        t0 = time.process_time()
        while time.process_time() - t0 < 0.05:
            pass
        return [(True, "busy")] * 2

    def stub(entry):
        return lambda config, done: [(True, "stub")] * len(entry.names)

    registry = [dataclasses.replace(entry, run=stub(entry))
                for entry in acceptance.REGISTRY]
    target = next(i for i, entry in enumerate(registry)
                  if ("cross-method[gho]", "1") in entry.names)
    registry[target] = dataclasses.replace(registry[target], run=busy)
    runtime = next(i for i, entry in enumerate(acceptance.REGISTRY)
                   if ("cross-method[runtime]", "1") in entry.names)
    registry[runtime] = acceptance.REGISTRY[runtime]
    monkeypatch.setattr(acceptance, "REGISTRY", registry)
    outcomes = {o.name: o for o in run_checks()}
    assert outcomes["cross-method[gho]"].cpu_seconds >= 0.05
    assert outcomes["closed-form[gho]"].cpu_seconds >= 0.05
    cpu = sum(outcomes[f"cross-method[{name}]"].cpu_seconds
              for name in acceptance.C1_POINTS)
    assert f"wall ({cpu:.1f}s process CPU)" in outcomes["cross-method[runtime]"].detail


def test_convergence_check_fails_when_under_resolved():
    # cutoff 12 leaves the probes unconverged; the doubling check must say so
    from qgeom.acceptance import _prop_truncation
    degraded = AcceptanceConfig(cutoff_1mode=12, cutoff_2mode=12)
    passed, _ = _prop_truncation(degraded)[0]
    assert not passed
    healthy, _ = _prop_truncation(AcceptanceConfig())[0]
    assert healthy
