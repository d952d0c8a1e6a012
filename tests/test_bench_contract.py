"""The package names that perfbench/ binds, checked without running it.

perfbench's workloads, tracer and run records reach into the package by
module, function and parameter name. A rename breaks the benchmark, whose
own suite (`python3 -m pytest perfbench/tests`, about 20 s) is not part of
Tier-1; these checks catch it in a fraction of a second.
"""

import inspect
import os
import sys

import pytest

import kostant_toda
from kostant_toda import (
    IntegratorConfig, backends, dynamics, random_state, resolvent, verify
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


@pytest.fixture
def bench(monkeypatch):
    """perfbench's tracer, layers and workloads modules."""
    monkeypatch.syspath_prepend(BENCH)
    import layers
    import tracer
    import workloads  # binds its `from kostant_toda import ...` names

    return tracer, layers, workloads


def test_every_traced_layer_is_loaded_with_the_package(bench):
    tracer, _, _ = bench
    for layer in tracer.LAYERS:
        assert f"{tracer.PACKAGE}.{layer}" in sys.modules, layer


def test_every_named_check_and_control_exists(bench):
    _, layers, _ = bench
    for name in layers.CHECKS:
        assert callable(getattr(verify, f"check_{name}")), name
    assert set(layers.CONTROLS) == set(verify.CONTROL_KINDS)
    assert callable(verify.run_control)


def test_signatures_the_hooks_bind_by_name():
    assert "n_steps" in inspect.signature(backends.rk4_trajectory).parameters
    assert list(inspect.signature(dynamics.integrate).parameters)[:3] == [
        "state", "cfg", "corruption"
    ]
    assert "jobs" in inspect.signature(verify.run_suite).parameters


def test_run_record_fields():
    assert isinstance(kostant_toda.HAS_NUMBA, bool)
    assert kostant_toda.active_backend() == "numpy"


def test_integrate_is_one_object_in_every_namespace():
    assert verify.integrate is resolvent.integrate is dynamics.integrate
    assert kostant_toda.integrate is dynamics.integrate


def test_tracer_hooks_count_an_integration_and_come_off(bench):
    tracer_mod, _, _ = bench
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert verify.integrate is resolvent.integrate is dynamics.integrate
        kostant_toda.integrate(random_state(0, 8), IntegratorConfig(t_end=2e-3, h=1e-3))
    finally:
        tracer.uninstall()
    assert tracer.counts["backends.rk4_trajectory.steps"] == 2
    assert len(tracer.distinct["dynamics.integrate"]) == 1
    assert not hasattr(dynamics.integrate, "__wrapped__")
