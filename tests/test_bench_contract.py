"""The package names and outputs that perfbench/ binds.

perfbench's workloads, tracer and run records reach into the package by
module, function and parameter name, and its oracles parse the CSV files
the CLI writes. A rename or a layout change breaks the benchmark, whose
own suite (`python3 -m pytest perfbench/tests`, about 20 s) is not part of
Tier-1; these checks catch it in a few seconds. The oracle checks run one
call or pass of three benchmark workloads, so an output the benchmark
would reject fails here first.
"""

import inspect
import os
import sys

import pytest

import kostant_toda
from kostant_toda import (
    IntegratorConfig,
    backends,
    core,
    dynamics,
    exponential_moments,
    moments,
    norm_bound,
    polynomials,
    random_state,
    resolvent,
    verify,
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
    # the tracer's _count_terms hooks read terms_used off these results
    st = random_state(0, 8)
    assert resolvent.resolvent_block(st, 3.0 * norm_bound(st)).terms_used > 0
    assert exponential_moments(st, 0.1, 2).terms_used > 0


def test_run_suite_reaches_each_check_through_the_module(monkeypatch):
    # perfbench's VerifySuite and tracer replace verify.check_<name> in
    # place, so run_suite must look every check up on the module each run
    def stub_rhs(seeds):
        return verify.CheckReport("stub_rhs", {}, 0.0, 1.0, True, 0.0)

    def stub_moment_ode(seeds, flow):
        return verify.CheckReport("stub_moment_ode", {}, 0.0, 1.0, True, 0.0)

    monkeypatch.setattr(verify, "check_rhs_equivalence", stub_rhs)
    monkeypatch.setattr(verify, "check_moment_ode", stub_moment_ode)
    ids = [r.id for r in verify.run_suite(seeds=[0])]
    assert ids[0] == "stub_rhs" and ids[5] == "stub_moment_ode"
    # check_exponential_moments still returns two reports, and perfbench's
    # check boundary counts on that
    assert ids[15:17] == ["exponential_moments", "exponential_tail_certificate"]
    assert len(ids) == 22


def test_every_span_outside_verify_names_a_traced_function(bench):
    # the tracer wraps __all__ functions and tracer.METHODS by name, so a
    # renamed or moved law would leave its span reading 0 without a failure
    tracer, layers, _ = bench
    dead = {"resolvent.integrate_with_closed_form"}  # no such function left
    for span, _kinds in layers.SPANS:
        layer, name = span.split(".", 1)
        if layer == "verify" or span in dead:
            continue
        module = sys.modules[f"{tracer.PACKAGE}.{layer}"]
        traced = name in tracer.METHODS.get(layer, ()) or (
            name in module.__all__ and inspect.isfunction(getattr(module, name))
        )
        assert traced, span
    for span in dead:
        layer, name = span.split(".", 1)
        assert not hasattr(sys.modules[f"{tracer.PACKAGE}.{layer}"], name), span


def test_run_record_fields():
    assert isinstance(kostant_toda.HAS_NUMBA, bool)
    assert kostant_toda.active_backend() == "numpy"


def test_integrate_is_one_object_in_every_namespace():
    assert verify.integrate is resolvent.integrate is dynamics.integrate
    assert kostant_toda.integrate is dynamics.integrate


def test_package_exports_exactly_the_module_lists():
    # each module's __all__ is the one list of its public names; the
    # package re-exports their union and its version, each as the object
    # its module defines
    modules = (backends, core, dynamics, moments, polynomials, resolvent, verify)
    union = {name for module in modules for name in module.__all__}
    assert set(kostant_toda.__all__) == union | {"__version__"}
    assert len(kostant_toda.__all__) == len(union) + 1
    for module in modules:
        for name in module.__all__:
            assert getattr(kostant_toda, name) is getattr(module, name), name


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


def test_simulate_csv_passes_the_benchmark_oracle(bench, tmp_path):
    # five consecutive passes of simulate-csv-t1 in one process, as the
    # benchmark runs them: each CSV must parse back bit-identical to a
    # direct integrate call, so a fault that shows from one pass to the
    # next fails here
    _, _, workloads = bench
    w = workloads.make("simulate-csv-t1", 0, str(tmp_path))
    w.setup()
    for i in range(5):
        verdict = w.judge(w.run_pass())
        assert verdict.ops == 1, i
        assert not verdict.failures, (i, verdict.failures)


def test_resolvent_neumann_passes_the_benchmark_oracle(bench, tmp_path):
    # one call of resolvent-neumann: every CSV row's Neumann value must lie
    # within its tail bound of the dense solve
    _, _, workloads = bench
    w = workloads.make("resolvent-neumann", 0, str(tmp_path))
    w.INSTANCES = 1
    w.setup()
    verdict = w.judge(w.run_pass())
    assert verdict.ops == w.ops_per_call == 404
    assert not verdict.failures, verdict.failures


def test_long_trajectory_passes_the_benchmark_oracle(bench, tmp_path):
    # one pass of long-trajectory: m = 1024 for 1,000 steps, finite, with
    # tr J, tr J^2 and tr J^3 conserved
    _, _, workloads = bench
    w = workloads.make("long-trajectory", 0, str(tmp_path))
    w.setup()
    verdict = w.judge(w.run_pass())
    assert verdict.ops == 1
    assert not verdict.failures, verdict.failures
