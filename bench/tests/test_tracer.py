"""The tracer wraps every binding of a layer function and nests spans."""

from importlib import resources

import numpy as np
import pytest

import tracer
from fluxgate import backends, cli, evolve, floquet, gates
from fluxgate.config import load_config
from fluxgate.pulses import ParametricPulse

# Names imported from another module: patching the defining module alone
# would leave these pointing at the untraced original.
INDIRECT = [
    (floquet, "_flat_step"), (floquet, "dressed_frame"),
    (gates, "extract_transition"), (gates, "dressed_frame"),
    (gates, "propagate_computational_unitary"),
    (evolve, "assemble_operators"), (evolve, "build_hamiltonian"),
    (evolve, "label_eigenstates"),
    (cli, "dressed_frame"), (cli, "extract_transition"), (cli, "chevron_column"),
    (cli, "amplitude_point"), (cli, "build_hamiltonian"), (cli, "label_eigenstates"),
]


@pytest.fixture
def installed():
    tr = tracer.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


@pytest.fixture(scope="module")
def params():
    return load_config(str(resources.files("fluxgate.data") / "set500.cfg")).params


def test_no_unwrapped_original_remains(installed):
    assert installed.unwrapped_bindings() == []
    for module, name in INDIRECT:
        assert getattr(getattr(module, name), "__wrapped__", None) is not None, \
            f"{module.__name__}.{name} is not traced"


def test_uninstall_restores_originals(params):
    before = {(m.__name__, n): getattr(m, n) for m, n in INDIRECT}
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert {(m.__name__, n): getattr(m, n) for m, n in INDIRECT} == before
    assert not hasattr(floquet.monodromy, "__wrapped__")


def test_cached_layers_keep_cache_info(installed):
    for name in ("dressed_frame", "_flat_step"):
        assert hasattr(getattr(evolve, name), "cache_info")


def test_child_spans_nest_inside_parents(installed, params):
    with installed.span("point"):
        floquet.quasienergies(floquet.monodromy(params, 0.35, 0.03, 10.79))
        template = ParametricPulse(flux_static=0.35, drive_amp=0.03, drive_freq=10.79,
                                   ramp_time=2.0, gate_time=6.0)
        evolve.amplitude_point(params, template, 10.79, 0.03, 6.0)
    spans = installed.spans
    assert tracer.nesting_violations(spans) == 0
    names = [s[0] for s in spans]
    for parent, child in [("floquet.monodromy", "backends.strang_sequence"),
                          ("floquet.monodromy", "evolve._flat_step"),
                          ("evolve.amplitude_point", "evolve.propagate_state"),
                          ("evolve.propagate_state", "backends.strang_sequence")]:
        assert any(s[0] == child and spans[s[3]][0] == parent for s in spans), \
            f"no {child} span under {parent}"
    assert names[0] == "point"

    layers = tracer.summarize(spans, installed.cache_deltas())
    assert layers["floquet.monodromy.calls"] == 1
    assert 0 < layers["floquet.monodromy.defect_max"] < 1e-10
    assert layers["backends.strang_sequence.w150.calls"] == 1
    assert layers["backends.strang_sequence.w1.calls"] >= 1
    assert 0 <= layers["evolve.norm_drift_max"] <= 1e-8
    assert layers["trace.point_coverage"] > 0.9
    for name, _ in tracer.LAYER_METRICS:
        if name.endswith(".self_s"):
            assert layers[name] <= layers[name[: -len("self_s")] + "s"] + 1e-12
    expected = {n for n, _ in tracer.LAYER_METRICS if not n.startswith(tracer.CALLER_FILLED)}
    assert set(layers) == expected


def test_kernel_probe_reads_steps_and_width(installed):
    u0 = np.eye(3, dtype=complex)
    backends.strang_sequence(u0, np.zeros(3), np.zeros(7), 1e-3, np.ones((3, 2)))
    name, _, _, _, attrs = installed.spans[-1]
    assert name == "backends.strang_sequence"
    assert attrs == {"steps": 7, "width": 2, "dim": 3}
