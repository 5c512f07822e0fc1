"""Configuration parsing, schema validation, and field paths."""

from dataclasses import fields
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxgate import CompositeParams, ConfigError, FluxoniumParams, TransmonParams, load_config
from fluxgate.cli import main
from fluxgate.config import _SCHEMA, _SECTIONS
from fluxgate.evolve import DEFAULT_DT
from fluxgate.gates import OFFSET_TABLE, OPTIMIZER_BUDGET, OPTIMIZER_RESTARTS, _amp_cap
from fluxgate.pulses import DEFAULT_DRIVE_RAMP

BASE = """\
[qubit0]
e_c = 1.0
e_l = 1.0
e_j = 4.0

[qubit1]
e_c = 0.9
e_l = 1.1
e_j = 4.2

[coupler]
e_c = 0.2
e_j_max = 25.0

[couplings]
j_c0 = 0.5
j_c1 = 0.5
j_01 = 0.1
"""


def write(tmp_path, extra="", base=BASE):
    path = tmp_path / "run.cfg"
    path.write_text(base + extra)
    return path


def test_minimal_config_defaults(tmp_path):
    rc = load_config(write(tmp_path))
    assert rc.dt == 0.0005
    assert rc.gate is None and rc.chevron is None and rc.sweep is None
    assert rc.params.n_flux_levels == 5
    assert rc.params.n_coupler_levels == 6
    assert rc.gate_restarts == 3 and rc.gate_budget == 400
    # Each default is the value of the module that owns it.
    assert rc.dt == DEFAULT_DT
    assert rc.gate_restarts == OPTIMIZER_RESTARTS
    assert rc.gate_budget == OPTIMIZER_BUDGET
    defaults = {f.name: f.default for f in fields(CompositeParams)}
    assert rc.params.n_flux_levels == defaults["n_flux_levels"]
    assert rc.params.n_coupler_levels == defaults["n_coupler_levels"]


def test_bundled_configs(rc500, rc300):
    for rc in (rc500, rc300):
        assert rc.gate is not None
        assert rc.gate.bias_ramp == 3.0
        assert rc.reference is not None
        assert len(rc.reference.q0_transitions) == 4
        assert len(rc.reference.q1_elements) == 4
        assert rc.chevron is not None and rc.floquet is not None
    assert rc500.gate.flux_interaction == 0.35
    assert rc300.gate.flux_interaction == 0.30


def test_unknown_section(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, "[vortex]\nx = 1\n"))
    assert err.value.field == "vortex"


def test_unknown_key(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, base=BASE.replace("e_j = 4.0", "e_j = 4.0\nfoo = 1")))
    assert err.value.field == "qubit0.foo"
    # Whether flux_interaction is given states the gate's bias schedule.
    gate = "[gate]\nmode = static-bias\nflux_idle = 0.35\ngate_time = 65.0\n"
    with pytest.raises(ConfigError, match="unknown key") as err:
        load_config(write(tmp_path, gate))
    assert err.value.field == "gate.mode"


# Every required key, by section, with a value it parses.
REQUIRED = {
    "qubit0": {"e_c": "1.0", "e_l": "1.0", "e_j": "4.0"},
    "qubit1": {"e_c": "0.9", "e_l": "1.1", "e_j": "4.2"},
    "coupler": {"e_c": "0.2", "e_j_max": "25.0"},
    "couplings": {"j_c0": "0.5", "j_c1": "0.5", "j_01": "0.1"},
    "chevron": {"flux_s": "0.35", "drive_amp": "0.045", "freq_min": "10.7",
                "freq_max": "10.9", "freq_points": "5", "time_max": "100.0",
                "time_points": "5"},
    "amplitude": {"flux_s": "0.35", "fixed_time": "100.0", "freq_min": "10.7",
                  "freq_max": "10.9", "freq_points": "5", "amp_min": "0.01",
                  "amp_max": "0.05", "amp_points": "5"},
    "floquet": {"flux_s": "0.35", "amp_values": "0.02, 0.04"},
    "gate": {"flux_idle": "0.35", "gate_time": "65.0"},
    "gate_sweep": {"gate_times": "65, 70"},
}


@pytest.mark.parametrize("section, key", [
    pytest.param(section, key, id=f"{section}.{key}")
    for section, keys in REQUIRED.items() for key in keys
])
def test_missing_required_key(tmp_path, section, key):
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()
                                if (name, k) != (section, key)) + "\n"
        for name, keys in REQUIRED.items()
    )
    with pytest.raises(ConfigError, match="required key missing") as err:
        load_config(write(tmp_path, base=text))
    assert err.value.field == f"{section}.{key}"


def test_missing_required_section(tmp_path):
    head, _, _ = BASE.partition("[couplings]")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, base=head))
    assert err.value.field == "couplings"


def test_unparseable_value(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, base=BASE.replace("e_c = 1.0", "e_c = fast")))
    assert err.value.field == "qubit0.e_c"


def test_grid_constraints_checked_before_compute(tmp_path):
    extra = """\
[chevron]
flux_s = 0.35
drive_amp = 0.045
freq_min = 10.9
freq_max = 10.7
freq_points = 5
time_max = 100.0
time_points = 5
"""
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, extra))
    assert err.value.field == "chevron"


def test_output_constraints(tmp_path, capsys):
    # Where a run writes and how many processes compute it are set on the
    # command line alone: [output] takes neither, and the run writes nothing.
    elsewhere = tmp_path / "elsewhere"
    for key, value in (("workers", "2"), ("directory", str(elsewhere))):
        cfg = write(tmp_path, f"[output]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match="unknown key") as err:
            load_config(cfg)
        assert err.value.field == f"output.{key}"
        out = tmp_path / "o"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"output.{key}: unknown key" in capsys.readouterr().err
        assert not out.exists() and not elsewhere.exists()
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, "[output]\ndt = -0.001\n"))
    assert err.value.field == "output.dt"


def test_label_and_pair_parsing(tmp_path):
    extra = """\
[chevron]
flux_s = 0.35
drive_amp = 0.045
freq_min = 10.7
freq_max = 10.9
freq_points = 5
time_max = 100.0
time_points = 5
psi0 = 101

[floquet]
flux_s = 0.35
amp_values = 0.03, 0.045
pair = 101:202
"""
    rc = load_config(write(tmp_path, extra))
    assert rc.chevron.psi0 == (1, 0, 1)
    assert rc.floquet.pair == ((1, 0, 1), (2, 0, 2))
    assert rc.floquet.amp_values == (0.03, 0.045)

    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, "[floquet]\nflux_s = 0.35\namp_values = 0.03\npair = 101-202\n"))
    assert err.value.field == "floquet.pair"


def test_floquet_pair_of_one_state_rejected(tmp_path):
    with pytest.raises(ConfigError, match="two different states") as err:
        load_config(write(tmp_path, "[floquet]\nflux_s = 0.35\namp_values = 0.03\npair = 101:101\n"))
    assert err.value.field == "floquet"


def test_gate_bounds_come_in_pairs(tmp_path):
    gate = """\
[gate]
flux_idle = 0.35
gate_time = 65.0
freq_min = 10.7
"""
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, gate))
    assert err.value.field == "gate.freq_min"

    gate = gate.replace("freq_min = 10.7", "amp_max = 0.2")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, gate))
    assert err.value.field == "gate.amp_min"


@pytest.mark.parametrize("bounds", [
    pytest.param("freq_min = 10.9\nfreq_max = 10.7\n", id="freq-reversed"),
    pytest.param("freq_min = 10.8\nfreq_max = 10.8\n", id="freq-empty"),
    pytest.param("amp_min = 0.2\namp_max = 0.1\n", id="amp-reversed"),
    pytest.param("amp_min = -0.01\namp_max = 0.1\n", id="amp-negative"),
    pytest.param("freq_min = -1\nfreq_max = 10.7\n", id="freq-negative"),
])
def test_gate_bounds_ordered_and_amplitudes_non_negative(tmp_path, bounds):
    gate = "[gate]\nflux_idle = 0.35\ngate_time = 65.0\n" + bounds
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, gate))
    assert err.value.field == "gate"


def test_static_bias_gate_takes_no_interaction_flux(tmp_path):
    # flux_interaction and bias_ramp come together: without the ramp the
    # gate drives at flux_idle, so neither value would take effect alone.
    for extra in ("flux_interaction = 0.3\n", "bias_ramp = 7.0\n"):
        gate = "[gate]\nflux_idle = 0.35\ngate_time = 65.0\n" + extra
        with pytest.raises(ConfigError, match="come together") as err:
            load_config(write(tmp_path, gate))
        assert err.value.field == "gate"


@pytest.mark.parametrize("key", ["coupler_w01_interaction", "coupler_w12_interaction"])
def test_interaction_reference_needs_a_flux(tmp_path, key):
    # The spectrum command compares the pair at [reference]
    # interaction_flux or at the [gate] drive flux; with neither the
    # value would be dropped.
    ref = f"[reference]\n{key} = 99.0\n"
    with pytest.raises(ConfigError, match="interaction_flux") as err:
        load_config(write(tmp_path, ref))
    assert err.value.field == f"reference.{key}"
    assert load_config(write(tmp_path, ref + "interaction_flux = 0.35\n")).reference
    gate = "\n[gate]\nflux_idle = 0.35\ngate_time = 65.0\n"
    assert load_config(write(tmp_path, ref + gate)).reference


SCAN_PULSES = {
    "chevron": "[chevron]\nflux_s = 0.35\ndrive_amp = {amp}\nfreq_min = 10.7\nfreq_max = 10.9\n"
               "freq_points = 5\ntime_max = 100.0\ntime_points = 5\nramp_time = {ramp}\n",
    "amplitude": "[amplitude]\nflux_s = 0.35\nfixed_time = 100.0\nfreq_min = 10.7\n"
                 "freq_max = 10.9\nfreq_points = 5\namp_min = {amp}\namp_max = 0.05\n"
                 "amp_points = 3\nramp_time = {ramp}\n",
}


@pytest.mark.parametrize("section", sorted(SCAN_PULSES))
def test_scan_pulse_checked_at_load(tmp_path, section):
    # Both drive ramps must fit in the 100 ns window and the amplitude and
    # the frequency be non-negative; the scan's pulse template checks all.
    body = SCAN_PULSES[section]
    assert getattr(load_config(write(tmp_path, body.format(amp=0.0, ramp=50.0))), section)
    negative_freq = body.replace("freq_min = 10.7", "freq_min = -1").format(amp=0.01, ramp=5.0)
    for text in (body.format(amp=0.01, ramp=50.5), body.format(amp=-0.01, ramp=5.0),
                 negative_freq):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert err.value.field == section


@pytest.mark.parametrize("section", sorted(SCAN_PULSES))
def test_scan_drive_resolved_at_load(tmp_path, section):
    # 40 steps per period of freq_max = 10.9 GHz need dt <= 2.29e-3 ns.
    body = SCAN_PULSES[section].format(amp=0.01, ramp=5.0)
    assert load_config(write(tmp_path, "[output]\ndt = 0.0022\n" + body)).dt == 0.0022
    with pytest.raises(ConfigError, match="does not resolve the drive") as err:
        load_config(write(tmp_path, "[output]\ndt = 0.0023\n" + body))
    assert err.value.field == "output.dt"


def test_gate_drive_resolved_at_load(tmp_path):
    # A gate that bounds its search knows its highest drive frequency at
    # load: 40 steps per period of freq_max = 10.9 GHz need dt <= 2.29e-3 ns.
    gate = "[gate]\nflux_idle = 0.35\ngate_time = 65.0\nfreq_min = 10.7\nfreq_max = 10.9\n"
    assert load_config(write(tmp_path, "[output]\ndt = 0.0022\n" + gate)).dt == 0.0022
    with pytest.raises(ConfigError, match=r"does not resolve the drive.*\[gate\] freq_max") as err:
        load_config(write(tmp_path, "[output]\ndt = 0.0023\n" + gate))
    assert err.value.field == "output.dt"
    # The calibration searches at search_dt(dt), 1 ps here: dt = 0.5 ps
    # resolves 30 GHz (8.33e-4 ns), the search step does not.
    fast = gate.replace("10.7", "20.0").replace("10.9", "30.0")
    with pytest.raises(ConfigError, match=r"dt = 0.001 ns does not resolve.*\[gate\] freq_max") as err:
        load_config(write(tmp_path, "[output]\ndt = 0.0005\n" + fast))
    assert err.value.field == "output.dt"
    # Without bounds the drive frequency comes from the Floquet seed at
    # run time, so the load cannot check it.
    unbounded = "[gate]\nflux_idle = 0.35\ngate_time = 65.0\n"
    assert load_config(write(tmp_path, "[output]\ndt = 0.0023\n" + unbounded)).gate


def test_gate_amplitude_box_stays_under_the_cap(tmp_path):
    # Every amplitude a calibration may try keeps the driven coupler's
    # junction energy positive: at drive flux 0.35 the cap is 0.149.
    cap = _amp_cap(0.35)
    gate = "[gate]\nflux_idle = 0.0\nflux_interaction = 0.35\nbias_ramp = 3.0\n" \
           "gate_time = 65.0\namp_min = 0.14\namp_max = {}\n"
    assert load_config(write(tmp_path, gate.format(repr(cap)))).gate.amp_bounds == (0.14, cap)
    with pytest.raises(ConfigError, match="amp_max must not exceed 0.149") as err:
        load_config(write(tmp_path, gate.format(0.4)))
    assert err.value.field == "gate"


def test_every_section_field_is_a_key():
    # A field that no INI key sets would be a hidden knob: each section
    # type takes exactly the keys of its section.
    types = {"qubit0": FluxoniumParams, "qubit1": FluxoniumParams, "coupler": TransmonParams}
    types.update({name: factory for _, name, factory in _SECTIONS})
    for name, factory in types.items():
        assert {f.name for f in fields(factory)} == set(_SCHEMA[name]), name
    # test_missing_required_key drops each required key in turn.
    required = {(name, key) for name, keys in _SCHEMA.items()
                for key, (_, needed) in keys.items() if needed}
    assert required == {(name, key) for name, keys in REQUIRED.items() for key in keys}


def test_drive_ramps_default_to_one_value(tmp_path):
    # A scan or gate without its ramp key takes the one drive-ramp default.
    scans = "".join(
        SCAN_PULSES[section].replace("ramp_time = {ramp}\n", "").format(amp=0.01)
        for section in sorted(SCAN_PULSES)
    )
    rc = load_config(write(tmp_path, scans + "[gate]\nflux_idle = 0.35\ngate_time = 65.0\n"))
    ramps = (rc.chevron.ramp_time, rc.amplitude.ramp_time, rc.gate.drive_ramp)
    assert ramps == (DEFAULT_DRIVE_RAMP,) * 3
    assert DEFAULT_DRIVE_RAMP == 5.0


def test_gate_budget_floor(tmp_path):
    gate = "[gate]\nflux_idle = 0.35\ngate_time = 65.0\nbudget = 5\n"
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, gate))
    assert err.value.field == "gate.budget"


def test_gate_restarts_within_the_offset_table(tmp_path):
    # Restart k starts from OFFSET_TABLE[k]; one past the table would
    # repeat restart 0's search.
    gate = "[gate]\nflux_idle = 0.35\ngate_time = 65.0\nrestarts = {}\n"
    rc = load_config(write(tmp_path, gate.format(len(OFFSET_TABLE))))
    assert rc.gate_restarts == len(OFFSET_TABLE)
    for bad in (0, len(OFFSET_TABLE) + 1):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, gate.format(bad)))
        assert err.value.field == "gate.restarts"


def test_require_accessor(tmp_path):
    rc = load_config(write(tmp_path))
    with pytest.raises(ConfigError) as err:
        rc.require("gate")
    assert err.value.field == "gate"
    assert rc.require("params") is rc.params


def test_malformed_text(tmp_path):
    p = tmp_path / "broken.cfg"
    p.write_text("this is not a config\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_duplicate_section_rejected(tmp_path):
    p = tmp_path / "dup.cfg"
    p.write_text(BASE + "\n[qubit0]\ne_c = 2.0\ne_l = 1.0\ne_j = 4.0\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


# Values a config key might be mistyped or pushed to: zero and negative
# counts, extreme and non-finite numbers, empty and non-numeric text,
# and malformed state labels and lists.
MUTATIONS = ("0", "-1", "1e300", "1e-300", "1e308", "1e5", "100000", "nan", "inf",
             "-inf", "", "text", "9x9", "101:", "1:2:3", "1,,2", ", ", "1; 2")
SET500_LINES = (resources.files("fluxgate.data") / "set500.cfg").read_text().splitlines()
KEY_LINES = [i for i, line in enumerate(SET500_LINES)
             if "=" in line and not line.lstrip().startswith("#")]


@pytest.fixture(scope="module")
def mutated_cfg(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations") / "set500.cfg"


@settings(max_examples=150, deadline=None)
@given(line=st.sampled_from(KEY_LINES), value=st.sampled_from(MUTATIONS))
def test_a_single_key_mutation_of_set500_loads_or_is_a_config_error(mutated_cfg, line, value):
    lines = list(SET500_LINES)
    key = lines[line].partition("=")[0]
    lines[line] = f"{key}= {value}"
    mutated_cfg.write_text("\n".join(lines) + "\n")
    try:
        load_config(mutated_cfg)
    except ConfigError:
        pass
