"""Run configuration files: parsing, validation, and typed access.

Configs are INI text with sections for the three circuits, their
couplings, truncation, and one section per command that needs grids or
gate settings. The section dataclasses are the schema: each field is
one key of its section, parsed by its annotation and required when it
has no default; only keys without a field of their own are listed
apart. Unknown sections or keys are rejected with their field path, and
every numeric constraint of the underlying modules is checked before
any computation starts. Frequencies are GHz, times ns, fluxes in flux
quanta; the integrator step ``[output] dt`` is in ns too, and is the
only place a run's step is set.

A config holds what determines a run's results, and the run id hashes
what its command reads of it; where the output goes and how many
processes compute it are set on the command line alone.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .circuits import FluxoniumParams, TransmonParams
from .errors import ConfigError, DomainError
from .evolve import DEFAULT_DT, _check_drive_resolved, _step_count, label_key
from .gates import OFFSET_TABLE, OPTIMIZER_BUDGET, OPTIMIZER_RESTARTS, GateConfig, search_dt
from .pulses import DEFAULT_DRIVE_RAMP, ParametricPulse
from .system import CompositeParams, label_parity

Label = tuple[int, int, int]
Ladder = tuple[float, ...]

# The fluxonium transitions the spectrum command reports: the
# parity-allowed ones with their charge matrix elements.
LADDER = ((0, 1), (1, 2), (0, 3), (1, 4))


@dataclass(frozen=True)
class ReferenceValues:
    """Expected single-circuit values for the spectrum comparison block.

    Each qubit list holds one value per ``LADDER`` transition: the
    transitions are f01, f12, f03 and f14; the elements are the charge
    matrix elements |<0|n|1>|, |<1|n|2>|, |<0|n|3>| and |<1|n|4>|.
    Coupler frequencies refer to zero flux; the ``_interaction`` pair to
    ``RunConfig.spectrum_flux``, and ``load_config`` refuses the pair
    when that is None.
    """

    q0_transitions: Ladder | None = None
    q1_transitions: Ladder | None = None
    q0_elements: Ladder | None = None
    q1_elements: Ladder | None = None
    coupler_w01: float | None = None
    coupler_w12: float | None = None
    interaction_flux: float | None = None
    coupler_w01_interaction: float | None = None
    coupler_w12_interaction: float | None = None


def _require_grid(points: int, lo: float, hi: float, what: str):
    if points < 1:
        raise ValueError(f"{what} grid must have at least one point")
    if points > 1 and hi <= lo:
        raise ValueError(f"{what} grid needs max > min")


@dataclass(frozen=True)
class ShiftScanConfig:
    flux_min: float = 0.0
    flux_max: float = 0.45
    points: int = 46

    def __post_init__(self):
        _require_grid(self.points, self.flux_min, self.flux_max, "flux")


@dataclass(frozen=True)
class ChevronConfig:
    """Grid for population maps versus drive frequency and time."""

    flux_s: float
    drive_amp: float
    freq_min: float
    freq_max: float
    freq_points: int
    time_max: float
    time_points: int
    ramp_time: float = DEFAULT_DRIVE_RAMP
    psi0: Label = (1, 0, 1)

    def __post_init__(self):
        _require_grid(self.freq_points, self.freq_min, self.freq_max, "frequency")
        _require_grid(self.time_points, 0.0, self.time_max, "time")
        self.template()  # the pulse checks the amplitude and that both ramps fit

    def template(self) -> ParametricPulse:
        """The scan's drive at its first frequency, over a window of
        ``time_max``; each column replaces the frequency."""
        return ParametricPulse(
            self.flux_s, self.drive_amp, self.freq_min, self.ramp_time, self.time_max
        )


@dataclass(frozen=True)
class AmplitudeConfig:
    """Grid for the final target population versus frequency and amplitude."""

    flux_s: float
    fixed_time: float
    freq_min: float
    freq_max: float
    freq_points: int
    amp_min: float
    amp_max: float
    amp_points: int
    ramp_time: float = DEFAULT_DRIVE_RAMP

    def __post_init__(self):
        _require_grid(self.freq_points, self.freq_min, self.freq_max, "frequency")
        _require_grid(self.amp_points, self.amp_min, self.amp_max, "amplitude")
        if self.fixed_time <= 0:
            raise ValueError("fixed_time must be positive")
        self.template()  # the pulse checks the amplitude and that both ramps fit

    def template(self) -> ParametricPulse:
        """The scan's drive at its first frequency and amplitude, over a
        window of ``fixed_time``; each cell replaces both."""
        return ParametricPulse(
            self.flux_s, self.amp_min, self.freq_min, self.ramp_time, self.fixed_time
        )


@dataclass(frozen=True)
class FloquetConfig:
    """Resonance extraction settings per drive amplitude."""

    flux_s: float
    amp_values: tuple[float, ...]
    pair: tuple[Label, Label] = ((1, 0, 1), (2, 0, 2))
    window: float = 0.08
    resolution: int = 41

    def __post_init__(self):
        if not self.amp_values or any(a <= 0 for a in self.amp_values):
            raise ValueError("amp_values must be a nonempty list of positive numbers")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.resolution < 5:
            raise ValueError("resolution must be at least 5")
        if self.pair[0] == self.pair[1]:
            raise ValueError("pair must name two different states")


@dataclass(frozen=True)
class SweepConfig:
    gate_times: tuple[float, ...]
    drive_ramps: tuple[float, ...] = (5.0, 10.0)

    def __post_init__(self):
        if not self.gate_times:
            raise ValueError("gate_times must be nonempty")
        if not self.drive_ramps or any(r < 0 for r in self.drive_ramps):
            raise ValueError("drive_ramps must be nonempty and non-negative")
        if not self.cells:
            raise ValueError("no gate length satisfies t_g >= 2 drive_ramp + 10 ns")

    @property
    def cells(self) -> tuple[tuple[float, float], ...]:
        """(gate_time, drive_ramp) pairs with t_g >= 2 drive_ramp + 10 ns,
        gate time major; a shorter gate has under 10 ns between its drive
        ramps."""
        return tuple(
            (t_g, ramp) for t_g in self.gate_times for ramp in self.drive_ramps
            if t_g >= 2.0 * ramp + 10.0
        )


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of one configuration file."""

    params: CompositeParams
    dt: float
    gate: GateConfig | None = None
    shift_scan: ShiftScanConfig | None = None
    chevron: ChevronConfig | None = None
    amplitude: AmplitudeConfig | None = None
    floquet: FloquetConfig | None = None
    sweep: SweepConfig | None = None
    reference: ReferenceValues | None = None
    gate_restarts: int = OPTIMIZER_RESTARTS
    gate_budget: int = OPTIMIZER_BUDGET

    def require(self, name: str):
        """Section accessor that fails with a clear field path."""
        value = getattr(self, name)
        if value is None:
            raise ConfigError("section required by this command is missing", name)
        return value

    @property
    def spectrum_flux(self) -> float | None:
        """Coupler flux at which the spectrum reports the coupler beside
        zero flux and compares the reference's ``_interaction`` pair: the
        reference's ``interaction_flux``, else the gate's drive flux, else
        None."""
        if self.reference is not None and self.reference.interaction_flux is not None:
            return self.reference.interaction_flux
        return None if self.gate is None else self.gate.drive_flux


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


def _parse_floats(text: str) -> tuple[float, ...]:
    items = [s for s in (part.strip() for part in text.split(",")) if s]
    if not items:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_parse_float(s) for s in items)


def _parse_ladder(text: str) -> Ladder:
    values = _parse_floats(text)
    if len(values) != len(LADDER):
        ladder = ", ".join(f"{i}-{j}" for i, j in LADDER)
        raise ValueError(f"expected one value per transition {ladder}; got {len(values)}")
    return values


def _parse_label(text: str) -> Label:
    digits = text.strip()
    if len(digits) != 3 or not digits.isdigit():
        raise ValueError("state labels are three digits, e.g. 101")
    return (int(digits[0]), int(digits[1]), int(digits[2]))


def _parse_pair(text: str) -> tuple[Label, Label]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError("pairs are two labels joined by a colon, e.g. 101:202")
    return (_parse_label(parts[0]), _parse_label(parts[1]))


# RunConfig field, INI section, and type of each optional section that
# is built from its keys as they are.
_SECTIONS = (
    ("shift_scan", "shift_scan", ShiftScanConfig),
    ("chevron", "chevron", ChevronConfig),
    ("amplitude", "amplitude", AmplitudeConfig),
    ("floquet", "floquet", FloquetConfig),
    ("sweep", "gate_sweep", SweepConfig),
    ("reference", "reference", ReferenceValues),
)

# The parser of each annotation a section field carries, without
# ``| None``.
_PARSERS = {
    "float": _parse_float,
    "int": int,
    "Label": _parse_label,
    "Ladder": _parse_ladder,
    "tuple[float, ...]": _parse_floats,
    "tuple[Label, Label]": _parse_pair,
}


def _keys(cls, *skip: str) -> dict[str, tuple]:
    """One key per field of ``cls`` not in ``skip``, parsed by its
    annotation and required when the field has no default."""
    return {
        f.name: (_PARSERS[f.type.removesuffix(" | None")], f.default is MISSING)
        for f in fields(cls) if f.name not in skip
    }


# Schema: section -> key -> (parser, required). Sections marked optional
# may be absent entirely; required keys apply only when present. A
# section that builds a dataclass takes its keys from the fields; only
# keys without a field of their own are listed here.
_REQUIRED_SECTIONS = ("qubit0", "qubit1", "coupler", "couplings")

_SCHEMA: dict[str, dict[str, tuple]] = {
    "qubit0": _keys(FluxoniumParams),
    "qubit1": _keys(FluxoniumParams),
    "coupler": _keys(TransmonParams),
    "couplings": {key: (_parse_float, True) for key in ("j_c0", "j_c1", "j_01")},
    "truncation": {"fluxonium_levels": (int, False), "coupler_levels": (int, False)},
    "output": {"dt": (_parse_float, False)},
    **{name: _keys(factory) for _, name, factory in _SECTIONS},
    "gate": {
        **_keys(GateConfig, "freq_bounds", "amp_bounds"),
        **{key: (_parse_float, False) for key in ("freq_min", "freq_max", "amp_min", "amp_max")},
        "restarts": (int, False),
        "budget": (int, False),
    },
}


def _read_sections(path: Path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(
        delimiters=("=",), inline_comment_prefixes=("#",), interpolation=None,
        strict=True,
    )
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}", str(path)) from exc
    return {name: dict(parser[name]) for name in parser.sections()}


def _validate_keys(sections: dict[str, dict[str, str]]) -> dict[str, dict]:
    parsed: dict[str, dict] = {}
    for name, raw in sections.items():
        if name not in _SCHEMA:
            raise ConfigError("unknown section", name)
        schema = _SCHEMA[name]
        out: dict[str, object] = {}
        for key, text in raw.items():
            if key not in schema:
                raise ConfigError("unknown key", f"{name}.{key}")
            parser_fn = schema[key][0]
            try:
                out[key] = parser_fn(text)
            except ValueError as exc:
                raise ConfigError(str(exc), f"{name}.{key}") from exc
        for key, (_, required) in schema.items():
            if required and key not in out:
                raise ConfigError("required key missing", f"{name}.{key}")
        parsed[name] = out
    for name in _REQUIRED_SECTIONS:
        if name not in parsed:
            raise ConfigError("required section missing", name)
    return parsed


def _build(section: str, factory, kwargs):
    try:
        return factory(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc), section) from exc


def load_config(path) -> RunConfig:
    """Parse and fully validate one configuration file."""
    parsed = _validate_keys(_read_sections(Path(path)))

    q0 = _build("qubit0", FluxoniumParams, parsed["qubit0"])
    q1 = _build("qubit1", FluxoniumParams, parsed["qubit1"])
    coupler = _build("coupler", TransmonParams, parsed["coupler"])
    trunc = parsed.get("truncation", {})
    levels = {
        field: trunc[key]
        for key, field in (("fluxonium_levels", "n_flux_levels"),
                           ("coupler_levels", "n_coupler_levels"))
        if key in trunc
    }
    params = _build(
        "truncation",
        CompositeParams,
        {
            "q0": q0,
            "q1": q1,
            "coupler": coupler,
            "j_c0": parsed["couplings"]["j_c0"],
            "j_c1": parsed["couplings"]["j_c1"],
            "j_01": parsed["couplings"]["j_01"],
            **levels,
        },
    )

    dt = parsed.get("output", {}).get("dt", DEFAULT_DT)
    if dt <= 0:
        raise ConfigError("dt must be positive", "output.dt")

    gate = None
    gate_restarts, gate_budget = OPTIMIZER_RESTARTS, OPTIMIZER_BUDGET
    if "gate" in parsed:
        g = dict(parsed["gate"])
        gate_restarts = g.pop("restarts", OPTIMIZER_RESTARTS)
        gate_budget = g.pop("budget", OPTIMIZER_BUDGET)
        if not 1 <= gate_restarts <= len(OFFSET_TABLE):
            raise ConfigError(f"restarts must lie in 1..{len(OFFSET_TABLE)}", "gate.restarts")
        if gate_budget < 10:
            raise ConfigError("budget must be at least 10", "gate.budget")
        bounds = {}
        for name in ("freq", "amp"):
            lo, hi = f"{name}_min", f"{name}_max"
            if (lo in g) != (hi in g):
                raise ConfigError(f"{lo} and {hi} come together", f"gate.{lo}")
            bounds[f"{name}_bounds"] = (g.pop(lo), g.pop(hi)) if lo in g else None
        gate = _build("gate", GateConfig, {**g, **bounds})

    sections = {
        field: _build(name, factory, parsed[name])
        for field, name, factory in _SECTIONS if name in parsed
    }
    rc = RunConfig(
        params=params,
        dt=dt,
        gate=gate,
        gate_restarts=gate_restarts,
        gate_budget=gate_budget,
        **sections,
    )

    if rc.spectrum_flux is None and rc.reference is not None:
        for key in ("coupler_w01_interaction", "coupler_w12_interaction"):
            if getattr(rc.reference, key) is not None:
                raise ConfigError(
                    "needs interaction_flux or a [gate] to compare against", f"reference.{key}"
                )

    # A scan's highest drive frequency, or a gate's when it bounds its
    # search, sets the coarsest step it can take; a gate searches at
    # search_dt(dt), which is never finer than dt.
    highest = {f"[{name}] freq_max": (dt, sections[name].freq_max)
               for name in ("chevron", "amplitude") if name in sections}
    if gate is not None and gate.freq_bounds is not None:
        highest["[gate] freq_max (the calibration's search step)"] = (
            search_dt(dt), gate.freq_bounds[1])
    for name, (step, freq_max) in highest.items():
        try:
            _check_drive_resolved(step, freq_max)
        except DomainError as exc:
            raise ConfigError(f"{exc} at {name}", "output.dt") from exc

    # Each section's longest schedule must cut into steps at dt, bias
    # ramps included.
    ramps = 0.0 if gate is None or gate.bias_ramp is None else 2.0 * gate.bias_ramp
    longest = {}
    if "chevron" in sections:
        longest["[chevron] time_max"] = sections["chevron"].time_max
    if "amplitude" in sections:
        longest["[amplitude] fixed_time"] = sections["amplitude"].fixed_time
    if gate is not None:
        longest["[gate] gate_time"] = gate.gate_time + ramps
    if "sweep" in sections:
        longest["[gate_sweep] gate_times"] = max(sections["sweep"].gate_times) + ramps
    for name, span in longest.items():
        try:
            _step_count(0.0, span, dt)
        except DomainError as exc:
            raise ConfigError(f"{exc} at {name}", "output.dt") from exc

    # A label names a level of each circuit: qubit 0, coupler, qubit 1.
    counts = (params.n_flux_levels, params.n_coupler_levels, params.n_flux_levels)
    named = []
    if "chevron" in sections:
        named.append(("chevron.psi0", sections["chevron"].psi0))
    if "floquet" in sections:
        named += [("floquet.pair", label) for label in sections["floquet"].pair]
    for field, label in named:
        if any(k >= n for k, n in zip(label, counts)):
            raise ConfigError(
                f"state {label_key(label)} lies outside the "
                f"{' x '.join(map(str, counts))} truncation", field
            )
    if "floquet" in sections:
        a, b = sections["floquet"].pair
        if label_parity(a) != label_parity(b):
            raise ConfigError(
                f"states {label_key(a)} and {label_key(b)} lie in different parity "
                "sectors, which the drive does not couple", "floquet.pair"
            )

    return rc
