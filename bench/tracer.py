"""Span tracing of fluxgate's layers from outside the package.

``Tracer.install`` wraps the public functions of every layer (the
modules ``circuits``, ``system``, ``evolve``, ``floquet``, ``gates`` and
``backends``) and rebinds *every* module-level name that refers to an
original, not only the defining one: ``floquet`` imports ``_flat_step``
and ``dressed_frame`` from ``evolve``, ``gates`` imports
``extract_transition``, ``evolve`` imports ``label_eigenstates`` and so
on, and patching only the defining module would silently miss those
calls. ``unwrapped_bindings`` lists any binding still holding an
original, so a run can refuse to report from an incomplete trace.

Each call records a span ``[name, start, end, parent, attrs]`` in
memory; the parent is the innermost open span, so the spans of one
point form a tree under the worker's ``point`` span. ``summarize``
turns the spans plus ``lru_cache`` statistics into the per-layer
metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from contextlib import contextmanager

PACKAGE = "fluxgate"
MODULES = ("circuits", "system", "evolve", "floquet", "gates", "backends", "cli")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _block_probe(steps_pos, steps_name, block_pos):
    """Steps, block width and dimension of a kernel call."""
    def probe(args, kwargs, result):
        block = _arg(args, kwargs, block_pos, "block")
        steps = _arg(args, kwargs, steps_pos, steps_name)
        n_steps = steps if isinstance(steps, int) else len(steps)
        return {"steps": n_steps, "width": block.shape[1], "dim": block.shape[0]}
    return probe


def _unitary_drift(args, kwargs, result):
    # final_populations[:, j] sums to the squared norm of propagated column j.
    norms = result.final_populations.sum(axis=0) ** 0.5
    return {"norm_drift": float(abs(norms - 1.0).max())}


# (span name, module, attribute, probe(args, kwargs, result) -> attrs)
LAYERS = (
    ("circuits.diagonalize_fluxonium", "circuits", "diagonalize_fluxonium",
     lambda a, k, r: {"basis": r.basis_size}),
    ("system.assemble_operators", "system", "assemble_operators", None),
    ("system.build_hamiltonian", "system", "build_hamiltonian", None),
    ("system.label_eigenstates", "system", "label_eigenstates",
     lambda a, k, r: {"min_overlap": float(r.overlaps.min())}),
    ("system.state_dependent_shifts", "system", "state_dependent_shifts", None),
    ("system.zz_coupling", "system", "zz_coupling", None),
    ("evolve.dressed_frame", "evolve", "dressed_frame", None),
    ("evolve._flat_step", "evolve", "_flat_step", None),
    ("evolve.chevron_column", "evolve", "chevron_column", None),
    ("evolve.amplitude_point", "evolve", "amplitude_point", None),
    ("evolve.propagate_state", "evolve", "propagate_state",
     lambda a, k, r: {"norm_drift": float(r.norm_drift)}),
    ("evolve.propagate_computational_unitary", "evolve",
     "propagate_computational_unitary", _unitary_drift),
    ("floquet.monodromy", "floquet", "monodromy",
     lambda a, k, r: {"defect": float(r.defect)}),
    ("floquet.quasienergies", "floquet", "quasienergies", None),
    ("floquet.extract_transition", "floquet", "extract_transition",
     lambda a, k, r: {"found": bool(r.found)}),
    ("gates.seed", "gates", "_seed_from_floquet", None),
    ("gates.evaluate_gate", "gates", "evaluate_gate", None),
    ("gates.optimize_cz", "gates", "optimize_cz", None),
    ("backends.step_sequence", "backends", "step_sequence", _block_probe(3, "c1", 6)),
    ("backends.strang_sequence", "backends", "strang_sequence",
     _block_probe(2, "dc1", 4)),
    ("backends.apply_power", "backends", "apply_power", _block_probe(1, "n", 2)),
)
CACHED = ("system.assemble_operators", "evolve.dressed_frame", "evolve._flat_step")
WIDTHS = (1, 4, 150)


class Tracer:
    """In-memory span recorder that wraps fluxgate's layer functions."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}
        self._bindings: list[tuple[object, str, object]] = []
        self._extra: tuple = ()
        self._cache_start: dict[str, tuple[int, int]] = {}

    @contextmanager
    def span(self, name: str):
        """Record a span around the block, nested under any open span."""
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def _wrap(self, name: str, fn, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if probe is not None:
                rec[4] = probe(args, kwargs, result)
            return result

        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _modules(self, extra=()):
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        return mods + [m for m in extra if m not in mods]

    def install(self, extra_modules=()) -> None:
        """Wrap every layer function and rebind all names that refer to it.

        ``extra_modules`` are non-package modules (the benchmark's own)
        whose bindings are rebound as well.
        """
        if self._originals:
            raise RuntimeError("tracer already installed")
        for mod in MODULES:
            importlib.import_module(f"{PACKAGE}.{mod}")
        wrappers = {}
        for name, mod, attr, probe in LAYERS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr)
            self._originals[name] = original
            wrappers[id(original)] = self._wrap(name, original, probe)
        for module in self._modules(extra_modules):
            for key, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, key, wrapper)
                    self._bindings.append((module, key, value))
        self._extra = tuple(extra_modules)
        self._cache_start = {name: self._cache_counts(name) for name in CACHED}

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced."""
        for module, key, original in reversed(self._bindings):
            setattr(module, key, original)
        self._bindings.clear()
        self._originals.clear()

    def unwrapped_bindings(self) -> list[str]:
        """``module.name`` of every binding that still holds an original."""
        originals = {id(fn) for fn in self._originals.values()}
        return sorted(
            f"{module.__name__}.{key}"
            for module in self._modules(self._extra)
            for key, value in vars(module).items()
            if id(value) in originals
        )

    def _cache_counts(self, name: str) -> tuple[int, int]:
        info = self._originals[name].cache_info()
        return info.hits, info.misses

    def cache_deltas(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of each cached layer since ``install``."""
        out = {}
        for name in CACHED:
            hits, misses = self._cache_counts(name)
            h0, m0 = self._cache_start[name]
            out[name] = (hits - h0, misses - m0)
        return out


def nesting_violations(spans: list[list]) -> int:
    """Spans that are not contained in their parent's interval."""
    bad = 0
    for _name, start, end, parent, _attrs in spans:
        if end < start:
            bad += 1
        elif parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                bad += 1
    return bad


# Per-layer metric names and units, in the order they are reported.
def _layer_metric_table() -> list[tuple[str, str]]:
    rows = [
        ("trace.solve_s", "s"),
        ("trace.untraced_solve_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.spans", "count"),
        ("trace.point_coverage", "ratio"),
        ("trace.point_coverage_min", "ratio"),
        ("env.blas_threads", "count"),
    ]
    leaf = {"backends.step_sequence", "backends.strang_sequence", "backends.apply_power"}
    for name, *_ in LAYERS:
        if name in CACHED:
            rows += [(f"{name}.hits", "count"), (f"{name}.misses", "count")]
        elif name != "gates.seed":
            rows.append((f"{name}.calls", "count"))
        rows.append((f"{name}.s", "s"))
        if name not in leaf:
            rows.append((f"{name}.self_s", "s"))
    rows += [
        ("circuits.diagonalize_fluxonium.basis_max", "count"),
        ("system.label_eigenstates.min_overlap", "ratio"),
        ("evolve.norm_drift_max", "ratio"),
        ("floquet.monodromy.defect_max", "ratio"),
        ("floquet.extract_transition.found", "count"),
        ("gates.seed.monodromies", "count"),
        ("backends.step_sequence.steps", "count"),
        ("backends.strang_sequence.steps", "count"),
        ("backends.apply_power.powers", "count"),
    ]
    for w in WIDTHS:
        base = f"backends.strang_sequence.w{w}"
        rows += [
            (f"{base}.calls", "count"),
            (f"{base}.steps", "count"),
            (f"{base}.col_steps", "count"),
            (f"{base}.s", "s"),
            (f"{base}.gflop_computed", "GFLOP/s"),
        ]
    rows += [
        ("blas1.solve_s", "s"),
        ("blas1.point_s_p50", "s"),
        ("blas1.blas_threads", "count"),
        ("blas1.floquet.monodromy.s", "s"),
        ("blas1.backends.strang_sequence.s", "s"),
        ("blas1.backends.step_sequence.s", "s"),
        ("blas1.system.label_eigenstates.s", "s"),
    ]
    return rows


LAYER_METRICS = _layer_metric_table()
# Prefixes of the metrics the benchmark runner fills in, not ``summarize``.
CALLER_FILLED = ("trace.solve_s", "trace.untraced_solve_s", "trace.overhead", "env.", "blas1.")


def summarize(spans: list[list], cache: dict[str, tuple[int, int]]) -> dict[str, float]:
    """Per-layer metrics from recorded spans and cache deltas.

    Covers every ``LAYER_METRICS`` name except those matching
    ``CALLER_FILLED``; layers a workload never reaches report 0. Self
    time is a span's duration minus the time its direct children cover.
    """
    n = len(spans)
    child = [0.0] * n
    in_seed = [False] * n
    for i, (name, start, end, parent, _attrs) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_seed[i] = in_seed[parent]
        if name == "gates.seed":
            in_seed[i] = True

    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    def peak(key, value):
        out[key] = max(out.get(key, 0.0), value)

    points = []
    for i, (name, start, end, _parent, attrs) in enumerate(spans):
        dur = end - start
        if name == "point":
            points.append((dur, child[i]))
            continue
        if name == "setup":
            continue
        add(f"{name}.calls", 1)
        add(f"{name}.s", dur)
        add(f"{name}.self_s", dur - child[i])
        attrs = attrs or {}
        if name == "floquet.monodromy":
            peak("floquet.monodromy.defect_max", attrs["defect"])
            if in_seed[i]:
                add("gates.seed.monodromies", 1)
        elif name == "floquet.extract_transition":
            add("floquet.extract_transition.found", int(attrs["found"]))
        elif name in ("evolve.propagate_state", "evolve.propagate_computational_unitary"):
            peak("evolve.norm_drift_max", attrs["norm_drift"])
        elif name == "system.label_eigenstates":
            low = out.get("system.label_eigenstates.min_overlap", math.inf)
            out["system.label_eigenstates.min_overlap"] = min(low, attrs["min_overlap"])
        elif name == "circuits.diagonalize_fluxonium":
            peak("circuits.diagonalize_fluxonium.basis_max", attrs["basis"])
        elif name == "backends.apply_power":
            add("backends.apply_power.powers", attrs["steps"])
        elif name in ("backends.step_sequence", "backends.strang_sequence"):
            add(f"{name}.steps", attrs["steps"])
            if name == "backends.strang_sequence" and attrs["width"] in WIDTHS:
                base = f"{name}.w{attrs['width']}"
                add(f"{base}.calls", 1)
                add(f"{base}.steps", attrs["steps"])
                add(f"{base}.col_steps", attrs["steps"] * attrs["width"])
                add(f"{base}.s", dur)
                add(f"{base}.flop", 8.0 * attrs["dim"] ** 2 * attrs["width"] * attrs["steps"])

    for w in WIDTHS:
        base = f"backends.strang_sequence.w{w}"
        flop, secs = out.pop(f"{base}.flop", 0.0), out.get(f"{base}.s", 0.0)
        out[f"{base}.gflop_computed"] = flop / secs / 1e9 if secs > 0 else 0.0
    for name, (hits, misses) in cache.items():
        out.pop(f"{name}.calls", None)
        out[f"{name}.hits"] = hits
        out[f"{name}.misses"] = misses
    out.pop("gates.seed.calls", None)
    if math.isinf(out.get("system.label_eigenstates.min_overlap", 0.0)):
        out["system.label_eigenstates.min_overlap"] = 0.0

    wall = sum(d for d, _ in points)
    out["trace.spans"] = n
    out["trace.point_coverage"] = sum(c for _, c in points) / wall if wall > 0 else 0.0
    out["trace.point_coverage_min"] = min((c / d for d, c in points if d > 0), default=0.0)

    return {key: out.get(key, 0) for key, _ in LAYER_METRICS
            if not key.startswith(CALLER_FILLED)}
