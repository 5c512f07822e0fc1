"""Seed discipline, reference coverage, output checks and the benchmark
definition file."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def devices():
    return workloads.load_devices()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name, devices):
    first = workloads.generate(name, workloads.DEFAULT_SEED, 20, devices)
    again = workloads.generate(name, workloads.DEFAULT_SEED, 20, devices)
    assert first == again
    assert len(first) >= 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_different_seeds_different_inputs(name, devices):
    a = workloads.generate(name, workloads.DEFAULT_SEED, 20, devices)
    b = workloads.generate(name, workloads.HELD_OUT_SEED, 20, devices)
    assert a != b


def test_default_and_held_out_seeds_differ():
    assert workloads.DEFAULT_SEED != workloads.HELD_OUT_SEED


def test_propagate_mix_is_fixed(devices):
    for seed in range(5):
        kinds = [p["kind"] for p in workloads.generate("propagate", seed, 20, devices)]
        assert kinds.count("amplitude") == workloads.PROP_AMP_PER_UNIT
        assert kinds.count("chevron") == workloads.PROP_CHEV_PER_UNIT


def test_spectrum_interleaves_devices(devices):
    points = workloads.generate("spectrum", workloads.DEFAULT_SEED, 1, devices)
    assert [p["device"] for p in points[:4]] == ["set500", "set300"] * 2


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_drawable_point_has_a_reference(name, devices):
    reference = workloads.load_reference()
    missing = [workloads.point_key(p) for p in workloads.pool(name, devices)
               if workloads.point_key(p) not in reference]
    assert missing == []


def test_check_point_tolerances():
    ref = {"shift_p0": 1e-3, "shift_p1": 2e-3, "zz": -4e-6, "ambiguous": False}
    assert workloads.check_point(dict(ref), ref) is None
    assert workloads.check_point({**ref, "zz": -4e-6 + 5e-7}, ref) is None
    assert workloads.check_point({**ref, "zz": -4e-6 + 2e-6}, ref) is not None
    assert workloads.check_point({**ref, "ambiguous": True}, ref) is not None
    pops = {"101": [1.0, 0.5], "computational": [1.0, 0.9]}
    assert workloads.check_point({"101": [1.0, 0.5 + 2e-6], "computational": [1.0, 0.9]},
                                 pops) is not None
    cal = {"omega_p": 10.78, "drive_amp": 0.08, "error": 1e-3, "leakage": 1e-4,
           "conditional_phase": 3.1, "success": True}
    assert workloads.check_point({**cal, "success": False}, cal) is not None
    assert workloads.check_point({**cal, "omega_p": 10.78 + 2e-6}, cal) is not None


def test_benchmark_definition_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.LAYER_METRICS
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectrum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_calibrate_cells_alternate_drive_ramps(devices):
    first = devices["set500"].require("gate").drive_ramp
    for seed in range(5):
        one = workloads.generate("calibrate", seed, 20, devices)
        assert [p["drive_ramp"] for p in one] == [first]
    four = workloads.generate("calibrate", workloads.DEFAULT_SEED, 120, devices)
    assert [p["drive_ramp"] for p in four] == [first, 10.0, first, 10.0]
    assert len({workloads.point_key(p) for p in four}) == 4
