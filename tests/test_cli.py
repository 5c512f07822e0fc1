"""Command line entry points, run directories, and determinism."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fluxgate import backends, cli, evolve, gates
from fluxgate.cli import RunDirectory, _run_points, _shift_point, main
from fluxgate.config import load_config
from fluxgate.errors import IntegrationError

BASE = """\
[qubit0]
e_c = 1.02
e_l = 1.14
e_j = 4.75

[qubit1]
e_c = 0.96
e_l = 1.2
e_j = 4.25

[coupler]
e_c = 0.155
e_j_max = 55.0

[couplings]
j_c0 = 0.5
j_c1 = 0.5
j_01 = 0.035
"""

CHEVRON_TINY = """\
[output]
dt = 0.002

[chevron]
flux_s = 0.35
drive_amp = 0.03
freq_min = 10.78
freq_max = 10.80
freq_points = 2
time_max = 20.0
time_points = 3
"""

SCAN3 = "[shift_scan]\nflux_min = 0.0\nflux_max = 0.2\npoints = 3\n"

AMPLITUDE_ONE = (
    "[output]\ndt = 0.002\n\n[amplitude]\nflux_s = 0.35\nfixed_time = 20.0\n"
    "freq_min = 10.79\nfreq_max = 10.79\nfreq_points = 1\n"
    "amp_min = 0.03\namp_max = 0.03\namp_points = 1\n"
)

# Search window pinned 100 MHz above the resonance: the calibration
# stagnates, after ten evaluations at 2 ps.
STAGNATES = (
    "[output]\ndt = 0.002\n\n[gate]\nflux_idle = 0.35\n"
    "gate_time = 30.0\nrestarts = 1\nbudget = 10\n"
    "freq_min = 10.90\nfreq_max = 10.95\namp_min = 0.01\namp_max = 0.05\n\n"
)


def write_cfg(tmp_path, extra="", name="run.cfg"):
    path = tmp_path / name
    path.write_text(BASE + extra)
    return str(path)


def run_json(run_dir):
    payload = json.loads((run_dir / "run.json").read_text())
    payload.pop("created")
    return payload


def only_run_dir(root, command):
    dirs = [p for p in root.iterdir() if p.name.startswith(command + "-")]
    assert len(dirs) == 1
    return dirs[0]


def test_spectrum_with_reference(cfg500_path, tmp_path, capsys):
    out = tmp_path / "a"
    assert main(["spectrum", "--config", cfg500_path, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "reference comparison" in text
    assert len(re.findall(r"\| \d\.\d{2}e-0\d", text)) == 20

    run_dir = only_run_dir(out, "spectrum")
    assert re.fullmatch(r"spectrum-[0-9a-f]{12}", run_dir.name)
    csv = (run_dir / "result.csv").read_text()
    assert csv.splitlines()[0] == "circuit,kind,i,j,value"
    meta = run_json(run_dir)
    assert meta["schema"] == "fluxgate.run/1"
    assert meta["failures"] == []
    assert meta["run_id"] == run_dir.name.split("-")[1]

    # Same inputs land in the same directory with identical content.
    assert main(["spectrum", "--config", cfg500_path, "--out", str(out)]) == 0
    assert only_run_dir(out, "spectrum") == run_dir
    assert (run_dir / "result.csv").read_text() == csv
    assert run_json(run_dir) == meta


def test_spectrum_without_reference(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "reference comparison" not in capsys.readouterr().out


@pytest.mark.parametrize("command, extra, code, header", [
    pytest.param("shift-scan", SCAN3, 0, "flux,shift_p0,shift_p1,zz,ambiguous", id="shift-scan"),
    # Each cell's report and trace cross the process pool.
    pytest.param("gate-sweep", STAGNATES + "[gate_sweep]\ngate_times = 30.0, 40.0\n"
                 "drive_ramps = 5.0\n", 1,
                 "gate_time,drive_ramp,error,leakage,omega_p,drive_amp,success", id="gate-sweep"),
])
def test_worker_count_invisible_in_results(tmp_path, command, extra, code, header):
    cfg = write_cfg(tmp_path, extra)
    a, b = tmp_path / "w1", tmp_path / "w2"
    assert main([command, "--config", cfg, "--out", str(a), "--workers", "1"]) == code
    assert main([command, "--config", cfg, "--out", str(b), "--workers", "2"]) == code
    run_a, run_b = only_run_dir(a, command), only_run_dir(b, command)
    for name in run_json(run_a)["outputs"]:
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
    assert (run_a / "result.csv").read_text().splitlines()[0] == header


def _pid_after_a_nap():
    # The nap keeps a worker busy, so the next point goes to another.
    time.sleep(0.1)
    return os.getpid()


def test_a_pool_runs_at_most_one_process_per_core_and_point(tmp_path):
    # A pool runs min(workers, cores, points) processes; a pool of one
    # process is no pool: the points run here, whether one worker is
    # asked for or one point is pending.
    cores = len(os.sched_getaffinity(0))
    jobs = [(str(i), ()) for i in range(2 * cores + 2)]
    two, failures = _run_points(RunDirectory(tmp_path, "two", {}), jobs[:4],
                                _pid_after_a_nap, 2, False)
    capped, _ = _run_points(RunDirectory(tmp_path, "capped", {}), jobs,
                            _pid_after_a_nap, cores + 1, False)
    assert failures == [] and len(set(two)) == min(2, cores)
    assert len(set(capped)) <= cores
    for workers, n_jobs in ((1, 4), (2, 1)):
        probe = RunDirectory(tmp_path, f"one-{workers}", {})
        values, _ = _run_points(probe, jobs[:n_jobs], os.getpid, workers, False)
        assert set(values) == {os.getpid()}


def test_commands_compute_at_one_blas_thread(tmp_path, monkeypatch):
    # No command pins a count of its own: every kernel, eigensolve, SVD and
    # solve a command reaches runs at one thread inside the library, at a
    # caller's count one above the session's, and main hands that count
    # back. Each command starts at a cold frame cache, so that it computes
    # its dressed frames, not looks them up.
    configs = {
        "spectrum": "",
        "shift-scan": SCAN3,
        "chevron": CHEVRON_TINY,
        "amplitude": AMPLITUDE_ONE,
        "floquet": "[output]\ndt = 0.002\n\n[floquet]\nflux_s = 0.35\namp_values = 0.03\n"
                   "resolution = 5\n",
        # The bias ramps are stepped by step_sequence.
        "gate-opt": "[output]\ndt = 0.002\n\n[gate]\nflux_idle = 0.0\nflux_interaction = 0.35\n"
                    "bias_ramp = 3.0\ngate_time = 30.0\nrestarts = 1\nbudget = 10\n",
    }
    seen = []
    for module, name in ((backends, "strang_sequence"), (backends, "step_sequence"),
                         (backends, "apply_power"), (np.linalg, "eigh"), (np.linalg, "svd"),
                         (np.linalg, "solve")):
        def spy(*args, fn=getattr(module, name), name=name, **kwargs):
            seen.append((name, backends.blas_threads()))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)

    callers = backends.blas_threads() + 1
    previous = backends.set_blas_threads(callers)
    try:
        reached = set()
        for command, extra in configs.items():
            seen.clear()
            evolve.dressed_frame.cache_clear()
            cfg = write_cfg(tmp_path, extra, name=f"{command}.cfg")
            assert main([command, "--config", cfg, "--out", str(tmp_path / command),
                         "--workers", "1"]) == 0, command
            assert seen and {threads for _, threads in seen} == {1}, f"{command}: {seen}"
            assert backends.blas_threads() == callers, command
            assert run_json(only_run_dir(tmp_path / command, command))["blas_threads"] == 1
            reached |= {name for name, _ in seen}
    finally:
        backends.set_blas_threads(previous)
    assert reached == {"strang_sequence", "step_sequence", "apply_power", "eigh", "svd",
                       "solve"}


def test_main_restores_the_callers_blas_thread_count(tmp_path):
    # main pins no count: a caller's count, here one above the session's
    # so that nothing restores it by chance, is the count it returns at,
    # after a pooled run and after a configuration error.
    cfg = write_cfg(tmp_path, SCAN3)
    callers = backends.blas_threads() + 1
    previous = backends.set_blas_threads(callers)
    try:
        assert main(["shift-scan", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--workers", "2"]) == 0
        assert backends.blas_threads() == callers
        assert main(["shift-scan", "--config", str(tmp_path / "missing.cfg")]) == 2
        assert backends.blas_threads() == callers
    finally:
        backends.set_blas_threads(previous)


def test_commands_run_when_openblas_is_not_found(tmp_path, monkeypatch):
    # Without numpy's OpenBLAS the library pins nothing, serial or pooled,
    # and the sidecar records no count.
    monkeypatch.setattr(backends, "_openblas", lambda: None)
    cfg = write_cfg(tmp_path, SCAN3)
    out = tmp_path / "o"
    assert main(["shift-scan", "--config", cfg, "--out", str(out), "--workers", "2"]) == 0
    assert run_json(only_run_dir(out, "shift-scan"))["blas_threads"] is None


def test_importing_the_library_keeps_the_blas_thread_count():
    # Importing sets no count: the library pins one thread only inside its
    # calls, so a caller that imports these modules, the command line's
    # included, keeps the count a bare numpy import leaves.
    modules = ("circuits", "system", "evolve", "floquet", "gates", "backends", "cli",
               "config", "errors", "pulses")
    probe = (
        "import ctypes, importlib, numpy\n"
        "paths = sorted({l.split()[-1] for l in open('/proc/self/maps') if 'openblas' in l})\n"
        "libs = [ctypes.CDLL(path) for path in paths]\n"
        f"get = next(getattr(lib, g) for lib in libs for g, _ in {backends.BLAS_SYMBOLS!r}\n"
        "           if hasattr(lib, g))\n"
        "bare = get()\n"
        "import fluxgate\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module('fluxgate.' + name)\n"
        "print(bare, get())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(backends.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out[0] == out[1]


def test_no_command_loads_scipy(cfg500_path, tmp_path):
    # The runtime needs numpy only. scipy would cost every process, pool
    # workers included, about 0.3 s and 24 MiB to import, and would map a
    # second OpenBLAS that set_blas_threads does not pin. So neither the
    # package, nor a command's spectra and eigensolves, nor the
    # calibration's simplex search may load any scipy module.
    cfg = write_cfg(tmp_path, "[shift_scan]\nflux_min = 0.0\nflux_max = 0.2\npoints = 2\n")
    out = str(tmp_path / "o")
    probe = (
        "import json, sys\n"
        "import fluxgate\n"
        "from fluxgate.cli import main\n"
        "from fluxgate.gates import simplex_search\n"
        f"codes = [main([command, '--config', cfg, '--out', {out!r}, '--workers', '1'])\n"
        f"         for command, cfg in [('spectrum', {cfg500_path!r}), ('shift-scan', {cfg!r})]]\n"
        "best = simplex_search(lambda x: float((x[0] - 0.3) ** 2 + x[1] ** 2), (0.0, 0.5),\n"
        "                      ((-1.0, 1.0), (-1.0, 1.0)), (0.1, 0.1), restarts=2, budget=60)\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps([codes, bool(abs(best[0] - 0.3) < 1e-3), loaded]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(backends.__file__).parents[1]))
    stdout = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True).stdout
    assert json.loads(stdout.splitlines()[-1]) == [[0, 0], True, []]


def test_resume_recomputes_a_torn_last_checkpoint_line(tmp_path, caplog):
    # An interrupted append leaves a torn last line: --resume keeps the
    # good line, recomputes the torn point and matches a clean run.
    cfg = write_cfg(tmp_path, "[shift_scan]\nflux_min = 0.0\nflux_max = 0.2\npoints = 3\n")
    clean, torn = tmp_path / "clean", tmp_path / "torn"
    assert main(["shift-scan", "--config", cfg, "--out", str(clean)]) == 0
    assert main(["shift-scan", "--config", cfg, "--out", str(torn)]) == 0
    run_dir = only_run_dir(torn, "shift-scan")
    good = {"key": "0", "value": _shift_point(load_config(cfg).params, 0.0),
            "code": cli.code_digest()}
    progress = run_dir / "progress.jsonl"
    progress.write_text(json.dumps(good) + "\n" + '{"key": "0.1", "value": [0.0')
    with caplog.at_level("WARNING", logger="fluxgate.cli"):
        assert main(["shift-scan", "--config", cfg, "--out", str(torn), "--resume"]) == 0
    assert "torn checkpoint line" in caplog.text
    fresh = (run_dir / "result.csv").read_bytes()
    assert fresh == (only_run_dir(clean, "shift-scan") / "result.csv").read_bytes()

    # The torn line is dropped from the file, so a later append, here one
    # of a resumed run that fails a point and keeps its checkpoints,
    # starts a line of its own instead of joining the torn one. A whole
    # line without a code is kept in the file but not reused.
    probe = RunDirectory(tmp_path, "probe", {})
    probe.checkpoint("a", 1)
    with open(probe.path / "progress.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"key": "c", "value": "stale"}) + "\n")
        fh.write('{"key": "b", "val')
    with caplog.at_level("INFO", logger="fluxgate.cli"):
        assert probe.completed_points(True) == {"a": 1}
    assert "recomputing 1 checkpointed point(s) computed by another build" in caplog.text
    probe.checkpoint("b", 2)
    assert probe.completed_points(True) == {"a": 1, "b": 2}


def test_code_digest_follows_the_sources_not_their_path(tmp_path):
    # Two copies of the package at different paths name the same build;
    # a one-byte edit to a module other than cli.py names another.
    package = Path(cli.__file__).parent
    copies = [tmp_path / name for name in ("a", "b")]
    for root in copies:
        shutil.copytree(package, root / "fluxgate", ignore=shutil.ignore_patterns("__pycache__"))

    def digest(root):
        probe = "from fluxgate import cli; print(cli.__file__, cli.code_digest())"
        env = dict(os.environ, PYTHONPATH=str(root))
        stdout = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                text=True, check=True).stdout
        path, code = stdout.split()
        assert Path(path).parent == root / "fluxgate"
        return code

    first, second = (digest(root) for root in copies)
    assert first == second == cli.code_digest()
    module = copies[1] / "fluxgate" / "evolve.py"
    text = module.read_bytes()
    module.write_bytes(text[:3] + text[3:4].lower() + text[4:])
    assert digest(copies[1]) != first


def test_results_depend_on_neither_worker_count_nor_openblas_threads(tmp_path):
    # The library pins one BLAS thread inside its calls, so a fresh process
    # at OpenBLAS's default count and one started at a single thread, each
    # serial and with a 2-worker pool (two processes on two or more cores),
    # write the same bytes.
    cfg = write_cfg(tmp_path, SCAN3)
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(backends.__file__).parents[1])
    runs = {}
    for threads in (None, "1"):
        run_env = env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads)
        for workers in ("1", "2"):
            out = tmp_path / f"t{threads}-w{workers}"
            subprocess.run([sys.executable, "-m", "fluxgate.cli", "shift-scan", "--config",
                            cfg, "--out", str(out), "--workers", workers], env=run_env,
                           check=True, capture_output=True)
            run_dir = only_run_dir(out, "shift-scan")
            runs[threads, workers] = (run_dir / "result.csv").read_bytes()
            assert run_json(run_dir)["blas_threads"] == 1
    assert len(set(runs.values())) == 1


def test_chevron_domain_failure_sets_exit_code(tmp_path, capsys):
    bad = CHEVRON_TINY.replace("flux_s = 0.35", "flux_s = 0.46").replace(
        "drive_amp = 0.03", "drive_amp = 0.07"
    )
    cfg = write_cfg(tmp_path, bad)
    out = tmp_path / "o"
    assert main(["chevron", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "point failed" in err

    run_dir = only_run_dir(out, "chevron")
    meta = run_json(run_dir)
    assert len(meta["failures"]) == 2
    body = (run_dir / "result.csv").read_text().splitlines()[1:]
    assert all("nan" in line for line in body)


def test_shift_scan_domain_failure_sets_exit_code(tmp_path, capsys):
    # The last grid point lies beyond the coupler's flux range: a failed
    # point, not an ambiguous labelling.
    cfg = write_cfg(tmp_path, "[shift_scan]\nflux_min = 0.0\nflux_max = 0.7\npoints = 3\n")
    out = tmp_path / "o"
    assert main(["shift-scan", "--config", cfg, "--out", str(out)]) == 1
    assert "point failed: 0.7" in capsys.readouterr().err

    run_dir = only_run_dir(out, "shift-scan")
    failures = run_json(run_dir)["failures"]
    assert [f["point"] for f in failures] == ["0.7"]
    body = (run_dir / "result.csv").read_text().splitlines()[1:]
    assert [line.endswith(",0") for line in body] == [True, True, False]
    assert body[2].startswith("0.7,nan,nan,nan,")


def test_shift_scan_fails_each_point_of_a_non_finite_hamiltonian(tmp_path, capsys):
    # j_c0 = 1e308 overflows the coupling operator B: every point fails
    # with its message, rather than reading as an ambiguous labelling.
    cfg = write_cfg(tmp_path, SCAN3)
    Path(cfg).write_text(Path(cfg).read_text().replace("j_c0 = 0.5", "j_c0 = 1e308"))
    assert main(["shift-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"point failed: {flux}: operator B has non-finite entries"
                                for flux in ("0", "0.1", "0.2")]


def test_chevron_resume_and_recompute(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CHEVRON_TINY)
    out = tmp_path / "o"
    assert main(["chevron", "--config", cfg, "--out", str(out)]) == 0
    assert "deepest 101 depletion" in capsys.readouterr().out
    run_dir = only_run_dir(out, "chevron")
    first = (run_dir / "result.csv").read_text()
    assert not (run_dir / "progress.jsonl").exists()

    # A checkpointed point is trusted under --resume and recomputed without.
    fake = {k: [0.5, 0.5, 0.5] for k in ("000", "001", "100", "101", "202",
                                         "computational")}
    entry = {"key": "10.78", "value": fake, "code": cli.code_digest()}
    (run_dir / "progress.jsonl").write_text(json.dumps(entry) + "\n")
    assert main(["chevron", "--config", cfg, "--out", str(out), "--resume"]) == 0
    resumed = (run_dir / "result.csv").read_text()
    assert resumed != first
    assert "10.78,0,0.5" in resumed or "10.78,0.0,0.5" in resumed

    assert main(["chevron", "--config", cfg, "--out", str(out)]) == 0
    assert (run_dir / "result.csv").read_text() == first


def test_amplitude_isolates_failures(tmp_path, capsys):
    # delta_Phi 0.20 at flux 0.35 leaves the positive-E_J domain; the
    # 0.03 cell must still be computed.
    cfg = write_cfg(
        tmp_path,
        "[output]\ndt = 0.002\n\n[amplitude]\nflux_s = 0.35\nfixed_time = 30.0\n"
        "freq_min = 10.79\nfreq_max = 10.79\nfreq_points = 1\n"
        "amp_min = 0.03\namp_max = 0.20\namp_points = 2\n",
    )
    out = tmp_path / "o"
    assert main(["amplitude", "--config", cfg, "--out", str(out)]) == 1
    assert "point failed: 10.79|0.2" in capsys.readouterr().err

    run_dir = only_run_dir(out, "amplitude")
    assert [f["point"] for f in run_json(run_dir)["failures"]] == ["10.79|0.2"]
    body = (run_dir / "result.csv").read_text().splitlines()
    assert body[0] == "freq,amp,p101"
    assert body[1].startswith("10.79,0.03,") and not body[1].endswith(",nan")
    assert body[2] == "10.79,0.2,nan"


def test_amplitude_resume_recomputes_checkpoints_of_another_build(tmp_path, caplog):
    # A cell checkpointed by other sources, whether tagged with their
    # code digest or with the checkpoint format that preceded it, is
    # recomputed, and the result matches a clean run.
    cfg = write_cfg(tmp_path, AMPLITUDE_ONE)
    out = tmp_path / "o"
    assert main(["amplitude", "--config", cfg, "--out", str(out)]) == 0
    run_dir = only_run_dir(out, "amplitude")
    fresh = (run_dir / "result.csv").read_bytes()
    for stale in ({"key": "10.79|0.03", "value": 0.5, "code": "0" * 64},
                  {"key": "10.79|0.03", "value": 0.5, "format": 4}):
        (run_dir / "progress.jsonl").write_text(json.dumps(stale) + "\n")
        caplog.clear()
        with caplog.at_level("INFO", logger="fluxgate.cli"):
            assert main(["amplitude", "--config", cfg, "--out", str(out), "--resume"]) == 0
        assert "recomputing 1 checkpointed point(s) computed by another build" in caplog.text
        assert (run_dir / "result.csv").read_bytes() == fresh


def test_resume_says_on_stderr_that_it_recomputes(tmp_path, capsys):
    # The package logger's handler is attached once however often main
    # runs in a process, so the line is printed once.
    cfg = write_cfg(tmp_path, SCAN3)
    out = tmp_path / "o"
    assert main(["shift-scan", "--config", cfg, "--out", str(out)]) == 0
    run_dir = only_run_dir(out, "shift-scan")
    stale = {"key": "0", "value": [0.0, 0.0, 0.0, False], "code": "0" * 64}
    for _ in range(2):
        (run_dir / "progress.jsonl").write_text(json.dumps(stale) + "\n")
        capsys.readouterr()
        assert main(["shift-scan", "--config", cfg, "--out", str(out), "--resume"]) == 0
        err = capsys.readouterr().err
        assert err == "recomputing 1 checkpointed point(s) computed by another build\n"


def test_coarse_dt_is_a_failure_not_a_crash(tmp_path, capsys):
    # 50 ps resolves neither the drive nor one Floquet period. The gate's
    # drive frequency is found at run time, so the run fails, not the
    # load (a scan's frequencies are checked at load, and so are a gate's
    # when it sets freq_max). The seed's scan refuses the top of its
    # window before it steps any point.
    cfg = write_cfg(tmp_path, "[output]\ndt = 0.05\n\n[gate]\nflux_idle = 0.35\ngate_time = 30.0\n")
    out = tmp_path / "o"
    assert main(["gate-opt", "--config", cfg, "--out", str(out)]) == 1
    gate_message = "dt = 0.05 ns does not resolve the drive: need dt <= 3.56e-03 ns"
    assert f"point failed: 30|5: {gate_message}" in capsys.readouterr().err
    # The run directory is not left empty: its sidecar records the error.
    meta = run_json(only_run_dir(out, "gate-opt"))
    assert meta["failures"] == [
        {"point": "30|5", "message": gate_message}
    ]
    assert meta["outputs"] == []


def test_floquet_failures_of_both_kinds_in_job_order(tmp_path, capsys, monkeypatch):
    # 0.1 is not found in the narrow window; 0.6 leaves the positive-E_J
    # domain and raises.
    cfg = write_cfg(
        tmp_path,
        "[output]\ndt = 0.002\n\n[floquet]\nflux_s = 0.35\namp_values = 0.1, 0.6\n"
        "window = 0.001\nresolution = 5\n",
    )
    out = tmp_path / "o"
    assert main(["floquet", "--config", cfg, "--out", str(out)]) == 1
    run_dir = only_run_dir(out, "floquet")
    failures = run_json(run_dir)["failures"]
    assert [f["point"] for f in failures] == ["0.1", "0.6"]
    assert failures[0]["message"] == "transition not found in the scan window"
    assert "positive-E_J" in failures[1]["message"]
    body = (run_dir / "result.csv").read_text()

    # Under --resume the not-found point comes back from its checkpoint,
    # only the raised one is recomputed, and both are listed as before.
    computed = []
    point = cli._floquet_point

    def recorded(params, flux_s, amp, *args):
        computed.append(amp)
        return point(params, flux_s, amp, *args)

    monkeypatch.setattr(cli, "_floquet_point", recorded)
    assert main(["floquet", "--config", cfg, "--out", str(out), "--resume"]) == 1
    assert computed == [0.6]
    assert run_json(run_dir)["failures"] == failures
    assert (run_dir / "result.csv").read_text() == body
    capsys.readouterr()


def test_floquet_not_found_is_a_failure(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[output]\ndt = 0.002\n\n[floquet]\nflux_s = 0.35\namp_values = 0.1\n"
        "window = 0.001\nresolution = 5\n",
    )
    out = tmp_path / "o"
    assert main(["floquet", "--config", cfg, "--out", str(out)]) == 1
    assert "not found" in capsys.readouterr().err

    run_dir = only_run_dir(out, "floquet")
    body = (run_dir / "result.csv").read_text().splitlines()
    assert body[0] == "amp,omega_res,strength,found"
    assert body[1].endswith(",0")


def test_floquet_pair_of_one_state_writes_nothing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[floquet]\nflux_s = 0.35\namp_values = 0.03\npair = 101:101\n")
    out = tmp_path / "o"
    assert main(["floquet", "--config", cfg, "--out", str(out)]) == 2
    assert "two different states" in capsys.readouterr().err
    assert not out.exists()


def test_floquet_pair_of_opposite_parities_is_refused_at_load(tmp_path, capsys):
    # |101> is even and |102> odd: the drive does not couple them, so the
    # pair is refused at load, before any point runs.
    cfg = write_cfg(
        tmp_path,
        "[output]\ndt = 0.002\n\n[floquet]\nflux_s = 0.35\namp_values = 0.06\n"
        "pair = 101:102\nresolution = 5\n",
    )
    out = tmp_path / "o"
    assert main(["floquet", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "floquet.pair" in err and "parity sectors" in err
    assert not out.exists()


def test_floquet_pair_in_either_order_scans_one_resonance(tmp_path, capsys):
    # The window is centred on |split|: 202:101 scans the resonance that
    # 101:202 does, instead of a window below 0 GHz.
    rows = {}
    for pair in ("101:202", "202:101"):
        cfg = write_cfg(
            tmp_path,
            "[output]\ndt = 0.002\n\n[floquet]\nflux_s = 0.35\namp_values = 0.03\n"
            f"pair = {pair}\nresolution = 5\n",
            name=f"{pair.replace(':', '-')}.cfg",
        )
        out = tmp_path / pair.replace(":", "-")
        assert main(["floquet", "--config", cfg, "--out", str(out)]) == 0
        run_dir = only_run_dir(out, "floquet")
        assert run_json(run_dir)["failures"] == []
        rows[pair] = (run_dir / "result.csv").read_text().splitlines()
    assert rows["101:202"] == rows["202:101"]
    assert rows["101:202"][1].endswith(",1")
    capsys.readouterr()


def test_floquet_window_past_zero_fails_its_point(tmp_path, capsys):
    # A window wider than the split would reach below 0 GHz: the point
    # fails and is listed, instead of crashing the run.
    cfg = write_cfg(
        tmp_path,
        "[output]\ndt = 0.002\n\n"
        "[floquet]\nflux_s = 0.35\namp_values = 0.03\nwindow = 11.0\nresolution = 5\n",
    )
    out = tmp_path / "o"
    assert main(["floquet", "--config", cfg, "--out", str(out)]) == 1
    run_dir = only_run_dir(out, "floquet")
    failures = run_json(run_dir)["failures"]
    assert [f["point"] for f in failures] == ["0.03"]
    assert "0 GHz" in failures[0]["message"]
    assert (run_dir / "result.csv").read_text().splitlines()[1] == "0.03,nan,nan,0"
    capsys.readouterr()


def test_gate_opt_stagnation_report(tmp_path, capsys):
    # Search window pinned 100 MHz above the resonance: the conditional
    # phase cannot reach pi, so the calibration must report stagnation.
    cfg = write_cfg(
        tmp_path,
        "[output]\ndt = 0.002\n\n[gate]\nflux_idle = 0.35\n"
        "gate_time = 30.0\nrestarts = 1\nbudget = 10\n"
        "freq_min = 10.90\nfreq_max = 10.95\namp_min = 0.01\namp_max = 0.05\n",
    )
    out = tmp_path / "o"
    code = main(["gate-opt", "--config", cfg, "--out", str(out)])
    assert code == 1
    text = capsys.readouterr()
    assert "optimum:" in text.out
    assert "stagnated" in text.err

    run_dir = only_run_dir(out, "gate-opt")
    report = json.loads((run_dir / "report.json").read_text())
    assert report["schema"] == "fluxgate.gate_opt/1"
    assert report["success"] is False
    assert report["n_evaluations"] >= 10
    # The optimiser trace: one line per evaluation, starting at the seed.
    assert run_json(run_dir)["outputs"] == ["report.json", "trace.jsonl"]
    trace = [json.loads(line) for line in (run_dir / "trace.jsonl").read_text().splitlines()]
    assert len(trace) == report["n_evaluations"]
    assert set(trace[0]) == {
        "omega_p", "drive_amp", "objective", "leakage", "conditional_phase",
    }
    assert [trace[0]["omega_p"], trace[0]["drive_amp"]] == [
        report["seed"]["omega_p"], report["seed"]["drive_amp"],
    ]
    m = report["metrics"]
    phase_error = gates.phase_distance(m["conditional_phase"], math.pi)
    objective = m["leakage"] + phase_error**2 / math.pi**2
    assert abs(report["objective"] - objective) <= 1e-15
    assert report["objective"] > gates.STAGNATION_LIMIT


def test_gate_opt_resume_reuses_a_stagnated_calibration(tmp_path, monkeypatch):
    # A stagnated calibration is a finished point: --resume writes its
    # report and trace again from the checkpoint, without calibrating, and
    # lists the same failure.
    cfg = write_cfg(tmp_path, STAGNATES)
    out = tmp_path / "o"
    assert main(["gate-opt", "--config", cfg, "--out", str(out)]) == 1
    run_dir = only_run_dir(out, "gate-opt")
    names = ("report.json", "trace.jsonl")
    written = {name: (run_dir / name).read_bytes() for name in names}
    failures = run_json(run_dir)["failures"]
    assert failures == [{"point": "30|5", "message": cli.STAGNATED}]

    def calibrate(*args, **kwargs):
        raise AssertionError("the checkpointed calibration ran again")

    monkeypatch.setattr(gates, "optimize_cz", calibrate)
    for name in names:
        (run_dir / name).unlink()
    assert main(["gate-opt", "--config", cfg, "--out", str(out), "--resume"]) == 1
    assert {name: (run_dir / name).read_bytes() for name in names} == written
    assert run_json(run_dir)["failures"] == failures


def test_gate_sweep_rows(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "[output]\ndt = 0.002\n\n[gate]\nflux_idle = 0.35\n"
        "gate_time = 30.0\nrestarts = 1\nbudget = 10\n"
        "freq_min = 10.90\nfreq_max = 10.95\namp_min = 0.01\namp_max = 0.05\n\n"
        "[gate_sweep]\ngate_times = 12.0, 30.0\ndrive_ramps = 5.0\n",
    )
    out = tmp_path / "o"
    assert main(["gate-sweep", "--config", cfg, "--out", str(out)]) == 1
    run_dir = only_run_dir(out, "gate-sweep")
    body = (run_dir / "result.csv").read_text().splitlines()
    assert body[0] == "gate_time,drive_ramp,error,leakage,omega_p,drive_amp,success"
    assert len(body) == 2  # 12 ns fails the ramp precondition and is dropped
    assert body[1].startswith("30,5,")
    assert body[1].endswith(",0")
    meta = run_json(run_dir)
    assert meta["failures"][0]["point"] == "30|5"


SWEEP = (
    "[gate]\nflux_idle = 0.35\ngate_time = 30.0\n\n"
    "[gate_sweep]\ngate_times = 30.0, 40.0\ndrive_ramps = 5.0\n"
)


def calibrated(error, leakage, success):
    """A stand-in for the result of ``gates.optimize_cz``: the parts of its
    report a gate-sweep row reads, and a one-record trace."""
    report = {"metrics": {"error": error, "leakage": leakage},
              "optimum": {"omega_p": 10.8, "drive_amp": 0.05}, "success": success}
    return SimpleNamespace(report=lambda: report, trace=({"objective": error},))


def test_gate_sweep_checkpoints_only_finished_cells(tmp_path, monkeypatch):
    # A cell whose calibration raised is a failed point and is retried on
    # --resume; a stagnated calibration is finished and is checkpointed.
    calls = []

    def calibrate(params, cfg, gate_time=None, dt=0.001, final_dt=None, **kwargs):
        calls.append(cfg.gate_time)
        if cfg.gate_time == 30.0:
            raise IntegrationError("norm drifted")
        return calibrated(0.5, 0.25, False)

    monkeypatch.setattr(gates, "optimize_cz", calibrate)
    cfg = write_cfg(tmp_path, SWEEP)
    out = tmp_path / "o"
    assert main(["gate-sweep", "--config", cfg, "--out", str(out)]) == 1
    run_dir = only_run_dir(out, "gate-sweep")
    assert run_json(run_dir)["failures"] == [
        {"point": "30|5", "message": "norm drifted"},
        {"point": "40|5", "message": "optimizer stagnated above the objective limit"},
    ]
    body = (run_dir / "result.csv").read_text().splitlines()[1:]
    assert body == ["30,5,nan,nan,nan,nan,0", "40,5,0.5,0.25,10.8,0.05,0"]
    lines = (run_dir / "progress.jsonl").read_text().splitlines()
    assert [json.loads(line)["key"] for line in lines] == ["40|5"]
    failures = run_json(run_dir)["failures"]

    # The stagnated cell comes back from its checkpoint and is still
    # listed after the retried one, in job order.
    assert main(["gate-sweep", "--config", cfg, "--out", str(out), "--resume"]) == 1
    assert calls == [30.0, 40.0, 30.0]
    assert (run_dir / "result.csv").read_text().splitlines()[1:] == body
    assert run_json(run_dir)["failures"] == failures


def test_gate_sweep_resume_recomputes_an_old_format_checkpoint(tmp_path, monkeypatch, caplog):
    # A line without a code predates the tag: here a gate-sweep value of
    # six elements, the last the message, which no longer unpacks. It is
    # recomputed; a line of this build is reused.
    calls = []

    def calibrate(params, cfg, gate_time=None, dt=0.001, final_dt=None, **kwargs):
        calls.append(cfg.gate_time)
        return calibrated(cfg.gate_time * 1e-6, 1e-6, True)

    monkeypatch.setattr(gates, "optimize_cz", calibrate)
    cfg = write_cfg(tmp_path, SWEEP)
    fresh, resumed = tmp_path / "fresh", tmp_path / "resumed"
    assert main(["gate-sweep", "--config", cfg, "--out", str(fresh)]) == 0
    assert main(["gate-sweep", "--config", cfg, "--out", str(resumed)]) == 0
    run_dir = only_run_dir(resumed, "gate-sweep")
    old = {"key": "30|5", "value": [0.5, 0.25, 10.7, 0.04, False, "stale"]}
    cell = calibrated(40.0 * 1e-6, 1e-6, True)
    live = {"key": "40|5", "value": {"report": cell.report(), "trace": list(cell.trace)},
            "code": cli.code_digest()}
    (run_dir / "progress.jsonl").write_text(json.dumps(old) + "\n" + json.dumps(live) + "\n")
    calls.clear()
    with caplog.at_level("INFO", logger="fluxgate.cli"):
        assert main(["gate-sweep", "--config", cfg, "--out", str(resumed), "--resume"]) == 0
    assert calls == [30.0]
    assert "recomputing 1 checkpointed point(s)" in caplog.text
    for name in ("result.csv", "reports.jsonl"):
        expected = (only_run_dir(fresh, "gate-sweep") / name).read_bytes()
        assert (run_dir / name).read_bytes() == expected, name


def test_gate_sweep_records_a_raised_cell(tmp_path):
    # At flux 0 the seed finds no |101> <-> |202> resonance, so the
    # calibration cannot run; the cell is a failed row.
    cfg = write_cfg(
        tmp_path,
        "[output]\ndt = 0.002\n\n[gate]\nflux_idle = 0.0\n"
        "gate_time = 65.0\nrestarts = 1\nbudget = 10\n\n"
        "[gate_sweep]\ngate_times = 65.0\ndrive_ramps = 5.0\n",
    )
    out = tmp_path / "o"
    assert main(["gate-sweep", "--config", cfg, "--out", str(out)]) == 1
    run_dir = only_run_dir(out, "gate-sweep")
    failures = run_json(run_dir)["failures"]
    assert [f["point"] for f in failures] == ["65|5"]
    assert "could not locate" in failures[0]["message"]
    body = (run_dir / "result.csv").read_text().splitlines()[1:]
    assert body == ["65,5,nan,nan,nan,nan,0"]
    assert not (run_dir / "progress.jsonl").exists()


def test_gate_sweep_without_a_long_enough_gate_writes_nothing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWEEP.replace("30.0, 40.0", "12.0"))
    out = tmp_path / "o"
    assert main(["gate-sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "no gate length satisfies" in capsys.readouterr().err
    assert not out.exists()


def test_gate_commands_score_at_the_same_step(tmp_path, monkeypatch):
    # gate-opt and gate-sweep must calibrate one gate identically: both
    # seed and score at dt = 0.5 ps and search at gates.search_dt(dt), 1 ps.
    seen = []

    def seed(params, cfg, dt):
        seen.append(("seed", dt))
        return 10.8, 0.05

    def search(params, cfg, omega_p, drive_amp, dt):
        seen.append(("search", dt))
        return gates.gate_metrics(gates.CZ_TARGET)

    def score(params, pulse, ramp, dt):
        seen.append(("score", dt))
        raise IntegrationError("stop after recording the steps")

    monkeypatch.setattr(gates, "_seed_from_floquet", seed)
    monkeypatch.setattr(gates, "evaluate_gate", search)
    monkeypatch.setattr(gates, "propagate_computational_unitary", score)
    cfg = write_cfg(
        tmp_path,
        "[output]\ndt = 0.0005\n\n"
        "[gate]\nflux_idle = 0.35\ngate_time = 30.0\nrestarts = 1\nbudget = 10\n\n"
        "[gate_sweep]\ngate_times = 30.0\ndrive_ramps = 5.0\n",
    )
    steps = [("seed", 0.0005)] + [("search", 0.001)] * 10 + [("score", 0.0005)]
    for command in ("gate-opt", "gate-sweep"):
        seen.clear()
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert seen == steps, command


def test_gate_opt_is_the_one_cell_gate_sweep(cfg500_path, tmp_path):
    # Both gate commands calibrate one gate identically, on a one-cell
    # (65 ns, 5 ns ramp), restarts = 1, budget = 10 cut of set500: each
    # exits 0, the sweep's report line holds gate-opt's report.json and
    # trace.jsonl, and its row holds gate-opt's optimum to the 12
    # significant digits a CSV cell carries.
    text = Path(cfg500_path).read_text()
    for key, value in (("restarts", 1), ("budget", 10), ("gate_times", 65), ("drive_ramps", 5)):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    cfg = tmp_path / "gate.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    for command in ("gate-opt", "gate-sweep"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, command
    opt, sweep = only_run_dir(out, "gate-opt"), only_run_dir(out, "gate-sweep")
    report = json.loads((opt / "report.json").read_text())
    trace = [json.loads(line) for line in (opt / "trace.jsonl").read_text().splitlines()]
    (line,) = (sweep / "reports.jsonl").read_text().splitlines()
    assert json.loads(line) == {"gate_time": 65.0, "drive_ramp": 5.0, "report": report,
                                "trace": trace}
    header, row = (r.split(",") for r in (sweep / "result.csv").read_text().splitlines())
    row = dict(zip(header, row))
    for key in ("omega_p", "drive_amp"):
        assert row[key] == format(report["optimum"][key], ".12g"), key


@pytest.mark.parametrize("command", ["gate-opt", "gate-sweep"])
def test_gate_run_id_hashes_restarts_and_budget(tmp_path, monkeypatch, command):
    # Runs calibrated with another search effort must not share a run
    # directory, nor a gate-sweep --resume reuse their cells.
    def stop(params, cfg, gate_time=None, dt=0.001, final_dt=None, **kwargs):
        raise IntegrationError("stop before calibrating")

    monkeypatch.setattr(gates, "optimize_cz", stop)
    gate = (
        "[gate]\nflux_idle = 0.35\ngate_time = 30.0\n{}\n\n"
        "[gate_sweep]\ngate_times = 30.0\ndrive_ramps = 5.0\n"
    )
    out = tmp_path / "o"
    for i, setting in enumerate(["", "budget = 10", "restarts = 1"]):
        cfg = write_cfg(tmp_path, gate.format(setting), name=f"run{i}.cfg")
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert len([p for p in out.iterdir() if p.name.startswith(command + "-")]) == 3


def test_spectrum_run_id_hashes_the_coupler_flux(tmp_path):
    # The coupler rows are written at RunConfig.spectrum_flux, so two
    # configs that differ only in that flux must not share a run directory.
    text = (resources.files("fluxgate.data") / "set500.cfg").read_text()
    assert text.count("interaction_flux = 0.35") == 1
    out = tmp_path / "o"
    for flux in ("0.35", "0.30"):
        cfg = tmp_path / f"flux{flux}.cfg"
        cfg.write_text(text.replace("interaction_flux = 0.35", f"interaction_flux = {flux}"))
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    fluxes = []
    for run in out.iterdir():
        rows = (run / "result.csv").read_text().splitlines()
        fluxes.append(sorted({row.split(",")[1].split("@")[1] for row in rows if "@" in row}))
    assert sorted(fluxes) == [["0", "0.3"], ["0", "0.35"]]


def test_spectrum_runs_regenerate_the_committed_ones(tmp_path):
    # The committed runs pin both the run id (the hash of the inputs) and
    # every byte of the result: the single-circuit spectra, through
    # shift-scan the composite Hamiltonian and its labelled eigensolve,
    # through chevron the snapshots' flanks and powered whole periods,
    # and through floquet the monodromy and its quasienergies.
    committed = Path(__file__).resolve().parent.parent / "runs"
    data = resources.files("fluxgate.data")
    for command, name, run in [("spectrum", "set500.cfg", "spectrum-9cbfb497548a"),
                               ("spectrum", "set300.cfg", "spectrum-9b8d11e681eb"),
                               ("shift-scan", "set500.cfg", "shift-scan-0d11309f3db1"),
                               ("shift-scan", "set300.cfg", "shift-scan-a2a5c8ad3782"),
                               ("chevron", "set500.cfg", "chevron-57ef47394370"),
                               ("floquet", "set500.cfg", "floquet-a8f628aea985"),
                               ("floquet", "set300.cfg", "floquet-11a6402797fe")]:
        out = tmp_path / command / name
        assert main([command, "--config", str(data / name), "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == [run]
        fresh = (out / run / "result.csv").read_bytes()
        assert fresh == (committed / run / "result.csv").read_bytes()


@pytest.mark.parametrize("command, section, old, new", [
    pytest.param("chevron", "chevron", "ramp_time = 5.0", "ramp_time = 200.0", id="chevron"),
    pytest.param("amplitude", "amplitude", "ramp_time = 5.0", "ramp_time = 60.0", id="amplitude"),
    pytest.param("gate-opt", "gate", "gate_time = 65.0",
                 "gate_time = 65.0\nfreq_min = 10.9\nfreq_max = 10.7", id="gate-opt"),
    pytest.param("gate-opt", "gate", "gate_time = 65.0",
                 "gate_time = 65.0\nfreq_min = 30.0\nfreq_max = 40.0", id="gate-opt-search-dt"),
    pytest.param("gate-opt", "gate", "gate_time = 65.0",
                 "gate_time = 65.0\namp_min = 0.14\namp_max = 0.4", id="gate-opt-amp-cap"),
    pytest.param("gate-opt", "gate", "flux_interaction = 0.35", "flux_interaction = 0.485",
                 id="gate-opt-seed-probe-cap"),
    pytest.param("chevron", "chevron", "psi0 = 101", "psi0 = 909", id="chevron-psi0"),
    pytest.param("floquet", "floquet", "resolution = 41",
                 "resolution = 41\npair = 101:909", id="floquet-pair"),
    pytest.param("chevron", "output", "dt = 0.0005", "dt = 0.003", id="chevron-dt"),
    pytest.param("chevron", "chevron", "time_max = 220.0", "time_max = 1e308",
                 id="chevron-time_max-steps"),
    pytest.param("chevron", "output", "dt = 0.0005", "dt = 1e-300", id="chevron-dt-steps"),
    pytest.param("amplitude", "amplitude", "fixed_time = 100.0", "fixed_time = 1e308",
                 id="amplitude-fixed_time-steps"),
    pytest.param("gate-opt", "gate", "gate_time = 65.0", "gate_time = 1e308",
                 id="gate-opt-gate_time-steps"),
    pytest.param("shift-scan", "truncation", "fluxonium_levels = 5",
                 "fluxonium_levels = 100000", id="shift-scan-fluxonium_levels"),
    pytest.param("shift-scan", "truncation", "coupler_levels = 6",
                 "coupler_levels = 100000", id="shift-scan-coupler_levels"),
])
def test_settings_a_command_cannot_run_fail_at_load(
    cfg500_path, tmp_path, capsys, command, section, old, new
):
    # Drive ramps longer than half the window, reversed search bounds, an
    # amplitude box above the cap (0.149 at flux 0.35), a drive flux whose
    # cap (0.014 at flux 0.485) is below the seed's 0.02 probe, state labels
    # beyond a circuit's levels (set500 keeps 5 fluxonium and 6 coupler
    # levels), a dt that takes under 40 steps per period of a scan's
    # highest drive frequency (10.88 GHz) or, at the 1 ps search step, of
    # a gate's freq_max, a schedule of more than 2**52 steps at dt, more
    # fluxonium levels than a quarter of the basis that solves them, and
    # more coupler levels than a dense solve per flux point is allowed (a
    # 100000-level coupler would ask for a 74.5 GiB array) are
    # configuration errors: exit 2 with one line before any run directory
    # exists, in well under the 5 s allowed.
    text = Path(cfg500_path).read_text()
    start = text.index(f"[{section}]")
    end = text.find("\n[", start)
    edited = text[:start] + text[start:end].replace(old, new) + text[end:]
    assert edited != text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(edited)
    out = tmp_path / "o"
    began = time.monotonic()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert time.monotonic() - began < 5.0
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1
    assert not out.exists()


def test_out_is_the_one_output_root(tmp_path, monkeypatch, capsys):
    # Without --out a run lands in ./runs of the working directory; no
    # environment variable moves it.
    cfg = write_cfg(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FLUXGATE_OUTPUT_ROOT", str(tmp_path / "from_env"))
    assert main(["spectrum", "--config", cfg]) == 0
    default = only_run_dir(tmp_path / "runs", "spectrum")

    flag_root = tmp_path / "from_flag"
    assert main(["spectrum", "--config", cfg, "--out", str(flag_root)]) == 0
    assert only_run_dir(flag_root, "spectrum").name == default.name
    assert not (tmp_path / "from_env").exists()
    capsys.readouterr()


def test_dt_is_set_only_in_the_config(tmp_path, capsys):
    # [output] dt, in ns, is the one source of the step: a --dt flag is a
    # usage error that writes nothing.
    cfg = write_cfg(tmp_path, SCAN3)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        main(["shift-scan", "--config", cfg, "--out", str(out), "--dt", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --dt" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("values", ["4.0, 5.0, 6.0", "4.0, 5.0, 6.0, 7.0, 8.0"],
                         ids=["3-values", "5-values"])
def test_reference_lists_hold_one_value_per_ladder_transition(tmp_path, capsys, values):
    # The spectrum compares each list against the ladder 0-1, 1-2, 0-3,
    # 1-4: another length would be truncated, so it fails at load.
    cfg = write_cfg(tmp_path, f"[reference]\nq0_transitions = {values}\n")
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert "configuration error: reference.q0_transitions: " in capsys.readouterr().err
    assert not out.exists()


def test_config_errors_leave_no_output(tmp_path, capsys):
    out = tmp_path / "o"
    missing = str(tmp_path / "absent.cfg")
    assert main(["spectrum", "--config", missing, "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()

    cfg = write_cfg(tmp_path, "[vortex]\nx = 1\n")
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()

    good = write_cfg(tmp_path, name="good.cfg")
    assert main(["spectrum", "--config", good, "--out", str(out), "--workers", "0"]) == 2
    assert not out.exists()
    capsys.readouterr()


def test_out_naming_a_file_is_a_configuration_error(tmp_path, capsys):
    # The run directory cannot go under a file: one line, exit 2, and
    # nothing written beside the file.
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    cfg = write_cfg(tmp_path)
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --out: ") and err.count("\n") == 1
    assert out.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "taken"]


@pytest.mark.parametrize("old, new, field", [
    pytest.param("j_01 = 0.035", "j_01 = nan", "couplings.j_01", id="j_01-nan"),
    pytest.param("e_j = 4.75", "e_j = nan", "qubit0.e_j", id="e_j-nan"),
    pytest.param(SCAN3, SCAN3 + "\n[output]\ndt = inf\n", "output.dt", id="dt-inf"),
])
def test_non_finite_numbers_are_configuration_errors(tmp_path, capsys, old, new, field):
    # Non-finite inputs fail at load: a NaN coupling would otherwise fill
    # every row with nan and exit 0.
    cfg = tmp_path / "run.cfg"
    cfg.write_text((BASE + SCAN3).replace(old, new, 1))
    out = tmp_path / "o"
    assert main(["shift-scan", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"configuration error: {field}: " in capsys.readouterr().err
    assert not out.exists()
