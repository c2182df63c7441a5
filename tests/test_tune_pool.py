"""tune's candidates and run_experiment's runs on forked worker processes:
the pooled result equals the serial one byte for byte, the access audit sums
every worker's reads, a worker's error reaches the caller, each worker runs
BLAS on one thread, and no worker outlives the call. The pool is forced by
patching the usable-CPU count, so these tests run on a 1-CPU machine too."""

import ctypes
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seqcl import harness
from seqcl.errors import SeqclError
from seqcl.training import run_single

from test_harness import base_config, small_profile

SRC = Path(__file__).resolve().parents[1] / "src"

ARCHITECTURES = {
    "mlp": {"kind": "mlp", "n_layers": 1, "hidden_dim": 8},
    "lstm": {"kind": "lstm", "n_layers": 1, "hidden_dim": 6},
    "cnn1d": {"kind": "cnn1d", "n_layers": 1, "hidden_dim": 6, "kernel_size": 3},
}
BILSTM = {"kind": "lstm", "n_layers": 1, "hidden_dim": 4, "bidirectional": True}

# more candidates than the two forced workers, strategy keys included
GRIDS = {
    "naive": {"learning_rate": [0.05, 0.1, 0.2]},
    "replay": {"learning_rate": [0.05, 0.1], "patterns_per_exp": [4, 16]},
    "ewc": {"ewc_lambda": [0.0, 1.0, 10.0]},
    "gem": {"memory_strength": [0.0, 0.5, 1.0]},
}


@pytest.fixture(scope="module")
def profile_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "profile.json"
    path.write_text(json.dumps(small_profile()))
    return path


def _config(profile_path, tmp_path, **overrides):
    return harness.config_from_dict(base_config(profile_path, tmp_path, **overrides))


def _cpus(monkeypatch, n):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: n)


@pytest.mark.parametrize("strategy", sorted(GRIDS))
@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_pooled_tune_equals_serial_tune(profile_path, tmp_path, monkeypatch, arch, strategy):
    config = _config(profile_path, tmp_path, strategy=strategy, grid=GRIDS[strategy],
                     architecture=ARCHITECTURES[arch])
    partitions = harness.load_partitions(config)
    _cpus(monkeypatch, 1)
    serial = harness.tune(config, partitions=partitions)
    _cpus(monkeypatch, 2)
    pooled = harness.tune(config, partitions=partitions)
    assert pooled == serial  # candidate order and scores, audit and fingerprint
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("strategy", ["si", "gem"])
@pytest.mark.parametrize("arch", sorted({**ARCHITECTURES, "bilstm": BILSTM}))
def test_pooled_runs_write_the_serial_bytes(profile_path, tmp_path, monkeypatch, arch, strategy):
    architecture = {**ARCHITECTURES, "bilstm": BILSTM}[arch]
    written, returned = {}, {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        config = _config(profile_path, out, strategy=strategy, architecture=architecture,
                         n_runs=3, epochs_per_task=1)
        returned[cpus] = harness.run_experiment(config)
        written[cpus] = {path.name: path.read_bytes() for path in sorted(out.glob("run_*"))}
        assert multiprocessing.active_children() == []
    assert list(written[1]) == ["run_00.jsonl", "run_01.jsonl", "run_02.jsonl"]
    assert written[2] == written[1]  # headers included: the worker count is not in them
    for serial, pooled in zip(returned[1], returned[2]):
        assert pooled.run_idx == serial.run_idx
        assert pooled.records == serial.records
        assert pooled.final_params.tobytes() == serial.final_params.tobytes()


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "pooled"])
def test_a_read_beyond_the_first_two_tasks_fails_the_audit(
    profile_path, tmp_path, monkeypatch, cpus
):
    def peeking(build_model_fn, stream, *args, **kwargs):
        stream.get(2, "test")
        return run_single(build_model_fn, stream, *args, **kwargs)

    # patched before tune, so fork carries it into the workers
    monkeypatch.setattr(harness, "run_single", peeking)
    _cpus(monkeypatch, cpus)
    config = _config(profile_path, tmp_path, grid={"learning_rate": [0.05, 0.1, 0.2]})
    with pytest.raises(SeqclError, match="tuning touched 3 partitions"):
        harness.tune(config)
    assert multiprocessing.active_children() == []


def test_a_failed_candidate_raises_its_own_error_and_leaves_no_worker(
    profile_path, tmp_path, monkeypatch
):
    def failing(build_model_fn, stream, strategy, class_weights, settings, **kwargs):
        if settings.learning_rate == 0.1:
            raise SeqclError(f"planted failure in pid {os.getpid()}")
        return run_single(build_model_fn, stream, strategy, class_weights, settings, **kwargs)

    monkeypatch.setattr(harness, "run_single", failing)
    _cpus(monkeypatch, 2)
    config = _config(profile_path, tmp_path, grid={"learning_rate": [0.05, 0.1, 0.2]})
    with pytest.raises(SeqclError, match="planted failure") as caught:
        harness.tune(config)
    assert f"pid {os.getpid()}" not in str(caught.value)  # it came from a worker
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus,grid", [
    (1, {"learning_rate": [0.05, 0.1, 0.2]}),
    (2, {"learning_rate": [0.05]}),
], ids=["one-cpu", "one-candidate"])
def test_one_worker_runs_in_process(profile_path, tmp_path, monkeypatch, cpus, grid):
    def no_fork():
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    _cpus(monkeypatch, cpus)
    result = harness.tune(_config(profile_path, tmp_path, grid=grid))
    assert len(result["candidates"]) == len(grid["learning_rate"])
    assert result["audit_accesses_beyond_first_two"] == 0


FORCED_POOL = ("import sys; from seqcl import cli, harness; "
               "harness._usable_cpus = lambda: 2; sys.exit(cli.main(sys.argv[1:]))")


@pytest.mark.parametrize("launch", [["-m", "seqcl.cli"], ["-c", FORCED_POOL]],
                         ids=["cli", "forced-pool"])
def test_a_qp_failure_in_a_worker_exits_3(tmp_path, launch):
    # QpNonConvergenceError takes (residual, iterations), not a message; a
    # worker's one must unpickle in the caller, or the pool breaks (exit 1)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "data": {"profile": "sites3", "seed": 0}, "domain_key": "site",
        "architecture": {"kind": "mlp", "n_layers": 1, "hidden_dim": 8},
        "strategy": "gem", "output_dir": str(tmp_path / "out"),
        "grid": {"qp_iters": [1, 2], "qp_tol": [1e-300]},
        "epochs_per_task": 1, "n_runs": 1,
    }))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run([sys.executable, *launch, "tune", str(cfg)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "dual QP failed to reach tolerance" in proc.stderr


def test_each_worker_runs_blas_on_one_thread():
    try:
        from numpy._core import _multiarray_umath

        blas = ctypes.CDLL(_multiarray_umath.__file__)
        get_threads = blas.scipy_openblas_get_num_threads64_
        set_threads = blas.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        pytest.skip("numpy's BLAS exports no scipy_openblas thread controls")
    if harness._usable_cpus() < 2:
        pytest.skip("one usable CPU: _map_units runs its units in this process")
    get_threads.restype, get_threads.argtypes = ctypes.c_int, []
    set_threads.restype, set_threads.argtypes = None, [ctypes.c_int]
    before = get_threads()
    set_threads(2)
    try:
        assert get_threads() == 2
        assert harness._map_units(lambda unit: get_threads(), range(2)) == [1, 1]
    finally:
        set_threads(before)
    assert multiprocessing.active_children() == []
