"""A run that trains alone is evaluated on one forked helper process: its
records and final parameters equal in-process evaluation's bit for bit, a
training or an evaluation error ends the run as it does in process, no
helper outlives the run, and a run that is not alone on its CPUs, or cannot
fork, starts no process. The helper is forced or kept out by patching the
usable-CPU count, so these tests run on a 1-CPU machine too."""

import json
import multiprocessing
import os

import pytest

from seqcl import harness, training
from seqcl.errors import DataError, SeqclError

from test_harness import base_config, small_profile
from test_tune_pool import ARCHITECTURES, BILSTM

MODELS = {**ARCHITECTURES, "bilstm": BILSTM}


@pytest.fixture(scope="module")
def profile_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "profile.json"
    path.write_text(json.dumps(small_profile()))
    return path


def _lone_run(profile_path, out, monkeypatch, cpus, hyperparams=None, **overrides):
    """run_experiment of one run on ``cpus`` usable CPUs; the helpers it
    started, and its RunOutputs or the error it raised."""
    started = []
    real = harness._evaluate_on_helper

    def counted(*args):
        started.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "_evaluate_on_helper", counted)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    config = harness.config_from_dict(base_config(profile_path, out, n_runs=1, **overrides))
    try:
        outcome = harness.run_experiment(config, hyperparams)
    except Exception as err:  # compared across the two modes by the caller
        outcome = err
    assert multiprocessing.active_children() == []
    return len(started), outcome


def _diagnostic(out):
    entry = json.loads((out / "run_00.failed.json").read_text())
    del entry["wall_clock_s"]
    return entry


@pytest.mark.parametrize("strategy", ["naive", "gem", "lwf", "si", "gdumb"])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_the_helper_writes_the_in_process_records(
    profile_path, tmp_path, monkeypatch, model, strategy
):
    runs = {}
    for cpus in (2, 1):
        runs[cpus] = _lone_run(profile_path, tmp_path / f"cpus{cpus}", monkeypatch, cpus,
                               strategy=strategy, architecture=MODELS[model])
    assert [helpers for helpers, _ in runs.values()] == [1, 0]
    (helped,), (alone,) = runs[2][1], runs[1][1]
    assert helped.records == alone.records
    assert helped.final_params.tobytes() == alone.final_params.tobytes()
    assert ((tmp_path / "cpus2" / "run_00.jsonl").read_bytes()
            == (tmp_path / "cpus1" / "run_00.jsonl").read_bytes())


def test_a_training_error_writes_the_in_process_diagnostic(profile_path, tmp_path, monkeypatch):
    for cpus in (2, 1):
        helpers, err = _lone_run(profile_path, tmp_path / f"cpus{cpus}", monkeypatch, cpus,
                                 {"qp_iters": 1, "qp_tol": 1e-300}, strategy="gem")
        assert helpers == (cpus == 2)
        assert isinstance(err, SeqclError) and "every run failed" in str(err)
    assert _diagnostic(tmp_path / "cpus2") == _diagnostic(tmp_path / "cpus1")
    assert _diagnostic(tmp_path / "cpus1")["error"] == "QpNonConvergenceError"


def _plant_evaluation_error(monkeypatch, error):
    real = training.evaluate_seen_tasks

    def failing(model, stream, upto_task, *args, **kwargs):
        if upto_task == 1:
            raise error("planted evaluation failure")
        return real(model, stream, upto_task, *args, **kwargs)

    # in process through training's name, on the helper through harness's
    monkeypatch.setattr(training, "evaluate_seen_tasks", failing)
    monkeypatch.setattr(harness, "evaluate_seen_tasks", failing)


@pytest.mark.parametrize("error", [DataError, ValueError])
def test_an_evaluation_error_ends_the_run_as_in_process(
    profile_path, tmp_path, monkeypatch, error
):
    _plant_evaluation_error(monkeypatch, error)
    raised = {}
    for cpus in (2, 1):
        helpers, raised[cpus] = _lone_run(profile_path, tmp_path / f"cpus{cpus}", monkeypatch,
                                          cpus)
        assert helpers == (cpus == 2)
    if error is DataError:  # a SeqclError fails the run, which leaves a diagnostic
        assert "every run failed" in str(raised[2])
        assert _diagnostic(tmp_path / "cpus2") == _diagnostic(tmp_path / "cpus1")
        assert _diagnostic(tmp_path / "cpus1")["message"] == "planted evaluation failure"
    else:
        assert type(raised[2]) is type(raised[1]) is ValueError
        assert str(raised[2]) == str(raised[1]) == "planted evaluation failure"


def test_an_evaluation_error_comes_before_a_later_epochs_training_error(
    profile_path, tmp_path, monkeypatch
):
    # in process, task 1's first evaluation fails before its second epoch
    # trains; on the helper, that epoch trains first and fails on its own
    _plant_evaluation_error(monkeypatch, DataError)
    real = training._batches
    epochs = []

    def failing(n, batch_size, order):
        epochs.append(n)
        if len(epochs) == 4:  # task 1, epoch 1
            raise SeqclError("planted training failure")
        return real(n, batch_size, order)

    monkeypatch.setattr(training, "_batches", failing)
    for cpus in (2, 1):
        epochs.clear()
        helpers, err = _lone_run(profile_path, tmp_path / f"cpus{cpus}", monkeypatch, cpus)
        assert helpers == (cpus == 2) and len(epochs) == (4 if cpus == 2 else 3)
        assert "every run failed" in str(err)
        assert _diagnostic(tmp_path / f"cpus{cpus}")["message"] == "planted evaluation failure"


def _no_fork(monkeypatch):
    def no_fork():
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(os, "fork", no_fork)


@pytest.mark.parametrize("where", ["one-cpu", "pool-worker", "no-fork"])
def test_no_helper_where_the_run_is_not_alone_or_cannot_fork(
    profile_path, tmp_path, monkeypatch, where
):
    _no_fork(monkeypatch)
    cpus = 1 if where == "one-cpu" else 2
    if where == "pool-worker":  # what _adopt_job sets in every _map_units worker
        monkeypatch.setattr(harness, "_forked_job", (harness._run_one, []))
    if where == "no-fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    helpers, (out,) = _lone_run(profile_path, tmp_path, monkeypatch, cpus, epochs_per_task=1)
    assert helpers == 0 and out.records


def test_a_lone_run_on_two_cpus_forks_its_helper(profile_path, tmp_path, monkeypatch):
    _no_fork(monkeypatch)
    helpers, err = _lone_run(profile_path, tmp_path, monkeypatch, 2, epochs_per_task=1)
    assert helpers == 1
    assert isinstance(err, AssertionError) and str(err) == "a worker process was started"


def test_a_helper_that_dies_ends_the_run(profile_path, tmp_path, monkeypatch):
    run_pid = os.getpid()
    real = training.evaluate_seen_tasks

    def dying(*args, **kwargs):
        if os.getpid() != run_pid:
            os._exit(7)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "evaluate_seen_tasks", dying)
    helpers, err = _lone_run(profile_path, tmp_path, monkeypatch, 2)
    assert helpers == 1
    assert isinstance(err, ChildProcessError)
    assert str(err) == "the evaluation helper exited with code 7"
