"""Protocol-level tests: config handling, tuning audit, run persistence,
determinism, reporting, sweeps, and the CLI wrapper."""

import dataclasses
import json
import multiprocessing
import pickle
from pathlib import Path

import numpy as np
import pytest

from seqcl import harness
from seqcl.cli import main as cli_main
from seqcl.datagen import domain_offset_vectors
from seqcl.errors import (
    ConfigurationError, DataError, DataFormatError, ReportError, SeqclError,
)
from seqcl.metrics import AccuracyMatrix, forgetting
from seqcl.models import ArchitectureSpec, build_model
from seqcl.strategies import Anchor, Cumulative, Strategy, build_strategy
from seqcl.training import (
    TRAINER_RULES,
    TaskStream,
    TrainerSettings,
    evaluate_seen_tasks,
    run_single,
    stream_rng,
    stream_seed,
)


def small_profile(n_domains=3, n_patients=400, key="site", prevalence=0.30):
    """JSON profile: three time-varying and one static feature per step."""
    return {
        "n_patients": n_patients,
        "n_timevarying": 3,
        "n_static": 1,
        "seq_len": 6,
        "domains": {key: [
            {"name": f"{key}{j:02d}", "mean_offset": offset.tolist(),
             "prevalence": prevalence}
            for j, offset in enumerate(domain_offset_vectors(n_domains, 3, 1, 3.5))
        ]},
    }


@pytest.fixture(scope="module")
def profile_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "profile.json"
    path.write_text(json.dumps(small_profile()))
    return path


def base_config(profile_path, out_dir, **overrides):
    raw = {
        "data": {"profile": str(profile_path), "seed": 7},
        "domain_key": "site",
        "architecture": {"kind": "mlp", "n_layers": 1, "hidden_dim": 8},
        "strategy": "naive",
        "output_dir": str(out_dir),
        "grid": {"learning_rate": [0.05]},
        "epochs_per_task": 2,
        "n_runs": 2,
        "master_seed": 5,
    }
    raw.update(overrides)
    return raw


NAN, INF = float("nan"), float("inf")

# strategy-key values the strategies' rules reject
BAD_STRATEGY_VALUES = [
    ("ewc", "ewc_lambda", "abc"), ("ewc", "ewc_lambda", -1.0), ("si", "si_lambda", True),
    ("agem", "sample_size", "x"), ("agem", "sample_size", 0), ("gem", "qp_iters", 2.7),
    ("replay", "patterns_per_exp", "x"), ("replay", "patterns_per_exp", -5),
    ("replay", "patterns_per_exp", 2.5), ("gdumb", "mem_size", None),
    ("gdumb", "gdumb_scratch_retrain", "no"), ("lwf", "temperature", "2"),
    ("online_ewc", "decay_factor", "0.5"), ("si", "damping", -1),
]


def _no_training(*args, **kwargs):
    raise AssertionError("a candidate or run started training")


# ---------------------------------------------------------------------------
# configuration


class TestConfig:
    def test_roundtrip_from_file(self, profile_path, tmp_path):
        raw = base_config(profile_path, tmp_path / "out")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        config = harness.config_from_file(path)
        assert config.strategy == "naive"
        assert config.epochs_per_task == 2

    def test_unknown_top_level_key_rejected(self, profile_path, tmp_path):
        raw = base_config(profile_path, tmp_path, optimizer="adam")
        with pytest.raises(ConfigurationError, match="optimizer"):
            harness.config_from_dict(raw)

    def test_unknown_nested_keys_rejected(self, profile_path, tmp_path):
        raw = base_config(profile_path, tmp_path)
        raw["data"] = {**raw["data"], "fraction": 0.5}
        with pytest.raises(ConfigurationError, match="fraction"):
            harness.config_from_dict(raw)
        raw = base_config(profile_path, tmp_path)
        raw["architecture"] = {**raw["architecture"], "dropout": 0.1}
        with pytest.raises(ConfigurationError, match="dropout"):
            harness.config_from_dict(raw)

    def test_grid_key_must_fit_strategy_or_generic_vocabulary(
        self, profile_path, tmp_path
    ):
        raw = base_config(profile_path, tmp_path, grid={"ewc_lambda": [0.1]})
        with pytest.raises(ConfigurationError, match="ewc_lambda"):
            harness.config_from_dict(raw)
        raw = base_config(
            profile_path, tmp_path, strategy="ewc", grid={"ewc_lambda": [0.1]}
        )
        harness.config_from_dict(raw)

    def test_grid_values_must_be_nonempty_lists(self, profile_path, tmp_path):
        raw = base_config(profile_path, tmp_path, grid={"learning_rate": []})
        with pytest.raises(ConfigurationError, match="nonempty"):
            harness.config_from_dict(raw)

    def test_data_source_is_exactly_one_of_profile_or_path(
        self, profile_path, tmp_path
    ):
        raw = base_config(profile_path, tmp_path)
        raw["data"] = {"profile": str(profile_path), "path": "x.npz"}
        with pytest.raises(ConfigurationError, match="exactly one"):
            harness.config_from_dict(raw)
        raw["data"] = {"seed": 1}
        with pytest.raises(ConfigurationError, match="exactly one"):
            harness.config_from_dict(raw)

    def test_missing_required_key_rejected(self, profile_path, tmp_path):
        raw = base_config(profile_path, tmp_path)
        del raw["domain_key"]
        with pytest.raises(ConfigurationError, match="domain_key"):
            harness.config_from_dict(raw)

    @pytest.mark.parametrize("budget", [-1, 2.5, "abc", True])
    def test_buffer_budget_must_be_a_non_negative_int_or_null(
        self, profile_path, tmp_path, budget
    ):
        raw = base_config(profile_path, tmp_path, strategy="replay", buffer_budget=budget)
        with pytest.raises(ConfigurationError, match="buffer_budget"):
            harness.config_from_dict(raw)
        for ok in (None, 0, 16):
            harness.config_from_dict({**raw, "buffer_budget": ok})

    def test_gdumb_rejects_unlimited_buffer_budget(self, profile_path, tmp_path):
        raw = base_config(profile_path, tmp_path, strategy="gdumb", buffer_budget=None)
        with pytest.raises(ConfigurationError, match="gdumb"):
            harness.config_from_dict(raw)

    def test_sweep_rejects_a_non_integer_budget(
        self, profile_path, tmp_path
    ):
        config = harness.config_from_dict(
            base_config(profile_path, tmp_path / "sw", strategy="replay")
        )
        with pytest.raises(ConfigurationError, match="buffer_budget"):
            harness.sweep(config, "buffer_budget", values=["abc"])

    @pytest.mark.parametrize("key,value", [
        ("curriculum", 1.5), ("curriculum", True), ("curriculum", "site00"),
        ("curriculum", ["site00", 1]), ("epochs_per_task", "2"),
        ("epochs_per_task", 2.0), ("batch_size", True), ("n_runs", 1.5),
        ("master_seed", None), ("learning_rate", "0.1"), ("learning_rate", None),
        ("momentum", False), ("data.seed", "7"), ("data.seed", True),
        ("learning_rate", NAN), ("learning_rate", INF), ("learning_rate", -INF),
        ("momentum", NAN), ("momentum", INF), ("momentum", -INF),
        ("master_seed", -1), ("data.seed", -1), ("curriculum", -1),
    ])
    def test_wrong_typed_values_are_configuration_errors(
        self, profile_path, tmp_path, key, value
    ):
        raw = base_config(profile_path, tmp_path)
        if key == "data.seed":
            raw["data"]["seed"] = value
        else:
            raw[key] = value
        with pytest.raises(ConfigurationError, match=key):
            harness.config_from_dict(raw)

    @pytest.mark.parametrize("key,value,message", [
        ("batch_size", "abc", "batch_size"), ("batch_size", 2.7, "batch_size"),
        ("batch_size", True, "batch_size"), ("batch_size", 0, "batch_size"),
        ("learning_rate", "0.1", "learning_rate"), ("learning_rate", None, "learning_rate"),
        ("learning_rate", -0.1, "learning_rate"), ("momentum", False, "momentum"),
        ("momentum", 1.0, "momentum"), ("hidden_dim", "abc", "hidden_dim"),
        ("hidden_dim", 2.5, "hidden_dim"), ("hidden_dim", 0, "hidden_dim"),
        ("n_layers", True, "n_layers"), ("n_layers", 5, "n_layers"),
        ("kernel_size", 1.0, "kernel_size"), ("nonlinearity", 3, "nonlinearity"),
        ("bidirectional", "yes", "bidirectional"),
        ("learning_rate", NAN, "learning_rate"), ("learning_rate", INF, "learning_rate"),
        ("learning_rate", -INF, "learning_rate"), ("momentum", NAN, "momentum"),
        ("momentum", INF, "momentum"), ("momentum", -INF, "momentum"),
    ])
    def test_wrong_typed_grid_values_are_configuration_errors(
        self, profile_path, tmp_path, key, value, message
    ):
        raw = base_config(profile_path, tmp_path, grid={key: [value]})
        with pytest.raises(ConfigurationError, match=message):
            harness.config_from_dict(raw)
        config = harness.config_from_dict(base_config(profile_path, tmp_path / "out"))
        with pytest.raises(ConfigurationError, match=message):
            harness.run_experiment(config, {key: value})
        assert not (tmp_path / "out").exists()

    def test_well_typed_grid_values_pass_unchanged(self, profile_path, tmp_path):
        grid = {"batch_size": [16, 32], "learning_rate": [1, 0.05], "momentum": [0, 0.5],
                "hidden_dim": [4], "n_layers": [2], "nonlinearity": ["tanh"],
                "kernel_size": [2]}
        config = harness.config_from_dict(base_config(profile_path, tmp_path, grid=grid))
        assert config.grid == grid
        settings = config.trainer_settings({"batch_size": 16, "learning_rate": 1})
        assert settings.batch_size == 16 and settings.learning_rate == 1.0

    @pytest.mark.parametrize("strategy,key,value", BAD_STRATEGY_VALUES)
    def test_bad_strategy_values_fail_before_anything_trains(
        self, profile_path, tmp_path, monkeypatch, strategy, key, value
    ):
        monkeypatch.setattr(harness, "run_single", _no_training)
        with pytest.raises(ConfigurationError, match=key):
            build_strategy(strategy, {key: value})
        raw = base_config(profile_path, tmp_path, strategy=strategy, grid={key: [value]})
        with pytest.raises(ConfigurationError, match=key):
            harness.config_from_dict(raw)
        config = harness.config_from_dict(
            base_config(profile_path, tmp_path / "out", strategy=strategy))
        config.grid = {key: [value]}
        with pytest.raises(ConfigurationError, match=key):
            harness.tune(config)
        with pytest.raises(ConfigurationError, match=key):
            harness.run_experiment(config, {key: value})
        assert not (tmp_path / "out").exists()

    def test_valid_configs_keep_their_fingerprints(self):
        raw = {
            "data": {"profile": "sites3", "seed": 7}, "domain_key": "site",
            "architecture": {"kind": "mlp", "n_layers": 1, "hidden_dim": 8},
            "strategy": "replay", "output_dir": "out",
            "grid": {"learning_rate": [0.05, 0.1]},
            "curriculum": ["site01", "site00", "site02"], "epochs_per_task": 2,
            "batch_size": 32, "learning_rate": 0.1, "momentum": 0, "n_runs": 2,
            "buffer_budget": 64, "master_seed": 5,
        }
        config = harness.config_from_dict(raw)
        assert harness.config_fingerprint(config) == "540ab479c19a4418"
        raw.update(curriculum=3, momentum=0.5, buffer_budget=None, learning_rate=1)
        config = harness.config_from_dict(raw)
        assert harness.config_fingerprint(config) == "a46468f1520f015e"

    def test_readme_tables_show_each_rule(self):
        def accepted_values(after):
            """{key: accepted values} of the first README table after ``after``."""
            text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
            lines = text[text.index(after):].splitlines()
            header = next(i for i, line in enumerate(lines) if line.startswith("| key |"))
            column = [c.strip() for c in lines[header].strip("|").split("|")].index(
                "accepted values")
            table = {}
            for line in lines[header + 2:]:
                if not line.startswith("|"):
                    return table
                cells = [c.strip() for c in line.strip("|").split("|")]
                table[cells[0].strip("`")] = cells[column]

        def shown(rules):
            return {key: rule.what for key, rule in rules.items()}

        top = accepted_values("Top-level keys of the experiment config")
        for key, what in {**shown(harness.EXPERIMENT_RULES), **shown(TRAINER_RULES)}.items():
            assert what in top[key.split(".")[0]], key
        assert accepted_values("Architecture keys") == shown(harness._ARCH_RULES)
        assert accepted_values("Generic keys") == shown(harness.GENERIC_RULES)

    def test_numpy_ints_pass_as_ints_end_to_end(self, profile_path, tmp_path):
        raw = base_config(profile_path, tmp_path / "out", n_runs=1, master_seed=5,
                          curriculum=0, grid={"batch_size": [16]})
        numpy_raw = {**raw, "n_runs": np.int64(1), "master_seed": np.int64(5),
                     "curriculum": np.int64(0), "grid": {"batch_size": [np.int64(16)]}}
        config = harness.config_from_dict(numpy_raw)
        want = harness.config_fingerprint(harness.config_from_dict(raw))
        assert harness.config_fingerprint(config) == want
        harness.write_tune_result(config, harness.tune(config))
        harness.run_experiment(config, {"batch_size": np.int64(16)})
        assert harness.report(tmp_path / "out")["experiments"][0]["fingerprint"] == want

    def test_fingerprint_ignores_output_dir_only(self, profile_path, tmp_path):
        a = harness.config_from_dict(base_config(profile_path, tmp_path / "a"))
        b = harness.config_from_dict(base_config(profile_path, tmp_path / "b"))
        assert harness.config_fingerprint(a) == harness.config_fingerprint(b)
        c = harness.config_from_dict(
            base_config(profile_path, tmp_path / "a", master_seed=6)
        )
        assert harness.config_fingerprint(a) != harness.config_fingerprint(c)


# ---------------------------------------------------------------------------
# tuning


class TestTune:
    def test_empty_grid_rejected(self, profile_path, tmp_path):
        config = harness.config_from_dict(
            base_config(profile_path, tmp_path, grid={})
        )
        with pytest.raises(ConfigurationError, match="grid"):
            harness.tune(config)

    def test_singleton_grid_still_scored_and_audited(self, profile_path, tmp_path):
        config = harness.config_from_dict(base_config(profile_path, tmp_path))
        result = harness.tune(config)
        assert result["chosen"] == {"learning_rate": 0.05}
        assert len(result["candidates"]) == 1
        assert result["candidates"][0]["score"] is not None
        assert result["audit_accesses_beyond_first_two"] == 0

    def test_untrained_candidate_loses_the_grid(self, profile_path, tmp_path):
        # lr 0 leaves the model at its (non-separating) init, so the trained
        # point must win the argmax
        config = harness.config_from_dict(
            base_config(
                profile_path,
                tmp_path,
                strategy="cumulative",
                architecture={"kind": "mlp", "n_layers": 1, "hidden_dim": 8,
                              "nonlinearity": "tanh"},
                grid={"learning_rate": [0.0, 0.1]},
                epochs_per_task=20,
            )
        )
        result = harness.tune(config)
        assert result["chosen"] == {"learning_rate": 0.1}
        by_lr = {c["hyperparams"]["learning_rate"]: c["score"]
                 for c in result["candidates"]}
        assert by_lr[0.1] > by_lr[0.0] + 0.05

    def test_strategy_keys_reach_the_strategy(self, profile_path, tmp_path):
        config = harness.config_from_dict(
            base_config(
                profile_path,
                tmp_path,
                strategy="replay",
                grid={"patterns_per_exp": [4, 8]},
            )
        )
        result = harness.tune(config)
        assert result["chosen"]["patterns_per_exp"] in (4, 8)
        assert result["audit_accesses_beyond_first_two"] == 0


# ---------------------------------------------------------------------------
# run_experiment


class TestRunExperiment:
    def test_outputs_and_metadata(self, profile_path, tmp_path):
        out = tmp_path / "out"
        config = harness.config_from_dict(base_config(profile_path, out))
        results = harness.run_experiment(config)
        assert len(results) == 2
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["fingerprint"] == harness.config_fingerprint(config)
        assert meta["records_version"] == harness.RECORDS_VERSION
        assert meta["excluded_tuning_tasks"] is False
        assert len(meta["tasks"]) == 3
        assert all(r["status"] == "ok" for r in meta["runs"])
        assert meta["defaults"]["optimizer"] == "sgd"
        lines = (out / "run_00.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"fingerprint": meta["fingerprint"], "run": 0,
                          "records_version": harness.RECORDS_VERSION}
        row = json.loads(lines[1])
        assert {"run", "trained_task", "eval_task", "epoch", "split",
                "metrics"} <= set(row)

    def test_bitwise_determinism_across_directories(self, profile_path, tmp_path):
        raw_a = base_config(profile_path, tmp_path / "a", n_runs=1)
        raw_b = base_config(profile_path, tmp_path / "b", n_runs=1)
        harness.run_experiment(harness.config_from_dict(raw_a))
        harness.run_experiment(harness.config_from_dict(raw_b))
        bytes_a = (tmp_path / "a" / "run_00.jsonl").read_bytes()
        bytes_b = (tmp_path / "b" / "run_00.jsonl").read_bytes()
        assert bytes_a == bytes_b

    def test_unknown_hyperparams_rejected(self, profile_path, tmp_path):
        config = harness.config_from_dict(base_config(profile_path, tmp_path))
        with pytest.raises(ConfigurationError, match="warmup"):
            harness.run_experiment(config, {"warmup": 3})

    def test_validation_data_merged_into_training_on_short_streams(
        self, profile_path, tmp_path, monkeypatch
    ):
        config = harness.config_from_dict(
            base_config(profile_path, tmp_path, n_runs=1, epochs_per_task=1)
        )
        partitions = harness.load_partitions(config)
        trained_on = []

        class SpyStream(TaskStream):  # one run: it trains in this process
            def get(self, task_idx, split):
                arrays = super().get(task_idx, split)
                if (task_idx, split) == (0, "train"):
                    trained_on.append(set(arrays[2].tolist()))
                return arrays

        monkeypatch.setattr(harness, "TaskStream", SpyStream)
        harness.run_experiment(config, partitions=partitions)
        val_pids = set(partitions[0].val.patient_ids.tolist())
        assert val_pids
        assert trained_on and all(val_pids <= pids for pids in trained_on)

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "pooled"])
    def test_a_patient_in_train_and_test_fails_the_audit_before_any_run_trains(
        self, profile_path, tmp_path, monkeypatch, cpus
    ):
        monkeypatch.setattr(harness, "run_single", _no_training)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        out = tmp_path / "out"
        config = harness.config_from_dict(base_config(profile_path, out))
        partitions = harness.load_partitions(config)
        partitions[1] = dataclasses.replace(partitions[1], test=partitions[0].train)
        with pytest.raises(DataError, match="appear in both consumed train and test"):
            harness.run_experiment(config, partitions=partitions)
        assert list(out.glob("run_*")) == []
        assert not (out / "metadata.json").exists()

    def test_a_run_unit_returns_no_records_to_the_caller(
        self, profile_path, tmp_path, monkeypatch
    ):
        real = harness._run_one

        def spy(unit):  # runs in a worker; what it returns crosses the pool
            entry, final_params = returned = real(unit)
            assert isinstance(final_params, np.ndarray)
            assert len(pickle.dumps(entry)) < 1024, entry
            return returned

        monkeypatch.setattr(harness, "_run_one", spy)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        out = tmp_path / "out"
        config = harness.config_from_dict(base_config(profile_path, out))
        results = harness.run_experiment(config)
        assert multiprocessing.active_children() == []
        for run_idx, result in enumerate(results):
            path = out / f"run_{run_idx:02d}.jsonl"
            assert result.records == harness.read_run_file(path)[1]

    def test_long_streams_drop_the_tuning_tasks(self, tmp_path):
        profile = small_profile(n_domains=7, n_patients=210, key="hospital")
        prof_path = tmp_path / "profile.json"
        prof_path.write_text(json.dumps(profile))
        config = harness.config_from_dict(
            base_config(
                prof_path,
                tmp_path / "out",
                n_runs=1,
                epochs_per_task=1,
                domain_key="hospital",
            )
        )
        all_partitions = harness.load_partitions(config)
        assert len(all_partitions) == 7
        results = harness.run_experiment(config, partitions=all_partitions)
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["excluded_tuning_tasks"] is True
        assert len(meta["tasks"]) == 5
        assert meta["tasks"] == [p.task_name for p in all_partitions[2:]]
        assert max(r["trained_task"] for r in results[0].records) == 4

    def test_failed_run_leaves_diagnostic_and_continues(
        self, profile_path, tmp_path, monkeypatch
    ):
        real = harness.run_single

        def flaky(*args, **kwargs):
            if kwargs.get("run_idx") == 0:
                raise SeqclError("planted failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "run_single", flaky)
        out = tmp_path / "out"
        config = harness.config_from_dict(base_config(profile_path, out))
        results = harness.run_experiment(config)
        assert len(results) == 1
        diag = json.loads((out / "run_00.failed.json").read_text())
        assert diag["status"] == "failed"
        assert "planted failure" in diag["message"]
        assert not (out / "run_00.jsonl").exists()
        assert (out / "run_01.jsonl").exists()
        meta = json.loads((out / "metadata.json").read_text())
        statuses = [r["status"] for r in meta["runs"]]
        assert statuses == ["failed", "ok"]

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "pooled"])
    def test_an_error_while_writing_records_leaves_no_run_file(
        self, profile_path, tmp_path, monkeypatch, cpus
    ):
        real = harness.run_single

        def unencodable(*args, **kwargs):
            out = real(*args, **kwargs)
            if kwargs["run_idx"] == 0:
                out.records.insert(3, {"metrics": {1j}})  # json cannot encode it
            return out

        monkeypatch.setattr(harness, "run_single", unencodable)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        out = tmp_path / "out"
        out.mkdir()
        (out / "run_00.jsonl").write_text("an earlier invocation's records\n")
        config = harness.config_from_dict(base_config(profile_path, out))
        with pytest.raises(TypeError, match="not JSON serializable"):
            harness.run_experiment(config)
        if cpus == 1:  # run 0's error stops the loop before run 1 trains
            assert sorted(p.name for p in out.iterdir()) == []
        else:  # run 1's worker wrote its own file, whole; no metadata.json lists it
            assert sorted(p.name for p in out.iterdir()) == ["run_01.jsonl"]
            header, records = harness.read_run_file(out / "run_01.jsonl")
            assert header["run"] == 1 and len(records) == 2 * sum(
                2 * (t + 2) for t in range(3))

    def test_all_runs_failing_is_an_error(self, profile_path, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise SeqclError("planted failure")

        monkeypatch.setattr(harness, "run_single", broken)
        config = harness.config_from_dict(base_config(profile_path, tmp_path / "o"))
        with pytest.raises(SeqclError, match="every run failed"):
            harness.run_experiment(config)

    def test_a_rerun_replaces_every_run_artifact(self, profile_path, tmp_path):
        out = tmp_path / "out"
        config = harness.config_from_dict(base_config(profile_path, out, strategy="gem"))
        harness.run_experiment(config, {})
        assert harness.report(out)["experiments"][0]["n_runs"] == 2
        # hyperparameters are not in the fingerprint; this setting fails every run
        with pytest.raises(SeqclError, match="every run failed"):
            harness.run_experiment(config, {"qp_iters": 1, "qp_tol": 1e-300})
        meta = json.loads((out / "metadata.json").read_text())
        assert [r["status"] for r in meta["runs"]] == ["failed", "failed"]
        assert sorted(p.name for p in out.glob("run_*")) == [
            "run_00.failed.json", "run_01.failed.json"]
        with pytest.raises(ReportError, match="no completed runs"):
            harness.report(out)
        harness.run_experiment(config, {})
        assert sorted(p.name for p in out.glob("run_*")) == ["run_00.jsonl", "run_01.jsonl"]

    def test_unlimited_replay_matches_cumulative_record_for_record(
        self, profile_path, tmp_path
    ):
        raw_r = base_config(
            profile_path, tmp_path / "r", n_runs=1, strategy="replay",
            buffer_budget=None,
        )
        raw_c = base_config(
            profile_path, tmp_path / "c", n_runs=1, strategy="cumulative",
        )
        harness.run_experiment(harness.config_from_dict(raw_r))
        harness.run_experiment(harness.config_from_dict(raw_c))
        lines_r = (tmp_path / "r" / "run_00.jsonl").read_text().splitlines()
        lines_c = (tmp_path / "c" / "run_00.jsonl").read_text().splitlines()
        assert lines_r[1:] == lines_c[1:]  # headers differ by fingerprint only


# ---------------------------------------------------------------------------
# trainer integration details


class TestTrainerIntegration:
    def test_cumulative_training_set_grows_by_whole_tasks(self, profile_path):
        config = harness.config_from_dict(
            base_config(profile_path, "unused-out", n_runs=1, epochs_per_task=1)
        )
        partitions = harness.load_partitions(config)
        stream = TaskStream(partitions)
        sizes = []

        class SpyCumulative(Cumulative):
            def training_data(self, features, labels, task_idx):
                out = super().training_data(features, labels, task_idx)
                sizes.append(int(out[1].size))
                return out

        spec = ArchitectureSpec(kind="mlp", n_feature_layers=1, hidden_dim=8)
        t, d = harness._input_dims(partitions[0])
        run_single(
            lambda seed: build_model(spec, (t, d), seed),
            stream,
            SpyCumulative(),
            (1.0, 1.0),
            TrainerSettings(epochs_per_task=1),
            master_seed=0,
            run_idx=0,
        )
        own = [p.train.labels.size for p in partitions]
        assert sizes == [own[0], own[0] + own[1], own[0] + own[1] + own[2]]

    def test_task_stream_assembles_once_and_serves_read_only_features(self, profile_path):
        config = harness.config_from_dict(base_config(profile_path, "unused-out"))
        partitions = harness.load_partitions(config)
        stream = TaskStream(partitions, merge_val_into_train=True)
        for task_idx, split, data in ((1, "test", partitions[1].test),
                                      (1, "val", partitions[1].val),
                                      (2, "train", partitions[2].train)):
            features, labels, _ = stream.get(task_idx, split)
            assert not features.flags.writeable
            with pytest.raises(ValueError):
                features[0] = 0.0
            again, _, _ = stream.get(task_idx, split)
            assert np.array_equal(again, data.features())
            assert np.array_equal(labels, data.labels)
        merged = stream.get(0, "train")
        first = partitions[0]
        assert all(not array.flags.writeable for array in merged)
        assert np.array_equal(
            merged[0], np.concatenate([first.train.features(), first.val.features()])
        )
        assert np.array_equal(merged[1], np.concatenate([first.train.labels, first.val.labels]))
        assert stream.access_counts == {(1, "test"): 2, (1, "val"): 2, (2, "train"): 2,
                                        (0, "train"): 1}

    def test_access_counts_count_every_get_of_a_run(self, profile_path):
        config = harness.config_from_dict(base_config(profile_path, "unused-out"))
        partitions = harness.load_partitions(config)
        stream = TaskStream(partitions)
        spec = ArchitectureSpec(kind="mlp", n_feature_layers=1, hidden_dim=8)
        run_single(
            lambda seed: build_model(spec, harness._input_dims(partitions[0]), seed),
            stream,
            build_strategy("naive"),
            (1.0, 1.0),
            TrainerSettings(epochs_per_task=2),
            master_seed=0,
            run_idx=0,
        )
        # per task: its training data and two epochs of test+train evaluation
        # over the seen tasks
        assert sum(stream.access_counts.values()) == sum(1 + 2 * 2 * (t + 1) for t in range(3))
        assert stream.access_counts[(0, "test")] == 2 * 3
        tuned = harness.tune(config, partitions=partitions)
        assert tuned["audit_accesses_beyond_first_two"] == 0

    def test_epoch_accounting_is_exact(self, profile_path):
        config = harness.config_from_dict(
            base_config(profile_path, "unused-out", epochs_per_task=3)
        )
        partitions = harness.load_partitions(config)
        out = run_single(
            lambda seed: build_model(
                ArchitectureSpec(kind="mlp", n_feature_layers=1, hidden_dim=8),
                harness._input_dims(partitions[0]),
                seed,
            ),
            TaskStream(partitions),
            build_strategy("naive"),
            (1.0, 1.0),
            TrainerSettings(epochs_per_task=3),
            master_seed=0,
            run_idx=0,
        )
        assert out.epochs_run == {0: 3, 1: 3, 2: 3}

    def test_zero_init_model_scores_exactly_half_everywhere(self, profile_path):
        config = harness.config_from_dict(
            base_config(profile_path, "unused-out")
        )
        partitions = harness.load_partitions(config)
        spec = ArchitectureSpec(kind="mlp", n_feature_layers=1, hidden_dim=8)
        model = build_model(spec, harness._input_dims(partitions[0]), seed=0)
        model.params.values[:] = 0.0
        stream = TaskStream(partitions)
        rows = evaluate_seen_tasks(model, stream, upto_task=2, class_weights=(1.0, 1.0))
        assert len(rows) == 2 * (3 + 1)  # test+train, three tasks plus mean row
        for row in rows:
            assert row["metrics"]["balanced_accuracy"] == 0.5

    def test_mean_row_is_the_arithmetic_mean_of_task_rows(self, profile_path):
        config = harness.config_from_dict(base_config(profile_path, "unused-out"))
        partitions = harness.load_partitions(config)
        spec = ArchitectureSpec(kind="mlp", n_feature_layers=1, hidden_dim=8)
        model = build_model(spec, harness._input_dims(partitions[0]), seed=3)
        stream = TaskStream(partitions)
        rows = evaluate_seen_tasks(model, stream, upto_task=2, class_weights=(1.0, 1.0))
        for split in ("test", "train"):
            task_rows = [r for r in rows
                         if r["split"] == split and r["eval_task"] is not None]
            mean_row = next(r for r in rows
                            if r["split"] == split and r["eval_task"] is None)
            values = [r["metrics"]["balanced_accuracy"] for r in task_rows]
            assert mean_row["metrics"]["balanced_accuracy"] == pytest.approx(
                np.mean(values), abs=1e-15
            )


# ---------------------------------------------------------------------------
# report


class _Pinned(Strategy):
    """A fixed anchor from the first step on; records what it observes."""

    def __init__(self, anchor):
        self.anchor = anchor
        self.seen = []

    def per_step_observe(self, grad, delta):
        self.seen.append((grad.copy(), delta.copy()))


PROX_SPECS = {
    "mlp": ArchitectureSpec(kind="mlp", n_feature_layers=1, hidden_dim=4),
    "lstm": ArchitectureSpec(kind="lstm", n_feature_layers=1, hidden_dim=3),
    "bilstm": ArchitectureSpec(kind="lstm", n_feature_layers=1, hidden_dim=3,
                               bidirectional=True),
    "cnn1d": ArchitectureSpec(kind="cnn1d", n_feature_layers=1, hidden_dim=4,
                              kernel_size=2),
}


def _one_task(profile_path):
    config = harness.config_from_dict(base_config(profile_path, "unused-out"))
    partitions = harness.load_partitions(config)
    return TaskStream(partitions), harness._input_dims(partitions[0])


def _random_anchor(size, seed):
    rng = np.random.default_rng(seed)
    return Anchor.at(rng.uniform(0.0, 40.0, size), rng.normal(size=size))


class TestProximalStep:
    @pytest.mark.parametrize("kind", sorted(PROX_SPECS))
    def test_one_step_minimises_the_linearised_loss_plus_the_penalty(
        self, profile_path, kind
    ):
        # one full batch is one step from the init; the step minimises
        # J(t) = g.t + |t - theta0|^2 / (2 lr) + (1/2) sum kappa t^2 - pull.t,
        # so each parameter block's central difference of J vanishes there
        stream, dims = _one_task(profile_path)
        spec, lr = PROX_SPECS[kind], 0.3
        build = lambda seed: build_model(spec, dims, seed)  # noqa: E731
        theta0 = build(stream_seed(5, 0, "init")).params.values.copy()
        anchor = _random_anchor(theta0.size, seed=len(kind))
        strategy = _Pinned(anchor)
        out = run_single(build, stream, strategy, (1.0, 2.0),
                         TrainerSettings(epochs_per_task=1, batch_size=10**6,
                                         learning_rate=lr),
                         master_seed=5, run_idx=0, eval_splits=("test",),
                         n_train_tasks=1)
        (g, delta), = strategy.seen
        theta1 = out.final_params
        assert np.array_equal(delta, theta1 - theta0)

        def objective(t):
            return (g @ t + (t - theta0) @ (t - theta0) / (2 * lr)
                    + 0.5 * anchor.kappa @ (t * t) - anchor.pull @ t)

        model = build(0)
        for name, start, shape in model.params.layout:
            i = start + int(np.prod(shape)) // 2
            up, down = theta1.copy(), theta1.copy()
            up[i] += 1e-5
            down[i] -= 1e-5
            fd = (objective(up) - objective(down)) / 2e-5
            assert abs(fd) < 1e-6 * (1.0 + abs(g[i]) + anchor.kappa[i]), name
        # the pull moved the step off plain SGD
        assert not np.allclose(theta1, theta0 - lr * g)

    def test_momentum_velocity_runs_over_the_task_gradient_only(self, profile_path):
        stream, dims = _one_task(profile_path)
        spec = PROX_SPECS["mlp"]
        settings = TrainerSettings(epochs_per_task=2, batch_size=64,
                                   learning_rate=0.1, momentum=0.5)
        build = lambda seed: build_model(spec, dims, seed)  # noqa: E731
        anchor = _random_anchor(build(0).params.values.size, seed=9)
        strategy = _Pinned(anchor)
        out = run_single(build, stream, strategy, (1.0, 2.0), settings,
                         master_seed=5, run_idx=0, eval_splits=("test",),
                         n_train_tasks=1)

        # by hand: v <- beta v + g, theta <- (theta - lr v + lr pull) / (1 + lr kappa)
        model = build(stream_seed(5, 0, "init"))
        shuffle = stream_rng(5, 0, "shuffle")
        features, labels, _ = stream.get(0, "train")
        theta, velocity, seen = model.params.values, 0.0, []
        for _ in range(settings.epochs_per_task):
            order = shuffle.permutation(labels.size)
            for start in range(0, labels.size, settings.batch_size):
                idx = order[start:start + settings.batch_size]
                model.graph.forward(model.params, model.prepare_batch(features[idx]))
                g = model.graph.backward_from_dlogits(
                    model.graph.loss(labels[idx], (1.0, 2.0))[1])
                velocity = 0.5 * velocity + g
                before = theta.copy()
                theta -= 0.1 * velocity
                theta += 0.1 * anchor.pull
                theta /= 1.0 + 0.1 * anchor.kappa
                seen.append((g, theta - before))
        assert np.array_equal(out.final_params, theta)
        assert len(strategy.seen) == len(seen) > 2
        for (got_g, got_delta), (want_g, want_delta) in zip(strategy.seen, seen):
            assert np.array_equal(got_g, want_g)
            assert np.array_equal(got_delta, want_delta)


def write_fake_experiment(exp_dir, per_run_matrices, fingerprint="f" * 16,
                          strategy="naive", records_version=None):
    """Minimal results directory: one epoch per task, balanced accuracy only;
    without a records_version, as written before the field existed."""
    exp_dir.mkdir(parents=True, exist_ok=True)
    version = {} if records_version is None else {"records_version": records_version}
    meta = {**version,
        "fingerprint": fingerprint,
        "config": {
            "epochs_per_task": 1,
            "strategy": strategy,
            "architecture": {"kind": "mlp"},
        },
        "runs": [{"run": run_idx, "status": "ok"} for run_idx in range(len(per_run_matrices))],
    }
    (exp_dir / "metadata.json").write_text(json.dumps(meta))
    for run_idx, matrix in enumerate(per_run_matrices):
        lines = [json.dumps({"fingerprint": fingerprint, "run": run_idx, **version})]
        n_tasks = len(matrix)
        for trained in range(n_tasks):
            seen = [matrix[trained][j] for j in range(trained + 1)]
            for j, value in enumerate(seen):
                lines.append(json.dumps({
                    "run": run_idx, "trained_task": trained, "epoch": 0,
                    "eval_task": j, "split": "test",
                    "metrics": {"balanced_accuracy": value},
                }))
            lines.append(json.dumps({
                "run": run_idx, "trained_task": trained, "epoch": 0,
                "eval_task": None, "split": "test",
                "metrics": {"balanced_accuracy": float(np.mean(seen))},
            }))
        (exp_dir / f"run_{run_idx:02d}.jsonl").write_text("\n".join(lines) + "\n")


class TestReport:
    def test_two_run_summary_matches_hand_computation(self, tmp_path):
        write_fake_experiment(
            tmp_path / "exp",
            per_run_matrices=[
                [[0.8], [0.7, 0.9]],
                [[0.6], [0.6, 0.8]],
            ],
        )
        summary = harness.report(tmp_path / "exp")
        row = summary["experiments"][0]
        # finals: (0.7+0.9)/2 = 0.8 and (0.6+0.8)/2 = 0.7
        assert row["final_balanced_accuracy_mean"] == pytest.approx(0.75)
        # forgetting: 0.8-0.7 = 0.1 and 0.6-0.6 = 0.0
        assert row["final_forgetting_mean"] == pytest.approx(0.05)
        assert row["n_runs"] == 2
        assert row["ci_suppressed"] is False
        assert (tmp_path / "exp" / "trajectories.csv").exists()
        assert (tmp_path / "exp" / "seen_average.csv").exists()
        import csv

        with (tmp_path / "exp" / "trajectories.csv").open() as fh:
            traj = list(csv.DictReader(fh))
        cells = {
            (r["trained_task"], r["eval_task"]): float(r["balanced_accuracy_mean"])
            for r in traj
        }
        assert cells[("1", "0")] == pytest.approx(0.65)
        assert cells[("1", "1")] == pytest.approx(0.85)
        assert all(r["n_runs"] == "2" for r in traj)

    def test_constant_runs_give_degenerate_ci(self, tmp_path):
        write_fake_experiment(
            tmp_path / "exp",
            per_run_matrices=[[[0.6], [0.6, 0.6]]] * 5,
        )
        row = harness.report(tmp_path / "exp")["experiments"][0]
        assert row["final_balanced_accuracy_mean"] == pytest.approx(0.6)
        assert row["final_balanced_accuracy_ci"] == [
            pytest.approx(0.6), pytest.approx(0.6)
        ]

    def test_single_run_suppresses_ci(self, tmp_path):
        write_fake_experiment(tmp_path / "exp", per_run_matrices=[[[0.8], [0.7, 0.9]]])
        row = harness.report(tmp_path / "exp")["experiments"][0]
        assert row["ci_suppressed"] is True
        assert row["final_balanced_accuracy_ci"] is None

    def test_mixed_fingerprints_rejected_with_both_listed(self, tmp_path):
        write_fake_experiment(tmp_path / "exp", [[[0.8], [0.7, 0.9]]],
                              fingerprint="a" * 16)
        rogue = (tmp_path / "exp" / "run_07.jsonl")
        rogue.write_text(json.dumps({"fingerprint": "b" * 16, "run": 7}) + "\n")
        meta_path = tmp_path / "exp" / "metadata.json"
        meta = json.loads(meta_path.read_text())
        meta["runs"].append({"run": 7, "status": "ok"})
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ReportError) as err:
            harness.report(tmp_path / "exp")
        assert "a" * 16 in str(err.value)
        assert "b" * 16 in str(err.value)

    def test_mixed_records_versions_rejected(self, tmp_path):
        write_fake_experiment(tmp_path / "grp" / "old", [[[0.8], [0.7, 0.9]]])
        write_fake_experiment(tmp_path / "grp" / "new", [[[0.8], [0.7, 0.9]]],
                              records_version=harness.RECORDS_VERSION)
        assert harness.report(tmp_path / "grp" / "old")["experiments"][0]["n_runs"] == 1
        with pytest.raises(ReportError, match="records versions differ") as err:
            harness.report(tmp_path / "grp")
        assert "old has version 1" in str(err.value)
        assert f"new has version {harness.RECORDS_VERSION}" in str(err.value)
        # nothing is written for the experiment read before the refusal
        assert not list((tmp_path / "grp" / "new").glob("*.csv"))
        # within one experiment: a header of another version than metadata.json
        meta_path = tmp_path / "grp" / "new" / "metadata.json"
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()),
                                         "records_version": 1}))
        with pytest.raises(ReportError, match="mixed records versions"):
            harness.report(tmp_path / "grp" / "new")

    def test_report_reads_exactly_the_runs_listed_as_ok(self, tmp_path):
        exp = tmp_path / "exp"
        write_fake_experiment(exp, [[[0.8], [0.7, 0.9]], [[0.6], [0.6, 0.8]]])
        (exp / "run_02.jsonl").write_bytes((exp / "run_00.jsonl").read_bytes())
        meta = json.loads((exp / "metadata.json").read_text())
        meta["runs"][1]["status"] = "failed"
        (exp / "metadata.json").write_text(json.dumps(meta))
        row = harness.report(exp)["experiments"][0]
        assert row["n_runs"] == 1
        assert row["final_balanced_accuracy_mean"] == pytest.approx(0.8)
        (exp / "run_00.jsonl").unlink()
        with pytest.raises(ReportError, match="run_00.jsonl"):
            harness.report(exp)

    def test_report_opens_each_listed_run_once(self, tmp_path, monkeypatch):
        write_fake_experiment(tmp_path / "grp" / "one", [[[0.8], [0.7, 0.9]]] * 3)
        write_fake_experiment(tmp_path / "grp" / "two", [[[0.6], [0.6, 0.8]]] * 2)
        opened = []
        real_open = Path.open

        def counting_open(path, *args, **kwargs):
            if path.suffix == ".jsonl":
                opened.append(path.relative_to(tmp_path).as_posix())
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        harness.report(tmp_path / "grp")
        assert sorted(opened) == [
            "grp/one/run_00.jsonl", "grp/one/run_01.jsonl", "grp/one/run_02.jsonl",
            "grp/two/run_00.jsonl", "grp/two/run_01.jsonl",
        ]

    def test_directory_of_experiments_yields_one_row_each(self, tmp_path):
        write_fake_experiment(tmp_path / "grp" / "one", [[[0.8], [0.7, 0.9]]],
                              strategy="naive")
        write_fake_experiment(tmp_path / "grp" / "two", [[[0.8], [0.8, 0.9]]],
                              strategy="replay")
        summary = harness.report(tmp_path / "grp")
        assert [r["experiment"] for r in summary["experiments"]] == ["one", "two"]
        assert (tmp_path / "grp" / "summary.csv").exists()

    def test_final_mean_forgetting_on_hand_built_records(self):
        def records(matrix, split="test", epoch=0):
            return [
                {"trained_task": i, "epoch": epoch, "eval_task": j, "split": split,
                 "metrics": {"balanced_accuracy": value}}
                for i, row in enumerate(matrix) for j, value in enumerate(row)
            ]

        matrix = [[0.8], [0.6, 0.9], [0.7, 0.5, None]]
        # task 0: 0.8 - 0.7, task 1: 0.9 - 0.5; the None cell is not needed
        assert harness.final_mean_forgetting(records(matrix), 1) == pytest.approx(0.25)
        # other splits and earlier epochs are not read
        noise = records([[0.0], [0.0, 0.0], [0.0, 0.0, 0.0]], split="train")
        noise += records([[1.0], [1.0, 1.0], [1.0, 1.0, 1.0]], epoch=0)
        later = records(matrix, epoch=1)
        assert harness.final_mean_forgetting(noise + later, 2) == pytest.approx(0.25)
        # a None in a needed cell leaves the matrix incomplete
        assert harness.final_mean_forgetting(records([[0.8], [None, 0.9]]), 1) is None
        partial = [r for r in records([[0.8], [0.6, 0.9]])
                   if (r["trained_task"], r["eval_task"]) != (1, 0)]
        assert harness.final_mean_forgetting(partial, 1) is None
        assert harness.final_mean_forgetting(records([[0.8]]), 1) is None

    def test_final_mean_forgetting_matches_the_matrix_built_by_hand(
        self, profile_path, tmp_path
    ):
        config = harness.config_from_dict(base_config(profile_path, tmp_path, n_runs=1))
        (out,) = harness.run_experiment(config)
        n_tasks = max(r["trained_task"] for r in out.records) + 1
        assert n_tasks == 3
        # the helper criterion 7 used before it called final_mean_forgetting
        matrix = AccuracyMatrix(n_tasks)
        for r in out.records:
            if r["split"] == "test" and r["epoch"] == 1 and r["eval_task"] is not None:
                matrix.set(r["trained_task"], r["eval_task"],
                           r["metrics"]["balanced_accuracy"])
        want = forgetting(matrix, n_tasks - 1)[1]
        assert harness.final_mean_forgetting(out.records, 2) == want

    def test_empty_directory_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ReportError, match="no experiment results"):
            harness.report(tmp_path / "empty")


# ---------------------------------------------------------------------------
# sweep


class TestSweep:
    def test_curriculum_axis_produces_one_group_per_value(
        self, profile_path, tmp_path
    ):
        config = harness.config_from_dict(
            base_config(
                profile_path, tmp_path / "sw", n_runs=1, epochs_per_task=1
            )
        )
        groups = harness.sweep(config, "curriculum", values=[0, 1, 2])
        assert groups == [tmp_path / "sw" / f"curriculum_{k}" for k in range(3)]
        for group in groups:
            assert (group / "metadata.json").exists()
        summary = harness.report(tmp_path / "sw")
        assert [r["experiment"] for r in summary["experiments"]] == [g.name for g in groups]

    def test_buffer_axis_shares_seeds(self, profile_path, tmp_path):
        config = harness.config_from_dict(
            base_config(
                profile_path, tmp_path / "sw", n_runs=1, epochs_per_task=1,
                strategy="replay",
            )
        )
        groups = harness.sweep(config, "buffer_budget", values=[4, 8])
        metas = [json.loads((group / "metadata.json").read_text()) for group in groups]
        assert {m["config"]["master_seed"] for m in metas} == {5}
        assert [m["config"]["buffer_budget"] for m in metas] == [4, 8]

    def test_unknown_axis_rejected(self, profile_path, tmp_path):
        config = harness.config_from_dict(base_config(profile_path, tmp_path))
        with pytest.raises(ConfigurationError, match="axis"):
            harness.sweep(config, "learning_rate", values=[0.1])

    def test_pooled_sweep_writes_the_serial_records(self, profile_path, tmp_path, monkeypatch):
        records = {}
        for cpus in (1, 2):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            config = harness.config_from_dict(base_config(profile_path, out, epochs_per_task=1))
            harness.sweep(config, "curriculum", values=[0, 1, 2])
            records[cpus] = {path.relative_to(out).as_posix(): path.read_bytes()
                             for path in sorted(out.glob("*/run_*.jsonl"))}
        assert len(records[1]) == 6
        assert records[2] == records[1]
        assert multiprocessing.active_children() == []

    def test_a_shorter_sweep_retires_the_groups_it_does_not_write(
        self, profile_path, tmp_path
    ):
        config = harness.config_from_dict(
            base_config(profile_path, tmp_path / "sw", n_runs=1, epochs_per_task=1))
        harness.sweep(config, "curriculum", values=[0, 1, 2])
        groups = harness.sweep(config, "curriculum", values=[0, 1])
        assert [group.name for group in groups] == ["curriculum_0", "curriculum_1"]
        summary = harness.report(tmp_path / "sw")
        assert [r["experiment"] for r in summary["experiments"]] == [
            "curriculum_0", "curriculum_1"]
        # only the index goes; the retired group's records stay on disk
        assert not (tmp_path / "sw" / "curriculum_2" / "metadata.json").exists()
        assert (tmp_path / "sw" / "curriculum_2" / "run_00.jsonl").exists()
        # a sweep along another axis retires none of these
        harness.sweep(config, "buffer_budget", values=[8])
        assert [r["experiment"] for r in harness.report(tmp_path / "sw")["experiments"]] == [
            "buffer_budget_0", "curriculum_0", "curriculum_1"]

    def test_eleven_groups_report_in_axis_order(self, profile_path, tmp_path):
        config = harness.config_from_dict(
            base_config(profile_path, tmp_path / "sw", n_runs=1, epochs_per_task=1))
        groups = harness.sweep(config, "curriculum", values=list(range(11)))
        names = [f"curriculum_{k:02d}" for k in range(11)]
        assert [group.name for group in groups] == names
        assert [json.loads((group / "metadata.json").read_text())["config"]["curriculum"]
                for group in groups] == list(range(11))
        summary = harness.report(tmp_path / "sw")
        assert [r["experiment"] for r in summary["experiments"]] == names

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "pooled"])
    def test_a_failed_group_leaves_the_others_to_finish(
        self, profile_path, tmp_path, monkeypatch, cpus
    ):
        fail_curricula(monkeypatch, {1: DataError, 3: SeqclError})
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        config = harness.config_from_dict(
            base_config(profile_path, tmp_path / "sw", n_runs=1, epochs_per_task=1))
        with pytest.raises(DataError) as caught:
            harness.sweep(config, "curriculum", values=[0, 1, 2, 3])
        message = str(caught.value)
        for k in (1, 3):
            assert f"curriculum_{k} failed: planted failure" in message
            assert not (tmp_path / "sw" / f"curriculum_{k}").exists()
        for k in (0, 2):
            assert f"curriculum_{k}" not in message
            assert (tmp_path / "sw" / f"curriculum_{k}" / "metadata.json").exists()
        assert multiprocessing.active_children() == []


def fail_curricula(monkeypatch, planted):
    """Make loading the partitions of each curriculum value listed in
    ``planted`` raise ``planted[value]``: every experiment loads its
    partitions while it is prepared, before its output directory exists."""
    real = harness.load_partitions

    def failing(config):
        if config.curriculum in planted:
            raise planted[config.curriculum]("planted failure")
        return real(config)

    monkeypatch.setattr(harness, "load_partitions", failing)


# ---------------------------------------------------------------------------
# run_experiments


class TestRunExperiments:
    def test_a_sweep_hands_every_run_of_every_group_to_one_pool(
        self, profile_path, tmp_path, monkeypatch
    ):
        calls = []
        real = harness._map_units

        def spy(fn, units):
            units = list(units)
            calls.append(len(units))
            return real(fn, units)

        monkeypatch.setattr(harness, "_map_units", spy)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        config = harness.config_from_dict(
            base_config(profile_path, tmp_path / "sw", epochs_per_task=1))
        groups = harness.sweep(config, "curriculum", values=[0, 1, 2])
        assert calls == [6]  # 3 groups x 2 runs
        assert multiprocessing.active_children() == []

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        for value, group in enumerate(groups):
            alone = tmp_path / "alone" / group.name
            harness.run_experiment(harness.config_from_dict(
                base_config(profile_path, alone, epochs_per_task=1, curriculum=value)))
            written = {path.name: path.read_bytes() for path in sorted(group.glob("run_*"))}
            assert list(written) == ["run_00.jsonl", "run_01.jsonl"]
            assert written == {path.name: path.read_bytes()
                               for path in sorted(alone.glob("run_*"))}

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "pooled"])
    def test_an_experiment_that_fails_does_not_stop_the_others(
        self, profile_path, tmp_path, monkeypatch, cpus
    ):
        def failing(build_model_fn, stream, strategy, class_weights, settings, **kwargs):
            if settings.learning_rate == 0.2:
                raise SeqclError("planted failure")
            return run_single(build_model_fn, stream, strategy, class_weights, settings,
                              **kwargs)

        monkeypatch.setattr(harness, "run_single", failing)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        missing = base_config(profile_path, tmp_path / "missing", epochs_per_task=1)
        missing["data"] = {"path": str(tmp_path / "no_such_dataset")}
        experiments = [
            (base_config(profile_path, tmp_path / "first", epochs_per_task=1), None),
            (missing, None),  # fails while it is prepared
            (base_config(profile_path, tmp_path / "runs", epochs_per_task=1),
             {"learning_rate": 0.2}),  # every run fails
            (base_config(profile_path, tmp_path / "last", epochs_per_task=1), {}),
        ]
        with pytest.raises(DataFormatError) as caught:  # the first failure's class
            harness.run_experiments(
                [(harness.config_from_dict(raw), hp) for raw, hp in experiments])
        message = str(caught.value)
        assert f"{tmp_path / 'missing'} failed: cannot read" in message
        assert f"{tmp_path / 'runs'} failed: every run failed" in message
        for name in ("first", "last"):
            assert f"{tmp_path / name} failed" not in message
        assert not (tmp_path / "missing").exists()
        for name, statuses in (("first", ["ok", "ok"]), ("runs", ["failed", "failed"]),
                               ("last", ["ok", "ok"])):
            metadata = json.loads((tmp_path / name / "metadata.json").read_text())
            assert [run["status"] for run in metadata["runs"]] == statuses
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_happy_path_tune_run_report(self, profile_path, tmp_path, capsys):
        raw = base_config(profile_path, tmp_path / "out", n_runs=1)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        assert cli_main(["tune", str(cfg)]) == 0
        assert cli_main(["run", str(cfg)]) == 0
        assert cli_main(["report", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "using tuned hyperparameters" in out
        assert "summary tables" in out

    @pytest.mark.parametrize("content", [
        [1], {}, {"chosen": [1], "candidates": [{}], "audit_accesses_beyond_first_two": 0,
                  "fingerprint": "f"},
        {"chosen": {}, "candidates": [{}], "audit_accesses_beyond_first_two": -1,
         "fingerprint": "f"},
        "{not json",
    ], ids=["list", "empty", "chosen-list", "negative-audit", "not-json"])
    def test_malformed_tune_json_exits_2_before_any_training(
        self, profile_path, tmp_path, monkeypatch, capsys, content
    ):
        monkeypatch.setattr(harness, "run_single", _no_training)
        out = tmp_path / "out"
        out.mkdir()
        text = content if isinstance(content, str) else json.dumps(content)
        (out / "tune.json").write_text(text)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(profile_path, out)))
        assert cli_main(["run", str(cfg)]) == 2
        assert "tune.json" in capsys.readouterr().err
        assert not (out / "metadata.json").exists()

    @pytest.mark.parametrize("explicit", [True, False], ids=["explicit-empty", "absent"])
    def test_tune_json_applies_only_without_hyperparams_flag(
        self, profile_path, tmp_path, capsys, explicit
    ):
        out = tmp_path / "out"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(profile_path, out, n_runs=1, epochs_per_task=1,
                                              grid={"learning_rate": [0.05, 0.2]})))
        assert cli_main(["tune", str(cfg)]) == 0
        tuned = harness.read_tune_result(out / "tune.json")["chosen"]
        assert tuned
        argv = ["run", str(cfg)]
        if explicit:
            (tmp_path / "hp.json").write_text("{}")
            argv += ["--hyperparams", str(tmp_path / "hp.json")]
        assert cli_main(argv) == 0
        metadata = json.loads((out / "metadata.json").read_text())
        assert metadata["chosen_hyperparams"] == ({} if explicit else tuned)
        assert ("using tuned hyperparameters" in capsys.readouterr().out) is not explicit

    def test_generate_data_writes_loadable_cohort(self, tmp_path, capsys):
        out = tmp_path / "cohort.npz"
        assert cli_main(["generate-data", "sites3", str(out), "--seed", "2"]) == 0
        from seqcl.datagen import load_dataset

        cohort = load_dataset(out)
        assert cohort.n_samples > 0
        assert "site" in cohort.domains

    def test_configuration_error_exits_2(self, profile_path, tmp_path):
        raw = base_config(profile_path, tmp_path, strategy="pnn")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        assert cli_main(["run", str(cfg)]) == 2

    def test_non_finite_learning_rate_exits_2(self, profile_path, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(profile_path, tmp_path / "out",
                                              learning_rate=NAN)))
        assert '"learning_rate": NaN' in cfg.read_text()
        assert cli_main(["run", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()

    def test_negative_seed_exits_2_from_generate_data(self, tmp_path, capsys):
        out = tmp_path / "cohort.npz"
        assert cli_main(["generate-data", "sites3", str(out), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("noise_scale", NAN), ("label_amplitude", INF), ("n_patients", "240"),
    ])
    @pytest.mark.parametrize("command", ["generate-data", "run"])
    def test_bad_profile_scalar_exits_2_before_writing(self, tmp_path, capsys,
                                                       command, key, value):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({**small_profile(), key: value}))
        out = tmp_path / "out"
        if command == "run":
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(base_config(profile, out)))
            argv = ["run", str(cfg)]
        else:
            argv = ["generate-data", str(profile), str(out)]
        assert cli_main(argv) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_run_failure_exits_3(self, profile_path, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise SeqclError("planted failure")

        monkeypatch.setattr(harness, "run_single", broken)
        raw = base_config(profile_path, tmp_path / "out", n_runs=1)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        assert cli_main(["run", str(cfg)]) == 3

    def test_report_on_missing_directory_fails(self, tmp_path):
        assert cli_main(["report", str(tmp_path / "nope")]) == 3

    @pytest.mark.parametrize("argv,unreadable", [
        (["run", "{missing}"], "missing"), (["tune", "{missing}"], "missing"),
        (["sweep", "{missing}", "--axis", "curriculum"], "missing"),
        (["run", "{config}", "--hyperparams", "{missing}"], "missing"),
        (["sweep", "{config}", "--axis", "curriculum", "--hyperparams", "{missing}"], "missing"),
        (["run", "{directory}"], "directory"), (["run", "{binary}"], "binary"),
        (["generate-data", "{binary}", "{out}"], "binary"),
        (["run", "{binary_profile_config}"], "binary"),
    ], ids=["run", "tune", "sweep", "run-hyperparams", "sweep-hyperparams", "directory",
            "binary", "generate-data-binary-profile", "run-binary-profile"])
    def test_unreadable_input_file_exits_2_naming_it(self, profile_path, tmp_path, capsys,
                                                     argv, unreadable):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(profile_path, tmp_path / "out")))
        (tmp_path / "directory").mkdir()
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe{")
        binary_profile_config = tmp_path / "binary_profile_config.json"
        binary_profile_config.write_text(json.dumps(
            base_config(tmp_path / "binary.json", tmp_path / "out")))
        paths = {"missing": tmp_path / "missing.json", "config": cfg,
                 "directory": tmp_path / "directory", "binary": tmp_path / "binary.json",
                 "binary_profile_config": binary_profile_config, "out": tmp_path / "out"}
        assert cli_main([arg.format(**paths) for arg in argv]) == 2
        assert str(paths[unreadable]) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name,damage", [
        ("g0/metadata.json", lambda meta: {k: v for k, v in meta.items() if k != "fingerprint"}),
        ("g0/metadata.json", lambda meta: {**meta, "runs": [{"run": "0", "status": "ok"}]}),
        ("g0/metadata.json", lambda meta: {**meta, "config": {"strategy": "naive"}}),
        ("g0/metadata.json", lambda meta: "{truncated"),
        ("g0/run_00.jsonl", lambda header: {"run": 0}),
        ("g0/run_00.jsonl", lambda header: "not json"),
        ("g0/run_00.jsonl", b'{"trunc'),
        ("g0/run_00.jsonl", b"\xff\xff"),
    ], ids=["metadata-no-fingerprint", "metadata-run-text", "metadata-config-no-epochs",
            "metadata-not-json", "header-no-fingerprint", "header-not-json",
            "record-truncated", "record-undecodable"])
    def test_malformed_results_file_exits_3_naming_it(self, tmp_path, capsys, name, damage):
        """``damage`` rewrites the file's first line, or is bytes appended to it."""
        write_fake_experiment(tmp_path / "sw" / "g0", [[[0.8], [0.7, 0.9]]])
        assert cli_main(["report", str(tmp_path / "sw")]) == 0
        path = tmp_path / "sw" / name
        if isinstance(damage, bytes):
            path.write_bytes(path.read_bytes() + damage)
        else:
            first, *rest = path.read_text().splitlines(keepends=True)
            damaged = damage(json.loads(first))
            text = damaged if isinstance(damaged, str) else json.dumps(damaged)
            path.write_text("".join([text + "\n", *rest]))
        capsys.readouterr()
        assert cli_main(["report", str(tmp_path / "sw")]) == 3
        err = capsys.readouterr().err
        assert path.name in err
        if damage == b'{"trunc':  # the appended line, after the header and five records
            assert "line 7 is not valid JSON" in err

    @pytest.mark.parametrize("values", ["1.5", "0,1.5"])
    def test_wrong_typed_sweep_value_exits_2_before_any_group_runs(
        self, profile_path, tmp_path, values
    ):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(profile_path, tmp_path / "sw")))
        argv = ["sweep", str(cfg), "--axis", "curriculum", "--values", values]
        assert cli_main(argv) == 2
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_wrong_typed_hyperparams_file_exits_2_before_any_run(
        self, profile_path, tmp_path, command
    ):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_config(profile_path, tmp_path / "out")))
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"batch_size": 2.7}))
        argv = [command, str(cfg), "--hyperparams", str(hp)]
        if command == "sweep":
            argv += ["--axis", "curriculum", "--values", "0,1"]
        assert cli_main(argv) == 2
        assert not (tmp_path / "out").exists()

    def test_wrong_typed_grid_exits_2_from_tune(self, profile_path, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(
            base_config(profile_path, tmp_path / "out", grid={"batch_size": ["abc"]})))
        assert cli_main(["tune", str(cfg)]) == 2

    @pytest.mark.parametrize("command,strategy,hyperparams", [
        ("tune", "replay", {"patterns_per_exp": ["x"]}),
        ("run", "ewc", {"ewc_lambda": "abc"}),
        ("sweep", "gem", {"qp_iters": 2.7}),
    ], ids=["tune", "run", "sweep"])
    def test_bad_strategy_values_exit_2_before_any_training(
        self, profile_path, tmp_path, monkeypatch, command, strategy, hyperparams
    ):
        monkeypatch.setattr(harness, "run_single", _no_training)
        raw = base_config(profile_path, tmp_path / "out", strategy=strategy)
        argv = [command, str(tmp_path / "config.json")]
        if command == "tune":
            raw["grid"] = hyperparams
        else:
            (tmp_path / "hp.json").write_text(json.dumps(hyperparams))
            argv += ["--hyperparams", str(tmp_path / "hp.json")]
        if command == "sweep":
            argv += ["--axis", "curriculum", "--values", "0,1"]
        (tmp_path / "config.json").write_text(json.dumps(raw))
        assert cli_main(argv) == 2
        assert not (tmp_path / "out").exists()

    def test_sweep_values_parsed_from_csv_text(self, profile_path, tmp_path):
        raw = base_config(
            profile_path, tmp_path / "sw", n_runs=1, epochs_per_task=1
        )
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        assert cli_main(
            ["sweep", str(cfg), "--axis", "curriculum", "--values", "0,1"]
        ) == 0
        assert [json.loads((tmp_path / "sw" / f"curriculum_{k}" / "metadata.json").read_text())
                ["config"]["curriculum"] for k in (0, 1)] == [0, 1]

    @pytest.mark.parametrize("error,code", [(DataError, 2), (SeqclError, 3)])
    def test_a_failed_sweep_group_exits_with_its_error_code(
        self, profile_path, tmp_path, monkeypatch, capsys, error, code
    ):
        fail_curricula(monkeypatch, {1: error})
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(
            base_config(profile_path, tmp_path / "sw", n_runs=1, epochs_per_task=1)))
        argv = ["sweep", str(cfg), "--axis", "curriculum", "--values", "0,1,2"]
        assert cli_main(argv) == code
        assert "curriculum_1 failed: planted failure" in capsys.readouterr().err
        for k in (0, 2):
            assert (tmp_path / "sw" / f"curriculum_{k}" / "metadata.json").exists()
