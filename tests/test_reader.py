"""Every mapping read from outside goes through ``rules.read``.

A config, its ``data``, ``architecture`` and ``grid``, strategy
hyperparameters, a cohort profile, each of its domain entries and a dataset
manifest either load or fail with the package's own error, which the CLI
turns into exit code 2 before anything is written.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcl import datagen as dg
from seqcl import harness
from seqcl.blobio import MANIFEST_NAME
from seqcl.cli import main as cli_main
from seqcl.errors import ConfigurationError, DataFormatError
from seqcl.rules import COUNT, read
from seqcl.strategies import build_strategy

NAN, INF = float("nan"), float("inf")
DROP, UNKNOWN = "<drop the key>", "<add an unknown key>"
MUTATIONS = [DROP, UNKNOWN, None, "x", NAN, INF, -1, [], {}]


def entry(name, offset, **extra):
    return {"name": name, "mean_offset": offset, "prevalence": 0.3, **extra}


PROFILE = {
    "n_patients": 40, "n_timevarying": 3, "n_static": 1, "seq_len": 6,
    "noise_scale": 1.0, "base_prevalence": 0.2, "label_amplitude": 2.0,
    "label_signal": "level", "admission_probs": [0.5, 0.5],
    "domains": {"site": [
        entry("a", [2.0, 0.0, 0.0, 1.0], label_direction=[1.0, 0.0, 0.0]),
        entry("b", [0.0, 2.0, 0.0, -1.0]),
    ]},
}

CONFIG = {
    "data": {"profile": "sites3", "seed": 7}, "domain_key": "site",
    "architecture": {"kind": "lstm", "n_layers": 1, "hidden_dim": 8, "bidirectional": True},
    "strategy": "gdumb", "output_dir": "out",
    "grid": {"mem_size": [4, 8], "learning_rate": [0.1]},
    "curriculum": 0, "epochs_per_task": 2, "batch_size": 32, "learning_rate": 0.1,
    "momentum": 0.0, "n_runs": 2, "buffer_budget": 8, "master_seed": 5,
}


def mutated(mapping, key, mutation):
    out = copy.deepcopy(mapping)
    if mutation == DROP:
        del out[key]
    elif mutation == UNKNOWN:
        out["not_a_key"] = 1
    else:
        out[key] = copy.deepcopy(mutation)
    return out


def nested(parent, key, value):
    return {**copy.deepcopy(parent), key: value}


def load_profile(payload):
    dg.generate_cohort(dg.resolve_profile(payload), seed=0)  # a loaded profile is usable


# target -> (a valid mapping, a loader of that mapping after mutation)
TARGETS = {
    "config": (CONFIG, harness.config_from_dict),
    "data": (CONFIG["data"], lambda m: harness.config_from_dict(nested(CONFIG, "data", m))),
    "architecture": (CONFIG["architecture"], lambda m: harness.config_from_dict(
        nested(CONFIG, "architecture", m))),
    "grid": (CONFIG["grid"], lambda m: harness.config_from_dict(nested(CONFIG, "grid", m))),
    "hyperparameters": ({"ewc_lambda": 2.0, "fisher_batch_size": 16},
                        lambda m: build_strategy("ewc", m)),
    "profile": (PROFILE, load_profile),
    "domain entry": (PROFILE["domains"]["site"][0], lambda m: load_profile(
        nested(PROFILE, "domains", {"site": [m, PROFILE["domains"]["site"][1]]}))),
}


@pytest.mark.parametrize("target", TARGETS)
def test_valid_mappings_load(target):
    mapping, load = TARGETS[target]
    load(copy.deepcopy(mapping))


@pytest.mark.parametrize("target", TARGETS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_mutated_key_loads_or_is_a_configuration_error(target, data):
    mapping, load = TARGETS[target]
    key = data.draw(st.sampled_from(sorted(mapping)), label="key")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    try:
        load(mutated(mapping, key, mutation))
    except ConfigurationError:
        return
    assert mutation != UNKNOWN, "an unknown key was accepted"


def test_read_names_what_it_rejects():
    rules = {"a": COUNT, "b": COUNT}
    assert read(rules, {"b": 2, "a": 1}, "m", ("a",)) == {"a": 1, "b": 2}
    for raw, message in (([1], r"m must be a mapping, got \[1\]"),
                         ({"a": 1, "c": 2}, r"m: unknown keys \['c'\]"),
                         ({"b": 1}, r"m: missing keys \['a'\]"),
                         ({"a": 1.5}, r"m.a must be an int >= 1, got 1.5")):
        with pytest.raises(ConfigurationError, match=message):
            read(rules, raw, "m", ("a",))


# ---------------------------------------------------------------------------
# each input below once ended in a traceback or in a written cohort


def _without(key):
    return lambda p: p["domains"]["site"][0].pop(key)


def _set_entry(key, value):
    return lambda p: p["domains"]["site"][0].__setitem__(key, value)


BAD_PROFILES = {
    "entry without name": _without("name"),
    "entry without mean_offset": _without("mean_offset"),
    "text mean_offset": _set_entry("mean_offset", "abc"),
    "NaN admission_probs": lambda p: p.__setitem__("admission_probs", [NAN, 1]),
    "text admission_probs": lambda p: p.__setitem__("admission_probs", "ab"),
    "domains a list": lambda p: p.__setitem__("domains", [1]),
    "entry a number": lambda p: p["domains"]["site"].__setitem__(0, 5),
    "no n_patients": lambda p: p.pop("n_patients"),
    "NaN in mean_offset": lambda p: p["domains"]["site"][0]["mean_offset"].__setitem__(1, NAN),
    "text prevalence": _set_entry("prevalence", "0.3"),
    "infinite label_direction": _set_entry("label_direction", [INF, 0.0, 0.0]),
    "number name": _set_entry("name", 7),
    "unknown entry key": _set_entry("prevalance", 0.3),
}


@pytest.mark.parametrize("defect", BAD_PROFILES)
def test_bad_profile_exits_2_from_generate_data(tmp_path, defect):
    profile = copy.deepcopy(PROFILE)
    BAD_PROFILES[defect](profile)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    assert cli_main(["generate-data", str(path), str(tmp_path / "cohort")]) == 2
    assert not (tmp_path / "cohort").exists()


def _profile_config(tmp_path, **overrides):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(PROFILE))
    raw = {**CONFIG, "data": {"profile": str(path)}, "strategy": "naive",
           "architecture": {"kind": "mlp", "n_layers": 1, "hidden_dim": 4},
           "grid": {"learning_rate": [0.1]}, "n_runs": 1,
           "output_dir": str(tmp_path / "out"), **overrides}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    return cfg


@pytest.mark.parametrize("key,value", [
    ("architecture", 5), ("grid", 5), ("output_dir", 3), ("data", "sites3"),
])
def test_bad_config_mapping_exits_2_from_run(tmp_path, capsys, key, value):
    cfg = _profile_config(tmp_path, **{key: value})
    assert cli_main(["run", str(cfg)]) == 2
    assert f"config.{key} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


BAD_MANIFESTS = {
    "no header": lambda m: m.pop("header"),
    "entry without name": lambda m: m["arrays"][0].pop("name"),
    "no domain_vocabularies": lambda m: m["header"].pop("domain_vocabularies"),
    "negative offset": lambda m: m["arrays"][1].__setitem__("offset", -8),
    "text shape": lambda m: m["arrays"][0].__setitem__("shape", "ab"),
    "trailing 0xff byte": lambda m: json.dumps(m).encode() + b"\xff",
}


@pytest.mark.parametrize("defect", BAD_MANIFESTS)
def test_bad_manifest_is_a_data_format_error_and_exits_2(tmp_path, capsys, defect):
    """A defect edits the manifest in place, or returns the bytes to write."""
    bundle = tmp_path / "cohort"
    dg.write_dataset(dg.generate_cohort(dg.resolve_profile(PROFILE), seed=0), bundle)
    dg.load_dataset(bundle)
    manifest = json.loads((bundle / MANIFEST_NAME).read_text())
    damaged = BAD_MANIFESTS[defect](manifest)
    (bundle / MANIFEST_NAME).write_bytes(
        damaged if isinstance(damaged, bytes) else json.dumps(manifest).encode())
    with pytest.raises(DataFormatError):
        dg.load_dataset(bundle)
    cfg = _profile_config(tmp_path, data={"path": str(bundle)})
    assert cli_main(["run", str(cfg)]) == 2
    assert str(bundle / MANIFEST_NAME) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
