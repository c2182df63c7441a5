"""Cohort synthesis, task splitting, partitioning, on-disk format."""

import dataclasses
import importlib.util
import json
import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcl import datagen as dg
from seqcl.blobio import BLOB_NAME, MANIFEST_NAME
from seqcl.errors import ConfigurationError, DataError, DataFormatError
from seqcl.rules import required_fields


def small_profile(n_domains=2, n_patients=60, noise=1.0, shift=2.0, prevalence=0.2,
                  seq_len=12, admissions=(1.0,)):
    dt, ds = 4, 2
    return dg.ShiftProfile(
        n_patients=n_patients,
        n_timevarying=dt,
        n_static=ds,
        seq_len=seq_len,
        noise_scale=noise,
        base_prevalence=prevalence,
        admission_probs=admissions,
        domains={
            "site": [
                dg.DomainSpec(
                    name=f"s{j}",
                    mean_offset=off,
                    prevalence=prevalence,
                )
                for j, off in enumerate(dg.domain_offset_vectors(n_domains, dt, ds, shift))
            ]
        },
    ).validate()


def test_same_seed_is_bitwise_identical():
    prof = small_profile()
    a = dg.generate_cohort(prof, seed=5)
    b = dg.generate_cohort(prof, seed=5)
    assert np.array_equal(a.timevarying, b.timevarying)
    assert np.array_equal(a.statics, b.statics)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.patient_ids, b.patient_ids)
    c = dg.generate_cohort(prof, seed=6)
    assert not np.array_equal(a.timevarying, c.timevarying)


def test_prevalence_concentrates_near_target():
    prof = small_profile(n_patients=5000, prevalence=0.10)
    cohort = dg.generate_cohort(prof, seed=1)
    frac = cohort.labels.mean()
    assert abs(frac - 0.10) <= 0.02


def test_zero_noise_identical_domains_have_equal_means():
    dt, ds = 4, 2
    shared = np.zeros(dt + ds)
    prof = dg.ShiftProfile(
        n_patients=40,  # even, one admission each, 2 domains
        n_timevarying=dt,
        n_static=ds,
        seq_len=6,
        noise_scale=0.0,
        base_prevalence=0.25,
        admission_probs=(1.0,),
        domains={
            "site": [
                dg.DomainSpec(name="a", mean_offset=shared, prevalence=0.25),
                dg.DomainSpec(name="b", mean_offset=shared, prevalence=0.25),
            ]
        },
    ).validate()
    cohort = dg.generate_cohort(prof, seed=3)
    values = np.asarray(cohort.domains["site"])
    mean_a = cohort.timevarying[values == "a"].mean(axis=0)
    mean_b = cohort.timevarying[values == "b"].mean(axis=0)
    # same label mix and no stochastic variation: identical arithmetic
    if (cohort.labels[values == "a"].mean() == cohort.labels[values == "b"].mean()):
        assert np.allclose(mean_a, mean_b, atol=1e-12)
    else:
        pytest.fail("label allocation should be count-exact per domain")


def test_admissions_of_one_patient_share_domains():
    prof = small_profile(n_patients=30, admissions=(0.2, 0.5, 0.3))
    cohort = dg.generate_cohort(prof, seed=9)
    values = np.asarray(cohort.domains["site"])
    for pid in np.unique(cohort.patient_ids):
        mask = cohort.patient_ids == pid
        assert len(set(values[mask].tolist())) == 1


def test_cross_domain_probe_error_grows_with_offset(caplog):
    """A linear probe fit on one domain degrades more the bigger the shift."""

    def probe_error(shift):
        errs = []
        for seed in range(6):
            prof = small_profile(n_patients=500, shift=shift, prevalence=0.4,
                                 noise=0.8, seq_len=8)
            cohort = dg.generate_cohort(prof, seed=seed)
            values = np.asarray(cohort.domains["site"])
            feats = cohort.timevarying[:, 4:, :].mean(axis=1)  # late-stay summary
            a, b = np.flatnonzero(values == "s0"), np.flatnonzero(values == "s1")
            xa, ya = feats[a], cohort.labels[a]
            # Fisher discriminant fit on domain A only (independent of the package)
            mu1, mu0 = xa[ya == 1].mean(axis=0), xa[ya == 0].mean(axis=0)
            cov = np.cov(xa.T) + 1e-3 * np.eye(xa.shape[1])
            w = np.linalg.solve(cov, mu1 - mu0)
            thresh = w @ (mu1 + mu0) / 2.0
            pred_b = (feats[b] @ w > thresh).astype(int)
            errs.append(float((pred_b != cohort.labels[b]).mean()))
        return float(np.mean(errs))

    errors = [probe_error(s) for s in (0.0, 0.4, 0.8, 1.6, 3.0)]
    for lo, hi in zip(errors, errors[1:]):
        assert hi >= lo - 0.02, f"degradation not monotone: {errors}"
    assert errors[-1] > errors[0] + 0.05


def test_split_tasks_drops_single_class_domains(caplog):
    rng = np.random.default_rng(0)
    n = 30
    cohort = dg.CohortDataset(
        timevarying=rng.normal(size=(n, 4, 3)),
        statics=rng.normal(size=(n, 1)),
        labels=np.array([1, 0] * 5 + [0] * 10 + [1, 0] * 5),
        patient_ids=np.arange(n, dtype=np.int64),
        domains={"ward": np.array(["A"] * 10 + ["B"] * 10 + ["C"] * 10)},
    )
    with caplog.at_level(logging.WARNING):
        tasks = dg.split_tasks(cohort, "ward", order_seed=1)
    assert sorted(t.name for t in tasks) == ["A", "C"]
    assert any("B" in rec.message for rec in caplog.records)
    # explicit curriculum fixes order
    tasks = dg.split_tasks(cohort, "ward", curriculum=["C", "A"])
    assert [t.name for t in tasks] == ["C", "A"]
    with pytest.raises(ConfigurationError):
        dg.split_tasks(cohort, "ward", curriculum=["B", "A"])
    with pytest.raises(ConfigurationError):
        dg.split_tasks(cohort, "missing_key")


def test_split_tasks_needs_two_usable_domains():
    rng = np.random.default_rng(0)
    n = 20
    cohort = dg.CohortDataset(
        timevarying=rng.normal(size=(n, 4, 2)),
        statics=np.zeros((n, 0)),
        labels=np.array([1, 0] * 5 + [0] * 10),
        patient_ids=np.arange(n, dtype=np.int64),
        domains={"site": np.array(["A"] * 10 + ["B"] * 10)},
    )
    with pytest.raises(ConfigurationError, match="at least 2"):
        dg.split_tasks(cohort, "site")


def test_split_tasks_order_is_seeded_shuffle():
    prof = small_profile(n_domains=4, n_patients=200, prevalence=0.3)
    cohort = dg.generate_cohort(prof, seed=2)
    order1 = [t.name for t in dg.split_tasks(cohort, "site", order_seed=10)]
    order2 = [t.name for t in dg.split_tasks(cohort, "site", order_seed=10)]
    assert order1 == order2
    others = {tuple(t.name for t in dg.split_tasks(cohort, "site", order_seed=s)) for s in range(8)}
    assert len(others) > 1  # some seed produces a different order


def make_task(n_patients, seed=0, admissions=(1.0,), prevalence=0.3):
    prof = small_profile(n_domains=2, n_patients=n_patients * 2, prevalence=prevalence,
                         admissions=admissions)
    cohort = dg.generate_cohort(prof, seed=seed)
    values = np.asarray(cohort.domains["site"])
    idx = np.flatnonzero(values == "s0")
    return dg.Task(name="s0", data=cohort.subset(idx))


def test_partition_counts_with_validation():
    # 100 patients, single admission each: exactly 70 / 15 / 15
    prof = small_profile(n_domains=1, n_patients=100, prevalence=0.3)
    cohort = dg.generate_cohort(prof, seed=4)
    task = dg.Task(name="s0", data=cohort)
    part = dg.partition_task(task, with_validation=True, seed=8)
    assert len(np.unique(part.train.patient_ids)) == 70
    assert len(np.unique(part.val.patient_ids)) == 15
    assert len(np.unique(part.test.patient_ids)) == 15


def test_partition_counts_without_validation():
    prof = small_profile(n_domains=1, n_patients=10, prevalence=0.3)
    cohort = dg.generate_cohort(prof, seed=4)
    part = dg.partition_task(dg.Task(name="s0", data=cohort), with_validation=False, seed=8)
    assert len(np.unique(part.train.patient_ids)) == 7
    assert part.val is None
    assert len(np.unique(part.test.patient_ids)) == 3
    again = dg.partition_task(dg.Task(name="s0", data=cohort), with_validation=False, seed=8)
    assert np.array_equal(part.train.patient_ids, again.train.patient_ids)


def test_partition_keeps_multi_admission_patients_together():
    task = make_task(40, admissions=(0.3, 0.4, 0.3))
    part = dg.partition_task(task, with_validation=True, seed=3)
    train = set(part.train.patient_ids.tolist())
    val = set(part.val.patient_ids.tolist())
    test = set(part.test.patient_ids.tolist())
    assert not (train & val) and not (train & test) and not (val & test)
    # every admission of each patient landed in one partition
    total = part.train.n_samples + part.val.n_samples + part.test.n_samples
    assert total == task.data.n_samples


def test_partition_rejects_tiny_tasks():
    task = make_task(1)
    with pytest.raises(DataError):
        dg.partition_task(task, with_validation=True, seed=0)


@settings(max_examples=15, deadline=None)
@given(st.integers(4, 60), st.integers(0, 2**31 - 1), st.booleans())
def test_partition_patient_sets_are_pairwise_disjoint(n_patients, seed, with_val):
    task = make_task(max(n_patients, 4), seed=seed % 50, admissions=(0.5, 0.5))
    parts = dg.partition_task(task, with_validation=with_val, seed=seed)
    groups = [parts.train.patient_ids, parts.test.patient_ids]
    if parts.val is not None:
        groups.append(parts.val.patient_ids)
    seen = set()
    for g in groups:
        ids = set(g.tolist())
        assert not (ids & seen)
        seen |= ids


def test_dataset_roundtrip_is_bitwise(tmp_path):
    cohort = dg.generate_cohort(small_profile(), seed=11)
    dg.write_dataset(cohort, tmp_path / "cohort")
    back = dg.load_dataset(tmp_path / "cohort")
    assert np.array_equal(back.timevarying, cohort.timevarying)
    assert np.array_equal(back.statics, cohort.statics)
    assert np.array_equal(back.labels, cohort.labels)
    assert np.array_equal(back.patient_ids, cohort.patient_ids)
    assert np.array_equal(np.asarray(back.domains["site"]), np.asarray(cohort.domains["site"]))


def test_truncated_blob_error_names_byte_counts(tmp_path):
    cohort = dg.generate_cohort(small_profile(n_patients=10), seed=11)
    dg.write_dataset(cohort, tmp_path / "cohort")
    blob = (tmp_path / "cohort" / BLOB_NAME)
    data = blob.read_bytes()
    blob.write_bytes(data[: len(data) - 16])
    with pytest.raises(DataFormatError) as err:
        dg.load_dataset(tmp_path / "cohort")
    msg = str(err.value)
    assert str(len(data)) in msg and str(len(data) - 16) in msg


def test_handwritten_manifest_and_blob_load(tmp_path):
    """Two samples written out by hand, independent of write_dataset."""
    tv = np.array([[[1.0, 2.0]], [[3.0, 4.0]]])  # [2, 1, 2]
    stat = np.array([[0.5], [0.25]])
    labels = np.array([1, 0], dtype="<i8")
    pids = np.array([7, 8], dtype="<i8")
    codes = np.array([0, 1], dtype="<i8")
    blobs = [
        tv.astype("<f8").tobytes(),
        stat.astype("<f8").tobytes(),
        labels.tobytes(),
        pids.tobytes(),
        codes.tobytes(),
    ]
    names = ["timevarying", "statics", "labels", "patient_ids", "domain:site"]
    shapes = [[2, 1, 2], [2, 1], [2], [2], [2]]
    dtypes = ["<f8", "<f8", "<i8", "<i8", "<i8"]
    entries, offset = [], 0
    for name, blob, shape, dt in zip(names, blobs, shapes, dtypes):
        entries.append({"name": name, "offset": offset, "shape": shape,
                        "dtype": dt, "byte_length": len(blob)})
        offset += len(blob)
    manifest = {
        "format": "seqcl-bundle-v1",
        "total_bytes": offset,
        "arrays": entries,
        "header": {
            "payload": "cohort",
            "n_samples": 2,
            "seq_len": 1,
            "n_timevarying": 2,
            "n_static": 1,
            "domain_vocabularies": {"site": ["east", "west"]},
        },
    }
    d = tmp_path / "hand"
    d.mkdir()
    (d / MANIFEST_NAME).write_text(json.dumps(manifest))
    (d / BLOB_NAME).write_bytes(b"".join(blobs))
    cohort = dg.load_dataset(d)
    assert np.array_equal(cohort.timevarying, tv)
    assert np.array_equal(cohort.statics, stat)
    assert cohort.labels.tolist() == [1, 0]
    assert cohort.patient_ids.tolist() == [7, 8]
    assert np.asarray(cohort.domains["site"]).tolist() == ["east", "west"]


def test_builtin_profiles_and_streams():
    for name, key, count in (("age6", "age", 6), ("ward5", "ward", 5),
                             ("season4", "season", 4), ("ethnicity5", "ethnicity", 5)):
        prof = dg.builtin_profile(name)
        assert len(prof.domains[key]) == count
    prof = dg.builtin_profile("hospital20")
    assert len(prof.domains["hospital"]) == 20
    conflicting = dg.conflicting_stream_profile(n_patients=300, **dg.SITES3_STREAM)
    prof = dg.resolve_profile(json.loads(json.dumps(conflicting)))
    directions = [np.asarray(d["label_direction"]) for d in conflicting["domains"]["site"]]
    assert [d.name for d in prof.domains["site"]] == ["site00", "site01", "site02"]
    assert np.allclose(directions[2], -directions[0])  # 180 degrees: opposing signals
    assert abs(directions[0] @ directions[1]) < 1e-12
    with pytest.raises(ConfigurationError):
        dg.builtin_profile("nonsense")
    with pytest.raises(ConfigurationError):
        dg.builtin_profile("hospital1")
    with pytest.raises(ConfigurationError, match="dt=4"):
        dg.conflicting_stream_profile(
            n_patients=300, **{**dg.SITES3_STREAM, "dt": 4, "angles_deg": (0.0, 180.0)})


def test_benchmark_streams_are_the_datagen_presets():
    # the benchmark keeps its own profile builders; loaded from file, only read
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for n in (240, 1000, 5000):
        assert workloads.sites3_profile(n) == dg.conflicting_stream_profile(
            n_patients=n, **dg.SITES3_STREAM)
        assert workloads.hospital20_profile(n) == dg.conflicting_stream_profile(
            n_patients=n, **dg.HOSPITAL20_STREAM)


def test_every_builtin_task_has_both_classes():
    prof = dg.builtin_profile("sites3")
    cohort = dg.generate_cohort(prof, seed=0)
    tasks = dg.split_tasks(cohort, "site", order_seed=0)
    assert len(tasks) == 3
    for task in tasks:
        assert 0 < task.data.labels.sum() < task.data.n_samples


def test_profile_json_roundtrip(tmp_path):
    prof = small_profile()
    payload = {
        "n_patients": prof.n_patients,
        "n_timevarying": prof.n_timevarying,
        "n_static": prof.n_static,
        "seq_len": prof.seq_len,
        "noise_scale": prof.noise_scale,
        "base_prevalence": prof.base_prevalence,
        "admission_probs": list(prof.admission_probs),
        "domains": {"site": [
            {"name": s.name, "mean_offset": s.mean_offset.tolist(), "prevalence": s.prevalence}
            for s in prof.domains["site"]
        ]},
    }
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(payload))
    back = dg.resolve_profile(str(path))
    assert back.n_patients == prof.n_patients
    assert np.allclose(
        back.domains["site"][1].mean_offset, prof.domains["site"][1].mean_offset
    )
    a, b = dg.generate_cohort(prof, seed=3), dg.generate_cohort(back, seed=3)
    assert np.array_equal(a.timevarying, b.timevarying)
    assert np.array_equal(a.labels, b.labels)
    with pytest.raises(ConfigurationError):
        dg.ShiftProfile.from_json_dict({"n_patients": 5, "bogus": 1})


@pytest.mark.parametrize("key,value", [
    ("noise_scale", float("nan")), ("label_amplitude", float("inf")), ("n_patients", "240"),
    ("n_patients", 240.0), ("n_static", -1), ("seq_len", True), ("base_prevalence", 1.0),
    ("noise_scale", -0.5), ("label_signal", "step"),
])
def test_profile_scalars_are_checked_by_their_rules(key, value):
    payload = {"n_patients": 40, "domains": {"site": [
        {"name": "a", "mean_offset": [0.0] * 10, "prevalence": 0.3}]}}
    dg.ShiftProfile.from_json_dict(payload)
    with pytest.raises(ConfigurationError, match=key):
        dg.ShiftProfile.from_json_dict({**payload, key: value})


def test_readme_profile_table_matches_the_rules():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for header, rules, cls in (
        ("| field | meaning | accepted values | default |", dg.PROFILE_RULES, dg.ShiftProfile),
        ("| entry key | meaning | accepted values | default |", dg.DOMAIN_RULES, dg.DomainSpec),
    ):
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        documented = set()
        for line in text[text.index(header):].splitlines()[2:]:
            if not line.startswith("|"):
                break
            field, _, accepted, default = (cell.strip() for cell in line.strip("|").split("|"))
            key = field.strip("`")
            documented.add(key)
            assert accepted == rules[key].what, key
            if default == "required":
                assert key in required_fields(cls), key
            else:  # JSON has no tuples: compare in JSON's terms
                want = json.loads(json.dumps(defaults[key]))
                assert json.loads(default.strip("`")) == want, key
        assert documented == set(rules)


def test_directory_named_like_a_profile_is_not_read_as_one(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sites3").mkdir()
    (tmp_path / "dir.json").mkdir()
    assert dg.resolve_profile("sites3").n_patients == dg.builtin_profile("sites3").n_patients
    for missing in ("dir.json", "missing.json"):
        with pytest.raises(ConfigurationError, match="not found"):
            dg.resolve_profile(missing)
