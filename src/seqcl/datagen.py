"""Synthetic domain-shifted cohorts of clinical-style time series.

A cohort holds hourly multivariate sequences (default 48 steps), static
features, a binary outcome per admission, integer patient ids, and one or
more categorical domain labels per admission (age band, ward, season,
ethnicity, hospital). Domain membership is a patient-level attribute: every
admission of a patient carries the same values.

Generation model. Each admission's time-varying block is

    x[t] = baseline(t) + offset_tv(domain) + y * amp * ramp(t) * u + noise

where ``u`` is a fixed unit "label direction", ``ramp`` rises linearly over
the stay, and noise is AR(1) over time plus a per-patient trait, all scaled
by ``noise_scale``. Statics get the domain's static offset plus patient
noise. Domain offsets decompose as

    offset_tv = shift_scale * (cos(phi_d) * u + sin(phi_d) * w_d)

with per-domain orthogonal directions ``w_d``: the ``u`` component moves the
optimal decision threshold between domains (a probe fit on one domain
degrades on a far one, and degrades more the larger the offset), while the
``w_d`` and static components make domains identifiable so joint training
can recover. Labels are drawn with exact per-domain-cell counts
(round(prevalence * n)), so prevalence is honored deterministically and a
zero-noise cohort with identical domain specs has exactly equal feature
means.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blobio import read_bundle, write_bundle
from .errors import ConfigurationError, DataError, DataFormatError
from .rules import (
    COUNT, NON_NEGATIVE, OPEN_UNIT, SIZE, TEXT, VECTOR, VECTOR_OR_NULL, Rule, load_json, one_of,
    read, required_fields,
)

log = logging.getLogger(__name__)


@dataclass
class DomainSpec:
    """One value of one domain key: its name, mean offset, prevalence.

    ``label_direction`` optionally rotates the outcome signal for this
    domain within the time-varying feature space. Domains whose directions
    disagree force a later task's gradient updates to overwrite the feature
    weights an earlier task relied on, which is what makes sequential
    training actually degrade; leaving it None keeps the shared default
    direction.
    """

    name: str
    mean_offset: np.ndarray  # length n_timevarying + n_static
    prevalence: float
    label_direction: np.ndarray | None = None  # length n_timevarying

    def __post_init__(self):
        self.mean_offset = np.asarray(self.mean_offset, dtype=np.float64)
        if self.label_direction is not None:
            direction = np.asarray(self.label_direction, dtype=np.float64)
            norm = np.linalg.norm(direction)
            if norm == 0.0:
                raise ConfigurationError(
                    f"domain {self.name!r}: label_direction must be nonzero"
                )
            self.label_direction = direction / norm


# DomainSpec field -> rule; vector lengths and a zero direction are cross-field
DOMAIN_RULES = {
    "name": TEXT, "mean_offset": VECTOR, "prevalence": OPEN_UNIT,
    "label_direction": VECTOR_OR_NULL,
}

# ShiftProfile field -> rule; each domain entry goes through DOMAIN_RULES
PROFILE_RULES = {
    "n_patients": COUNT,
    "domains": Rule("a mapping from domain key to a nonempty list of domain entries",
                    lambda v: isinstance(v, dict) and len(v) > 0 and all(
                        isinstance(specs, (list, tuple)) and specs for specs in v.values())),
    "n_timevarying": COUNT, "n_static": SIZE, "seq_len": COUNT,
    "noise_scale": NON_NEGATIVE, "base_prevalence": OPEN_UNIT,
    "label_amplitude": NON_NEGATIVE, "label_signal": one_of(("ramp", "level")),
    "admission_probs": Rule(
        "a nonempty list of finite numbers >= 0 with a finite positive sum",
        lambda v: VECTOR.accepts(v) and min(v, default=-1) >= 0 and 0 < sum(v) < np.inf,
        tuple),
}


@dataclass
class ShiftProfile:
    """Everything generate_cohort needs to synthesise one cohort."""

    n_patients: int
    domains: dict  # key -> list[DomainSpec]
    n_timevarying: int = 8
    n_static: int = 2
    seq_len: int = 48
    noise_scale: float = 1.0
    base_prevalence: float = 0.10
    label_amplitude: float = 1.6
    # "ramp": signal grows linearly over the stay (detectable from temporal
    # contrasts, so robust to constant domain offsets). "level": constant
    # elevation, so the absolute feature level is the only evidence and
    # cross-domain shift genuinely degrades a single-domain classifier.
    label_signal: str = "ramp"
    admission_probs: tuple = (0.7, 0.2, 0.1)  # P(1), P(2), ... admissions

    def validate(self) -> "ShiftProfile":
        read(PROFILE_RULES, vars(self), "profile")
        dim = self.n_timevarying + self.n_static
        for key, specs in self.domains.items():
            for i, s in enumerate(specs):
                read(DOMAIN_RULES, vars(s), f"profile.domains.{key}[{i}]")
                if s.mean_offset.shape != (dim,):
                    raise ConfigurationError(
                        f"domain {key}:{s.name} offset must have length {dim}, "
                        f"got {s.mean_offset.shape}"
                    )
                if (s.label_direction is not None
                        and s.label_direction.shape != (self.n_timevarying,)):
                    raise ConfigurationError(
                        f"domain {key}:{s.name} label_direction must have length "
                        f"{self.n_timevarying}, got {s.label_direction.shape}"
                    )
            if len({s.name for s in specs}) != len(specs):
                raise ConfigurationError(f"domain key {key!r} has duplicate value names")
        return self

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ShiftProfile":
        values = read(PROFILE_RULES, payload, "profile", required_fields(cls))
        values["domains"] = {
            key: [DomainSpec(**read(DOMAIN_RULES, entry, f"profile.domains.{key}[{i}]",
                                    required_fields(DomainSpec)))
                  for i, entry in enumerate(entries)]
            for key, entries in values["domains"].items()
        }
        return cls(**values).validate()


@dataclass
class CohortDataset:
    """One synthetic cohort, admission-major."""

    timevarying: np.ndarray  # [N, T, Dt] float64
    statics: np.ndarray      # [N, Ds] float64
    labels: np.ndarray       # [N] int64 in {0, 1}
    patient_ids: np.ndarray  # [N] int64
    domains: dict            # key -> [N] array of value names (unicode)

    def __post_init__(self):
        n = self.timevarying.shape[0]
        if self.timevarying.ndim != 3:
            raise DataError("timevarying must be [N, T, D]")
        if self.statics.shape[0] != n or self.statics.ndim != 2:
            raise DataError("statics must be [N, D] aligned with timevarying")
        if self.labels.shape != (n,):
            raise DataError("labels must align with samples")
        if self.patient_ids.shape != (n,):
            raise DataError("patient_ids must align with samples")
        if n and not np.all(np.isin(self.labels, (0, 1))):
            raise DataError("labels must be binary 0/1")
        for key, values in self.domains.items():
            if len(values) != n:
                raise DataError(f"domain key {key!r} not aligned with samples")

    @property
    def n_samples(self) -> int:
        return self.timevarying.shape[0]

    @property
    def seq_len(self) -> int:
        return self.timevarying.shape[1]

    def features(self) -> np.ndarray:
        """Model-ready tensor: statics tiled over time and concatenated."""
        from .models import repeat_and_concat_statics

        return repeat_and_concat_statics(self.timevarying, self.statics)

    def subset(self, idx) -> "CohortDataset":
        idx = np.asarray(idx)
        return CohortDataset(
            timevarying=self.timevarying[idx],
            statics=self.statics[idx],
            labels=self.labels[idx],
            patient_ids=self.patient_ids[idx],
            domains={k: np.asarray(v)[idx] for k, v in self.domains.items()},
        )


def _label_direction(dim: int) -> np.ndarray:
    u = np.ones(dim)
    return u / np.linalg.norm(u)


def _orthogonal_directions(n: int, dim: int) -> list:
    """Deterministic unit directions orthogonal to the label direction."""
    u = _label_direction(dim)
    if dim == 1:
        return [np.zeros(1) for _ in range(n)]
    pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    out = []
    for j in range(n):
        a, b = pairs[j % len(pairs)]
        w = np.zeros(dim)
        w[a], w[b] = 1.0, -1.0 if (j // len(pairs)) % 2 == 0 else 1.0
        w = w - (w @ u) * u
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            w = np.zeros(dim)
            w[a] = 1.0
            w = w - (w @ u) * u
            norm = np.linalg.norm(w)
        out.append(w / norm)
    return out


def domain_offset_vectors(n_domains: int, n_timevarying: int, n_static: int,
                          shift_scale: float) -> list:
    """Structured per-domain offsets: a threshold-moving component along the
    label direction plus identifiable orthogonal and static components."""
    u = _label_direction(n_timevarying)
    ws = _orthogonal_directions(n_domains, n_timevarying)
    lo, hi = np.pi / 6.0, 5.0 * np.pi / 6.0
    out = []
    for j in range(n_domains):
        phi = lo if n_domains == 1 else lo + (hi - lo) * j / (n_domains - 1)
        tv = shift_scale * (np.cos(phi) * u + np.sin(phi) * ws[j])
        if n_static > 0:
            angle = 2.0 * np.pi * j / max(1, n_domains)
            static = 0.5 * shift_scale * np.array(
                [np.cos(angle), np.sin(angle)] + [0.0] * (n_static - 2)
            )[:n_static]
        else:
            static = np.zeros(0)
        out.append(np.concatenate([tv, static]))
    return out


def _baseline_trajectory(seq_len: int, dim: int) -> np.ndarray:
    """Fixed damped-rotation trace shared by every admission."""
    t = np.arange(seq_len, dtype=np.float64)
    decay = np.exp(-t / max(4.0, seq_len))
    phase = 2.0 * np.pi * np.arange(dim) / max(1, dim)
    a = np.sin(2.0 * np.pi * 1.5 * t / seq_len)[:, None] * np.cos(phase)[None, :]
    b = np.cos(2.0 * np.pi * 0.8 * t / seq_len)[:, None] * np.sin(phase)[None, :]
    return 0.5 * decay[:, None] * (a + b)


def _logit(p):
    return np.log(p) - np.log1p(-p)


def generate_cohort(profile: ShiftProfile, seed: int) -> CohortDataset:
    """Deterministic synthesis: same profile and seed give a bitwise-equal cohort."""
    profile = profile.validate()
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xC040)))
    n_pat = profile.n_patients
    t_len, dt, ds = profile.seq_len, profile.n_timevarying, profile.n_static

    # per-patient attributes
    probs = np.asarray(profile.admission_probs, dtype=np.float64)
    probs = probs / probs.sum()
    admissions = rng.choice(np.arange(1, probs.size + 1), size=n_pat, p=probs)
    keys = sorted(profile.domains)
    # balanced assignment: counts per value differ by at most one, placement seeded
    patient_domains = {}
    for key in keys:
        base_codes = np.arange(n_pat) % len(profile.domains[key])
        patient_domains[key] = base_codes[rng.permutation(n_pat)]

    pid = np.repeat(np.arange(n_pat, dtype=np.int64), admissions)
    n = pid.size
    dom_codes = {key: patient_domains[key][pid] for key in keys}

    # exact per-cell label counts
    labels = np.zeros(n, dtype=np.int64)
    base = profile.base_prevalence
    cell_key = np.zeros(n, dtype=np.int64)
    multiplier = 1
    for key in keys:
        cell_key += dom_codes[key] * multiplier
        multiplier *= len(profile.domains[key])
    for cell in np.unique(cell_key):
        members = np.flatnonzero(cell_key == cell)
        logit = _logit(base)
        first = members[0]
        for key in keys:
            spec = profile.domains[key][dom_codes[key][first]]
            logit += _logit(spec.prevalence) - _logit(base)
        p_cell = 1.0 / (1.0 + np.exp(-logit))
        n_pos = int(round(p_cell * members.size))
        order = rng.permutation(members.size)
        labels[members[order[:n_pos]]] = 1

    # feature synthesis
    u = _label_direction(dt)
    if profile.label_signal == "level":
        ramp = np.ones(t_len, dtype=np.float64)
    else:
        ramp = np.arange(t_len, dtype=np.float64) / max(1, t_len - 1)
    baseline = _baseline_trajectory(t_len, dt)
    amp = profile.label_amplitude

    offsets_tv = np.zeros((n, dt))
    offsets_st = np.zeros((n, ds))
    for key in keys:
        specs = profile.domains[key]
        stacked = np.stack([s.mean_offset for s in specs])
        offsets_tv += stacked[dom_codes[key], :dt]
        if ds:
            offsets_st += stacked[dom_codes[key], dt:]

    # per-sample outcome direction: the shared default unless this sample's
    # domain values override it (overrides from several keys are summed)
    directions = np.zeros((n, dt))
    overridden = np.zeros(n, dtype=bool)
    for key in keys:
        specs = profile.domains[key]
        has_dir = np.array([s.label_direction is not None for s in specs])
        if not has_dir.any():
            continue
        dir_rows = np.stack([
            s.label_direction if s.label_direction is not None else np.zeros(dt)
            for s in specs
        ])
        mask = has_dir[dom_codes[key]]
        directions[mask] += dir_rows[dom_codes[key]][mask]
        overridden |= mask

    scale = profile.noise_scale
    trait_tv = scale * 0.3 * rng.normal(size=(n_pat, dt))
    trait_st = scale * 0.5 * rng.normal(size=(n_pat, max(ds, 1)))[:, :ds]

    rho = 0.8
    white = rng.normal(size=(n, t_len, dt))
    noise = np.empty_like(white)
    noise[:, 0, :] = white[:, 0, :]
    for ti in range(1, t_len):
        noise[:, ti, :] = rho * noise[:, ti - 1, :] + np.sqrt(1 - rho * rho) * white[:, ti, :]
    noise *= scale

    if overridden.any():
        norms = np.linalg.norm(directions[overridden], axis=1, keepdims=True)
        directions[overridden] /= np.where(norms == 0.0, 1.0, norms)
    directions[~overridden] = u

    tv = (
        baseline[None, :, :]
        + offsets_tv[:, None, :]
        + labels[:, None, None] * amp * ramp[None, :, None] * directions[:, None, :]
        + trait_tv[pid][:, None, :]
        + noise
    )
    statics = offsets_st + trait_st[pid] + scale * 0.2 * rng.normal(size=(n, max(ds, 1)))[:, :ds]

    name_lookup = {key: np.array([s.name for s in profile.domains[key]]) for key in keys}
    domains = {key: name_lookup[key][dom_codes[key]] for key in keys}
    return CohortDataset(
        timevarying=tv,
        statics=statics if ds else np.zeros((n, 0)),
        labels=labels,
        patient_ids=pid,
        domains=domains,
    )


# ------------------------------------------------------------------ task split


@dataclass
class Task:
    """All admissions of one domain value."""

    name: str
    data: CohortDataset


@dataclass
class Partition:
    """Patient-level split of one task. Validation may be absent."""

    task_name: str
    train: CohortDataset
    val: CohortDataset | None
    test: CohortDataset


def split_tasks(cohort: CohortDataset, domain_key: str, order_seed: int = 0,
                curriculum=None) -> list:
    """Partition a cohort into tasks by domain value.

    Domains lacking either outcome class are dropped with a warning (a task
    with no positives or no negatives cannot be trained or scored). Order is
    a seeded shuffle, or exactly ``curriculum`` when given.
    """
    if domain_key not in cohort.domains:
        raise ConfigurationError(
            f"domain key {domain_key!r} not in cohort (has {sorted(cohort.domains)})"
        )
    values = np.asarray(cohort.domains[domain_key])
    kept = []
    for name in sorted(set(values.tolist())):
        idx = np.flatnonzero(values == name)
        pos = int(cohort.labels[idx].sum())
        if pos == 0 or pos == idx.size:
            log.warning(
                "dropping domain %s=%s: %d positives out of %d admissions",
                domain_key, name, pos, idx.size,
            )
            continue
        kept.append((name, idx))
    if curriculum is not None:
        by_name = dict(kept)
        missing = [c for c in curriculum if c not in by_name]
        if missing:
            raise ConfigurationError(
                f"curriculum names unknown or dropped domains: {missing}"
            )
        ordered = [(c, by_name[c]) for c in curriculum]
    else:
        order = np.random.default_rng(
            np.random.SeedSequence((int(order_seed), 0x7A5C))
        ).permutation(len(kept))
        ordered = [kept[i] for i in order]
    if len(ordered) < 2:
        raise ConfigurationError(
            f"need at least 2 usable tasks, got {len(ordered)} for key {domain_key!r}"
        )
    return [Task(name=name, data=cohort.subset(idx)) for name, idx in ordered]


def partition_task(task: Task, with_validation: bool, seed: int) -> Partition:
    """Patient-level 70:15:15 (with validation) or 70:30 split.

    Floor for train, then floor for validation, remainder to test; whole
    patients move together so identities never straddle partitions.
    """
    pids = np.unique(task.data.patient_ids)
    n = pids.size
    need = 3 if with_validation else 2
    if n < need:
        raise DataError(
            f"task {task.name!r} has {n} patients, needs at least {need} to split"
        )
    order = np.random.default_rng(np.random.SeedSequence((int(seed), 0x5917))).permutation(n)
    shuffled = pids[order]
    n_train = int(np.floor(0.70 * n))
    if with_validation:
        n_val = int(np.floor(0.15 * n))
        n_train = max(1, n_train)
        n_val = max(1, n_val)
        if n_train + n_val >= n:
            n_train = max(1, n - 2)
            n_val = 1
        groups = (shuffled[:n_train], shuffled[n_train:n_train + n_val],
                  shuffled[n_train + n_val:])
    else:
        n_train = max(1, min(n_train, n - 1))
        groups = (shuffled[:n_train], None, shuffled[n_train:])

    def pick(group):
        mask = np.isin(task.data.patient_ids, group)
        return task.data.subset(np.flatnonzero(mask))

    for part_name, group in zip(("train", "test"), (groups[0], groups[2])):
        part = pick(group)
        if part.labels.sum() == 0 or part.labels.sum() == part.labels.size:
            log.warning(
                "task %s: %s partition has a single outcome class", task.name, part_name
            )
    return Partition(
        task_name=task.name,
        train=pick(groups[0]),
        val=pick(groups[1]) if groups[1] is not None else None,
        test=pick(groups[2]),
    )


# -------------------------------------------------------------------- file IO


def write_dataset(cohort: CohortDataset, path) -> None:
    """Persist a cohort as a JSON manifest plus little-endian blobs."""
    keys = sorted(cohort.domains)
    vocabularies = {}
    arrays = {
        "timevarying": cohort.timevarying,
        "statics": cohort.statics,
        "labels": cohort.labels.astype(np.int64),
        "patient_ids": cohort.patient_ids.astype(np.int64),
    }
    for key in keys:
        values = np.asarray(cohort.domains[key])
        vocab = sorted(set(values.tolist()))
        lookup = {v: i for i, v in enumerate(vocab)}
        vocabularies[key] = vocab
        arrays[f"domain:{key}"] = np.array([lookup[v] for v in values], dtype=np.int64)
    header = {
        "payload": "cohort",
        "n_samples": int(cohort.n_samples),
        "seq_len": int(cohort.seq_len),
        "n_timevarying": int(cohort.timevarying.shape[2]),
        "n_static": int(cohort.statics.shape[1]),
        "domain_vocabularies": vocabularies,
    }
    write_bundle(path, header, arrays)


# cohort bundle header key -> rule
HEADER_RULES = {
    "payload": one_of(("cohort",)), "n_samples": SIZE, "seq_len": SIZE,
    "n_timevarying": SIZE, "n_static": SIZE,
    "domain_vocabularies": Rule("a mapping from domain key to a list of values",
                                lambda v: isinstance(v, dict) and all(
                                    isinstance(vocab, list) for vocab in v.values())),
}


def load_dataset(path) -> CohortDataset:
    header, arrays = read_bundle(path, HEADER_RULES)
    for field_name in ("timevarying", "statics", "labels", "patient_ids"):
        if field_name not in arrays:
            raise DataFormatError(f"dataset missing array {field_name!r}")
    domains = {}
    for key, vocab in header["domain_vocabularies"].items():
        codes = arrays.get(f"domain:{key}")
        if codes is None:
            raise DataFormatError(f"dataset missing domain array for key {key!r}")
        vocab = np.asarray(vocab)
        if codes.size and (codes.min() < 0 or codes.max() >= vocab.size):
            raise DataFormatError(f"domain codes for {key!r} outside vocabulary")
        domains[key] = vocab[codes]
    return CohortDataset(
        timevarying=arrays["timevarying"],
        statics=arrays["statics"],
        labels=arrays["labels"],
        patient_ids=arrays["patient_ids"],
        domains=domains,
    )


# ------------------------------------------------------------ builtin profiles

_PAPER_COUNTS = {"age": 6, "ward": 5, "season": 4, "ethnicity": 5}


def _domain_specs(key: str, n: int, dim_tv: int, dim_st: int, shift_scale: float,
                  prevalence: float) -> list:
    offsets = domain_offset_vectors(n, dim_tv, dim_st, shift_scale)
    return [
        DomainSpec(name=f"{key}{j:02d}", mean_offset=offsets[j], prevalence=prevalence)
        for j in range(n)
    ]


def builtin_profile(name: str) -> ShiftProfile:
    """Named profiles mirroring the benchmark's domain structure.

    ``age6`` / ``ward5`` / ``season4`` / ``ethnicity5`` carry the usual value
    counts; ``hospital<N>`` scales to dozens of sites; ``sites3`` is a small
    three-site stream with strong shift for demonstrations and tests.
    """
    dt, ds = 8, 2
    m = re.fullmatch(r"hospital(\d+)", name)
    if m:
        n_dom = int(m.group(1))
        if not 2 <= n_dom <= 64:
            raise ConfigurationError("hospital profile supports 2..64 sites")
        return ShiftProfile(
            n_patients=350 * n_dom,
            n_timevarying=dt,
            n_static=ds,
            domains={"hospital": _domain_specs("hospital", n_dom, dt, ds, 3.0, 0.10)},
        ).validate()
    if name == "sites3":
        return ShiftProfile(
            n_patients=1200,
            n_timevarying=dt,
            n_static=ds,
            domains={"site": _domain_specs("site", 3, dt, ds, 3.5, 0.10)},
        ).validate()
    key = name.rstrip("0123456789")
    if key in _PAPER_COUNTS:
        n_dom = _PAPER_COUNTS[key]
        suffix = name[len(key):]
        if suffix and int(suffix) != n_dom:
            raise ConfigurationError(
                f"profile {key!r} has a fixed domain count of {n_dom}"
            )
        return ShiftProfile(
            n_patients=300 * n_dom,
            n_timevarying=dt,
            n_static=ds,
            domains={key: _domain_specs(key, n_dom, dt, ds, 2.5, 0.10)},
        ).validate()
    raise ConfigurationError(f"unknown builtin profile {name!r}")


def conflicting_stream_profile(key, prefix, n_patients, dt, seq_len, amplitude,
                               prevalence, angles_deg) -> dict:
    """JSON profile whose domains carry conflicting outcome signals.

    Each domain's label direction is a rotation, by its entry of
    ``angles_deg``, within one shared two-dimensional subspace of the
    time-varying features. Domains near 180 degrees apart write opposing
    values into the same weights, so sequential training overwrites earlier
    tasks, while the per-domain orthogonal and static offsets keep the pooled
    problem learnable. There is one domain per angle and two static features.
    The three orthogonal offsets need ``dt >= 6`` time-varying features.
    """
    if dt < 6:
        raise ConfigurationError(f"conflicting stream profile needs dt >= 6, got dt={dt}")
    n_domains = len(angles_deg)
    u = np.ones(dt) / np.sqrt(dt)
    v = np.zeros(dt)
    v[: dt // 2] = 1.0
    v[dt // 2 :] = -1.0
    v /= np.linalg.norm(v)
    orth = []
    for j in range(3):
        w = np.zeros(dt)
        w[2 * j] = 1.0
        w[2 * j + 1] = -1.0
        orth.append(w / np.linalg.norm(w))
    domains = []
    for j, ang in enumerate(angles_deg):
        rad = np.deg2rad(float(ang))
        direction = np.cos(rad) * u + np.sin(rad) * v
        pos = 2.0 * np.pi * j / n_domains
        static = 4.0 * np.array([np.cos(pos), np.sin(pos)])
        domains.append(
            {
                "name": f"{prefix}{j:02d}",
                "mean_offset": [float(x) for x in 2.0 * orth[j % 3]]
                + [float(x) for x in static],
                "prevalence": prevalence,
                "label_direction": [float(x) for x in direction],
            }
        )
    return {
        "n_patients": n_patients,
        "n_timevarying": dt,
        "n_static": 2,
        "seq_len": seq_len,
        "label_amplitude": amplitude,
        "domains": {key: domains},
    }


# conflicting_stream_profile's keywords but n_patients for the demonstration streams:
# three sites 90 degrees apart (criterion 6), twenty hospitals 18 apart (criterion 7)
SITES3_STREAM = dict(key="site", prefix="site", dt=8, seq_len=24, amplitude=2.8,
                     prevalence=0.25, angles_deg=(0.0, 90.0, 180.0))
HOSPITAL20_STREAM = dict(key="hospital", prefix="hosp", dt=6, seq_len=12, amplitude=2.8,
                         prevalence=0.30, angles_deg=tuple(18.0 * j for j in range(20)))


def resolve_profile(spec) -> ShiftProfile:
    """Accept a builtin name, a JSON file path, or an inline dict."""
    if isinstance(spec, ShiftProfile):
        return spec.validate()
    if isinstance(spec, dict):
        return ShiftProfile.from_json_dict(spec)
    spec = str(spec)
    path = Path(spec)
    if path.is_file():
        return ShiftProfile.from_json_dict(load_json(path))
    if path.suffix == ".json":
        raise ConfigurationError(f"profile file {spec!r} not found")
    return builtin_profile(spec)
