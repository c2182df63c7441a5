"""The benchmark's stream profiles and workload definitions.

The two conflicting-stream profiles are the benchmark's own copies of the
acceptance-test streams (criterion 6: three sites, criterion 7: twenty
hospitals). ``check_hospital_profile`` keeps the twenty-hospital copy equal
to the one in ``scripts/hospital_stream.py``.
"""

import json
from dataclasses import dataclass, field


def conflicting_stream_profile(key, prefix, n_domains, n_patients, dt, ds, seq_len,
                               amplitude, prevalence, angles_deg,
                               orth_scale=2.0, static_scale=4.0):
    """Domains whose outcome signals are rotated directions of one shared
    two-dimensional subspace, so later tasks overwrite earlier ones."""
    import numpy as np

    u = np.ones(dt) / np.sqrt(dt)
    v = np.zeros(dt)
    v[: dt // 2] = 1.0
    v[dt // 2 :] = -1.0
    v /= np.linalg.norm(v)
    domains = []
    for j, angle in enumerate(angles_deg):
        rad = np.deg2rad(float(angle))
        direction = np.cos(rad) * u + np.sin(rad) * v
        orth = np.zeros(dt)
        orth[2 * (j % 3)] = 1.0
        orth[2 * (j % 3) + 1] = -1.0
        orth /= np.linalg.norm(orth)
        pos = 2.0 * np.pi * j / n_domains
        static = static_scale * np.array([np.cos(pos), np.sin(pos)])
        domains.append({
            "name": f"{prefix}{j:02d}",
            "mean_offset": [float(x) for x in orth_scale * orth] + [float(x) for x in static],
            "prevalence": prevalence,
            "label_direction": [float(x) for x in direction],
        })
    return {
        "n_patients": n_patients,
        "n_timevarying": dt,
        "n_static": ds,
        "seq_len": seq_len,
        "label_amplitude": amplitude,
        "domains": {key: domains},
    }


def hospital20_profile(n_patients=5000):
    """Criterion 7: twenty hospitals, outcome directions 18 degrees apart."""
    return conflicting_stream_profile(
        key="hospital", prefix="hosp", n_domains=20, n_patients=n_patients,
        dt=6, ds=2, seq_len=12, amplitude=2.8, prevalence=0.30,
        angles_deg=[18.0 * j for j in range(20)],
    )


def sites3_profile(n_patients):
    """Criterion 6: three sites with outcome directions 0, 90 and 180 degrees."""
    return conflicting_stream_profile(
        key="site", prefix="site", n_domains=3, n_patients=n_patients,
        dt=8, ds=2, seq_len=24, amplitude=2.8, prevalence=0.25,
        angles_deg=[0.0, 90.0, 180.0],
    )


def check_hospital_profile(reference_profile):
    """Error text if the benchmark's copy differs from the reference, else None.

    Both sides go through JSON so numpy scalars compare as plain floats;
    every float must match exactly.
    """
    ours = json.loads(json.dumps(hospital20_profile(5000)))
    theirs = json.loads(json.dumps(reference_profile, default=float))
    if ours != theirs:
        return "benchmark 20-hospital profile differs from scripts/hospital_stream.py"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    profile: dict
    domain_key: str
    architecture: dict
    strategies: tuple  # (strategy name, fixed hyperparameters)
    epochs_per_task: int
    n_runs: int
    learning_rate: float = 0.1
    grid: dict = field(default_factory=dict)  # nonempty: tune before each run
    via_dataset: bool = False  # write the cohort to disk and read it back


def _mlp():
    return {"kind": "mlp", "n_layers": 1, "hidden_dim": 64, "nonlinearity": "tanh"}


def build_workloads(toy=False):
    """The benchmark workloads; ``toy`` shrinks them for the schema check."""
    epochs = (lambda n: 1) if toy else (lambda n: n)
    sites = 240 if toy else 1000
    return {
        w.name: w for w in (
            Workload(
                name="hosp20-mlp",
                profile=hospital20_profile(1000 if toy else 5000),
                domain_key="hospital",
                architecture=_mlp(),
                strategies=(("naive", {}), ("ewc", {"ewc_lambda": 10.0}),
                            ("replay", {}), ("gem", {}), ("lwf", {}), ("si", {})),
                epochs_per_task=epochs(5),
                n_runs=1 if toy else 2,
            ),
            Workload(
                name="sites3-lstm",
                profile=sites3_profile(sites),
                domain_key="site",
                architecture={"kind": "lstm", "n_layers": 1,
                              "hidden_dim": 8 if toy else 32, "nonlinearity": "tanh"},
                strategies=(("ewc", {"ewc_lambda": 10.0}), ("gem", {}), ("agem", {})),
                epochs_per_task=epochs(2),
                n_runs=1,
            ),
            Workload(
                name="sites3-cnn-tune",
                profile=sites3_profile(sites),
                domain_key="site",
                architecture={"kind": "cnn1d", "n_layers": 2,
                              "hidden_dim": 8 if toy else 64, "nonlinearity": "tanh",
                              "kernel_size": 3},
                strategies=(("replay", {}), ("agem", {})),
                epochs_per_task=epochs(3),
                n_runs=1,
                grid={"learning_rate": [0.05, 0.1]},
                via_dataset=True,
            ),
        )
    }

