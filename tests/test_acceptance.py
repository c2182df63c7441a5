"""Acceptance gate: ten production checks, one printed verdict line each.

Every check prints ``[criterion NN] PASS ...`` (or FAIL with the measured
numbers) so a full run reads as a checklist. The two behavioural
demonstrations (criteria 6 and 7) are fully seeded, so their verdicts are
reproducible run to run; their wall-clock budgets are asserted alongside
the qualitative claims.

Run with::

    pytest tests/test_acceptance.py -v -s
"""

import json
import time
import zlib

import numpy as np
import pytest

import seqcl.strategies as cl
from seqcl import harness
from seqcl import metrics as mt
from seqcl.datagen import HOSPITAL20_STREAM, SITES3_STREAM, conflicting_stream_profile
from seqcl.models import ArchitectureSpec, build_model
from seqcl.training import TaskStream, TrainerSettings, run_single


def _verdict(number, name, ok, detail):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# cohort profile builders


def _plain_profile(key, n_domains, n_patients, dt=3, ds=1, seq_len=6,
                   prevalence=0.3, offset_scale=2.0):
    """Well-separated domains with the default shared outcome signal."""
    domains = []
    for j in range(n_domains):
        offset = np.zeros(dt + ds)
        offset[j % (dt + ds)] = offset_scale
        domains.append(
            {
                "name": f"dom{j:02d}",
                "mean_offset": list(offset),
                "prevalence": prevalence,
            }
        )
    return {
        "n_patients": n_patients,
        "n_timevarying": dt,
        "n_static": ds,
        "seq_len": seq_len,
        "label_amplitude": 2.0,
        "domains": {key: domains},
    }


def _write_profile(tmp_path, name, profile):
    path = tmp_path / name
    path.write_text(json.dumps(profile))
    return str(path)


def _experiment_config(profile_path, key, strategy, out_dir, **overrides):
    base = {
        "data": {"profile": profile_path, "seed": 11},
        "domain_key": key,
        "architecture": {"kind": "mlp", "n_layers": 1, "hidden_dim": 64,
                         "nonlinearity": "tanh"},
        "strategy": strategy,
        "output_dir": str(out_dir),
        "epochs_per_task": 40,
        "learning_rate": 0.1,
        "n_runs": 5,
        "master_seed": 0,
    }
    base.update(overrides)
    return harness.config_from_dict(base)


# ---------------------------------------------------------------------------
# record readers


def _task_drop(records, eval_task, last_task, epochs):
    peak = max(
        r["metrics"]["balanced_accuracy"]
        for r in records
        if r["trained_task"] == eval_task
        and r["eval_task"] == eval_task
        and r["split"] == "test"
    )
    final = next(
        r["metrics"]["balanced_accuracy"]
        for r in records
        if r["trained_task"] == last_task
        and r["eval_task"] == eval_task
        and r["split"] == "test"
        and r["epoch"] == epochs - 1
    )
    return peak - final


# ---------------------------------------------------------------------------
# brute-force oracles (deliberately slow, independently coded)


def _oracle_projection(g, refs, margin):
    """Closest z to g with refs @ z >= margin, by trying every active set."""
    k = refs.shape[0]
    best, best_d = None, np.inf
    for mask in range(1 << k):
        active = [i for i in range(k) if mask >> i & 1]
        if not active:
            z = g.copy()
        else:
            sub = refs[active]
            gram = sub @ sub.T
            try:
                coef = np.linalg.solve(gram, margin - sub @ g)
            except np.linalg.LinAlgError:
                continue
            if np.any(coef < -1e-9):
                continue
            z = g + sub.T @ coef
        if np.all(refs @ z >= margin - 1e-9):
            d = float(np.linalg.norm(z - g))
            if d < best_d:
                best, best_d = z, d
    return best


def _oracle_auroc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def _oracle_auprc(scores, labels):
    n_pos = labels.sum()
    area, prev_recall = 0.0, 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= t
        tp = int(np.sum(pred & (labels == 1)))
        fp = int(np.sum(pred & (labels == 0)))
        recall = tp / n_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def _oracle_balanced_accuracy(scores, labels, threshold=0.5):
    tp = fp = tn = fn = 0
    for s, y in zip(scores, labels):
        if s >= threshold:
            if y == 1:
                tp += 1
            else:
                fp += 1
        else:
            if y == 1:
                fn += 1
            else:
                tn += 1
    return 0.5 * (tp / (tp + fn) + tn / (tn + fp))


# ---------------------------------------------------------------------------
# 1. gradient fidelity


def test_01_gradient_fidelity():
    t0 = time.monotonic()
    worst = 0.0
    for kind in ("mlp", "cnn1d", "lstm"):
        spec = ArchitectureSpec(kind=kind, n_feature_layers=1, hidden_dim=8,
                                nonlinearity="tanh", kernel_size=3)
        model = build_model(spec, (7, 5), seed=3)
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        x = model.prepare_batch(rng.normal(size=(6, 7, 5)))
        labels = np.array([0, 1, 1, 0, 1, 0])
        weights = (1.4, 0.7)
        graph, params = model.graph, model.params
        graph.forward(params, x)
        analytic = graph.backward_from_dlogits(graph.loss(labels, weights)[1])
        theta = params.values
        coords = rng.choice(theta.size, size=min(100, theta.size),
                            replace=False)
        eps = 1e-5
        for i in coords:
            saved = theta[i]
            theta[i] = saved + eps
            graph.forward(params, x)
            up, _ = graph.loss(labels, weights)
            theta[i] = saved - eps
            graph.forward(params, x)
            down, _ = graph.loss(labels, weights)
            theta[i] = saved
            fd = (up - down) / (2 * eps)
            err = abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), 1e-6)
            worst = max(worst, err)
    elapsed = time.monotonic() - t0
    _verdict(
        1,
        "gradient fidelity (mlp, cnn1d, lstm at hidden 8)",
        worst < 1e-4 and elapsed < 60.0,
        f"max rel err {worst:.3e} over 100 coords each, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. constrained projection against the active-set oracle


def test_02_gem_projection_matches_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(20)
    worst_violation = -np.inf
    worst_gap = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 11))
        k = int(rng.integers(1, min(4, dim) + 1))
        g = rng.normal(size=dim)
        refs = rng.normal(size=(k, dim))
        margin = float(rng.random())
        z = cl.gem_project(g, refs, margin)
        worst_violation = max(worst_violation, float(np.max(margin - refs @ z)))
        oracle = _oracle_projection(g, refs, margin)
        assert oracle is not None
        gap = abs(np.linalg.norm(z - g) - np.linalg.norm(oracle - g))
        worst_gap = max(worst_gap, gap)
    elapsed = time.monotonic() - t0
    _verdict(
        2,
        "constrained projection vs active-set oracle (200 instances)",
        worst_violation <= 1e-6 and worst_gap <= 1e-5 and elapsed < 30.0,
        f"worst constraint slack {worst_violation:.2e}, worst distance gap "
        f"{worst_gap:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. single-constraint closed form


def test_03_agem_closed_form():
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 16))
        g = rng.normal(size=dim)
        ref = rng.normal(size=dim)
        out = cl.agem_project(g, ref)
        dot = float(g @ ref)
        expect = g if dot >= 0.0 else g - (dot / float(ref @ ref)) * ref
        worst = max(worst, float(np.max(np.abs(out - expect))))
    annihilated = cl.agem_project(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    exact_zero = np.array_equal(annihilated, np.zeros(2))
    _verdict(
        3,
        "single-constraint projection closed form (1000 pairs)",
        worst <= 1e-12 and exact_zero,
        f"max deviation {worst:.2e}, opposing pair -> {annihilated.tolist()}",
    )


# ---------------------------------------------------------------------------
# 4. penalty anchors and penalty gradients


def _fd_vector(fn, theta, eps=1e-6):
    out = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += eps
        down = theta.copy()
        down[i] -= eps
        out[i] = (fn(up) - fn(down)) / (2 * eps)
    return out


def test_04_penalties_vanish_at_anchor_and_gradients_match():
    rng = np.random.default_rng(40)
    dim = 12
    anchor = rng.normal(size=dim)
    fisher = rng.uniform(0.1, 2.0, size=dim)
    off = rng.normal(size=dim)

    # kappa = scale * importance: lam * F for EWC and online EWC, 2 lam * Omega for SI
    scales = (0.7, 0.9, 2.0 * 1.3)
    anchors = [cl.Anchor.at(scale * fisher, anchor.copy()) for scale in scales]

    def penalty(scale, theta):
        """(1/2) * sum kappa (theta - anchor)^2, with kappa = scale * fisher."""
        diff = theta - anchor
        return 0.5 * scale * float(np.dot(fisher, diff * diff))

    zeros = tuple(penalty(scale, anchor.copy()) for scale in scales)
    still = all(np.all(a.gradient(anchor.copy()) == 0.0) for a in anchors)
    gaps = tuple(
        np.max(np.abs(a.gradient(off) - _fd_vector(lambda t: penalty(scale, t), off)))
        for scale, a in zip(scales, anchors)
    )
    _verdict(
        4,
        "penalties vanish at anchors, penalty gradients match differences",
        still and all(z == 0.0 for z in zeros) and all(g < 1e-6 for g in gaps),
        f"anchor values {zeros}, max fd gaps "
        f"{tuple(f'{g:.2e}' for g in gaps)}",
    )


# ---------------------------------------------------------------------------
# 5. metric oracles


def test_05_metric_oracles():
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(size=n), 2)
        row = mt.summarize_classification(
            np.stack([1.0 - scores, scores], axis=1), labels, (1.0, 1.0)
        )
        worst = max(
            worst,
            abs(row["balanced_accuracy"] - _oracle_balanced_accuracy(scores, labels)),
            abs(row["auroc"] - _oracle_auroc(scores, labels)),
            abs(row["auprc"] - _oracle_auprc(scores, labels)),
        )
    _verdict(
        5,
        "balanced accuracy, AUROC, AUPRC vs brute-force oracles",
        worst <= 1e-12,
        f"max abs deviation {worst:.2e} over 100 instances",
    )


# ---------------------------------------------------------------------------
# 6. forgetting on a short conflicting stream


@pytest.mark.slow
def test_06_forgetting_demonstration(tmp_path):
    t0 = time.monotonic()
    profile = _write_profile(
        tmp_path,
        "sites.json",
        conflicting_stream_profile(n_patients=4800, **SITES3_STREAM),
    )

    strategies = ("naive", "replay", "cumulative")
    results = harness.run_experiments(
        [(_experiment_config(profile, "site", strategy, tmp_path / strategy), None)
         for strategy in strategies])
    drops = {
        strategy: float(np.mean([
            _task_drop(harness.read_run_file(tmp_path / strategy / f"run_{k:02d}.jsonl")[1],
                       0, 2, 40)
            for k in completed]))
        for strategy, completed in zip(strategies, results)
    }
    elapsed = time.monotonic() - t0
    ok = (
        drops["naive"] >= 0.10
        and drops["replay"] <= 0.05
        and drops["cumulative"] <= 0.05
        and elapsed < 600.0
    )
    _verdict(
        6,
        "first-task drop: naive forgets, replay and cumulative retain",
        ok,
        f"mean drop naive {drops['naive']:+.3f} (need >= +0.10), "
        f"replay {drops['replay']:+.3f}, cumulative {drops['cumulative']:+.3f} "
        f"(each <= +0.05), 5 runs each, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. twenty-domain stream: anchoring stalls, rehearsal works


@pytest.mark.slow
def test_07_many_task_degradation(tmp_path):
    t0 = time.monotonic()
    profile = _write_profile(
        tmp_path,
        "hospitals.json",
        conflicting_stream_profile(n_patients=5000, **HOSPITAL20_STREAM),
    )

    experiments = {"naive": None, "ewc": {"ewc_lambda": 10.0}, "replay": None}
    harness.run_experiments(
        [(_experiment_config(profile, "hospital", strategy, tmp_path / strategy), hp)
         for strategy, hp in experiments.items()])
    # report's rows: bootstrap_ci over the per-run final_mean_forgetting values
    outcomes = {row["experiment"]: (row["final_forgetting_mean"], row["final_forgetting_ci"])
                for row in harness.report(tmp_path)["experiments"]}
    elapsed = time.monotonic() - t0
    naive_ci = outcomes["naive"][1]
    ewc_ci = outcomes["ewc"][1]
    replay_ci = outcomes["replay"][1]
    ewc_overlaps = not (ewc_ci[1] < naive_ci[0] or naive_ci[1] < ewc_ci[0])
    replay_below = replay_ci[1] < naive_ci[0]
    ok = ewc_overlaps and replay_below and elapsed < 1800.0
    _verdict(
        7,
        "20-domain forgetting: anchoring indistinguishable from naive, "
        "rehearsal separable",
        ok,
        f"naive {outcomes['naive'][0]:.3f} CI ({naive_ci[0]:.3f}, {naive_ci[1]:.3f}); "
        f"ewc {outcomes['ewc'][0]:.3f} CI ({ewc_ci[0]:.3f}, {ewc_ci[1]:.3f}) "
        f"overlap={ewc_overlaps}; "
        f"replay {outcomes['replay'][0]:.3f} CI ({replay_ci[0]:.3f}, {replay_ci[1]:.3f}) "
        f"below={replay_below}; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. buffer policies, sample for sample


class _SpyGdumb(cl.Gdumb):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.snapshots = []

    def before_task(self, model, task_idx, features, labels, rng):
        super().before_task(model, task_idx, features, labels, rng)
        self.snapshots.append([(f.copy(), y.copy()) for f, y in self.buffer.tasks])


class _SpyReplay(cl.Replay):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.count_log = []

    def after_task(self, model, task_idx, features, labels, rng):
        super().after_task(model, task_idx, features, labels, rng)
        self.count_log.append(list(self.buffer.counts()))


def _drive(profile_path, key, strategy, n_patients_hint, hidden=8):
    config = harness.config_from_dict({
        "data": {"profile": profile_path, "seed": 4},
        "domain_key": key,
        "architecture": {"kind": "mlp", "n_layers": 1, "hidden_dim": hidden,
                         "nonlinearity": "tanh"},
        "strategy": "naive",
        "output_dir": "/tmp/unused",
        "epochs_per_task": 1,
        "n_runs": 1,
        "master_seed": 0,
    })
    partitions = harness.load_partitions(config)
    stream = TaskStream(partitions, merge_val_into_train=True)
    x0, _, _ = stream.get(0, "train")
    dims = (x0.shape[1], x0.shape[2])
    spec = config.architecture_spec()
    settings = TrainerSettings(epochs_per_task=1, batch_size=64,
                               learning_rate=0.05, momentum=0.0)
    run_single(
        lambda seed: build_model(spec, dims, seed),
        stream,
        strategy,
        (1.0, 1.0),
        settings,
        master_seed=0,
        run_idx=0,
        eval_splits=("test",),
    )
    return stream


def test_08_buffer_policies(tmp_path):
    # quota buffer: five tasks at budget six, contents checked exactly
    profile5 = _write_profile(
        tmp_path, "five.json", _plain_profile("ward", 5, 200))
    gdumb = _SpyGdumb(mem_size=6)
    stream = _drive(profile5, "ward", gdumb, 200)
    assert len(gdumb.snapshots) == 5
    quota_ok = True
    for t, snapshot in enumerate(gdumb.snapshots):
        n_seen = t + 1
        base, remainder = divmod(6, n_seen)
        for k in range(n_seen):
            quota = base + (1 if k >= n_seen - remainder else 0)
            xk, yk, _ = stream.get(k, "train")
            got_x, got_y = snapshot[k]
            if not (np.array_equal(got_x, xk[-quota:])
                    and np.array_equal(got_y, yk[-quota:])):
                quota_ok = False

    # rehearsal buffer: the per-task cap must bind and hold
    profile3 = _write_profile(
        tmp_path, "three.json", _plain_profile("ward", 3, 1200))
    replay = _SpyReplay(patterns_per_exp=256)
    stream = _drive(profile3, "ward", replay, 1200)
    train_sizes = [stream.get(k, "train")[1].shape[0] for k in range(3)]
    cap_binds = min(train_sizes) > 256
    cap_holds = all(c <= 256 for counts in replay.count_log for c in counts)
    stored_full = replay.buffer.counts() == [256, 256, 256]

    _verdict(
        8,
        "quota buffer exact at budget 6 over 5 tasks; rehearsal cap 256 holds",
        quota_ok and cap_binds and cap_holds and stored_full,
        f"quota contents exact={quota_ok}; train sizes {train_sizes} vs "
        f"counts {replay.buffer.counts()}",
    )


# ---------------------------------------------------------------------------
# 9. protocol audits


def test_09_protocol_audits(tmp_path):
    profile = _write_profile(
        tmp_path, "audit.json", _plain_profile("ward", 3, 180))
    config = harness.config_from_dict({
        "data": {"profile": profile, "seed": 4},
        "domain_key": "ward",
        "architecture": {"kind": "mlp", "n_layers": 1, "hidden_dim": 8,
                         "nonlinearity": "tanh"},
        "strategy": "naive",
        "output_dir": str(tmp_path / "audit_run"),
        "grid": {"learning_rate": [0.05, 0.1]},
        "epochs_per_task": 40,
        "n_runs": 2,
        "master_seed": 0,
    })
    tuned = harness.tune(config)
    tune_clean = tuned["audit_accesses_beyond_first_two"] == 0

    outs = harness.run_experiment(config, hyperparams=tuned["chosen"])
    epoch_ok = True
    for out in outs:
        by_task = {}
        for r in out.records:
            by_task.setdefault(r["trained_task"], set()).add(r["epoch"])
        if not all(epochs == set(range(40)) for epochs in by_task.values()):
            epoch_ok = False

    partitions = harness.load_partitions(config)
    leak_free = True
    for part_a in partitions:
        fit_ids = set(part_a.train.patient_ids.tolist())
        if part_a.val is not None:
            fit_ids |= set(part_a.val.patient_ids.tolist())
        for part_b in partitions:
            if fit_ids & set(part_b.test.patient_ids.tolist()):
                leak_free = False

    _verdict(
        9,
        "tuning isolation, patient-level split hygiene, epoch accounting",
        tune_clean and epoch_ok and leak_free,
        f"accesses beyond first two tasks {tuned['audit_accesses_beyond_first_two']}, "
        f"epochs exact={epoch_ok}, train/test patient overlap={not leak_free}",
    )


# ---------------------------------------------------------------------------
# 10. determinism and behavioural equivalences


def _record_lines(out_dir, n_runs):
    lines = []
    for idx in range(n_runs):
        path = out_dir / f"run_{idx:02d}.jsonl"
        lines.append(path.read_text().splitlines())
    return lines


def test_10_determinism_and_equivalences(tmp_path):
    profile = _write_profile(
        tmp_path, "det.json", _plain_profile("ward", 3, 150))

    def run(strategy, out_name, hp=None, **overrides):
        config = _experiment_config(
            profile, "ward", strategy, tmp_path / out_name,
            epochs_per_task=3, n_runs=2, learning_rate=0.05,
            architecture={"kind": "mlp", "n_layers": 1, "hidden_dim": 8,
                          "nonlinearity": "tanh"},
            **overrides,
        )
        harness.run_experiment(config, hyperparams=hp)
        return _record_lines(tmp_path / out_name, 2)

    naive_a = run("naive", "naive_a")
    naive_b = run("naive", "naive_b")
    repeat_identical = naive_a == naive_b

    unlimited = run("replay", "replay_inf", hp={"patterns_per_exp": None})
    cumulative = run("cumulative", "cumulative")
    rehearsal_matches = all(
        u[1:] == c[1:] for u, c in zip(unlimited, cumulative)
    )

    zeroed = {
        "ewc": {"ewc_lambda": 0.0},
        "online_ewc": {"ewc_lambda": 0.0},
        "si": {"si_lambda": 0.0},
        "lwf": {"alpha": 0.0},
        "replay": {"patterns_per_exp": 0},
        "gdumb": {"mem_size": 0},
        "gem": {"patterns_per_exp": 0, "memory_strength": 0.0},
        "agem": {"patterns_per_exp": 0},
        "cumulative": None,
    }
    mismatched = []
    for strategy, hp in zeroed.items():
        if strategy == "cumulative":
            continue
        got = run(strategy, f"zero_{strategy}", hp=hp)
        if not all(g[1:] == n[1:] for g, n in zip(got, naive_a)):
            mismatched.append(strategy)

    ok = repeat_identical and rehearsal_matches and not mismatched
    _verdict(
        10,
        "bitwise repeatability; unlimited rehearsal = joint training; "
        "zeroed strategies = naive",
        ok,
        f"repeat identical={repeat_identical}, "
        f"unlimited rehearsal matches joint={rehearsal_matches}, "
        f"zeroed mismatches={mismatched or 'none'}",
    )
