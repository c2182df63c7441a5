#!/usr/bin/env python3
"""Schema self-check for the benchmark, at toy size.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json is well formed, that the benchmark's 20-hospital
profile equals ``scripts/hospital_stream.build_profile(5000)`` field for
field, that every workload emits every metric named in BENCHMARK.json with
its unit (untraced: end-to-end metrics; traced: per-layer metrics), and
that the benchmark fails without printing a result in a directory holding
only BENCHMARK.json and the benchmark's own files. Exits 1 on any problem.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec):
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            wanted = {"name", "unit", "better"} | ({"bound"} if group == "end_to_end" else set())
            if set(metric) != wanted:
                problems.append(f"{group} entry {metric} needs exactly {sorted(wanted)}")
            if metric["better"] not in ("higher", "lower"):
                problems.append(f"{metric['name']}: better must be higher or lower")
            if not UNIT.fullmatch(metric["unit"]):
                problems.append(f"{metric['name']}: bad unit {metric['unit']!r}")
            names.append(metric["name"])
    for name in names:
        if not NAME.fullmatch(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append("every bound must lie in (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must carry the largest bound")
    return problems


def check_profile():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts"),
                                                       str(HERE)]))
    code = ("from hospital_stream import build_profile; from workloads import "
            "check_hospital_profile; p = check_hospital_profile(build_profile(5000)); "
            "print(p or 'ok')")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    out = proc.stdout.strip()
    return [] if proc.returncode == 0 and out == "ok" else [f"profile check: {out}{proc.stderr}"]


def check_workload(spec, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{workload} trace {trace}: correct={result['correct']} "
                        f"attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        wrong = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        problems.append(f"{workload} trace {trace}: missing {missing}, extra {extra}, "
                        f"wrong units {wrong}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{workload}: {name} = {value!r}")
    return problems


def check_bare_directory(spec):
    """Only BENCHMARK.json and the benchmark's paths: must fail, print no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec) + check_profile() + check_bare_directory(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_workload(spec, workload, trace)
    for line in problems:
        print(f"FAIL {line}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
