#!/usr/bin/env python3
"""Compare the run records of two result trees, row by row.

    python3 scripts/compare_records.py PARENT CHANGE

PARENT and CHANGE are result directories holding ``<experiment>/run_*.jsonl``
files, for example ``perfbench/out/<workload>/work/results`` of two
checkouts. Files are paired by their path relative to the tree. Every row
after the fingerprint header is compared; the header is skipped because the
fingerprint hashes the configuration, which holds the absolute dataset path,
so it differs between two checkouts of the same code.

Prints, per metric, the largest absolute difference and the fraction of rows
whose value changed. When the records differ it also prints, per run file,
the final mean balanced accuracy and the final mean forgetting on each side
and their change, as ``report`` computes them. Then a verdict. Exits 0 when
the records are identical, 1 on any difference (a file on one side only, a
different row count, a changed metric or a changed non-metric field) and 2
when a tree holds no run files or a run file cannot be read.
"""

import argparse
import math
import sys
from pathlib import Path

from seqcl.errors import ReportError
from seqcl.harness import final_mean_balanced_accuracy, final_mean_forgetting, read_run_file

FINALS = {"balanced_accuracy": final_mean_balanced_accuracy, "forgetting": final_mean_forgetting}


def run_files(tree):
    return {p.relative_to(tree).as_posix(): p for p in sorted(tree.glob("*/run_*.jsonl"))}


def metric_difference(a, b):
    """|a - b| for two metric values; None and non-finite values compare by
    identity, and a mismatch between them is an infinite difference."""
    if a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)):
        return 0.0
    if a is None or b is None:
        return math.inf
    return abs(a - b)


def final_values(records):
    """{name: value} of the run's final metrics; epochs per task from the rows."""
    if not records:
        return dict.fromkeys(FINALS)
    epochs = max(r["epoch"] for r in records) + 1
    return {name: final(records, epochs) for name, final in FINALS.items()}


def compare(parent, change):
    """Per-metric [max |diff|, changed rows], row count, the problems found and
    each paired file's (name, parent finals, change finals)."""
    left, right = run_files(parent), run_files(change)
    problems = [f"only in {side}: {name}"
                for side, names in (("PARENT", left.keys() - right.keys()),
                                    ("CHANGE", right.keys() - left.keys()))
                for name in sorted(names)]
    metrics, rows, finals = {}, 0, []
    for name in sorted(left.keys() & right.keys()):
        (_, a_rows), (_, b_rows) = read_run_file(left[name]), read_run_file(right[name])
        finals.append((name, final_values(a_rows), final_values(b_rows)))
        if len(a_rows) != len(b_rows):
            problems.append(f"{name}: {len(a_rows)} rows vs {len(b_rows)}")
        for i, (a, b) in enumerate(zip(a_rows, b_rows), start=2):
            rows += 1
            a_metrics, b_metrics = a.pop("metrics", {}), b.pop("metrics", {})
            if a != b or a_metrics.keys() != b_metrics.keys():
                problems.append(f"{name} line {i}: fields differ")
            for key in a_metrics.keys() & b_metrics.keys():
                diff = metric_difference(a_metrics[key], b_metrics[key])
                entry = metrics.setdefault(key, [0.0, 0])
                entry[0] = max(entry[0], diff)
                entry[1] += diff != 0.0
    return metrics, rows, problems, finals


def _shift(a, b):
    if a is None or b is None:
        return f"{a} -> {b}"
    return f"{a:.4f} -> {b:.4f} ({b - a:+.4f})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not run_files(tree):
            print(f"no */run_*.jsonl files under {tree}", file=sys.stderr)
            return 2
    try:
        metrics, rows, problems, finals = compare(args.parent, args.change)
    except ReportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"{rows} rows compared")
    print(f"  {'metric':24s} {'max |diff|':>12s}  changed rows")
    for key in sorted(metrics):
        worst, changed = metrics[key]
        print(f"  {key:24s} {worst:12.3g}  {changed}/{rows} ({changed / max(rows, 1):.4f})")
    for line in problems[:20]:
        print(f"  {line}")
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more")
    different = bool(problems) or any(changed for _, changed in metrics.values())
    if different:
        print("final values per run, PARENT -> CHANGE (change):")
        for name, a, b in finals:
            print(f"  {name:28s} " + "  ".join(
                f"{key} {_shift(a[key], b[key])}" for key in FINALS))
    print("verdict: " + ("DIFFERENT" if different else "identical"))
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
