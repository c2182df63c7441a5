"""scripts/compare_records.py: row-by-row comparison of two result trees."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_records.py"
spec = importlib.util.spec_from_file_location("compare_records", SCRIPT)
compare_records = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_records)


def row(epoch, bacc, auroc=0.75):
    return {"epoch": epoch, "split": "test", "eval_task": 0, "trained_task": 0,
            "metrics": {"balanced_accuracy": bacc, "auroc": auroc}}


def write_tree(root, fingerprint, rows, name="replay/run_00.jsonl"):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [{"fingerprint": fingerprint, "run": 0}, *rows]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return root


def test_identical_records_pass_even_with_different_fingerprints(tmp_path, capsys):
    rows = [row(0, 0.6), row(1, 0.7, auroc=None)]
    a = write_tree(tmp_path / "a", "f-parent", rows)
    b = write_tree(tmp_path / "b", "f-change", rows)
    assert compare_records.main([str(a), str(b)]) == 0
    assert "verdict: identical" in capsys.readouterr().out


def test_changed_metric_reports_max_difference_and_changed_fraction(tmp_path, capsys):
    a = write_tree(tmp_path / "a", "f", [row(0, 0.6), row(1, 0.7), row(2, 0.8)])
    b = write_tree(tmp_path / "b", "f", [row(0, 0.6), row(1, 0.7 + 2**-40), row(2, 0.8)])
    assert compare_records.main([str(a), str(b)]) == 1
    metrics, rows, problems, _ = compare_records.compare(a, b)
    assert rows == 3 and problems == []
    assert metrics["balanced_accuracy"] == [pytest.approx(2**-40), 1]
    assert metrics["auroc"] == [0.0, 0]
    out = capsys.readouterr().out
    assert "1/3" in out and "verdict: DIFFERENT" in out


@pytest.mark.parametrize("change", ["missing file", "extra row", "field", "none"])
def test_structural_differences_fail(tmp_path, change):
    a = write_tree(tmp_path / "a", "f", [row(0, 0.6), row(1, 0.7)])
    b = write_tree(tmp_path / "b", "f", {
        "missing file": [row(0, 0.6), row(1, 0.7)],
        "extra row": [row(0, 0.6), row(1, 0.7), row(2, 0.7)],
        "field": [row(0, 0.6), row(2, 0.7)],
        "none": [row(0, 0.6), row(1, None)],
    }[change])
    if change == "missing file":
        write_tree(tmp_path / "a", "f", [row(0, 0.5)], name="agem/run_00.jsonl")
    assert compare_records.main([str(a), str(b)]) == 1


def test_a_tree_without_run_files_is_a_usage_error(tmp_path):
    a = write_tree(tmp_path / "a", "f", [row(0, 0.6)])
    (tmp_path / "empty").mkdir()
    assert compare_records.main([str(a), str(tmp_path / "empty")]) == 2


@pytest.mark.parametrize("tail", [b'{"trunc', b"\xff\xff"], ids=["truncated", "undecodable"])
def test_a_run_file_that_cannot_be_decoded_exits_2_naming_it(tmp_path, capsys, tail):
    a = write_tree(tmp_path / "a", "f", [row(0, 0.6)])
    b = write_tree(tmp_path / "b", "f", [row(0, 0.6)])
    path = b / "replay" / "run_00.jsonl"
    path.write_bytes(path.read_bytes() + tail)
    assert compare_records.main([str(a), str(b)]) == 2
    assert str(path) in capsys.readouterr().err


def two_task_run(bacc_first_after_second, mean_after_second):
    """Rows of a two-task run: test balanced accuracy per seen task and the
    seen-task mean row, at one epoch per task."""
    rows = []
    for trained, seen in ((0, [0.8]), (1, [bacc_first_after_second, 0.9])):
        rows += [{"epoch": 0, "split": "test", "eval_task": j, "trained_task": trained,
                  "metrics": {"balanced_accuracy": v}} for j, v in enumerate(seen)]
        mean = 0.8 if trained == 0 else mean_after_second
        rows.append({"epoch": 0, "split": "test", "eval_task": None, "trained_task": trained,
                     "metrics": {"balanced_accuracy": mean}})
    return rows


def test_differing_records_print_each_runs_final_values(tmp_path, capsys):
    a = write_tree(tmp_path / "a", "f", two_task_run(0.6, 0.75), name="si/run_01.jsonl")
    b = write_tree(tmp_path / "b", "f", two_task_run(0.7, 0.8), name="si/run_01.jsonl")
    assert compare_records.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "si/run_01.jsonl" in out
    # forgetting of task 0 is 0.8 - 0.6 on one side and 0.8 - 0.7 on the other
    assert "balanced_accuracy 0.7500 -> 0.8000 (+0.0500)" in out
    assert "forgetting 0.2000 -> 0.1000 (-0.1000)" in out
    assert compare_records.main([str(a), str(a)]) == 0
    assert "final values" not in capsys.readouterr().out
