"""The arguments of ``tools/bench_record.py``, its ``--base`` export and its
run order."""

import argparse
import filecmp
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bench_record.py"


def _in_git_checkout():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return False
    return proc.returncode == 0 and Path(proc.stdout.strip()).resolve() == ROOT


needs_git = pytest.mark.skipif(not _in_git_checkout(), reason="not a git checkout")


def load_bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_ranges():
    bench_record = load_bench_record()
    assert bench_record._seeds("2") == [2]
    assert bench_record._seeds("1-3") == [1, 2, 3]
    with pytest.raises(argparse.ArgumentTypeError, match="empty seed range '3-1'"):
        bench_record._seeds("3-1")


def test_empty_seed_range_exits_2(monkeypatch, capsys):
    bench_record = load_bench_record()
    monkeypatch.setattr("sys.argv", ["bench_record.py", "--pr", "1", "--seeds", "3-1"])
    with pytest.raises(SystemExit) as exc:
        bench_record.main()
    assert exc.value.code == 2
    assert "empty seed range '3-1'" in capsys.readouterr().err


@needs_git
def test_base_export_holds_rev_src_beside_this_harness(tmp_path):
    bench_record = load_bench_record()
    sha = bench_record._resolve("HEAD")
    assert sha is not None and len(sha) == 40
    bench_record.export_base(sha, str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "BENCHMARK.json", "perfbench", "pyproject.toml", "src", "tests", "tools"
    ]
    # REV's own Tier-1 runs in the export: its tests, the tool they load and
    # the pytest settings
    for path in (
        "src/chanrec/assign.py", "tests/test_metrics.py", "tests/conftest.py",
        "tools/bench_record.py", "pyproject.toml",
    ):
        committed = subprocess.run(
            ["git", "-C", str(ROOT), "show", f"{sha}:{path}"],
            capture_output=True, check=True,
        ).stdout
        assert (tmp_path / path).read_bytes() == committed, path
    assert filecmp.cmp(tmp_path / "BENCHMARK.json", ROOT / "BENCHMARK.json", shallow=False)
    for name in ("run.py", "workloads.py", "reference.json"):
        assert filecmp.cmp(
            tmp_path / "perfbench" / name, ROOT / "perfbench" / name, shallow=False
        )
    assert not (tmp_path / "perfbench" / "out").exists()


@needs_git
def test_unknown_base_rev_exits_2_before_any_run(monkeypatch, capsys):
    bench_record = load_bench_record()

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_record, "_run", no_run)
    monkeypatch.setattr(bench_record, "export_base", no_run)
    monkeypatch.setattr(
        "sys.argv", ["bench_record.py", "--pr", "1", "--base", "no-such-rev-0123"]
    )
    with pytest.raises(SystemExit) as exc:
        bench_record.main()
    assert exc.value.code == 2
    assert "unknown revision 'no-such-rev-0123'" in capsys.readouterr().err


def test_compare_leaves_out_seeds_with_an_incorrect_side():
    bench_record = load_bench_record()

    def run(seed, correct, rate, p50):
        metrics = {"tasks_per_cpu_s": rate, "task_cpu_ms_p50": p50}
        return {"seed": seed, "correct": correct, "metrics": metrics}

    base = [run(1, True, 100.0, 2.0), run(2, True, 100.0, 2.0), run(3, False, 1.0, 9.0)]
    head = [run(1, True, 110.0, 2.5), run(2, False, 500.0, 0.1), run(3, True, 200.0, 1.0)]
    better = {"tasks_per_cpu_s": "higher", "task_cpu_ms_p50": "lower"}
    assert bench_record._compare(base, head, better) == {
        "tasks_per_cpu_s": {"median_ratio": 1.1, "head_better": 1, "pairs": 1},
        "task_cpu_ms_p50": {"median_ratio": 1.25, "head_better": 0, "pairs": 1},
    }


FAKE_RUN = '''\
import json, sys
print(json.dumps({"meta": {"rounds": 1}}))
print("a line before the result")
mode = open(__file__.replace("run.py", "mode.txt")).read()
if mode == "no-result":
    print("not a result line")
else:
    metrics = {"tasks_per_cpu_s": {"value": 1.0, "unit": "1/s"}}
    if mode == "all":
        metrics["setup_s"] = {"value": 0.5, "unit": "s"}
    print(json.dumps({"correct": True, "metrics": metrics}))
'''


@pytest.mark.parametrize(
    "mode, correct, missing",
    [("all", True, None), ("lacks-one", False, ["setup_s"]),
     ("no-result", False, ["tasks_per_cpu_s", "setup_s"])],
)
def test_run_lacking_a_listed_metric_is_not_correct(tmp_path, mode, correct, missing):
    # a fake perfbench/run.py that exits 0 with correct: true every time
    bench_record = load_bench_record()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAKE_RUN)
    (tmp_path / "perfbench" / "mode.txt").write_text(mode)
    run = bench_record._run(str(tmp_path), "scaling", 1, 0, ["tasks_per_cpu_s", "setup_s"])
    assert (run["exit_code"], run["correct"]) == (0, correct)
    assert run.get("missing_metrics") == missing
    if correct:
        assert "stdout_tail" not in run
    else:
        tail = run["stdout_tail"]
        assert tail[:2] == ['{"meta": {"rounds": 1}}', "a line before the result"]
        assert len(tail) == 3 and (mode != "no-result" or tail[-1] == "not a result line")
    side = bench_record._side([run], run, {"tasks_per_cpu_s": "1/s", "setup_s": "s"})
    assert side["correct"] is correct
    for kept in (side["runs"][0], side["per_layer"]):
        assert kept.get("missing_metrics") == missing
        assert ("stdout_tail" in kept) is not correct


@pytest.mark.parametrize("base", [False, True])
def test_seeds_run_every_workload_in_turn(monkeypatch, tmp_path, base):
    # each seed goes through every workload, side order alternating by seed,
    # and the traced runs come last
    bench_record = load_bench_record()
    spec = bench_record._spec()
    names = [w["name"] for w in spec["workloads"]]
    listed = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    calls = []

    def fake_run(root, workload, seed, trace, wanted):
        side = "head" if root == bench_record.ROOT else "base"
        calls.append((seed, workload, side, trace))
        meta = {"rounds": 1, "git_sha": "f" * 40, "git_dirty": False}
        return {"seed": seed, "exit_code": 0, "correct": True, "meta": meta,
                "metrics": dict.fromkeys(listed, 1.0)}

    monkeypatch.setattr(bench_record, "_run", fake_run)
    monkeypatch.setattr(bench_record, "export_base", lambda sha, dest: None)
    monkeypatch.setattr(bench_record, "_resolve", lambda rev: "0" * 40)
    out = tmp_path / "bench.json"
    argv = ["bench_record.py", "--pr", "1", "--seeds", "1-3", "--out", str(out)]
    monkeypatch.setattr("sys.argv", argv + (["--base", "REV"] if base else []))
    bench_record.main()

    sides = ["base", "head"] if base else ["head"]
    want = [
        (seed, name, side, 0)
        for i, seed in enumerate((1, 2, 3))
        for name in names
        for side in (sides if i % 2 == 0 else sides[::-1])
    ] + [(1, name, side, 1) for name in names for side in sides]
    assert calls == want
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == names
    for entry in record["workloads"].values():
        per_side = [entry[side] for side in sides] if base else [entry]
        for side in per_side:
            assert [r["seed"] for r in side["runs"]] == [1, 2, 3]
            assert side["per_layer"]["seed"] == 1 and side["per_layer"]["rounds"] == 1
        assert ("compare" in entry) is base
    assert record["git_sha"] == "f" * 40
