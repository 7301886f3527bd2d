"""The arguments of ``tools/bench_record.py`` and its ``--base`` export."""

import argparse
import filecmp
import importlib.util
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
