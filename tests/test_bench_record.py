"""The seed-range argument of ``tools/bench_record.py``."""

import argparse
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


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
