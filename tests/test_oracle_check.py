"""``tools/oracle_check.py`` on the first two golden cases: a run compared
with itself, and with one leaf count changed."""

import importlib.util
import json
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "oracle_check.py"


def load_oracle_check():
    spec = importlib.util.spec_from_file_location("oracle_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_names_the_solve_that_differs(tmp_path, monkeypatch, capsys):
    oracle_check = load_oracle_check()
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(json.loads(oracle_check.GOLDEN_PATH.read_text())[:2]))
    monkeypatch.setattr(oracle_check, "GOLDEN_PATH", golden)
    out = tmp_path / "check.jsonl"
    assert oracle_check.main(["--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 2 * len(oracle_check.SOLVES) == 36
    printed = capsys.readouterr()
    # stdout carries the counts only; the timing goes to stderr
    with_y = sum(r["assignment"] is not None for r in rows)
    off = [r["ulps"] for r in rows if r["assignment"] is not None and r["ulps"] != 0]
    assert printed.out == (
        f"solves: 36\nwith an assignment: {with_y}\n"
        f"objective != metric: {len(off)} (at most {max(off, default=0)} ulps)\n"
    )
    timing = printed.err.splitlines()
    assert [line.split(":")[0] for line in timing] == ["whiterec", "whiterecinf", "feasi"]
    for line in timing:
        problem = line.split(":")[0]
        mine = [r for r in rows if r["problem"] == problem]
        leaves = sum(r["explored"] for r in mine)
        assert re.fullmatch(
            rf"{problem}: {len(mine)} solves, {leaves} leaves, "
            r"\d+\.\d{3} s CPU in the solver, (\d+|inf) leaves per CPU s",
            line,
        ), line

    assert oracle_check.main(["--compare", str(out)]) == 0
    assert capsys.readouterr().out.endswith("differing solves: 0\n")

    rows[5]["explored"] += 1
    out.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert oracle_check.main(["--compare", str(out)]) == 1
    printed = capsys.readouterr().out.splitlines()
    r = rows[5]
    name = f"case {r['case']} {r['problem']} k={r['k']} limit={r['limit']}"
    assert printed[-2:] == [
        f"{name}: explored {r['explored']} -> {r['explored'] - 1}",
        "differing solves: 1",
    ]
