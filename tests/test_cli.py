"""Exit codes, report schemas, and byte-level determinism of the CLI."""

import csv
import json
import math
import shutil
import subprocess
import sys
import warnings

import pytest

from conftest import cli_env
from chanrec import experiments, metrics
from chanrec.cli import main
from chanrec.netmodel import make_network, parse_assignment, parse_network, serialize_network


@pytest.fixture()
def k3_file(tmp_path):
    net = make_network(3, [(0, 1), (0, 2), (1, 2)], [1.0, 1.0, 1.0], 3, capacity=1.0)
    path = tmp_path / "k3.json"
    path.write_text(serialize_network(net))
    return str(path)


def run_cli(args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "chanrec.cli"] + args,
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_assign_eval_round_trip(tmp_path, k3_file, capsys):
    out = tmp_path / "y.json"
    assert main(["assign", "--net", k3_file, "--alg", "ifa", "--out", str(out)]) == 0
    net = parse_network(open(k3_file).read())
    y = parse_assignment(out.read_text(), net)
    assert len(set(y.channel_of)) == 3  # interference-free on the triangle

    rc = main(["eval", "--net", k3_file, "--assignment", str(out)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == [
        "m1", "m2", "capacity", "k", "witness_m1", "witness_m2",
        "mode", "z1", "z2", "beta", "feasible",
    ]
    assert report["capacity"] == 1.0 and report["feasible"] == "yes"


def test_assign_random_single_channel(tmp_path, capsys):
    net = make_network(3, [(0, 1), (1, 2)], [1.0, 2.0], 1)
    p = tmp_path / "net.json"
    p.write_text(serialize_network(net))
    assert main(["assign", "--net", str(p), "--alg", "random", "--seed", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["assignment"].values()) == {"w0"}


def test_assign_colors_out(tmp_path, k3_file):
    y = tmp_path / "y.json"
    c = tmp_path / "c.json"
    rc = main(
        ["assign", "--net", k3_file, "--alg", "ifa", "--out", str(y), "--colors-out", str(c)]
    )
    assert rc == 0
    colors = json.loads(c.read_text())["colors"]
    assert sorted(colors.values()) == [0, 1, 2]


def test_eval_bracket_mode_on_large_instance(tmp_path, capsys):
    from chanrec.experiments import InstanceSpec, generate_instance

    net = generate_instance(InstanceSpec(n_nodes=30, n_channels=3), 77)
    p = tmp_path / "big.json"
    p.write_text(serialize_network(net))
    a = tmp_path / "y.json"
    assert main(["assign", "--net", str(p), "--alg", "greedy", "--out", str(a)]) == 0
    assert main(["eval", "--net", str(p), "--assignment", str(a)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "bracket"
    assert report["m2_lo"] <= report["m2_hi"]
    assert isinstance(report["capacity"], list) and isinstance(report["beta"], list)
    # explicit exact mode on 30 nodes must refuse loudly
    assert main(["eval", "--net", str(p), "--assignment", str(a), "--mode", "exact"]) == 2


def test_usage_errors(tmp_path, k3_file):
    rc, _, err = run_cli(["eval", "--net", k3_file, "--assignment", "nope.json"])
    assert rc == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--net", k3_file, "--assignment", "x", "--k", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["assign", "--net", k3_file, "--alg", "simulated-annealing"])
    assert exc.value.code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["assign", "--net", str(bad), "--alg", "greedy"]) == 2


@pytest.mark.parametrize(
    "command, demand, capacity, msg",
    [
        ("eval", math.inf, 1.0, "non-finite demand"),
        ("oracle", math.inf, 1.0, "non-finite demand"),
        ("eval", 1.0, math.inf, "non-finite capacity"),
        ("eval", math.inf, math.inf, "non-finite demand"),  # inf / inf is NaN
        ("eval", 10**400, 1.0, "number out of range"),
        ("eval", math.nan, 1.0, "non-finite demand"),
        ("study", None, None, "< inf"),
    ],
)
def test_non_finite_and_overflowing_numbers_exit_2(
    tmp_path, capsys, command, demand, capacity, msg
):
    if command == "study":
        argv = [
            "study", "--kind", "scaling", "--sizes", "5", "--channels", "2",
            "--trials", "1", "--demand-range", "inf", "inf",
        ]
    else:
        doc = {
            "nodes": ["a", "b", "c"],
            "channels": ["w0"],
            "edges": [
                {"u": "a", "v": "b", "demand": demand},
                {"u": "b", "v": "c", "demand": 1.0},
            ],
            "capacity": capacity,
        }
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))  # writes Infinity / NaN literals
        y = tmp_path / "y.json"
        y.write_text(json.dumps({"assignment": {"0": "w0", "1": "w0"}}))
        if command == "eval":
            argv = ["eval", "--net", str(net), "--assignment", str(y)]
        else:
            argv = ["oracle", "--net", str(net), "--problem", "feasi"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and msg in captured.err


@pytest.mark.parametrize(
    "demand, capacity, flags",
    [
        (1e-300, 1e30, ["--demand-range", "1e-300", "1e-300", "--capacity-range", "1e30", "1e30"]),
        (1.0, 1e-310, ["--capacity-range", "1e-310", "1e-310"]),
        (1e-300, 1e10, ["--demand-range", "1e-300", "1e-300", "--capacity-range", "1e10", "1e10"]),
    ],
)
def test_ratios_out_of_float_range_exit_2(tmp_path, capsys, demand, capacity, flags):
    # demand / capacity, or its reciprocal, leaves float range: eval on such a
    # network file, and a study whose generator draws one
    net = tmp_path / "net.json"
    net.write_text(json.dumps({
        "nodes": ["a", "b"], "channels": ["w0"],
        "edges": [{"u": "a", "v": "b", "demand": demand}], "capacity": capacity,
    }))
    y = tmp_path / "y.json"
    y.write_text(json.dumps({"assignment": {"0": "w0"}}))
    study = ["study", "--kind", "traffic", "--sizes", "5", "--channels", "2", "--trials", "2"]
    for argv in (["eval", "--net", str(net), "--assignment", str(y)], study + flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: capacity[0][0]: demand over capacity out of range\n"


def test_non_string_names_exit_2_without_traceback(tmp_path, k3_file):
    # a JSON array where a node or channel name belongs
    doc = json.loads(open(k3_file).read())
    doc["edges"][0]["u"] = ["n0"]
    bad_net = tmp_path / "net.json"
    bad_net.write_text(json.dumps(doc))
    bad_y = tmp_path / "y.json"
    bad_y.write_text(json.dumps({"assignment": {"0": ["w0"], "1": "w0", "2": "w0"}}))
    for argv, msg in (
        (["assign", "--net", str(bad_net), "--alg", "greedy"], "expected a node name"),
        (["eval", "--net", k3_file, "--assignment", str(bad_y)], "expected a channel name"),
    ):
        rc, out, err = run_cli(argv)
        assert (rc, out) == (2, ""), err
        assert "Traceback" not in err and msg in err


def test_oddset_cap_over_limit_rejected_before_allocation(tmp_path, capsys, monkeypatch):
    def eval_args(n_nodes):
        net = make_network(n_nodes, [(0, 1), (1, 2)], [1.0, 2.0], 1)
        p = tmp_path / f"path{n_nodes}.json"
        p.write_text(serialize_network(net))
        y = tmp_path / "y.json"
        y.write_text(json.dumps({"assignment": {"0": "w0", "1": "w0"}}))
        return ["eval", "--net", str(p), "--assignment", str(y), "--mode", "exact"]

    # --mode exact alone asks for the enumeration above ODDSET_EXACT_CAP
    assert main(eval_args(metrics.ODDSET_EXACT_CAP + 1)) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "exact"

    def no_tables(n_nodes):
        raise AssertionError("odd-set tables allocated")

    monkeypatch.setattr(metrics, "_odd_masks", no_tables)
    assert main(eval_args(metrics.ODDSET_CAP_LIMIT + 1)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: exact odd-set enumeration stops at")

    # the size is chosen by --mode only; the old cap flag is unknown
    with pytest.raises(SystemExit) as exc:
        main(eval_args(3) + ["--oddset-cap", "20"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --oddset-cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "callee, argv, message",
    [
        ("evaluate", ["eval", "--mode", "bracket"], "Unable to allocate 7.28 TiB"),
        # Python's own MemoryError may carry no message
        ("run_scaling_study", ["study", "--kind", "scaling", "--sizes", "9", "--channels", "3"], ""),
    ],
)
def test_memory_error_exits_2(tmp_path, k3_file, monkeypatch, capsys, callee, argv, message):
    # a table too large for the host, such as bracket mode's n x n edge-id
    # table at a million nodes; raised here without allocating anything
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(f"chanrec.cli.{callee}", out_of_memory)
    y = tmp_path / "y.json"
    y.write_text(json.dumps({"assignment": {"0": "w0", "1": "w1", "2": "w2"}}))
    if argv[0] == "eval":
        argv = argv + ["--net", k3_file, "--assignment", str(y)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message or 'MemoryError'}\n"


def test_oracle_command(tmp_path, k3_file, capsys):
    assert main(["oracle", "--net", k3_file, "--problem", "whiterec", "--k", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] == 1.0 and doc["proven_optimal"] is True

    # tight budget: without --strict exit 0, with --strict exit 3
    from chanrec.experiments import InstanceSpec, generate_instance

    net = generate_instance(InstanceSpec(n_nodes=8, n_channels=3, capacity_range=(1e6, 1e6)), 3)
    p = tmp_path / "net.json"
    p.write_text(serialize_network(net))
    assert main(["oracle", "--net", str(p), "--problem", "whiterec", "--budget", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["proven_optimal"] is False
    rc = main(["oracle", "--net", str(p), "--problem", "whiterec", "--budget", "1", "--strict"])
    assert rc == 3


def test_oracle_feasi(k3_file, capsys):
    assert main(["oracle", "--net", k3_file, "--problem", "feasi"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] == 1.0


def test_study_csv_and_summary(tmp_path):
    csv_path = tmp_path / "out.csv"
    summary_path = tmp_path / "out.json"
    rc = main(
        [
            "study", "--kind", "scaling", "--sizes", "8,12", "--channels", "2",
            "--k", "2", "--trials", "3",
            "--out", str(csv_path), "--summary", str(summary_path),
        ]
    )
    assert rc == 0
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 3  # header + sizes x trials
    summary = json.loads(summary_path.read_text())
    assert summary["kind"] == "scaling" and "exponents" in summary


def test_study_out_dash_prints_the_csv(tmp_path, monkeypatch, capsys):
    # "-" is stdout for every output flag, as cli._write_out reads it
    study = ["study", "--kind", "scaling", "--sizes", "8", "--channels", "2", "--trials", "2"]
    monkeypatch.chdir(tmp_path)
    assert main(study + ["--out", "s.csv"]) == 0
    assert capsys.readouterr().out == ""
    assert main(study + ["--out", "-"]) == 0
    assert capsys.readouterr().out.encode() == (tmp_path / "s.csv").read_bytes()
    assert not (tmp_path / "-").exists()


def test_study_gap_flags(tmp_path):
    summary_path = tmp_path / "g.json"
    rc = main(
        [
            "study", "--kind", "gap", "--sizes", "6", "--channels", "3",
            "--k-values", "1", "--trials", "4",
            "--degree-cap", "2", "--capacity-range", "130", "130",
            "--summary", str(summary_path),
        ]
    )
    assert rc == 0
    summary = json.loads(summary_path.read_text())
    (cell,) = summary["cells"]
    assert cell["trials"] == 4


def _csv_rows(path):
    return list(csv.DictReader(path.read_text().splitlines()))


def test_study_generator_flags_reach_every_kind(tmp_path):
    from chanrec.experiments import InstanceSpec, generate_instance

    out = tmp_path / "s.csv"
    scaling = ["study", "--kind", "scaling", "--sizes", "10", "--channels", "2", "--trials", "3"]
    assert main(scaling + ["--degree-cap", "1", "--out", str(out)]) == 0
    spec = InstanceSpec(n_nodes=10, n_channels=2, degree_cap=1)
    rows = _csv_rows(out)
    assert len(rows) == 3
    for row in rows:
        net = generate_instance(spec, int(row["seed"]))
        assert net.max_degree <= 1 and int(row["n_edges"]) == net.n_edges

    out = tmp_path / "g.csv"
    gap = ["study", "--kind", "gap", "--sizes", "6", "--channels", "3", "--trials", "2"]
    assert main(gap + ["--demand-range", "5", "5", "--degree-cap", "2", "--out", str(out)]) == 0
    rows = _csv_rows(out)
    assert rows and all(
        float(row["l_tot"]) == 5.0 * int(row["n_edges"]) for row in rows
    )


@pytest.mark.parametrize(
    "kind, axis, message",
    [
        ("traffic", ["--sizes", "6,6"], "sizes"),
        ("scaling", ["--sizes", "0"], "sizes"),
        ("gap", ["--channels", "2,3,2"], "channel counts"),
        ("scaling", ["--channels", "0"], "channel counts"),
        ("gap", ["--k-values", "1,1"], "k values"),
        ("gap", ["--k-values", "0", "--jobs", "2"], "k values"),
    ],
)
def test_study_axes_refused_before_any_task(monkeypatch, capsys, kind, axis, message):
    def no_tasks(*args):
        raise AssertionError("tasks started")

    monkeypatch.setattr(experiments, "_run_tasks", no_tasks)
    argv = ["study", "--kind", kind, "--sizes", "6", "--channels", "2", "--trials", "2"]
    assert main(argv + axis) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message} must be positive and distinct")


@pytest.mark.parametrize(
    "kind, flag",
    [
        ("scaling", ["--k-values", "1"]),
        ("scaling", ["--budget", "100"]),
        ("gap", ["--k", "2"]),
        ("traffic", ["--k", "2"]),
        ("traffic", ["--k-values", "1"]),
    ],
)
def test_study_refuses_flags_of_other_kinds(monkeypatch, capsys, kind, flag):
    def no_work(*args):
        raise AssertionError("instance drawn or task started")

    monkeypatch.setattr(experiments, "_run_tasks", no_work)
    monkeypatch.setattr(experiments, "generate_instance", no_work)
    argv = ["study", "--kind", kind, "--sizes", "6", "--channels", "2", "--trials", "2"]
    assert main(argv + flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag[0]} does not apply to --kind {kind}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["assign", "--alg", "greedy", "--colors-out", "c.json"],
         "--colors-out does not apply to --alg greedy"),
        (["assign", "--alg", "random", "--colors-out", "c.json"],
         "--colors-out does not apply to --alg random"),
        (["assign", "--alg", "greedy", "--seed", "3"], "--seed does not apply to --alg greedy"),
        (["assign", "--alg", "ifa", "--seed", "3"], "--seed does not apply to --alg ifa"),
        (["oracle", "--problem", "feasi", "--k", "3"], "--k does not apply to --problem feasi"),
    ],
)
def test_flags_that_do_not_apply_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    # the network file does not exist: the flag is refused before it is read
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--net", "missing.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["gap", "traffic"])
def test_oracle_study_sizes_above_the_solver_limit_exit_2(monkeypatch, capsys, kind):
    def no_work(*args):
        raise AssertionError("instance drawn or task started")

    monkeypatch.setattr(experiments, "_run_tasks", no_work)
    monkeypatch.setattr(experiments, "generate_instance", no_work)
    argv = ["study", "--kind", kind, "--sizes", f"6,{metrics.ODDSET_EXACT_CAP + 1}",
            "--channels", "2", "--trials", "1", "--jobs", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: exact solvers enumerate odd sets and stop at {metrics.ODDSET_EXACT_CAP} nodes\n"
    )


def test_cli_byte_determinism(tmp_path, k3_file):
    args = ["eval", "--net", k3_file, "--assignment"]
    y = tmp_path / "y.json"
    main(["assign", "--net", k3_file, "--alg", "greedy", "--out", str(y)])
    rc1, out1, _ = run_cli(args + [str(y)])
    rc2, out2, _ = run_cli(args + [str(y)])
    assert rc1 == rc2 == 0 and out1 == out2

    study = [
        "study", "--kind", "traffic", "--sizes", "6", "--channels", "2",
        "--trials", "3", "--degree-cap", "2", "--capacity-range", "140", "140",
    ]
    rc1, _, _ = run_cli(study + ["--out", str(tmp_path / "a.csv"), "--summary", str(tmp_path / "a.json")])
    rc2, _, _ = run_cli(study + ["--jobs", "4", "--out", str(tmp_path / "b.csv"), "--summary", str(tmp_path / "b.json")])
    assert rc1 == rc2 == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_console_script_installed(k3_file):
    exe = shutil.which("chanrec")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "oracle", "--net", k3_file, "--problem", "whiterecinf"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["proven_optimal"] is True
