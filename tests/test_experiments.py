"""Instance generator, seed derivation, records, and the three studies."""

import csv
import io
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute import generate_instance_scalar
from chanrec import experiments
from chanrec.experiments import (
    CSV_HEADER,
    InstanceSpec,
    derive_seed,
    generate_instance,
    run_gap_study,
    run_scaling_study,
    run_traffic_study,
    uniform_demand_capacity_bound,
    write_records_csv,
)
from chanrec.metrics import ODDSET_EXACT_CAP, TOL, feasibility_ratio, recovery_capacity
from record_study_golden import CASES, GOLDEN_PATH, digests, run_case


def _mix_reference(master, index):
    # independent transcription of the golden-ratio/mix13 derivation
    mask = 2**64 - 1
    state = (master + (index + 1) * 0x9E3779B97F4A7C15) & mask
    state = ((state ^ (state >> 30)) * 0xBF58476D1CE4B5B9) & mask
    state = ((state ^ (state >> 27)) * 0x94D049BB133111EB) & mask
    return state ^ (state >> 31)


def test_derive_seed_matches_reference_mix():
    for master in (0, 1, 42, 2**64 - 1, 20240611):
        for index in (0, 1, 2, 999):
            assert derive_seed(master, index) == _mix_reference(master, index)
    seen = {derive_seed(12345, i) for i in range(10_000)}
    assert len(seen) == 10_000  # no collisions in practice


def test_generator_respects_degree_cap():
    spec = InstanceSpec(n_nodes=50, n_channels=3)
    for s in range(300):
        net = generate_instance(spec, s)
        assert net.max_degree <= spec.degree_cap
        assert all(1.0 <= r <= 100.0 for r in net.demands)
        for row in net.capacity:
            assert len(set(row)) <= 1  # one draw per channel
            assert all(75.0 <= c <= 200.0 for c in row)


def test_generator_corner_cases():
    matching = generate_instance(
        InstanceSpec(n_nodes=8, n_channels=2, degree_cap=1), 4
    )
    assert matching.max_degree <= 1
    complete = generate_instance(
        InstanceSpec(n_nodes=4, n_channels=2, edge_prob=1.0, degree_cap=10), 4
    )
    assert complete.n_edges == 6
    assert generate_instance(InstanceSpec(n_nodes=5, n_channels=2, edge_prob=0.0), 4).n_edges == 0


def test_generator_deterministic_per_seed():
    spec = InstanceSpec(n_nodes=12, n_channels=3)
    assert generate_instance(spec, 7) == generate_instance(spec, 7)
    assert generate_instance(spec, 7) != generate_instance(spec, 8)


def _assert_same_instance(ours, ref, case):
    assert ours.edges == ref.edges, case
    assert [r.hex() for r in ours.demands] == [r.hex() for r in ref.demands], case
    assert [[c.hex() for c in row] for row in ours.capacity] == [
        [c.hex() for c in row] for row in ref.capacity
    ], case
    assert ours.node_names == ref.node_names
    assert ours.channel_names == ref.channel_names


def test_generator_matches_scalar_draws_bitwise():
    # the library draws all coins, demands and capacities in one call each;
    # the reference draws one value per call in the same order
    for n in (1, 2, 3, 8, 40, 220):
        for p in (0.0, 0.3, 0.6, 1.0):
            for cap in (0, 2, 8, max(n, 9)):
                for i, (demand, capacity) in enumerate(
                    [((1.0, 100.0), (75.0, 200.0)), ((3.5, 3.5), (150.0, 150.0))]
                ):
                    spec = InstanceSpec(n, 1 + 3 * i, p, cap, demand, capacity)
                    for s in range(3):
                        seed = derive_seed(n * 1000 + cap, s)
                        ref = generate_instance_scalar(spec, seed)
                        _assert_same_instance(
                            generate_instance(spec, seed), ref, (spec, seed)
                        )


@st.composite
def generator_specs(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    return InstanceSpec(
        n_nodes=n,
        n_channels=draw(st.integers(min_value=1, max_value=4)),
        edge_prob=draw(st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0)),
        degree_cap=draw(st.integers(min_value=0, max_value=n + 1)),
    )


# the generator reads the pairs in windows of n * cap, 2 n * cap, ... pairs
# and drops the pairs at nodes already at the cap.  At n = 80 the examples
# read five windows and drop 2,950 of 3,160 pairs (cap 2, edge_prob 1), read
# four and drop 1,594 of 1,878 (cap 3), or read one and drop none (cap n - 1
# or more)
@settings(max_examples=150, deadline=None)
@example(spec=InstanceSpec(80, 2, 1.0, 2), seed=derive_seed(80, 2))
@example(spec=InstanceSpec(80, 3, 0.6, 3), seed=derive_seed(80, 3))
@example(spec=InstanceSpec(80, 2, 1.0, 79), seed=derive_seed(80, 79))
@example(spec=InstanceSpec(80, 1, 0.6, 81), seed=derive_seed(80, 100))
@given(spec=generator_specs(), seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_generator_matches_scalar_draws_on_random_specs(spec, seed):
    ref = generate_instance_scalar(spec, seed)
    _assert_same_instance(generate_instance(spec, seed), ref, (spec, seed))


def _reference_degree_sample(n, p, cap, trials, seed):
    """Same random process, written independently on the stdlib RNG."""
    rng = random.Random(seed)
    means = []
    for _ in range(trials):
        deg = [0] * n
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        for u, v in pairs:
            if rng.random() < p and deg[u] < cap and deg[v] < cap:
                deg[u] += 1
                deg[v] += 1
        means.append(sum(deg) / n)
    return means


def test_generator_degree_distribution_matches_reference():
    n, p, cap, trials = 30, 0.6, 8, 250
    spec = InstanceSpec(n_nodes=n, n_channels=2, edge_prob=p, degree_cap=cap)
    ours = [
        2.0 * generate_instance(spec, derive_seed(5, i)).n_edges / n
        for i in range(trials)
    ]
    ref = _reference_degree_sample(n, p, cap, trials, 99)
    diff = abs(np.mean(ours) - np.mean(ref))
    spread = math.sqrt(np.var(ours) / trials + np.var(ref) / trials)
    assert diff < 5.0 * spread, (np.mean(ours), np.mean(ref))


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        InstanceSpec(n_nodes=0, n_channels=1)
    with pytest.raises(ValueError):
        InstanceSpec(n_nodes=2, n_channels=1, edge_prob=1.5)
    with pytest.raises(ValueError):
        InstanceSpec(n_nodes=2, n_channels=1, demand_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        InstanceSpec(n_nodes=2, n_channels=1, capacity_range=(5.0, 2.0))
    for bad in ((1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="< inf"):
            InstanceSpec(n_nodes=2, n_channels=1, demand_range=bad)


def test_worker_count_clamped_to_cpus_and_tasks(monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
    assert experiments._run_tasks(list(range(10)), abs, 64) == list(range(10))
    assert experiments._run_tasks([0, 1, 2], abs, 64) == [0, 1, 2]
    assert experiments._run_tasks([7], abs, 64) == [7]  # one task: no pool
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    assert experiments._run_tasks([0, 1, 2], abs, 8) == [0, 1, 2]  # no pool
    assert started == [4, 3]


def test_csv_header_and_row_format(tmp_path):
    records, _ = run_scaling_study(
        sizes=[8], channel_counts=[2], k=1, trials=3, seed=5
    )
    out = tmp_path / "records.csv"
    write_records_csv(records, str(out))
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert (
        CSV_HEADER
        == "instance_id,seed,n_nodes,n_edges,n_channels,k,algorithm,"
        "m1,m2_lo,m2_hi,capacity_lo,capacity_hi,beta,l_tot,ratio,runtime_ms"
    )
    assert len(lines) == 1 + 3
    reader = csv.DictReader(io.StringIO(text))
    for row in reader:
        assert row["algorithm"] == "ifa"
        assert row["runtime_ms"] == "0.000000000"  # placeholder by design
        assert float(row["capacity_hi"]) >= float(row["capacity_lo"]) > 0
        # nine fixed decimals everywhere
        assert row["m1"].split(".")[1].__len__() == 9


def test_records_reverify_against_fresh_metrics():
    records, _ = run_gap_study(
        sizes=[6],
        channel_counts=[3],
        k_values=[1],
        trials=8,
        seed=17,
        spec_overrides={"degree_cap": 2, "capacity_range": (120.0, 120.0)},
    )
    spec = InstanceSpec(
        n_nodes=6, n_channels=3, degree_cap=2, capacity_range=(120.0, 120.0)
    )
    for rec in records:
        if rec.assignment is None:
            continue
        net = generate_instance(spec, rec.seed)
        rep = recovery_capacity(net, rec.assignment, rec.k, mode="exact")
        feas = feasibility_ratio(net, rec.assignment, mode="exact")
        assert abs(rep.m1 - rec.m1) < 1e-12
        assert abs(rep.capacity - rec.capacity_hi) < 1e-12
        assert abs(feas.beta_lo - rec.beta) < 1e-12
        assert abs(rec.l_tot - net.total_demand) < 1e-12


def test_scaling_study_shape_and_parallel_determinism():
    seq, summ = run_scaling_study(
        sizes=[8, 12], channel_counts=[2], k=2, trials=4, seed=23, jobs=1
    )
    par, summ2 = run_scaling_study(
        sizes=[8, 12], channel_counts=[2], k=2, trials=4, seed=23, jobs=2
    )
    assert seq == par
    assert summ == summ2
    assert len(seq) == 2 * 4
    assert [c["n_nodes"] for c in summ["cells"]] == [8, 12]
    assert all(c["mean_ratio"] > 0 for c in summ["cells"])
    assert "2" in summ["exponents"]


def test_scaling_uniform_demand_respects_coloring_bound():
    records, _ = run_scaling_study(
        sizes=[8, 12], channel_counts=[3], k=2, trials=5, seed=29,
        spec_overrides={"demand_range": (10.0, 10.0)},
    )
    for rec in records:
        spec = InstanceSpec(
            n_nodes=rec.n_nodes, n_channels=3, demand_range=(10.0, 10.0)
        )
        net = generate_instance(spec, rec.seed)
        bound = uniform_demand_capacity_bound(10.0, rec.k, net.max_degree, 3)
        # sizes here are small enough for exact mode, so capacity_lo is exact
        assert rec.capacity_lo <= bound + TOL


def test_scaling_records_sit_in_the_node_term_sandwich():
    # (k_eff/|W|) D_max <= m1 <= capacity_lo <= capacity_hi <= 1.5 m1 <=
    # 1.5 D_max, with D_max the largest node demand: the busiest node puts
    # at least k_eff/|W| of its demand on its top k_eff channels, and the
    # odd-set term never exceeds 1.5 m1.  Sizes on both sides of
    # ODDSET_EXACT_CAP, so exact and bracket rows both take part
    sizes = [10, ODDSET_EXACT_CAP + 2, 40]
    slack = 1.0 + 1e-12
    for k in (1, 2):
        records, _ = run_scaling_study(
            sizes=sizes, channel_counts=[2, 3], k=k, trials=2, seed=37
        )
        assert len(records) == 2 * 3 * 2
        for rec in records:
            spec = InstanceSpec(n_nodes=rec.n_nodes, n_channels=rec.n_channels)
            d_max = float(generate_instance(spec, rec.seed).node_demand.max())
            k_eff = min(rec.k, rec.n_channels)
            chain = [
                k_eff / rec.n_channels * d_max, rec.m1, rec.capacity_lo,
                rec.capacity_hi, 1.5 * rec.m1, 1.5 * d_max,
            ]
            for lo, hi in zip(chain, chain[1:]):
                assert lo <= hi * slack, (rec, chain)


def test_gap_study_cells_and_flags():
    records, summ = run_gap_study(
        sizes=[6],
        channel_counts=[3],
        k_values=[1],
        trials=10,
        seed=31,
        spec_overrides={"degree_cap": 2, "capacity_range": (140.0, 140.0)},
    )
    (cell,) = summ["cells"]
    assert cell["trials"] == 10
    assert cell["solved"] + cell["infeasible"] + cell["exhausted"] == 10
    assert set(cell["mean_gap"]) <= {"greedy", "ifa", "random"}
    if cell["solved"]:
        assert "ifa" in cell["mean_gap"]  # cap 2 < 3 channels, so IFA defined
        assert abs(cell["mean_gap"]["ifa"]) < TOL
        assert all(g >= -TOL for g in cell["mean_gap"].values())
    opt_rows = [r for r in records if r.algorithm == "optimal"]
    assert len(opt_rows) == 10


def test_gap_study_ifa_absent_when_channels_scarce():
    _, summ = run_gap_study(
        sizes=[8],
        channel_counts=[2],
        k_values=[1],
        trials=6,
        seed=37,
        spec_overrides={"degree_cap": 4, "capacity_range": (1e6, 1e6)},
    )
    (cell,) = summ["cells"]
    # with degree 3..4 typical and only 2 channels IFA is undefined
    assert "ifa" not in cell["mean_gap"] or cell["gap_counts"]["ifa"] < cell["solved"]


def test_gap_vanishes_when_preemptions_cover_all_channels():
    # k = |W| makes both capacity terms assignment-independent
    records, summ = run_gap_study(
        sizes=[6],
        channel_counts=[2],
        k_values=[2],
        trials=8,
        seed=41,
        spec_overrides={"degree_cap": 2, "capacity_range": (150.0, 150.0)},
    )
    (cell,) = summ["cells"]
    for alg, g in cell["mean_gap"].items():
        assert abs(g) < TOL, alg


def test_traffic_study_summary():
    records, summ = run_traffic_study(
        sizes=[6],
        channel_counts=[3],
        trials=10,
        seed=43,
        spec_overrides={"degree_cap": 2, "capacity_range": (150.0, 150.0)},
    )
    (cell,) = summ["cells"]
    assert cell["trials"] == 10
    ms = cell["mean_sustained"]
    assert 0.0 <= min(ms.values()) and max(ms.values()) <= 1.0 + TOL
    if cell["solved"]:
        top = ms["optimal"]
        assert all(top >= v - TOL for v in ms.values())
    # feasi always returns an incumbent, so every instance has an optimal row
    assert sum(1 for r in records if r.algorithm == "optimal") == cell["trials"]


def test_gap_study_parallel_determinism():
    kwargs = dict(
        sizes=[6],
        channel_counts=[2],
        k_values=[1],
        trials=6,
        seed=47,
        spec_overrides={"degree_cap": 2, "capacity_range": (130.0, 130.0)},
    )
    a, sa = run_gap_study(jobs=1, **kwargs)
    b, sb = run_gap_study(jobs=3, **kwargs)
    assert a == b and sa == sb


@pytest.mark.parametrize(
    "run, kwargs",
    [
        (run_gap_study, dict(k_values=[1, 2], budget=10)),
        (run_traffic_study, dict(budget=10)),
    ],
)
def test_oracle_studies_same_at_one_and_two_jobs(run, kwargs):
    # solved and budget-exhausted instances; tasks carry the problem as a
    # string, so they pickle for the pool
    common = dict(sizes=[6, 8], channel_counts=[2, 3], trials=3, seed=11, **kwargs)
    a, sa = run(jobs=1, **common)
    b, sb = run(jobs=2, **common)
    assert a == b and sa == sb


@pytest.mark.parametrize(
    "run, kwargs, axis",
    [
        (run_scaling_study, dict(sizes=[8, 8], channel_counts=[2], k=1), "sizes"),
        (run_scaling_study, dict(sizes=[8], channel_counts=[2], k=0), "k values"),
        (run_gap_study, dict(sizes=[6], channel_counts=[2, 2], k_values=[1]), "channel counts"),
        (run_gap_study, dict(sizes=[6], channel_counts=[2], k_values=[1, 1]), "k values"),
        (run_gap_study, dict(sizes=[6], channel_counts=[2], k_values=[0], jobs=2), "k values"),
        (run_traffic_study, dict(sizes=[6, 6], channel_counts=[2], jobs=2), "sizes"),
        (run_traffic_study, dict(sizes=[0], channel_counts=[2]), "sizes"),
        (run_traffic_study, dict(sizes=[6], channel_counts=[-1]), "channel counts"),
    ],
)
def test_study_axes_checked_before_any_task(monkeypatch, run, kwargs, axis):
    def no_tasks(*args):
        raise AssertionError("tasks started")

    monkeypatch.setattr(experiments, "_run_tasks", no_tasks)
    with pytest.raises(ValueError, match=f"^{axis} must be positive and distinct"):
        run(trials=2, **kwargs)


@pytest.mark.parametrize(
    "run, kwargs", [(run_gap_study, dict(k_values=[1])), (run_traffic_study, {})]
)
def test_oracle_studies_refuse_sizes_above_the_solver_limit_first(monkeypatch, run, kwargs):
    started = {"instances": 0, "pools": 0}
    generate = experiments.generate_instance

    def counted_generate(spec, seed):
        started["instances"] += 1
        return generate(spec, seed)

    class CountedPool:  # maps in this process
        def __init__(self, max_workers):
            started["pools"] += 1

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(experiments, "generate_instance", counted_generate)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    with pytest.raises(
        ValueError,
        match=f"^exact solvers enumerate odd sets and stop at {ODDSET_EXACT_CAP} nodes$",
    ):
        run(sizes=[6, ODDSET_EXACT_CAP + 1], channel_counts=[2], trials=1, jobs=2, **kwargs)
    assert started == {"instances": 0, "pools": 0}


def test_studies_match_golden_file():
    # CSV, rendered summary and in-memory rows recorded by
    # tests/record_study_golden.py; a diff means a study's output changed
    golden = {doc.pop("name"): doc for doc in json.loads(GOLDEN_PATH.read_text())}
    assert sorted(golden) == sorted(name for name, _, _ in CASES)
    for name, kind, kwargs in CASES:
        assert digests(*run_case(kind, kwargs)) == golden[name], name
