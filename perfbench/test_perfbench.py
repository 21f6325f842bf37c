"""Self-tests for the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import signal
import time
from collections import Counter

import pytest

import hostspeed
import inputs
import run

run.import_program()

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMALL = {
    "fleet": {"users": 40, "trips_per_user": 4, "spot_affinity": 0.5},
    "rush": {"drivers": 80, "trips_per_driver": 5},
    "proofs": {"corpus": 200, "specs": 30, "max_k": 4},
}


def benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed():
    names = list(run.END_TO_END_UNITS) + list(run.per_layer_units())
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name


def test_benchmark_json_lists_what_the_runs_report():
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rush_timeline_is_valid(seed):
    timeline = inputs.rush_timeline(seed, drivers=60, trips_per_driver=5)
    assert [t for t, _, _ in timeline] == sorted(t for t, _, _ in timeline)
    inside: set[str] = set()
    holder: dict[str, str] = {}  # spot -> car that has used it this trip
    trips: Counter = Counter()
    for _, user, node in timeline:
        if user not in inside:
            assert node in inputs.GATE_ROADS, "a trip starts at a gate"
            inside.add(user)
        elif node in inputs.GATE_ROADS:
            # an exit: a gate is never passed through mid-trip
            inside.remove(user)
            trips[user] += 1
            holder = {spot: car for spot, car in holder.items() if car != user}
        elif node in inputs.SPOT_ROAD:
            assert holder.setdefault(node, user) == user, f"{node} is taken"
    assert not inside, "every trip ends at a gate"
    assert set(trips.values()) == {5}


def test_rush_default_size_stresses_contention():
    from smartlot.agents import DecisionConfig
    from smartlot.simulator import parse_scenario, run as simulate

    text = inputs.rush_scenario_text(1)
    peak, mean = inputs.max_in_lot(inputs.rush_timeline(1))
    assert peak >= 60 and mean >= 50
    report = simulate(parse_scenario(text, DecisionConfig(fallback_nearest=True)))
    seen = Counter(d.rationale for d in report.decisions)
    assert len(report.decisions) >= 1000
    assert seen["Preferred"] and seen["FallbackCandidate"] and seen["NearestFree"]
    assert report.stats.contradictions_resolved > 0


def test_worst_case_family_shape():
    family = inputs.worst_case_family()
    assert len(family) == 7
    assert family[1] == "F a1 & F a2 & G x & G (!x | y) & G !y"


def test_inputs_repeat_for_a_seed():
    assert inputs.random_corpus(5, 50) == inputs.random_corpus(5, 50)
    assert inputs.arrival_specs(5, 20) == inputs.arrival_specs(5, 20)
    assert inputs.rush_scenario_text(5, drivers=20) == inputs.rush_scenario_text(5, drivers=20)
    assert inputs.random_corpus(5, 50) != inputs.random_corpus(6, 50)


def test_hooks_bind_and_restore():
    import smartlot.agents
    import smartlot.tableaux

    original = smartlot.tableaux.build_tree
    tracer = run.Tracer()
    tracer.install([("tableaux.build_tree", "smartlot.tableaux", "build_tree", None),
                    ("gone.thing", "smartlot.tableaux", "no_such_function", None)])
    try:
        assert smartlot.agents.build_tree is smartlot.tableaux.build_tree is not original
        assert tracer.absent == ["smartlot.tableaux.no_such_function"]
    finally:
        tracer.remove()
    assert smartlot.agents.build_tree is original is smartlot.tableaux.build_tree


def test_host_speed_leaves_samples_out_and_scales_by_their_loop_times():
    speed = hostspeed.HostSpeed()
    speed.pauses = [(0, 10), (100, 110), (200, 210)]
    speed._ends = [10, 110, 210]
    speed.loop_us = [1.0, 2.0, 4.0]
    ref = hostspeed.REFERENCE_US
    assert speed.raw_us(20, 90) == pytest.approx(0.07)
    assert speed.scaled_us(20, 90) == pytest.approx(0.07 * ref * 2 / 3)
    # the sample at 100..110 is left out; each side is scaled by its own ends
    assert speed.raw_us(20, 190) == pytest.approx(0.16)
    assert speed.scaled_us(20, 190) == pytest.approx(0.08 * ref * 2 / 3 + 0.08 * ref * 2 / 6)


def test_host_speed_sample_is_left_out_of_an_interval():
    speed = hostspeed.HostSpeed()
    assert speed.due()
    t0 = time.perf_counter_ns()
    speed.sample()
    t1 = time.perf_counter_ns()
    assert speed.loop_us[0] > 0 and not speed.due()
    assert speed.raw_us(t0, t1) < (t1 - t0) / 1000


def test_host_speed_samples_on_a_timer_and_restores_the_signal():
    speed = hostspeed.HostSpeed()
    with speed.on_timer():
        t0 = time.perf_counter_ns()
        while time.perf_counter_ns() - t0 < 0.35e9:
            pass
        t1 = time.perf_counter_ns()
    assert len(speed.loop_us) >= 2
    assert speed.raw_us(t0, t1) < (t1 - t0) / 1000
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_small(name, trace):
    workdir = run.ROOT / ".bench_build" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    res, metrics, absent, workload = run.measure(name, 7, 0, trace, SMALL[name], workdir)
    assert res.problems == [] and res.failed == 0 and res.attempted > 0
    assert workload.digests.seen
    expected = run.per_layer_units() if trace else run.END_TO_END_UNITS
    assert set(metrics) == set(expected)
    if trace:
        assert absent == []
        if name == "fleet":
            # store breadth only makes knowledge the top layer at full size
            assert metrics["tableaux.build_tree.per_decision"] == 2.0
        else:
            top = max(run.LAYERS, key=lambda layer: metrics[f"{layer}.self_us"])
            assert top == {"rush": "worldgraph", "proofs": "tableaux"}[name]
    else:
        assert all(value > 0 for value in metrics.values())
