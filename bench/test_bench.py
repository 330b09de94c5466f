"""Tests of the benchmark's own machinery (run with the tier-1 pytest command)."""

import json
import math

import pytest

import gen
import run
import workloads
from measure import Tracer, self_times, tail
from wsnlife import fixtures


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(100, 0, -1))
    assert tail(values) == (90, 90.0, 10)
    value, pct, beyond = tail(list(range(1, 12)))
    assert (value, beyond) == (1, 10)
    assert pct == pytest.approx(100 / 11)


def test_tail_of_too_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert tail(list(range(10))) == (9, 100.0, 0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["query", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 4.0, 9.0, 0, 1],
        ["b.inner", 5.0, 6.0, 2, 1],
        ["query", 10.0, 12.0, None, 2],
    ]
    assert self_times(spans) == [2.0, 3.0, 4.0, 1.0, 2.0]


def test_tracer_records_parents_and_query_ids():
    tracer = Tracer()
    tracer.query = 7
    with tracer.span("query"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        with tracer.span("sibling"):
            pass
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["query", "outer", "inner", "sibling"]
    assert parents == [None, 0, 1, 0]
    assert {s[4] for s in tracer.spans} == {7}
    assert all(t >= 0 for t in self_times(tracer.spans))


@pytest.fixture
def small_large_network(monkeypatch):
    mix = [(60 if n < 10000 else 400, *rest) for n, *rest in gen.LARGE_MIX]
    monkeypatch.setattr(gen, "LARGE_MIX", mix)


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_generators_are_deterministic_per_seed(name, seed, small_large_network):
    first = gen.generate(name, seed, run.SRC)
    again = gen.generate(name, seed, run.SRC)
    other = gen.generate(name, seed + 1, run.SRC)
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert json.dumps(first, sort_keys=True) != json.dumps(other, sort_keys=True)


def test_long_period_inputs_exceed_the_fast_forward_period():
    for item in gen.long_period(3):
        assert item["period"] > gen.LONG_PERIOD
        assert item["period"] == math.lcm(*item["sizes"][1:])


def test_cli_counters_come_from_the_inputs():
    commands = gen.cli(4)["commands"]
    counts = gen.counters(commands)
    assert counts["input.schedule_period_max"] == (120, "iterations")
    assert counts["simulator.long_period_queries"] == (0, "count")
    assert counts["topology.nodes"] == (29 * len(commands), "count")


def test_layered_generator_matches_the_package_fixture():
    sizes = (1, 4, 6, 10, 8)
    expected = fixtures.layered_topology(sizes).to_dict()
    assert gen.layered_topology(sizes) == expected
    assert gen.hop_layer_sizes(expected) == list(sizes)


def test_irregular_generator_is_connected():
    import random

    doc = gen.irregular_topology(300, random.Random(5))
    assert sum(gen.hop_layer_sizes(doc)) == 300
    assert len(doc["edges"]) == 2 * 300 - 1


def _one_pass(workload):
    tally = run.Tally()
    run.run_phase(workload, run.NullTracer(), 0, tally, run.Deadline(60))
    return tally


def test_error_from_the_package_counts_as_failed():
    good = gen.paper_example(1, gen.bundled_example(run.SRC))[:1]
    bad = dict(good[0], text=good[0]["text"].replace('"base": "base"', '"base": "nowhere"'))
    tally = _one_pass(workloads.LibraryWorkload("paper-example", [good[0], bad]))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "TopologyError" in tally.problems[0]


def test_exit_code_one_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CLI_ENTRY", "import sys; sys.exit(1)")
    spec = {"files": {}, "commands": [{"kind": "bounds", "args": []}]}
    workload = workloads.CliWorkload(spec, tmp_path / "work", run.SRC, run.Deadline(60))
    try:
        tally = _one_pass(workload)
    finally:
        workload.close()
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "exit code 1" in tally.problems[0]


def test_changed_output_of_a_repeated_query_counts_as_failed():
    class Drifting(workloads.LibraryWorkload):
        calls = 0

        def run(self, item, tracer):
            self.calls += 1
            return str(self.calls), {"sizes": []}

    workload = Drifting("drift", [{"nodes": 1, "edges": 0}])
    tally = run.Tally()
    run.run_phase(workload, run.NullTracer(), 0, tally, run.Deadline(60))
    run.run_phase(workload, run.NullTracer(), 0, tally, run.Deadline(60))
    assert (tally.attempted, tally.failed) == (2, 1)
