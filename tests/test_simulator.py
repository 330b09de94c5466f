import csv
import io
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_above_graph_lower_bound,
    irregular_topology,
    iteration_receives,
    partition_from_sizes,
    random_connected_topology,
    reference_simulate,
    save_topology,
    tree_descendants_oracle,
)
from wsnlife.bounds import ZeroEnergyModel, lifetime_bounds, sphere_min_energy
from wsnlife.cli import main
from wsnlife.fixtures import layered_topology
from wsnlife.energy_model import (
    CC2420_PAPER,
    EnergyModel,
    build_model,
    receive_energy,
    send_energy,
)
from wsnlife.errors import Error
from wsnlife.frame_model import frame_preset
from wsnlife.simulator import (
    STRATEGIES,
    BoundViolation,
    InvalidStrategyForTopology,
    Rotation,
    SimConfig,
    SimResult,
    SimulationError,
    build_workload,
    simulate,
    validate_against_bounds,
)
from wsnlife.topology import SpherePartition, Topology, partition

MODEL = build_model(CC2420_PAPER, frame_preset("paper-tinyos"))
FREE = EnergyModel(0, 0, 0, 0, 18)  # nothing drains, so every run reaches its cap


def make(nodes, edges, base):
    return Topology(nodes=frozenset(nodes), edges=frozenset(edges), base=base)


STAR = make({"B", "x", "y"}, {("B", "x"), ("B", "y")}, "B")
CHAIN = make({"B", "a", "b"}, {("B", "a"), ("a", "b")}, "B")


def run(topo, **kwargs):
    part = partition(topo)
    config = SimConfig(**kwargs)
    return simulate(topo, part, MODEL, config), part, config


def traced_receives(topo, strategy, seed, iterations):
    """Each battery node's receives at iterations 0 .. iterations - 1, as the trace replays them."""
    rows = []
    config = SimConfig(strategy=strategy, max_iterations=iterations, seed=seed)
    simulate(topo, partition(topo), FREE, config, trace=lambda i, receives: rows.append(receives))
    return rows


def test_star_leaves_die_after_ten_iterations():
    # each leaf only transmits: 3.78 mJ per iteration against a 37.8 mJ battery
    result, part, _ = run(STAR, battery_joules=0.0378)
    assert result.completed_iterations == 10
    assert result.per_node_spent == {"x": 37.8, "y": 37.8}
    assert result.first_dead == "x"  # both die; lexicographically first reported
    assert not result.cap_reached
    report = lifetime_bounds(part, MODEL, 2, 0.0378, 10)
    assert result.completed_iterations == report.t_max_upper_iterations


def test_chain_relay_dies_first_at_exact_iteration():
    # node a relays b's packet: 1 receive + 2 sends = 11.83 mJ per iteration,
    # so it dies at floor(30,780,000 / 11.83) = 2,601,859
    for strategy in STRATEGIES:
        result, part, _ = run(CHAIN, strategy=strategy, battery_joules=30780)
        assert result.completed_iterations == 2601859
        assert result.first_dead == "a"
        report = lifetime_bounds(part, MODEL, 2, 30780, 10)
        assert report.t_max_lower_iterations == result.completed_iterations
        assert report.t_max_upper_iterations == result.completed_iterations


def test_battery_below_one_iteration_means_zero_lifetime():
    result, _, _ = run(STAR, battery_joules=0.001)
    assert result.completed_iterations == 0
    assert result.first_dead is not None
    assert result.per_node_spent == {"x": 0.0, "y": 0.0}


def test_packet_conservation_of_every_strategy():
    rng = random.Random(99)
    for _ in range(10):
        topo = random_connected_topology(rng, rng.randint(2, 25))
        part = partition(topo)
        n_total = part.total
        for strategy in STRATEGIES:
            for receives in traced_receives(topo, strategy, 3, 12):
                for j in range(1, part.k + 1):
                    assert sum(receives[v] for v in part.spheres[j]) == n_total - part.cumulative[j]


def _rotation_topology(candidate_counts):
    """Base, one inner sphere, and one outer node per count wired to that many inner nodes."""
    inner = [f"a{i:02d}" for i in range(max(candidate_counts))]
    outer = [f"b{i}" for i in range(len(candidate_counts))]
    edges = {("B", a) for a in inner}
    for b, count in zip(outer, candidate_counts):
        edges |= {(a, b) for a in inner[:count]}
    return make({"B", *inner, *outer}, edges, "B")


# parent-candidate counts whose lcm, 30 808 063, is the round-robin period
LONG_ROTATION = _rotation_topology((11, 13, 17, 19, 23, 29))


def _reference_cases():
    """(topology, battery J, cap, seed) for the reference comparison.

    Each ``rng.randrange(2)`` whose value is dropped is a spare draw that
    keeps the random cases after it as they are.
    """
    rng = random.Random(186)
    caps = (37, 500, 10**9)
    for _ in range(40):
        topo = random_connected_topology(rng, rng.randint(2, 16))
        battery, cap, _ = rng.randint(1, 20) / 10, rng.choice(caps), rng.randrange(2)
        yield topo, battery, cap, rng.randrange(1000)
    # batteries that exactly one iteration empties: a node may spend all of it
    yield STAR, 0.00378, 10**9, 0
    yield CHAIN, 0.01183, 10**9, 0
    # batteries that run out exactly at the cap: the run is capped, and no node dies
    yield STAR, 0.0378, 10, 0
    yield CHAIN, 0.1183, 10, 0
    # the relay z dies at once; the leaf a, which sorts first, would spend
    # exactly its battery in that iteration, so it must not count as dying
    yield make({"B", "z", "a"}, {("B", "z"), ("z", "a")}, "B"), 0.00378, 10**9, 0
    # layer-size lcms 5355 and 72072: schedules far longer than the other cases
    wide = layered_topology((1, 5, 7, 9, 17))
    for battery in (0.5, 400.0):
        yield wide, battery, 10**9, 7
    longest = layered_topology((1, 7, 11, 13, 9, 8))
    for cap in (37, 500):
        yield longest, 1000.0, cap, 11
    yield longest, 2.5, 10**9, 12
    # random layerings whose batteries last several sphere sizes but less than
    # their lcm, where a node's own period and the global one differ; padding
    # the outer layer makes an inner sphere's inflow divide evenly
    e_recv, e_send = receive_energy(MODEL, 2), send_energy(MODEL, 2)
    made = 0
    while made < 8:
        sizes = [1] + [rng.randint(2, 9) for _ in range(rng.randint(2, 4))]
        j = rng.randrange(1, len(sizes) - 1)
        sizes[-1] += -sum(sizes[j + 1:]) % sizes[j]
        longest_layer, span = max(sizes), min(math.lcm(*sizes[1:]) - 1, 400)
        if 3 * longest_layer >= span:
            continue
        part = partition_from_sizes(sizes)
        busiest = max(sphere_min_energy(part, i, e_recv, e_send) for i in range(1, part.k + 1))
        iterations = rng.randint(3 * longest_layer, span)
        battery = round(iterations * busiest) / 1000  # whole mJ: lasts at most `iterations`
        rng.randrange(2)
        yield layered_topology(sizes), battery, 10**9, rng.randrange(1000)
        made += 1
    # ties for the first death, within a few periods: under balanced-rotating
    # every node of spheres 1 and 2 of (1, 4, 2, 2) relays one packet per
    # iteration; the two members of sphere 1 of (1, 2, 1) take turns at one
    # packet; and spheres 1 and 2 of (1, 3, 1, 2) relay one and two packets
    for battery in (0.05, 0.1):
        yield layered_topology((1, 4, 2, 2)), battery, 10**9, 0
    yield layered_topology((1, 2, 1)), 0.05, 10**9, 0
    yield layered_topology((1, 3, 1, 2)), 0.02, 10**9, 0
    # round-robin periods: 30 808 063 ended inside the first period by the cap
    # and by a death, and 210 ended by a death after several periods and by
    # caps one past the first period and after several
    yield LONG_ROTATION, 30780.0, 10, 4
    yield LONG_ROTATION, 0.05, 10**9, 4
    for cap in (10**9, 211, 1000):
        yield _rotation_topology((2, 3, 5, 7)), 20.0, cap, 4
    # irregular graphs shaped like the benchmark's, a few tens of hops deep
    # with many parent candidates per node: the cap, or a battery that runs
    # out within a few tens of iterations, keeps the reference stepper quick
    for n, battery, cap in ((250, 30780.0, 150), (320, 20.0, 10**9), (400, 20.0, 10**9)):
        topo, _ = irregular_topology(rng, n), rng.randrange(2)
        yield topo, battery, cap, rng.randrange(1000)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_simulate_matches_plain_reference_stepper(strategy):
    for topo, battery, cap, seed in _reference_cases():
        part = partition(topo)
        config = SimConfig(strategy=strategy, battery_joules=battery, max_iterations=cap, seed=seed)
        result = simulate(topo, part, MODEL, config)
        expected = reference_simulate(topo, part, MODEL, config)
        assert {key: getattr(result, key) for key in expected} == expected, config
        assert_above_graph_lower_bound(topo, part, MODEL, result)


def test_graph_strategies_route_whole_subtrees_on_spanning_trees():
    # one parent candidate per node: every descendant's packet passes through it
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(2, 60)
        nodes = [f"v{i:02d}" for i in range(n)]
        window = rng.choice((2, n))  # parents among the last two nodes make deep trees
        edges = {(nodes[i], nodes[rng.randrange(max(0, i - window), i)]) for i in range(1, n)}
        topo = make(nodes, edges, nodes[0])
        expected = tree_descendants_oracle(topo)
        for strategy in ("static-tree", "round-robin-parent"):
            rows = traced_receives(topo, strategy, rng.randrange(1000), 6)
            for iteration in (0, 1, 5):
                assert rows[iteration] == expected, (strategy, sorted(edges))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_zero_energy_model_reaches_the_default_cap_quickly(strategy):
    # nothing ever drains, so the run must skip to the cap instead of stepping
    # 10**9 iterations of a schedule (5355 iterations under balanced-rotating,
    # 2 under round-robin-parent, 1 under static-tree) one at a time
    topo = layered_topology((1, 5, 7, 9, 17))
    started = time.perf_counter()
    result = simulate(topo, partition(topo), FREE, SimConfig(strategy=strategy))
    elapsed = time.perf_counter() - started
    assert result.cap_reached
    assert result.first_dead is None
    assert result.completed_iterations == 10**9
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_long_global_period_is_not_stepped():
    # layer-size lcm 72072: the death comes from per-node schedules, where
    # stepping one to two global periods took more than 2 s
    topo = layered_topology((1, 7, 11, 13, 9, 8))
    started = time.perf_counter()
    result = simulate(topo, partition(topo), MODEL, SimConfig())
    elapsed = time.perf_counter() - started
    assert result.completed_iterations == 604358
    assert result.first_dead == "n01"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_round_robin_stops_at_the_cap_of_a_long_rotation_period():
    # stepping or tabulating the whole 30 808 063-iteration period would take
    # minutes and gigabytes; ten iterations must cost ten steps
    started = time.perf_counter()
    result, _, _ = run(LONG_ROTATION, strategy="round-robin-parent", max_iterations=10)
    elapsed = time.perf_counter() - started
    assert result.completed_iterations == 10
    assert result.cap_reached
    assert elapsed < 0.5, f"took {elapsed:.2f}s"


def test_every_node_transmits_what_it_receives_plus_its_own(tmp_path, capsys):
    # the trace CSV is where transmits are written out
    rng = random.Random(7)
    path = tmp_path / "random.topology.json"
    save_topology(random_connected_topology(rng, 20), path)
    e_recv, e_send = receive_energy(MODEL, 2), send_energy(MODEL, 2)
    for strategy in STRATEGIES:
        command = ["simulate", str(path), "--strategy", strategy, "--seed", "11", "--battery", "2", "--format", "trace"]
        assert main(command) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) >= 19 * 6  # 19 battery nodes, 6 iterations or more
        for row in rows:
            r, t = int(row["receives"]), int(row["transmits"])
            assert t == r + 1, row
            assert float(row["energy_mj"]) == float(r * e_recv + t * e_send), row


def test_balanced_rotation_evens_out_over_sphere_sized_windows():
    rng = random.Random(21)
    for _ in range(8):
        topo = random_connected_topology(rng, rng.randint(3, 28))
        part = partition(topo)
        rows = traced_receives(topo, "balanced-rotating", 5, 3 + max(part.sizes))
        for j in range(1, part.k + 1):
            size = part.sizes[j]
            inflow = part.total - part.cumulative[j]  # receives per window
            for start in range(4):
                window = rows[start:start + size]
                for v in part.spheres[j]:
                    assert sum(receives[v] for receives in window) == inflow


def test_rotation_leader_receives_most_over_every_prefix():
    # the death search bisects on each sphere's leader alone, which rests on this
    rng = random.Random(31)
    for _ in range(300):
        size, inflow = rng.randint(1, 12), rng.randint(0, 40)
        topo = layered_topology((1, size, inflow) if inflow else (1, size))
        seed = rng.randrange(1000)
        members = build_workload("balanced-rotating", topo, partition(topo), seed)[0][:size]
        rotation = Rotation(members, *divmod(inflow, size))
        received = dict.fromkeys(members, 0)
        for t, receives in enumerate(traced_receives(topo, "balanced-rotating", seed, 2 * size), 1):
            for v in members:
                received[v] += receives[v]
            most = received[members[rotation.leader]]
            for pos, v in enumerate(members):
                assert received[v] <= most, (size, inflow, t)
                assert rotation.received(pos, t) == received[v], (size, inflow, t)


def test_deterministic_under_identical_config():
    rng = random.Random(1)
    topo = random_connected_topology(rng, 15)
    part = partition(topo)
    config = SimConfig(strategy="round-robin-parent", battery_joules=1.0, seed=42)
    first = simulate(topo, part, MODEL, config)
    second = simulate(topo, part, MODEL, config)
    assert first == second
    assert first.to_dict() == second.to_dict()


def test_all_strategies_stay_within_bounds_on_random_networks():
    rng = random.Random(77)
    for _ in range(30):
        topo = random_connected_topology(rng, rng.randint(2, 30))
        part = partition(topo)
        report = lifetime_bounds(part, MODEL, 2, 2.0, 10)
        for strategy in STRATEGIES:
            config = SimConfig(strategy=strategy, battery_joules=2.0, seed=rng.randint(0, 999))
            result = simulate(topo, part, MODEL, config)
            verdict = validate_against_bounds(result, report)
            assert verdict.lower_margin >= 0
            assert verdict.upper_margin >= 0


coefficients = st.sampled_from((0, Fraction("0.12"), Fraction("3.54"), Fraction("4.03"))) | st.fractions(min_value=0, max_value=20, max_denominator=1000)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    n=st.integers(2, 40),
    graph_seed=st.integers(0, 2**16),
    irregular=st.booleans(),
    coefficients=st.just((0, 0, 0, 0)) | st.tuples(coefficients, coefficients, coefficients, coefficients),
    payload=st.integers(0, 109),  # the largest whose frame fits the PPDU
    battery=st.floats(0.001, 50),
    cap=st.sampled_from((1, 37, 10**9)) | st.integers(1, 10**9),
    seed=st.integers(0, 999),
    strategy=st.sampled_from(STRATEGIES),
)
def test_bounds_bracket_every_run(n, graph_seed, irregular, coefficients, payload, battery, cap, seed, strategy):
    rng = random.Random(graph_seed)
    topo = (irregular_topology if irregular else random_connected_topology)(rng, n)
    part = partition(topo)
    model = EnergyModel(*coefficients, 18)
    config = SimConfig(strategy=strategy, payload_bytes=payload, battery_joules=battery, max_iterations=cap, seed=seed)
    result = simulate(topo, part, model, config)
    try:
        report = lifetime_bounds(part, model, payload, battery, 10)
    except ZeroEnergyModel:  # no finite upper bound: the busiest sphere spends nothing
        return
    validate_against_bounds(result, report)
    assert_above_graph_lower_bound(topo, part, model, result)


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(
    n=st.integers(2, 30),
    graph_seed=st.integers(0, 2**16),
    irregular=st.booleans(),
    coefficients=st.tuples(coefficients, coefficients, coefficients, coefficients),
    payload=st.integers(0, 109),
    battery=st.floats(0.001, 20),
    # or the battery that the busiest node spends in exactly that many
    # iterations: the boundary between spending it all and dying
    spent_in=st.none() | st.integers(1, 300),
    cap=st.just(1000) | st.integers(1, 1000),  # the reference steps every iteration
    seed=st.integers(0, 999),
)
def test_simulate_matches_the_reference_stepper_on_any_input(
    strategy, n, graph_seed, irregular, coefficients, payload, battery, spent_in, cap, seed
):
    rng = random.Random(graph_seed)
    topo = (irregular_topology if irregular else random_connected_topology)(rng, n)
    part = partition(topo)
    model = EnergyModel(*coefficients, 18)
    if spent_in is not None:
        receives = iteration_receives(strategy, topo, part, seed)
        received = Counter()
        for i in range(spent_in):
            received.update(receives(i))
        e_recv, e_send = receive_energy(model, payload), send_energy(model, payload)
        battery = max(r * e_recv + (r + spent_in) * e_send for r in received.values()) / 1000
        assume(battery > 0)
    config = SimConfig(strategy=strategy, payload_bytes=payload, battery_joules=battery, max_iterations=cap, seed=seed)
    result = simulate(topo, part, model, config)
    expected = reference_simulate(topo, part, model, config)
    assert {key: getattr(result, key) for key in expected} == expected


def test_balanced_rotating_touches_upper_bound_when_shares_divide():
    # sphere loads divide evenly in the 29-node layering, so the rotation
    # achieves the analytical optimum exactly
    topo = layered_topology((1, 4, 6, 10, 8))
    part = partition(topo)
    result = simulate(topo, part, MODEL, SimConfig(battery_joules=50.0, seed=9))
    report = lifetime_bounds(part, MODEL, 2, 50.0, 10)
    assert result.completed_iterations == report.t_max_upper_iterations


def test_per_sphere_average_load_at_least_analytical_minimum():
    rng = random.Random(13)
    topo = random_connected_topology(rng, 22)
    part = partition(topo)
    result, _, _ = run(topo, strategy="static-tree", battery_joules=1.0, seed=4)
    assert result.completed_iterations > 0
    for j in range(1, part.k + 1):
        minimum = sphere_min_energy(part, j, receive_energy(MODEL, 2), send_energy(MODEL, 2))
        assert result.per_sphere_max_iteration_energy[j] >= minimum - 1e-9


def test_spend_too_large_for_a_float_is_an_error():
    # each leaf spends 1e308 mJ an iteration, 5e308 over the capped run
    huge = EnergyModel(0, 1e308, 0, 1e308, 18)
    config = SimConfig(battery_joules=1e308, max_iterations=5)
    with pytest.raises(Error, match="too large to report"):
        simulate(STAR, partition(STAR), huge, config)


def test_base_station_energy_tracked_but_never_dies():
    result, part, _ = run(STAR, battery_joules=0.0378)
    # base receives N-1 packets per iteration and is not in per_node_spent
    assert "B" not in result.per_node_spent
    assert result.base_station_spent == pytest.approx(10 * 2 * 4.27, abs=1e-9)
    assert result.base_station_spent > 37.8  # exceeds a leaf battery: kept alive anyway


def test_iteration_cap_reported_not_fatal():
    result, part, _ = run(CHAIN, battery_joules=30780, max_iterations=5)
    assert result.completed_iterations == 5
    assert result.cap_reached
    assert result.first_dead is None
    report = lifetime_bounds(part, MODEL, 2, 30780, 10)
    verdict = validate_against_bounds(result, report)
    assert not verdict.lower_enforced  # capped runs only check the upper bound


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_single_node_network_runs_to_cap(strategy):
    solo = make({"B"}, set(), "B")
    # no battery node can run out, even of a battery below one send (3.78 mJ)
    for battery in (1.0, 0.001):
        result, _, _ = run(solo, strategy=strategy, battery_joules=battery, max_iterations=17)
        assert result.completed_iterations == 17
        assert result.cap_reached
        assert result.first_dead is None
        assert result.per_node_spent == {}
        assert result.base_station_spent == 0.0


def test_validate_raises_on_fabricated_violation():
    result, part, config = run(CHAIN, battery_joules=30780)
    report = lifetime_bounds(part, MODEL, 2, 30780, 10)
    doctored = SimResult(
        strategy=result.strategy,
        seed=result.seed,
        payload_bytes=result.payload_bytes,
        battery_joules=result.battery_joules,
        completed_iterations=report.t_max_upper_iterations + 1,
        first_dead="a",
        cap_reached=False,
        per_node_spent=result.per_node_spent,
        base_station_spent=result.base_station_spent,
        per_sphere_max_iteration_energy=result.per_sphere_max_iteration_energy,
    )
    with pytest.raises(BoundViolation, match="above the upper bound"):
        validate_against_bounds(doctored, report)
    starved = SimResult(
        strategy=result.strategy,
        seed=result.seed,
        payload_bytes=result.payload_bytes,
        battery_joules=result.battery_joules,
        completed_iterations=report.t_max_lower_iterations - 1,
        first_dead="a",
        cap_reached=False,
        per_node_spent=result.per_node_spent,
        base_station_spent=result.base_station_spent,
        per_sphere_max_iteration_energy=result.per_sphere_max_iteration_energy,
    )
    with pytest.raises(BoundViolation, match="below the lower bound"):
        validate_against_bounds(starved, report)


def test_validate_rejects_mismatched_inputs():
    result, part, _ = run(CHAIN, battery_joules=30780)
    other = lifetime_bounds(part, MODEL, 6, 30780, 10)
    with pytest.raises(Error, match="different payloads"):
        validate_against_bounds(result, other)


def test_trace_callback_sees_every_completed_iteration():
    part = partition(STAR)
    rows = []
    simulate(
        STAR,
        part,
        MODEL,
        SimConfig(battery_joules=0.0378),
        trace=lambda i, receives: rows.append((i, dict(receives))),
    )
    assert [i for i, _ in rows] == list(range(10))
    assert all(receives == {"x": 0, "y": 0} for _, receives in rows)


def test_graph_strategies_need_a_parent_edge():
    fake = SpherePartition.from_spheres([{"B"}, {"a", "b"}])
    with pytest.raises(InvalidStrategyForTopology, match="b"):
        build_workload("static-tree", CHAIN, fake, seed=0)
    with pytest.raises(InvalidStrategyForTopology):
        build_workload("round-robin-parent", CHAIN, fake, seed=0)


def test_partition_topology_mismatch_detected():
    part = partition(CHAIN)
    with pytest.raises(SimulationError, match="not derived"):
        simulate(STAR, part, MODEL, SimConfig(battery_joules=1.0))


def test_config_validation():
    with pytest.raises(SimulationError):
        SimConfig(strategy="teleport")
    with pytest.raises(SimulationError):
        SimConfig(battery_joules=0)
    with pytest.raises(SimulationError):
        SimConfig(max_iterations=0)
    with pytest.raises(SimulationError, match=r"^max_iterations must be a non-negative integer, got 2\.5$"):
        SimConfig(max_iterations=2.5)
    with pytest.raises(SimulationError, match=r"^max_iterations must be a non-negative integer, got True$"):
        SimConfig(max_iterations=True)
    with pytest.raises(SimulationError):
        SimConfig(payload_bytes=-1)
    with pytest.raises(SimulationError):
        SimConfig(payload_bytes=2.5)
    with pytest.raises(SimulationError):
        SimConfig(payload_bytes=True)
