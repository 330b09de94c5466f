"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import hashlib
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from helpers import assert_above_graph_lower_bound, hop_distances_oracle, random_connected_topology
from wsnlife.bounds import lifetime_bounds
from wsnlife.calibration import load_readings, profile_from_readings, reading_energy
from wsnlife.cli import dumps_canonical
from wsnlife.energy_model import CC2420_PAPER, build_model, receive_energy, send_energy
from wsnlife.fixtures import fixture_path, layered_topology
from wsnlife.frame_model import frame_preset
from wsnlife.simulator import STRATEGIES, SimConfig, simulate, validate_against_bounds
from wsnlife.topology import Topology, load_topology, partition

MODEL = build_model(CC2420_PAPER, frame_preset("paper-tinyos"))
GOLDEN_SWEEP_SHA256 = "726135bbccea055e9e6cd57cd3493896ee26d5b1c2e89fa0a05d305828601d8e"


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"{label}: FAIL")
        raise
    else:
        print(f"{label}: PASS")


def test_criterion_1_worked_example_base_case():
    with criterion("criterion 1 (worked-example reproduction)"):
        started = time.perf_counter()
        topo = load_topology(fixture_path("example-29node.topology.json"))
        part = partition(topo)
        assert part.sizes == (1, 4, 6, 10, 8)

        assert send_energy(MODEL, 2) == Fraction("3.78")
        assert receive_energy(MODEL, 2) == Fraction("4.27")

        report = lifetime_bounds(part, MODEL, payload_bytes=2, battery_joules=30780, interval_s=10)
        for computed, expected in zip(report.per_sphere_min, (52.08, 27.93, 10.22, 3.78)):
            assert abs(computed - expected) <= 0.005
        assert abs(report.t_max_lower_iterations - 139194) <= 1
        assert abs(report.t_max_upper_iterations - 591014) <= 1
        assert abs(report.lifetime_lower_hours - 387) <= 1
        assert abs(report.lifetime_upper_hours - 1642) <= 1

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"expected millisecond runtime, took {elapsed:.2f}s"


def test_criterion_2_aggregation_variant():
    with criterion("criterion 2 (aggregation variant)"):
        started = time.perf_counter()
        part = partition(layered_topology((1, 4, 6, 10, 8)))
        base = lifetime_bounds(part, MODEL, payload_bytes=2, battery_joules=30780, interval_s=10)
        aggregated = lifetime_bounds(part, MODEL, payload_bytes=6, battery_joules=30780, interval_s=30)
        assert abs(aggregated.lifetime_lower_hours - 1036) <= 1
        assert abs(aggregated.lifetime_upper_hours - 4398) <= 1
        lower_ratio = aggregated.lifetime_lower_hours / base.lifetime_lower_hours
        upper_ratio = aggregated.lifetime_upper_hours / base.lifetime_upper_hours
        assert abs(lower_ratio - 2.68) <= 0.01
        assert abs(upper_ratio - 2.68) <= 0.01
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"expected millisecond runtime, took {elapsed:.2f}s"


def test_criterion_3_model_construction():
    with criterion("criterion 3 (model construction)"):
        model = build_model(CC2420_PAPER, frame_preset("paper-tinyos"))
        assert (model.m_send, model.b_send, model.m_receive, model.b_receive) == (
            Fraction("0.12"),
            Fraction("3.54"),
            Fraction("0.12"),
            Fraction("4.03"),
        )


def test_criterion_4_calibration():
    with criterion("criterion 4 (calibration)"):
        slots = load_readings(fixture_path("cc2420.readings.json"))
        rounded = profile_from_readings(round_like_paper=True, **slots)
        assert rounded.e_cca == Fraction("0.08")
        assert rounded.e_listen == Fraction("0.58")
        assert rounded.m_tx == Fraction("0.12")
        plain = profile_from_readings(**slots)
        assert abs(plain.e_cca - 0.0806) <= 0.0005
        assert abs(plain.e_listen - 0.576) <= 0.0005
        assert abs(plain.m_tx - 0.1202) <= 0.0005
        # the readings alone reproduce the published CCA/listen figures too
        assert abs(reading_energy(slots["cca"][0]) - 0.0806) <= 0.0005


def _sweep_documents():
    """The criterion-5 sweep, serialized the same way the CLI serializes runs."""
    rng = random.Random(20260810)
    documents = []
    for case in range(100):
        topo = random_connected_topology(rng, rng.randint(2, 30))
        part = partition(topo)
        battery = rng.randint(1, 50) / 10  # <= 5 J so every run dies quickly
        report = lifetime_bounds(part, MODEL, payload_bytes=2, battery_joules=battery, interval_s=10)
        for strategy in STRATEGIES:
            config = SimConfig(strategy=strategy, battery_joules=battery, seed=case)
            result = simulate(topo, part, MODEL, config)
            verdict = validate_against_bounds(result, report)  # raises BoundViolation on failure
            assert verdict.lower_margin >= 0 and verdict.upper_margin >= 0
            assert_above_graph_lower_bound(topo, part, MODEL, result)
            documents.append(
                dumps_canonical(
                    {
                        "schema_version": 1,
                        "kind": "simulation",
                        "result": result.to_dict(),
                        "verdict": verdict.to_dict(),
                    }
                )
            )
    return documents


def test_criterion_5_bound_bracketing_sweep():
    with criterion("criterion 5 (bound-bracketing property sweep)"):
        started = time.perf_counter()
        documents = _sweep_documents()
        assert len(documents) == 300
        elapsed = time.perf_counter() - started
        assert elapsed < 120, f"sweep exceeded its runtime target: {elapsed:.1f}s"


def test_criterion_6_tightness_witnesses():
    with criterion("criterion 6 (tightness witnesses)"):
        chain = Topology(
            nodes=frozenset({"B", "a", "b"}),
            edges=frozenset({("B", "a"), ("a", "b")}),
            base="B",
        )
        part = partition(chain)
        report = lifetime_bounds(part, MODEL, payload_bytes=2, battery_joules=30780, interval_s=10)
        result = simulate(chain, part, MODEL, SimConfig(battery_joules=30780))
        assert result.completed_iterations == report.t_max_lower_iterations
        assert result.completed_iterations == report.t_max_upper_iterations

        star = Topology(
            nodes=frozenset({"B", "x", "y"}),
            edges=frozenset({("B", "x"), ("B", "y")}),
            base="B",
        )
        spart = partition(star)
        for battery in (0.0378, 0.04, 1.0):
            sreport = lifetime_bounds(spart, MODEL, payload_bytes=2, battery_joules=battery, interval_s=10)
            sresult = simulate(star, spart, MODEL, SimConfig(battery_joules=battery))
            assert sresult.completed_iterations == sreport.t_max_upper_iterations


def test_criterion_7_partition_oracle():
    with criterion("criterion 7 (partition oracle)"):
        rng = random.Random(424242)
        for _ in range(50):
            topo = random_connected_topology(rng, rng.randint(2, 30))
            part = partition(topo)
            oracle = hop_distances_oracle(topo)
            for node in topo.nodes:
                assert part.sphere_index(node) == oracle[node]


def test_criterion_8_determinism():
    with criterion("criterion 8 (determinism)"):
        first = _sweep_documents()
        second = _sweep_documents()
        assert first == second
        # the golden output: refactors must keep these bytes
        assert hashlib.sha256("".join(first).encode()).hexdigest() == GOLDEN_SWEEP_SHA256
