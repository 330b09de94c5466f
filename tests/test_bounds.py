import math
import random
from fractions import Fraction

import pytest

from helpers import partition_from_sizes, random_partition
from wsnlife.bounds import (
    SphereIndexOutOfRange,
    ZeroEnergyModel,
    lifetime_bounds,
    sphere_min_energy,
    worst_case_node_energy,
)
from wsnlife.energy_model import CC2420_PAPER, EnergyModel, RadioProfile, build_model, send_energy
from wsnlife.errors import Error
from wsnlife.frame_model import frame_preset
from wsnlife.topology import SpherePartition

E_SEND = Fraction("3.78")
E_RECV = Fraction("4.27")
PART29 = partition_from_sizes((1, 4, 6, 10, 8))
MODEL = build_model(CC2420_PAPER, frame_preset("paper-tinyos"))


def test_worked_example_sphere_minima():
    # m_i = ((N-b_i)/s_i) r + ((N-b_i+s_i)/s_i) t with N=29
    assert sphere_min_energy(PART29, 1, E_RECV, E_SEND) == pytest.approx(52.08, abs=0.005)
    assert sphere_min_energy(PART29, 2, E_RECV, E_SEND) == pytest.approx(27.93, abs=0.005)
    assert sphere_min_energy(PART29, 3, E_RECV, E_SEND) == pytest.approx(10.22, abs=0.005)
    assert sphere_min_energy(PART29, 4, E_RECV, E_SEND) == pytest.approx(3.78, abs=0.005)


def test_outermost_sphere_only_transmits():
    # b_k = N, so the outermost minimum is exactly one send
    assert sphere_min_energy(PART29, 4, E_RECV, E_SEND) == E_SEND
    rng = random.Random(5)
    for _ in range(20):
        part = random_partition(rng)
        assert sphere_min_energy(part, part.k, E_RECV, E_SEND) == E_SEND


def test_sphere_index_out_of_range():
    with pytest.raises(SphereIndexOutOfRange):
        sphere_min_energy(PART29, 0, E_RECV, E_SEND)
    with pytest.raises(SphereIndexOutOfRange):
        sphere_min_energy(PART29, 5, E_RECV, E_SEND)


def test_worked_example_worst_case():
    # (r + t) * (N - s_0) - r = 8.05 * 28 - 4.27
    assert worst_case_node_energy(PART29, E_RECV, E_SEND) == pytest.approx(221.13, abs=1e-9)


def test_two_node_network_worst_case_is_one_send():
    # a lone leaf only transmits: (r + t) * 1 - r = t
    leaf = partition_from_sizes((1, 1))
    assert worst_case_node_energy(leaf, E_RECV, E_SEND) == E_SEND


def test_chain_bounds_coincide():
    # B - a - b: m_1 = r + 2t = 11.83 equals the worst case, so lower == upper
    chain = partition_from_sizes((1, 1, 1))
    m1 = sphere_min_energy(chain, 1, E_RECV, E_SEND)
    assert m1 == pytest.approx(11.83, abs=1e-9)
    assert worst_case_node_energy(chain, E_RECV, E_SEND) == m1
    report = lifetime_bounds(chain, MODEL, 2, 30780, 10)
    assert report.t_max_lower_iterations == report.t_max_upper_iterations == 2601859


def test_worked_example_report():
    report = lifetime_bounds(PART29, MODEL, 2, 30780, 10)
    assert report.send_energy_mj == 3.78
    assert report.receive_energy_mj == 4.27
    assert report.per_sphere_min == (52.08, 27.93, 10.22, 3.78)
    assert report.binding_sphere == 1
    assert report.worst_case_node_energy == 221.13
    assert abs(report.t_max_lower_iterations - 139194) <= 1
    assert abs(report.t_max_upper_iterations - 591014) <= 1
    assert report.t_max_lower <= report.t_max_upper
    assert abs(report.lifetime_lower_hours - 387) <= 1
    assert abs(report.lifetime_upper_hours - 1642) <= 1


def test_aggregation_variant_report():
    report = lifetime_bounds(PART29, MODEL, 6, 30780, 30)
    assert abs(report.lifetime_lower_hours - 1036) <= 1
    assert abs(report.lifetime_upper_hours - 4398) <= 1


def test_floored_iterations_match_reals():
    report = lifetime_bounds(PART29, MODEL, 2, 30780, 10)
    assert report.t_max_lower_iterations == math.floor(report.t_max_lower)
    assert report.t_max_upper_iterations == math.floor(report.t_max_upper)
    assert report.lifetime_lower_hours == pytest.approx(
        report.t_max_lower_iterations * 10 / 3600, abs=1e-9
    )


def test_lower_bound_never_exceeds_upper_on_random_partitions():
    rng = random.Random(2024)
    for _ in range(200):
        part = random_partition(rng, max_total=50)
        r = rng.randint(1, 999) / 100
        t = rng.randint(1, 999) / 100
        worst = worst_case_node_energy(part, r, t)
        m_max = max(
            sphere_min_energy(part, i, r, t) for i in range(1, part.k + 1)
        )
        assert m_max <= worst + 1e-12
        report = lifetime_bounds(
            part,
            EnergyModel(0, t, 0, r, 18),
            payload_bytes=0,
            battery_joules=rng.randint(1, 1000),
            interval_s=10,
        )
        assert report.t_max_lower <= report.t_max_upper
        assert report.t_max_lower_iterations <= report.t_max_upper_iterations


def test_minima_depend_only_on_layer_sizes():
    a = partition_from_sizes((1, 4, 6, 10, 8))
    b = SpherePartition.from_spheres(
        [{f"x{i}{j}" for j in range(s)} for i, s in enumerate((1, 4, 6, 10, 8))]
    )
    for i in range(1, 5):
        assert sphere_min_energy(a, i, E_RECV, E_SEND) == sphere_min_energy(b, i, E_RECV, E_SEND)


def test_scaling_energies_scales_bounds():
    for scale in (2, 10):
        scaled = [sphere_min_energy(PART29, i, scale * E_RECV, scale * E_SEND) for i in range(1, 5)]
        plain = [sphere_min_energy(PART29, i, E_RECV, E_SEND) for i in range(1, 5)]
        for s, p in zip(scaled, plain):
            assert s == pytest.approx(scale * p, rel=1e-12)
        assert worst_case_node_energy(PART29, scale * E_RECV, scale * E_SEND) == pytest.approx(
            scale * worst_case_node_energy(PART29, E_RECV, E_SEND), rel=1e-12
        )
        big = build_model(
            RadioProfile(
                m_tx=scale * 0.12,
                m_rx=scale * 0.12,
                e_cca=scale * 0.08,
                e_listen=scale * 0.58,
                block_overrides={k: scale * v for k, v in CC2420_PAPER.block_overrides.items()},
            ),
            frame_preset("paper-tinyos"),
        )
        scaled_report = lifetime_bounds(PART29, big, 2, 30780, 10)
        base_report = lifetime_bounds(PART29, MODEL, 2, 30780, 10)
        assert scaled_report.t_max_upper == pytest.approx(base_report.t_max_upper / scale, rel=1e-12)
        assert scaled_report.t_max_lower == pytest.approx(base_report.t_max_lower / scale, rel=1e-12)


def test_larger_payload_weakly_shortens_lifetime():
    previous = None
    for n in range(0, 30):
        report = lifetime_bounds(PART29, MODEL, n, 30780, 10)
        if previous is not None:
            assert report.lifetime_lower_hours <= previous.lifetime_lower_hours
            assert report.lifetime_upper_hours <= previous.lifetime_upper_hours
        previous = report


def test_battery_taken_in_joules():
    report = lifetime_bounds(PART29, MODEL, 2, 30780, 10)
    # 30780 J = 30,780,000 mJ over the binding sphere's 52.08 mJ/iteration
    assert report.t_max_upper == pytest.approx(float(Fraction(30780000) / Fraction("52.08")), rel=1e-12)


def test_zero_model_raises():
    zero = EnergyModel(0, 0, 0, 0, 18)
    with pytest.raises(ZeroEnergyModel):
        lifetime_bounds(PART29, zero, 2, 30780, 10)


def test_degenerate_inputs_raise():
    base_only = partition_from_sizes((1,))
    with pytest.raises(Error):
        lifetime_bounds(base_only, MODEL, 2, 30780, 10)
    with pytest.raises(Error):
        lifetime_bounds(PART29, MODEL, 2, 0, 10)
    with pytest.raises(Error):
        lifetime_bounds(PART29, MODEL, 2, 30780, 0)
