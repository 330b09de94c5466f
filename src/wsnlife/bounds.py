"""Per-sphere load minima and network lifetime bounds.

Every packet crosses every sphere boundary between its origin and the base
station exactly once, so the per-iteration workload of sphere i is fixed:
its nodes jointly receive the packets of all nodes outside their ball and
transmit those plus their own.  Spreading that workload perfectly evenly
gives the least possible per-node drain m_i; the busiest sphere then caps
the iteration count from above, while the most lopsided schedule a single
node could ever face caps it from below.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .energy_model import EnergyModel, receive_energy, send_energy
from .errors import Error
from .exact import as_exact, exact_number, to_float
from .topology import SpherePartition


class SphereIndexOutOfRange(Error):
    pass


class ZeroEnergyModel(Error):
    """All model coefficients are zero; iteration bounds would divide by zero."""


@dataclass(frozen=True)
class BoundsReport:
    """Analytical lifetime bounds for one network, model and schedule.

    Iteration bounds are reported both as reals and floored to whole
    completed iterations; lifetime converts floored iterations to hours at
    the configured reporting interval.
    """

    per_sphere_min: tuple          # m_1..m_k, mJ
    binding_sphere: int            # smallest index attaining max(m_i)
    worst_case_node_energy: float  # mJ
    t_max_lower: float
    t_max_upper: float
    t_max_lower_iterations: int
    t_max_upper_iterations: int
    lifetime_lower_hours: float
    lifetime_upper_hours: float
    battery_joules: float
    payload_bytes: int
    interval_s: float
    send_energy_mj: float
    receive_energy_mj: float

    def to_dict(self) -> dict:
        return {
            "inputs": {
                "battery_joules": self.battery_joules,
                "payload_bytes": self.payload_bytes,
                "interval_s": self.interval_s,
            },
            "energy_per_packet_mj": {
                "send": self.send_energy_mj,
                "receive": self.receive_energy_mj,
            },
            "per_sphere_min_mj": list(self.per_sphere_min),
            "binding_sphere": self.binding_sphere,
            "worst_case_node_energy_mj": self.worst_case_node_energy,
            "t_max": {
                "lower": self.t_max_lower,
                "upper": self.t_max_upper,
                "lower_iterations": self.t_max_lower_iterations,
                "upper_iterations": self.t_max_upper_iterations,
            },
            "lifetime_hours": {
                "lower": self.lifetime_lower_hours,
                "upper": self.lifetime_upper_hours,
            },
        }


def sphere_min_energy(partition: SpherePartition, i: int, e_recv, e_send) -> Fraction:
    """Least possible per-node drain (exact mJ) in sphere i for one iteration.

    The sphere's joint workload is divided evenly; the division is exact
    real arithmetic, the integer-packet schedule that approaches it is the
    simulator's concern.
    """
    if not 1 <= i <= partition.k:
        raise SphereIndexOutOfRange(
            f"sphere index {i} out of range 1..{partition.k}"
        )
    n_total = partition.total
    b_i = partition.cumulative[i]
    s_i = partition.sizes[i]
    r = as_exact(e_recv)
    t = as_exact(e_send)
    return Fraction(n_total - b_i, s_i) * r + Fraction(n_total - b_i + s_i, s_i) * t


def worst_case_node_energy(partition: SpherePartition, e_recv, e_send) -> Fraction:
    """Most one node can spend in a single iteration (exact mJ): it relays
    everything, receiving all other packets and transmitting them plus its
    own."""
    r = as_exact(e_recv)
    t = as_exact(e_send)
    n_routing = partition.total - partition.sizes[0]
    return (r + t) * n_routing - r


def lifetime_bounds(
    partition: SpherePartition,
    model: EnergyModel,
    payload_bytes: int,
    battery_joules: float,
    interval_s: float,
) -> BoundsReport:
    """Bracket the iteration count until first node death, and the lifetime
    in wall-clock hours given one iteration every ``interval_s`` seconds."""
    if partition.k < 1:
        raise Error("lifetime bounds need at least one node beyond the base station")
    battery_mj = exact_number("battery_joules", battery_joules, Error) * 1000
    if not battery_mj > 0:
        raise Error("battery_joules must be > 0")
    interval = exact_number("interval_s", interval_s, Error)
    if not interval > 0:
        raise Error("interval_s must be > 0")

    e_send = send_energy(model, payload_bytes)
    e_recv = receive_energy(model, payload_bytes)
    per_sphere = [
        sphere_min_energy(partition, i, e_recv, e_send) for i in range(1, partition.k + 1)
    ]
    m_max = max(per_sphere)
    binding = 1 + per_sphere.index(m_max)
    worst = worst_case_node_energy(partition, e_recv, e_send)
    if worst == 0 or m_max == 0:
        raise ZeroEnergyModel("all energy coefficients are zero")

    t_lower = battery_mj / worst
    t_upper = battery_mj / m_max
    it_lower = math.floor(t_lower)
    it_upper = math.floor(t_upper)

    return BoundsReport(
        per_sphere_min=tuple(to_float("sphere load minimum", m) for m in per_sphere),
        binding_sphere=binding,
        worst_case_node_energy=to_float("worst-case node energy", worst),
        t_max_lower=to_float("lower bound on T_max", t_lower),
        t_max_upper=to_float("upper bound on T_max", t_upper),
        t_max_lower_iterations=it_lower,
        t_max_upper_iterations=it_upper,
        lifetime_lower_hours=to_float("lower lifetime", it_lower * interval / 3600),
        lifetime_upper_hours=to_float("upper lifetime", it_upper * interval / 3600),
        battery_joules=battery_joules,
        payload_bytes=payload_bytes,
        interval_s=interval_s,
        send_energy_mj=to_float("send energy", e_send),
        receive_energy_mj=to_float("receive energy", e_recv),
    )
