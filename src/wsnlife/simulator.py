"""Deterministic iteration-level routing simulator.

Each iteration every node originates one packet and all packets are
forwarded sphere by sphere to the base station, unchanged and without
aggregation.  A node's iteration cost is receives * E(receive) plus
transmits * E(send).  A node dies when its remaining battery cannot cover
its next assigned workload; only fully completed iterations (all packets
delivered) count, and the run stops at the first death.

Three routing strategies are provided:

* ``balanced-rotating`` works at the sphere abstraction (any node of a
  sphere may receive from any node of the next sphere out) and rotates the
  uneven remainder of the workload around the sphere, which is the regime
  in which the analytical per-sphere optimum is achievable.
* ``static-tree`` fixes one parent per node along actual graph edges and
  never rebalances.
* ``round-robin-parent`` also respects graph edges but cycles each node
  through its eligible parents, one per iteration.

Battery drain is exact, so that death iterations match hand arithmetic
instead of depending on float summation order: the per-packet energies,
the overhead and the battery are rationals, and the run counts drain in
integer multiples of their common denominator.  Every strategy's workload
repeats with an exact period; one loop steps the first period, skips all
the whole periods every node survives, and steps to the death or the cap.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .bounds import BoundsReport
from .energy_model import EnergyModel, receive_energy_exact, send_energy_exact
from .errors import Error
from .exact import as_exact
from .topology import NodeId, SpherePartition, Topology, node_key

STRATEGIES = ("balanced-rotating", "static-tree", "round-robin-parent")


class SimulationError(Error):
    pass


class InvalidStrategyForTopology(SimulationError):
    """A graph-constrained strategy found a node with no eligible parent."""


class BoundViolation(Error):
    """Simulated lifetime fell outside the analytical bounds.

    This signals an implementation bug, never a legitimate outcome.
    """


@dataclass(frozen=True)
class SimConfig:
    strategy: str = "balanced-rotating"
    payload_bytes: int = 2
    battery_joules: float = 30780.0
    max_iterations: int = 10**9
    seed: int = 0
    # hook for overhearing-style drain that is out of the model's scope:
    # a constant added to every battery node's cost each iteration
    per_iteration_overhead_mj: float = 0.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise SimulationError(
                f"unknown strategy {self.strategy!r} (available: {', '.join(STRATEGIES)})"
            )
        if not self.battery_joules > 0:
            raise SimulationError("battery_joules must be > 0")
        if self.max_iterations < 1:
            raise SimulationError("max_iterations must be >= 1")
        if self.payload_bytes < 0:
            raise SimulationError("payload_bytes must be >= 0")
        if self.per_iteration_overhead_mj < 0:
            raise SimulationError("per_iteration_overhead_mj must be >= 0")


@dataclass(frozen=True)
class SimResult:
    strategy: str
    seed: int
    payload_bytes: int
    battery_joules: float
    completed_iterations: int
    first_dead: NodeId | None
    cap_reached: bool
    per_node_spent: dict       # battery node -> mJ
    base_station_spent: float  # mJ; tracked but the base never dies
    per_sphere_max_iteration_energy: dict  # sphere index (1..k) -> mJ

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "payload_bytes": self.payload_bytes,
            "battery_joules": self.battery_joules,
            "completed_iterations": self.completed_iterations,
            "first_dead": self.first_dead,
            "cap_reached": self.cap_reached,
            "per_node_spent_mj": {
                node_key(v): spent for v, spent in sorted(self.per_node_spent.items(), key=lambda kv: node_key(kv[0]))
            },
            "base_station_spent_mj": self.base_station_spent,
            "per_sphere_max_iteration_mj": {
                str(i): e for i, e in sorted(self.per_sphere_max_iteration_energy.items())
            },
        }


@dataclass(frozen=True)
class BoundsVerdict:
    """Outcome of checking a simulation against its analytical bounds."""

    completed_iterations: int
    lower_iterations: int
    upper_iterations: int
    lower_margin: int
    upper_margin: int
    lower_enforced: bool  # False when the run hit the iteration cap alive

    def to_dict(self) -> dict:
        return {
            "completed_iterations": self.completed_iterations,
            "lower_iterations": self.lower_iterations,
            "upper_iterations": self.upper_iterations,
            "lower_margin": self.lower_margin,
            "upper_margin": self.upper_margin,
            "lower_enforced": self.lower_enforced,
        }


def _shuffled(items, rng: random.Random) -> list:
    out = sorted(items, key=node_key)
    rng.shuffle(out)
    return out


def build_workload(strategy: str, topology: Topology, partition: SpherePartition, seed: int):
    """Per-iteration packet counts for every battery node.

    Returns ``(period, counts_fn)``.  ``counts_fn(i)`` maps each non-base
    node to its (receives, transmits) for iteration ``i``; the mapping is a
    pure function of the iteration index and repeats with ``period``, the
    exact length of the schedule.
    """
    rng = random.Random(seed)
    n_total = partition.total

    if strategy == "balanced-rotating":
        layers = []  # (members, inflow) per sphere 1..k
        for j in range(1, partition.k + 1):
            members = _shuffled(partition.spheres[j], rng)
            inflow = n_total - partition.cumulative[j]
            layers.append((members, inflow))

        def counts(iteration: int) -> dict:
            out = {}
            for members, inflow in layers:
                size = len(members)
                share, remainder = divmod(inflow, size)
                offset = iteration % size
                for pos, v in enumerate(members):
                    extra = 1 if (pos - offset) % size < remainder else 0
                    received = share + extra
                    out[v] = (received, received + 1)
            return out

        return math.lcm(*partition.sizes[1:]), counts

    adjacency = topology.adjacency()

    def candidates_for(j, v):
        inner = partition.spheres[j - 1]
        found = sorted((u for u in adjacency[v] if u in inner), key=node_key)
        if not found:
            raise InvalidStrategyForTopology(
                f"node {node_key(v)!r} has no neighbor one hop closer to the base"
            )
        return found

    if strategy == "static-tree":
        children = {v: [] for v in topology.nodes}
        order = []  # nodes outermost first
        for j in range(partition.k, 0, -1):
            for v in sorted(partition.spheres[j], key=node_key):
                parent = rng.choice(candidates_for(j, v))
                children[parent].append(v)
                order.append(v)
        subtree = {v: 1 for v in topology.nodes}
        for v in order:  # children are finalized before their parents
            subtree[v] += sum(subtree[c] for c in children[v])
        static = {v: (subtree[v] - 1, subtree[v]) for v in order}

        def counts(iteration: int) -> dict:
            return static

        return 1, counts

    # round-robin-parent
    rotations = {}  # node -> shuffled candidate list
    sphere_order = []  # spheres outermost first, nodes in lexicographic order
    for j in range(partition.k, 0, -1):
        members = sorted(partition.spheres[j], key=node_key)
        sphere_order.append(members)
        for v in members:
            cands = candidates_for(j, v)
            rng.shuffle(cands)
            rotations[v] = cands

    base = topology.base

    def counts(iteration: int) -> dict:
        received = {v: 0 for v in rotations}
        out = {}
        for members in sphere_order:
            for v in members:
                sends = 1 + received[v]
                cands = rotations[v]
                parent = cands[iteration % len(cands)]
                if parent != base:
                    received[parent] += sends
                out[v] = (received[v], sends)
        return out

    return math.lcm(*(len(c) for c in rotations.values())), counts


def _check_partition(topology: Topology, partition: SpherePartition):
    union = frozenset().union(*partition.spheres)
    if union != topology.nodes or partition.spheres[0] != frozenset({topology.base}):
        raise SimulationError("partition was not derived from this topology")


def simulate(
    topology: Topology,
    partition: SpherePartition,
    model: EnergyModel,
    config: SimConfig,
    trace=None,
) -> SimResult:
    """Run the collection protocol until the first death or the iteration cap.

    ``trace``, if given, is called as ``trace(iteration, counts)`` for each
    completed iteration in order, with the per-node (receives, transmits)
    mapping.  The calls replay the schedule after the run, so tracing does
    not change how the run is computed.
    """
    _check_partition(topology, partition)
    period, counts_fn = build_workload(config.strategy, topology, partition, config.seed)

    e_recv = receive_energy_exact(model, config.payload_bytes)
    e_send = send_energy_exact(model, config.payload_bytes)
    overhead = as_exact(config.per_iteration_overhead_mj)
    battery = as_exact(config.battery_joules) * 1000  # mJ

    # energy in integer units of 1/scale mJ: exact, with no Fraction in the loop
    scale = math.lcm(*(x.denominator for x in (e_recv, e_send, overhead, battery)))
    unit_recv, unit_send, unit_overhead, budget = (
        int(x * scale) for x in (e_recv, e_send, overhead, battery)
    )

    nodes = sorted(topology.nodes - {topology.base}, key=node_key)
    spent = [0] * len(nodes)
    cap = config.max_iterations
    completed = 0
    first_dead = None
    while completed < cap:
        counts = counts_fn(completed)
        after = [
            s + r * unit_recv + t * unit_send + unit_overhead
            for s, (r, t) in zip(spent, map(counts.__getitem__, nodes))
        ]
        if after and max(after) > budget:
            first_dead = next(v for v, s in zip(nodes, after) if s > budget)
            break
        spent = after
        completed += 1
        if completed == period:
            # spent is one period's cost per node: skip the whole periods that
            # every node survives, so death or the cap is within one period
            whole = min([(cap - completed) // period, *((budget - s) // s for s in spent if s)])
            spent = [s * (whole + 1) for s in spent]
            completed += whole * period

    # a network of only the base station has nothing to trace, however long it runs
    if trace is not None and nodes:
        for i in range(completed):
            trace(i, counts_fn(i))

    spent_by_node = dict(zip(nodes, spent))
    per_sphere_max = {}
    for j in range(1, partition.k + 1):
        if completed:
            top = max(spent_by_node[v] for v in partition.spheres[j])
            per_sphere_max[j] = float(Fraction(top, scale * completed))
        else:
            per_sphere_max[j] = 0.0

    return SimResult(
        strategy=config.strategy,
        seed=config.seed,
        payload_bytes=config.payload_bytes,
        battery_joules=config.battery_joules,
        completed_iterations=completed,
        first_dead=first_dead,
        cap_reached=first_dead is None,
        per_node_spent={v: float(Fraction(s, scale)) for v, s in spent_by_node.items()},
        base_station_spent=float(completed * (partition.total - 1) * e_recv),
        per_sphere_max_iteration_energy=per_sphere_max,
    )


def validate_against_bounds(result: SimResult, report: BoundsReport) -> BoundsVerdict:
    """Check a simulated lifetime against the analytical iteration bounds.

    The lower bound only binds a run that actually ended in a death; a run
    stopped by the iteration cap is checked against the upper bound alone.
    """
    if result.payload_bytes != report.payload_bytes:
        raise Error("simulation and bounds report used different payloads")
    if result.battery_joules != report.battery_joules:
        raise Error("simulation and bounds report used different batteries")
    lower = report.t_max_lower_iterations
    upper = report.t_max_upper_iterations
    completed = result.completed_iterations
    lower_enforced = result.first_dead is not None
    if completed > upper:
        raise BoundViolation(
            f"{result.strategy} completed {completed} iterations, above the upper bound {upper}"
        )
    if lower_enforced and completed < lower:
        raise BoundViolation(
            f"{result.strategy} completed {completed} iterations, below the lower bound {lower}"
        )
    return BoundsVerdict(
        completed_iterations=completed,
        lower_iterations=lower,
        upper_iterations=upper,
        lower_margin=completed - lower,
        upper_margin=upper - completed,
        lower_enforced=lower_enforced,
    )
