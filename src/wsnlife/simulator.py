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
instead of depending on float summation order: the per-packet energies and
the battery are rationals, and the run counts drain in integer multiples
of their common denominator.  Each node transmits what it receives plus
its own packet, so its drain after t iterations is t * E(send) + R(t) *
(E(receive) + E(send)), where R(t) is its cumulative receive count.
Every strategy's workload has one shape: its battery nodes, one
per-iteration rule (their receives at iteration i, which decides who dies
at the end of the run and which the trace replays), and one search for the
run's end.  The members of a ``balanced-rotating`` sphere take turns at
one workload, and the member whose turn starts the period dies no later
than the others, so the search needs that member alone, once per sphere:
skip the whole periods its battery covers, then bisect within one period.
The graph strategies send each node's packets to its parents in turn (one
parent under ``static-tree``), so a node's receives depend on the cycles
of every node upstream of it.  Their battery nodes are indexed once,
outermost sphere first, so one pass over a list of ints routes an
iteration.  Their shared schedule is stepped on such lists, testing only
the busiest node, never past the cap or the first death, and at most one
period before the whole periods every node survives are skipped.
"""

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import add
from typing import NamedTuple

from .bounds import BoundsReport
from .energy_model import EnergyModel, receive_energy, send_energy
from .errors import Error
from .exact import exact_number, to_float
from .frame_model import byte_count
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
    battery_mj: Fraction = field(init=False, repr=False, compare=False)  # the battery, exact

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise SimulationError(
                f"unknown strategy {self.strategy!r} (available: {', '.join(STRATEGIES)})"
            )
        battery_mj = exact_number("battery_joules", self.battery_joules, SimulationError) * 1000
        if not battery_mj > 0:
            raise SimulationError("battery_joules must be > 0")
        object.__setattr__(self, "battery_mj", battery_mj)
        if byte_count("max_iterations", self.max_iterations, SimulationError) < 1:
            raise SimulationError("max_iterations must be >= 1")
        byte_count("payload_bytes", self.payload_bytes, SimulationError)


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
        return dict(vars(self))  # the fields are the keys; asdict would deep-copy them, about 20x slower


class Rotation(NamedTuple):
    """Nodes that take turns at one workload: at iteration ``i`` every member
    receives ``share`` packets, and the members at positions ``i`` to
    ``i + remainder - 1``, modulo the size, one more each."""

    members: list
    share: int
    remainder: int

    @property
    def leader(self) -> int:
        """Position of the member that receives the most over every prefix of the run."""
        return (self.remainder - 1) % len(self.members)

    def received(self, pos: int, t: int) -> int:
        """Packets the member at ``pos`` receives over iterations ``[0, t)``:
        its extras are those the leader gets over ``[lag, lag + t)``, and over
        ``[0, x)`` the leader gets ``x // size * remainder + min(remainder, x % size)``."""
        size = len(self.members)
        lag = (self.remainder - 1 - pos) % size
        whole, rest = divmod(lag + t, size)
        return self.share * t + whole * self.remainder + min(self.remainder, rest) - min(self.remainder, lag)

    def receives(self, i: int) -> list:
        """Each member's receives at iteration ``i``, by position."""
        size = len(self.members)
        return [self.share + ((pos - i) % size < self.remainder) for pos in range(size)]

    def lifetime(self, cap: int, budget: int, drain) -> int:
        """Iterations the leader completes before its battery runs out, at most ``cap``."""
        size = len(self.members)

        def leader_drain(t: int) -> int:
            return drain(t, self.received(self.leader, t))

        per_period = leader_drain(size)
        if not per_period:
            return cap
        whole, left = divmod(budget, per_period)
        # offset 0 always fits what is left and offset `size` never does, so
        # the death offset is the number of offsets in [1, size) that fit
        fits = bisect_right(range(1, size), left, key=leader_drain)
        return min(cap, whole * size + fits)


def build_workload(strategy: str, topology: Topology, partition: SpherePartition, seed: int):
    """The workload of a strategy: ``(order, receives, search)``, one shape for all three.

    ``order`` lists the battery nodes; ``receives(i)``, a pure function of
    the iteration index, gives their receive counts at iteration ``i`` as a
    list in ``order`` (each node transmits one more); ``search(cap, budget,
    drain)`` returns ``(completed, received)``: the iterations completed
    before the first death or the cap, and each node's receives over them.
    ``drain(t, r)`` is what ``t`` iterations with ``r`` receives cost, in
    the units of ``budget``.  Under ``balanced-rotating`` each sphere,
    innermost first, is one ``Rotation`` of shuffled members, and ``search``
    takes the least of their lifetimes.  Under the graph strategies each
    node cycles through its parents, one per iteration (all inner neighbours
    shuffled, or one under ``static-tree``); the spheres come outermost
    first, each in ``node_key`` order, and ``search`` steps the schedule,
    whose period is the lcm of the cycle lengths.
    """
    rng = random.Random(seed)
    spheres = [sorted(sphere, key=node_key) for sphere in partition.spheres]

    if strategy == "balanced-rotating":
        rotations = []
        for j in range(1, partition.k + 1):
            rng.shuffle(spheres[j])
            inflow = partition.total - partition.cumulative[j]
            rotations.append(Rotation(spheres[j], *divmod(inflow, partition.sizes[j])))

        def search(cap: int, budget: int, drain):
            completed = min((rotation.lifetime(cap, budget, drain) for rotation in rotations), default=cap)
            return completed, [r.received(pos, completed) for r in rotations for pos in range(len(r.members))]

        order = [v for rotation in rotations for v in rotation.members]
        return order, lambda i: [r for rotation in rotations for r in rotation.receives(i)], search

    order = [v for sphere in reversed(spheres[1:]) for v in sphere]  # battery nodes, outermost sphere first
    index = {v: i for i, v in enumerate(order + spheres[0])}  # the base takes the slot after the last node
    neighbors = topology.neighbors
    cycles = []  # per node of `order`, the indices of its parents in turn
    for j in range(partition.k, 0, -1):
        inner = partition.spheres[j - 1]
        for v in spheres[j]:
            # an inner sphere's slots follow node_key order, so this sorts by node_key
            cands = sorted(index[u] for u in neighbors[v] if u in inner)
            if not cands:
                raise InvalidStrategyForTopology(
                    f"node {node_key(v)!r} has no neighbor one hop closer to the base"
                )
            if strategy == "static-tree":
                cands = [rng.choice(cands)]
            else:
                rng.shuffle(cands)
            cycles.append(cands)

    period = math.lcm(*map(len, cycles))

    def receives(iteration: int) -> list:
        """Each node's receives at ``iteration``, in ``order``; senders come before their parents."""
        received = [0] * len(index)
        for v, cands in enumerate(cycles):
            received[cands[iteration % len(cands)]] += 1 + received[v]
        del received[-1]  # the base's
        return received

    return order, receives, partial(_step_shared_schedule, order, period, receives)


def _step_shared_schedule(order, period, receives, cap, budget, drain):
    """Step a workload that every node shares to its first death or the cap.

    Returns ``(completed, received)``: each node's receive count over
    ``[0, completed)``, as a list in ``order``.  Drain grows with receives,
    so each step tests only the busiest node.  If every node outlives the
    first period, the whole periods they all survive are skipped and only the
    period that holds the death or the cap is stepped again: at most twice
    min(period, cap, death + 1) iterations.
    """
    if not order:  # only the base station, which never dies
        return cap, []

    def step(whole: int, per_period: list):
        start = whole * period
        received = [whole * r for r in per_period]
        for i in range(start, min(start + period, cap)):
            after = list(map(add, received, receives(i)))
            if drain(i + 1, max(after)) > budget:
                return i, received
            received = after
        return min(start + period, cap), received

    completed, received = step(0, [0] * len(order))
    if completed == period < cap:  # every node outlived the first period, short of the cap
        whole = cap // period
        per_period = drain(period, max(received))
        if per_period:
            whole = min(whole, budget // per_period)
        completed, received = step(whole, received)
    return completed, received


def iteration_cost(model: EnergyModel, config: SimConfig):
    """``(cost, budget, scale)`` in exact integer units of 1/scale mJ, where
    ``cost(receives, transmits)`` is receives * E(receive) + transmits *
    E(send) and ``budget`` the battery."""
    exact = (
        receive_energy(model, config.payload_bytes),
        send_energy(model, config.payload_bytes),
        config.battery_mj,
    )
    scale = math.lcm(*(x.denominator for x in exact))
    unit_recv, unit_send, budget = (int(x * scale) for x in exact)

    def cost(receives: int, transmits: int) -> int:
        return receives * unit_recv + transmits * unit_send

    return cost, budget, scale


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

    The run ends at the earliest death or the cap.  A node dies then when
    one more iteration would overrun its battery, and among those the
    smallest ``node_key`` is ``first_dead``.

    ``trace``, if given, is called as ``trace(iteration, receives)`` for each
    completed iteration in order, with each battery node's receive count; it
    transmits one more.  The calls replay the workload after the run, so
    tracing does not change how the run is computed.
    """
    _check_partition(topology, partition)
    order, receives, search = build_workload(config.strategy, topology, partition, config.seed)

    cost, budget, scale = iteration_cost(model, config)
    relay, own = cost(1, 1), cost(0, 1)  # per relayed packet; per iteration, own packet

    def drain(t: int, received: int) -> int:
        """Units spent over t iterations by a node that received ``received`` packets."""
        return t * own + received * relay

    cap = config.max_iterations
    completed, received = search(cap, budget, drain)
    spent_by_node = {v: drain(completed, r) for v, r in zip(order, received)}
    # a node dies when one more iteration would overrun its battery; none does at the cap
    dying = [] if completed == cap else [
        v for v, r in zip(order, map(add, received, receives(completed))) if drain(completed + 1, r) > budget
    ]
    first_dead = min(dying, key=node_key, default=None)

    # a network of only the base station has nothing to trace, however long it runs
    if trace is not None and order:
        for i in range(completed):
            trace(i, dict(zip(order, receives(i))))

    per_sphere_max = {}
    for j in range(1, partition.k + 1):
        top = max(spent_by_node[v] for v in partition.spheres[j])  # 0 if nothing completed
        per_sphere_max[j] = to_float("per-iteration sphere energy", top, scale * max(completed, 1))

    return SimResult(
        strategy=config.strategy,
        seed=config.seed,
        payload_bytes=config.payload_bytes,
        battery_joules=config.battery_joules,
        completed_iterations=completed,
        first_dead=first_dead,
        cap_reached=first_dead is None,
        per_node_spent={v: to_float("node energy spent", s, scale) for v, s in spent_by_node.items()},
        base_station_spent=to_float("base station energy spent", cost(completed * (partition.total - 1), 0), scale),
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
