"""Shared test utilities: independent oracles and random input generators."""

import math
import random
from fractions import Fraction
from pathlib import Path

from wsnlife.energy_model import profile_to_dict, receive_energy, send_energy
from wsnlife.errors import dumps_canonical
from wsnlife.exact import as_exact
from wsnlife.simulator import build_workload
from wsnlife.topology import SpherePartition, Topology, node_key


def save_topology(topology: Topology, path) -> None:
    """Write ``topology`` as a topology file."""
    Path(path).write_text(dumps_canonical({"schema_version": 1, **topology.to_dict()}) + "\n")


def save_profile(profile, path) -> None:
    """Write ``profile`` as a profile file."""
    Path(path).write_text(dumps_canonical(profile_to_dict(profile)) + "\n")


def edge_pairs(topology: Topology) -> list:
    """Each edge of ``topology`` once, read from its document."""
    return [tuple(edge) for edge in topology.to_dict()["edges"]]


def partition_from_sizes(sizes) -> SpherePartition:
    """Synthetic partition with placeholder node names, for analysis that
    depends only on the layer sizes."""
    return SpherePartition.from_spheres(
        frozenset(f"s{i}n{j:02d}" for j in range(size)) for i, size in enumerate(sizes)
    )


def hop_distances_oracle(topology: Topology) -> dict:
    """Brute-force shortest hop counts by repeated edge relaxation.

    Deliberately not a breadth-first search, so it is an independent check
    of the partitioner.
    """
    dist = {v: math.inf for v in topology.nodes}
    dist[topology.base] = 0
    for _ in range(len(topology.nodes)):
        changed = False
        for a, b in edge_pairs(topology):
            if dist[a] + 1 < dist[b]:
                dist[b] = dist[a] + 1
                changed = True
            if dist[b] + 1 < dist[a]:
                dist[a] = dist[b] + 1
                changed = True
        if not changed:
            break
    return dist


def random_connected_topology(rng: random.Random, n: int) -> Topology:
    """Random spanning tree over n nodes plus a few extra edges; base is v00."""
    nodes = [f"v{i:02d}" for i in range(n)]
    edges = set()  # each pair sorted, so no edge is added twice
    for i in range(1, n):
        edges.add(tuple(sorted((nodes[i], nodes[rng.randrange(i)]))))
    for _ in range(rng.randrange(0, max(1, n))):
        edges.add(tuple(sorted(rng.sample(nodes, 2))))
    return Topology(nodes=frozenset(nodes), edges=frozenset(edges), base=nodes[0])


def irregular_topology(rng: random.Random, n: int) -> Topology:
    """Connected graph of n nodes, built like the benchmark's irregular graphs.

    A random spanning tree plus n extra edges.  Each node attaches to one of
    the 50 nodes created just before it (or, one time in ten, to any earlier
    node), which gives a hop depth of a few tens.  Base is "base".
    """
    names = ["base"] + [f"v{i}" for i in range(1, n)]
    edges = set()
    for i in range(1, n):
        lo = 0 if rng.random() < 0.1 else max(0, i - 50)
        edges.add((rng.randrange(lo, i), i))
    while len(edges) < min(2 * n - 1, n * (n - 1) // 2):  # a graph of n < 5 nodes holds fewer
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    pairs = frozenset((names[a], names[b]) for a, b in edges)
    return Topology(nodes=frozenset(names), edges=pairs, base="base")


def tree_descendants_oracle(topology: Topology) -> dict:
    """Number of descendants of each battery node of a tree rooted at the base.

    A depth-first search over the edge set, independent of the package's
    adjacency, partition and workloads.
    """
    adj = {v: [] for v in topology.nodes}
    for a, b in edge_pairs(topology):
        adj[a].append(b)
        adj[b].append(a)
    parent = {topology.base: None}
    preorder = []
    stack = [topology.base]
    while stack:
        v = stack.pop()
        preorder.append(v)
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                stack.append(u)
    below = dict.fromkeys(topology.nodes, 0)
    for v in reversed(preorder):  # every node after all of its descendants
        if parent[v] is not None:
            below[parent[v]] += below[v] + 1
    del below[topology.base]
    return below


def random_partition(rng: random.Random, max_total: int = 50) -> SpherePartition:
    """Random sphere-size structure with one base node and N <= max_total."""
    sizes = [1]
    remaining = rng.randint(1, max_total - 1)
    while remaining > 0:
        size = rng.randint(1, remaining)
        sizes.append(size)
        remaining -= size
    return partition_from_sizes(sizes)


def iteration_receives(strategy: str, topology: Topology, partition: SpherePartition, seed: int):
    """``receives(i)``: each battery node's receive count at iteration ``i``, as a dict.

    Under ``balanced-rotating`` the rotation rule is written out again here,
    from the workload's members, share and remainder alone, so that the
    simulator's ``Rotation`` is checked against a separate statement of it.
    """
    workload = build_workload(strategy, topology, partition, seed)
    if strategy != "balanced-rotating":
        order, _, receives = workload
        return lambda i: dict(zip(order, receives(i)))

    def rotating(i: int) -> dict:
        out = {}
        for members, share, remainder in workload:
            size = len(members)
            # the members at positions i, i + 1, ..., i + remainder - 1 (mod size) take one more
            extra = {members[(i + k) % size] for k in range(remainder)}
            out.update((v, share + (v in extra)) for v in members)
        return out

    return rotating


def reference_simulate(topology: Topology, partition: SpherePartition, model, config) -> dict:
    """Plain stepper: one iteration at a time on Fractions, no fast-forward.

    Returns the fields of ``SimResult`` that the simulator's loop decides,
    so a faster loop can be compared against it field by field.
    """
    receives = iteration_receives(config.strategy, topology, partition, config.seed)
    e_recv = receive_energy(model, config.payload_bytes)
    e_send = send_energy(model, config.payload_bytes)
    battery = as_exact(config.battery_joules) * 1000
    nodes = sorted(topology.nodes - {topology.base}, key=node_key)
    spent = {v: Fraction(0) for v in nodes}
    cost = {}  # receives -> mJ, memoised for speed only
    completed = 0
    first_dead = None
    while completed < config.max_iterations:
        counts = receives(completed)
        for r in counts.values():
            if r not in cost:
                cost[r] = r * e_recv + (r + 1) * e_send  # a node sends what it receives and its own packet
        after = {v: spent[v] + cost[counts[v]] for v in nodes}
        dying = [v for v in nodes if after[v] > battery]
        if dying:
            first_dead = dying[0]
            break
        spent = after
        completed += 1
    return {
        "completed_iterations": completed,
        "first_dead": first_dead,
        "cap_reached": first_dead is None,
        "per_node_spent": {v: float(spent[v]) for v in nodes},
    }


def graph_lower_bound(topology: Topology, partition: SpherePartition, model, payload_bytes: int, battery_joules):
    """A lower bound on any run's iterations that respects the graph's edges.

    A node relays at most the packets of the nodes upstream of it: those with
    a path to it that descends one sphere per hop.  With lambda the largest
    upstream count, no node drains more than (r + t) * lambda + t an
    iteration, so floor(B / that) iterations always complete.  None when that
    drain is zero, so no node can ever die.  The upstream sets are int
    bitsets, built in one pass, outermost sphere first.
    """
    bit = {v: 1 << i for i, v in enumerate(sorted(topology.nodes, key=node_key))}
    neighbors = {v: [] for v in topology.nodes}
    for a, b in edge_pairs(topology):
        neighbors[a].append(b)
        neighbors[b].append(a)
    upstream = {}
    most = 0
    for j in range(partition.k, 0, -1):
        outer = partition.spheres[j + 1] if j < partition.k else frozenset()
        for v in partition.spheres[j]:
            up = 0
            for u in neighbors[v]:
                if u in outer:
                    up |= upstream[u] | bit[u]
            upstream[v] = up
            most = max(most, up.bit_count())
    e_recv = receive_energy(model, payload_bytes)
    e_send = send_energy(model, payload_bytes)
    drain = (e_recv + e_send) * most + e_send
    if not drain:
        return None
    return math.floor(as_exact(battery_joules) * 1000 / drain)


def assert_above_graph_lower_bound(topology: Topology, partition: SpherePartition, model, result):
    """A run that ended in a death completed at least ``graph_lower_bound`` iterations."""
    if result.first_dead is not None:
        bound = graph_lower_bound(topology, partition, model, result.payload_bytes, result.battery_joules)
        assert bound is not None and result.completed_iterations >= bound, (result.completed_iterations, bound)
