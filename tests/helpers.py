"""Shared test utilities: independent oracles and random input generators."""

import math
import random
from fractions import Fraction

from wsnlife.energy_model import receive_energy, send_energy
from wsnlife.exact import as_exact
from wsnlife.simulator import build_workload
from wsnlife.topology import SpherePartition, Topology, canonical_edge, node_key


def hop_distances_oracle(topology: Topology) -> dict:
    """Brute-force shortest hop counts by repeated edge relaxation.

    Deliberately not a breadth-first search, so it is an independent check
    of the partitioner.
    """
    dist = {v: math.inf for v in topology.nodes}
    dist[topology.base] = 0
    for _ in range(len(topology.nodes)):
        changed = False
        for a, b in topology.edges:
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
    edges = set()
    for i in range(1, n):
        edges.add(canonical_edge(nodes[i], nodes[rng.randrange(i)]))
    for _ in range(rng.randrange(0, max(1, n))):
        a, b = rng.sample(nodes, 2)
        edges.add(canonical_edge(a, b))
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
    while len(edges) < 2 * n - 1:
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
    for a, b in topology.edges:
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
    return SpherePartition.from_sizes(sizes)


def reference_simulate(topology: Topology, partition: SpherePartition, model, config) -> dict:
    """Plain stepper: one iteration at a time on Fractions, no fast-forward.

    Returns the fields of ``SimResult`` that the simulator's loop decides,
    so a faster loop can be compared against it field by field.
    """
    _, counts_fn = build_workload(config.strategy, topology, partition, config.seed)
    e_recv = receive_energy(model, config.payload_bytes)
    e_send = send_energy(model, config.payload_bytes)
    overhead = as_exact(config.per_iteration_overhead_mj)
    battery = as_exact(config.battery_joules) * 1000
    nodes = sorted(topology.nodes - {topology.base}, key=node_key)
    spent = {v: Fraction(0) for v in nodes}
    cost = {}  # (receives, transmits) -> mJ, memoised for speed only
    completed = 0
    first_dead = None
    while completed < config.max_iterations:
        counts = counts_fn(completed)
        for r, t in counts.values():
            if (r, t) not in cost:
                cost[r, t] = r * e_recv + t * e_send + overhead
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
