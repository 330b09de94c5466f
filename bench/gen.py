"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical JSON text.  The program under test receives only that text;
the expectations kept next to it (layer sizes, schedule periods) are
computed here, from the inputs, so they stay valid whatever the program
does inside.

The generators deliberately do not call into the package: if the package
changed how it builds a graph, the inputs would change with it and runs of
two commits would no longer be comparable.
"""

import json
import math
import random
from pathlib import Path

PROFILE = "cc2420-paper"
FRAME = "paper-tinyos"
PAYLOAD = 2
PAPER_BATTERY = 30780.0
INTERVAL = 10.0
STRATEGIES = ("static-tree", "round-robin-parent", "balanced-rotating")

# Per-packet energies (mJ) of PROFILE with FRAME at PAYLOAD bytes.  They are
# used only to size batteries to a target iteration count; the simulated
# count is whatever the program computes.
E_SEND_MJ = 3.78
E_RECV_MJ = 4.27

# The simulator's MAX_SCHEDULE_PERIOD: above this schedule period it steps
# one iteration at a time instead of fast-forwarding whole periods.  Counted
# from the inputs, so the counter means the same for a simulator without it.
LONG_PERIOD = 5040


def layered_topology(sizes) -> dict:
    """Topology document realizing the given hop-layer sizes.

    Same construction as ``wsnlife.fixtures.layered_topology``: node j of
    layer i links to two consecutive members of layer i-1 starting at j
    mod its size.
    """
    layers = [["base"]]
    counter = 1
    for size in sizes[1:]:
        layers.append([f"n{counter + j:02d}" for j in range(size)])
        counter += size
    edges = set()
    for i in range(1, len(layers)):
        prev = layers[i - 1]
        for j, v in enumerate(layers[i]):
            for t in range(min(2, len(prev))):
                edges.add(tuple(sorted((v, prev[(j + t) % len(prev)]))))
    nodes = [v for layer in layers for v in layer]
    return {"nodes": sorted(nodes), "edges": sorted(list(e) for e in edges), "base": "base"}


def irregular_topology(n: int, rng: random.Random) -> dict:
    """Connected graph of n nodes: a random spanning tree plus n extra edges.

    Each node attaches to one of the 50 nodes created just before it (or,
    one time in ten, to any earlier node), which gives a hop depth of a few
    tens instead of the logarithmic depth of a uniform random tree.
    """
    names = ["base"] + [f"v{i}" for i in range(1, n)]
    edges = set()
    for i in range(1, n):
        lo = 0 if rng.random() < 0.1 else max(0, i - 50)
        edges.add((rng.randrange(lo, i), i))
    while len(edges) < 2 * n - 1:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    pairs = sorted([names[a], names[b]] for a, b in edges)
    return {"nodes": names, "edges": pairs, "base": "base"}


def _adjacency(doc: dict) -> dict:
    adj = {v: [] for v in doc["nodes"]}
    for a, b in doc["edges"]:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def hop_distances(doc: dict, adj: dict) -> dict:
    """Breadth-first hop distance of every node from the base station."""
    hops = {doc["base"]: 0}
    frontier = [doc["base"]]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in hops:
                    hops[u] = hops[v] + 1
                    nxt.append(u)
        frontier = nxt
    return hops


def hop_layer_sizes(doc: dict) -> list:
    """Layer sizes by hop distance from the base station."""
    sizes = {}
    for h in hop_distances(doc, _adjacency(doc)).values():
        sizes[h] = sizes.get(h, 0) + 1
    return [sizes[h] for h in range(len(sizes))]


def schedule_period(doc: dict, strategy: str) -> int:
    """Iterations after which a strategy's per-node workload repeats.

    balanced-rotating rotates each layer's remainder around the layer, so
    its period is the lcm of the layer sizes; round-robin-parent cycles each
    node through its neighbours one hop closer, so its period is the lcm of
    those counts; static-tree never changes.
    """
    if strategy == "static-tree":
        return 1
    if strategy == "balanced-rotating":
        return math.lcm(*hop_layer_sizes(doc)[1:])
    adj = _adjacency(doc)
    hops = hop_distances(doc, adj)
    return math.lcm(*(
        sum(1 for u in adj[v] if hops[u] == hops[v] - 1) for v in doc["nodes"] if v != doc["base"]
    ))


def counters(items) -> dict:
    """Input properties of one pass over the pool, as (value, unit)."""
    periods = [item["period"] for item in items if "period" in item]
    return {
        "topology.nodes": (sum(item["nodes"] for item in items), "count"),
        "topology.edges": (sum(item["edges"] for item in items), "count"),
        "simulator.long_period_queries": (sum(p > LONG_PERIOD for p in periods), "count"),
        "input.schedule_period_max": (max(periods, default=0), "iterations"),
    }


def battery_for(sizes, iterations: int) -> float:
    """Battery (J) that lasts about ``iterations`` at the busiest layer's
    evenly shared load, rounded up to whole millijoules."""
    total = sum(sizes)
    busiest = 0.0
    cumulative = sizes[0]
    for s in sizes[1:]:
        cumulative += s
        inflow = total - cumulative
        busiest = max(busiest, inflow / s * E_RECV_MJ + (inflow + s) / s * E_SEND_MJ)
    return math.ceil(iterations * busiest) / 1000


def _query(op: str, topology: dict, **params) -> str:
    doc = {
        "op": op,
        "topology": topology,
        "profile": PROFILE,
        "frame": FRAME,
        "payload": PAYLOAD,
        "interval": INTERVAL,
        **params,
    }
    return json.dumps(doc, sort_keys=True)


# Simulator seeds per paper-example query.  A query runs one strategy over a
# block of seeds, like ``wsnlife sweep --strategies S --seeds a..b``: one
# balanced-rotating run is short enough that its slowest percent is set by
# machine hiccups, and ten of them average those out.
BLOCK_SEEDS = 10
BLOCKS = 4


def bundled_example(src: Path) -> dict:
    doc = json.loads((src / "wsnlife" / "data" / "example-29node.topology.json").read_text())
    return {key: doc[key] for key in ("nodes", "edges", "base")}


def paper_example(seed: int, topology: dict) -> list:
    """The paper's own traffic: every strategy on the bundled 29-node network
    at full battery, over BLOCKS blocks of simulator seeds."""
    rng = random.Random(seed)
    sizes = hop_layer_sizes(topology)
    sim_seeds = rng.sample(range(10**6), BLOCKS * BLOCK_SEEDS)
    items = []
    for first in range(0, len(sim_seeds), BLOCK_SEEDS):
        for strategy in STRATEGIES:
            items.append({
                "text": _query("simulate", topology, battery=PAPER_BATTERY, strategy=strategy,
                               seeds=sim_seeds[first:first + BLOCK_SEEDS]),
                "strategy": strategy,
                "period": schedule_period(topology, strategy),
                "sizes": sizes,
                "nodes": len(topology["nodes"]),
                "edges": len(topology["edges"]),
            })
    rng.shuffle(items)
    return items


# Non-base node counts of the long-period ladder.  Batteries are sized so
# that nodes x iterations is the same for every rung: the stepping path
# costs about the same per node-iteration, so every query costs about the
# same and the medians do not depend on which rung sits in the middle.
LONG_PERIOD_NODES = (38, 48, 64, 90, 120, 170, 240, 330, 450)
LONG_PERIOD_NODE_ITERATIONS = 48000
# Layer sizes every long-period network contains: their lcm, 5544, already
# exceeds LONG_PERIOD, and adding layers can only raise it.
LONG_PERIOD_CORE = (7, 8, 9, 11)


def long_period_sizes(target: int, rng: random.Random) -> list:
    """Layer sizes summing to ``target``: the core plus up to four more
    layers of at least three nodes, in random order."""
    spare = target - sum(LONG_PERIOD_CORE)
    extra = rng.randint(1, min(4, spare // 3))
    cuts = sorted(rng.choices(range(spare - 3 * extra + 1), k=extra - 1))
    bounds = [0, *cuts, spare - 3 * extra]
    sizes = [*LONG_PERIOD_CORE, *(3 + b - a for a, b in zip(bounds, bounds[1:]))]
    rng.shuffle(sizes)
    return [1, *sizes]


def long_period(seed: int) -> list:
    """balanced-rotating on layered networks whose period forces stepping."""
    rng = random.Random(seed)
    items = []
    for target in LONG_PERIOD_NODES:
        sizes = long_period_sizes(target, rng)
        iterations = round(LONG_PERIOD_NODE_ITERATIONS / target)
        topology = layered_topology(sizes)
        items.append({
            "text": _query("simulate", topology, battery=battery_for(sizes, iterations),
                           strategy="balanced-rotating", seeds=[rng.randrange(10**6)]),
            "strategy": "balanced-rotating",
            "period": schedule_period(topology, "balanced-rotating"),
            "nodes": len(topology["nodes"]),
            "edges": len(topology["edges"]),
            "sizes": sizes,
        })
    rng.shuffle(items)
    return items


def large_layer_sizes(n: int, rng: random.Random) -> list:
    """Layer sizes summing to n that widen with distance from the base."""
    sizes = [1]
    left = n - 1
    while left > 0:
        size = min(left, rng.randint(8 * len(sizes), 40 * len(sizes)))
        sizes.append(size)
        left -= size
    return sizes


# (nodes, family, op, copies per pass).  Two of every ten queries are at
# 5 000 nodes, so the median falls among the 50 000-node queries, a quarter
# of the way above the fastest of them (layered bounds), not on the edge
# between two kinds: a median among the 20 ms 5 000-node queries moved by a
# quarter between runs minutes apart on a shared 2-vCPU machine.
LARGE_MIX = (
    (5000, "layered", "bounds", 1),
    (5000, "irregular", "partition", 1),
    (50000, "layered", "bounds", 2),
    (50000, "layered", "partition", 2),
    (50000, "irregular", "bounds", 2),
    (50000, "irregular", "partition", 2),
)


def large_network(seed: int) -> list:
    """bounds and partition queries on layered and irregular graphs."""
    rng = random.Random(seed)
    graphs = {}
    for n in sorted({n for n, _, _, _ in LARGE_MIX}):
        sizes = large_layer_sizes(n, rng)
        graphs[n, "layered"] = layered_topology(sizes), sizes
        irregular = irregular_topology(n, rng)
        graphs[n, "irregular"] = irregular, hop_layer_sizes(irregular)
    items = []
    for n, family, op, copies in LARGE_MIX:
        topology, sizes = graphs[n, family]
        params = {"battery": PAPER_BATTERY} if op == "bounds" else {}
        item = {
            "text": _query(op, topology, **params),
            "op": op,
            "family": family,
            "sizes": sizes,
            "nodes": len(topology["nodes"]),
            "edges": len(topology["edges"]),
        }
        items.extend([item] * copies)
    rng.shuffle(items)
    return items


def cli_sizes(rng: random.Random) -> list:
    """29 nodes, like the bundled example, in layers whose sizes divide 120,
    its period, so that every seed costs the simulator the same."""
    while True:
        sizes = [1] + [rng.choice((3, 4, 5, 6, 8, 10, 12)) for _ in range(rng.randint(3, 6))]
        if sum(sizes) == 29 and math.lcm(*sizes[1:]) == 120:
            return sizes


# Battery of the traced simulate run: stepping writes one CSV row per node
# per iteration, so this keeps the trace file to a few thousand rows.
CLI_TRACE_ITERATIONS = 100


def cli(seed: int) -> dict:
    """Input files and the command mix of the process-level workload.

    partition and bounds run in both output formats, as in the README's
    quick start.  With static-tree and round-robin-parent that makes six
    quick processes out of ten per pass, so the median falls well inside
    them; the sweeps set the tail.

    Returns ``{"files": {name: text}, "commands": [...]}``; each command is
    ``{"kind", "args", "nodes", "edges"}`` plus ``"period"`` for the ones
    that simulate (the largest schedule period among their strategies) and
    ``"trace"`` for the one that writes a trace file, with paths relative
    to the directory the files are written to.
    """
    rng = random.Random(seed)
    sizes = cli_sizes(rng)
    topology = layered_topology(sizes)
    net = "net.topology.json"
    structured = ["--format", "structured"]
    sweep_first = rng.randrange(10**6)
    sweep_seeds = f"{sweep_first}..{sweep_first + 9}"
    periods = {strategy: schedule_period(topology, strategy) for strategy in STRATEGIES}
    commands = []
    for kind in ("partition", "bounds"):
        commands.append({"kind": kind, "args": [kind, net, *structured]})
        commands.append({"kind": kind, "args": [kind, net]})
    for strategy in STRATEGIES:
        commands.append({
            "kind": "simulate",
            "args": ["simulate", net, "--strategy", strategy,
                     "--seed", str(rng.randrange(10**6)), *structured],
            "period": periods[strategy],
        })
    commands.append({  # the CLI's default strategy, balanced-rotating
        "kind": "simulate_trace",
        "args": ["simulate", net, "--battery", repr(battery_for(sizes, CLI_TRACE_ITERATIONS)),
                 "--trace", "trace.csv", *structured],
        "trace": "trace.csv",
        "period": periods["balanced-rotating"],
    })
    for jobs in (1, 2):  # every strategy, the sweep's default
        commands.append({
            "kind": f"sweep_jobs{jobs}",
            "args": ["sweep", net, "--seeds", sweep_seeds, "--jobs", str(jobs), *structured],
            "period": max(periods.values()),
        })
    for command in commands:
        command.update(nodes=sum(sizes), edges=len(topology["edges"]))
    rng.shuffle(commands)
    return {
        "files": {net: json.dumps(topology, indent=2, sort_keys=True) + "\n"},
        "commands": commands,
    }


def generate(name: str, seed: int, src: Path):
    """The inputs of a workload, as plain data."""
    if name == "paper-example":
        return paper_example(seed, bundled_example(src))
    if name == "long-period":
        return long_period(seed)
    if name == "large-network":
        return large_network(seed)
    if name == "cli":
        return cli(seed)
    raise ValueError(f"unknown workload {name!r}")
