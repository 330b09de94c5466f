"""Sensor network graph and its hop-distance layering around the base station.

Nodes are opaque identifiers (strings or ints) compared by equality;
deterministic ordering always uses the canonical string form.
"""

from dataclasses import InitVar, dataclass, field
from pathlib import Path

from .errors import Error, fields, labelled, read_json

NodeId = str | int
_ID_TYPES = {str, int}  # exact types: bool and float ids compare equal to ints


class TopologyError(Error):
    pass


class EmptyTopology(TopologyError):
    """The node set is empty."""


class UnreachableNode(TopologyError):
    """Some node has no path to the base station."""

    def __init__(self, nodes):
        self.nodes = tuple(sorted(nodes, key=node_key))
        names = ", ".join(node_key(v) for v in self.nodes)
        super().__init__(f"no path to the base station from: {names}")


def node_key(node: NodeId) -> str:
    """Canonical sort key for node identifiers."""
    return str(node)


@dataclass(frozen=True, eq=False)
class Topology:
    """Undirected graph with a base station; construction checks every id and
    edge once, and in the same pass lists each node's adjacent nodes in
    ``neighbors``, the one store of the edges.  A topology compares by its
    document, ``to_dict()``."""

    nodes: frozenset
    edges: InitVar[list]
    base: NodeId
    neighbors: dict = field(init=False, repr=False)  # node -> adjacent nodes, a dict used as an ordered set

    def __post_init__(self, edges):
        ids = list(self.nodes)  # as given: a set would already merge 1, 1.0 and True
        if not ids:
            raise EmptyTopology("topology has no nodes")
        kinds = set(map(type, ids))
        kinds.add(type(self.base))
        if not kinds <= _ID_TYPES:
            bad = next(v for v in (*ids, self.base) if type(v) not in _ID_TYPES)
            raise TopologyError(f"node ids must be strings or integers, not booleans or floats: {bad!r}")
        if len(kinds) > 1:  # ids of one type print alike only if equal: a clash needs 1 and "1"
            by_key = {}
            for v in ids:
                first = by_key.setdefault(node_key(v), v)
                if first != v:
                    key = node_key(v)
                    raise TopologyError(f"node ids {first!r} and {v!r} share the key {key!r}")
        nodes = frozenset(ids)
        if self.base not in nodes:
            raise TopologyError(f"base station {node_key(self.base)!r} is not a node")
        neighbors = {v: {} for v in nodes}
        for a, b in edges:
            for v in (a, b):
                if type(v) not in _ID_TYPES or v not in nodes:
                    raise TopologyError(f"edge endpoint {v!r} is not a node")
            if a == b:
                raise TopologyError(f"self-loop on node {node_key(a)!r}")
            if b in neighbors[a]:
                raise TopologyError(f"duplicate edge {sorted((a, b), key=node_key)}")
            neighbors[a][b] = neighbors[b][a] = None
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "neighbors", neighbors)

    def to_dict(self) -> dict:
        """The topology's document: each edge once, as its pair in ``node_key`` order."""
        edges = [[a, b] for a, adjacent in self.neighbors.items() for b in adjacent if node_key(a) < node_key(b)]
        return {
            "nodes": sorted(self.nodes, key=node_key),
            "edges": sorted(edges, key=lambda e: list(map(node_key, e))),
            "base": self.base,
        }


@dataclass(frozen=True)
class SpherePartition:
    """Hop-distance layers S_0..S_k with sizes s_i and cumulative sizes b_i.

    ``spheres[i]`` holds the nodes exactly i hops from the base station,
    ``sizes[i]`` its cardinality and ``cumulative[i]`` the number of nodes
    within i hops.  ``total`` is the network size N.
    """

    spheres: tuple
    sizes: tuple
    cumulative: tuple
    total: int

    @property
    def k(self) -> int:
        """Largest hop distance in the network."""
        return len(self.spheres) - 1

    @classmethod
    def from_spheres(cls, spheres) -> "SpherePartition":
        spheres = tuple(frozenset(s) for s in spheres)
        if not spheres:
            raise EmptyTopology("partition has no spheres")
        seen = set()
        for i, sphere in enumerate(spheres):
            if not sphere:
                raise TopologyError(f"sphere {i} is empty")
            if seen & sphere:
                raise TopologyError(f"sphere {i} overlaps an inner sphere")
            seen |= sphere
        sizes = tuple(len(s) for s in spheres)
        cumulative = []
        running = 0
        for s in sizes:
            running += s
            cumulative.append(running)
        return cls(spheres, sizes, tuple(cumulative), running)

    def sphere_index(self, node: NodeId) -> int:
        for i, sphere in enumerate(self.spheres):
            if node in sphere:
                return i
        raise KeyError(node)

    def to_dict(self) -> dict:
        return {
            "spheres": [sorted(s, key=node_key) for s in self.spheres],
            "sizes": list(self.sizes),
            "cumulative": list(self.cumulative),
            "total": self.total,
            "max_hops": self.k,
        }


def partition(topology: Topology) -> SpherePartition:
    """Layer the network by breadth-first hop distance from the base station.

    Raises UnreachableNode if the graph is disconnected: every analysis in
    this package assumes all nodes route to the base.
    """
    neighbors = topology.neighbors
    reached = {topology.base}
    layers = []
    frontier = [topology.base]
    while frontier:
        layers.append(frontier)
        nxt = []
        for v in frontier:
            for u in neighbors[v]:
                if u not in reached:
                    reached.add(u)
                    nxt.append(u)
        frontier = nxt
    missing = topology.nodes - reached
    if missing:
        raise UnreachableNode(missing)
    return SpherePartition.from_spheres(layers)


_TOPOLOGY_FIELDS = {"schema_version", "nodes", "edges", "base"}


def topology_from_dict(doc: dict) -> Topology:
    """Build a Topology from a parsed document, rejecting any field it does not define."""
    fields(doc, "topology document", TopologyError, _TOPOLOGY_FIELDS, ("nodes", "edges", "base"))
    nodes = doc["nodes"]
    if not isinstance(nodes, list):
        raise TopologyError("'nodes' must be a list")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise TopologyError("'edges' must be a list")
    for i, pair in enumerate(edges):
        if not isinstance(pair, list) or len(pair) != 2:
            raise TopologyError(f"edge {i} must be a two-element list")
    return Topology(nodes=nodes, edges=edges, base=doc["base"])


def load_topology(path) -> Topology:
    path = Path(path)
    with labelled(path):
        return topology_from_dict(read_json(path, TopologyError))
