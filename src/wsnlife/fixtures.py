"""Bundled example inputs: deterministic topology builders and data files."""

from importlib import resources

from .topology import Topology

FIXTURE_FILES = (
    "example-29node.topology.json",
    "single-node.topology.json",
    "cc2420-paper.profile.json",
    "cc2420.readings.json",
)


def layered_topology(sizes) -> Topology:
    """Deterministic graph realizing the given hop-layer sizes.

    ``sizes[0]`` must be 1 (the base station, named ``base``).  Node j of
    layer i links to two consecutive members of layer i-1 starting at j mod
    its size, so every node sits exactly its layer index away from the base.
    """
    sizes = tuple(sizes)
    if not sizes or sizes[0] != 1:
        raise ValueError("sizes must start with a single base station layer")
    if any(s < 1 for s in sizes):
        raise ValueError("layer sizes must be positive")
    layers = [["base"]]
    counter = 1
    for size in sizes[1:]:
        layer = []
        for _ in range(size):
            layer.append(f"n{counter:02d}")
            counter += 1
        layers.append(layer)
    edges = []
    for i in range(1, len(layers)):
        prev = layers[i - 1]
        for j, v in enumerate(layers[i]):
            for t in range(min(2, len(prev))):
                edges.append((v, prev[(j + t) % len(prev)]))
    nodes = [v for layer in layers for v in layer]
    return Topology(nodes=nodes, edges=edges, base="base")


def fixture_path(name: str):
    """Filesystem path of a bundled data file."""
    if name not in FIXTURE_FILES:
        known = ", ".join(FIXTURE_FILES)
        raise FileNotFoundError(f"no bundled fixture {name!r} (available: {known})")
    return resources.files(__package__) / "data" / name
