import itertools
import json
import random

import pytest

from helpers import edge_pairs, hop_distances_oracle, partition_from_sizes, random_connected_topology, save_topology
from wsnlife.fixtures import fixture_path, layered_topology
from wsnlife.topology import (
    EmptyTopology,
    SpherePartition,
    Topology,
    TopologyError,
    UnreachableNode,
    load_topology,
    node_key,
    partition,
    topology_from_dict,
)


def make(nodes, edges, base):
    return Topology(nodes=frozenset(nodes), edges=frozenset(edges), base=base)


def test_single_node_network():
    part = partition(make({"B"}, set(), "B"))
    assert part.spheres == (frozenset({"B"}),)
    assert part.sizes == (1,)
    assert part.cumulative == (1,)
    assert part.total == 1
    assert part.k == 0


def test_three_node_chain():
    part = partition(make({"B", "a", "b"}, {("B", "a"), ("a", "b")}, "B"))
    assert part.spheres == (frozenset({"B"}), frozenset({"a"}), frozenset({"b"}))
    assert part.sizes == (1, 1, 1)
    assert part.cumulative == (1, 2, 3)


def test_worked_example_layer_sizes():
    part = partition(layered_topology((1, 4, 6, 10, 8)))
    assert part.sizes == (1, 4, 6, 10, 8)
    assert part.cumulative == (1, 5, 11, 21, 29)
    assert part.total == 29
    assert part.k == 4
    # s_1 = 4, b_1 = 5 in particular
    assert part.sizes[1] == 4 and part.cumulative[1] == 5


def test_partition_independent_of_input_order():
    rng = random.Random(7)
    topo = random_connected_topology(rng, 18)
    nodes = list(topo.nodes)
    edges = [list(e) for e in edge_pairs(topo)]
    results = []
    for _ in range(5):
        rng.shuffle(nodes)
        rng.shuffle(edges)
        for e in edges:
            rng.shuffle(e)
        shuffled = Topology(
            nodes=frozenset(nodes),
            edges=frozenset(tuple(e) for e in edges),
            base=topo.base,
        )
        results.append(partition(shuffled).spheres)
    assert all(spheres == results[0] for spheres in results)


def test_sphere_index_matches_independent_shortest_path():
    rng = random.Random(42)
    for _ in range(25):
        topo = random_connected_topology(rng, rng.randint(2, 30))
        part = partition(topo)
        oracle = hop_distances_oracle(topo)
        for v in topo.nodes:
            assert part.sphere_index(v) == oracle[v]


def test_sphere_structure_invariants():
    rng = random.Random(11)
    for _ in range(20):
        topo = random_connected_topology(rng, rng.randint(2, 30))
        part = partition(topo)
        adj = {v: set() for v in topo.nodes}
        for a, b in edge_pairs(topo):
            adj[a].add(b)
            adj[b].add(a)
        assert sum(part.sizes) == part.total == len(topo.nodes)
        for i in range(1, part.k + 1):
            assert part.cumulative[i] - part.cumulative[i - 1] == part.sizes[i]
            for v in part.spheres[i]:
                hops = {part.sphere_index(u) for u in adj[v]}
                assert (i - 1) in hops, "no neighbor one hop closer"
                assert not any(j < i - 1 for j in hops), "skip-level edge"
        union = frozenset().union(*part.spheres)
        assert union == topo.nodes


def test_neighbors_list_each_edge_once_in_each_direction():
    rng = random.Random(12)
    cases = []
    for _ in range(20):
        topo = random_connected_topology(rng, rng.randint(1, 30))
        cases.append((sorted(topo.nodes), edge_pairs(topo), topo.base))
    for _ in range(20):  # int and str ids together
        names = rng.sample([1, 2, 10, 33, "a", "b", "B", "x10", "10x"], rng.randint(1, 9))
        pairs = list(itertools.combinations(names, 2))
        cases.append((names, rng.sample(pairs, rng.randint(0, len(pairs))), names[0]))
    cases.append(([3, 1, 2], [(2, 1), (3, 2)], 1))
    for nodes, pairs, base in cases:
        pairs = [pair[::-1] if rng.random() < 0.5 else pair for pair in rng.sample(pairs, len(pairs))]
        topo = Topology(nodes=nodes, edges=pairs, base=base)
        assert topo.neighbors.keys() == topo.nodes
        arcs = sorted((node_key(v), node_key(u)) for v, adjacent in topo.neighbors.items() for u in adjacent)
        both_ways = sorted((node_key(x), node_key(y)) for a, b in pairs for x, y in ((a, b), (b, a)))
        assert arcs == both_ways
        # the document lists each edge once, smaller key first, sorted by key ("10" < "2" < "a")
        expected = sorted((sorted(pair, key=str) for pair in pairs), key=lambda e: [str(v) for v in e])
        assert topo.to_dict()["edges"] == expected
    # neighbours are stored in the order given, and a topology compares by its document
    given = Topology(nodes=[3, 1, 2], edges=[[2, 1], [3, 2]], base=1)
    reordered = Topology(nodes=[1, 2, 3], edges=[[3, 2], [1, 2]], base=1)
    assert reordered.to_dict() == given.to_dict() == {"nodes": [1, 2, 3], "edges": [[1, 2], [2, 3]], "base": 1}


def test_unreachable_node_is_an_error_naming_the_node():
    topo = make({"B", "a", "orphan"}, {("B", "a")}, "B")
    with pytest.raises(UnreachableNode, match="orphan"):
        partition(topo)


def test_empty_topology_rejected():
    with pytest.raises(EmptyTopology):
        Topology(nodes=frozenset(), edges=frozenset(), base="B")


def test_bad_edges_rejected():
    with pytest.raises(TopologyError, match="self-loop"):
        make({"B", "a"}, {("a", "a")}, "B")
    with pytest.raises(TopologyError, match="not a node"):
        make({"B", "a"}, {("a", "ghost")}, "B")
    with pytest.raises(TopologyError, match="base station"):
        make({"a", "b"}, {("a", "b")}, "B")
    with pytest.raises(TopologyError, match="duplicate edge"):
        make({"B", "a"}, {("B", "a"), ("a", "B")}, "B")
    # 1.0 and True equal the node 1 but are not ids
    with pytest.raises(TopologyError, match="endpoint 1.0 is not a node"):
        make({"B", 1}, {("B", 1.0)}, "B")
    with pytest.raises(TopologyError, match="endpoint True is not a node"):
        topology_from_dict({"nodes": ["B", 1], "edges": [["B", True]], "base": "B"})


def test_node_ids_must_keep_distinct_keys():
    # 1 and "1" print alike, and True == 1 would merge two nodes into one
    with pytest.raises(TopologyError, match="share the key"):
        make({"B", 1, "1"}, {("B", 1), ("B", "1")}, "B")
    with pytest.raises(TopologyError, match="boolean"):
        topology_from_dict({"nodes": ["B", 1, True], "edges": [["B", 1]], "base": "B"})
    with pytest.raises(TopologyError, match="boolean"):
        make({0, 1}, {(0, 1)}, False)
    # 1.0 == 1 would merge two nodes; a list or null is no id at all
    for bad in (1.0, [1], None, {"id": 1}):
        with pytest.raises(TopologyError, match="strings or integers"):
            topology_from_dict({"nodes": ["B", 1, bad, "x"], "edges": [["B", 1]], "base": "B"})
    with pytest.raises(TopologyError, match="strings or integers"):
        topology_from_dict({"nodes": ["B"], "edges": [], "base": ["B"]})


def test_from_spheres_rejects_overlap_and_empty():
    with pytest.raises(TopologyError, match="overlaps"):
        SpherePartition.from_spheres([{"B"}, {"a", "B"}])
    with pytest.raises(TopologyError, match="empty"):
        SpherePartition.from_spheres([{"B"}, set()])


def test_from_sizes_builds_consistent_partition():
    part = partition_from_sizes((1, 4, 6, 10, 8))
    assert part.sizes == (1, 4, 6, 10, 8)
    assert part.cumulative == (1, 5, 11, 21, 29)
    assert part.total == 29


def test_layered_topology_rejects_bad_sizes():
    with pytest.raises(ValueError):
        layered_topology((2, 3))
    with pytest.raises(ValueError):
        layered_topology((1, 0, 3))


def test_load_bundled_fixture():
    topo = load_topology(fixture_path("example-29node.topology.json"))
    assert topo.to_dict() == layered_topology((1, 4, 6, 10, 8)).to_dict()


def test_topology_file_roundtrip(tmp_path):
    topo = layered_topology((1, 3, 2))
    path = tmp_path / "net.topology.json"
    save_topology(topo, path)
    assert load_topology(path).to_dict() == topo.to_dict()


def test_topology_file_roundtrip_with_mixed_ids(tmp_path):
    topo = make({"B", 1, 10, 2, "x"}, {("B", 1), ("B", "x"), (1, 10), (2, "x")}, "B")
    path = tmp_path / "mixed.topology.json"
    save_topology(topo, path)
    assert load_topology(path).to_dict() == topo.to_dict()
    assert json.loads(path.read_text())["edges"] == [[1, 10], [1, "B"], [2, "x"], ["B", "x"]]


def test_topology_file_rejects_unknown_fields():
    doc = {"nodes": ["B"], "edges": [], "base": "B", "color": "red"}
    with pytest.raises(TopologyError, match="unknown fields: color"):
        topology_from_dict(doc)


def test_topology_file_rejects_duplicate_edges():
    doc = {"nodes": ["B", "a"], "edges": [["B", "a"], ["a", "B"]], "base": "B"}
    with pytest.raises(TopologyError, match=r"^duplicate edge \['B', 'a'\]$"):
        topology_from_dict(doc)
    # a reversed pair of an int and a str id is listed in key order, "1" < "x"
    doc = {"nodes": ["B", 1, "x"], "edges": [["B", 1], [1, "x"], ["x", 1]], "base": "B"}
    with pytest.raises(TopologyError, match=r"^duplicate edge \[1, 'x'\]$"):
        topology_from_dict(doc)


def test_topology_file_rejects_malformed_documents(tmp_path):
    with pytest.raises(TopologyError, match="missing field"):
        topology_from_dict({"nodes": ["B"], "base": "B"})
    with pytest.raises(TopologyError, match="two-element"):
        topology_from_dict({"nodes": ["B", "a"], "edges": [["B", "a", "a"]], "base": "B"})
    with pytest.raises(TopologyError, match="'edges' must be a list"):
        topology_from_dict({"nodes": ["B"], "edges": 5, "base": "B"})
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(TopologyError, match="not valid JSON"):
        load_topology(bad)
