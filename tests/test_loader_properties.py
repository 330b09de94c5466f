"""Property tests: the file loaders turn any parsed JSON into a value or an Error."""

import dataclasses
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnlife.cli import main
from wsnlife.energy_model import RadioProfile, profile_from_dict
from wsnlife.errors import Error
from wsnlife.fixtures import fixture_path
from wsnlife.frame_model import FrameConfig
from wsnlife.topology import Topology, node_key, partition, topology_from_dict

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=300)

# Anything read_json can return: decimals, and the floats of NaN and the
# infinities; a float for an API caller's number too.
decimals = st.decimals(min_value=-10**6, max_value=10**6, allow_nan=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | decimals | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


def _mostly(valid, junk=json_values):
    """``valid`` nine times in ten and ``junk`` otherwise, so that most
    documents get past the early checks and reach the later ones."""
    return st.integers(0, 9).flatmap(lambda i: junk if i == 0 else valid)


@st.composite
def _one_field_replaced(draw, documents):
    """A document from ``documents``, half the time with one field set to any JSON value."""
    doc = draw(documents)
    field = draw(st.none() | st.sampled_from(list(doc)))
    if field is not None:
        doc[field] = draw(json_values)
    return doc


odd_ids = st.sampled_from([1.0, True, "1", "lost"]) | json_values


@st.composite
def _topologies(draw):
    """A connected network (each node links to an earlier one), with odd ids
    and extra edges that may repeat, loop or name no node."""
    names = draw(st.lists(st.sampled_from(["B", "a", "b", "c", 0, 1]), min_size=1, max_size=6, unique=True))
    endpoint = _mostly(st.sampled_from(names), odd_ids)
    tree = [[v, names[draw(st.integers(0, i - 1))]] for i, v in enumerate(names) if i]
    return {
        "schema_version": 1,
        "nodes": names + draw(_mostly(st.just([]), st.lists(odd_ids, min_size=1, max_size=2))),
        "edges": tree + draw(_mostly(st.just([]), st.lists(st.lists(endpoint, min_size=2, max_size=2), max_size=2))),
        "base": draw(_mostly(st.just(names[0]), odd_ids)),
    }


energies = _mostly(st.decimals(min_value=0, max_value=5) | st.floats(min_value=0, max_value=5) | st.integers(0, 5))
# keys that int() reads as 18 but that are not its plain decimal form
byte_counts = _mostly(
    st.sampled_from(["11", "18", "3", "018", " 18", "1_8"]),
    st.sampled_from(["0", "-3", "1.5", ""]) | st.text(max_size=3),
)
# numbers equal to a valid byte count that are not exact ints
inexact_counts = st.sampled_from([2.0, 8.0, True])
frames = st.fixed_dictionaries({"preset": _mostly(st.just("paper-tinyos"))}) | st.fixed_dictionaries(
    {},
    optional={
        "dest_pan_bytes": _mostly(st.sampled_from([0, 2]) | inexact_counts),
        "src_addr_bytes": _mostly(st.sampled_from([0, 2, 8]) | inexact_counts),
        "extra_header_bytes": _mostly(st.integers(min_value=0, max_value=3) | inexact_counts),
    },
)
profiles = st.fixed_dictionaries(
    {"m_tx": energies, "m_rx": energies, "e_cca": energies, "e_listen": energies},
    optional={
        "schema_version": st.just(1),
        "name": st.text(max_size=4),
        # JSON object keys are always strings
        "block_overrides": st.dictionaries(
            _mostly(st.sampled_from(["tx", "rx"]), st.text(max_size=3)),
            _mostly(st.dictionaries(byte_counts, energies, max_size=3)),
            max_size=2,
        ),
        "frame": frames,
    },
)


@PROPERTY
@given(_mostly(_one_field_replaced(_topologies())))
def test_topology_loader_returns_a_topology_or_raises_error(doc):
    try:
        topology = topology_from_dict(doc)
    except Error:
        return
    assert isinstance(topology, Topology)
    assert {type(v) for v in topology.nodes} <= {str, int}
    # no listed id vanishes into another, and no two ids share a printed key
    assert {node_key(v) for v in doc["nodes"]} == {node_key(v) for v in topology.nodes}
    assert len({node_key(v) for v in topology.nodes}) == len(topology.nodes)
    try:
        spheres = partition(topology)
    except Error:
        return
    assert spheres.total == len(topology.nodes)


@PROPERTY
@given(_mostly(_one_field_replaced(profiles)))
def test_profile_loader_returns_a_profile_or_raises_error(doc):
    try:
        profile, frame = profile_from_dict(doc)
    except Error:
        return
    assert isinstance(profile, RadioProfile)
    assert frame is None or isinstance(frame, FrameConfig)
    if frame is not None:
        assert all(type(getattr(frame, f.name)) is int for f in dataclasses.fields(frame))
    # no two keys of the document name the same block
    keys = [(direction, key) for direction, blocks in doc.get("block_overrides", {}).items() for key in blocks]
    assert len(profile.block_overrides) == len(keys)


def _bundled_readings() -> dict:
    with open(fixture_path("cc2420.readings.json")) as f:
        return json.load(f)


def _files(documents):
    """File contents: ``documents`` as JSON, or random bytes one time in four."""
    as_json = documents.map(lambda doc: json.dumps(doc, default=float).encode())  # a decimal as its nearest float
    return st.integers(0, 3).flatmap(lambda i: st.binary(max_size=64) if i == 0 else as_json)


LOADER_COMMANDS = {
    "partition": (["partition", "{}"], _topologies()),
    "bounds": (["bounds", "example-29node.topology.json", "--profile", "{}"], profiles),
    "calibrate": (["calibrate", "{}"], st.builds(_bundled_readings)),
}


@pytest.mark.parametrize("command", LOADER_COMMANDS)
def test_loader_commands_exit_0_or_2_on_any_file(command, tmp_path_factory):
    argv, documents = LOADER_COMMANDS[command]
    path = tmp_path_factory.mktemp(command) / "input.json"

    @settings(PROPERTY, max_examples=50)  # each example is a whole command: keep the suite quick
    @given(_files(_mostly(_one_field_replaced(documents))))
    def check(data):
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a frame beyond the PPDU only warns
            code = main([arg.format(path) for arg in argv])
        assert code in (0, 2), (code, err.getvalue())

    check()
