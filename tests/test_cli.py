import hashlib
import io
import json
import shutil
import subprocess
import sys
import textwrap
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsnlife.cli
from helpers import save_topology
from wsnlife.bounds import lifetime_bounds
from wsnlife.calibration import load_readings, profile_from_readings
from wsnlife.cli import main
from wsnlife.energy_model import CC2420_PAPER, load_profile
from wsnlife.fixtures import fixture_path
from wsnlife.frame_model import FrameLengthWarning
from wsnlife.simulator import STRATEGIES
from wsnlife.topology import Topology


FIXTURE_29 = "example-29node.topology.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_partition_table_output(capsys):
    code, out, _ = run_cli(capsys, "partition", FIXTURE_29)
    assert code == 0
    assert out.splitlines()[0] == "s: 1,4,6,10,8; N=29; k=4"
    assert out.splitlines()[1] == "b: 1,5,11,21,29"


def test_partition_single_node(capsys):
    code, out, _ = run_cli(capsys, "partition", "single-node.topology.json")
    assert code == 0
    assert out.splitlines()[0] == "s: 1; N=1; k=0"


def test_partition_structured_output(capsys):
    code, out, _ = run_cli(capsys, "partition", FIXTURE_29, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["kind"] == "partition"
    assert doc["sizes"] == [1, 4, 6, 10, 8]


def test_partition_orphan_file_errors_with_node_name(capsys, tmp_path):
    path = tmp_path / "orphan.topology.json"
    path.write_text(json.dumps({
        "nodes": ["B", "a", "lost"], "edges": [["B", "a"]], "base": "B",
    }))
    code, _, err = run_cli(capsys, "partition", str(path))
    assert code == 2
    assert "lost" in err


def test_missing_topology_file(capsys):
    code, _, err = run_cli(capsys, "partition", "no-such-file.json")
    assert code == 2
    assert "not found" in err


def test_bounds_structured_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", FIXTURE_29, "--payload", "2", "--battery", "30780",
        "--interval", "10", "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "lifetime-bounds"
    assert doc["energy_per_packet_mj"] == {"send": 3.78, "receive": 4.27}
    assert doc["per_sphere_min_mj"] == [52.08, 27.93, 10.22, 3.78]
    assert doc["t_max"]["lower_iterations"] == 139194
    assert doc["t_max"]["upper_iterations"] == 591013
    assert abs(doc["lifetime_hours"]["lower"] - 387) <= 1
    assert abs(doc["lifetime_hours"]["upper"] - 1642) <= 1


def test_bounds_unknown_profile(capsys):
    code, _, err = run_cli(capsys, "bounds", FIXTURE_29, "--profile", "cc9999")
    assert code == 2
    assert "cc2420-paper" in err


def test_bounds_accepts_bundled_profile_name(capsys):
    by_preset = run_cli(capsys, "bounds", FIXTURE_29, "--profile", "cc2420-paper")
    by_file = run_cli(capsys, "bounds", FIXTURE_29, "--profile", "cc2420-paper.profile.json")
    assert by_file == by_preset
    assert by_file[0] == 0


def test_bounds_warns_when_the_payload_overflows_the_ppdu(capsys):
    with pytest.warns(FrameLengthWarning, match="218 bytes"):  # 18 + 200
        code, _, _ = run_cli(capsys, "bounds", FIXTURE_29, "--payload", "200")
    assert code == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run_cli(capsys, "bounds", FIXTURE_29, "--payload", "115")  # 133 bytes fit
    assert code == 0


def test_node_ids_sharing_a_key_are_an_input_error(capsys, tmp_path):
    path = tmp_path / "clash.topology.json"
    path.write_text(json.dumps({
        "nodes": ["B", 1, "1"], "edges": [["B", 1], ["B", "1"]], "base": "B",
    }))
    code, out, err = run_cli(capsys, "simulate", str(path), "--format", "structured")
    assert code == 2
    assert out == ""
    assert "share the key '1'" in err


@pytest.mark.parametrize(
    "nodes, edges",
    [
        (["B", 1, 1.0, "x"], [["B", 1], ["B", "x"]]),
        (["B", [1]], []),
        (["B", 1], [["B", 1.0]]),
        (["B", 1], [["B", True]]),
    ],
    ids=["float-id", "list-id", "float-endpoint", "boolean-endpoint"],
)
def test_ids_that_are_not_strings_or_integers_are_an_input_error(capsys, tmp_path, nodes, edges):
    path = tmp_path / "bad.topology.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": edges, "base": "B"}))
    code, out, err = run_cli(capsys, "partition", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["m_tx", "e_listen", "block_overrides"])
@pytest.mark.parametrize("value", ["0.12", True, None, [0.12]], ids=["str", "bool", "null", "list"])
def test_non_numeric_profile_energy_is_an_input_error(capsys, tmp_path, field, value):
    doc = json.loads(fixture_path("cc2420-paper.profile.json").read_text())
    if field == "block_overrides":
        doc[field]["tx"]["11"] = value
    else:
        doc[field] = value
    path = tmp_path / "bad.profile.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "bounds", FIXTURE_29, "--profile", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be a number" in err


@pytest.mark.parametrize("seeds", ["a..b", "1..x", "0,y"])
def test_malformed_seeds_are_an_input_error(capsys, seeds):
    code, out, err = run_cli(capsys, "sweep", FIXTURE_29, "--battery", "1", "--seeds", seeds)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad seed")


def test_empty_strategy_list_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "sweep", FIXTURE_29, "--battery", "1", "--strategies", ",")
    assert code == 2
    assert out == ""
    assert err == "error: no strategies in ','\n"


def test_unknown_strategy_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "sweep", FIXTURE_29, "--battery", "1", "--strategies", "teleport")
    assert code == 2
    assert out == ""
    assert err == f"error: unknown strategy 'teleport' (available: {', '.join(STRATEGIES)})\n"


def test_negative_payload_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "bounds", FIXTURE_29, "--payload", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: payload_bytes must be a non-negative integer, got -1\n"


def _bundled_with(name: str, *path, value) -> dict:
    """The bundled document ``name`` with the field at ``path`` set to ``value``."""
    doc = json.loads(fixture_path(name).read_text())
    *parents, last = path
    inner = doc
    for key in parents:
        inner = inner[key]
    inner[last] = value
    return doc


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("bounds", _bundled_with("cc2420-paper.profile.json", "frame", value={"src_addr_bytes": 8.0}),
         "src_addr_bytes must be a non-negative integer, got 8.0"),
        ("bounds", _bundled_with("cc2420-paper.profile.json", "m_tx", value=-0.12), "m_tx must be >= 0"),
        ("bounds", _bundled_with("cc2420-paper.profile.json", "m_tx", value=float("inf")), "m_tx must be finite"),
        ("bounds", _bundled_with("cc2420-paper.profile.json", "block_overrides", "tx", "11", value=float("nan")),
         "block override energy for ('tx', 11) must be finite"),
        ("partition", {"nodes": ["B", "a"], "edges": [["B", "a"], ["a", "B"]], "base": "B"},
         "duplicate edge ['B', 'a']"),
        ("partition", {"nodes": ["B", "a"], "edges": [["B", "a"], ["a", "a"]], "base": "B"},
         "self-loop on node 'a'"),
        ("partition", {"nodes": [], "edges": [], "base": "B"}, "topology has no nodes"),
        ("calibrate", _bundled_with("cc2420.readings.json", "cca", "v_scope", value=0), "cca: v_scope must be > 0"),
        ("calibrate", _bundled_with("cc2420.readings.json", "tx", "v_scope", value=float("inf")),
         "tx: v_scope must be finite"),
        ("calibrate", _bundled_with("cc2420.readings.json", "gain", value=float("nan")), "cca: gain must be finite"),
        ("calibrate", _bundled_with("cc2420.readings.json", "tx", "byte_count", value=46.5),
         "tx: byte_count must be a non-negative integer, got 46.5"),
        ("calibrate", _bundled_with("cc2420.readings.json", "tx", "byte_count", value=3),
         "tx: byte_count (3) must exceed excluded preamble bytes (4)"),
    ],
    ids=[
        "frame-float", "negative-rate", "infinite-rate", "nan-override", "duplicate-edge", "self-loop", "no-nodes",
        "zero-volts", "infinite-volts", "nan-gain", "float-bytes", "few-bytes",
    ],
)
def test_value_errors_in_an_input_file_name_the_file(capsys, tmp_path, command, doc, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = ("bounds", FIXTURE_29, "--profile", str(path)) if command == "bounds" else (command, str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {message}\n"


def test_unexpected_exception_is_an_internal_error_not_exit_1(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(wsnlife.cli, "cmd_partition", broken)
    code, out, err = run_cli(capsys, "partition", FIXTURE_29)
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # nor does a sweep load it, whatever --jobs says: its runs are serial
    src = Path(wsnlife.__file__).resolve().parent.parent
    probe = textwrap.dedent(f"""
        import contextlib, io, sys, wsnlife.cli
        print('multiprocessing' in sys.modules)
        docs = []
        for jobs in ('4', '1'):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                argv = ['sweep', {FIXTURE_29!r}, '--battery', '1', '--seeds', '0..1', '--jobs', jobs]
                code = wsnlife.cli.main([*argv, '--format', 'structured'])
            docs.append((code, out.getvalue()))
        print('multiprocessing' in sys.modules)
        print(docs[0] == docs[1], docs[0][0], docs[0][1].count('"strategy"'))
    """)
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == ["False", "False", "True 0 6"]


def test_closed_stdout_exits_141_without_a_traceback():
    # 50 J of trace is about 0.5 MB, more than a pipe holds, so the
    # process is still writing when its reader goes away
    src = Path(wsnlife.__file__).resolve().parent.parent
    command = ["simulate", FIXTURE_29, "--battery", "50", "--format", "trace"]
    with subprocess.Popen(
        [sys.executable, "-m", "wsnlife.cli", *command],
        cwd=src, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"iteration,node,receives,transmits,energy_mj\r\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
    assert err == ""


def test_simulate_structured_with_verdict(capsys, tmp_path):
    chain = Topology(
        nodes=frozenset({"B", "a", "b"}),
        edges=frozenset({("B", "a"), ("a", "b")}),
        base="B",
    )
    path = tmp_path / "chain.topology.json"
    save_topology(chain, path)
    code, out, _ = run_cli(
        capsys, "simulate", str(path), "--battery", "30780", "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "simulation"
    assert doc["result"]["completed_iterations"] == 2601859
    assert doc["result"]["first_dead"] == "a"
    assert doc["verdict"]["lower_margin"] == 0
    assert doc["verdict"]["upper_margin"] == 0


def test_simulate_trace_file(capsys, tmp_path):
    star = Topology(
        nodes=frozenset({"B", "x", "y"}),
        edges=frozenset({("B", "x"), ("B", "y")}),
        base="B",
    )
    path = tmp_path / "star.topology.json"
    save_topology(star, path)
    trace_path = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "simulate", str(path), "--battery", "0.0378", "--trace", str(trace_path),
    )
    assert code == 0
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "iteration,node,receives,transmits,energy_mj"
    assert len(lines) == 1 + 10 * 2  # 10 iterations x 2 leaves
    assert lines[1] == "0,x,0,1,3.78"


def test_structured_output_is_byte_identical_across_runs(capsys):
    args = (
        "sweep", FIXTURE_29, "--battery", "5", "--seeds", "0..3",
        "--format", "structured",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_table_lists_every_run(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", FIXTURE_29, "--battery", "5", "--seeds", "0,1",
        "--strategies", "balanced-rotating,static-tree",
    )
    assert code == 0
    assert len(out.splitlines()) == 4
    assert "VIOLATION" not in out


def test_sweep_builds_the_bounds_report_once(capsys, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return lifetime_bounds(*args)

    monkeypatch.setattr(wsnlife.cli, "lifetime_bounds", counting)
    code, out, _ = run_cli(
        capsys, "sweep", FIXTURE_29, "--battery", "2", "--seeds", "0..2", "--jobs", "1",
        "--strategies", "static-tree,round-robin-parent", "--format", "structured",
    )
    assert code == 0
    assert len(json.loads(out)["runs"]) == 2 * 3
    assert len(calls) == 1


def test_sweep_structured_runs_in_bounds(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", FIXTURE_29, "--battery", "2", "--seeds", "0..4",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["runs"]) == 3 * 5
    for row in doc["runs"]:
        assert row["violation"] is None
        assert row["lower_iterations"] <= row["completed_iterations"] <= row["upper_iterations"]


def test_calibrate_roundtrip_into_bounds(capsys, tmp_path):
    readings = tmp_path / "readings.json"
    shutil.copy(fixture_path("cc2420.readings.json"), readings)
    profile_path = tmp_path / "derived.profile.json"
    code, _, _ = run_cli(
        capsys, "calibrate", str(readings), "--round-like-paper", "-o", str(profile_path),
    )
    assert code == 0
    profile, _ = load_profile(profile_path)
    assert (profile.m_tx, profile.e_cca, profile.e_listen) == (Fraction("0.12"), Fraction("0.08"), Fraction("0.58"))
    for key, energy in CC2420_PAPER.block_overrides.items():
        assert profile.block_overrides[key] == energy
    # derived profile drives the same worked-example bounds
    code, out, _ = run_cli(
        capsys, "bounds", FIXTURE_29, "--profile", str(profile_path),
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["per_sphere_min_mj"] == [52.08, 27.93, 10.22, 3.78]


def test_calibrate_stdout_is_the_output_file(capsys, tmp_path):
    printed, written = tmp_path / "printed.profile.json", tmp_path / "written.profile.json"
    code, out, _ = run_cli(capsys, "calibrate", "cc2420.readings.json")
    assert code == 0
    printed.write_text(out)
    assert run_cli(capsys, "calibrate", "cc2420.readings.json", "-o", str(written))[0] == 0
    bounds = [
        run_cli(capsys, "bounds", FIXTURE_29, "--profile", str(p), "--format", "structured") for p in (printed, written)
    ]
    assert bounds[0] == bounds[1]
    assert bounds[0][0] == 0
    assert written.read_text() == out


def test_calibrate_stdout_unrounded(capsys, tmp_path):
    readings = tmp_path / "readings.json"
    shutil.copy(fixture_path("cc2420.readings.json"), readings)
    code, out, _ = run_cli(capsys, "calibrate", str(readings))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "radio-profile"
    assert abs(doc["m_tx"] - 0.1202) <= 0.0005
    assert abs(doc["e_cca"] - 0.0806) <= 0.0005


def test_output_file_option(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "bounds", FIXTURE_29, "--format", "structured", "-o", str(out_path),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "lifetime-bounds"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("bounds", "--battery", "inf"), "battery_joules must be finite"),
        (("bounds", "--interval", "inf"), "interval_s must be finite"),
        (("bounds", "--battery", "1e308"), "lower bound on T_max too large to report"),
        (("bounds", "--interval", "1e308"), "lower lifetime too large to report"),
        (("simulate", "--battery", "1e308", "--max-iterations", "5"), "lower bound on T_max too large to report"),
        (("simulate", "--battery", "inf"), "battery_joules must be finite"),
        (("simulate", "--battery", "nan"), "battery_joules must be finite"),
        (("simulate", "--interval", "inf"), "interval_s must be finite"),
    ],
    ids=[
        "--battery", "--interval", "--battery-1e308", "--interval-1e308", "simulate-1e308",
        "simulate--battery", "simulate--battery-nan", "simulate--interval",
    ],
)
def test_non_finite_number_is_an_input_error(capsys, argv, message):
    assert run_cli(capsys, argv[0], FIXTURE_29, *argv[1:]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("energy", [1e308, 5e-324])
def test_profile_energy_beyond_the_float_range_is_an_input_error(capsys, tmp_path, energy):
    # 1e308 makes the per-packet energies too large for a float, 5e-324 the iteration bounds
    path = tmp_path / "extreme.profile.json"
    path.write_text(json.dumps({"m_tx": energy, "m_rx": energy, "e_cca": 0, "e_listen": 0}))
    code, out, err = run_cli(capsys, "bounds", FIXTURE_29, "--profile", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "too large to report" in err
    assert "Traceback" not in err


def test_calibrate_accepts_bundled_readings_name(capsys):
    code, out, _ = run_cli(capsys, "calibrate", "cc2420.readings.json", "--round-like-paper")
    assert code == 0
    assert json.loads(out)["m_tx"] == 0.12


def test_calibrate_missing_readings_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "calibrate", str(tmp_path / "absent.readings.json"))
    assert code == 2
    assert "not found" in err


CALIBRATE_SHA256 = {
    (): "d8202a241c31eea6ba4ca7049cf5ea31ab8297422b2b85e5f2b8451ba7288d4e",
    ("--round-like-paper",): "03001330befc9f36edbd475f2b896741b7381e50ea699179a4b36336d7255bc2",
}


@pytest.mark.parametrize("flags", CALIBRATE_SHA256, ids=["unrounded", "round-like-paper"])
def test_calibrate_output_is_golden_and_loads_back_as_the_same_profile(capsys, tmp_path, flags):
    code, out, _ = run_cli(capsys, "calibrate", "cc2420.readings.json", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CALIBRATE_SHA256[flags]
    path = tmp_path / "calibrated.profile.json"
    path.write_text(out)
    slots = load_readings(fixture_path("cc2420.readings.json"))
    derived = profile_from_readings(round_like_paper=bool(flags), name="calibrated", **slots)
    assert load_profile(path) == (derived, None)


def _bounds_lower_iterations(capsys, profile_text: str, tmp_path) -> int:
    path = tmp_path / "p.profile.json"
    path.write_text(profile_text)
    argv = ("bounds", FIXTURE_29, "--profile", str(path), "--payload", "2", "--battery", "221.13")
    code, out, _ = run_cli(capsys, *argv, "--format", "structured")
    assert code == 0
    return json.loads(out)["t_max"]["lower_iterations"]


def test_profile_decimals_are_read_at_every_written_digit(capsys, tmp_path):
    # 221.13 J is exactly 1000 iterations of the worst-case drain, so a rate
    # 1e-20 mJ above 0.12, which no float can tell from 0.12, ends one sooner
    bundled = fixture_path("cc2420-paper.profile.json").read_text()
    finer = bundled.replace('"m_tx": 0.12,', '"m_tx": 0.12000000000000000001,')
    assert finer != bundled
    assert _bounds_lower_iterations(capsys, bundled, tmp_path) == 1000
    assert _bounds_lower_iterations(capsys, finer, tmp_path) == 999


def test_number_with_a_runaway_exponent_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "huge.profile.json"
    path.write_text('{"m_tx": 1e99999, "m_rx": 0, "e_cca": 0, "e_listen": 0}')
    code, out, err = run_cli(capsys, "bounds", FIXTURE_29, "--profile", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: m_tx is out of range: its exponent is beyond ±4300\n"


@pytest.mark.parametrize("flags", CALIBRATE_SHA256, ids=["unrounded", "round-like-paper"])
def test_calibrated_energy_beyond_the_float_range_is_an_input_error(capsys, tmp_path, flags):
    path = tmp_path / "huge.readings.json"
    path.write_text(fixture_path("cc2420.readings.json").read_text().replace('"v_scope": 2.92', '"v_scope": 2.92e400'))
    code, out, err = run_cli(capsys, "calibrate", str(path), *flags)
    assert (code, out, err) == (2, "", "error: calibrated energy too large to report\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("partition", "{dir}"),
        ("calibrate", "{dir}"),
        ("partition", "{undecodable}"),
        ("bounds", FIXTURE_29, "--profile", "{dir}"),
        ("partition", FIXTURE_29, "-o", "{dir}"),
        ("simulate", FIXTURE_29, "--battery", "1", "--trace", "{missing}/trace.csv"),
        ("calibrate", "cc2420.readings.json", "-o", "{missing}/profile.json"),
        ("partition", "{deep}"),
        ("bounds", FIXTURE_29, "--profile", "{deep}"),
        ("calibrate", "{deep}"),
    ],
    ids=[
        "read-dir", "readings-dir", "undecodable", "profile-dir", "output-dir", "trace-dir", "calibrate-output-dir",
        "deep-topology", "deep-profile", "deep-readings",
    ],
)
def test_unusable_file_paths_are_input_errors(capsys, tmp_path, argv):
    undecodable = tmp_path / "bom.topology.json"
    undecodable.write_bytes(b'\xff\xfe{"nodes": []}')
    deep = tmp_path / "deep.json"  # nested past what the decoder can recurse into
    deep.write_text("[" * 200_000 + "]" * 200_000)
    paths = {"dir": tmp_path, "missing": tmp_path / "absent", "undecodable": undecodable, "deep": deep}
    code, _, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_trace_format_writes_the_trace_to_the_output_file(capsys, tmp_path):
    command = ("simulate", FIXTURE_29, "--battery", "0.5", "--format", "trace")
    code, expected, _ = run_cli(capsys, *command)
    assert code == 0
    out_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, *command, "-o", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text().splitlines() == expected.splitlines()
    assert len(expected.splitlines()) > 1


def test_trace_option_with_trace_format_is_an_input_error(capsys, tmp_path):
    trace_path = tmp_path / "trace.csv"
    code, out, err = run_cli(
        capsys, "simulate", FIXTURE_29, "--format", "trace", "--trace", str(trace_path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not trace_path.exists()


def _sometimes(extremes, ordinary):
    """A flag value as typed: one of ``extremes`` one time in four, so that
    most commands still run to the end."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(extremes) if i == 0 else ordinary.map(str))


_floats = _sometimes(["1e308", "5e-324", "0", "-1", "inf", "nan"], st.floats(1e-3, 1e5))
_payloads = _sometimes(["-1", "300", str(10**400)], st.integers(0, 115))
_caps = _sometimes(["0", "-1", str(10**400)], st.integers(1, 10**9))


@st.composite
def _cli_argvs(draw):
    """A ``bounds``, ``simulate`` or ``sweep`` command on the 29-node example
    with drawn flag values; ``--jobs`` is accepted whatever its value."""
    command = draw(st.sampled_from(["bounds", "simulate", "sweep"]))
    flags = {
        "--payload": draw(_payloads),
        "--battery": draw(_floats),
        "--interval": draw(_floats),
        "--format": draw(st.sampled_from(["structured", "table"])),
    }
    if command != "bounds":
        flags["--max-iterations"] = draw(_caps)
    if command == "simulate":
        flags["--strategy"] = draw(st.sampled_from(STRATEGIES))
        flags["--seed"] = str(draw(st.integers(-(10**6), 10**6)))
    if command == "sweep":
        first = draw(st.integers(-(10**6), 10**6))
        flags["--seeds"] = f"{first}..{first + draw(st.integers(-1, 2))}"
        flags["--jobs"] = str(draw(st.integers(-2, 64)))
    # --flag=value keeps argparse from reading "-1" or "-inf" as an option
    return [command, FIXTURE_29, *(f"{flag}={value}" for flag, value in flags.items())]


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(_cli_argvs())
def test_cli_flag_values_exit_0_or_2_never_3(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a payload beyond the PPDU only warns
        code = main(argv)
    assert code in (0, 2) or (code == 1 and "bound violation: " in err.getvalue()), (code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
