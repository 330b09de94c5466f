"""The four benchmark workloads: their inputs, their queries and their checks.

A workload is a pool of queries built from the seed.  The runner cycles
through the pool; ``run`` executes one query and returns its structured
output text and whatever the checks need, and ``check`` lists what is
wrong with it.  Layers are timed from outside, by spans around the calls
into the package modules they are named after.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from wsnlife.bounds import lifetime_bounds
from wsnlife.cli import SCHEMA_VERSION, dumps_canonical
from wsnlife.energy_model import build_model, profile_preset
from wsnlife.frame_model import frame_preset
from wsnlife.simulator import SimConfig, simulate, validate_against_bounds
from wsnlife.topology import partition, topology_from_dict

# README figures for the bundled network at 30 780 J with 2-byte payloads.
PAPER_LOWER = 139194
PAPER_UPPER = 591013

# The console script's entry point, run without installing the package.
CLI_ENTRY = "import sys; from wsnlife.cli import entry; sys.argv[0] = 'wsnlife'; entry()"


def run_library_query(text: str, tracer):
    """Full pipeline from ingest to serialise for one JSON query document."""
    with tracer.span("topology.load"):
        doc = json.loads(text)
        topology = topology_from_dict(doc["topology"])
    with tracer.span("topology.partition"):
        spheres = partition(topology)
    info = {"sizes": list(spheres.sizes)}
    if doc["op"] == "partition":
        with tracer.span("cli.serialise"):
            out = dumps_canonical(
                {"schema_version": SCHEMA_VERSION, "kind": "partition", **spheres.to_dict()}
            )
        return out, info
    with tracer.span("energy_model.build_model"):
        model = build_model(profile_preset(doc["profile"]), frame_preset(doc["frame"]))
    with tracer.span("bounds.lifetime_bounds"):
        report = lifetime_bounds(spheres, model, doc["payload"], doc["battery"], doc["interval"])
    info["report"] = report
    if doc["op"] == "bounds":
        with tracer.span("cli.serialise"):
            out = dumps_canonical(
                {"schema_version": SCHEMA_VERSION, "kind": "lifetime-bounds", **report.to_dict()}
            )
        return out, info
    runs = []
    for seed in doc["seeds"]:
        with tracer.span("simulator.simulate." + doc["strategy"]):
            config = SimConfig(
                strategy=doc["strategy"],
                payload_bytes=doc["payload"],
                battery_joules=doc["battery"],
                seed=seed,
            )
            result = simulate(topology, spheres, model, config)
        with tracer.span("simulator.validate"):
            verdict = validate_against_bounds(result, report)
        runs.append((result, verdict))
    with tracer.span("cli.serialise"):
        out = dumps_canonical({
            "schema_version": SCHEMA_VERSION,
            "kind": "simulations",
            "runs": [{"result": r.to_dict(), "verdict": v.to_dict()} for r, v in runs],
        })
    info["results"] = [result for result, _ in runs]
    info["iterations"] = sum(result.completed_iterations for result in info["results"])
    return out, info


class LibraryWorkload:
    """In-process queries through the package's public functions."""

    collect = True  # collect garbage between queries, outside the timing

    def __init__(self, name: str, items: list):
        self.name = name
        self.items = items

    def run(self, item, tracer):
        return run_library_query(item["text"], tracer)

    def check(self, item, out: str, info: dict) -> list:
        problems = []
        if "sizes" in item and info["sizes"] != item["sizes"]:
            problems.append(f"layer sizes {info['sizes'][:8]}... differ from the input's")
        report = info.get("report")
        if report is not None and report.t_max_lower_iterations > report.t_max_upper_iterations:
            problems.append("lower iteration bound above the upper bound")
        results = info.get("results", [])
        if any(result.first_dead is None for result in results):
            problems.append("simulation ended without a node death")
        if self.name == "paper-example":
            lower, upper = report.t_max_lower_iterations, report.t_max_upper_iterations
            if (lower, upper) != (PAPER_LOWER, PAPER_UPPER):
                problems.append(
                    f"bounds {lower}..{upper} differ from the README's {PAPER_LOWER}..{PAPER_UPPER}"
                )
            if item["strategy"] == "balanced-rotating":
                for result in results:
                    if result.completed_iterations != PAPER_UPPER:
                        problems.append(
                            f"balanced-rotating completed {result.completed_iterations},"
                            f" not {PAPER_UPPER}"
                        )
        return problems

    def final_check(self, digests: dict) -> list:
        return []

    def close(self):
        pass


class CliWorkload:
    """``wsnlife`` process invocations on generated input files."""

    collect = False

    def __init__(self, spec: dict, workdir: Path, src: Path, deadline):
        self.items = spec["commands"]
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        for name, text in spec["files"].items():
            (workdir / name).write_text(text)

    def python(self, args):
        """Run the interpreter in the work directory; waits for it to end."""
        return subprocess.run(
            [sys.executable, *args],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=max(1.0, min(60.0, self.deadline.remaining())),
        )

    def run(self, item, tracer):
        trace = item.get("trace")
        if trace:
            (self.workdir / trace).unlink(missing_ok=True)
        with tracer.span("cli.process." + item["kind"]):
            proc = self.python(["-c", CLI_ENTRY, *item["args"]])
        info = {"returncode": proc.returncode, "stderr": proc.stderr, "stdout": proc.stdout}
        out = proc.stdout
        if trace and proc.returncode == 0:
            text = (self.workdir / trace).read_text()
            info["trace_rows"] = text.count("\n") - 1
            out += text
        return out, info

    def check(self, item, out: str, info: dict) -> list:
        if info["returncode"] != 0:
            return [f"exit code {info['returncode']}: {info['stderr'].strip()[-300:]}"]
        if "Traceback" in info["stderr"]:
            return ["traceback on stderr"]
        if "structured" not in item["args"]:
            return []
        doc = json.loads(info["stdout"])
        if item.get("trace"):
            nodes = len(doc["result"]["per_node_spent_mj"])
            expected = doc["result"]["completed_iterations"] * nodes
            if info["trace_rows"] != expected:
                return [f"trace has {info['trace_rows']} rows, expected {expected}"]
        if doc["kind"] == "sweep" and any(run["violation"] for run in doc["runs"]):
            return ["sweep reported a bound violation"]
        return []

    def final_check(self, digests: dict) -> list:
        """Both sweeps run the same jobs, so the pool must not change them."""
        sweeps = {
            digests[i]
            for i, item in enumerate(self.items)
            if item["kind"].startswith("sweep") and i in digests
        }
        return ["sweep output depends on --jobs"] if len(sweeps) > 1 else []

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def build(name: str, inputs, src: Path, workdir: Path, deadline):
    if name == "cli":
        return CliWorkload(inputs, workdir, src, deadline)
    return LibraryWorkload(name, inputs)

