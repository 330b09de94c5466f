"""Benchmark of wsnlife, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload paper-example --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload in turn.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  See bench/README.md for the workloads and metrics.

A run has two processes.  This one generates the inputs, writes them to a
file and times the program's set-up in fresh interpreters.  A worker
process (this script with ``--inputs``) then reads the file and runs only
the queries, so that its peak memory is the program's and not the
generator's.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gen
from measure import NullTracer, Tracer, median, self_times, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7
# The worker stops starting passes STOP_MARGIN_S before WORKER_LIMIT_S and
# is killed at WORKER_LIMIT_S + 10, so every run ends well inside three
# minutes, whatever the program does.
WORKER_LIMIT_S = 120
STOP_MARGIN_S = 30
PROBE_REPEATS = 5

# What the program does before its first query: import the package's
# modules and build the energy model of the profile and frame the
# workloads use.  Timed inside a fresh interpreter, so interpreter start
# is left out and nothing is cached from earlier work.
SETUP_CODE = f"""\
import time
t0 = time.perf_counter()
import wsnlife.cli
from wsnlife.energy_model import build_model, profile_preset
from wsnlife.frame_model import frame_preset
build_model(profile_preset({gen.PROFILE!r}), frame_preset({gen.FRAME!r}))
print(time.perf_counter() - t0)
"""

LAYERS = (
    "topology.load",
    "topology.partition",
    "energy_model.build_model",
    "bounds.lifetime_bounds",
    "simulator.simulate.static-tree",
    "simulator.simulate.round-robin-parent",
    "simulator.simulate.balanced-rotating",
    "simulator.validate",
    "cli.serialise",
)
WORKLOADS = ("paper-example", "long-period", "large-network", "cli")
PROCESSES = ("partition", "bounds", "simulate", "simulate_trace", "sweep_jobs1", "sweep_jobs2")
SPAN_NAMES = ("query", *LAYERS, *(f"cli.process.{kind}" for kind in PROCESSES))


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def remaining(self) -> float:
        return self.end - time.perf_counter()


class Tally:
    """Outcomes of every query of one run, across phases."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}  # pool index -> output digest of its first run
        self.info = {}     # pool index -> facts about its first output

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)


def run_phase(workload, tracer, seconds: float, tally: Tally, deadline: Deadline):
    """Closed loop with one client: whole passes over the pool until
    ``seconds`` have gone by.  Returns the latencies of correct queries and
    the facts of every query, in order."""
    latencies = []
    facts = []
    start = time.perf_counter()
    while True:
        for index, item in enumerate(workload.items):
            if workload.collect:
                gc.collect()
            tracer.query += 1
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                with tracer.span("query"):
                    out, info = workload.run(item, tracer)
                elapsed = time.perf_counter() - t0
                problems = workload.check(item, out, info)
            except Exception:
                tally.fail(traceback.format_exc(limit=3))
                continue
            digest = hashlib.sha256(out.encode()).hexdigest()
            if tally.digests.setdefault(index, digest) != digest:
                problems.append("output differs from an earlier run of the same query")
            tally.info.setdefault(index, {
                "bytes_out": len(info.get("stdout", out).encode()),
                "iterations": info.get("iterations", 0),
                "trace_rows": info.get("trace_rows"),
            })
            facts.append((info.get("iterations", 0), info.get("returncode", 0)))
            if problems:
                tally.fail(f"query {index}: " + "; ".join(problems))
                continue
            latencies.append(elapsed)
        if time.perf_counter() - start >= seconds or deadline.remaining() < STOP_MARGIN_S:
            return latencies, facts


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(latencies, name: str) -> tuple:
    samples = [1000 * t for t in latencies] or [0.0]  # no correct query: run is not correct
    tail_ms, tail_pct, beyond = tail(samples)
    metrics = {
        "query_p50_ms": (median(samples), "ms"),
        "query_tail_ms": (tail_ms, "ms"),
        "queries_per_s": (len(latencies) / sum(latencies) if latencies else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb(name), "MB"),
    }
    notes = {"tail_percentile": tail_pct, "tail_beyond": beyond, "samples": len(latencies)}
    return metrics, notes


def per_layer(workload, tracer, facts, tally, untraced_qps, traced_latencies, probes) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    durations = {}
    selfs = {}
    coverage = []
    for span, self_s in zip(spans, own):
        name, start, end = span[0], span[1], span[2]
        durations.setdefault(name, []).append(end - start)
        selfs[name] = selfs.get(name, 0.0) + self_s
        if name == "query":
            coverage.append(1 - self_s / (end - start))

    metrics = {}
    for name in LAYERS:
        times = durations.get(name, [])
        metrics[f"{name}.calls"] = (len(times), "count")
        metrics[f"{name}.busy_ms"] = (1000.0 * sum(times), "ms")
        if not name.startswith(("energy_model", "simulator.validate", "cli.")):
            metrics[f"{name}.p50_ms"] = (1000 * median(times) if times else 0.0, "ms")
    for name in SPAN_NAMES:
        metrics[f"{name}.self_ms"] = (1000 * selfs.get(name, 0.0), "ms")
    for kind in PROCESSES:
        times = durations.get(f"cli.process.{kind}", [])
        metrics[f"cli.process.{kind}.p50_ms"] = (1000 * median(times) if times else 0.0, "ms")

    per_pass = [tally.info.get(i, {}) for i in range(len(workload.items))]
    metrics.update(gen.counters(workload.items))
    metrics["simulator.iterations"] = (sum(f.get("iterations", 0) for f in per_pass), "count")
    simulate_s = sum(sum(durations.get(n, [])) for n in LAYERS if n.startswith("simulator.simulate"))
    stepped = sum(iterations for iterations, _ in facts)
    metrics["simulator.iterations_per_s"] = (stepped / simulate_s if simulate_s else 0.0, "1/s")
    metrics["cli.bytes_out"] = (sum(f.get("bytes_out", 0) for f in per_pass), "bytes")
    rows = [f["trace_rows"] for f in per_pass if f.get("trace_rows") is not None]
    metrics["cli.trace_rows"] = (max(rows, default=0), "count")
    metrics["cli.nonzero_exits"] = (sum(1 for _, code in facts if code != 0), "count")
    metrics["cli.interpreter_floor_ms"] = (probes.get("floor", 0.0), "ms")
    metrics["cli.import_ms"] = (probes.get("import", 0.0), "ms")
    traced_qps = len(traced_latencies) / sum(traced_latencies) if traced_latencies else 0.0
    metrics["trace_overhead_ratio"] = (traced_qps / untraced_qps if untraced_qps else 0.0, "ratio")
    metrics["trace.coverage_min"] = (min(coverage, default=0.0), "ratio")
    metrics["trace.coverage_p50"] = (median(coverage) if coverage else 0.0, "ratio")
    return metrics


def cli_probes(workload) -> dict:
    """Interpreter start alone, and the import of wsnlife.cli above it."""
    timings = {}
    for key, args in (("floor", ["-c", "pass"]), ("import", ["-c", "import wsnlife.cli"])):
        samples = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            proc = workload.python(args)
            samples.append(1000 * (time.perf_counter() - t0))
            if proc.returncode != 0:
                raise RuntimeError(f"probe {args} exited {proc.returncode}")
        timings[key] = median(samples)
    timings["import"] -= timings["floor"]
    return timings


def run_queries(name: str, seed: int, inputs, seconds: float, traced: bool) -> dict:
    """The worker's part: run the queries and report what they did."""
    import workloads  # imports wsnlife, so only once main() has put src/ on the path

    deadline = Deadline(WORKER_LIMIT_S)
    tally = Tally()
    workload = workloads.build(name, inputs, SRC, WORK / f"{name}-{os.getpid()}", deadline)
    try:
        first = seconds if not traced else seconds / 2
        untraced, _ = run_phase(workload, NullTracer(), first, tally, deadline)
        metrics, notes = end_to_end(untraced, name)
        if traced:
            probes = cli_probes(workload) if name == "cli" else {}
            tracer = Tracer()
            traced_latencies, facts = run_phase(workload, tracer, seconds / 2, tally, deadline)
            qps = metrics["queries_per_s"][0]
            metrics = per_layer(workload, tracer, facts, tally, qps, traced_latencies, probes)
            metrics["query.tail_percentile"] = (notes["tail_percentile"], "%")
            metrics["query.samples"] = (notes["samples"], "count")
            spans_path = WORK / f"spans-{name}-{seed}.jsonl"
            tracer.write(spans_path)
            notes["spans"] = str(spans_path.relative_to(ROOT))
        for problem in workload.final_check(tally.digests):
            tally.fail(problem)
    finally:
        workload.close()
    indices = range(len(workload.items))
    if all(i in tally.digests for i in indices):
        notes["digest"] = hashlib.sha256(
            "".join(tally.digests[i] for i in indices).encode()
        ).hexdigest()
    return {"attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
            "metrics": metrics, "notes": notes}


def program_setup() -> list:
    """Seconds the program's set-up takes in each of SETUP_REPEATS fresh
    interpreters, after one untimed start that compiles the bytecode."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout))
    return times[1:]


def source_hash() -> str:
    """Digest of the package's source tree: the code under test."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "wsnlife").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(f"{path.relative_to(SRC)}\0".encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check_digest(key: str, digest: str, outcome: dict) -> None:
    """Compare a pass's output digest with earlier runs in this checkout of
    the same code on the same inputs."""
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if known.setdefault(key, digest) != digest:
        outcome["failed"] += 1
        outcome["problems"].append(
            f"output digest {digest[:12]} differs from an earlier run's {known[key][:12]}"
        )
    else:
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    text = json.dumps(gen.generate(name, seed, SRC), sort_keys=True)
    input_hash = hashlib.sha256(text.encode()).hexdigest()
    path = WORK / f"inputs-{name}-{seed}-{os.getpid()}.json"
    path.write_text(text)
    try:
        setup_times = program_setup()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced)), "--inputs", str(path)],
            capture_output=True, text=True, timeout=WORKER_LIMIT_S + 10,
        )
    finally:
        path.unlink(missing_ok=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {name} exited {proc.returncode}")
    outcome = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {key: tuple(value) for key, value in outcome["metrics"].items()}
    if not traced:
        metrics = {"setup_s": (median(setup_times), "s"), **metrics}
    outcome["metrics"] = metrics
    digest = outcome["notes"].get("digest")
    if digest:
        check_digest(f"{name}:{seed}:{input_hash[:16]}:{source_hash()[:16]}", digest, outcome)
    return outcome


def report(name: str, seed: int, traced: bool, outcome: dict) -> dict:
    metrics, notes = outcome["metrics"], outcome["notes"]
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"workload {name}  seed {seed}  trace {int(traced)}")
    for key, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        extra = ""
        if key == "query_tail_ms":
            extra = (f"  (p{notes['tail_percentile']:.2f}: {notes['tail_beyond']} of "
                     f"{notes['samples']} samples beyond)")
        print(f"  {key:<44} {shown:>14} {unit}{extra}")
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'failed_ratio':<44} {ratio:>14.6g} ratio  ({failed} of {attempted})")
    for key in ("digest", "spans"):
        if notes.get(key):
            print(f"  {key:<44} {notes[key]}")
    for problem in outcome["problems"]:
        print(f"  FAILED: {problem.strip()}", file=sys.stderr)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result = report(name, args.seed, bool(args.trace), outcome)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    parser.add_argument("--inputs", help=argparse.SUPPRESS)  # set for the worker process
    args = parser.parse_args(argv)

    if not (SRC / "wsnlife" / "__init__.py").is_file():
        print(f"error: no wsnlife package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    if args.inputs:
        sys.path.insert(0, str(SRC))
        import wsnlife

        if Path(wsnlife.__file__).resolve().parent != (SRC / "wsnlife").resolve():
            print(f"error: imported wsnlife from {wsnlife.__file__}, not {SRC}", file=sys.stderr)
            return 2
        inputs = json.loads(Path(args.inputs).read_text())
        print(json.dumps(run_queries(args.workload, args.seed, inputs, args.seconds, bool(args.trace))))
        return 0

    if args.workload == "all":
        result = run_all(args)
    else:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        result = report(args.workload, args.seed, bool(args.trace), outcome)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
