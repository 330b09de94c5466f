"""Command-line front end: file ingestion, presets and the analysis pipeline.

Commands: partition, bounds, simulate, calibrate, sweep.  Structured output
is canonical JSON (sorted keys, two-space indent), so identical invocations
are byte-identical.

``bounds``, ``simulate`` and ``sweep`` read their inputs in one order, so the
first bad input is the one reported: the topology, its partition, the model
(``--profile``, then ``--frame-preset``), the ``--strategies`` and ``--seeds``
of a sweep, the run configurations, then the bounds.
"""

import argparse
import csv
import os
import sys
from itertools import product
from pathlib import Path

from . import __version__
from .bounds import lifetime_bounds
from .calibration import load_readings, profile_from_readings
from .energy_model import (
    PROFILE_PRESETS,
    build_model,
    load_profile,
    profile_preset,
    profile_to_dict,
)
from .errors import Error, dumps_canonical
from .exact import round_half_up, to_float
from .fixtures import FIXTURE_FILES, fixture_path
from .frame_model import FRAME_PRESETS, frame_preset
from .simulator import (
    STRATEGIES,
    BoundViolation,
    SimConfig,
    iteration_cost,
    simulate,
    validate_against_bounds,
)
from .topology import load_topology, node_key, partition

SCHEMA_VERSION = 1


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)


def _emit_document(args, kind: str, body: dict) -> None:
    _emit(args, dumps_canonical({"schema_version": SCHEMA_VERSION, "kind": kind, **body}))


def _resolve_file(spec: str, kind: str):
    """Path of an existing file, or of the bundled ``*.<kind>.json`` fixture so named."""
    path = Path(spec)
    if path.exists():
        return path
    suffix = f".{kind}.json"
    if spec in FIXTURE_FILES and spec.endswith(suffix):
        return fixture_path(spec)
    bundled = ", ".join(n for n in FIXTURE_FILES if n.endswith(suffix))
    raise Error(f"{kind} file {spec!r} not found (bundled fixtures: {bundled})")


def _resolve_profile(spec: str):
    """Preset, profile file or bundled file name -> (RadioProfile, embedded FrameConfig | None)."""
    if spec in PROFILE_PRESETS:
        return profile_preset(spec), None
    try:
        path = _resolve_file(spec, "profile")
    except Error as exc:
        raise Error(f"{exc}; profile presets: {', '.join(sorted(PROFILE_PRESETS))}") from None
    return load_profile(path)


def _network(args):
    """The topology, its partition and the energy model that the flags name."""
    topo = load_topology(_resolve_file(args.topology, "topology"))
    part = partition(topo)
    profile, embedded_frame = _resolve_profile(args.profile)
    if args.frame_preset is not None:
        frame = frame_preset(args.frame_preset)
    else:
        frame = embedded_frame or frame_preset("paper-tinyos")
    return topo, part, build_model(profile, frame)


def _runs(args, part, model, runs):
    """One ``SimConfig`` per (strategy, seed) of ``runs``, then the bounds report they all share."""
    configs = [
        SimConfig(strategy, args.payload, args.battery, args.max_iterations, seed)
        for strategy, seed in runs
    ]
    return configs, lifetime_bounds(part, model, args.payload, args.battery, args.interval)


def _fmt_mj(x) -> str:
    return f"{round_half_up(x):.2f}"


def cmd_partition(args) -> int:
    part = partition(load_topology(_resolve_file(args.topology, "topology")))
    if args.format == "structured":
        _emit_document(args, "partition", part.to_dict())
    else:
        sizes = ",".join(str(s) for s in part.sizes)
        cumulative = ",".join(str(b) for b in part.cumulative)
        _emit(args, f"s: {sizes}; N={part.total}; k={part.k}\nb: {cumulative}")
    return 0


def cmd_bounds(args) -> int:
    _, part, model = _network(args)
    _, report = _runs(args, part, model, ())
    if args.format == "structured":
        _emit_document(args, "lifetime-bounds", report.to_dict())
    else:
        sizes = ",".join(str(s) for s in part.sizes)
        minima = "  ".join(
            f"m_{i + 1}={_fmt_mj(m)}" for i, m in enumerate(report.per_sphere_min)
        )
        lines = [
            f"network: N={part.total}, k={part.k}, spheres {sizes}",
            f"per packet: send {_fmt_mj(report.send_energy_mj)} mJ, "
            f"receive {_fmt_mj(report.receive_energy_mj)} mJ (payload {args.payload} B)",
            f"sphere load minima (mJ/iteration): {minima}",
            f"binding sphere: {report.binding_sphere}",
            f"worst-case node drain: {_fmt_mj(report.worst_case_node_energy)} mJ/iteration",
            f"iterations: {report.t_max_lower_iterations} <= T_max <= {report.t_max_upper_iterations}",
            f"lifetime: {report.lifetime_lower_hours:.1f} .. {report.lifetime_upper_hours:.1f} "
            f"hours (interval {args.interval:g} s)",
        ]
        _emit(args, "\n".join(lines))
    return 0


def _make_trace_writer(topo, model, config, stream):
    cost, _, scale = iteration_cost(model, config)
    writer = csv.writer(stream)
    writer.writerow(["iteration", "node", "receives", "transmits", "energy_mj"])
    keyed = sorted((node_key(v), v) for v in topo.nodes - {topo.base})
    energies = {}  # receives -> report float; a run has few distinct counts

    def trace(iteration, receives):
        for key, v in keyed:
            r = receives[v]
            if r not in energies:
                energies[r] = to_float("trace energy", cost(r, r + 1), scale)
            writer.writerow([iteration, key, r, r + 1, energies[r]])

    return trace


def cmd_simulate(args) -> int:
    if args.format == "trace" and args.trace:
        raise Error("--trace and --format trace both name the trace; use -o to write it to a file")
    topo, part, model = _network(args)
    [config], report = _runs(args, part, model, [(args.strategy, args.seed)])

    # --format trace writes the trace where -o says, or to stdout
    trace_path = args.output if args.format == "trace" else args.trace
    trace_file = open(trace_path, "w", newline="") if trace_path else None
    trace = None
    if trace_file or args.format == "trace":
        trace = _make_trace_writer(topo, model, config, trace_file or sys.stdout)
    try:
        result = simulate(topo, part, model, config, trace=trace)
    finally:
        if trace_file:
            trace_file.close()
    verdict = validate_against_bounds(result, report)

    if args.format == "structured":
        _emit_document(args, "simulation", {"result": result.to_dict(), "verdict": verdict.to_dict()})
    elif args.format == "table":
        dead = "none" if result.first_dead is None else node_key(result.first_dead)
        if result.first_dead is not None:
            dead += f" (sphere {part.sphere_index(result.first_dead)})"
        note = "" if verdict.lower_enforced else "; lower bound not enforced on a capped run"
        lines = [
            f"strategy: {result.strategy} (seed {result.seed})",
            f"completed iterations: {result.completed_iterations}"
            + (" [iteration cap reached]" if result.cap_reached else ""),
            f"first dead: {dead}",
            f"verdict: within bounds [{verdict.lower_iterations}, {verdict.upper_iterations}] "
            f"(lower margin {verdict.lower_margin:+d}, upper margin {verdict.upper_margin:+d}{note})",
        ]
        _emit(args, "\n".join(lines))
    return 0


def cmd_calibrate(args) -> int:
    slots = load_readings(_resolve_file(args.readings, "readings"))
    profile = profile_from_readings(
        round_like_paper=args.round_like_paper,
        name=args.name,
        **slots,
    )
    _emit(args, dumps_canonical(profile_to_dict(profile)))
    return 0


def _sweep_row(topo, part, model, config, report):
    result = simulate(topo, part, model, config)
    row = {
        "strategy": config.strategy,
        "seed": config.seed,
        "completed_iterations": result.completed_iterations,
        "first_dead": None if result.first_dead is None else node_key(result.first_dead),
        "cap_reached": result.cap_reached,
        "lower_iterations": report.t_max_lower_iterations,
        "upper_iterations": report.t_max_upper_iterations,
    }
    try:
        validate_against_bounds(result, report)
        row["violation"] = None
    except BoundViolation as exc:
        row["violation"] = str(exc)
    return row


def _parse_seeds(spec: str):
    seeds = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        try:
            if ".." in chunk:
                first, last = chunk.split("..", 1)
                seeds.extend(range(int(first), int(last) + 1))
            elif chunk:
                seeds.append(int(chunk))
        except ValueError:
            raise Error(f"bad seed {chunk!r} in {spec!r} (expected integers or a..b ranges)") from None
    if not seeds:
        raise Error(f"no seeds in {spec!r}")
    return seeds


def cmd_sweep(args) -> int:
    topo, part, model = _network(args)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        raise Error(f"no strategies in {args.strategies!r}")
    configs, report = _runs(args, part, model, product(strategies, _parse_seeds(args.seeds)))
    rows = [_sweep_row(topo, part, model, config, report) for config in configs]

    if args.format == "structured":
        _emit_document(args, "sweep", {"runs": rows})
    else:
        lines = []
        for r in rows:
            note = f"  VIOLATION: {r['violation']}" if r["violation"] else ""
            dead = r["first_dead"] if r["first_dead"] is not None else "none"
            lines.append(
                f"{r['strategy']:>20}  seed {r['seed']:<4} "
                f"iterations {r['completed_iterations']:<10} "
                f"bounds [{r['lower_iterations']}, {r['upper_iterations']}] "
                f"first dead {dead}{note}"
            )
        _emit(args, "\n".join(lines))
    return 1 if any(r["violation"] for r in rows) else 0


def _add_output_options(parser, formats=("structured", "table")):
    parser.add_argument("--format", choices=formats, default="table", help="output format")
    parser.add_argument("-o", "--output", help="write output to a file instead of stdout")


def _add_model_options(parser):
    parser.add_argument(
        "--profile",
        default="cc2420-paper",
        help="radio profile preset name or profile file (default: cc2420-paper)",
    )
    parser.add_argument(
        "--frame-preset",
        choices=sorted(FRAME_PRESETS),
        default=None,
        help="frame layout preset (default: paper-tinyos, or the profile file's frame)",
    )
    parser.add_argument("--payload", type=int, default=2, help="data payload bytes (default: 2)")
    parser.add_argument(
        "--battery", type=float, default=30780.0, help="per-node battery in joules (default: 30780)"
    )
    parser.add_argument(
        "--interval", type=float, default=10.0, help="seconds between iterations (default: 10)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnlife",
        description="Lifetime bounds and routing simulation for continuous 802.15.4 sensor networks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="layer a topology by hop distance from the base")
    p.add_argument("topology", help="topology file (or bundled fixture name)")
    _add_output_options(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("bounds", help="analytical lifetime bounds for a topology")
    p.add_argument("topology", help="topology file (or bundled fixture name)")
    _add_model_options(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="simulate routing and check it against the bounds")
    p.add_argument("topology", help="topology file (or bundled fixture name)")
    _add_model_options(p)
    p.add_argument("--strategy", choices=STRATEGIES, default="balanced-rotating")
    p.add_argument("--seed", type=int, default=0, help="tie-breaking seed (default: 0)")
    p.add_argument(
        "--max-iterations", type=int, default=10**9, help="iteration cap (default: 1e9)"
    )
    p.add_argument("--trace", help="also write a per-iteration energy trace CSV to this path")
    _add_output_options(p, formats=("structured", "table", "trace"))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="turn scope readings into a radio profile file")
    p.add_argument("readings", help="readings file")
    p.add_argument("--name", default="calibrated", help="name for the emitted profile")
    p.add_argument(
        "--round-like-paper",
        action="store_true",
        help="round derived values to two decimals (half-up) like published profiles",
    )
    p.add_argument("-o", "--output", help="profile file to write (default: print to stdout)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("sweep", help="run simulations over strategies and seeds")
    p.add_argument("topology", help="topology file (or bundled fixture name)")
    _add_model_options(p)
    p.add_argument(
        "--strategies",
        default=",".join(STRATEGIES),
        help="comma-separated strategies (default: all)",
    )
    p.add_argument("--seeds", default="0", help="comma list and/or ranges, e.g. 0,5,10..19")
    p.add_argument(
        "--max-iterations", type=int, default=10**9, help="iteration cap per run (default: 1e9)"
    )
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored: runs are serial")
    _add_output_options(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:  # stdout's reader has gone: write nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the final flush cannot fail
        return 141  # 128 + SIGPIPE
    except OSError as exc:  # a file named on the command line cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 1
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, not bad input: keep exit 1 for bound violations
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
