"""The repo's benchmark: compile -> simulate, from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--quick]

Runs one workload, checks the program's outputs and prints, as the last
line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the workload runs twice, untraced and then traced, and the
metrics are the per-layer ones taken from the traced pass plus the
tracing overhead. ``--quick`` swaps every dataset for ``tiny``, so both
workloads run end to end in seconds. Every op runs in a fresh
process started from here (see ``worker.py``); the workloads never run
two at once. Exit codes: 0 when every check held, 1 when a check was
violated (the JSON line is still printed), 2 when the benchmark could
not run.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: The random search every ``dse-flickr`` round runs. It is fixed, not
#: drawn from ``--seed``: which candidates share shard grids and
#: programs decides the op times, so another draw is another workload.
#: ``--seed`` seeds the network parameters, which no timing reads.
DSE_SEARCH_SEED = 0
DSE_SAMPLES = 32

#: No new round starts this long after the run began, whatever
#: ``--seconds`` says, so one run stays well inside three minutes.
ROUND_START_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 170.0

#: Per-layer metrics that are layer self time per timed op.
LAYER_TIMES = ("graph.load", "graph.partition", "compiler.lower",
               "sim.plan", "sim.replay", "eval.energy")


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not an output check)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env["REPRO_DATASET_CACHE"] = str(WORK / "datasets")
    env["REPRO_PROGRAM_CACHE"] = "off"
    env.pop("REPRO_VERIFY", None)
    return env


def spawn(role: str, args: dict) -> tuple[dict, float]:
    """Run one worker process; returns its result and its start time."""
    command = [sys.executable, str(HERE / "worker.py"), role,
               json.dumps(args)]
    started = time.monotonic()
    # A session of its own, so a worker that hangs is stopped together
    # with any process it started.
    proc = subprocess.Popen(command, env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{role} timed out after {CHILD_TIMEOUT_S}s"
                             ) from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{role} exited {proc.returncode}:\n"
                             f"{stderr[-4000:]}")
    return json.loads(lines[-1]), started


def merge_layers(into: dict, layers: dict) -> None:
    for name, entry in layers.items():
        total = into.setdefault(name, {"self_s": 0.0, "calls": 0})
        total["self_s"] += entry["self_s"]
        total["calls"] += entry["calls"]


def new_measurement() -> dict:
    return {"setup_s": [], "op_s": [], "timed_s": 0.0, "attempted": 0,
            "failed": 0, "peak_rss_mb": [], "hardware": None,
            "violations": [], "layers": {}, "full_lowerings": 0,
            "store_entry_bytes": 0.0}


def same_hardware(measured: dict, hardware: dict) -> None:
    """Every round simulates the same programs: the totals must agree."""
    if measured["hardware"] is None:
        measured["hardware"] = hardware
    elif hardware != measured["hardware"]:
        measured["violations"].append(
            f"simulated hardware differs between rounds: {hardware} != "
            f"{measured['hardware']}")


def cold_gat(opts, trace: bool, run_start: float) -> dict:
    """Each op loads, compiles, stores and simulates GAT in a new
    process, against an empty private program store."""
    dataset = "tiny" if opts.quick else "flickr"
    measured = new_measurement()
    while (sum(measured["op_s"]) < opts.seconds
           and time.monotonic() - run_start < ROUND_START_LIMIT_S):
        index = len(measured["op_s"])
        result, started = spawn("cold-op", {
            "dataset": dataset, "network": "gat", "seed": opts.seed,
            "store": str(WORK / "cold-store"), "trace": trace,
            "spans_out": str(WORK / "spans" /
                             f"cold-gat-{opts.seed}-{index}.json")})
        measured["setup_s"].append(result["ready"] - started)
        measured["op_s"].append(result["op_s"])
        measured["attempted"] += 1
        measured["failed"] += bool(result["violations"])
        measured["violations"] += result["violations"]
        measured["peak_rss_mb"].append(result["peak_rss_mb"])
        measured["full_lowerings"] += result["full_lowerings"]
        measured["store_entry_bytes"] = result["store_entry_bytes"]
        merge_layers(measured["layers"], result["layers"])
        same_hardware(measured, result["hardware"])
    measured["timed_s"] = sum(measured["op_s"])
    return measured


def cold_gat_check(opts, measured: dict) -> None:
    """Once per run, untimed: values against the reference forward."""
    dataset = "tiny" if opts.quick else "flickr"
    result, _ = spawn("cold-check", {"dataset": dataset, "network": "gat",
                                     "seed": opts.seed})
    measured["violations"] += result["violations"]
    if result["cycles"] != measured["hardware"]["sim_cycles"]:
        measured["violations"].append(
            f"store-off compile gives {result['cycles']} cycles, the "
            f"timed ops {measured['hardware']['sim_cycles']}")


def dse_flickr(opts, trace: bool, run_start: float) -> dict:
    """Rounds of a seeded random search, each in a new process."""
    measured = new_measurement()
    rounds = 0
    while (measured["timed_s"] < opts.seconds
           and time.monotonic() - run_start < ROUND_START_LIMIT_S):
        result, started = spawn("dse-round", {
            "dataset": "tiny" if opts.quick else "flickr",
            "network": "gcn",
            "samples": 8 if opts.quick else DSE_SAMPLES,
            "search_seed": DSE_SEARCH_SEED, "seed": opts.seed,
            "trace": trace,
            "spans_out": str(WORK / "spans" /
                             f"dse-flickr-{opts.seed}-{rounds}.json")})
        rounds += 1
        measured["setup_s"].append(result["ready"] - started)
        measured["op_s"] += result["op_s"]
        measured["timed_s"] += result["round_s"]
        measured["attempted"] += result["attempted"]
        measured["failed"] += result["failed"]
        measured["violations"] += result["violations"]
        measured["peak_rss_mb"].append(result["peak_rss_mb"])
        measured["full_lowerings"] += result["full_lowerings"]
        merge_layers(measured["layers"], result["layers"])
        same_hardware(measured, result["hardware"])
    return measured


WORKLOADS = {
    "cold-gat": cold_gat,
    "dse-flickr": dse_flickr,
}

PREPARE = {
    "cold-gat": ["flickr"],
    "dse-flickr": ["flickr"],
}


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values.

    Used for the op time instead of the median: ``dse-flickr``'s
    candidate times spread from 20 to 800 ms with gaps between them, so
    the median jumped between neighbouring candidates from run to run,
    while the mean of the middle half moves with all of them.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def op_ms(measured: dict) -> float:
    return interquartile_mean(measured["op_s"]) * 1e3


def end_to_end(measured: dict) -> dict:
    completed = measured["attempted"] - measured["failed"]
    return {
        "setup_s": (statistics.median(measured["setup_s"]), "s"),
        "op_ms": (op_ms(measured), "ms"),
        "ops_per_s": (completed / measured["timed_s"], "1/s"),
        "peak_rss_mb": (statistics.median(measured["peak_rss_mb"]), "MB"),
        "sim_cycles": (measured["hardware"]["sim_cycles"], "cycles"),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    ops = len(traced["op_s"])
    layers = traced["layers"]

    def self_ms(name: str) -> float:
        return layers.get(name, {"self_s": 0.0})["self_s"] / ops * 1e3

    put = layers.get("compiler.store_put", {"self_s": 0.0, "calls": 0})
    hardware = traced["hardware"]
    metrics = {f"{name}_ms": (self_ms(name), "ms") for name in LAYER_TIMES}
    metrics.update({
        "compiler.full_lowerings": (traced["full_lowerings"] / ops,
                                    "count"),
        "compiler.program_ops": (hardware["program_ops"], "count"),
        "compiler.store_put_ms": (put["self_s"] / put["calls"] * 1e3
                                  if put["calls"] else 0.0, "ms"),
        "compiler.store_entry_mb": (traced["store_entry_bytes"] / 1e6,
                                    "MB"),
        "engines.dense_busy_cycles": (hardware["dense_busy_cycles"],
                                      "cycles"),
        "engines.graph_busy_cycles": (hardware["graph_busy_cycles"],
                                      "cycles"),
        "sim.dram_mb": (hardware["dram_bytes"] / 1e6, "MB"),
        "sim.dram_busy_cycles": (hardware["dram_busy_cycles"], "cycles"),
        "trace.op_ms": (op_ms(traced), "ms"),
        "trace.overhead_ms": (op_ms(traced) - op_ms(untraced), "ms"),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compile -> simulate benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="use the tiny dataset everywhere")
    opts = parser.parse_args(argv)
    run_start = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[opts.workload]
    try:
        spawn("prepare", {"datasets": ["tiny"] if opts.quick
                          else PREPARE[opts.workload]})
        measured = workload(opts, False, run_start)
        runs = [measured]
        if opts.trace:
            runs.append(workload(opts, True, run_start))
        if opts.workload == "cold-gat":
            cold_gat_check(opts, measured)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    metrics = (per_layer(runs[1], runs[0]) if opts.trace
               else end_to_end(measured))
    violations = [problem for run in runs for problem in run["violations"]]
    for problem in violations[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not violations,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
