"""One benchmark process: a cold op or a search round.

``run.py`` starts each of these in a fresh interpreter, so nothing the
program memoizes in-process carries from one to the next::

    python3 perfbench/worker.py ROLE '<json arguments>'

The last line of standard output is the role's result as one JSON
object. ``ready`` in a result is the ``time.monotonic()`` reading at
the start of the first timed op; the parent subtracts its own reading
taken just before it started the process, which gives the set-up time
(the clock is shared by every process of the host).
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import checks
from tracer import NullRecorder, SpanRecorder, instrument

#: Hidden dimension of every workload's network (the program default).
HIDDEN_DIM = 16


def peak_rss_mb() -> float:
    """VmHWM (peak resident set) of this process, in MB (10**6 bytes)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM for this process")


def recorder_for(trace: bool) -> SpanRecorder | NullRecorder:
    if not trace:
        return NullRecorder()
    recorder = SpanRecorder()
    instrument(recorder)
    return recorder


def hardware_summary(results) -> dict:
    """Exact modelled-hardware totals over distinct simulated programs."""
    return {
        "sim_cycles": sum(r.cycles for r in results),
        "program_ops": sum(r.num_operations for r in results),
        "dense_busy_cycles": sum(r.unit_busy_cycles.get("dense.compute", 0)
                                 for r in results),
        "graph_busy_cycles": sum(r.unit_busy_cycles.get("graph.compute", 0)
                                 for r in results),
        "dram_bytes": sum(r.total_dram_bytes for r in results),
        "dram_busy_cycles": sum(r.dram_busy_cycles for r in results),
    }


def result_checks(label: str, result, bytes_per_cycle: float) -> list[str]:
    return (checks.check_dram_bound(label, result.cycles,
                                    result.total_dram_bytes,
                                    bytes_per_cycle)
            + checks.check_busy(label, result.cycles,
                                result.unit_busy_cycles))


def prepare(args: dict) -> dict:
    """Fill the dataset disk cache (untimed; a no-op once it is warm)."""
    from repro import load_dataset

    for name in args["datasets"]:
        load_dataset(name)
    return {"prepared": args["datasets"]}


# ---------------------------------------------------------------------
# cold-gat
# ---------------------------------------------------------------------
def cold_op(args: dict) -> dict:
    """Load, compile, store and simulate one workload from cold."""
    from repro import GNNerator, load_dataset
    from repro.compiler.lowering import full_lowering_count
    from repro.compiler.store import ProgramStore
    from repro.config.platforms import gnnerator_config
    from repro.config.workload import WorkloadSpec
    from repro.eval.harness import Harness

    recorder = recorder_for(args["trace"])
    store_dir = Path(args["store"])
    shutil.rmtree(store_dir, ignore_errors=True)
    harness = Harness(seed=args["seed"],
                      program_store=ProgramStore(store_dir))
    spec = WorkloadSpec(dataset=args["dataset"], network=args["network"],
                        hidden_dim=HIDDEN_DIM)
    config = gnnerator_config(feature_block=spec.feature_block)
    lowerings = full_lowering_count()
    ready = time.monotonic()
    with recorder.span("op"):
        with recorder.span("graph.load"):
            load_dataset(spec.dataset)
        program = harness.gnnerator_program(spec)
        result = GNNerator(config).simulate(program)
    op_s = time.monotonic() - ready
    recorder.stop()
    if args["trace"]:
        recorder.write(args["spans_out"])
    entry_bytes = sum(path.stat().st_size
                      for path in store_dir.rglob("*.pkl"))
    shutil.rmtree(store_dir, ignore_errors=True)
    return {
        "ready": ready,
        "op_s": op_s,
        "peak_rss_mb": peak_rss_mb(),
        "full_lowerings": full_lowering_count() - lowerings,
        "store_entry_bytes": entry_bytes,
        "hardware": hardware_summary([result]),
        "violations": result_checks(spec.label, result,
                                    config.dram.bytes_per_cycle),
        "layers": recorder.self_times(),
    }


def cold_check(args: dict) -> dict:
    """Untimed: the compiled program's values against the reference."""
    from repro import GNNerator, reference_forward, run_functional
    from repro.config.platforms import gnnerator_config
    from repro.config.workload import WorkloadSpec
    from repro.eval.harness import Harness

    harness = Harness(seed=args["seed"], program_store=None)
    spec = WorkloadSpec(dataset=args["dataset"], network=args["network"],
                        hidden_dim=HIDDEN_DIM)
    graph = harness.graph(spec.dataset)
    program = harness.gnnerator_program(spec)
    actual = run_functional(program, graph)
    expected = reference_forward(harness.model(spec), graph,
                                 harness.params(spec))
    config = gnnerator_config(feature_block=spec.feature_block)
    result = GNNerator(config).simulate(program)
    return {
        "cycles": result.cycles,
        "violations": checks.check_values(spec.label, actual, expected),
    }


# ---------------------------------------------------------------------
# dse-flickr
# ---------------------------------------------------------------------
def dse_round(args: dict) -> dict:
    """One seeded random search, timed candidate by candidate."""
    from repro import load_dataset
    from repro.compiler.lowering import full_lowering_count
    from repro.config.workload import WorkloadSpec
    from repro.dse import SPACE_PRESETS, DseEngine, RandomSearch
    from repro.eval.harness import Harness
    from repro.sweep import SweepRunner
    from repro.sweep.runner import run_point

    class TimedInline:
        """The in-process (``--jobs 1``) scheduler, one op per point."""

        name = "inline"

        def __init__(self, harness) -> None:
            self.harness = harness
            self.op_s: list[float] = []

        def run(self, points):
            out = []
            for point in points:
                start = time.monotonic()
                with recorder.span("op"):
                    out.append(run_point(point, self.harness))
                self.op_s.append(time.monotonic() - start)
            return out

    recorder = recorder_for(args["trace"])
    load_dataset(args["dataset"])
    spec = WorkloadSpec(dataset=args["dataset"], network=args["network"],
                        hidden_dim=HIDDEN_DIM)
    space = SPACE_PRESETS["default"]()
    harness = Harness(seed=args["seed"], program_store=None)
    scheduler = TimedInline(harness)
    engine = DseEngine(space, RandomSearch(samples=args["samples"],
                                           seed=args["search_seed"]),
                       [spec], SweepRunner(jobs=1, scheduler=scheduler),
                       seed=args["seed"])
    lowerings = full_lowering_count()
    ready = time.monotonic()
    search = engine.run()
    round_s = time.monotonic() - ready
    recorder.stop()
    if args["trace"]:
        recorder.write(args["spans_out"])
    lowerings = full_lowering_count() - lowerings

    violations: list[str] = []
    results = []
    failed = 0
    for evaluation in search.evaluations:
        if not evaluation.ok:
            failed += 1
            continue
        config = space.config_for(evaluation.overrides)
        result = harness.gnnerator_result(spec, config)
        found = (result_checks(evaluation.label, result,
                               config.dram.bytes_per_cycle)
                 + checks.check_same(evaluation.label, "cycles",
                                     evaluation.objectives["cycles"],
                                     result.cycles)
                 + checks.check_same(
                     evaluation.label, "DRAM bytes",
                     evaluation.objectives["total_dram_bytes"],
                     result.total_dram_bytes))
        if found:
            failed += 1
            violations.extend(found)
        results.append(result)
    rows = {e.label: (e.objectives["cycles"], e.objectives["area_mm2"],
                      e.objectives["energy_pj"])
            for e in search.evaluations if e.feasible}
    violations.extend(checks.check_frontier(
        rows, [e.label for e in search.frontier]))
    return {
        "ready": ready,
        "round_s": round_s,
        "op_s": scheduler.op_s,
        "attempted": len(search.evaluations),
        "failed": failed,
        "peak_rss_mb": peak_rss_mb(),
        "full_lowerings": lowerings,
        "hardware": hardware_summary(results),
        "violations": violations,
        "layers": recorder.self_times(),
    }


ROLES = {
    "prepare": prepare,
    "cold-op": cold_op,
    "cold-check": cold_check,
    "dse-round": dse_round,
}


if __name__ == "__main__":
    role, raw = sys.argv[1], sys.argv[2]
    print(json.dumps(ROLES[role](json.loads(raw))), flush=True)
