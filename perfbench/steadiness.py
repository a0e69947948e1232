"""Run the benchmark over several seeds and report its run-to-run spread.

    python3 perfbench/steadiness.py --workloads cold-gat,dse-flickr \\
        --seeds 1-10 [--seconds 30] [--json OUT]
    python3 perfbench/steadiness.py --render SET1.json SET2.json

For every workload and end-to-end metric it prints the per-run values,
their median and quartiles (``statistics.quantiles(values, n=4)``) and
the spread, the distance between the quartiles as a share of the
median. ``--render`` turns two such sets, run on the same code, into
the markdown record in ``STEADINESS.md``. The bounds in
``BENCHMARK.json`` are set from this record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0],
                "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def number(value: float) -> str:
    """Whole numbers in full (cycle counts are exact), others to 4 digits."""
    return str(int(value)) if float(value).is_integer() else f"{value:.4g}"


def render(paths: list[str]) -> str:
    """Markdown record of two (or more) sets of runs."""
    sets = [json.loads(Path(path).read_text()) for path in paths]
    lines = []
    for workload in sets[0]:
        lines += [f"### `{workload}`", "",
                  "| metric | set | median | q1 | q3 | spread | "
                  "median vs set 1 | per-run values |",
                  "| --- | --- | --- | --- | --- | --- | --- | --- |"]
        for name, first in sets[0][workload]["metrics"].items():
            for index, report in enumerate(sets, 1):
                entry = report[workload]["metrics"][name]
                shift = entry["median"] / first["median"] - 1
                values = ", ".join(number(v) for v in entry["values"])
                lines.append(
                    f"| `{name}` | {index} | {number(entry['median'])} | "
                    f"{number(entry['q1'])} | {number(entry['q3'])} | "
                    f"{entry['spread']:.1%} | {shift:+.1%} | {values} |")
        shares = [sorted(set(report[workload]["failed_share"]))
                  for report in sets]
        walls = [statistics.median(run["wall_s"]
                                   for run in report[workload]["runs"])
                 for report in sets]
        lines += ["", f"Failed share per set: {shares}. Median wall time "
                      f"of one run: "
                      + ", ".join(f"{wall:.1f} s" for wall in walls)
                  + ".", ""]
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--render", nargs="+", metavar="SET_JSON")
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--json")
    opts = parser.parse_args()
    if opts.render:
        print(render(opts.render))
        return 0
    if not opts.workloads:
        parser.error("--workloads or --render is required")
    report = {}
    for workload in opts.workloads.split(","):
        runs = [run_once(workload, seed, opts.seconds)
                for seed in seed_list(opts.seeds)]
        names = list(runs[0]["metrics"])
        rows = {name: [run["metrics"][name]["value"] for run in runs]
                for name in names}
        report[workload] = {
            "runs": runs,
            "failed_share": [run["failed"] / run["attempted"]
                             for run in runs],
            "metrics": {name: {"values": values, **spread(values)}
                        for name, values in rows.items()},
        }
        print(f"## {workload}  (wall per run: median "
              f"{statistics.median(run['wall_s'] for run in runs):.1f} s)")
        for name, entry in report[workload]["metrics"].items():
            print(f"  {name:12s} median {entry['median']:.6g}  "
                  f"q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  "
                  f"spread {entry['spread']:.2%}")
        sys.stdout.flush()
        if opts.json:
            Path(opts.json).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
