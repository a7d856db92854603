"""Record the benchmark of one checkout in a BENCH_*.json file.

For each of the three workloads of perfbench/run.py (poly-search,
rational-fit and cli-maxtimes) this runs the checkout's own, unchanged
perfbench/run.py with --trace 0 at each of SEEDS, and reads the JSON line
that each run prints last. It also runs the checkout's
tests/core_timing.py. The record holds, per workload, the median and the
quartiles of each metric over the seeds, whether every run was correct,
and the attempted and failed call counts; beside them the core_timing
line, the line and code-line counts of the checkout's src/tropfit, the
Python and numpy versions, and whether PYTHONDONTWRITEBYTECODE was set
(it moves setup_s, which is mostly import time).

The record goes into the output file under a label, beside the records
already there, so one file can hold a parent commit and a change measured
on one machine:

    python tests/bench_record.py --label parent --root ../parent BENCH_36.json
    python tests/bench_record.py --label change BENCH_36.json

With --base DIR it records the checkout at DIR as parent and this one
(or --root) as change, interleaved: each (workload, seed) runs at both,
the side that runs first alternating from seed to seed, so that a drift
of the machine reaches both alike, and the core timing is
tests/core_timing.py --base DIR, whose per-side medians go into each
record and whose ratios go into the change's:

    python tests/bench_record.py --base ../parent BENCH_37.json

There is no threshold. pytest does not collect this file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from code_lines import code_lines

WORKLOADS = ("poly-search", "rational-fit", "cli-maxtimes")
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 5.0


def last_json_line(command: list[str], env: dict | None = None) -> dict:
    """The JSON object that command prints on its last line."""
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        sys.exit(f"{' '.join(command)} exited {done.returncode}:\n"
                 f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles, the inclusive method (the data's own range)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def benchmark(root: Path, name: str, seed: int) -> dict:
    """The JSON line of one run of root's perfbench/run.py."""
    return last_json_line(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         name, "--seed", str(seed), "--seconds", str(SECONDS), "--trace",
         "0"])


def workload(runs: list[dict]) -> dict:
    """The summary of one workload's runs over the seeds."""
    metrics = {key: {"unit": value["unit"],
                     **spread([run["metrics"][key]["value"] for run in runs])}
               for key, value in runs[0]["metrics"].items()}
    return {"correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics}


def core_timing(root: Path, *flags: str) -> dict:
    """The JSON line of root's tests/core_timing.py, run on root's src/."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(root / "src"),
                                           str(root / "tests"))))
    return last_json_line(
        [sys.executable, str(root / "tests" / "core_timing.py"), *flags], env)


def record(root: Path, runs: dict, timing: dict) -> dict:
    """The record of root, from its runs per workload and its timing."""
    sources = sorted((root / "src" / "tropfit").glob("*.py"))
    texts = [path.read_text(encoding="utf-8") for path in sources]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get(
            "PYTHONDONTWRITEBYTECODE")),
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "src_lines": sum(text.count("\n") for text in texts),
        "src_code_lines": sum(map(code_lines, texts)),
        "workloads": {name: workload(runs[name]) for name in WORKLOADS},
        "core_timing": timing,
    }


def interleaved(base: Path, root: Path) -> dict:
    """Records of base (parent) and root (change), run alternately."""
    checkouts = {"parent": base, "change": root}
    runs = {label: {name: [] for name in WORKLOADS} for label in checkouts}
    for name in WORKLOADS:
        for i, seed in enumerate(SEEDS):
            for label in (("parent", "change"), ("change", "parent"))[i % 2]:
                runs[label][name].append(
                    benchmark(checkouts[label], name, seed))
    timing = core_timing(root, "--base", str(base))
    records = {label: record(checkout, runs[label], timing[side])
               for (label, checkout), side in zip(checkouts.items(),
                                                  ("base", "change"))}
    records["change"]["core_timing_ratios"] = {
        key: value for key, value in timing.items() if key.endswith("ratio")}
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", type=Path)
    parser.add_argument("--label", help="required without --base")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="the checkout to measure (default: this one)")
    parser.add_argument("--base", type=Path,
                        help="a checkout to record as parent, interleaved")
    args = parser.parse_args()
    records = (json.loads(args.output.read_text())
               if args.output.exists() else {})
    root = args.root.resolve()
    if args.base is not None:
        new = interleaved(args.base.resolve(), root)
    elif args.label:
        new = {args.label: record(root, {name: [
            benchmark(root, name, seed) for seed in SEEDS]
            for name in WORKLOADS}, core_timing(root))}
    else:
        parser.error("--label is required without --base")
    records.update(new)
    args.output.write_text(json.dumps(records, indent=2) + "\n")
    for entry in new.values():
        print(json.dumps(entry))


if __name__ == "__main__":
    main()
