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


def workload(root: Path, name: str) -> dict:
    runs = [last_json_line(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         name, "--seed", str(seed), "--seconds", str(SECONDS), "--trace",
         "0"]) for seed in SEEDS]
    metrics = {key: {"unit": value["unit"],
                     **spread([run["metrics"][key]["value"] for run in runs])}
               for key, value in runs[0]["metrics"].items()}
    return {"correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics}


def record(root: Path) -> dict:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(root / "src"),
                                           str(root / "tests"))))
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
        "workloads": {name: workload(root, name) for name in WORKLOADS},
        "core_timing": last_json_line(
            [sys.executable, str(root / "tests" / "core_timing.py")], env),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="the checkout to measure (default: this one)")
    args = parser.parse_args()
    records = (json.loads(args.output.read_text())
               if args.output.exists() else {})
    records[args.label] = record(args.root.resolve())
    args.output.write_text(json.dumps(records, indent=2) + "\n")
    print(json.dumps(records[args.label]))


if __name__ == "__main__":
    main()
