"""Record sets of benchmark runs in ``baseline.json`` and summarise them.

    python3 bench/baseline.py --set first [--seeds 101-110] [--traced-seed 101]
    python3 bench/baseline.py --summarise

Run from the repository root.  ``--set NAME`` runs ``run.py`` once per
workload and seed, as a separate process, the way the benchmark is driven,
and keeps each run's description and result lines under ``sets[NAME]``
(replacing an earlier set of that name).  ``--traced-seed`` adds one
``--trace 1`` run per workload.  Every call rebuilds ``summary`` from the
kept lines: per set and workload, the runs' ``correct`` and failures, and
for each end-to-end metric its median, quartiles and spread (the gap
between the quartiles as a share of the median); and per later set, how far
each median moved from the first set's, in the worse direction, as a share
of the first, and the seeds both sets ran whose attempted or failed counts
differ between them.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = HERE / "baseline.json"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "program_git_sha": _git_sha(),
            "run_seconds": SPEC["run_seconds"]}


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"baseline: {' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "about": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def _quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def summarise(data: dict) -> dict:
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    summary = {}
    for name, record in data["sets"].items():
        per_workload = {}
        for w in (w["name"] for w in SPEC["workloads"]):
            runs = [r for r in record["runs"] if r["workload"] == w and r["trace"] == 0]
            if not runs:
                continue
            failures: dict[str, int] = {}
            for r in runs:
                for kind, count in r["about"]["failures"].items():
                    failures[kind] = failures.get(kind, 0) + count
            entry = {
                "seeds": [r["seed"] for r in runs],
                "per_seed": {str(r["seed"]): [r["result"]["attempted"], r["result"]["failed"]]
                             for r in runs},
                "correct": all(r["result"]["correct"] for r in runs),
                "attempted": sum(r["result"]["attempted"] for r in runs),
                "failed": sum(r["result"]["failed"] for r in runs),
                "failures": failures,
                "metrics": {},
            }
            for m, spec in metrics.items():
                values = [r["result"]["metrics"][m]["value"] for r in runs]
                entry["metrics"][m] = {**(_quartiles(values) if len(values) > 1 else
                                          {"median": values[0]}), "bound": spec["bound"]}
            per_workload[w] = entry
        summary[name] = per_workload
    names = list(summary)
    for later in names[1:]:
        for w, entry in summary[later].items():
            first = summary[names[0]].get(w)
            if first is None:
                continue
            entry[f"seeds_disagreeing_with_{names[0]}"] = sorted(
                (int(seed) for seed, counts in entry["per_seed"].items()
                 if first["per_seed"].get(seed, counts) != counts))
            for m, cell in entry["metrics"].items():
                was, now = first["metrics"][m]["median"], cell["median"]
                worse = (now - was) / was if metrics[m]["better"] == "lower" else (was - now) / was
                cell[f"worse_than_{names[0]}"] = worse
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", help="name of the set of runs to record")
    parser.add_argument("--seeds", default="101-110", help="a seed or a range lo-hi")
    parser.add_argument("--traced-seed", type=int, help="add one --trace 1 run per workload")
    parser.add_argument("--summarise", action="store_true", help="only rebuild the summary")
    args = parser.parse_args(argv)
    data = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else {}
    data.setdefault("sets", {})
    if args.set:
        record = {"started": datetime.datetime.now(datetime.timezone.utc).isoformat(
                      timespec="seconds"),
                  "environment": environment(), "runs": []}
        data["sets"][args.set] = record
        plan = [(w["name"], s, 0) for s in _seeds(args.seeds) for w in SPEC["workloads"]]
        if args.traced_seed is not None:
            plan += [(w["name"], args.traced_seed, 1) for w in SPEC["workloads"]]
        for workload, seed, trace in plan:
            run = one_run(workload, seed, trace)
            record["runs"].append(run)
            print(workload, seed, trace, json.dumps(run["result"])[:300], flush=True)
            OUT.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        record["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds")
    data["summary"] = summarise(data)
    OUT.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
