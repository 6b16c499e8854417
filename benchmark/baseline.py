"""Measures the benchmark's spread the way a regression check does.

Runs the command in BENCHMARK.json once per seed on each workload (with
--trace 0, for run_seconds), then reports for every end-to-end metric the
median, the quartiles from statistics.quantiles(values, n=4), and the spread
(q3 - q1) / median next to the metric's bound. Run from the repository root:

    python3 benchmark/baseline.py --seeds 1-10 --out set-a.json
    python3 benchmark/baseline.py --seeds 1-10 --workloads ldbc-serial

--out keeps the host line, every run's result line and rep count, and the
summary, so sets taken at different times can be compared.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--out", help="write the runs and the summary here as JSON")
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    host, runs, summary = None, {}, {}
    for name in names:
        runs[name] = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            if not last["correct"] or last["failed"]:
                sys.exit(f"{name} seed {seed}: incorrect or failed operations: {last}")
            host = host or re.sub(r"^# workload=\S+ seed=\S+ ", "", lines[0])
            reps = next(int(m.group(1)) for m in map(re.compile(r"^elements_per_s .* median of (\d+)").match, lines) if m)
            runs[name].append({"seed": seed, "reps": reps, **last})
            print(name, seed, reps, {k: round(v["value"], 4) for k, v in last["metrics"].items()}, flush=True)
        summary[name] = {"reps_median": statistics.median(r["reps"] for r in runs[name])}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[name]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[name][m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "spread": spread}
            flag = "" if spread < m["bound"] / 3 else ("  over bound/3" if spread <= m["bound"] else "  OVER BOUND")
            print(f"  {name:26s} {m['name']:18s} median {med:14.4f} spread {spread:.4f} "
                  f"(bound {m['bound']}){flag}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"host": host, "command": bench["command"], "run_seconds": bench["run_seconds"],
                       "seeds": args.seeds, "runs": runs, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
