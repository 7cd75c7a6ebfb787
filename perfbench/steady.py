#!/usr/bin/env python3
"""Check that the benchmark is steady: run one workload over several seeds
and report, per end-to-end metric, the median and the spread (interquartile
range as a share of the median) next to the bound in BENCHMARK.json.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload serve --seeds 10 [--first-seed 1]
    python3 perfbench/steady.py --from runs.jsonl   # re-read saved results

Each result line is also appended to --save (default: none) so a set of
runs can be re-read later.  Exits non-zero when any spread, that of setup_s
included, exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUN = ["python3", "perfbench/run.py"]


def spreads(results, metrics):
    rows = []
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        rows.append((m, med, (q3 - q1) / med if med else float("inf")))
    return rows


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--from", dest="source")
    p.add_argument("--save")
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.source:
        with open(args.source) as f:
            results = [json.loads(line) for line in f if line.strip()]
    else:
        if not args.workload:
            p.error("--workload or --from is required")
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = RUN + ["--workload", args.workload, "--seed", str(seed),
                         "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            line = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  check=True).stdout.decode().strip().splitlines()[-1]
            results.append(json.loads(line))
            if args.save:
                with open(args.save, "a") as f:
                    f.write(line + "\n")
    bad = [r for r in results if not r["correct"]]
    ok = not bad
    print(f"{len(results)} runs, {len(bad)} incorrect")
    for m, med, spread in spreads(results, spec["end_to_end"]):
        within = spread <= m["bound"]
        ok &= within
        flag = "" if spread < m["bound"] / 3 else ("  above a third of the bound" if within else "  ABOVE BOUND")
        print(f"  {m['name']:<24} median {med:>14.4f} {m['unit']:<6} spread {spread:7.4f}"
              f"  bound {m['bound']}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
