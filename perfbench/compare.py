#!/usr/bin/env python3
"""Compare two commits on one workload with alternating pairs.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR --workload fuzz-x86 [--pairs 10]

PARENT_DIR and CHANGE_DIR are two checkouts (each with this benchmark
and BENCHMARK.json at its root).  Pair i runs both sides with seed
SEED_BASE + i, the parent first in even pairs and the change first in
odd ones, each with the run length BENCHMARK.json fixes.  For every
end-to-end metric it prints each side's median and quartiles, how many
pairs the change won, and the verdicts of the method in README.md:

  gain        at least ten pairs, the change won at least 9/10 of them
              and the medians differ by more than the parent's own
              quartile spread;
  regression  the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  neither, while the parent's spread is wider than the bound
              and not every run of the change beat every run of the parent.
"""

import argparse
import json
import statistics
import subprocess


def run(checkout, bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: seed {seed} failed its correctness checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    a = ap.parse_args()
    bench = json.load(open(f"{a.parent}/BENCHMARK.json"))
    runs = {"parent": [], "change": []}
    for i in range(a.pairs):
        seed = a.seed_base + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run(getattr(a, side), bench, a.workload, seed))
        print(f"pair {i} seed {seed} done", flush=True)
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
        pm, cm = statistics.median(p), statistics.median(c)
        wins = sum(1 for x, y in zip(p, c) if (y < x if lower else y > x))
        worse = (cm - pm) / pm if lower else (pm - cm) / pm
        spread = pq[2] - pq[0]
        if a.pairs >= 10 and wins >= 0.9 * a.pairs and abs(cm - pm) > spread:
            verdict = "gain"
        elif worse > m["bound"]:
            verdict = "regression"
        elif spread / pm > m["bound"] and not all(
                (y < x if lower else y > x) for x in p for y in c):
            verdict = "unresolved"
        else:
            verdict = "no regression"
        print(f"{name:14s} parent {pm:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
              f"change {cm:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  "
              f"change won {wins}/{a.pairs}  {verdict}")


if __name__ == "__main__":
    main()
