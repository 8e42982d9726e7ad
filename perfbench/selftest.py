#!/usr/bin/env python3
"""The benchmark's own tests: a tiny pass of every workload.

Run from the root of the repository:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, and fuzz-arm, it checks that
  - an untraced run prints every end-to-end metric with its unit,
    reports no failed operation and passes its own correctness checks;
  - two traced runs of one seed print every per-layer metric with its
    unit, their spans cover at least 90% of the timed wall time, and
    every count (unit "count" or "ratio") repeats exactly;
  - for the fuzz workloads, the digest equals the CLI's
    `k23 fuzz --seed <s> --iters <n> --json` output.
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

SEED = 7
SECONDS = "1"
OUT = "perfbench-out/selftest"


def fail(msg):
    print("FAIL:", msg)
    sys.exit(1)


def run(cmd, workload, trace):
    args = cmd + ["--workload", workload, "--seed", str(SEED), "--seconds", SECONDS,
                  "--trace", str(trace), "--out", OUT]
    p = subprocess.run(args, capture_output=True, text=True)
    if p.returncode != 0:
        fail(f"{workload} trace={trace}: exit {p.returncode}\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_metrics(result, wanted, what):
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            fail(f"{what}: metric {m['name']} missing")
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"{what}: {m['name']} has unit {got[m['name']]['unit']}, not {m['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        fail(f"{what}: unexpected metrics {sorted(extra)}")


def main():
    bench = json.load(open("BENCHMARK.json"))
    cmd = bench["command"]
    subprocess.run(["dune", "build", "--root", ".", "./bin/k23_cli.exe"], check=True)
    # fuzz-arm is not gated (README.md) but is kept runnable: test it too
    for name in [w["name"] for w in bench["workloads"]] + ["fuzz-arm"]:
        r = run(cmd, name, 0)
        check_metrics(r, bench["end_to_end"], f"{name} untraced")
        if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
            fail(f"{name}: correct={r['correct']} failed={r['failed']} attempted={r['attempted']}")
        if name.startswith("fuzz"):
            cli = ["dune", "exec", "--root", ".", "--no-print-directory", "--display", "quiet", "--",
                   "./bin/k23_cli.exe", "fuzz", "--seed", str(SEED), "--iters", "100", "--json"]
            if name == "fuzz-arm":
                cli += ["--isa", "arm"]
            expected = subprocess.run(cli, capture_output=True, text=True).stdout
            digest = open(os.path.join(OUT, f"{name}-seed{SEED}.digest")).read()
            if digest != expected:
                fail(f"{name}: digest differs from `k23 fuzz --json`")
        t1 = run(cmd, name, 1)
        t2 = run(cmd, name, 1)
        for t in (t1, t2):
            check_metrics(t, bench["per_layer"], f"{name} traced")
            if not t["correct"] or t["failed"] != 0:
                fail(f"{name} traced: correct={t['correct']} failed={t['failed']}")
            coverage = t["metrics"]["spans.coverage_pct"]["value"]
            if coverage < 90:
                fail(f"{name} traced: spans cover {coverage:.1f}% of the timed wall time, under 90%")
        for m in bench["per_layer"]:
            if m["unit"] not in ("count", "ratio"):
                continue
            a, b = t1["metrics"][m["name"]]["value"], t2["metrics"][m["name"]]["value"]
            if a != b:
                fail(f"{name}: {m['name']} differs across two traced runs ({a} vs {b})")
        print(f"ok {name}")
    print("all workloads ok")


if __name__ == "__main__":
    main()
