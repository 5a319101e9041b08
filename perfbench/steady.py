#!/usr/bin/env python3
"""Check that the benchmark repeats: run sets of seeded runs of one revision
and print each end-to-end metric's spread and drift against its bound.

Run from the root of a checkout:

    python3 perfbench/steady.py                      # 2 sets x 10 seeds, every workload
    python3 perfbench/steady.py --sets 1 --runs 5 --workloads http-facade

Each run lasts the spec's run_seconds. The first set uses seeds 1 to
--runs, the second the next --runs seeds, and so on. A metric's spread is
the distance between the first and third quartile of its values in a set
(statistics.quantiles, n=4) as a share of their median; it must stay within
the metric's bound from BENCHMARK.json.
Between sets, the later median must not be worse than the first by more than
the bound, and the share of failed operations must be identical. Exits 1 if
any of these fail.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"steady: {workload} seed {seed} exited {out.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"steady: {workload} seed {seed} failed its output checks")
    return res


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--spec", default="BENCHMARK.json")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10, help="runs (seeds) per set")
    ap.add_argument("-v", action="store_true", help="print every run's result line")
    args = ap.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    ok = True
    for name in names:
        sets = []
        for k in range(args.sets):
            seeds = range(k * args.runs + 1, (k + 1) * args.runs + 1)
            runs = [run_once(name, s, seconds) for s in seeds]
            if args.v:
                for s, r in zip(seeds, runs):
                    print(f"  seed {s}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(r["metrics"].items())))
            sets.append(runs)
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            print(f"{name} set {k + 1}: seeds {seeds.start}-{seeds.stop - 1}, failed share {shares}")
        print(f"{'metric':<18} {'unit':<13} {'bound':>6} " +
              " ".join(f"{'median' + str(k + 1):>14} {'spread' + str(k + 1):>8}" for k in range(args.sets)) +
              f" {'drift':>8}  verdict")
        for m in spec["end_to_end"]:
            meds, spreads = [], []
            for runs in sets:
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                meds.append(statistics.median(vals))
                spreads.append(spread(vals) if len(vals) >= 2 else 0.0)
            sign = 1 if m["better"] == "lower" else -1
            drift = max(sign * (x - meds[0]) / meds[0] for x in meds) if meds[0] else 0.0
            bad = [why for why, hit in (("spread", max(spreads) > m["bound"]),
                                        ("drift", drift > m["bound"])) if hit]
            if bad:
                verdict, ok = "FAIL " + ",".join(bad), False
            elif max(spreads) > m["bound"] / 3:
                verdict = "warn: spread above a third of the bound"
            else:
                verdict = "ok"
            print(f"{m['name']:<18} {m['unit']:<13} {m['bound']:>6.3f} " +
                  " ".join(f"{med:>14.6g} {s:>8.4f}" for med, s in zip(meds, spreads)) +
                  f" {drift:>8.4f}  {verdict}")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) > 1:
            print(f"{name}: FAIL failed share differs between runs: {sorted(shares)}")
            ok = False
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
