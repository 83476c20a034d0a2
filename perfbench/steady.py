#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--runs N] [--log FILE]

Runs N runs of set A and N of set B for each workload in
BENCHMARK.json, alternating A, B, A, B so that slow drift of the host
lands on both sets alike. Each run gets its own seed (set A: 1..N,
set B: 101..100+N). For every end-to-end metric it prints both
medians, each set's quartile spread (Q3 - Q1 over the median, as
statistics.quantiles(values, n=4) gives them), and whether the sets
agree: neither spread beyond the metric's bound and the two medians
apart by no more than the bound, in either direction. It also prints
the failed share of each set and the host-speed reference the runs
print, so that a drift of the host can be told apart from a change to
the program. --log FILE appends every run's full output to FILE.
Exits 1 if any metric disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, log):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if log:
        log.write(proc.stdout)
        log.flush()
    if proc.returncode != 0 or not lines:
        raise SystemExit("steady.py: %s seed %d exited %d" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    host = [l.split() for l in lines if l.strip().startswith("host_ref_ms")]
    ref = (float(host[0][2]), float(host[0][4])) if host else (float("nan"), float("nan"))
    return result, ref


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def gap(a, b):
    """How far apart two medians are, as a share of the first."""
    if a == b:
        return 0.0
    return abs(b - a) / a if a else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--log", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    log = open(args.log, "a") if args.log else None
    all_agree = True
    for name in names:
        sets = {"A": [], "B": []}
        refs = {"A": [], "B": []}
        for i in range(args.runs):
            for label, base in (("A", 1), ("B", 101)):
                result, ref = run_once(name, base + i, seconds, log)
                sets[label].append(result)
                refs[label].append(ref)
                print("%s %s seed %d: %s  host_ref %.1f/%.1f ms" % (
                    name, label, base + i,
                    " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()),
                    ref[0], ref[1]), flush=True)
        print("== %s (%d + %d runs of %d s)" % (name, args.runs, args.runs, seconds))
        for metric in bench["end_to_end"]:
            m = metric["name"]
            va = [r["metrics"][m]["value"] for r in sets["A"]]
            vb = [r["metrics"][m]["value"] for r in sets["B"]]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            bound = metric["bound"]
            ok = gap(ma, mb) <= bound and sa <= bound and sb <= bound
            all_agree = all_agree and ok
            print("  %-24s A %12.4f  B %12.4f %-5s  spread A %6.3f B %6.3f  bound %.2f  %s" % (
                m, ma, mb, metric["unit"], sa, sb, bound, "agree" if ok else "DISAGREE"))
        for label in ("A", "B"):
            att = sum(r["attempted"] for r in sets[label])
            fail = sum(r["failed"] for r in sets[label])
            print("  set %s: failed %d of %d attempted; correct in %d of %d runs; host_ref %s ms" % (
                label, fail, att, sum(r["correct"] for r in sets[label]), len(sets[label]),
                " ".join("%.1f/%.1f" % x for x in refs[label])))
    sys.exit(0 if all_agree else 1)


if __name__ == "__main__":
    main()
