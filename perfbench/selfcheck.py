#!/usr/bin/env python3
"""Run the benchmark in BENCHMARK.json as two independent sets and report,
per workload and end-to-end metric, whether the sets agree within the
metric's bound.

Run from the repository root:

    python3 perfbench/selfcheck.py                   # 2 sets x 10 seeds
    python3 perfbench/selfcheck.py --sets 1 --runs 5 --workloads serve-rw
    python3 perfbench/selfcheck.py --trace           # one traced run each

For each set it runs every workload once per seed (set k uses seeds
k*1000+1 .. k*1000+runs) and takes, per metric, the median and the spread:
the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A metric is
"steady" when its spread is below a third of its bound, "unresolved" when
the spread exceeds the bound, and two sets "agree" when the second
median is not worse than the first by more than the bound. setup_s is
judged on agreement alone.

Exits 1 on a harness error (a run that fails, prints no result line, or
reports metrics other than the declared ones) and 0 otherwise; the
verdicts are in the report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, trace, log):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    t = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=900)
    took = time.time() - t
    log.write(f"$ {' '.join(cmd)}  ({took:.1f} s, exit {proc.returncode})\n{proc.stdout}{proc.stderr}\n")
    log.flush()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output")
    result = json.loads(lines[-1])
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise RuntimeError(f"{workload} seed {seed}: metrics {sorted(got)} != declared {sorted(want)}")
    return result, took


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def worse_by(first, second, better):
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--trace", action="store_true", help="one traced run per workload instead")
    ap.add_argument("--log", default=".bench_out/selfcheck.log")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    os.makedirs(os.path.dirname(args.log) or ".", exist_ok=True)
    log = open(args.log, "a")

    if args.trace:
        for w in workloads:
            try:
                result, took = run_once(bench, w, 1, True, log)
            except RuntimeError as e:
                print(f"harness error: {e}")
                return 1
            print(f"{w} traced ({took:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']})")
            for m in bench["per_layer"]:
                v = result["metrics"][m["name"]]
                print(f"  {m['name']:<38} {v['value']:>16.4f} {v['unit']}")
        return 0

    metrics = bench["end_to_end"]
    # values[set][workload][metric] -> list
    values = []
    for s in range(args.sets):
        per_w = {}
        for w in workloads:
            per_w[w] = {m["name"]: [] for m in metrics}
            per_w[w]["_failed"] = []
            per_w[w]["_attempted"] = []
            for i in range(args.runs):
                seed = (s + 1) * 1000 + i + 1
                try:
                    result, took = run_once(bench, w, seed, False, log)
                except (RuntimeError, json.JSONDecodeError, subprocess.TimeoutExpired) as e:
                    print(f"harness error: {e}")
                    return 1
                if not result["correct"]:
                    print(f"{w} seed {seed}: wrong answers (correct=false)")
                for m in metrics:
                    per_w[w][m["name"]].append(result["metrics"][m["name"]]["value"])
                per_w[w]["_failed"].append(result["failed"])
                per_w[w]["_attempted"].append(result["attempted"])
                print(f"set {s + 1} {w} seed {seed}: {took:.1f} s", file=sys.stderr)
        values.append(per_w)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<22} {'bound':>6}  " + "  ".join(
            f"{'median' + str(s + 1):>12} {'spread':>7}" for s in range(args.sets)) + "  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells, verdicts = [], []
            meds = []
            for s in range(args.sets):
                med, sp = spread(values[s][w][name])
                meds.append(med)
                cells.append(f"{med:>12.4f} {sp:>7.3f}")
                if name != "setup_s":
                    if sp > bound:
                        verdicts.append(f"set {s + 1} unresolved")
                    elif sp > bound / 3:
                        verdicts.append(f"set {s + 1} spread > bound/3")
            for s in range(1, args.sets):
                if worse_by(meds[0], meds[s], m["better"]) > bound:
                    verdicts.append(f"set {s + 1} disagrees")
            verdict = "; ".join(verdicts) if verdicts else "ok"
            ok &= not verdicts
            print(f"  {name:<22} {bound:>6}  " + "  ".join(cells) + f"  {verdict}")
        # The workloads are chosen so that no operation fails: any failure
        # is a verdict of its own.
        failed = [sum(values[s][w]["_failed"]) for s in range(args.sets)]
        attempted = [sum(values[s][w]["_attempted"]) for s in range(args.sets)]
        ok &= not any(failed)
        print(f"  {'failed operations':<22} {'':>6}  " + "  ".join(
            f"{f'{f} of {a}':>20}" for f, a in zip(failed, attempted))
            + ("  ok" if not any(failed) else "  operations failed"))
    print("\nall metrics steady and in agreement" if ok else "\nsome metrics need attention (see verdicts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
