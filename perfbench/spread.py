#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

From the repository root:

    python3 perfbench/spread.py --workloads meta,bulk,history --seeds 1-10

For each workload and end-to-end metric it prints the median and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. --baseline FILE also writes the medians as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="meta,bulk,history")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--baseline", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {}
    ok = True
    for w in args.workloads.split(","):
        vals = {}
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0:
                print(f"{w} seed {s}: exit {p.returncode}\n{p.stdout}\n{p.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(last)
            if not res["correct"] or res["failed"]:
                ok = False
            for k, v in res["metrics"].items():
                vals.setdefault(k, []).append(v["value"])
            print(f"{w} seed {s}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                  file=sys.stderr, flush=True)
        report[w] = {}
        print(f"\n{w}")
        print(f"{'metric':34} {'median':>12} {'spread':>8} {'bound':>6}")
        for k in sorted(vals):
            v = vals[k]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            spread = (q[2] - q[0]) / med if med else float("nan")
            b = bounds.get(k)
            flag = ""
            if b is not None and k != "setup_s" and spread > b / 3:
                flag = "  > bound/3"
            print(f"{k:34} {med:12.6g} {spread:8.3f} {b if b is not None else '':>6}{flag}")
            report[w][k] = {"median": med, "spread": spread, "runs": len(v)}
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
