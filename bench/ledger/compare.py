#!/usr/bin/env python3
"""Run perf_ledger and compare a parent and a change, pair by pair.

  compare.py run   --out runs.json [--root DIR] [--seeds 1,2] [--trace 1]
      Runs every workload once per seed in checkout DIR and saves the
      results.

  compare.py pairs --parent DIR --change DIR --pairs 10 --out pairs.json
      Runs N parent/change pairs per workload, alternating which side
      runs first and cycling the seeds; then prints the report.

  compare.py report pairs.json
      One row per workload x end-to-end metric: each side's median and
      quartiles, the change's win fraction (ties count for neither),
      whether the bound holds, and "unresolved" where the parent's own
      spread exceeds the bound (unless every change run beats every
      parent run). "gain" marks a gain that may be claimed: wins in at
      least 9/10 of pairs and medians further apart than the parent's
      quartile distance.

  compare.py spread runs.json
      Each workload x metric's quartile distance as a share of its
      median, against a third of its bound.

Bounds and directions come from BENCHMARK.json in --bench-root (default:
this checkout).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_ROOT = HERE.parents[1]


def load_bench(root):
    return json.loads((Path(root) / "BENCHMARK.json").read_text())


def run_once(root, workload, seed, trace, seconds):
    cmd = ["python3", "bench/ledger/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    info = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
        for line in lines:
            if line.startswith("info "):
                info = json.loads(line[5:])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return {"workload": workload, "seed": seed,
            "trace": trace, "exit": proc.returncode, "result": result,
            "info": info}


def save(path, records):
    Path(path).write_text(json.dumps(records, indent=1) + "\n")


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_values(records, workload, name):
    out = []
    for r in records:
        if r["workload"] != workload or not r["result"]:
            continue
        m = r["result"]["metrics"].get(name)
        if m and m["value"] is not None:
            out.append(m["value"])
    return out


def cmd_run(args):
    bench = load_bench(args.bench_root)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    records = []
    for seed in [int(s) for s in args.seeds.split(",")]:
        for w in workloads:
            rec = run_once(args.root, w, seed, args.trace, seconds)
            records.append(rec)
            ok = rec["result"] and rec["result"]["correct"]
            print(f"{w} seed={seed} exit={rec['exit']} correct={ok}",
                  flush=True)
            save(args.out, records)
    return 0


def cmd_pairs(args):
    bench = load_bench(args.bench_root)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    records = []
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        sides = [("parent", args.parent), ("change", args.change)]
        if i % 2 == 1:
            sides.reverse()
        for w in workloads:
            for side, root in sides:
                rec = run_once(root, w, seed, 0, seconds)
                rec.update(side=side, pair=i)
                records.append(rec)
                print(f"pair {i} {w} {side} seed={seed} exit={rec['exit']}",
                      flush=True)
                save(args.out, records)
    return report(records, bench)


def report(records, bench):
    failed = [r for r in records
              if not r["result"] or not r["result"]["correct"]]
    print(f"{len(records)} runs, {len(failed)} failed or incorrect")
    row = "{:15} {:16} {:>32} {:>32} {:>6} {:>5} {}"
    print(row.format("workload", "metric", "parent med [q1,q3]",
                     "change med [q1,q3]", "wins", "bound", "verdict"))
    for w in [x["name"] for x in bench["workloads"]]:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            pairs = {}
            for r in records:
                if r["workload"] != w or not r["result"]:
                    continue
                v = r["result"]["metrics"].get(name, {}).get("value")
                if v is not None:
                    pairs.setdefault(r["pair"], {})[r["side"]] = v
            p = [d["parent"] for d in pairs.values() if "parent" in d]
            c = [d["change"] for d in pairs.values() if "change" in d]
            if not p or not c:
                continue
            both = [d for d in pairs.values() if len(d) == 2]
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            wins = sum(better(d["change"], d["parent"]) for d in both)
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
            holds = worse <= bound
            spread = (pq3 - pq1) / pmed if pmed else float("inf")
            all_better = all(better(x, y) for x in c for y in p)
            if spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok" if holds else "REGRESSION"
            if both and wins / len(both) >= 0.9 and abs(cmed - pmed) > (pq3 - pq1):
                verdict += " gain"
            print(row.format(w, name, f"{pmed:.4g} [{pq1:.4g},{pq3:.4g}]",
                             f"{cmed:.4g} [{cq1:.4g},{cq3:.4g}]",
                             f"{wins}/{len(both)}", "holds" if holds else "no",
                             verdict))
    return 0 if not failed else 1


def cmd_report(args):
    records = json.loads(Path(args.file).read_text())
    return report(records, load_bench(args.bench_root))


def cmd_spread(args):
    bench = load_bench(args.bench_root)
    records = json.loads(Path(args.file).read_text())
    bad = 0
    for w in [x["name"] for x in bench["workloads"]]:
        for m in bench["end_to_end"]:
            vals = metric_values(records, w, m["name"])
            if len(vals) < 2:
                continue
            q1, med, q3 = quartiles(vals)
            share = (q3 - q1) / med
            target = m["bound"] / 3
            flag = "" if share <= target or m["name"] == "setup_s" else "  > bound/3"
            bad += bool(flag)
            print(f"{w:15} {m['name']:16} n={len(vals):2} median={med:10.4g} "
                  f"spread={share:6.3f} bound/3={target:.3f}{flag}")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(
        description="Run and compare perf_ledger results (see module doc).")
    p.add_argument("--bench-root", default=str(DEFAULT_ROOT))
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run")
    r.add_argument("--root", default=str(DEFAULT_ROOT))
    r.add_argument("--out", required=True)
    r.add_argument("--seeds", default="1,2")
    r.add_argument("--workloads")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--seconds", type=float)
    r.set_defaults(func=cmd_run)

    q = sub.add_parser("pairs")
    q.add_argument("--parent", required=True)
    q.add_argument("--change", required=True)
    q.add_argument("--pairs", type=int, default=10)
    q.add_argument("--out", required=True)
    q.add_argument("--seeds", default="1,2")
    q.add_argument("--workloads")
    q.add_argument("--seconds", type=float)
    q.set_defaults(func=cmd_pairs)

    s = sub.add_parser("report")
    s.add_argument("file")
    s.set_defaults(func=cmd_report)

    t = sub.add_parser("spread")
    t.add_argument("file")
    t.set_defaults(func=cmd_spread)

    args = p.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
