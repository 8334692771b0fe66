"""Run-to-run spread of the benchmark, as the acceptance rule measures it.

    python3 perfbench/spread.py --seeds 1-10 --out spread.json [--workloads corpus8,kneser3]
    python3 perfbench/spread.py --compare first.json second.json

The first form runs ``run.py`` once per workload and seed (trace off) with
``run_seconds`` from ``BENCHMARK.json`` and reports, per end-to-end metric,
the median and the quartile spread ``(Q3 - Q1) / median`` of the values,
with quartiles from ``statistics.quantiles(values, n=4)``.  ``--trace 1``
instead checks that every per-layer counter repeats exactly across seeds.
The second form reports how far each median of the second set moved from
the first, as a share of the first, against each metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spans import is_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def collect(workloads, seeds, seconds, trace) -> dict:
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                raise SystemExit(f"{w} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            *_, summary, last = proc.stdout.splitlines()
            result = json.loads(last)
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed} is not correct:\n{proc.stderr}")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs[w].append(values)
            print(w, seed, json.dumps(values if not trace else {}), summary, file=sys.stderr)
    return runs


def summarize(runs, bench) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {}
    for w, values in runs.items():
        out[w] = {}
        for name in values[0]:
            series = [v[name] for v in values]
            out[w][name] = {"median": statistics.median(series), "spread": spread(series),
                            "bound": bounds.get(name), "values": series}
    return out


def compare(first, second, bench) -> int:
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    worst = 0
    for w in first:
        for name, a in first[w].items():
            b = second[w][name]
            bound, better = bounds[name]
            shift = (b["median"] - a["median"]) / a["median"]
            worse = shift if better == "lower" else -shift
            flag = "ok" if worse <= bound else "WORSE"
            worst = max(worst, worse / bound)
            print(f"{w:11s} {name:12s} {a['median']:.4f} -> {b['median']:.4f} "
                  f"shift {shift:+.3f} bound {bound} {flag}")
    return 0 if worst <= 1 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--compare", nargs=2, default=None)
    ns = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    if ns.compare:
        a, b = (json.loads(Path(p).read_text(encoding="ascii")) for p in ns.compare)
        return compare(a, b, bench)
    workloads = (ns.workloads.split(",") if ns.workloads
                 else [w["name"] for w in bench["workloads"]])
    runs = collect(workloads, seeds_of(ns.seeds), bench["run_seconds"], ns.trace)
    if ns.trace:
        def counters(r):
            return {k: v for k, v in r.items() if is_counter(k)}
        bad = [w for w, values in runs.items()
               if any(counters(r) != counters(values[0]) for r in values)]
        print(json.dumps({w: runs[w][0] for w in runs}, indent=1))
        print("counters differ across seeds: " + (", ".join(bad) if bad else "none"))
        return 1 if bad else 0
    summary = summarize(runs, bench)
    for w, metrics in summary.items():
        for name, s in metrics.items():
            bound = s["bound"]
            flag = "" if bound is None else (
                "ok" if s["spread"] < bound / 3 else "within bound" if s["spread"] <= bound
                else "OVER BOUND")
            print(f"{w:11s} {name:12s} median {s['median']:.4f} spread {s['spread']:.4f} "
                  f"bound {bound} {flag}")
    if ns.out:
        Path(ns.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
