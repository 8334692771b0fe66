"""ramat benchmark: one workload, timed end to end from outside the package.

    python3 perfbench/run.py --workload corpus8 --seed 1 --seconds 28 --trace 0

Each pass runs in a fresh child process (``child.py``) that imports ramat
from ``src``, calls ``ramat.cli.main`` in-process with stdout captured, and
checks every output line against the references in ``perfbench/ref``.  One
closed-loop client: passes run one after another, with no threads and no
pool.  Passes start until ``--seconds`` have elapsed; each end-to-end metric
is the median over the run's passes.  The seed orders the corpus lines; the
work done is the same for every seed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, at least two of each, and reports the per-layer
metrics: medians of self times, counters that must repeat exactly across the
traced passes, and the tracing overhead, the median over each traced pass of
its time over that of the untraced pass just before it.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import is_counter
from workloads import CORPUS, REF, SRC, WORKLOADS, graph_count, shuffled_corpus

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
RUN_LIMIT_S = 170  # a run must end within 180 s

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """A child failed to report; the run prints no result."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fingerprint(prep: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": prep.get("python"), "numpy": prep.get("numpy")}


class Runner:
    def __init__(self, ns):
        self.ns = ns
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.corpus = shuffled_corpus(ns.seed) if ns.workload == "corpus8" else None
        self.count = 0

    def child(self, mode: str, traced: bool) -> dict:
        self.count += 1
        args = ["--workload", self.ns.workload, "--mode", mode, "--trace", str(int(traced)), "--index", str(self.count)]
        if self.corpus is not None:
            args += ["--corpus", str(self.corpus)]
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("run time limit reached")
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), *args, "--spawned-at", repr(spawned)],
                capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child passed the run time limit") from exc
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(lines[-1])


def median_of(reports, key):
    return statistics.median(r[key] for r in reports)


def step_rate(reports, label, graphs):
    times = [r["steps"][label] for r in reports if label in r["steps"]]
    return graphs / statistics.median(times) if times and graphs else 0.0


def counters_of(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if is_counter(k)}


def run(ns) -> dict:
    runner = Runner(ns)
    prep = runner.child("prepare", traced=False)
    plain, traced = [], []
    start = time.perf_counter()
    if ns.trace:
        # untraced/traced pairs while time remains, at least two pairs
        while len(traced) < 2 or time.perf_counter() - start < ns.seconds:
            plain.append(runner.child("pass", traced=False))
            traced.append(runner.child("pass", traced=True))
    else:
        while True:
            plain.append(runner.child("pass", traced=False))
            if time.perf_counter() - start >= ns.seconds:
                break
    reports = [prep] + plain + traced
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    errors = [e for r in reports for e in r["errors"]]
    correct = failed == 0
    graphs = graph_count(ns.workload)
    summary = {
        "workload": ns.workload, "seed": ns.seed, "passes": len(plain),
        "traced_passes": len(traced), "failed_frac": failed / attempted,
        "analyze_graphs_per_s": step_rate(plain, "analyze", graphs),
        "batch_graphs_per_s": step_rate(plain, "batch", graphs),
        "machine": fingerprint(prep),
    }
    if ns.trace:
        first = counters_of(traced[0]["layers"])
        repeat = all(counters_of(r["layers"]) == first for r in traced[1:])
        if not repeat:
            correct = False
            errors.append("layer counters differ between traced passes")
        metrics = dict(first)
        for name in traced[0]["layers"]:
            if name.endswith("self_s"):
                metrics[name] = statistics.median(r["layers"][name] for r in traced)
        metrics["cli.analyze_graphs_per_s"] = summary["analyze_graphs_per_s"]
        metrics["cli.batch_graphs_per_s"] = summary["batch_graphs_per_s"]
        metrics["trace.overhead_frac"] = statistics.median(
            t["pass_s"] / u["pass_s"] for u, t in zip(plain, traced)) - 1
    else:
        summary["pass_s"] = [r["pass_s"] for r in plain]
        metrics = {
            "setup_s": median_of(plain, "setup_s"),
            "pass_s": median_of(plain, "pass_s"),
            "peak_rss_mb": median_of(plain, "rss_mb"),
        }
    for e in errors[:20]:
        print(f"error: {e}", file=sys.stderr)
    return {"summary": summary, "correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("self_s"):
        return "s"
    if name.endswith("per_s"):
        return "graphs/s"
    if name.endswith(("_frac", "_ratio", "_per_graph", "_per_row")):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    ns = parse_args(argv)
    missing = [p for p in (SRC / "ramat" / "__init__.py", CORPUS, REF) if not p.exists()]
    if missing:
        print(f"run.py: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    try:
        result = run(ns)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result.pop("summary")))
    result["metrics"] = {k: {"value": v, "unit": unit_of(k)}
                         for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
