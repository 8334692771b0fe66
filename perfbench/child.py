"""One benchmark process: set up, run one timed pass of a workload in-process
through ``ramat.cli.main``, check its output, report one JSON line.

``--mode prepare`` instead checks, untimed, that the Hermite basis of each
Kneser lattice the workload uses is bit-identical to the seed's, and reports
the interpreter and numpy versions.
``run.py`` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

from workloads import (
    HERMITE_CHECKED, KNESER, SRC, OUT, expected_lines, failed_items, graph_count,
    hermite_digest, kneser_divisor_failures, kneser_label, load_json, steps,
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("pass", "prepare"), default="pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--corpus", default=None)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="perf_counter reading of the parent just before spawning")
    return ap.parse_args(argv)


def import_ramat():
    sys.path.insert(0, str(SRC))
    import ramat
    import ramat.cli
    import ramat.group_oracle  # imported lazily by the CLI; load it to trace it

    if not ramat.__file__.startswith(str(SRC)):
        raise SystemExit(f"ramat imported from {ramat.__file__}, not {SRC}")
    return ramat


def run_step(cli, argv):
    """Run one CLI call with stdout captured: (seconds, exit code, lines, error)."""
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # reported as failed items, the pass goes on
        rc, error = None, repr(exc)
    t1 = time.perf_counter()
    return t1 - t0, rc, buf.getvalue().splitlines(), error


def prepare(ramat, ns, report):
    import numpy

    report["python"] = sys.version.split()[0]
    report["numpy"] = numpy.__version__
    want = load_json("kneser_hermite.json")
    for p in HERMITE_CHECKED.get(ns.workload, ()):
        g = ramat.graphs.kneser(*p)
        h = ramat.hermite_normal_form(ramat.ra_matrix(g).matrix)
        report["attempted"] += 1
        if hermite_digest(h) != want[kneser_label(*p)]["sha256"]:
            report["failed"] += 1
            report["errors"].append(f"{kneser_label(*p)}: Hermite basis differs from the seed's")


def main(argv=None) -> int:
    ns = parse_args(argv)
    report = {"attempted": 0, "failed": 0, "errors": []}
    ramat = import_ramat()
    tracer = None
    if ns.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    graph6 = {}
    if ns.workload in KNESER:
        for p in KNESER[ns.workload]:
            graph6[p] = ramat.graphs.graph6_encode(ramat.graphs.kneser(*p))
    plan = steps(ns.workload, corpus_path=ns.corpus, graph6=graph6)
    report["setup_s"] = time.perf_counter() - ns.spawned_at

    if ns.mode == "prepare":
        prepare(ramat, ns, report)
        print(json.dumps(report))
        return 0

    outputs = {}
    t0 = time.perf_counter()
    for label, cli_argv in plan:
        outputs[label] = run_step(ramat.cli, cli_argv)
    report["pass_s"] = time.perf_counter() - t0
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["steps"] = {label: out[0] for label, out in outputs.items()}

    want = expected_lines(ns.workload, corpus_path=ns.corpus)
    for label, (_, rc, lines, error) in outputs.items():
        expect = want[label]
        if error is not None or rc != 0:
            failed = set(range(len(expect)))
            report["errors"].append(f"{label}: exit code {rc}, {error or 'no exception'}")
        else:
            failed = failed_items(lines, expect)
            if ns.workload in KNESER:
                from ramat.verify import KNESER_TABLE_SLOW

                failed |= kneser_divisor_failures(ns.workload, lines, KNESER_TABLE_SLOW)
            if failed:
                report["errors"].append(f"{label}: {len(failed)} lines differ from the reference")
        report["attempted"] += len(expect)
        report["failed"] += len(failed)

    if tracer is not None:
        report["layers"] = tracer.layer_metrics(graph_count(ns.workload), ramat.verify.SUITES)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{ns.workload}-{ns.index}.tsv.gz")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
