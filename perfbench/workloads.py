"""Workload definitions shared by the benchmark child and the reference capture.

A workload pass is a list of steps; each step is one ``ramat.cli.main``
call whose stdout is compared line by line with the reference outputs in
``perfbench/ref`` (captured from the seed commit by ``capture_refs.py``).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REF = HERE / "ref"
OUT = ROOT / ".perfbench_out"
CORPUS = ROOT / "tests" / "data" / "connected8.g6"

WORKLOADS = ("corpus8", "kneser3", "verify-all")
KNESER = {"kneser3": ((12, 3),)}
# Kneser lattices whose Hermite basis is checked once per run, untimed:
# the workload's own, and for verify-all those of its kneser-table suite.
HERMITE_CHECKED = {**KNESER, "verify-all": ((6, 2), (8, 2), (10, 2), (12, 2), (9, 3))}


def kneser_label(n: int, k: int) -> str:
    return f"Kn({n},{k})"


def corpus_lines() -> list:
    with open(CORPUS, "r", encoding="ascii") as fh:
        return [s for s in (line.strip() for line in fh) if s]


def graph_count(workload: str) -> int:
    """Graphs the workload's CLI steps receive (none for verify-all)."""
    return len(corpus_lines()) if workload == "corpus8" else len(KNESER.get(workload, ()))


def shuffled_corpus(seed: int) -> Path:
    """Write the corpus in a seed-determined order; return its path."""
    lines = corpus_lines()
    random.Random(seed).shuffle(lines)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"corpus8-seed{seed}.g6"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def steps(workload: str, corpus_path=None, graph6=None) -> list:
    """``(label, argv)`` for each CLI call of one pass.  ``graph6`` maps a
    Kneser parameter pair to its graph6 text."""
    if workload == "corpus8":
        path = str(corpus_path)
        return [("analyze", ["analyze", path]),
                ("batch", ["batch", path, "--workers", "1"])]
    if workload in KNESER:
        return [("analyze", ["analyze"] + [graph6[p] for p in KNESER[workload]])]
    if workload == "verify-all":
        return [("verify", ["verify", "--suite", "all"])]
    raise ValueError(f"unknown workload {workload!r}")


def hermite_digest(h) -> str:
    """Digest of a Hermite form's entries, pivot columns and diagonal."""
    text = "\n".join([h.matrix.to_text(), repr(h.pivot_columns), repr(h.diagonal)])
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# -- references -------------------------------------------------------------

def load_json(name: str):
    return json.loads((REF / name).read_text(encoding="ascii"))


def expected_lines(workload: str, corpus_path=None) -> dict:
    """Reference stdout lines per step label, in the order the pass runs."""
    if workload == "corpus8":
        with gzip.open(REF / "corpus8_analyze.jsonl.gz", "rt", encoding="ascii") as fh:
            ref = dict(zip(corpus_lines(), fh.read().splitlines()))
        with open(corpus_path, "r", encoding="ascii") as fh:
            order = [s.strip() for s in fh if s.strip()]
        batch = (REF / "corpus8_batch.tsv").read_text(encoding="ascii").splitlines()
        return {"analyze": [ref[s] for s in order], "batch": batch}
    if workload in KNESER:
        ref = load_json("kneser_analyze.json")
        return {"analyze": [ref[kneser_label(*p)] for p in KNESER[workload]]}
    if workload == "verify-all":
        return {"verify": (REF / "verify_all.tsv").read_text(encoding="ascii").splitlines()}
    raise ValueError(f"unknown workload {workload!r}")


def failed_items(got: list, want: list) -> set:
    """Indices of expected lines that are missing or differ; extra output
    marks the last one failed."""
    failed = {i for i, w in enumerate(want) if i >= len(got) or got[i] != w}
    if len(got) > len(want) and want:
        failed.add(len(want) - 1)
    return failed


def kneser_divisor_failures(workload: str, lines: list, table: dict) -> set:
    """Indices of records whose divisor multiset differs from ``table``, the
    library's own table of the slow Kneser entries."""
    failed = set()
    for i, p in enumerate(KNESER[workload]):
        try:
            divisors = json.loads(lines[i])["divisors"]
        except (IndexError, ValueError, KeyError, TypeError):
            failed.add(i)
            continue
        if dict(Counter(d for d in divisors if d > 1)) != table[p]:
            failed.add(i)
    return failed
